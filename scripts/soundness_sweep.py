"""Randomized soundness sweep.

Checks, over freshly generated models and actions, that the update-free
reduct of a formula agrees with direct evaluation, that the validity
verdict on the formula is borne out by evaluation (an INVALID
countermodel falsifies it, a VALID formula holds at every world of the
round's model), and that the temporal axioms hold on forest-like models.
Useful for longer runs than the test suite's fixed budgets.
"""

import argparse
import random
import sys
from dataclasses import dataclass

from detl.formula import Atom, BOT, Box, Not, Yesterday, iff, implies
from detl.generate import (DEFAULT_SIG, rand_atemporal_action, rand_formula,
                           rand_kripke, rand_restricted, rand_temporal_action)
from detl.kripke import is_restricted
from detl.logic import reduce_formula, validity
from detl.semantics import evaluate


@dataclass
class SweepConfig:
    seed: int = 0
    rounds: int = 2000
    max_worlds: int = 5
    formula_depth: int = 3


def temporal_axioms(sig):
    no_past = Not(Yesterday(BOT))
    out = [iff(Yesterday(Atom(p)), implies(no_past, Atom(p)))
           for p in sig.atoms]
    for a in sig.agents:
        out.append(implies(Yesterday(Box(a, Atom(sig.atoms[0]))),
                           Box(a, Yesterday(Atom(sig.atoms[0])))))
        out.append(implies(no_past, Box(a, no_past)))
        out.append(implies(Yesterday(BOT), Box(a, Yesterday(BOT))))
    return out


def sweep(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    sig = DEFAULT_SIG
    axioms = temporal_axioms(sig)
    reduction_checks = axiom_checks = 0
    verdicts = {True: 0, False: 0}
    for i in range(cfg.rounds):
        M = rand_kripke(rng, sig, max_worlds=cfg.max_worlds)
        actions = tuple((U, e)
                        for U in (rand_atemporal_action(rng, sig, name="V"),
                                  rand_temporal_action(rng, sig, name="W"))
                        for e in U.events)
        f = rand_formula(rng, sig, cfg.formula_depth, actions)
        g = reduce_formula(f)
        for w in M.worlds:
            if evaluate(M, w, f) != evaluate(M, w, g):
                print(f"FAIL: reduction disagrees at round {i}, world {w}")
                return 1
            reduction_checks += 1
        valid, counter = validity(f)
        if valid:
            if not all(evaluate(M, w, f) for w in M.worlds):
                print(f"FAIL: VALID formula falsified at round {i}")
                return 1
        elif evaluate(counter.model, counter.point, f):
            print(f"FAIL: countermodel satisfies the formula at round {i}")
            return 1
        verdicts[valid] += 1
        R = rand_restricted(rng, sig, max_worlds=3)
        assert is_restricted(R).holds
        for w in R.worlds:
            for ax in axioms:
                if not evaluate(R, w, ax):
                    print(f"FAIL: axiom falsified at round {i}, world {w}")
                    return 1
                axiom_checks += 1
    print(f"OK: {reduction_checks} reduction checks, "
          f"{verdicts[True]} VALID and {verdicts[False]} INVALID verdicts "
          f"checked, {axiom_checks} axiom checks, {cfg.rounds} rounds")
    return 0


def parse_args() -> SweepConfig:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=2000)
    ap.add_argument("--max-worlds", type=int, default=5)
    ap.add_argument("--formula-depth", type=int, default=3)
    ns = ap.parse_args()
    return SweepConfig(seed=ns.seed, rounds=ns.rounds,
                       max_worlds=ns.max_worlds,
                       formula_depth=ns.formula_depth)


if __name__ == "__main__":
    sys.exit(sweep(parse_args()))

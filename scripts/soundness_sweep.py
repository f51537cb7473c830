"""Randomized soundness sweep.

Checks, over freshly generated models and actions, that the update-free
reduct of a formula agrees with direct evaluation, that the validity
verdict on the formula equals the verdict on its reduct and is borne out
by evaluation (an INVALID countermodel falsifies it, a VALID formula
holds at every world of the round's model), that the temporal axioms
hold on forest-like models, that the round's model and its product
by each action come back equal from their saved document and from their
relations shuffled with repeats, that a closure key reads the drawn
relations of the round's model and of one of its actions alike, and
that `bisimilar` between the round's model and each of its products,
its ⊕ update and itself agrees with a brute-force greatest bisimulation
and links only what a re-check from the definition accepts, and that
every frame-property report those products inherit from their factors,
whose reports are computed on a random subset first, is the one the
direct check gives.
Useful for longer runs than the test suite's fixed budgets.
"""

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from detl.formula import Atom, BOT, Box, Not, Yesterday, iff, implies
from detl.kripke import (CLOSURE_MODES, KripkeModel, PointedModel,
                         check_frame_property, check_property, is_restricted,
                         relation_closure)
from detl.logic import bisimilar, reduce_formula, validity
from detl.semantics import (EmptyProductError, evaluate, product_update,
                            ydel_update)
from detl.serialize import (action_to_document, document_to_object,
                            model_to_document)

# the random generators live with the test suite
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from bisimulation import (greatest_bisimulation,  # noqa: E402
                          verify_bisimulation)
from generate import (DEFAULT_SIG, rand_atemporal_action,  # noqa: E402
                      rand_formula, rand_kripke, rand_restricted,
                      rand_temporal_action)


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


def _shuffled(rng, items) -> list:
    """items in random order, about half of them twice."""
    items = list(items)
    out = items + rng.sample(items, len(items) // 2)
    rng.shuffle(out)
    return out


def rebuild_problem(rng, P: KripkeModel):
    """Why P does not come back equal from its saved document or from its
    relations shuffled with repeats; None when it does."""
    if document_to_object(model_to_document(P))[1] != P:
        return "model differs after a save and load"
    again = KripkeModel(
        sig=P.sig, worlds=_shuffled(rng, P.worlds),
        epistemic={a: _shuffled(rng, pairs) for a, pairs in P.epistemic},
        yesterday=_shuffled(rng, P.yesterday),
        valuation={p: _shuffled(rng, ws) for p, ws in P.valuation})
    return None if again == P else "model differs rebuilt from shuffled input"


def closure_problem(rng, M: KripkeModel, U) -> Optional[str]:
    """Why M's and U's relations, drawn as documents with a random closure
    mode and sometimes one agent left out, load otherwise than closed;
    None when they do not.  The model must load as `relation_closure` of
    its drawing, the action with the relations of a model of its events
    drawn the same way."""
    mode = rng.choice(CLOSURE_MODES)
    drop = rng.choice((None,) + M.sig.agents)

    def drawn(F):
        return {a: [list(e) for e in pairs]
                for a, pairs in F.epistemic if a != drop}

    D = KripkeModel(sig=M.sig, worlds=M.worlds, epistemic=drawn(M),
                    yesterday=M.yesterday, valuation=M.valuation)
    doc = dict(model_to_document(M), epistemic=drawn(M), closure=mode)
    if document_to_object(doc)[1] != relation_closure(D, mode):
        return f"model loads unlike its {mode} closure"
    doc = dict(action_to_document(U), epistemic=drawn(U), closure=mode)
    _, A, _ = document_to_object(doc)
    _, N, _ = document_to_object({
        "type": "kripke", "agents": list(U.sig.agents),
        "worlds": list(U.events), "epistemic": drawn(U), "closure": mode})
    if A.epistemic != N.epistemic:
        return f"action loads unlike a model of its drawing under {mode}"
    return None


def bisimulation_problem(rng, M: KripkeModel, K: KripkeModel,
                         linked: dict) -> Optional[str]:
    """Why `bisimilar` between a random world of M and a world of K (one
    the greatest bisimulation links to it, if any, and a random one)
    disagrees with that bisimulation or links what `verify_bisimulation`
    rejects; None when it does not.  linked counts the answers by
    verdict."""
    R = greatest_bisimulation(M, K)
    w = rng.choice(M.worlds)
    for v in [v for x, v in sorted(R) if x == w][:1] + [rng.choice(K.worlds)]:
        A, B = PointedModel(M, w), PointedModel(K, v)
        wit = bisimilar(A, B)
        linked[wit is not None] += 1
        if (wit is not None) != ((w, v) in R):
            return f"bisimilar({w}, {v}) disagrees with the brute force"
        if wit is not None:
            if wit.relation != R:
                return f"bisimilar({w}, {v}) is not the greatest"
            try:
                verify_bisimulation(A, B, wit.relation)
            except AssertionError as exc:
                return f"bisimilar({w}, {v}) fails the re-check: {exc}"
    return None


def sweep(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    # a stream of its own, so the rounds draw the same models as before
    shuffle_rng = random.Random(f"{cfg.seed}:shuffle")
    closure_rng = random.Random(f"{cfg.seed}:closure")
    bisim_rng = random.Random(f"{cfg.seed}:bisim")
    report_rng = random.Random(f"{cfg.seed}:reports")
    sig = DEFAULT_SIG
    axioms = temporal_axioms(sig)
    reduction_checks = axiom_checks = rebuild_checks = closure_checks = 0
    inherited_checks = 0
    verdicts = {True: 0, False: 0}
    linked = {True: 0, False: 0}
    for i in range(cfg.rounds):
        M = rand_kripke(rng, sig, max_worlds=cfg.max_worlds)
        updates = (rand_atemporal_action(rng, sig, name="V"),
                   rand_temporal_action(rng, sig, name="W"))
        actions = tuple((U, e) for U in updates for e in U.events)
        # the premises of inheritance, sometimes missing
        for F in (M, *updates):
            for name in F.REPORTS[:-1]:
                if report_rng.random() < 0.7:
                    check_property(F, name)
        models = [M]
        for U in updates:
            try:
                models.append(product_update(M, U))
            except EmptyProductError:
                pass
        plus = ydel_update(M, updates[0], True)
        for K in models[1:] + [plus]:
            for name, rep in dict(K._reports).items():
                if rep != check_frame_property(name, K):
                    print(f"FAIL: inherited {name} differs from the check "
                          f"at round {i}")
                    return 1
                inherited_checks += 1
        for P in models:
            bad = rebuild_problem(shuffle_rng, P)
            if bad:
                print(f"FAIL: {bad} at round {i}")
                return 1
            rebuild_checks += 1
        bad = closure_problem(closure_rng, M, closure_rng.choice(updates))
        if bad:
            print(f"FAIL: {bad} at round {i}")
            return 1
        closure_checks += 1
        for K in models + [plus]:
            bad = bisimulation_problem(bisim_rng, M, K, linked)
            if bad:
                print(f"FAIL: {bad} at round {i}")
                return 1
        f = rand_formula(rng, sig, cfg.formula_depth, actions)
        g = reduce_formula(f)
        for w in M.worlds:
            if evaluate(M, w, f) != evaluate(M, w, g):
                print(f"FAIL: reduction disagrees at round {i}, world {w}")
                return 1
            reduction_checks += 1
        valid, counter = validity(f)
        if valid != validity(g)[0]:
            print(f"FAIL: verdict differs from deciding the reduct at round {i}")
            return 1
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
          f"checked, {axiom_checks} axiom checks, {rebuild_checks} rebuild "
          f"checks, {closure_checks} closure checks, {linked[True]} "
          f"BISIMILAR and {linked[False]} NOT-BISIMILAR verdicts checked, "
          f"{inherited_checks} inherited reports checked, {cfg.rounds} rounds")
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

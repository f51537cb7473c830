"""Seeded random generators for models, actions and formulas.

Used by the property-test suites and the experiment scripts.  Each
generator takes an explicit random.Random so runs are reproducible.
Constructions that must satisfy a frame condition either build it in
(layered or forest shapes) or repair a random draw (edge-dropping
fixups), and the test suites re-check the condition anyway.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from detl.action import ActionModel
from detl.formula import (And, Atom, BOT, Box, Formula, Not, Signature, TOP,
                          Update, Yesterday)
from detl.kripke import KripkeModel, check_property
from detl.semantics import ydel_update

DEFAULT_SIG = Signature(("a", "b"), ("p", "q"))


def _rand_pairs(rng: random.Random, nodes, density: float = 0.3):
    return {(x, y) for x in nodes for y in nodes if rng.random() < density}


def _rand_valuation(rng: random.Random, sig: Signature, nodes):
    return {p: {n for n in nodes if rng.random() < 0.5} for p in sig.atoms}


def rand_kripke(rng: random.Random, sig: Signature = DEFAULT_SIG,
                max_worlds: int = 5, temporal: bool = True,
                acyclic: bool = False, unique_past: bool = False,
                density: float = 0.3) -> KripkeModel:
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    yesterday = set()
    if temporal:
        if unique_past:
            for j in range(1, n):
                if rng.random() < 0.7:
                    yesterday.add((worlds[rng.randrange(j)], worlds[j]))
        elif acyclic:
            yesterday = {(worlds[i], worlds[j])
                         for i in range(n) for j in range(i + 1, n)
                         if rng.random() < density}
        else:
            yesterday = _rand_pairs(rng, worlds, density)
    return KripkeModel(
        sig=sig, worlds=worlds,
        epistemic={a: _rand_pairs(rng, worlds, density) for a in sig.agents},
        yesterday=yesterday,
        valuation=_rand_valuation(rng, sig, worlds),
    )


def rand_atemporal_kripke(rng, sig: Signature = DEFAULT_SIG,
                          max_worlds: int = 4,
                          density: float = 0.4) -> KripkeModel:
    return rand_kripke(rng, sig, max_worlds, temporal=False, density=density)


def rand_sync_kripke(rng: random.Random, sig: Signature = DEFAULT_SIG,
                     max_worlds: int = 6) -> KripkeModel:
    """Layered model: epistemic arrows stay within a layer and each
    non-initial world has a parent in the previous layer, so depths are
    the layer indices and synchronicity holds by construction."""
    n = rng.randint(1, max_worlds)
    layers = rng.randint(1, min(3, n))
    worlds = tuple(f"w{i}" for i in range(n))
    layer_of = {w: (0 if i < layers else rng.randrange(layers))
                for i, w in enumerate(worlds)}
    # ensure each used layer index is inhabited from below
    for i, w in enumerate(worlds[:layers]):
        layer_of[w] = i
    by_layer = [[w for w in worlds if layer_of[w] == k] for k in range(layers)]
    yesterday = set()
    for k in range(1, layers):
        for w in by_layer[k]:
            yesterday.add((rng.choice(by_layer[k - 1]), w))
            if rng.random() < 0.3 and len(by_layer[k - 1]) > 1:
                yesterday.add((rng.choice(by_layer[k - 1]), w))
    epistemic = {}
    for a in sig.agents:
        pairs = set()
        for layer in by_layer:
            pairs |= {(x, y) for x in layer for y in layer
                      if rng.random() < 0.4}
        epistemic[a] = pairs
    return KripkeModel(sig=sig, worlds=worlds, epistemic=epistemic,
                       yesterday=yesterday,
                       valuation=_rand_valuation(rng, sig, worlds))


def make_persistent(rng: random.Random, M: KripkeModel) -> KripkeModel:
    """Copy each atom's value across weakly ⇝-connected components."""
    comp = {w: w for w in M.worlds}

    def find(w):
        while comp[w] != w:
            comp[w] = comp[comp[w]]
            w = comp[w]
        return w

    for x, y in M.yesterday:
        comp[find(x)] = find(y)
    valuation = {}
    for p, ws in M.val.items():
        chosen = {find(w) for w in M.worlds if rng.random() < 0.5 and w in ws}
        valuation[p] = {w for w in M.worlds if find(w) in chosen}
    return KripkeModel(sig=M.sig, worlds=M.worlds, epistemic=M.epi,
                       yesterday=M.yesterday, valuation=valuation)


def _drop_edges(M: KripkeModel, offending) -> KripkeModel:
    """Rebuild M without the epistemic edges listed as (agent, x, y)."""
    epi = {a: set(pairs) for a, pairs in M.epi.items()}
    for a, x, y in offending:
        epi[a].discard((x, y))
    return KripkeModel(sig=M.sig, worlds=M.worlds, epistemic=epi,
                       yesterday=M.yesterday, valuation=M.valuation)


def make_knowledge_of_past(M: KripkeModel) -> KripkeModel:
    """Drop epistemic edges from worlds with a past into worlds without
    one; dropping cannot create new violations."""
    has_past = {w: bool(M.yesterdays(w)) for w in M.worlds}
    offending = [(a, x, y) for a, pairs in M.epi.items()
                 for x, y in pairs if has_past[x] and not has_past[y]]
    return _drop_edges(M, offending)


def make_knowledge_of_initial_time(M: KripkeModel) -> KripkeModel:
    has_past = {w: bool(M.yesterdays(w)) for w in M.worlds}
    offending = [(a, x, y) for a, pairs in M.epi.items()
                 for x, y in pairs if not has_past[x] and has_past[y]]
    return _drop_edges(M, offending)


def make_perfect_recall(M: KripkeModel) -> KripkeModel:
    """Drop the later-time edge of each perfect-recall violation until a
    fixpoint is reached (dropping edges can remove witnesses, so this
    has to iterate)."""
    while True:
        rep = check_property(M, "perfect_recall")
        if rep.holds:
            return M
        w, v, a, v2 = rep.witness
        M = _drop_edges(M, [(a, v, v2)])


def rand_atemporal_action(rng: random.Random, sig: Signature = DEFAULT_SIG,
                          max_events: int = 3, density: float = 0.4,
                          name: str = "V",
                          guarantee_fire: bool = True) -> ActionModel:
    n = rng.randint(1, max_events)
    events = tuple(f"e{i}" for i in range(n))
    pres = {}
    for i, e in enumerate(events):
        pres[e] = rand_literal_formula(rng, sig)
    if guarantee_fire:
        pres[events[0]] = TOP
    epistemic = {a: _rand_pairs(rng, events, density) |
                 {(e, e) for e in events}
                 for a in sig.agents}
    return ActionModel(sig=sig, events=events, epistemic=epistemic,
                       yesterday=(), pre=pres, name=name)


def rand_literal_formula(rng: random.Random, sig: Signature) -> Formula:
    """Small update-free precondition: ⊤, a literal, or a conjunction of
    two literals."""
    if not sig.atoms or rng.random() < 0.2:
        return TOP
    lits = [Atom(p) for p in sig.atoms] + [Not(Atom(p)) for p in sig.atoms]
    f = rng.choice(lits)
    if rng.random() < 0.4:
        f = And(f, rng.choice(lits))
    return f


def rand_temporal_action(rng: random.Random, sig: Signature = DEFAULT_SIG,
                         max_events: int = 3, density: float = 0.3,
                         name: str = "V") -> ActionModel:
    """Unconstrained action model: arbitrary epistemic and yesterday
    arrows, literal preconditions."""
    U = rand_atemporal_action(rng, sig, max_events, density, name)
    events = U.events
    yesterday = {(x, y) for x in events for y in events
                 if x != y and rng.random() < density}
    return ActionModel(sig=sig, events=events, epistemic=U.epi,
                       yesterday=yesterday, pre=U.pre_map, name=name)


def rand_restricted(rng: random.Random, sig: Signature = DEFAULT_SIG,
                    max_worlds: int = 3, max_updates: int = 2) -> KripkeModel:
    """Restricted (forest-like) model: an atemporal model is trivially
    restricted, and the class is closed under the ⊕ update."""
    M = rand_atemporal_kripke(rng, sig, max_worlds)
    for k in range(rng.choice([0, 0, 1, 1, max_updates])):
        U = rand_atemporal_action(rng, sig, max_events=2, name=f"V{k}")
        M = ydel_update(M, U, True)
    return M


def rand_forest_action(rng: random.Random, sig: Signature = DEFAULT_SIG,
                       max_roots: int = 2, max_extra: int = 3,
                       witness_atoms: Optional[frozenset] = None,
                       name: str = "V") -> ActionModel:
    """History-preserving forest action.

    Roots are epistemic past states (pre ⊤, isolated self-loops).
    Non-root events sit in layers, each with a single parent one layer
    up; preconditions strengthen along chains by conjoining literals, so
    pre(child) → pre(parent) is valid.  Epistemic arrows below the roots
    only connect same-depth events whose parents are already connected,
    which yields knowledge of past/initial time, perfect recall and
    synchronicity by construction.

    When witness_atoms is given, literals are chosen true under that
    atom set, so every precondition is satisfied at a world with exactly
    those atoms.
    """
    n_roots = rng.randint(1, max_roots)
    events = [f"r{i}" for i in range(n_roots)]
    parent = {e: None for e in events}
    pre = {e: TOP for e in events}
    level = {e: 0 for e in events}
    n_extra = rng.randint(0, max_extra)
    for i in range(n_extra):
        e = f"e{i}"
        par = rng.choice(events)
        if rng.random() < 0.7:
            # prefer deep chains: hang off the most recent event
            par = events[-1]
        events.append(e)
        parent[e] = par
        level[e] = level[par] + 1
        lit = _witness_literal(rng, sig, witness_atoms)
        pre[e] = lit if pre[par] == TOP else And(pre[par], lit)
    yesterday = {(parent[e], e) for e in events if parent[e] is not None}
    epistemic = {}
    for a in sig.agents:
        pairs = {(e, e) for e in events}
        nonroots = [e for e in events if parent[e] is not None]
        for x in nonroots:
            for y in nonroots:
                if x != y and level[x] == level[y] \
                        and (parent[x], parent[y]) in pairs \
                        and rng.random() < 0.5:
                    pairs.add((x, y))
        epistemic[a] = pairs
    return ActionModel(sig=sig, events=events, epistemic=epistemic,
                       yesterday=yesterday, pre=pre, name=name)


def _witness_literal(rng: random.Random, sig: Signature,
                     witness_atoms: Optional[frozenset]) -> Formula:
    if not sig.atoms:
        return TOP
    p = rng.choice(sig.atoms)
    if witness_atoms is None:
        return Atom(p) if rng.random() < 0.5 else Not(Atom(p))
    return Atom(p) if p in witness_atoms else Not(Atom(p))


def rand_formula(rng: random.Random, sig: Signature = DEFAULT_SIG,
                 depth: int = 3, actions: Tuple = (),
                 allow_yesterday: bool = True) -> Formula:
    """Random formula of the given connective depth; update modalities
    are drawn from the supplied (action, event) pairs."""
    if depth <= 0 or rng.random() < 0.15:
        choices: List[Formula] = [Atom(p) for p in sig.atoms] + [BOT, TOP]
        return rng.choice(choices)
    kinds = ["not", "and", "box"]
    if allow_yesterday:
        kinds.append("yesterday")
    if actions:
        kinds.append("update")
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(rand_formula(rng, sig, depth - 1, actions, allow_yesterday))
    if kind == "and":
        return And(rand_formula(rng, sig, depth - 1, actions, allow_yesterday),
                   rand_formula(rng, sig, depth - 1, actions, allow_yesterday))
    if kind == "box":
        return Box(rng.choice(sig.agents),
                   rand_formula(rng, sig, depth - 1, actions, allow_yesterday))
    if kind == "yesterday":
        return Yesterday(rand_formula(rng, sig, depth - 1, actions,
                                      allow_yesterday))
    U, s = rng.choice(actions)
    return Update(U, s, rand_formula(rng, sig, depth - 1, actions,
                                     allow_yesterday))

"""End-to-end acceptance suite: one test per numbered criterion.

Counts and tolerances are fixed; every comparison is exact equality.
"""

import random

import pytest

from detl.action import (PointedAction, action_depth,
                         check_action_property, check_history_preservation,
                         check_past_preservation, sharp_action, sharp_formula)
from detl.formula import And, Atom, Box, Not, Update, Yesterday, \
    depth_formula, is_setl
from detl.kripke import (INFINITE, PointedModel, check_property, depth,
                         is_restricted)
from detl.logic import bisimilar, is_valid, reduce_formula, validity
from detl.semantics import (Verdict, eval_rdetl, eval_ydel, evaluate,
                            language_equivalence_probe, pair_name,
                            product_update, split_pair, ydel_update)

from generate import (DEFAULT_SIG, make_knowledge_of_initial_time,
                      make_knowledge_of_past, make_perfect_recall,
                      make_persistent, rand_atemporal_action,
                      rand_forest_action, rand_formula, rand_kripke,
                      rand_restricted, rand_sync_kripke,
                      rand_temporal_action)
from axioms import fig6_instances, fig7_instances, fig11_update_instances, \
    k_instances
from bisimulation import verify_bisimulation

SIG = DEFAULT_SIG


def test_criterion_01_example_1_replay(ws, M):
    assert evaluate(M, "w", ws.parse("~[a]p & ~[b]p"))
    assert evaluate(
        M, "w", ws.parse("[U2@s](([a]p & [b]p) & <Y>(~[a]p & ~[b]p))"))
    P = product_update(M, ws.actions["U2"][0])
    assert len(P.worlds) == 5
    assert depth(P, "w|s") == 1


def test_criterion_02_null_update_bisimilar(ws, M):
    P = product_update(M, ws.actions["U3"][0])
    A, B = PointedModel(P, "w|t"), PointedModel(M, "w")
    wit = bisimilar(A, B)
    assert wit is not None
    verify_bisimulation(A, B, wit.relation)
    assert language_equivalence_probe(A, B, max_depth=3).agree


def test_criterion_03_depth_increases_by_two(ws, M):
    P = product_update(M, ws.actions["U4"][0])
    assert depth(P, "w|r") == 2


def test_criterion_04_two_step_one_step_contrast(ws, M):
    f = ws.parse("<a>[Y][b](p & q)")
    P5 = product_update(M, ws.actions["U5"][0])
    P6 = product_update(M, ws.actions["U6"][0])
    assert evaluate(P5, "w|r", f)
    assert not evaluate(P6, "w|r", f)
    # the one-step actual world satisfies the knowledge claim
    g = ws.parse("<a>[b](p & q) & [b](p & q)")
    assert evaluate(P6, "w|r", g)
    # the two-step product is asynchronous, witnessed by the drawn arrow
    rep = check_property(P5, "synchronicity")
    assert not rep.holds
    assert ("w|r", "u|s") in P5.epi["a"]
    assert depth(P5, "w|r") == 2 and depth(P5, "u|s") == 1


@pytest.mark.xfail(
    strict=True,
    reason="the computed two-step product contains world v|r, which is "
           "b-accessible from w|r and falsifies [b](p & q) there")
def test_criterion_04_two_step_knowledge_claim(ws, M):
    P5 = product_update(M, ws.actions["U5"][0])
    assert evaluate(P5, "w|r", ws.parse("<a>[b](p & q) & [b](p & q)"))


def test_criterion_05_depth_formulas():
    rng = random.Random(5)
    formulas = [depth_formula(m, unique_past=False) for m in range(6)]
    primed = [depth_formula(m, unique_past=True) for m in range(6)]
    for i in range(500):
        unique = i % 2 == 1
        N = rand_kripke(rng, max_worlds=6, acyclic=not unique,
                        unique_past=unique)
        if not check_property(N, "depth_definedness").holds:
            continue
        for w in N.worlds:
            n = depth(N, w)
            if n > 4:
                continue
            for m in range(6):
                assert evaluate(N, w, formulas[m]) == (m == n), (w, m, n)
                if unique:
                    assert evaluate(N, w, primed[m]) == (m == n), (w, m, n)


def _update_nesting(f):
    if isinstance(f, Update):
        inner = max((_update_nesting(p) for _, p in f.action.pre), default=0)
        return 1 + max(_update_nesting(f.sub), inner)
    if isinstance(f, And):
        return max(_update_nesting(f.left), _update_nesting(f.right))
    if isinstance(f, (Not, Box, Yesterday)):
        return _update_nesting(f.sub)
    return 0


def test_criterion_06_reduction_soundness():
    rng = random.Random(6)
    for _ in range(1000):
        N = rand_kripke(rng, max_worlds=5)
        actions = tuple((U, e)
                        for U in (rand_atemporal_action(rng, name="V"),
                                  rand_temporal_action(rng, name="W"))
                        for e in U.events)
        while True:
            f = rand_formula(rng, SIG, depth=3, actions=actions)
            if _update_nesting(f) <= 2:
                break
        g = reduce_formula(f)
        assert is_setl(g)
        w = rng.choice(N.worlds)
        assert evaluate(N, w, f) == evaluate(N, w, g)


def test_criterion_07_validity_oracle():
    rng = random.Random(7)
    # the reduction axiom schemes are validities on 50 pooled triples
    for i in range(50):
        if i % 2 == 0:
            U = rand_temporal_action(rng, max_events=3)
        else:
            U = rand_forest_action(rng, max_extra=2)
        s = rng.choice(U.events)
        phi = rand_formula(rng, SIG, depth=2, allow_yesterday=True)
        psi = rand_formula(rng, SIG, depth=1, allow_yesterday=True)
        for name, inst in fig6_instances(U, s, phi, psi):
            assert is_valid(inst), (name, i)
    # 200 invalid formulas, each certified by a small re-checked countermodel
    certified = 0
    for _ in range(4000):
        if certified >= 200:
            break
        f = rand_formula(rng, SIG, depth=2)
        ok, counter = validity(f)
        if ok or len(counter.model.worlds) > 3:
            continue
        assert not evaluate(counter.model, counter.point, f)
        certified += 1
    assert certified == 200


def _preservation_cases(rng, item):
    if item == "persistence_of_facts":
        N = make_persistent(rng, rand_kripke(rng, max_worlds=5))
        U = rand_temporal_action(rng)
    elif item == "depth_definedness":
        N = rand_kripke(rng, max_worlds=5, acyclic=True)
        U = rand_forest_action(rng)
    elif item == "knowledge_of_past":
        N = make_knowledge_of_past(rand_kripke(rng, max_worlds=5))
        U = rand_forest_action(rng)
    elif item == "knowledge_of_initial_time":
        N = make_knowledge_of_initial_time(rand_kripke(rng, max_worlds=5))
        U = rand_forest_action(rng)
    elif item == "uniqueness_of_past":
        N = rand_kripke(rng, max_worlds=5, unique_past=True)
        U = rand_forest_action(rng)
    elif item == "perfect_recall":
        N = make_perfect_recall(rand_kripke(rng, max_worlds=4))
        U = rand_forest_action(rng)
    else:
        N = rand_sync_kripke(rng, max_worlds=5)
        U = rand_forest_action(rng)
    return N, U


def test_criterion_08_preservation_theorems():
    rng = random.Random(8)
    needs_hp = {"knowledge_of_past", "knowledge_of_initial_time",
                "perfect_recall", "synchronicity"}
    for item in ("persistence_of_facts", "depth_definedness",
                 "knowledge_of_past", "knowledge_of_initial_time",
                 "uniqueness_of_past", "perfect_recall", "synchronicity"):
        for i in range(300):
            N, U = _preservation_cases(rng, item)
            # hypothesis sanity on the generated inputs
            assert check_property(N, item).holds, item
            if item != "persistence_of_facts":
                assert check_action_property(U, item).holds, item
            if item in needs_hp:
                assert check_history_preservation(U).holds
            P = product_update(N, U)
            assert check_property(P, item).holds, (item, i)
            if check_history_preservation(U).holds:
                # depth additivity under history preservation
                for name in P.worlds:
                    v, t = split_pair(name)
                    dv, dt = depth(N, v), action_depth(U, t)
                    if dv != INFINITE and dt != INFINITE:
                        assert depth(P, name) == dv + dt


def test_criterion_09_past_state_theorem():
    rng = random.Random(9)
    for i in range(200):
        N = rand_kripke(rng, max_worlds=4, acyclic=True)
        w = rng.choice(N.worlds)
        U = rand_forest_action(rng, witness_atoms=N.atoms_at(w))
        e = rng.choice(U.events)
        A = PointedAction(U, e)
        assert check_past_preservation(A).holds
        assert evaluate(N, w, U.pre_map[e])
        P = product_update(N, U)
        # walk the forest back from the point to its root
        chain = [e]
        while U.yesterdays(chain[0]):
            chain.insert(0, U.yesterdays(chain[0])[0])
        names = [pair_name(w, s) for s in chain]
        alive = set(P.worlds)
        assert all(name in alive for name in names)
        for x, y in zip(names, names[1:]):
            assert (x, y) in set(P.yesterday)
        # the first world of the history looks exactly like the original
        first = PointedModel(P, names[0])
        wit = bisimilar(first, PointedModel(N, w))
        assert wit is not None
        if i < 40:
            verify_bisimulation(first, PointedModel(N, w), wit.relation)


def test_criterion_10_ydel_suite(ws, M8):
    U8 = ws.actions["U8"][0]
    assert ydel_update(M8, U8) == product_update(M8, sharp_action(U8))
    rng = random.Random(10)
    for i in range(300):
        N = rand_restricted(rng, max_worlds=3, max_updates=1)
        U = rand_atemporal_action(rng, max_events=2)
        Y = ydel_update(N, U)
        # identifier-identical agreement with the sharp translation
        assert Y == product_update(N, sharp_action(U))
        # closure under the flat update
        assert is_restricted(Y).holds
        if i < 50:
            # flat-layer copies verified as genuine bisimulations
            w = rng.choice(N.worlds)
            A = PointedModel(Y, pair_name(w, "♭"))
            wit = bisimilar(A, PointedModel(N, w))
            assert wit is not None
            verify_bisimulation(A, PointedModel(N, w), wit.relation)
        if i < 50:
            # agreement of the flat semantics with the restricted
            # semantics under the sharp translation
            e = U.events[0]
            pool = [Atom("p"), Box("a", Atom("q")), Yesterday(Atom("p")),
                    Update(U, e, Atom("p")),
                    Update(U, e, Yesterday(Atom("q")))]
            for w in N.worlds:
                for f in pool:
                    got = eval_rdetl(N, w, sharp_formula(f))
                    want = Verdict.TRUE if eval_ydel(N, w, f) \
                        else Verdict.FALSE
                    assert got is want, (w, f)


def test_criterion_11_axiom_soundness():
    rng = random.Random(11)
    pairs = [(Atom("p"), Atom("q")),
             (Box("a", Atom("p")), Yesterday(Atom("q"))),
             (Not(Atom("q")), And(Atom("p"), Atom("q")))]
    for i in range(300):
        N = rand_restricted(rng, max_worlds=3, max_updates=1)
        U = rand_atemporal_action(rng, max_events=2)
        s = rng.choice(U.events)
        phi, psi = pairs[i % len(pairs)]
        instances = fig7_instances(SIG, phi, psi) + k_instances(SIG, phi, psi)
        for w in N.worlds:
            for name, inst in instances:
                assert evaluate(N, w, inst), ("rdetl", name, w)
                assert eval_ydel(N, w, inst), ("ydel", name, w)
            for name, inst in fig11_update_instances(U, s, phi, psi):
                assert eval_ydel(N, w, inst), ("ydel-update", name, w)

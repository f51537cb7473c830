import itertools
import random

import pytest

from detl import action, logic
from detl.action import (ActionModel, is_past_state, sharp_action,
                         sharp_formula)
from detl.formula import (BOT, TOP, And, Atom, Bottom, Box, Not, Signature,
                          Update, Yesterday, conj, iff, implies, is_setl,
                          parse, pretty)
from detl.kripke import INFINITE, KripkeModel, PointedModel, depth
from detl.logic import (TableauLimit, bisimilar, is_valid, reduce_formula,
                        validity)
from detl.semantics import (eval_ydel, evaluate, language_equivalence_probe,
                            product_update, ydel_update)

from generate import (DEFAULT_SIG, rand_atemporal_action, rand_formula,
                      rand_forest_action, rand_kripke,
                      rand_temporal_action)
from axioms import fig6_instances
from bisimulation import greatest_bisimulation, verify_bisimulation

SIG = DEFAULT_SIG


def test_reduce_atom(ws):
    assert pretty(reduce_formula(ws.parse("[U2@s]q"))) == "p -> q"


def test_reduce_yesterday_non_past(ws):
    # the point has a predecessor with trivial precondition, so the
    # reduct is equivalent to ~p
    f = reduce_formula(ws.parse("[U2@s][Y]false"))
    assert is_setl(f)
    assert is_valid(iff(f, ws.parse("~p")))
    rng = random.Random(7)
    for _ in range(200):
        N = rand_kripke(rng, max_worlds=3)
        for w in N.worlds:
            assert evaluate(N, w, f) == evaluate(N, w, ws.parse("~p"))


def test_reduce_yesterday_past_state(ws):
    # t is a past state with precondition true, so both guards drop
    f = reduce_formula(ws.parse("[U2@t][Y]p"))
    assert f is Yesterday(Atom("p"))


def test_reduce_soundness_random(rng):
    for _ in range(100):
        N = rand_kripke(rng, max_worlds=4)
        actions = tuple((U, e)
                        for U in (rand_atemporal_action(rng, name="V"),
                                  rand_temporal_action(rng, name="W"))
                        for e in U.events)
        f = rand_formula(rng, SIG, depth=3, actions=actions)
        g = reduce_formula(f)
        assert is_setl(g)
        for w in N.worlds:
            assert evaluate(N, w, f) == evaluate(N, w, g)


def _reference_reduce(f):
    """The reduction axioms applied by plain structural recursion, with
    no memo: every occurrence of a subformula is reduced again."""
    if isinstance(f, (Bottom, Atom)):
        return f
    if isinstance(f, Not):
        return Not(_reference_reduce(f.sub))
    if isinstance(f, And):
        return And(_reference_reduce(f.left), _reference_reduce(f.right))
    if isinstance(f, Box):
        return Box(f.agent, _reference_reduce(f.sub))
    if isinstance(f, Yesterday):
        return Yesterday(_reference_reduce(f.sub))
    U = ActionModel(sig=f.action.sig, events=f.action.events,
                    epistemic=f.action.epi, yesterday=f.action.yesterday,
                    pre={e: _reference_reduce(p) for e, p in f.action.pre},
                    name=f.action.name)
    return _reference_push(U, f.event, _reference_reduce(f.sub))


def _reference_push(U, s, f):
    """[U@s]f for an update-free f, by the reduction axioms with their
    four folds: a false precondition or a true f gives true, a true
    precondition drops the guard, and a false f gives ~pre."""
    pre = U.pre_map[s]
    if pre == BOT or f == TOP:
        return TOP

    def guard(g):
        if pre == TOP:
            return g
        return Not(pre) if g == BOT else implies(pre, g)
    if isinstance(f, (Atom, Bottom)):
        return guard(f)
    if isinstance(f, Not):
        return guard(Not(_reference_push(U, s, f.sub)))
    if isinstance(f, And):
        return And(_reference_push(U, s, f.left),
                   _reference_push(U, s, f.right))
    if isinstance(f, Box):
        return guard(conj(Box(f.agent, _reference_push(U, s2, f.sub))
                          for s2 in U.succ(f.agent, s)))
    if is_past_state(U, s):
        return guard(Yesterday(_reference_push(U, s, f.sub)))
    return guard(conj(_reference_push(U, s2, f.sub)
                      for s2 in U.yesterdays(s)))


def test_reduce_matches_reference():
    rng = random.Random(11)
    for i in range(120):
        make = rand_temporal_action if i % 2 else rand_forest_action
        actions = tuple((U, e)
                        for U in (make(rng, name="W"),
                                  rand_atemporal_action(rng, name="V"))
                        for e in U.events)
        f = rand_formula(rng, SIG, depth=2 + i % 3, actions=actions)
        assert reduce_formula(f) is _reference_reduce(f)


def _distinct_nodes(f):
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(getattr(g, n) for n in ("sub", "left", "right")
                         if hasattr(g, n))
    return len(seen)


def test_reduction_shares_subformulas():
    # [B@e0][a] nested four times over a two-event action with every
    # epistemic arrow: 59,169 nodes as a tree, 409 distinct ones
    events = ("e0", "e1")
    every = {(x, y) for x in events for y in events}
    B = ActionModel(sig=SIG, events=events,
                    epistemic={a: every for a in SIG.agents}, yesterday=(),
                    pre={"e0": TOP, "e1": Atom("p")}, name="B")
    f = Atom("q")
    for _ in range(4):
        f = Update(B, "e0", Box("a", f))
    assert _distinct_nodes(reduce_formula(f)) == 409


def test_validity_basics():
    assert validity(parse("[a](p -> p)", SIG))[0]
    ok, counter = validity(parse("p", SIG))
    assert not ok
    assert len(counter.model.worlds) == 1
    assert not evaluate(counter.model, counter.point, parse("p", SIG))
    # with no agent in the formula the countermodel gets one that is no atom
    a, a_ = Atom("a"), Atom("a_")
    assert validity(implies(a, a)) == (True, None)
    for f in (a, And(a, a_)):
        ok, counter = validity(f)
        assert not ok and not evaluate(counter.model, counter.point, f)


@pytest.mark.parametrize("text", ["~(p & ~p)", "p", "[a]p -> p"])
@pytest.mark.parametrize("bad", ["atom", "agent"])
def test_validity_of_a_bad_name_raises_on_every_call(text, bad):
    # VALID and INVALID alike: the countermodel signature is built, and
    # its check made, whatever the verdict, and failures are not cached
    f = parse(text, SIG)
    if bad == "atom":
        f = And(f, Not(And(Atom("1x"), Not(Atom("1x")))))
    else:
        f = And(f, Not(And(Box("1a", TOP), Not(Box("1a", TOP)))))
    for _ in range(3):
        with pytest.raises(ValueError, match=f"bad {bad}"):
            validity(f)


def test_validity_node_limit():
    f = parse("p & q", SIG)
    with pytest.raises(TableauLimit):
        validity(f, max_nodes=1)


def test_validity_node_limit_pays_for_steps(ws):
    # the reduct p -> q is decided in 3 units; the one step from [U2@s]q
    # to it costs a fourth
    f = ws.parse("[U2@s]q")
    for n in (1, 3):
        with pytest.raises(TableauLimit):
            validity(f, max_nodes=n)
    assert validity(reduce_formula(f), max_nodes=3)[0] is False
    assert validity(f, max_nodes=4)[0] is False


def _all_small_models(sig, max_worlds=2):
    worlds_opts = [tuple(f"w{i}" for i in range(n))
                   for n in range(1, max_worlds + 1)]
    for worlds in worlds_opts:
        pairs = [(x, y) for x in worlds for y in worlds]
        rel_opts = [set(c) for r in range(len(pairs) + 1)
                    for c in itertools.combinations(pairs, r)]
        val_opts = [set(c) for r in range(len(worlds) + 1)
                    for c in itertools.combinations(worlds, r)]
        for epi in rel_opts:
            for yest in rel_opts:
                for val in val_opts:
                    yield KripkeModel(sig=sig, worlds=worlds,
                                      epistemic={"a": epi}, yesterday=yest,
                                      valuation={"p": val})


def test_validity_agrees_with_brute_force(rng):
    sig = Signature(("a",), ("p",))
    models = list(_all_small_models(sig, max_worlds=2))
    for _ in range(25):
        f = rand_formula(rng, sig, depth=2)
        ok, counter = validity(f)
        if ok:
            assert all(evaluate(N, w, f) for N in models for w in N.worlds)
        else:
            assert not evaluate(counter.model, counter.point, f)


def _fold_models(sig):
    """Every model of up to two worlds, and the three-world ones with
    every valuation and each relation empty, the identity or full."""
    yield from _all_small_models(sig, max_worlds=2)
    worlds = ("w0", "w1", "w2")
    rels = [(), [(w, w) for w in worlds],
            [(x, y) for x in worlds for y in worlds]]
    for epi, yest in itertools.product(rels, rels):
        for r in range(4):
            for val in itertools.combinations(worlds, r):
                yield KripkeModel(sig=sig, worlds=worlds,
                                  epistemic={"a": epi}, yesterday=yest,
                                  valuation={"p": val})


def test_step_folds_are_equivalences():
    # V has an event of each kind of precondition: t and u true, f false
    # and s p; t is one tick before s and u
    sig = Signature(("a",), ("p",))
    p = Atom("p")
    V = ActionModel(sig=sig, events=("f", "s", "t", "u"),
                    epistemic={"a": [(x, y) for x in "fstu" for y in "fstu"]},
                    yesterday=[("t", "s"), ("t", "u")],
                    pre={"f": BOT, "s": p, "t": TOP, "u": TOP}, name="V")
    folds = {  # the step of [V@e]f where a fold applies
        **{("f", g): TOP for g in (TOP, BOT, p)},
        ("s", TOP): TOP, ("t", TOP): TOP,
        ("s", BOT): Not(p), ("t", BOT): BOT, ("t", p): p,
        ("f", Update(V, "s", p)): TOP, ("t", Update(V, "t", p)): p,
        ("t", Not(p)): Not(Update(V, "t", p)),
        ("t", Yesterday(p)): Yesterday(Update(V, "t", p)),
        ("s", Yesterday(p)): implies(p, Update(V, "t", p)),
        ("t", Box("a", p)): conj(Box("a", Update(V, e, p)) for e in "fstu"),
        # a step that is an update, stepped again under an outer update
        ("u", Yesterday(p)): Update(V, "t", p),
        ("s", Update(V, "u", Yesterday(p))): implies(p, p),
    }
    models = list(_fold_models(sig))
    for (e, g), want in folds.items():
        f = Update(V, e, g)
        assert logic._step(f, {}) is want, (e, pretty(g))
        assert validity(iff(f, want)) == (True, None)
        for N in models:
            for w in N.worlds:
                assert evaluate(N, w, f) == evaluate(N, w, want), (e, g, w)


def test_valid_formulas_hold_on_random_models(rng):
    sig = Signature(("a",), ("p",))
    hits = 0
    for _ in range(2000):
        if hits >= 5:
            break
        f = rand_formula(rng, sig, depth=2)
        if is_valid(f):
            hits += 1
            for _ in range(50):
                N = rand_kripke(rng, sig, max_worlds=4)
                assert all(evaluate(N, w, f) for w in N.worlds)


def test_validity_reduction_instance_that_branched_exponentially():
    # both sides reduce over one shared DAG; branching on every
    # implication as it came up took 497,567 nodes here
    events = ("e0", "e1")
    every = {(x, y) for x in events for y in events}
    A = ActionModel(sig=SIG, events=events,
                    epistemic={a: every for a in SIG.agents}, yesterday=(),
                    pre={"e0": TOP, "e1": Not(Atom("p"))}, name="A")
    forest = ("r", "e0", "e1")
    F = ActionModel(sig=SIG, events=forest,
                    epistemic={a: {(e, e) for e in forest}
                               for a in SIG.agents},
                    yesterday={("r", "e0"), ("e0", "e1")},
                    pre={"r": TOP, "e0": Not(Atom("q")),
                         "e1": And(Not(Atom("q")), Atom("p"))}, name="F")
    f = parse("[A@e0][a][a][F@e1](q & false) <-> (true -> "
              "[a][A@e0][a][F@e1](q & false) & [a][A@e1][a][F@e1](q & false))",
              SIG, {"A": A, "F": F})
    assert validity(f, max_nodes=10_000) == (True, None)


def test_validity_box_over_box_over_update_sweep():
    # fig-6 box instances with [b][V@t]ψ under [U@s]: on this seed four of
    # the 200 needed more than 10^5 nodes without the label cache
    rng = random.Random(2)
    makers = (rand_atemporal_action, rand_forest_action,
              rand_temporal_action)
    count = 0
    for _ in range(100):
        U = rng.choice(makers)(rng, SIG, name="U")
        V = rng.choice(makers)(rng, SIG, name="V")
        s, t = rng.choice(U.events), rng.choice(V.events)
        psi = rand_formula(rng, SIG, depth=1)
        for name, f in fig6_instances(U, s, Box("b", Update(V, t, psi)), psi):
            if name.startswith("box-"):
                assert validity(f, max_nodes=10 ** 5)[0], (name, pretty(f))
                count += 1
    assert count == 200


def test_validity_agrees_with_deciding_the_reduct():
    # stepping updates inside the tableau gives the verdict of the
    # tableau on the update-free reduct, and each countermodel falsifies
    # f: updates nested three deep over a random core, boxes over boxes
    # over them, and fig-6 box instances over [b][V@t]ψ
    rng = random.Random(29)
    makers = (rand_atemporal_action, rand_forest_action,
              rand_temporal_action)
    verdicts = {True: 0, False: 0}
    for _ in range(100):
        U, V = (rng.choice(makers)(rng, SIG, name=n) for n in "UV")
        actions = [(W, e) for W in (U, V) for e in W.events]
        f = rand_formula(rng, SIG, depth=1)
        for _ in range(3):
            f = Update(*rng.choice(actions), f)
        s, t = rng.choice(U.events), rng.choice(V.events)
        psi = rand_formula(rng, SIG, depth=1)
        boxes = [g for name, g in fig6_instances(
            U, s, Box("b", Update(V, t, psi)), psi) if name.startswith("box-")]
        for g in (f, Box("a", Box("b", f)), rng.choice(boxes)):
            ok, counter = validity(g)
            assert ok == validity(reduce_formula(g))[0], pretty(g)
            if not ok:
                assert not evaluate(counter.model, counter.point, g), pretty(g)
            verdicts[ok] += 1
    assert verdicts[True] > 150 and verdicts[False] > 80


def test_countermodel_shares_a_witness():
    # both diamonds of <a>p & <b>p ask for the same label, so one
    # witness with p serves both
    f = parse("~(<a>p & <b>p)", SIG)
    ok, counter = validity(f)
    assert not ok
    M = counter.model
    assert len(M.worlds) == 2
    (w,) = [v for v in M.worlds if v != counter.point]
    assert M.succ("a", counter.point) == M.succ("b", counter.point) == (w,)
    assert not evaluate(M, counter.point, f)


def _reference_satisfiable(todo, pos=frozenset(), neg=frozenset(),
                           boxes=(), diamonds=()):
    """The K tableau with no cache: it branches on a negated conjunction
    as soon as it meets one, and recurses per branch and per diamond."""
    todo = list(todo)
    while todo:
        f, positive = todo.pop()
        if isinstance(f, Not):
            todo.append((f.sub, not positive))
        elif isinstance(f, Atom):
            if f.name in (neg if positive else pos):
                return False
            if positive:
                pos = pos | {f.name}
            else:
                neg = neg | {f.name}
        elif isinstance(f, Bottom):
            if positive:
                return False
        elif isinstance(f, And):
            if not positive:
                return any(_reference_satisfiable(todo + [(g, False)], pos,
                                                  neg, boxes, diamonds)
                           for g in (f.left, f.right))
            todo += [(f.left, True), (f.right, True)]
        else:
            rel = f.agent if isinstance(f, Box) else None
            if positive:
                boxes += ((rel, f.sub),)
            else:
                diamonds += ((rel, f.sub),)
    return all(_reference_satisfiable([(g, False)] + [(b, True)
                                                      for r, b in boxes
                                                      if r == rel])
               for rel, g in diamonds)


def _pooled_formula(rng, sig, steps):
    """The negation of a conjunction of four formulas drawn from a pool,
    each step of which applies a connective to earlier pool members, so
    one diamond body recurs under different boxes and branches."""
    pool = [Atom(p) for p in sig.atoms]
    for _ in range(steps):
        f = rng.choice(pool)
        kind = rng.randrange(4)
        if kind == 0:
            f = Not(f)
        elif kind == 1:
            f = And(f, rng.choice(pool))
        elif kind == 2:
            f = Box(rng.choice(sig.agents), f)
        else:
            f = Yesterday(f)
        pool.append(f)
    return Not(conj(rng.choice(pool) for _ in range(4)))


def test_validity_agrees_with_reference_tableau():
    rng = random.Random(3)
    sig = Signature(("a", "b"), ("p",))
    valid = 0
    for _ in range(1000):
        f = _pooled_formula(rng, sig, 12)
        ok, counter = validity(f)
        assert ok == (not _reference_satisfiable([(f, False)])), pretty(f)
        if ok:
            valid += 1
        else:
            assert not evaluate(counter.model, counter.point, f), pretty(f)
    assert 200 < valid < 800


@pytest.mark.parametrize("text", [
    "<a>p & ([a]~p | q)",
    "q & <a>(p & q) & ((~q & [a]~p) | r)",
    "q & [a]p & ((~q & <a>~p) | r)",
    "q & r & ((~q & (~r | ~r)) | p)"],
    ids=["label-with-its-boxes", "boxes", "diamonds", "queue"])
def test_validity_undoes_a_closed_branch(text):
    # the first branch adds a box, a diamond or a queued disjunction and
    # then closes; the second branch must not see it
    f = Not(parse(text, Signature(("a",), ("p", "q", "r"))))
    ok, counter = validity(f)
    assert not ok and not evaluate(counter.model, counter.point, f)


def test_countermodels_falsify_formulas_with_updates():
    rng = random.Random(5)
    invalid = 0
    for _ in range(300):
        actions = tuple((U, e)
                        for U in (rand_atemporal_action(rng, name="V"),
                                  rand_temporal_action(rng, name="W"))
                        for e in U.events)
        f = rand_formula(rng, SIG, depth=3, actions=actions)
        ok, counter = validity(f)
        if not ok:
            invalid += 1
            assert not evaluate(counter.model, counter.point, f), pretty(f)
    assert invalid > 100


def test_bisimilar_identity(M):
    A = PointedModel(M, "w")
    wit = bisimilar(A, A)
    assert wit is not None
    assert all((w, w) in wit.relation for w in M.worlds)
    verify_bisimulation(A, A, wit.relation)


def test_bisimilar_null_update(ws, M):
    P = product_update(M, ws.actions["U3"][0])
    A, B = PointedModel(P, "w|t"), PointedModel(M, "w")
    wit = bisimilar(A, B)
    assert wit is not None
    verify_bisimulation(A, B, wit.relation)
    assert language_equivalence_probe(A, B, max_depth=3).agree


def test_bisimilar_absent(M):
    assert bisimilar(PointedModel(M, "w"), PointedModel(M, "v")) is None
    other = KripkeModel(Signature(("a", "b"), ("p", "q", "r")), M.worlds,
                        M.epistemic, M.yesterday, M.valuation)
    with pytest.raises(ValueError):
        bisimilar(PointedModel(M, "w"), PointedModel(other, "w"))


def test_bisim_vs_probe(rng):
    for _ in range(20):
        N1 = rand_kripke(rng, max_worlds=3)
        N2 = rand_kripke(rng, max_worlds=3)
        A = PointedModel(N1, rng.choice(N1.worlds))
        B = PointedModel(N2, rng.choice(N2.worlds))
        wit = bisimilar(A, B)
        probe = language_equivalence_probe(A, B, max_depth=2)
        if wit is not None:
            verify_bisimulation(A, B, wit.relation)
            assert probe.agree
        if not probe.agree:
            assert wit is None
            assert evaluate(N1, A.point, probe.distinguishing) != \
                evaluate(N2, B.point, probe.distinguishing)


def test_bisimilar_is_greatest_fixpoint():
    rng = random.Random(5)
    outcomes = set()
    for i in range(40):
        N = rand_kripke(rng, max_worlds=4)
        V = rand_atemporal_action(rng)
        # a random model, an update of N, and N ⊕ V, whose ♭-copy is
        # bisimilar to N
        K = [rand_kripke(rng, max_worlds=4), product_update(N, V),
             ydel_update(N, V, True)][i % 3]
        R = greatest_bisimulation(N, K)
        for w in N.worlds:
            for v in K.worlds:
                A, B = PointedModel(N, w), PointedModel(K, v)
                wit = bisimilar(A, B)
                outcomes.add(wit is not None)
                if (w, v) not in R:
                    assert wit is None
                    continue
                assert wit.relation == R
                verify_bisimulation(A, B, wit.relation)
    assert outcomes == {True, False}


def test_bisimilar_depth_seed_on_cyclic_pasts():
    # blocks are seeded by atoms and depth: on models with yesterday
    # cycles (infinite depth) and unequal finite depths, the largest
    # bisimulation links only worlds of equal depth, and seeding by depth
    # finds it
    rng = random.Random(11)
    depths, outcomes = set(), set()
    for i in range(30):
        N = rand_kripke(rng, max_worlds=7, density=0.2)
        K = [N, rand_kripke(rng, max_worlds=7, density=0.2),
             ydel_update(N, rand_atemporal_action(rng), True)][i % 3]
        depths.update(depth(N, w) for w in N.worlds)
        R = greatest_bisimulation(N, K)
        assert all(depth(N, w) == depth(K, v) for w, v in R)
        for w in N.worlds:
            for v in K.worlds:
                wit = bisimilar(PointedModel(N, w), PointedModel(K, v))
                outcomes.add(wit is not None)
                assert (wit is not None) == ((w, v) in R)
                if wit is not None:
                    assert wit.relation == R
    assert INFINITE in depths and len(depths - {INFINITE}) >= 3
    assert outcomes == {True, False}


def _refinement_rounds(MA, MB):
    """Rounds of plain signature refinement on the disjoint union until
    the partition is stable, each round over every node."""
    nodes = [(0, w) for w in MA.worlds] + [(1, v) for v in MB.worlds]
    models = (MA, MB)

    def moves(k, w):
        M = models[k]
        return [M.yesterdays(w)] + [M.succ(a, w) for a in M.sig.agents]

    block = {(k, w): frozenset(p for p, ws in models[k].valuation if w in ws)
             for k, w in nodes}
    rounds = 0
    while True:
        rounds += 1
        new = {(k, w): (block[k, w],
                        tuple(frozenset(block[k, x] for x in xs)
                              for xs in moves(k, w)))
               for k, w in nodes}
        if len(set(new.values())) == len(set(block.values())):
            return rounds
        block = new


def _deep_forest(rng, n):
    """A model of n worlds in a few deep trees: p only at the roots, q
    constant on each tree and epistemic arrows within one depth, so
    worlds are told apart only through their histories."""
    parent, depth, tree = {}, {}, {}
    for i in range(n):
        w = f"w{i}"
        if i < 2 or rng.random() < 0.05:
            depth[w], tree[w] = 0, w
        else:
            # mostly hang off the last world, which makes long chains
            par = f"w{i - 1 if rng.random() < 0.7 else rng.randrange(i)}"
            parent[w], depth[w], tree[w] = par, depth[par] + 1, tree[par]
    worlds = tuple(depth)
    roots = [w for w in worlds if w not in parent]
    q_trees = {r for r in roots if rng.random() < 0.5}
    epistemic = {a: {(x, y) for x in worlds for y in worlds
                     if depth[x] == depth[y] and rng.random() < 0.1}
                 for a in SIG.agents}
    return KripkeModel(sig=SIG, worlds=worlds, epistemic=epistemic,
                       yesterday={(p, w) for w, p in parent.items()},
                       valuation={"p": set(roots),
                                  "q": {w for w in worlds
                                        if tree[w] in q_trees}})


def test_bisimilar_on_deep_refinements():
    # seeded deep models whose plain refinement takes at least five
    # rounds, each against itself, another deep model or its ⊕ update,
    # checked against the greatest fixpoint: at every point of the first
    # model, paired with a linked point and with three random ones
    rng = random.Random(7)
    checked, linked = 0, 0
    while checked < 12:
        N = _deep_forest(rng, rng.randint(10, 16))
        K = [N, _deep_forest(rng, rng.randint(10, 16)),
             ydel_update(N, rand_atemporal_action(rng), True)][checked % 3]
        if _refinement_rounds(N, K) < 5:
            continue
        checked += 1
        R = greatest_bisimulation(N, K)
        linked += bool(R)
        for w in N.worlds:
            for v in [v for x, v in sorted(R) if x == w][:1] + \
                    rng.sample(K.worlds, 3):
                wit = bisimilar(PointedModel(N, w), PointedModel(K, v))
                assert (wit is not None) == ((w, v) in R)
                if wit is not None:
                    assert wit.relation == R
    assert linked >= 8


def test_refine_blocks_are_bisimilarity_classes():
    # on one model and on the union of three: two nodes share a block
    # exactly when the greatest bisimulation of their models relates them.
    # The third model is the ⊕ update of the first, so the union links
    # worlds of different models too
    rng = random.Random(13)
    seen = set()
    for _ in range(24):
        N = rand_kripke(rng, max_worlds=5, density=0.2)
        union = (N, _deep_forest(rng, rng.randint(6, 10)),
                 ydel_update(N, rand_atemporal_action(rng), True))
        for models in [(M,) for M in union] + [union]:
            block, offs = logic._refine(models), [0]
            for M in models:
                offs.append(offs[-1] + len(M.worlds))
            assert len(block) == offs[-1]
            for (j, MA), (k, MB) in itertools.product(enumerate(models),
                                                      repeat=2):
                R = greatest_bisimulation(MA, MB)
                for w, v in itertools.product(MA.worlds, MB.worlds):
                    same = (block[offs[j] + MA._pos[w]]
                            == block[offs[k] + MB._pos[v]])
                    assert same == ((w, v) in R), (j, w, k, v)
                    seen.add((j == k, same))
    assert len(seen) == 4


def test_bisimilar_moves_the_part_not_recomputed():
    # p marks c0 and d0; c1 … c5 and d1 … d7 are chains of a-arrows back
    # to them, and x0 … x4 hang off c5, all at depth 0.  Each round
    # splits the next chain world off the large block of non-p worlds.
    # When c5 and d5 split off, the worlds recomputed in that block are
    # x0 … x4 and d6, and the one left, d7, is the smaller part: it
    # moves and the block keeps its id.
    chain = [f"c{i}" for i in range(6)]
    longer = [f"d{i}" for i in range(8)]
    hang = [f"x{i}" for i in range(5)]
    worlds = tuple(chain + longer + hang)
    back = {(b, a) for xs in (chain, longer) for a, b in zip(xs, xs[1:])}
    back |= {(x, "c5") for x in hang}
    loops = {(w, w) for w in worlds}
    N = KripkeModel(sig=SIG, worlds=worlds,
                    epistemic={"a": loops | back, "b": loops},
                    yesterday=(), valuation={"p": {"c0", "d0"}})
    assert _refinement_rounds(N, N) >= 5
    R = greatest_bisimulation(N, N)
    assert R == {(w, w) for w in worlds} | \
        {(f"c{i}", f"d{i}") for i in range(6)} | \
        {(f"d{i}", f"c{i}") for i in range(6)} | \
        {(x, y) for x in hang + ["d6"] for y in hang + ["d6"]}
    for w in worlds:
        wit = bisimilar(PointedModel(N, w), PointedModel(N, w))
        assert wit.relation == R
    assert bisimilar(PointedModel(N, "x0"), PointedModel(N, "d7")) is None


def test_bisimilar_long_yesterday_chain():
    # 2,000 worlds in one history: every world has a depth of its own, so
    # the seed already splits them all and no two worlds are bisimilar
    worlds = tuple(f"w{i}" for i in range(2000))
    C = KripkeModel(sig=SIG, worlds=worlds,
                    epistemic={"a": {(w, w) for w in worlds}},
                    yesterday=set(zip(worlds, worlds[1:])),
                    valuation={"p": {"w0"}})
    wit = bisimilar(PointedModel(C, "w1999"), PointedModel(C, "w1999"))
    assert wit.relation == {(w, w) for w in worlds}
    assert bisimilar(PointedModel(C, "w1998"), PointedModel(C, "w1999")) \
        is None


def test_bisimilar_long_epistemic_chain():
    # 2,000 worlds at depth 0, each with an a-arrow to the next and p at
    # the last: each round splits off one world, so the largest part
    # keeping its block is what keeps the moves at O(log n) per world
    worlds = tuple(f"w{i}" for i in range(2000))
    C = KripkeModel(sig=SIG, worlds=worlds,
                    epistemic={"a": set(zip(worlds, worlds[1:]))},
                    yesterday=(), valuation={"p": {"w1999"}})
    wit = bisimilar(PointedModel(C, "w0"), PointedModel(C, "w0"))
    assert wit.relation == {(w, w) for w in worlds}
    assert bisimilar(PointedModel(C, "w0"), PointedModel(C, "w1")) is None


def test_probe_disagrees_on_atoms(M):
    verdict = language_equivalence_probe(PointedModel(M, "w"),
                                         PointedModel(M, "u"), max_depth=1)
    assert not verdict.agree


def test_sharp_action(ws):
    U8 = ws.actions["U8"][0]
    S = sharp_action(U8)
    assert set(S.events) == {"s", "t", "♭"}
    assert set(S.yesterday) == {("♭", "s"), ("♭", "t")}
    assert S.pre_map["♭"] == TOP
    for a in SIG.agents:
        assert ("♭", "♭") in S.epi[a]
        assert U8.epi[a] <= S.epi[a]
    with pytest.raises(ValueError):
        sharp_action(ws.actions["U2"][0])


def test_sharp_rejects_an_action_with_a_flat_event(ws, M8):
    # ♯ adds one fresh event ♭; merged with the action's own ♭, the ⊕
    # result would lose ♭'s precondition and gain a yesterday loop
    V = ActionModel(SIG, ("♭", "e"), {}, (), {"♭": Atom("p"), "e": TOP}, "V")
    for make in (lambda: sharp_action(V), lambda: ydel_update(M8, V),
                 lambda: eval_ydel(M8, "w", Update(V, "e", Atom("p")))):
        with pytest.raises(ValueError, match="fresh event ♭, and V has one"):
            make()


def test_sharp_formula(ws):
    assert sharp_formula(Atom("p")) == Atom("p")
    f = ws.parse("[U8@s]<Y>p")
    g = sharp_formula(f)
    assert g.action == sharp_action(ws.actions["U8"][0])
    assert g.event == "s"


def test_sharp_built_once_per_action_keeping_its_name(ws):
    U8 = ws.actions["U8"][0]
    V, W = (ActionModel(U8.sig, U8.events, U8.epistemic, U8.yesterday,
                        U8.pre, n) for n in ("V", "W"))
    assert V == W
    assert sharp_action(V) is sharp_action(V)
    assert (sharp_action(V).name, sharp_action(W).name) == ("V_sharp", "W_sharp")
    f = And(Update(V, "s", Atom("p")), Box("a", Update(W, "t", Atom("q"))))
    assert pretty(sharp_formula(f)) == "[V_sharp@s]p & [a][W_sharp@t]q"


def test_sharp_formula_rebuilds_each_shared_node_once(ws, monkeypatch):
    # f_k+1 = [a]f_k & [b]f_k over one update: 2^k paths down to it
    f = Update(ws.actions["U8"][0], "s", Atom("p"))
    for _ in range(12):
        f = And(Box("a", f), Box("b", f))
    calls = []
    monkeypatch.setattr(action, "sharp_action",
                        lambda U: calls.append(U) or sharp_action(U))
    g = sharp_formula(f)
    assert len(calls) == 1 and g.actions == {sharp_action(calls[0])}


def test_reduce_deep_boxes_over_an_update(ws):
    # the walk down to the update is a loop, not one call per level
    u = ws.parse("[U2@s]q")
    f, g = u, reduce_formula(u)
    for _ in range(3000):
        f, g = Box("a", f), Box("a", g)
    assert reduce_formula(f) is g


def test_reduce_raises_past_its_step_limit(ws, monkeypatch):
    # the reduct of [U2@s]^k q (pre p) grows threefold with each update:
    # it takes 4,373 steps at k = 8 and 13,121 at k = 9
    monkeypatch.setattr(logic, "_REDUCE_LIMIT", 10_000)
    assert is_setl(reduce_formula(ws.parse("[U2@s]" * 8 + "q")))
    with pytest.raises(TableauLimit, match="reduction step limit"):
        reduce_formula(ws.parse("[U2@s]" * 9 + "q"))


def test_reduce_deep_update_free_formula_is_itself():
    f = Atom("p")
    for i in range(3000):
        f = (Not, lambda g: Box("b", g), Yesterday)[i % 3](f)
    assert reduce_formula(f) is f


def test_sharp_formula_long_right_nested_conjunction(ws):
    u = ws.parse("[U8@s]p")
    v = Update(sharp_action(ws.actions["U8"][0]), "s", Atom("p"))
    f, g = u, v
    for _ in range(3000):
        f, g = And(u, f), And(v, g)
    assert sharp_formula(f) is g

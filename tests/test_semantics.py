import gc
import random
import weakref
from functools import lru_cache

import pytest

from detl.action import ActionModel, check_history_preservation, \
    action_depth, is_past_state, sharp_action
from detl.formula import (And, Atom, Bottom, Box, Not, Signature, TOP,
                          Update, Yesterday, diamond, parse, subformulas)
from detl.kripke import (INFINITE, KripkeModel, close_pairs, depth,
                         generated_submodel, is_restricted, relation_closure)
from detl.logic import bisimilar
from detl.kripke import PointedModel
from detl.semantics import (EmptyProductError, ProbeVerdict, Verdict,
                            eval_rdetl, eval_ydel, evaluate, formula_pool,
                            language_equivalence_probe, pair_name,
                            product_update, split_pair, ydel_update)

from generate import (DEFAULT_SIG, rand_atemporal_action,
                      rand_forest_action, rand_formula, rand_kripke,
                      rand_restricted, rand_temporal_action)
from bisimulation import verify_bisimulation

SIG = DEFAULT_SIG


def test_eval_example_1(ws, M):
    assert evaluate(M, "w", ws.parse("~[a]p & ~[b]p"))
    assert evaluate(
        M, "w", ws.parse("[U2@s](([a]p & [b]p) & <Y>(~[a]p & ~[b]p))"))
    assert not evaluate(M, "w", ws.parse("false"))


def test_eval_vacuous_update(ws, M):
    # at a world falsifying the precondition the update modality is true
    assert evaluate(M, "v", ws.parse("[U2@s]false"))


def test_eval_errors(ws, M):
    from detl.formula import Signature

    with pytest.raises(KeyError):
        evaluate(M, "x", ws.parse("p"))
    N = KripkeModel(sig=Signature(("a",), ()), worlds=("w",),
                    epistemic={}, yesterday=(), valuation={})
    with pytest.raises(ValueError):
        evaluate(N, "w", parse("p", SIG))
    with pytest.raises(ValueError, match="agents"):
        evaluate(N, "w", parse("[b]false", SIG))


def test_two_step_contrast(ws, M):
    f = ws.parse("<a>[Y][b](p & q)")
    P5 = product_update(M, ws.actions["U5"][0])
    P6 = product_update(M, ws.actions["U6"][0])
    assert evaluate(P5, "w|r", f)
    assert not evaluate(P6, "w|r", f)


def test_product_fig2(ws, M):
    P = product_update(M, ws.actions["U2"][0])
    assert set(P.worlds) == {"u|t", "w|t", "v|t", "u|s", "w|s"}
    assert "v|s" not in set(P.worlds)


def test_product_fig4_chain(ws, M):
    P = product_update(M, ws.actions["U4"][0])
    assert len(P.worlds) == 7
    assert ("w|t", "w|s") in set(P.yesterday)
    assert ("w|s", "w|r") in set(P.yesterday)


def test_product_identity_update(M):
    ident = ActionModel(
        sig=SIG, events=("e",),
        epistemic={a: {("e", "e")} for a in SIG.agents},
        yesterday=(), pre={"e": TOP}, name="I")
    P = product_update(M, ident)
    assert set(P.worlds) == {pair_name(w, "e") for w in M.worlds}
    for a in SIG.agents:
        assert P.epi[a] == {(pair_name(x, "e"), pair_name(y, "e"))
                            for x, y in M.epi[a]}
    for p in SIG.atoms:
        assert P.val[p] == {pair_name(w, "e") for w in M.val[p]}


def test_product_out_of_scope(M):
    one_agent = ActionModel(
        sig=Signature(("a",), ("p", "q")), events=("e",),
        epistemic={"a": {("e", "e")}}, yesterday=(), pre={"e": TOP}, name="A")
    with pytest.raises(ValueError, match="agents"):
        product_update(M, one_agent)
    N = KripkeModel(sig=Signature(("a", "b"), ("p",)), worlds=("w",),
                    epistemic={}, yesterday=(), valuation={})
    new_atom = ActionModel(
        sig=SIG, events=("e",),
        epistemic={a: {("e", "e")} for a in SIG.agents},
        yesterday=(), pre={"e": parse("q", SIG)}, name="Q")
    with pytest.raises(ValueError, match="atoms"):
        product_update(N, new_atom)


def test_product_empty(M):
    dead = ActionModel(
        sig=SIG, events=("e",),
        epistemic={a: {("e", "e")} for a in SIG.agents},
        yesterday=(), pre={"e": parse("false", SIG)}, name="D")
    with pytest.raises(EmptyProductError):
        product_update(M, dead)


def _rebuilt(F):
    """A new frame equal to F, sharing none of its cached views."""
    if isinstance(F, KripkeModel):
        return KripkeModel(F.sig, F.worlds, F.epistemic, F.yesterday,
                           F.valuation)
    return ActionModel(F.sig, F.events, F.epistemic, F.yesterday, F.pre,
                       F.name)


def test_product_lives_while_its_model_and_action_do(ws, M, M8):
    # with the collector off, each free asserted below is by reference count
    gc.disable()
    try:
        U2, U8 = ws.actions["U2"][0], ws.actions["U8"][0]
        assert product_update(M, U2) is product_update(M, U2)
        assert ydel_update(M8, U8) is ydel_update(M8, U8)

        N = _rebuilt(M)
        P = weakref.ref(product_update(N, U2))
        assert P() is product_update(N, U2)
        del N
        assert P() is None

        # the product found through a formula goes with its action once
        # that formula is dropped too, while the model lives on
        N, U = _rebuilt(M), _rebuilt(U2)
        f = Update(U, "s", Atom("q"))
        assert evaluate(N, "w", f) == evaluate(M, "w", Update(U2, "s", Atom("q")))
        P = weakref.ref(product_update(N, U))
        assert P() is not None
        del U, f
        assert P() is None
        assert N._products.get(U2) is None

        # equal models built apart build equal products apart
        A, B = _rebuilt(M), _rebuilt(M)
        assert product_update(A, U2) == product_update(B, U2)
        assert product_update(A, U2) is not product_update(B, U2)
    finally:
        gc.enable()


def test_pair_name_inverse():
    assert split_pair(pair_name("w", "s")) == ("w", "s")
    assert split_pair("w|s|t") == ("w|s", "t")


def test_componentwise_law(rng):
    for _ in range(30):
        N = rand_kripke(rng, max_worlds=4)
        U = rand_atemporal_action(rng)
        P = product_update(N, U)
        alive = {split_pair(w) for w in P.worlds}
        for a in SIG.agents:
            expected = {(pair_name(v, t), pair_name(v2, t2))
                        for v, t in alive for v2, t2 in alive
                        if (v, v2) in N.epi[a] and (t, t2) in U.epi[a]}
            assert P.epi[a] == expected


def _holds_by_definition(M, w, f, step):
    """M, w ⊨ f straight from the truth clauses, top-down: every
    subformula is decided afresh at every world it is reached at, and an
    update modality moves into step(M, U)."""
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return w in M.val[f.name]
    if isinstance(f, Not):
        return not _holds_by_definition(M, w, f.sub, step)
    if isinstance(f, And):
        return (_holds_by_definition(M, w, f.left, step)
                and _holds_by_definition(M, w, f.right, step))
    if isinstance(f, Box):
        return all(_holds_by_definition(M, v, f.sub, step)
                   for v in M.succ(f.agent, w))
    if isinstance(f, Yesterday):
        return all(_holds_by_definition(M, v, f.sub, step)
                   for v in M.yesterdays(w))
    assert isinstance(f, Update)
    if not _holds_by_definition(M, w, f.action.pre_map[f.event], step):
        return True
    return _holds_by_definition(step(M, f.action), pair_name(w, f.event),
                                f.sub, step)


# the definition-based updates are cached: the reference evaluator
# reaches the same update again from every world
@lru_cache(maxsize=256)
def _product_by_definition(M, U):
    """M[U] straight from the definition, every arrow tested on every
    pair of surviving pairs."""
    alive = [(v, t) for v in M.worlds for t in U.events
             if _holds_by_definition(M, v, U.pre_map[t],
                                     _product_by_definition)]
    m_yesterday, u_yesterday = set(M.yesterday), set(U.yesterday)
    return KripkeModel(
        sig=M.sig,
        worlds=[pair_name(v, t) for v, t in alive],
        epistemic={a: {(pair_name(v, t), pair_name(v2, t2))
                       for v, t in alive for v2, t2 in alive
                       if (v, v2) in M.epi[a] and (t, t2) in U.epi[a]}
                   for a in M.sig.agents},
        yesterday={(pair_name(v2, t2), pair_name(v, t))
                   for v, t in alive for v2, t2 in alive
                   if (t2 == t and is_past_state(U, t)
                       and (v2, v) in m_yesterday)
                   or (v2 == v and (t2, t) in u_yesterday)},
        valuation={p: {pair_name(v, t) for v, t in alive if v in ws}
                   for p, ws in M.val.items()})


@lru_cache(maxsize=256)
def _oplus_by_definition(M, U):
    """M ⊕ U straight from the definition: a ♭-copy of M, one tick
    before the surviving pairs, whose arrows are tested pair by pair."""
    alive = [(v, t) for v in M.worlds for t in U.events
             if _holds_by_definition(M, v, U.pre_map[t],
                                     _oplus_by_definition)]
    flats = [(v, "♭") for v in M.worlds]
    m_yesterday = set(M.yesterday)
    return KripkeModel(
        sig=M.sig,
        worlds=[pair_name(v, t) for v, t in flats + alive],
        epistemic={a: {(pair_name(v, t), pair_name(v2, t2))
                       for v, t in flats + alive for v2, t2 in flats + alive
                       if (v, v2) in M.epi[a]
                       and (t == t2 == "♭" or (t, t2) in U.epi[a])}
                   for a in M.sig.agents},
        yesterday={(pair_name(v2, "♭"), pair_name(v, t))
                   for v, t in flats + alive for v2, _ in flats
                   if (t == "♭" and (v2, v) in m_yesterday)
                   or (t != "♭" and v2 == v)},
        valuation={p: {pair_name(v, t) for v, t in flats + alive if v in ws}
                   for p, ws in M.val.items()})


def test_updates_equal_definition():
    rng = random.Random(11)
    for _ in range(60):
        # any model by any temporal action
        N, U = rand_kripke(rng, max_worlds=5), rand_temporal_action(rng)
        try:
            P = product_update(N, U)
        except EmptyProductError:
            assert not any(_holds_by_definition(N, v, U.pre_map[t],
                                                _product_by_definition)
                           for v in N.worlds for t in U.events)
        else:
            assert P == _product_by_definition(N, U)
        # ⊕ on restricted models, and permissive ⊕ on any model
        R, V = rand_restricted(rng), rand_atemporal_action(rng)
        assert ydel_update(R, V) == _oplus_by_definition(R, V)
        assert product_update(R, V) == _product_by_definition(R, V)
        assert ydel_update(N, V, True) == _oplus_by_definition(N, V)
        # restricted models by forest actions
        F = rand_forest_action(rng)
        assert product_update(R, F) == _product_by_definition(R, F)


def test_products_are_written_as_the_constructor_stores_them():
    rng = random.Random(23)
    for _ in range(60):
        # past ten worlds, "w1|e" sorts after "w10|e"
        N, R = rand_kripke(rng, max_worlds=12), rand_restricted(rng)
        V = rand_atemporal_action(rng)
        for make in (lambda: product_update(N, rand_temporal_action(rng)),
                     lambda: product_update(R, V),
                     lambda: ydel_update(R, V),
                     lambda: ydel_update(N, V, True),
                     lambda: product_update(R, rand_forest_action(rng))):
            try:
                P = make()
            except EmptyProductError:
                continue
            Q = KripkeModel(P.sig, P.worlds, P.epistemic, P.yesterday,
                            P.valuation)
            assert (P.worlds, P._arrows, P._pos, P.valuation) \
                == (Q.worlds, Q._arrows, Q._pos, Q.valuation)
            for succ in (*P._arrows, P._parent_pos):
                assert all(list(js) == sorted(set(js)) for js in succ)


def test_s5_products_hold_one_successor_tuple_per_class():
    rng = random.Random(29)
    twins = 0
    for _ in range(40):
        M = relation_closure(rand_kripke(rng, max_worlds=6), "s5")
        V = rand_temporal_action(rng)
        U = ActionModel(V.sig, V.events,
                        {a: close_pairs(ps, V.events, "s5")
                         for a, ps in V.epistemic}, V.yesterday, V.pre)
        for succ in product_update(M, U)._arrows[1:]:
            # equal successor sets are one object, unequal ones are not
            assert len(set(map(id, succ))) == len(set(succ))
            twins += len(succ) - len(set(succ))
    assert twins  # worlds did share their successors


def test_oplus_sharpens_updates_inside_preconditions():
    # W's precondition [V@e0][Y]p looks one tick back after V.  On a model
    # without a past the product reading finds nothing there, so it holds
    # everywhere; the ⊕ reading finds the ♭-copy of the world, so it holds
    # where p does.  M ⊕ W is the product with W♯ only if ♯ reaches the
    # update inside W's precondition too
    every = lambda xs: {a: {(x, y) for x in xs for y in xs}
                        for a in SIG.agents}
    V = ActionModel(sig=SIG, events=("e0",), epistemic=every(("e0",)),
                    yesterday=(), pre={"e0": TOP}, name="V")
    pre = Update(V, "e0", Yesterday(Atom("p")))
    W = ActionModel(sig=SIG, events=("f0", "f1"),
                    epistemic=every(("f0", "f1")), yesterday=(),
                    pre={"f0": pre, "f1": Not(pre)}, name="W")
    N = KripkeModel(sig=SIG, worlds=("u", "w"), epistemic=every(("u", "w")),
                    yesterday=(), valuation={"p": {"w"}, "q": {"u"}})
    assert evaluate(N, "u", pre) and not eval_ydel(N, "u", pre)
    formulas = [pre, Update(W, "f0", Box("a", Yesterday(Atom("p")))),
                Update(W, "f1", Not(Box("b", Atom("q")))),
                Update(V, "e0",
                       Update(W, "f0", Yesterday(Yesterday(Atom("p")))))]
    for R in (N, ydel_update(N, V)):
        assert ydel_update(R, W) == _oplus_by_definition(R, W)
        assert ydel_update(R, W, True) == _oplus_by_definition(R, W)
        for f in formulas:
            for w in R.worlds:
                assert eval_ydel(R, w, f) == _holds_by_definition(
                    R, w, f, _oplus_by_definition), (R, w, f)


def _under_updates(rng, actions):
    """A random body under one or two update modalities.  The body is a
    conjunction whose other conjunct is one of the first's subformulas,
    so a memo entry is read again on other worlds."""
    g = rand_formula(rng, SIG, 3, actions)
    h = rng.choice(list(subformulas(g)))
    f = And(g, h) if rng.random() < 0.5 else And(h, g)
    for _ in range(rng.randint(1, 2)):
        f = Update(*rng.choice(actions), f)
    return f


def _pointed(actions):
    return [(U, e) for U in actions for e in U.events]


def test_evaluators_equal_definition():
    rng = random.Random(23)
    for _ in range(40):
        # the product reading on any model
        N = rand_kripke(rng, max_worlds=4)
        acts = _pointed([rand_temporal_action(rng, name="T"),
                         rand_atemporal_action(rng)])
        f = _under_updates(rng, acts)
        for w in N.worlds:
            assert evaluate(N, w, f) == _holds_by_definition(
                N, w, f, _product_by_definition), (N, w, f)
        # the ⊕ reading on restricted models, and permissive on any model
        R = rand_restricted(rng)
        acts = _pointed([rand_atemporal_action(rng),
                         rand_atemporal_action(rng, name="A")])
        f = _under_updates(rng, acts)
        for w in R.worlds:
            assert eval_ydel(R, w, f) == _holds_by_definition(
                R, w, f, _oplus_by_definition), (R, w, f)
        for w in N.worlds:
            assert eval_ydel(N, w, f, permissive=True) == _holds_by_definition(
                N, w, f, _oplus_by_definition), (N, w, f)
        # restricted models by forest actions
        f = _under_updates(rng, _pointed([rand_forest_action(rng)]))
        for w in R.worlds:
            expected = _holds_by_definition(R, w, f, _product_by_definition)
            assert eval_rdetl(R, w, f) is \
                (Verdict.TRUE if expected else Verdict.FALSE), (R, w, f)


def test_truth_invariant_under_generated_submodels():
    # what holds at w, updates included, depends only on the worlds w
    # reaches by epistemic arrows and steps into its past
    rng = random.Random(29)
    smaller = 0
    for _ in range(60):
        acts = _pointed([rand_temporal_action(rng, name="T"),
                         rand_atemporal_action(rng),
                         rand_forest_action(rng, name="F")])
        for N in (rand_kripke(rng, max_worlds=5), rand_restricted(rng)):
            f = _under_updates(rng, acts)
            for w in N.worlds:
                G = generated_submodel(N, w)
                assert evaluate(N, w, f) == evaluate(G, w, f), (N, w, f)
                smaller += len(G.worlds) < len(N.worlds)
    assert smaller


def _wide_model(rng, n, cycle):
    """An n-world model whose epistemic relations are the s5 closures of
    sparse random arrows, so the few worlds of a class share one
    successor mask; its yesterday relation is a few random arrows and,
    when asked, a cycle through the first five worlds."""
    worlds = [f"w{i}" for i in range(n)]
    sparse = {a: {(x, rng.choice(worlds)) for x in worlds
                  if rng.random() < 0.35} for a in SIG.agents}
    yesterday = {(rng.choice(worlds), rng.choice(worlds)) for _ in range(5)}
    if cycle:
        yesterday |= {(worlds[i], worlds[(i + 1) % 5]) for i in range(5)}
    N = KripkeModel(sig=SIG, worlds=worlds, epistemic=sparse,
                    yesterday=yesterday,
                    valuation={p: {w for w in worlds if rng.random() < 0.5}
                               for p in SIG.atoms})
    return relation_closure(N, "s5")


def test_evaluators_equal_definition_past_one_machine_word():
    # world sets of several 64-bit limbs: models of 65 to 80 worlds, and
    # 40-world models whose products grow past 64 worlds
    rng = random.Random(29)
    widest = 0
    for k in range(8):
        N = _wide_model(rng, rng.randint(65, 80) if k % 2 else 40, k % 4 < 2)
        acts = _pointed([rand_temporal_action(rng, max_events=2, name="T"),
                         rand_atemporal_action(rng, max_events=2)])
        widest = max([widest] + [len(product_update(N, U).worlds)
                                 for U, _ in acts])
        # a diamond over a box of the other agent reads the box at
        # several worlds of one class
        g = rand_formula(rng, SIG, 2)
        for f in [_under_updates(rng, acts), diamond("a", Box("b", g)),
                  diamond("b", Box("a", g))]:
            for w in N.worlds:
                assert evaluate(N, w, f) == _holds_by_definition(
                    N, w, f, _product_by_definition), (N, w, f)
        # the ⊕ reading under one update: restricted on the atemporal
        # s5 model, permissive with the yesterday arrows
        A = _wide_model(rng, 70, False)
        A = KripkeModel(sig=SIG, worlds=A.worlds, epistemic=A.epi,
                        yesterday=(), valuation=A.valuation)
        U = rand_atemporal_action(rng, max_events=2)
        f = Update(U, rng.choice(U.events), rand_formula(rng, SIG, 3))
        for R, permissive in ((A, False), (N, True)):
            for w in R.worlds:
                assert eval_ydel(R, w, f, permissive) == _holds_by_definition(
                    R, w, f, _oplus_by_definition), (R, w, f)
    assert widest > 64


class _CountingDict(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def _counting_lookups(M, view="_val_masks"):
    """M's cached valuation view, the mask per atom that the evaluator
    reads or the world set per atom that `_holds_by_definition` reads,
    replaced by a dict that counts look-ups."""
    M.__dict__[view] = val = _CountingDict(getattr(M, view))
    return val


def _complete_model_counting_lookups(n, view="_val_masks"):
    """The n-world model with every arrow of agents a and b and p
    everywhere, with its valuation view counting look-ups."""
    worlds = [f"w{i}" for i in range(n)]
    every = {(x, y) for x in worlds for y in worlds}
    M = KripkeModel(sig=Signature(("a", "b"), ("p",)), worlds=worlds,
                    epistemic={"a": every, "b": every}, yesterday=(),
                    valuation={"p": worlds})
    return M, _counting_lookups(M, view)


def test_box_tower_work_is_linear():
    f = Atom("p")
    for _ in range(6):
        f = Box("a", f)
    # each box's body is decided once on the union of its domain's
    # successors, so the valuation is read at most once per node
    M, val = _complete_model_counting_lookups(6)
    assert evaluate(M, "w0", f)
    assert 1 <= val.lookups <= 7
    # top-down, the valuation is read at the end of each of the 6^6 paths
    M, val = _complete_model_counting_lookups(6, "val")
    assert _holds_by_definition(M, "w0", f, _product_by_definition)
    assert val.lookups == 6 ** 6


def test_shared_subformulas_decided_once():
    # f_k+1 = [a]f_k & [b]f_k: 3k + 1 distinct nodes, 2^k paths down to
    # p.  Without the memo p is read once per path; with it, once under
    # each of its two parents [a]p and [b]p
    k = 12
    f = Atom("p")
    for _ in range(k):
        f = And(Box("a", f), Box("b", f))
    for check in (evaluate, eval_ydel):
        M, val = _complete_model_counting_lookups(6)
        assert check(M, "w0", f)
        assert 1 <= val.lookups <= 2
    # the same inside an update, where the memo is the product's
    M, _ = _complete_model_counting_lookups(6)
    ident = ActionModel(sig=M.sig, events=("e",),
                        epistemic={a: {("e", "e")} for a in M.sig.agents},
                        yesterday=(), pre={"e": TOP}, name="I")
    P = product_update(M, ident)
    val = _counting_lookups(P)
    assert evaluate(M, "w0", Update(ident, "e", f))
    assert 1 <= val.lookups <= 2


def test_depth_additivity_under_history_preservation(rng):
    for _ in range(40):
        N = rand_kripke(rng, max_worlds=4, acyclic=True)
        U = rand_forest_action(rng)
        assert check_history_preservation(U).holds
        P = product_update(N, U)
        for name in P.worlds:
            v, t = split_pair(name)
            dv, dt = depth(N, v), action_depth(U, t)
            if dv != INFINITE and dt != INFINITE:
                assert depth(P, name) == dv + dt


def test_depth_bound_without_history_preservation(rng):
    for _ in range(40):
        N = rand_kripke(rng, max_worlds=4, acyclic=True)
        U = rand_temporal_action(rng)
        try:
            P = product_update(N, U)
        except EmptyProductError:
            continue
        for name in P.worlds:
            v, t = split_pair(name)
            assert depth(P, name) <= depth(N, v) + action_depth(U, t)


# ---------------------------------------------------------------------------
# YDEL

def test_ydel_fig9(ws, M8):
    U8 = ws.actions["U8"][0]
    Y = ydel_update(M8, U8)
    assert set(Y.worlds) == {"w|♭", "v|♭", "w|s", "w|t", "v|t"}
    assert "v|s" not in set(Y.worlds)
    # the flat layer copies the base model and sits one tick before the
    # event layer
    assert ("w|♭", "w|s") in set(Y.yesterday)
    assert ("v|♭", "v|t") in set(Y.yesterday)


def test_ydel_flat_bisim(ws, M8):
    Y = ydel_update(M8, ws.actions["U8"][0])
    for w in M8.worlds:
        wit = bisimilar(PointedModel(Y, pair_name(w, "♭")),
                        PointedModel(M8, w))
        assert wit is not None
        verify_bisimulation(PointedModel(Y, pair_name(w, "♭")),
                            PointedModel(M8, w), wit.relation)


def test_ydel_nothing_fires(M8):
    dud = ActionModel(
        sig=SIG, events=("e",),
        epistemic={a: {("e", "e")} for a in SIG.agents},
        yesterday=(), pre={"e": parse("false", SIG)}, name="D")
    Y = ydel_update(M8, dud)
    assert set(Y.worlds) == {"w|♭", "v|♭"}


def test_ydel_rejects_temporal_action(ws, M8):
    with pytest.raises(ValueError):
        ydel_update(M8, ws.actions["U2"][0])
    with pytest.raises(ValueError, match="atemporal"):
        eval_ydel(M8, "w", ws.parse("[a][U2@s]p"))


def test_ydel_rejects_unrestricted_model(ws):
    two_pasts = KripkeModel(
        sig=SIG, worlds=("u", "v", "w"), epistemic={},
        yesterday={("u", "w"), ("v", "w")}, valuation={})
    with pytest.raises(ValueError):
        ydel_update(two_pasts, ws.actions["U8"][0])
    assert ydel_update(two_pasts, ws.actions["U8"][0], permissive=True)
    with pytest.raises(ValueError, match="restricted"):
        eval_ydel(two_pasts, "w", ws.parse("p"))
    assert not eval_ydel(two_pasts, "w", ws.parse("p"), permissive=True)


def test_eval_ydel_examples(ws, M8):
    assert eval_ydel(M8, "w", ws.parse("[U8@s][a]p"))
    assert eval_ydel(M8, "w", ws.parse("[U8@s][Y]p"))
    # agreement with plain eval on action-free formulas
    for text in ("p", "[a]p", "<b>~p", "[Y]false"):
        f = ws.parse(text)
        for w in M8.worlds:
            assert eval_ydel(M8, w, f) == evaluate(M8, w, f)


def test_ydel_closure(rng, ws):
    for _ in range(30):
        N = rand_restricted(rng, max_worlds=3)
        U = rand_atemporal_action(rng)
        Y = ydel_update(N, U)
        assert is_restricted(Y).holds


def test_ydel_equals_sharp_product(ws, M8):
    U8 = ws.actions["U8"][0]
    assert ydel_update(M8, U8) is product_update(M8, sharp_action(U8))


# ---------------------------------------------------------------------------
# RDETL

def test_eval_rdetl(ws, M):
    assert eval_rdetl(M, "w", ws.parse("p")) is Verdict.TRUE
    assert eval_rdetl(M, "v", ws.parse("p")) is Verdict.FALSE
    two_pasts = KripkeModel(
        sig=SIG, worlds=("u", "v", "w"), epistemic={},
        yesterday={("u", "w"), ("v", "w")}, valuation={})
    assert eval_rdetl(two_pasts, "w", ws.parse("p")) is Verdict.NOT_IN_SCOPE
    axiom = ws.parse("[Y]p <-> (~[Y]false -> p)")
    assert eval_rdetl(M, "w", axiom) is Verdict.TRUE


def test_readings_reject_formula_outside_signature(ws):
    # q is outside the model's signature; the model is not restricted,
    # and the signature check comes before the restricted one
    two_pasts = KripkeModel(
        sig=Signature(("a", "b"), ("p",)), worlds=("u", "v", "w"),
        epistemic={}, yesterday={("u", "w"), ("v", "w")}, valuation={})
    for check in (evaluate, eval_ydel, eval_rdetl):
        with pytest.raises(ValueError, match="atoms outside"):
            check(two_pasts, "w", Atom("q"))


def test_eval_rdetl_rejects_bad_actions(ws, M):
    # an action violating history preservation pushes the formula out of
    # the restricted fragment
    bad = ActionModel(
        sig=SIG, events=("s", "t"),
        epistemic={a: {("s", "s"), ("t", "t")} for a in SIG.agents},
        yesterday={("s", "t")},
        pre={"s": parse("p", SIG), "t": TOP}, name="B")
    assert eval_rdetl(M, "w", parse("[B@t]p", SIG, {"B": bad})) \
        is Verdict.NOT_IN_SCOPE


def _probe_by_evaluate(A, B, max_depth):
    """The probe with a fresh `evaluate` per pooled formula."""
    for f in formula_pool(A.model.sig, max_depth):
        if evaluate(A.model, A.point, f) != evaluate(B.model, B.point, f):
            return ProbeVerdict(False, f)
    return ProbeVerdict(True)


def test_probe_matches_per_formula_evaluation(ws, M):
    # the fig-3 pair agrees; the fig-5 two-step and one-step products
    # are told apart
    pairs = [(PointedModel(product_update(M, ws.actions["U3"][0]), "w|t"),
              PointedModel(M, "w")),
             (PointedModel(product_update(M, ws.actions["U5"][0]), "w|r"),
              PointedModel(product_update(M, ws.actions["U6"][0]), "w|r"))]
    rng = random.Random(17)
    for _ in range(30):
        N1, N2 = rand_kripke(rng, max_worlds=3), rand_kripke(rng, max_worlds=3)
        pairs.append((PointedModel(N1, rng.choice(N1.worlds)),
                      PointedModel(N2, rng.choice(N2.worlds))))
    verdicts = [language_equivalence_probe(A, B, 3 if i < 2 else 2)
                for i, (A, B) in enumerate(pairs)]
    assert verdicts[0].agree and not verdicts[1].agree
    for i, ((A, B), verdict) in enumerate(zip(pairs, verdicts)):
        assert verdict == _probe_by_evaluate(A, B, 3 if i < 2 else 2)

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from detl.action import ActionModel, check_action_property
from detl.formula import TOP
from detl.kripke import (INFINITE, KRIPKE_PROPERTIES, RESTRICTED_PROPERTIES,
                         KripkeModel, PropertyReport, check_property, depth,
                         generated_submodel, is_initial, is_restricted,
                         relation_closure)
from detl.semantics import product_update, ydel_update
from detl.serialize import (Workspace, document_to_object, model_to_document,
                            save_action, save_model)

from generate import (DEFAULT_SIG, rand_atemporal_action, rand_forest_action,
                      rand_kripke, rand_restricted, rand_sync_kripke,
                      rand_temporal_action)

SIG = DEFAULT_SIG


def loop_model(**kw):
    base = dict(sig=SIG, worlds=("w",), epistemic={}, yesterday=(),
                valuation={})
    base.update(kw)
    return KripkeModel(**base)


def test_depth_atemporal(ws, M):
    assert all(depth(M, w) == 0 for w in M.worlds)


def test_depth_after_double_update(ws, M):
    P = product_update(M, ws.actions["U4"][0])
    assert depth(P, "w|r") == 2


def test_depth_infinite_on_cycle():
    N = loop_model(yesterday={("w", "w")})
    assert depth(N, "w") == INFINITE


def test_depth_unknown_world(M):
    with pytest.raises(KeyError):
        depth(M, "nope")


def test_is_initial(ws, M):
    assert is_initial(M, "w")
    P = product_update(M, ws.actions["U2"][0])
    assert not is_initial(P, "w|s")
    assert is_initial(P, "v|t")


def test_perfect_recall_vacuous(M):
    assert check_property(M, "perfect_recall").holds


def test_synchronicity_fails_two_step(ws, M):
    # the a-arrow between the two-step world and the one-step world
    # relates different depths
    P = product_update(M, ws.actions["U5"][0])
    rep = check_property(P, "synchronicity")
    assert not rep.holds
    w, a, v, dw, dv = rep.witness
    assert depth(P, w) == dw != dv == depth(P, v)
    assert (v, w) in P.epi[a] or (w, v) in P.epi[a]
    # the specific arrow cited in the worked example is a genuine violation
    assert ("w|r", "u|s") in P.epi["a"]
    assert depth(P, "w|r") == 2 and depth(P, "u|s") == 1


def test_uniqueness_of_past_on_product(ws, M):
    P = product_update(M, ws.actions["U2"][0])
    assert check_property(P, "uniqueness_of_past").holds


def test_witnesses_recheck(rng):
    # failed reports must name a genuine violation of the quantified
    # condition, in binding order
    for _ in range(50):
        N = rand_kripke(rng, max_worlds=4, density=0.5)
        for prop in ("knowledge_of_past", "knowledge_of_initial_time",
                     "uniqueness_of_past", "perfect_recall"):
            rep = check_property(N, prop)
            if rep.holds:
                continue
            if prop == "knowledge_of_past":
                w2, w, a, v = rep.witness
                assert (w2, w) in set(N.yesterday)
                assert (w, v) in N.epi[a] and not N.yesterdays(v)
            elif prop == "knowledge_of_initial_time":
                w, a, v = rep.witness
                assert not N.yesterdays(w)
                assert (w, v) in N.epi[a] and N.yesterdays(v)
            elif prop == "uniqueness_of_past":
                w, p1, p2 = rep.witness
                assert p1 != p2
                assert {(p1, w), (p2, w)} <= set(N.yesterday)
            else:
                w, v, a, v2 = rep.witness
                assert (w, v) in set(N.yesterday) and (v, v2) in N.epi[a]
                assert not any((w2, v2) in set(N.yesterday)
                               for w2 in N.succ(a, w))


def test_is_restricted(ws, M):
    assert is_restricted(M).holds
    two_pasts = KripkeModel(
        sig=SIG, worlds=("u", "v", "w"), epistemic={},
        yesterday={("u", "w"), ("v", "w")}, valuation={})
    rep = is_restricted(two_pasts)
    assert not rep.holds
    assert rep.witness[0] == "uniqueness_of_past"


def _perfect_recall_per_pair(frame):
    """Perfect recall as first written: for every pair, search the
    a-successors of w for a parent of v2."""
    agents = sorted(frame.sig.agents)
    for w, v in frame.yesterday:
        for a in agents:
            for v2 in frame.succ(a, v):
                if not any(w2 in frame.yesterdays(v2)
                           for w2 in frame.succ(a, w)):
                    return PropertyReport("perfect_recall", False,
                                          (w, v, a, v2))
    return PropertyReport("perfect_recall", True)


def _anew(F):
    """A frame equal to F, built anew through its constructor."""
    if isinstance(F, KripkeModel):
        return KripkeModel(F.sig, F.worlds, F.epistemic, F.yesterday,
                           F.valuation)
    return ActionModel(F.sig, F.events, F.epistemic, F.yesterday, F.pre,
                       F.name)


def _seeded_frames():
    rng = random.Random(23)
    for _ in range(60):
        yield rand_kripke(rng, max_worlds=6, density=0.4)
        yield rand_restricted(rng, max_worlds=3)
        yield rand_sync_kripke(rng, max_worlds=7)
        yield rand_temporal_action(rng, max_events=4, density=0.4)
        yield rand_forest_action(rng, max_extra=4)


def test_perfect_recall_matches_per_pair_search():
    failed = 0
    for F in _seeded_frames():
        want = _perfect_recall_per_pair(F)
        got = (check_property(F, "perfect_recall")
               if isinstance(F, KripkeModel)
               else check_action_property(F, "perfect_recall"))
        assert got == want
        failed += not want.holds
    assert failed >= 50


def test_reports_computed_once_per_frame():
    rng = random.Random(29)
    for _ in range(20):
        N = rand_kripke(rng, max_worlds=5, density=0.4)
        for prop in KRIPKE_PROPERTIES:
            assert check_property(N, prop) is check_property(N, prop)
        # a structurally equal model has its own reports, equal ones
        twin = _anew(N)
        assert check_property(twin, "synchronicity") == \
            check_property(N, "synchronicity")


def _report(F, prop):
    if isinstance(F, KripkeModel):
        return check_property(F, prop)
    if prop == "persistence_of_facts":  # vacuous without a valuation
        return PropertyReport(prop, True)
    return check_action_property(F, prop)


def test_is_restricted_is_the_first_failing_report():
    outcomes = set()
    for F in _seeded_frames():
        G = _anew(F)
        failing = [(p, _report(G, p)) for p in RESTRICTED_PROPERTIES
                   if not _report(G, p).holds]
        want = PropertyReport("restricted", True)
        if failing:
            p, r = failing[0]
            want = PropertyReport("restricted", False, (p,) + r.witness)
        # on a frame no property was checked on, and after all of them
        assert is_restricted(_anew(F)) == want
        for prop in RESTRICTED_PROPERTIES:
            _report(F, prop)
        assert is_restricted(F) == want
        outcomes.add(want.holds)
    assert outcomes == {True, False}


def test_generated_submodel_connected(M):
    assert generated_submodel(M, "w") == M


def test_generated_submodel_drops_unreachable(M):
    big = KripkeModel(
        sig=M.sig, worlds=M.worlds + ("x",),
        epistemic=M.epi, yesterday=M.yesterday,
        valuation=M.val)
    assert generated_submodel(big, "w") == M


def test_generated_submodel_product(ws, M):
    # from the later-layer world the whole five-world product is
    # reachable via epistemic arrows and steps into the past; the
    # initial layer generates only itself (no past to walk into)
    P = product_update(M, ws.actions["U2"][0])
    assert generated_submodel(P, "w|s") == P
    assert set(generated_submodel(P, "w|t").worlds) == \
        {"u|t", "v|t", "w|t"}


def _generated_by_definition(M, w):
    """M restricted to the least world set that holds w and is closed
    under epistemic successors and yesterday-predecessors: the union of
    one more step of both, until nothing is added."""
    steps = [e for _, pairs in M.epistemic for e in pairs]
    steps += [(y, x) for x, y in M.yesterday]
    keep, grown = set(), {w}
    while grown != keep:
        keep = grown
        grown = keep | {y for x, y in steps if x in keep}
    return KripkeModel(
        sig=M.sig, worlds=keep,
        epistemic={a: {(x, y) for x, y in pairs if {x, y} <= keep}
                   for a, pairs in M.epistemic},
        yesterday={(x, y) for x, y in M.yesterday if {x, y} <= keep},
        valuation={p: set(ws) & keep for p, ws in M.valuation})


def test_generated_submodel_equals_definition():
    rng = random.Random(41)
    models = []
    for _ in range(25):
        models += [rand_kripke(rng, max_worlds=6),
                   rand_kripke(rng, max_worlds=6, acyclic=True),
                   rand_restricted(rng),
                   product_update(rand_kripke(rng, max_worlds=3),
                                  rand_temporal_action(rng, name="T"))]
    # with and without a yesterday cycle, and some point generating less
    # than the whole model
    assert {any(depth(M, w) == INFINITE for w in M.worlds)
            for M in models} == {True, False}
    smaller = 0
    for M in models:
        for w in M.worlds:
            G = generated_submodel(M, w)
            assert G == _generated_by_definition(M, w), (M, w)
            smaller += len(G.worlds) < len(M.worlds)
    assert smaller


def test_relation_closure_transitive(M):
    drawn = KripkeModel(
        sig=M.sig, worlds=M.worlds,
        epistemic={a: {(w, w) for w in M.worlds} |
                   {("w", "u"), ("u", "w"), ("w", "v"), ("v", "w")}
                   for a in M.sig.agents},
        yesterday=(), valuation=M.val)
    closed = relation_closure(drawn, "transitive")
    assert ("u", "v") in closed.epi["a"] and ("v", "u") in closed.epi["a"]
    # the s5-closed fixture is exactly the s5 closure of the drawing
    assert relation_closure(drawn, "s5") == M


def test_relation_closure_reflexive():
    N = loop_model(worlds=("v", "w"))
    closed = relation_closure(N, "reflexive")
    assert closed.epi["a"] == {("v", "v"), ("w", "w")}


def _reachability(pairs, nodes):
    # Warshall: allow each node in turn as an intermediate step
    reach = set(pairs)
    for k in nodes:
        reach |= {(x, z) for x in nodes for z in nodes
                  if (x, k) in reach and (k, z) in reach}
    return reach


def test_relation_closure_monotone_idempotent(rng):
    for _ in range(30):
        N = rand_kripke(rng, max_worlds=4, density=0.3)
        for mode in ("reflexive", "symmetric", "transitive", "s5"):
            once = relation_closure(N, mode)
            for a in SIG.agents:
                assert N.epi[a] <= once.epi[a]
                if mode == "transitive":
                    assert once.epi[a] == _reachability(N.epi[a], N.worlds)
            assert relation_closure(once, mode) == once


def test_depth_zero_iff_initial(rng):
    for _ in range(50):
        N = rand_kripke(rng, max_worlds=5, acyclic=True)
        for w in N.worlds:
            assert (depth(N, w) == 0) == is_initial(N, w)
            d = depth(N, w)
            if d not in (0, INFINITE):
                assert any(depth(N, v) == d - 1 for v in N.yesterdays(w))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_restricted_implies_synchronicity(seed):
    N = rand_restricted(random.Random(seed), max_worlds=3)
    assert is_restricted(N).holds
    assert check_property(N, "synchronicity").holds


def _histories_ending_at(N, w):
    """All backward ⇝-paths from w that cannot be extended further."""
    out = []
    stack = [(w,)]
    while stack:
        path = stack.pop()
        parents = N.yesterdays(path[0])
        if not parents:
            out.append(path)
        for p in parents:
            stack.append((p,) + path)
    return out


def test_unique_history_on_restricted(rng):
    for _ in range(40):
        N = rand_restricted(rng, max_worlds=3)
        if len(N.worlds) > 8:
            continue
        for w in N.worlds:
            hs = _histories_ending_at(N, w)
            assert len(hs) == 1
            assert len(hs[0]) - 1 == depth(N, w)


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel(sig=SIG, worlds=(), epistemic={}, yesterday=(),
                    valuation={})
    with pytest.raises(ValueError):
        loop_model(epistemic={"a": {("w", "x")}})
    with pytest.raises(ValueError):
        loop_model(valuation={"r": {"w"}})
    with pytest.raises(ValueError):
        loop_model(epistemic={"c": {("w", "w")}})
    # a world name is an identifier followed by "|"-separated events,
    # each an identifier or the flat marker
    for bad in ("", "Y", "1w", "a b|c", "|", "w|", "x\n|y", "w♭", "♭",
                "♭|s", "w||s", "w|true", "w|s♭", "w\n"):
        with pytest.raises(ValueError):
            loop_model(worlds=(bad,))
    for good in ("w", "Ya", "w|s", "w|♭", "w|♭|t", "w_0|s|♭"):
        assert loop_model(worlds=(good,)).worlds == (good,)


def test_update_results_round_trip(tmp_path, ws, M):
    # ⊕ of ⊕ of a product: names such as base|event|♭|event
    P = product_update(M, ws.actions["U2"][0])
    Y = ydel_update(ydel_update(P, ws.actions["U8"][0], True),
                    ws.actions["U8"][0], True)
    assert any(w.count("|") == 3 and "♭" in w for w in Y.worlds)
    for N in (P, Y):
        save_model(tmp_path / "N.json", N)
        assert Workspace.load_dir(tmp_path).models["N"][0] == N


def test_hash_computed_once_and_by_value(ws, M):
    again = KripkeModel(sig=M.sig, worlds=M.worlds, epistemic=M.epi,
                        yesterday=M.yesterday, valuation=M.val)
    assert again == M and again is not M
    assert hash(again) == hash(M)
    assert M.__dict__["_hash"] == hash(M)
    U = ws.actions["U2"][0]
    renamed = ActionModel(U.sig, U.events, U.epistemic, U.yesterday, U.pre,
                          "V")
    # equality ignores the name, so the hash does too
    assert renamed == U and hash(renamed) == hash(U)


def _three_ways(rng, items):
    """items as a set, as a shuffled list with repeats and as a sorted
    list."""
    items = list(items)
    mixed = items + rng.sample(items, len(items) // 2)
    rng.shuffle(mixed)
    return set(items), mixed, sorted(items)


def _rebuilt(rng, F, node_field):
    """Three constructor argument sets for frame F, one per input shape
    of `_three_ways`, each relation drawn anew."""
    nodes, yesterday = _three_ways(rng, F.nodes), _three_ways(rng, F.yesterday)
    epi = [(a, _three_ways(rng, pairs)) for a, pairs in F.epistemic]
    return [{"sig": F.sig, node_field: nodes[k], "yesterday": yesterday[k],
             "epistemic": {a: ways[k] for a, ways in epi}} for k in range(3)]


def _canonical(F):
    return all(list(rel) == sorted(set(rel)) for rel in
               (F.nodes, F.yesterday, *(pairs for _, pairs in F.epistemic)))


@pytest.mark.parametrize("seed", range(5))
def test_construction_ignores_input_order_and_repeats(seed, tmp_path):
    rng = random.Random(seed)
    M = rand_kripke(rng, SIG, max_worlds=12)
    val = [(p, _three_ways(rng, ws)) for p, ws in M.valuation]
    U = rand_temporal_action(rng, SIG, max_events=4)
    models = [KripkeModel(**kw, valuation={p: ways[k] for p, ways in val})
              for k, kw in enumerate(_rebuilt(rng, M, "worlds"))]
    actions = [ActionModel(**kw, pre=U.pre_map)
               for kw in _rebuilt(rng, U, "events")]
    for F, built, save in ((M, models, save_model), (U, actions, save_action)):
        save(tmp_path / "F.json", F)
        for N in built:
            assert N == F and hash(N) == hash(F)
            assert (N.nodes, N.epistemic, N.yesterday) \
                == (F.nodes, F.epistemic, F.yesterday)
            assert _canonical(N)
            for n in F.nodes:
                assert N.yesterdays(n) \
                    == tuple(sorted({x for x, y in F.yesterday if y == n}))
                for a, pairs in F.epistemic:
                    assert N.succ(a, n) \
                        == tuple(sorted({y for x, y in pairs if x == n}))
            for bad in (lambda: N.succ("c", F.nodes[0]),
                        lambda: N.succ("a", "nowhere"),
                        lambda: N.yesterdays("nowhere")):
                with pytest.raises(KeyError):
                    bad()
            save(tmp_path / "N.json", N)
            assert (tmp_path / "N.json").read_bytes() \
                == (tmp_path / "F.json").read_bytes()
    for N in models:
        assert N.valuation == M.valuation
        assert all(list(ws) == sorted(set(ws)) for _, ws in N.valuation)


def test_relations_are_read_off_the_store(ws, M):
    for F in (M, ws.actions["U2"][0]):
        assert "epistemic" not in vars(F) and "yesterday" not in vars(F)
        for name in ("epistemic", "yesterday"):
            for assign in (setattr, object.__setattr__):
                with pytest.raises(AttributeError):
                    assign(F, name, ())
    # a property named like a field is not that field's default
    for missing in ("epistemic", "yesterday"):
        kw = dict(sig=SIG, worlds=("w",), epistemic={}, yesterday=(),
                  valuation={})
        del kw[missing]
        with pytest.raises(TypeError):
            KripkeModel(**kw)
        kw = dict(sig=SIG, events=("e",), epistemic={}, yesterday=(),
                  pre={"e": TOP})
        del kw[missing]
        with pytest.raises(TypeError):
            ActionModel(**kw)


@pytest.mark.parametrize("way", ["set", "shuffled", "sorted"])
def test_construction_still_validates(way):
    def given(*items):
        return {"set": set(items), "sorted": sorted(items),
                "shuffled": list(items[::-1] + items)}[way]

    for kw, msg in (
            ({"epistemic": {"a": given(("w", "w"), ("w", "x"))}},
             "epistemic arrow w->x off the world set"),
            ({"yesterday": given(("x", "w"), ("w", "w"))},
             "yesterday arrow x->w off the world set"),
            ({"epistemic": {"c": given(("w", "w"))}},
             "unknown agents in epistemic relation: ['c']"),
            ({"valuation": {"p": given("w", "x")}},
             "valuation of p mentions unknown worlds"),
            ({"valuation": {"r": given("w")}},
             "unknown atoms in valuation: ['r']"),
            ({"worlds": given("w", "1w")}, "bad world: '1w'"),
            # the first arrow off the set in sorted order, neither the
            # first nor the last given
            ({"epistemic": {"a": given(("x", "w"), ("w", "y"), ("w", "x"),
                                       ("w", "w"), ("y", "w"))}},
             "epistemic arrow w->x off the world set"),
            ({"yesterday": given(("y", "w"), ("w", "w"), ("w", "y"),
                                 ("x", "w"))},
             "yesterday arrow w->y off the world set"),
            # each agent's arrows in signature order, then unknown
            # agents, then yesterday
            ({"epistemic": {"b": given(("w", "u")), "a": given(("w", "v"))}},
             "epistemic arrow w->v off the world set"),
            ({"epistemic": {"c": given(("w", "w")), "b": given(("w", "x"))}},
             "epistemic arrow w->x off the world set"),
            ({"epistemic": {"c": given(("w", "w"))},
              "yesterday": given(("w", "x"))},
             "unknown agents in epistemic relation: ['c']"),
            ({"epistemic": {"b": given(("x", "w"))},
              "yesterday": given(("w", "u"))},
             "epistemic arrow x->w off the world set")):
        with pytest.raises(ValueError, match=re.escape(msg)):
            loop_model(**kw)
    for epistemic, msg in (
            ({"a": given(("e", "x"), ("e", "e"))},
             "epistemic arrow e->x off the event set"),
            ({"c": given(("e", "e"))},
             "unknown agents in epistemic relation: ['c']")):
        with pytest.raises(ValueError, match=re.escape(msg)):
            ActionModel(sig=SIG, events=given("e"), epistemic=epistemic,
                        yesterday=(), pre={"e": TOP})


def test_product_relations_sorted_where_names_reorder():
    # w1 comes before w10 as a world but "w1|e" after "w10|e" as a string
    worlds = ("w1", "w10")
    every = {(x, y) for x in worlds for y in worlds}
    M = KripkeModel(sig=SIG, worlds=worlds, epistemic=dict.fromkeys("ab", every),
                    yesterday={("w1", "w10")}, valuation={"p": {"w1"}})
    events = ("e", "f")
    U = ActionModel(sig=SIG, events=events, pre=dict.fromkeys(events, TOP),
                    epistemic=dict.fromkeys(
                        "ab", {(x, y) for x in events for y in events}),
                    yesterday={("e", "f")})
    P = product_update(M, U)
    assert P.worlds == ("w10|e", "w10|f", "w1|e", "w1|f")
    assert _canonical(P)
    assert P.valuation == (("p", ("w1|e", "w1|f")), ("q", ()))
    assert P.yesterday == (("w10|e", "w10|f"), ("w1|e", "w10|e"),
                           ("w1|e", "w1|f"))
    assert P == KripkeModel(sig=SIG, worlds=set(P.worlds),
                            epistemic={a: set(ps) for a, ps in P.epistemic},
                            yesterday=set(P.yesterday),
                            valuation={p: set(ws) for p, ws in P.valuation})


def _grouped(F, pairs):
    """Per position, the mask of its successors in pairs and the mask of
    the positions with the same successor set, by brute force."""
    n = F.nodes
    succ = [frozenset(n.index(y) for x2, y in pairs if x2 == x) for x in n]
    return [(sum(1 << j for j in s), sum(1 << i for i, s2 in enumerate(succ)
                                         if s2 == s)) for s in succ]


@pytest.mark.parametrize("seed", range(5))
def test_twin_masks_group_positions_by_successor_set(seed):
    rng = random.Random(seed)
    M, U = rand_kripke(rng, SIG, max_worlds=8), rand_temporal_action(rng, SIG)
    R = rand_restricted(rng, SIG)
    frames = [M, U, rand_forest_action(rng, SIG),
              relation_closure(M, "s5"), product_update(M, U),
              ydel_update(R, rand_atemporal_action(rng, SIG))]
    frames += [document_to_object(model_to_document(F))[1]
               for F in frames if isinstance(F, KripkeModel)]
    for F in frames:
        for a, pairs in F.epistemic:
            assert F._succ_masks[a] == _grouped(F, pairs)
        assert F._parent_masks == _grouped(F, [(y, x) for x, y in F.yesterday])


def test_reloaded_s5_model_holds_one_tuple_per_class(tmp_path):
    # read from its document, from a saved file and from a drawing closed
    # at load time, each relation keeps equal successor sets as one object
    rng = random.Random(7)
    for k in range(4):
        M = relation_closure(rand_kripke(rng, SIG, max_worlds=12), "s5")
        drawn = dict(model_to_document(M), closure="s5", epistemic={
            a: [[x, y] for x, y in pairs if x <= y] for a, pairs in M.epistemic})
        save_model(tmp_path / f"M{k}.json", M)
        loaded = [document_to_object(model_to_document(M))[1],
                  document_to_object(drawn)[1],
                  Workspace.load_dir(tmp_path).models[f"M{k}"][0]]
        for N in loaded:
            assert N == M
            for succ in N._arrows:
                assert len(set(map(id, succ))) == len(set(succ))
            for succ in N._arrows[1:]:
                assert len(set(succ)) < len(succ)
        (tmp_path / f"M{k}.json").unlink()


def test_successors_sort_each_distinct_list_once():
    # v's arrows come out of order and repeated, and x's raw list (w, x)
    # equals v's sorted one; b's arrows give u, v and w one successor set
    doc = {"type": "kripke", "agents": ["a", "b"], "atoms": [],
           "worlds": ["x", "w", "v", "u"],
           "epistemic": {
               "a": [["v", "x"], ["x", "w"], ["v", "w"], ["u", "x"],
                     ["v", "x"], ["x", "x"], ["w", "u"]],
               "b": [["w", "v"], ["u", "u"], ["v", "u"], ["u", "v"],
                     ["w", "u"], ["v", "v"], ["w", "u"]]},
           "yesterday": [["w", "x"], ["u", "w"], ["u", "v"], ["u", "w"]]}
    _, M, _ = document_to_object(doc)
    pos = {n: i for i, n in enumerate(M.worlds)}
    relations = [doc["yesterday"], *doc["epistemic"].values()]
    assert M._arrows == tuple(
        tuple(tuple(sorted({pos[y] for x2, y in pairs if x2 == x}))
              for x in M.worlds) for pairs in relations)
    a, b = M._arrows[1:]
    assert a[pos["x"]] is a[pos["v"]] == (pos["w"], pos["x"])
    assert b[pos["u"]] is b[pos["v"]] is b[pos["w"]]
    for succ in M._arrows:
        assert len(set(map(id, succ))) == len(set(succ))
    # an arrow off the node set keeps its message
    doc["epistemic"]["b"].append(["w", "z"])
    with pytest.raises(ValueError,
                       match=re.escape("epistemic arrow w->z off the world set")):
        document_to_object(doc)

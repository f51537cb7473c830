import random

import pytest

from detl.action import (ACTION_PROPERTIES, ActionModel, PointedAction, action_depth,
                         check_action_property, check_history_preservation,
                         check_past_preservation, check_time_advancing,
                         is_atemporal_action, is_epistemic_past_state,
                         is_lrdetl_action, is_past_state, sharp_action)
from detl.formula import TOP, parse
from detl.kripke import KripkeModel, PropertyReport, check_property

from generate import (DEFAULT_SIG, rand_atemporal_action,
                      rand_forest_action, rand_temporal_action)

SIG = DEFAULT_SIG


def mk_action(events, pre, epi=None, yesterday=(), name="V"):
    loops = {(e, e) for e in events}
    return ActionModel(
        sig=SIG, events=events,
        epistemic={a: loops | set((epi or {}).get(a, ())) for a in SIG.agents},
        yesterday=yesterday,
        pre={e: parse(pre[e], SIG) for e in events}, name=name)


def test_is_past_state(ws):
    U2 = ws.actions["U2"][0]
    assert is_past_state(U2, "t")
    assert not is_past_state(U2, "s")
    single = mk_action(("e",), {"e": "true"})
    assert is_past_state(single, "e")
    with pytest.raises(KeyError):
        is_past_state(U2, "x")


def test_is_epistemic_past_state(ws):
    U2 = ws.actions["U2"][0]
    assert is_epistemic_past_state(U2, "t")
    assert not is_epistemic_past_state(U2, "s")  # not even a past state
    assert is_epistemic_past_state(sharp_action(ws.actions["U8"][0]), "♭")
    # a non-valid precondition disqualifies
    weak = mk_action(("e",), {"e": "p"})
    assert not is_epistemic_past_state(weak, "e")
    # an extra epistemic arrow touching the event disqualifies
    noisy = mk_action(("s", "t"), {"s": "true", "t": "true"},
                      epi={"a": {("t", "s")}})
    assert not is_epistemic_past_state(noisy, "t")
    # a missing self-loop disqualifies
    bare = ActionModel(sig=SIG, events=("e",), epistemic={},
                       yesterday=(), pre={"e": TOP})
    assert not is_epistemic_past_state(bare, "e")


def test_epistemic_past_state_implies_past_state(rng):
    for _ in range(30):
        U = rand_temporal_action(rng)
        for e in U.events:
            if is_epistemic_past_state(U, e):
                assert is_past_state(U, e)


def test_history_preservation(ws):
    assert check_history_preservation(ws.actions["U2"][0]).holds
    # p -> q is not valid
    bad_pre = mk_action(("s", "t"), {"s": "p", "t": "q"},
                        yesterday={("t", "s")})
    rep = check_history_preservation(bad_pre)
    assert not rep.holds and rep.witness == ("t", "s", "precondition")
    # an arrow out of the past state breaks the epistemic clause
    noisy = mk_action(("s", "t"), {"s": "p", "t": "true"},
                      epi={"a": {("t", "s")}}, yesterday={("t", "s")})
    rep = check_history_preservation(noisy)
    assert not rep.holds and rep.witness == ("t", "past_state_not_epistemic")


def test_history_preservation_all_top(rng):
    # with all-true preconditions the check is purely structural
    for _ in range(20):
        U = rand_temporal_action(rng)
        V = ActionModel(sig=U.sig, events=U.events, epistemic=U.epi,
                        yesterday=U.yesterday,
                        pre={e: TOP for e in U.events})
        structural = all(is_epistemic_past_state(V, e)
                         for e in V.events if is_past_state(V, e))
        assert check_history_preservation(V).holds == structural


def test_past_preservation(ws):
    U2 = ws.actions["U2"][0]
    assert check_past_preservation(PointedAction(U2, "s")).holds
    assert check_past_preservation(PointedAction(U2, "t")).holds
    cyc = mk_action(("x",), {"x": "true"}, yesterday={("x", "x")})
    rep = check_past_preservation(PointedAction(cyc, "x"))
    assert not rep.holds and rep.witness == ("x", "no_past_state_reachable")


def _reference_past_preservation(A):
    """One backward search per event backward-reachable from the point."""
    U = A.action
    hp = check_history_preservation(U)
    if not hp.holds:
        return PropertyReport("past_preservation", False, hp.witness)
    seen, stack = {A.point}, [A.point]
    while stack:
        for p in U.yesterdays(stack.pop()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    for e in sorted(seen):
        reach, stack = {e}, [e]
        while stack:
            x = stack.pop()
            if is_past_state(U, x):
                break
            for p in U.yesterdays(x):
                if p not in reach:
                    reach.add(p)
                    stack.append(p)
        else:
            return PropertyReport("past_preservation", False,
                                  (e, "no_past_state_reachable"))
    return PropertyReport("past_preservation", True)


def test_past_preservation_matches_per_event_search():
    # the random temporal actions rarely preserve history, so each is
    # also taken with only self-loops and true preconditions, which do,
    # to reach the search for grounded events
    rng = random.Random(5)
    failing = 0
    for i in range(150):
        make = (rand_temporal_action, rand_forest_action,
                rand_atemporal_action)[i % 3]
        V = make(rng, max_events=6) if i % 3 == 0 else make(rng)
        loops = mk_action(V.events, dict.fromkeys(V.events, "true"),
                          yesterday=V.yesterday)
        for U in (V, loops):
            for e in U.events:
                A = PointedAction(U, e)
                rep = check_past_preservation(A)
                assert rep == _reference_past_preservation(A)
                failing += rep.witness is not None and \
                    rep.witness[-1] == "no_past_state_reachable"
    assert failing > 0


def test_time_advancing(ws):
    assert check_time_advancing(PointedAction(ws.actions["U2"][0], "s")).holds
    rep = check_time_advancing(PointedAction(ws.actions["U3"][0], "t"))
    assert not rep.holds and rep.witness == ("t", "point_is_past_state")
    assert check_time_advancing(PointedAction(ws.actions["U4"][0], "r")).holds


def test_implication_chain(rng):
    # time-advancing implies past-preserving implies history-preserving
    for _ in range(25):
        U = rand_temporal_action(rng)
        for e in U.events:
            A = PointedAction(U, e)
            if check_time_advancing(A).holds:
                assert check_past_preservation(A).holds
            if check_past_preservation(A).holds:
                assert check_history_preservation(U).holds


def test_action_properties(ws):
    U4 = ws.actions["U4"][0]
    assert check_action_property(U4, "depth_definedness").holds
    assert {action_depth(U4, e) for e in U4.events} == {0, 1, 2}
    U5 = ws.actions["U5"][0]
    rep = check_action_property(U5, "synchronicity")
    assert not rep.holds
    # the drawn a-arrow between the one-step and two-step events is a
    # genuine violation
    assert ("s", "r") in U5.epi["a"]
    assert action_depth(U5, "s") == 1 and action_depth(U5, "r") == 2
    assert check_action_property(ws.actions["U2"][0], "perfect_recall").holds
    with pytest.raises(ValueError):
        check_action_property(U4, "persistence_of_facts")


def test_is_atemporal_action(ws):
    assert is_atemporal_action(ws.actions["U8"][0])
    assert not is_atemporal_action(ws.actions["U2"][0])
    assert is_atemporal_action(mk_action(("e",), {"e": "true"}))


def test_is_lrdetl_action(ws):
    assert is_lrdetl_action(ws.actions["U2"][0]).holds
    bad = mk_action(("s", "t"), {"s": "p", "t": "true"},
                    yesterday={("s", "t")})  # pre(t)=true, pre(s)=p: ⊤→p not valid
    assert not is_lrdetl_action(bad).holds
    assert is_lrdetl_action(sharp_action(ws.actions["U8"][0])).holds
    # the report is kept per action model
    U2 = ws.actions["U2"][0]
    assert is_lrdetl_action(U2) is is_lrdetl_action(U2)


def test_is_lrdetl_recurses_into_preconditions(ws):
    bad_inner = mk_action(("s", "t"), {"s": "p", "t": "true"},
                          yesterday={("s", "t")}, name="B")
    outer = ActionModel(
        sig=SIG, events=("e",),
        epistemic={a: {("e", "e")} for a in SIG.agents}, yesterday=(),
        pre={"e": parse("[B@s]p", SIG, {"B": bad_inner})}, name="O")
    rep = is_lrdetl_action(outer)
    assert not rep.holds and rep.witness[0] == "B"


def test_sharp_histories_have_length_one(rng):
    for _ in range(20):
        U = rand_atemporal_action(rng)
        S = sharp_action(U)
        assert action_depth(S, "♭") == 0
        assert all(action_depth(S, e) == 1 for e in U.events)


def test_forest_generator_is_lrdetl(rng):
    for _ in range(20):
        U = rand_forest_action(rng)
        assert is_lrdetl_action(U).holds


def test_action_model_validation():
    with pytest.raises(ValueError):
        ActionModel(sig=SIG, events=(), epistemic={}, yesterday=(), pre={})
    with pytest.raises(ValueError):
        mk_action(("e",), {"e": "true"}, epi={"a": {("e", "x")}})
    with pytest.raises(ValueError):
        mk_action(("e",), {"e": "true"}, yesterday={("x", "e")})
    with pytest.raises(ValueError):
        ActionModel(sig=SIG, events=("e",), epistemic={"c": {("e", "e")}},
                    yesterday=(), pre={"e": TOP})
    with pytest.raises(ValueError):
        ActionModel(sig=SIG, events=("e", "f"), epistemic={}, yesterday=(),
                    pre={"e": TOP})
    with pytest.raises(ValueError):
        ActionModel(sig=SIG, events=("e",), epistemic={}, yesterday=(),
                    pre={"e": TOP, "f": TOP})
    with pytest.raises(ValueError):
        ActionModel(sig=SIG, events=("e|f",), epistemic={}, yesterday=(),
                    pre={"e|f": TOP})


def test_action_properties_match_kripke_frame():
    # an action model and a Kripke model on the same graph share every
    # frame condition, witnesses included
    for seed in range(60):
        U = rand_temporal_action(random.Random(seed), max_events=5)
        M = KripkeModel(sig=U.sig, worlds=U.events, epistemic=U.epi,
                        yesterday=U.yesterday, valuation={})
        for prop in ACTION_PROPERTIES:
            assert check_action_property(U, prop) == check_property(M, prop)

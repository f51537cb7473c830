import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from detl import formula
from detl.action import ActionModel
from detl.formula import (And, Atom, BOT, Bottom, Box, Not, ParseError,
                          Signature, TOP, UnknownAction, Update, Yesterday,
                          depth_formula, dia_yesterday, is_atemporal, is_setl,
                          parse, pretty, subformulas, y_nesting_depth)

import reference_parse
from generate import (DEFAULT_SIG, rand_atemporal_action, rand_formula,
                      rand_forest_action, rand_temporal_action)

SIG = DEFAULT_SIG


def test_parse_negated_box():
    assert parse("~[a]p", SIG) == Not(Box("a", Atom("p")))


def test_parse_unknown_agent():
    with pytest.raises(ParseError):
        parse("[c]p", SIG)


def test_parse_unknown_atom():
    with pytest.raises(ParseError):
        parse("r", SIG)


def test_parse_update_with_diamond(ws):
    U2 = ws.actions["U2"][0]
    f = ws.parse("[U2@s]([a]p & <Y>~[a]p)")
    body = And(Box("a", Atom("p")),
               dia_yesterday(Not(Box("a", Atom("p")))))
    assert f == Update(U2, "s", body)


def test_parse_unknown_event(ws):
    with pytest.raises(ParseError):
        ws.parse("[U2@x]p")


def test_parse_unknown_action():
    with pytest.raises(ParseError):
        parse("[V@s]p", SIG)


@pytest.mark.parametrize("text,error,msg,pos", [
    ("p & ", ParseError, "unexpected 'end of input'", 4),
    ("(p q", ParseError, "expected ')', found 'q'", 3),
    ("(p", ParseError, "expected ')', found 'end of input'", 2),
    ("p)", ParseError, "trailing input ')'", 1),
    ("[a p", ParseError, "expected ']', found 'p'", 3),
    ("[U2@ ]p", ParseError, "expected an event name, found ']'", 5),
    ("<", ParseError, "expected a name, found ''", 1),
    ("p & r", ParseError, "unknown atom 'r'", 4),
    ("[c]p", ParseError, "unknown agent 'c'", 1),
    ("[V@s]p", UnknownAction, "unknown action 'V'", 1),
    ("[U2@x]p", ParseError, "unknown event 'x' of action 'U2'", 4),
    ("p) $", ParseError, "unexpected character '$'", 3),
    ("[V@s]p $", ParseError, "unexpected character '$'", 7),
    ("p &\t\n ", ParseError, "unexpected 'end of input'", 6),
    ("q\n r", ParseError, "trailing input 'r'", 3),
    ("Y", ParseError, "unknown atom 'Y'", 0),
    ("[a@]p", ParseError, "expected an event name, found ']'", 3)],
    ids=["end-of-input", "unclosed", "unclosed-at-end", "trailing",
         "unclosed-box", "event-name", "modal-name", "unknown-atom",
         "unknown-agent", "unknown-action", "unknown-event",
         "bad-after-trailing", "bad-before-unknown-action",
         "end-after-newline", "trailing-after-newline", "reserved-Y",
         "missing-event"])
def test_parse_error_position(ws, text, error, msg, pos):
    # a bad character anywhere is reported before every other error
    with pytest.raises(ParseError) as exc:
        ws.parse(text)
    assert type(exc.value) is error
    assert exc.value.pos == pos
    assert str(exc.value) == f"{msg} (at position {pos})"


@pytest.mark.parametrize("text,char,pos", [("p & $", "$", 4), ("p -", "-", 2)])
def test_bad_character_named_at_its_position(text, char, pos):
    # the error names the character itself, not the whitespace before it
    with pytest.raises(ParseError) as exc:
        parse(text, SIG)
    assert exc.value.pos == pos
    assert str(exc.value) == (f"unexpected character {char!r} "
                              f"(at position {pos})")


def test_parse_precedence():
    # unary > & > | > -> (right assoc) > <->
    assert parse("~p & q | p -> q -> p", SIG) == \
        parse("(((~p) & q) | p) -> (q -> p)", SIG)
    assert parse("p <-> q <-> p", SIG) == parse("(p <-> q) <-> p", SIG)
    assert parse("p <-> q -> p", SIG) == parse("p <-> (q -> p)", SIG)
    assert parse("p -> q <-> p", SIG) == parse("(p -> q) <-> p", SIG)
    assert parse("p | q -> p", SIG) == parse("(p | q) -> p", SIG)


_TOKEN_TEXTS = ["p", "q", "r", "Y", "true", "false", "a", "U2", "s", "~",
                "&", "|", "->", "<->", "(", ")", "[", "]", "<", ">", "@",
                "[a]", "<b>", "[Y]", "<Y>", "[U2@s]", "<U2@t>", "$", "[c]",
                "[U2@x]", "[a@]", "-", " ", "\t", "V", "[V@s]", "9", "\n",
                "♭"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_TEXTS), max_size=16))
def test_parse_fuzz(ws, tokens):
    # any text either parses to a formula that prints back to itself or
    # raises ParseError inside the text, never another exception; and the
    # reference parser builds the same node or raises the same error
    text = "".join(tokens)
    registry = ws.actions_by_name()
    try:
        f = ws.parse(text)
    except ParseError as exc:
        assert 0 <= exc.pos <= len(text)
        with pytest.raises(ParseError) as ref:
            reference_parse.parse(text, ws.sig, registry)
        assert (type(exc), str(exc), exc.pos) == \
            (type(ref.value), str(ref.value), ref.value.pos)
    else:
        assert ws.parse(pretty(f)) is f
        assert reference_parse.parse(text, ws.sig, registry) is f


def test_print_basics():
    assert pretty(BOT) == "false"
    assert pretty(Box("a", Atom("p"))) == "[a]p"
    assert pretty(Yesterday(BOT)) == "[Y]false"
    assert pretty(TOP) == "true"


def test_print_sugar_round_trip():
    for text in ["p -> q", "p | q", "p <-> q", "<a>p", "<Y>p", "~p & ~q",
                 "(p | q) & p", "p -> q -> p"]:
        assert pretty(parse(text, SIG)) == text


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    actions = tuple((U, e)
                    for U in (rand_atemporal_action(rng, SIG, name="V"),
                              rand_temporal_action(rng, SIG, name="W"))
                    for e in U.events)
    f = rand_formula(rng, SIG, depth=4, actions=actions)
    registry = {U.name: U for U, _ in actions}
    assert parse(pretty(f), SIG, registry) is f


def test_is_atemporal(ws):
    assert is_atemporal(Box("a", Atom("p")))
    assert not is_atemporal(ws.parse("[U2@s]p"))
    assert is_atemporal(ws.parse("[U8@s]p"))
    # [Y] in the formula itself is allowed
    assert is_atemporal(ws.parse("[Y][U8@s]p"))


def test_is_atemporal_closed_under_subformulas(ws):
    f = ws.parse("[Y](p & [U8@s]<a>q)")
    assert is_atemporal(f)
    assert all(is_atemporal(g) for g in subformulas(f))


def test_y_nesting_depth():
    assert y_nesting_depth(Atom("p")) == 0
    assert y_nesting_depth(Yesterday(Yesterday(BOT))) == 2
    assert y_nesting_depth(Box("a", Yesterday(Atom("p")))) == 1
    assert y_nesting_depth(parse("[Y]p & [Y][Y]p", SIG)) == 2


def test_y_nesting_depth_rejects_updates(ws):
    with pytest.raises(ValueError):
        y_nesting_depth(ws.parse("[U2@s]p"))
    with pytest.raises(ValueError):
        y_nesting_depth(Box("a", And(Atom("p"), ws.parse("[Y][U2@s]p"))))


def test_y_nesting_depth_of_deep_input():
    # one loop, so nesting far past the recursion limit is fine
    assert y_nesting_depth(parse("[Y]" * 3000 + "p", SIG)) == 3000
    assert y_nesting_depth(parse("~[a]" * 3000 + "[Y]p", SIG)) == 1


def test_y_nesting_depth_of_shared_dag():
    # f(i+1) = [Y]f(i) & f(i): 61 distinct nodes on 2^60 paths, each
    # distinct (node, [Y] count) pair visited once
    f = Atom("p")
    for _ in range(60):
        f = And(Yesterday(f), f)
    assert y_nesting_depth(f) == 60


def test_depth_formula():
    assert pretty(depth_formula(1, unique_past=True)) == "<Y>[Y]false"
    assert pretty(depth_formula(2, unique_past=False)) == \
        "<Y><Y>[Y]false & [Y][Y][Y]false"
    d0 = depth_formula(0, unique_past=False)
    assert d0 == And(Yesterday(Bottom()), Yesterday(Bottom()))
    with pytest.raises(ValueError):
        depth_formula(-1)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((), ("p",))
    with pytest.raises(ValueError):
        Signature(("a",), ("a",))
    with pytest.raises(ValueError):
        Signature(("Y",), ("p",))


def test_equal_formulas_are_one_node():
    assert Not(Atom("p")) is Not(Atom("p"))
    assert And(Atom("p"), TOP) is parse("p & true", SIG)
    assert Box("a", Atom("p")) is not Box("b", Atom("p"))
    assert hash(Not(Atom("q"))) == hash(Not(Atom("q")))


def test_nodes_are_immutable(ws):
    f = And(Atom("p"), Atom("q"))
    for name in ("left", "atoms"):
        with pytest.raises(AttributeError):
            setattr(f, name, Atom("p"))
    with pytest.raises(AttributeError):
        del f.right
    # nodes built just now, their fields stored by the builders
    U2 = ws.actions["U2"][0]
    leaf = Atom("fresh_immutable")
    fresh = [leaf, Not(leaf), And(leaf, TOP), Box("b", leaf),
             Yesterday(leaf), Update(U2, "s", leaf)]
    for f in fresh:
        for name in f.__slots__ + ("_occ", "other"):
            with pytest.raises(AttributeError):
                setattr(f, name, TOP)
            with pytest.raises(AttributeError):
                delattr(f, name)
    atom, neg, both, box, past, update = fresh
    assert atom.name == "fresh_immutable" and both.right is TOP
    assert neg.sub is box.sub is past.sub is update.sub is leaf


def test_constructors_and_builders_give_one_node(ws):
    U2 = ws.actions["U2"][0]
    p, q = Atom("p"), Atom("q")
    for make, build, args in [
            (Atom, formula._atom, ("p",)), (Not, formula._not, (p,)),
            (And, formula._and, (p, q)), (Box, formula._box, ("a", p)),
            (Yesterday, formula._yesterday, (p,)),
            (Update, formula._update, (U2, "s", p))]:
        # both orders: either one may build the node first
        assert make(*args) is build(*args)
        last = "fresh_name" if make is Atom else Atom("fresh_" + make.__name__)
        fresh = args[:-1] + (last,)
        assert build(*fresh) is make(*fresh)
        assert type(make(*fresh)) is make
    assert Bottom() is BOT and TOP is formula._not(BOT)
    # Yesterday is keyed apart from Not, though built alike
    assert Yesterday(p) is not Not(p) and Yesterday(p).sub is Not(p).sub
    # the event check holds for the builder as for the constructor
    for make in (Update, formula._update):
        with pytest.raises(ValueError):
            make(U2, "x", p)


def _occurring(f):
    """Atoms, agents and actions of f by a recursive walk that descends
    into the preconditions of every action model."""
    atoms, agents, actions = set(), set(), set()
    children = [getattr(f, n) for n in ("sub", "left", "right")
                if hasattr(f, n)]
    if isinstance(f, Atom):
        atoms.add(f.name)
    elif isinstance(f, Box):
        agents.add(f.agent)
    elif isinstance(f, Update):
        agents.update(f.action.sig.agents)
        actions.add(f.action)
        children += [pre for _, pre in f.action.pre]
    for g in children:
        more = _occurring(g)
        atoms |= more[0]
        agents |= more[1]
        actions |= more[2]
    return atoms, agents, actions


def test_occurrence_sets_match_walk():
    rng = random.Random(3)
    sig = Signature(("a", "b", "c"), ("p", "q", "r"))
    for i in range(150):
        inner = rand_atemporal_action(rng, sig, name="V")
        # an action whose preconditions hold an update by another action
        outer = ActionModel(sig=sig, events=("s", "t"),
                            epistemic={"c": {("s", "t")}}, yesterday=(),
                            pre={"s": Update(inner, inner.events[0],
                                             Atom("r")),
                                 "t": TOP}, name="O")
        actions = tuple((U, e)
                        for U in (inner, outer,
                                  rand_temporal_action(rng, sig, name="W"),
                                  rand_forest_action(rng, sig, name="F"))
                        for e in U.events)
        f = rand_formula(rng, sig, depth=1 + i % 4, actions=actions)
        atoms, agents, actions = _occurring(f)
        assert (f.atoms, f.agents, f.actions) == (atoms, agents, actions)
        assert is_setl(f) == (not actions)
        assert is_atemporal(f) == all(not U.yesterday for U in actions)


def test_subformulas_preorder_with_repeats():
    p, q = Atom("p"), Atom("q")
    f = And(Not(p), Box("a", And(p, q)))
    assert list(subformulas(f)) == [f, Not(p), p, Box("a", And(p, q)),
                                    And(p, q), p, q]
    deep = parse("~" * 3000 + "p", SIG)
    assert len(list(subformulas(deep))) == 3001


def test_update_prints_its_own_action_name():
    rng = random.Random(4)
    V = rand_atemporal_action(rng, SIG, name="V")
    W = ActionModel(V.sig, V.events, V.epistemic, V.yesterday, V.pre, "W")
    assert V == W
    e = V.events[0]
    f, g = Update(V, e, Atom("p")), Update(W, e, Atom("p"))
    assert f is not g
    assert pretty(f) == f"[V@{e}]p" and pretty(g) == f"[W@{e}]p"
    assert parse(pretty(g), SIG, {"W": W}) is g


def test_intern_table_drops_dead_nodes():
    gc.collect()
    before = len(formula._NODES)
    f = Atom("fresh")
    for i in range(10_000):
        f = Not(f) if i % 2 else And(f, Box("a", Atom("p")))
    assert len(formula._NODES) > before + 9_000
    del f
    gc.collect()
    assert len(formula._NODES) == before

"""The independent oracles against hand-checked facts about the bundled
figure fixtures, read straight from their JSON files."""

import json
from itertools import product

import pytest

from conftest import ROOT

import gen
import oracle

FIXTURES = ROOT / "src" / "detl" / "fixtures"


def s5(pairs, nodes):
    """Reflexive, symmetric, transitive closure, by brute force."""
    rel = set(map(tuple, pairs)) | {(n, n) for n in nodes}
    rel |= {(y, x) for x, y in rel}
    for k, i, j in product(nodes, repeat=3):
        if (i, k) in rel and (k, j) in rel:
            rel.add((i, j))
    return rel


def fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def fixture_model(name):
    doc = fixture(name)
    close = doc.get("closure") == "s5"
    return oracle.PlainModel(
        doc["worlds"], doc["val"],
        {a: s5(ps, doc["worlds"]) if close else set(map(tuple, ps))
         for a, ps in doc["epistemic"].items()},
        map(tuple, doc["yesterday"]))


def fixture_action(name):
    """Action dict of a fixture whose preconditions are literal
    conjunctions."""
    doc = fixture(name)
    close = doc.get("closure") == "s5"

    def lits(text):
        if text == "true":
            return []
        return [(t.strip().lstrip("~"), not t.strip().startswith("~"))
                for t in text.split("&")]

    return {
        "name": name, "events": doc["events"],
        "pre": {e: lits(t) for e, t in doc["pre"].items()},
        "epistemic": {a: s5(ps, doc["events"]) if close else set(map(tuple, ps))
                      for a, ps in doc["epistemic"].items()},
        "yesterday": set(map(tuple, doc["yesterday"])),
    }


def test_fig1_neither_agent_knows_p_at_w():
    M = fixture_model("M")
    f = gen.conj(gen.neg(("box", "a", gen.atom("p"))),
                 gen.neg(("box", "b", gen.atom("p"))))
    assert oracle.holds(M, "w", f)
    assert not oracle.holds(M, "w", gen.neg(f))


def test_fig2_five_worlds_and_depth_one():
    M, U2 = fixture_model("M"), fixture_action("U2")
    assert oracle.product_world_count(M, U2) == 5
    P = oracle.product(M, U2)
    assert len(P.worlds) == 5
    assert oracle.depths(P)["w|s"] == 1


def test_fig4_depth_two():
    P = oracle.product(fixture_model("M"), fixture_action("U4"))
    assert oracle.depths(P)["w|r"] == 2


def test_fig9_oplus_adds_a_flat_copy():
    M8, U8 = fixture_model("M8"), fixture_action("U8")
    assert oracle.product_world_count(M8, U8, oplus=True) == 5


def test_update_formula_by_the_independent_product():
    # fig2: after U2 at s both agents know p, and yesterday neither did
    M, U2 = fixture_model("M"), fixture_action("U2")
    know = gen.conj(("box", "a", gen.atom("p")), ("box", "b", gen.atom("p")))
    ignorant = gen.conj(gen.neg(("box", "a", gen.atom("p"))),
                        gen.neg(("box", "b", gen.atom("p"))))
    f = ("upd", "U2", "s", gen.conj(know, gen.neg(("y", gen.neg(ignorant)))))
    assert oracle.evaluate(M, "w", f, {"U2": U2})


def test_literal_preconditions():
    M = fixture_model("M")   # p at u and w, q at v and w
    assert oracle.pre_holds(M, "w", [("p", True), ("q", True)])
    assert not oracle.pre_holds(M, "u", [("p", True), ("q", True)])
    assert oracle.pre_holds(M, "v", [("p", False)])
    assert oracle.pre_holds(M, "u", [])


def test_longest_path_depth():
    M = oracle.PlainModel("abcd", {}, {}, [("a", "b"), ("b", "c"),
                                           ("a", "c"), ("c", "d")])
    assert oracle.depths(M) == {"a": 0, "b": 1, "c": 2, "d": 3}
    cyclic = oracle.PlainModel("abc", {}, {}, [("a", "b"), ("b", "a"),
                                               ("b", "c")])
    assert oracle.depths(cyclic) == {"a": None, "b": None, "c": None}


def test_bisimulation_rechecker():
    M = fixture_model("M")
    identity = {(w, w) for w in M.worlds}
    assert oracle.bisimulation_errors(M, "w", M, "w", identity) == []
    # u and w agree on p but not on q
    assert ("atoms", "u", "w") in oracle.bisimulation_errors(
        M, "w", M, "w", identity | {("u", "w")})
    # dropping v breaks forth from w
    broken = identity - {("v", "v")}
    assert any(e[0] == "forth" for e in
               oracle.bisimulation_errors(M, "w", M, "w", broken))
    assert oracle.bisimulation_errors(M, "w", M, "u", identity)


def test_program_formulas_convert():
    import detl
    sig = detl.Signature(("a", "b"), ("p", "q"))
    f = detl.parse("~[a]p & [Y](q -> false)", sig)
    M = fixture_model("M")
    assert oracle.holds(M, "w", oracle.from_program(f))
    assert gen.render(oracle.from_program(f)) == \
        "(~[a]p & [Y]~(q & ~false))"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_models_are_restricted(seed):
    import detl
    from model_check import build_model
    model = gen.restricted_model(gen.new_rng(seed, "t"), 8, (2, 1), 3)
    M = build_model(detl, model)
    assert detl.is_restricted(M).holds
    assert detl.check_property(M, "synchronicity").holds
    assert oracle.depths(oracle.plain_model(model)) == model["depth"]

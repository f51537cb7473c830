import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from detl import serialize
from detl.action import sharp_action
from detl.cli import main
from detl.formula import Signature
from detl.kripke import CLOSURE_MODES, KripkeModel, close_pairs
from detl.semantics import product_update, ydel_update
from detl.serialize import (Workspace, action_to_document, canonical_document,
                            canonical_dumps, check_document,
                            document_to_object, model_to_document,
                            save_action, save_model)

from generate import (rand_atemporal_action, rand_forest_action,
                      rand_kripke, rand_restricted)
from conftest import FIXTURES


def test_fixtures_round_trip_byte_identical():
    # also with the keys of every object, "pre" included, read in reverse
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert canonical_dumps(json.loads(text)) == text, path.name
        reverse = json.loads(
            text, object_hook=lambda d: dict(reversed(d.items())))
        assert canonical_dumps(reverse) == text, path.name


def test_canonical_document_rejects_unknown_keys():
    with pytest.raises(ValueError):
        canonical_document({"type": "kripke", "bogus": 1})
    # and so does every reader, on a document that is whole but for it,
    # the keys of the other type included
    M, U2 = (json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
             for name in ("M", "U2"))
    misspelt = dict(M, epistemc=M["epistemic"])
    del misspelt["epistemic"]
    for doc, unknown in [(misspelt, r"\['epistemc'\]"),
                         (dict(M, events=["zz"], pre={"w": "q"}),
                          r"\['events', 'pre'\]"),
                         (dict(U2, worlds=["s"], val={"p": ["s"]}),
                          r"\['val', 'worlds'\]")]:
        for read in (canonical_document, document_to_object, check_document):
            with pytest.raises(ValueError,
                               match=rf"^unknown keys in document: {unknown}$"):
                read(doc)


def test_model_document_round_trip(ws, M):
    doc = model_to_document(M, "w")
    kind, back, point = document_to_object(doc)
    assert kind == "kripke" and back == M and point == "w"


def test_action_document_round_trip(ws):
    U5 = ws.actions["U5"][0]
    doc = action_to_document(U5, "r")
    kind, back, point = document_to_object(doc, name="U5")
    assert kind == "action" and back == U5 and point == "r"


def test_closure_applied_at_load(ws, M):
    doc = {
        "type": "kripke", "agents": ["a", "b"], "atoms": ["p", "q"],
        "worlds": ["u", "v", "w"],
        "val": {"p": ["u", "w"], "q": ["v", "w"]},
        "epistemic": {
            "a": [["w", "u"], ["w", "v"]],
            "b": [["w", "u"], ["w", "v"]],
        },
        "yesterday": [], "closure": "s5",
    }
    _, back, _ = document_to_object(doc)
    assert back == M


@pytest.mark.parametrize("mode", CLOSURE_MODES)
def test_closure_reads_models_and_actions_alike(mode):
    # the same nodes and drawing, with agent b drawn nowhere: every
    # agent's relation is closed the same way for both kinds of document
    drawing = {"agents": ["a", "b"], "atoms": [], "closure": mode,
               "epistemic": {"a": [["u", "v"], ["v", "w"]]},
               "yesterday": [["u", "w"]]}
    nodes = ["u", "v", "w"]
    _, M, _ = document_to_object(
        {"type": "kripke", "worlds": nodes, "val": {}, **drawing})
    _, U, _ = document_to_object(
        {"type": "action", "events": nodes,
         "pre": dict.fromkeys(nodes, "true"), **drawing})
    assert U.epistemic == M.epistemic
    assert dict(M.epistemic)["b"] == tuple(
        sorted(close_pairs((), nodes, mode)))


def test_unknown_point_rejected():
    doc = {"type": "kripke", "agents": ["a"], "atoms": [],
           "worlds": ["w"], "val": {}, "epistemic": {}, "yesterday": [],
           "point": "x"}
    with pytest.raises(KeyError):
        document_to_object(doc)


def test_workspace_load(tmp_path, ws):
    # one bad file poisons the load with a file-named error
    (tmp_path / "bad.json").write_text('{"type": "nope"}', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.json"):
        Workspace.load_dir(tmp_path)


def test_workspace_signature_consistency(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps({
        "type": "kripke", "agents": ["a"], "atoms": [], "worlds": ["w"],
        "val": {}, "epistemic": {}, "yesterday": []}), encoding="utf-8")
    (tmp_path / "b.json").write_text(json.dumps({
        "type": "kripke", "agents": ["b"], "atoms": [], "worlds": ["w"],
        "val": {}, "epistemic": {}, "yesterday": []}), encoding="utf-8")
    with pytest.raises(ValueError, match="signature"):
        Workspace.load_dir(tmp_path)


def test_workspace_parse_uses_registry(ws):
    f = ws.parse("[U2@s]p")
    assert f.action == ws.actions["U2"][0]


def _reference_dumps(doc):
    """The writer canonical_dumps replaced, kept as the reference."""
    return json.dumps(canonical_document(doc), ensure_ascii=False,
                      indent=2) + "\n"


def _shaped_documents(ws):
    """Documents of the shapes canonical_dumps writes itself: every
    fixture, seeded products and ⊕ results (with ♭ world names), action
    documents with preconditions and a point, a closure key and empty
    relations."""
    docs = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(11)
    for _ in range(12):
        N = rand_restricted(rng, max_worlds=4)
        U = rand_atemporal_action(rng, max_events=3)
        F = rand_forest_action(rng, max_extra=3)
        docs.append(model_to_document(ydel_update(N, U, True),
                                      rng.choice(N.worlds) + "|♭"))
        docs.append(model_to_document(product_update(N, F)))
        docs.append(model_to_document(rand_kripke(rng, max_worlds=5)))
        docs.append(action_to_document(F, F.events[0]))
    for name, (U, point) in sorted(ws.actions.items()):
        docs.append(action_to_document(U, point or U.events[0]))
    docs.append({"type": "kripke", "agents": ["b", "a"], "atoms": [],
                 "worlds": ["w"], "val": {}, "epistemic": {"a": [], "b": []},
                 "yesterday": [], "point": "w", "closure": "s5"})
    docs.append({"type": "kripke", "agents": [], "atoms": ["q", "p"],
                 "worlds": ["x\"y", "é\u0001"], "val": {"p": [], "q": []},
                 "epistemic": {}, "yesterday": [["é\u0001", "x\"y"]]})
    return docs


def test_writer_matches_json_dumps(ws, monkeypatch):
    docs = _shaped_documents(ws)
    want = [_reference_dumps(doc) for doc in docs]
    # every document shape is written without the json.dumps fallback

    def no_fallback(*args, **kwargs):
        raise AssertionError("fallback used on a document shape")

    monkeypatch.setattr(serialize.json, "dumps", no_fallback)
    for doc, text in zip(docs, want):
        assert canonical_dumps(doc) == text


@pytest.mark.parametrize("doc", [
    {"type": "kripke", "agents": ["a"], "worlds": [1, 2]},
    {"type": "kripke", "agents": ["a"], "point": 3},
    {"type": "kripke", "point": None, "closure": True},
    {"type": "kripke", "val": {"p": {"nested": ["w"]}}},
    {"type": "action", "pre": {"e": ["w", ["u", "v"]]}},
    {"type": "action", "pre": {"e": [["u", "v"], "uv"]}},
    {"type": "kripke", "yesterday": [["u", "v", "w"]]},
    {"type": "kripke", "yesterday": [["u", 2]]},
    {"type": "action", "pre": {"e": 1.5}},
    {"type": "action", "pre": {1: "p"}},
    {"type": "action", "epistemic": {"a": [[["u"], "v"]]}},
    {"type": "foo", "agents": ["a"]},
    {"type": "action", "agents": ["a"], "atoms": [], "events": ["e"],
     "pre": {"e": "true"}, "epistemic": {}, "yesterday": [],
     "closure": "bogus"},
    {"type": "kripke"},
    {"agents": ["a"], "worlds": ["w"]},
], ids=["int-worlds", "int-point", "null-and-bool", "nested-dict",
        "mixed-list", "str-among-pairs", "triple", "int-in-pair",
        "float-pre", "int-key", "list-in-pair", "bad-type", "bad-closure",
        "no-agents", "no-type"])
def test_writer_falls_back_outside_the_shapes(doc):
    # a value outside the document shapes is one no workspace can load,
    # so the writer rejects it as document_to_object does; there is no
    # json.dumps fallback.  An unknown closure mode is rejected even
    # where no arrow is drawn (bad-closure), and so is a document without
    # a key the reader needs (no-agents, no-type)
    for read in (canonical_document, canonical_dumps, document_to_object):
        with pytest.raises(ValueError):
            read(doc)


def _saved_frames(ws):
    """Models and actions whose saves are checked byte for byte: ⊕ and
    forest products of the fixture models (names with | and ♭), the ♯ of
    the atemporal fixture action with its ♭ event, and a model without
    atoms whose agent b has no arrows."""
    M, M8 = ws.models["M"][0], ws.models["M8"][0]
    U2, U4, U6, U8 = (ws.actions[n][0] for n in ("U2", "U4", "U6", "U8"))
    bare = KripkeModel(sig=Signature(("a", "b"), ()), worlds=("v", "w"),
                       epistemic={"a": {("w", "v"), ("v", "v")}},
                       yesterday={("v", "w")}, valuation={})
    return [ydel_update(M, U8), ydel_update(M8, U8), product_update(M, U2),
            product_update(M, U4), product_update(M8, U6),
            product_update(ydel_update(M, U8), U4), sharp_action(U8), bare]


def test_save_writes_the_canonical_bytes(ws, tmp_path):
    # save_model and save_action lay their documents out straight from the
    # frame's store, in the bytes canonical_dumps gives the document
    docs, saved = _shaped_documents(ws), 0
    for i, doc in enumerate(docs):
        if not doc["agents"]:
            continue  # a document without agents describes no model
        kind, obj, point = document_to_object(doc, ws.actions_by_name())
        path = tmp_path / f"{i}.json"
        if kind == "kripke":
            save_model(path, obj, point)
            want = canonical_dumps(model_to_document(obj, point))
        else:
            save_action(path, obj, point)
            want = canonical_dumps(action_to_document(obj, point))
        assert path.read_text(encoding="utf-8") == want, i
        saved += 1
    assert saved == len(docs) - 1
    # and each saved frame, with and without a point, reads back equal
    frames = _saved_frames(ws)
    assert any("♭" in n for F in frames for n in F.nodes)
    for i, F in enumerate(frames):
        for point in (None, F.nodes[-1]):
            directory = tmp_path / f"frame{i}-{point is None}"
            directory.mkdir()
            path = directory / "F.json"
            if isinstance(F, KripkeModel):
                save_model(path, F, point)
                want = canonical_dumps(model_to_document(F, point))
                loaded = Workspace.load_dir(directory).models["F"]
            else:
                save_action(path, F, point)
                want = canonical_dumps(action_to_document(F, point))
                loaded = Workspace.load_dir(directory).actions["F"]
            assert path.read_text(encoding="utf-8") == want, (i, point)
            assert loaded == (F, point), (i, point)


def test_savers_reject_a_point_off_the_nodes(ws, tmp_path):
    # the KeyError loading the file would raise, and no file is written
    M, U8 = ws.models["M"][0], ws.actions["U8"][0]
    for save, F, kind in ((save_model, M, "world"), (save_action, U8, "event"),
                          (save_model, ydel_update(M, U8), "world"),
                          (save_action, sharp_action(U8), "event")):
        path = tmp_path / "F.json"
        with pytest.raises(KeyError, match=f"^\"unknown {kind} 'nope'\"$"):
            save(path, F, "nope")
        assert not path.exists()
    with pytest.raises(KeyError):
        model_to_document(M, "nope")
    with pytest.raises(KeyError):
        action_to_document(U8, "w")


# repeated and unsorted pairs, agents, atoms, worlds and keys; ♭ sorts
# after every ASCII letter and is written as itself
_UNSORTED = {
    "closure": "none", "yesterday": [["w|♭", "w|e"], ["u|♭", "u|e"],
                                     ["w|♭", "w|e"]],
    "point": "w|e",
    "epistemic": {"b": [], "a": [["w|e", "u|e"], ["u|e", "w|e"],
                                 ["u|e", "u|e"], ["w|e", "u|e"]]},
    "val": {"q": [], "p": ["w|e", "u|e"]},
    "worlds": ["w|e", "w|♭", "u|♭", "u|e"], "atoms": ["q", "p"],
    "agents": ["b", "a"], "type": "kripke"}

_UNSORTED_FMT = """{
  "type": "kripke",
  "agents": [
    "a",
    "b"
  ],
  "atoms": [
    "p",
    "q"
  ],
  "worlds": [
    "u|e",
    "u|♭",
    "w|e",
    "w|♭"
  ],
  "val": {
    "p": [
      "u|e",
      "w|e"
    ],
    "q": []
  },
  "epistemic": {
    "a": [
      [
        "u|e",
        "u|e"
      ],
      [
        "u|e",
        "w|e"
      ],
      [
        "w|e",
        "u|e"
      ],
      [
        "w|e",
        "u|e"
      ]
    ],
    "b": []
  },
  "yesterday": [
    [
      "u|♭",
      "u|e"
    ],
    [
      "w|♭",
      "w|e"
    ],
    [
      "w|♭",
      "w|e"
    ]
  ],
  "point": "w|e",
  "closure": "none"
}
"""


def test_fmt_sorts_and_keeps_repeated_pairs(tmp_path, capsys):
    assert canonical_dumps(_UNSORTED) == _UNSORTED_FMT
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(_UNSORTED), encoding="utf-8")
    assert main(["fmt", str(path)]) == 0
    assert capsys.readouterr().out == _UNSORTED_FMT


_BASE_DOCUMENTS = [json.loads((FIXTURES / name).read_text(encoding="utf-8"))
                   for name in ("M.json", "U2.json")]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BASE_DOCUMENTS), st.sampled_from(serialize._KEY_ORDER),
       _JSON_VALUES)
def test_values_of_the_wrong_json_type_are_data_errors(ws, base, key, value):
    # any JSON value under any document key, most of them of the wrong
    # type for it: reading or reprinting the document either works or
    # fails with the errors the CLI reports as data errors
    doc = dict(base, **{key: value})
    for read in (lambda: document_to_object(doc, ws.actions_by_name()),
                 lambda: canonical_document(doc)):
        try:
            read()
        except (KeyError, ValueError):
            pass

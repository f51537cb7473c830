"""JSON file format for models and actions, plus the workspace registry.

One JSON document per file.  Canonical form fixes the key order and
sorts every array and the keys of every object, so `fmt` output and the bundled fixtures are stable
byte-for-byte.  The optional "closure" key applies the drawing
convention (relations implicitly closed) at load time; canonical
reprinting happens at the document level, so a fixture keeps its closure
key instead of listing the closed relation.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path

from .action import ActionModel
from .formula import TOP, Formula, Signature, UnknownAction, parse, pretty
from .kripke import CLOSURE_MODES, KripkeModel, close_pairs

_KEY_ORDER = ["type", "agents", "atoms", "worlds", "events", "val", "pre",
              "epistemic", "yesterday", "point", "closure"]


def canonical_document(doc: dict) -> dict:
    """Reorder keys and sort arrays without touching the content.

    ValueError for what `document_to_object` rejects as a missing or
    unknown key, a value of the wrong JSON type, an unknown type or an
    unknown closure mode (see `_check_shapes`), so the documents
    reprinted are those a workspace can read."""
    _check_shapes(doc)
    out = {}
    for key in _KEY_ORDER:
        if key not in doc:
            continue
        value = doc[key]
        if key in ("val", "epistemic"):
            value = {k: sorted(v) for k, v in sorted(value.items())}
        elif key == "pre":
            value = dict(sorted(value.items()))
        elif type(value) is list:  # names, or the yesterday pairs
            value = sorted(value)
        out[key] = value
    return out


def canonical_dumps(doc: dict) -> str:
    """The canonical document as `json.dumps(..., ensure_ascii=False,
    indent=2)` lays it out, plus a newline.  Every value has one of the
    document shapes (str, list of str, list of string pairs, dict of
    those), written here with each string encoded once by the C
    encoder."""
    return _write(canonical_document(doc), 0) + "\n"


# per nesting level: the line break and indent before a value's items,
# and a string pair laid out as an item of a list at that level
_BREAK = ["\n" + "  " * k for k in range(5)]
_PAIR = ["[%s%%s,%s%%s%s]" % (_BREAK[k + 2], _BREAK[k + 2], _BREAK[k + 1])
         for k in range(3)]


def _write(v, level: int) -> str:
    """v, a value of a document that passed `_check_shapes` or that
    `_frame_document` built, laid out at the given nesting level."""
    if type(v) is str:
        return encode_basestring(v)
    if not v:
        return "[]" if type(v) is list else "{}"
    inner, close = _BREAK[level + 1], _BREAK[level]
    if type(v) is dict:
        return "{" + inner + ("," + inner).join(
            [encode_basestring(k) + ": " + _write(x, level + 1)
             for k, x in v.items()]) + close + "}"
    if type(v[0]) is str:
        items = map(encode_basestring, v)
    else:  # string pairs
        pair = _PAIR[level]
        items = [pair % (encode_basestring(x), encode_basestring(y))
                 for x, y in v]
    return "[" + inner + ("," + inner).join(items) + close + "]"


def model_to_document(M: KripkeModel, point: str | None = None) -> dict:
    return _frame_document(M, "kripke", "worlds", "val", {
        p: list(ws) for p, ws in M.valuation}, point)


def action_to_document(U: ActionModel, point: str | None = None) -> dict:
    return _frame_document(U, "action", "events", "pre", {
        e: pretty(p) for e, p in U.pre}, point)


def _frame_document(F, kind: str, nodes: str, key: str, value: dict,
                    point: str | None) -> dict:
    """The document of a model or action, with `value` under `key`."""
    names = F.nodes
    yesterday, *epi = [[[x, names[j]] for x, js in zip(names, succ) for j in js]
                       for succ in F._arrows]
    doc = {"type": kind, "agents": list(F.sig.agents),
           "atoms": list(F.sig.atoms), nodes: list(names), key: value,
           "epistemic": dict(zip(F.sig.agents, epi)), "yesterday": yesterday}
    if point is not None:
        doc["point"] = point
    return doc


def document_to_object(doc: dict, registry: dict | None = None,
                       name: str = "U"):
    """Build the model or action described by doc.

    Returns ("kripke", KripkeModel, point) or ("action", ActionModel,
    point).  A "closure" key other than "none" closes the drawn relation
    of every agent of the signature, listed or not, before the frame is
    built.  Action preconditions are parsed against the given registry.
    ValueError when a key is missing, outside the format or holds a value
    of the wrong JSON type, and ValueError or KeyError when the frame,
    the preconditions' events or the point do not fit together.
    """
    return _read(doc, lambda sig, text: parse(text, sig, registry or {}),
                 name)


def check_document(doc: dict):
    """Raise what `document_to_object` raises on doc, each precondition
    parsed against the document's own signature with no actions.  A
    precondition that names an action, which may be one of another file
    and so is read only in a workspace, stands in as true."""
    _read(doc, _parse_alone, "U")


def _parse_alone(sig: Signature, text: str) -> Formula:
    try:
        return parse(text, sig)
    except UnknownAction:
        return TOP


def _read(doc: dict, read_pre, name: str):
    """`document_to_object`, each precondition read by read_pre(sig,
    text)."""
    _check_shapes(doc)
    kind = doc["type"]
    sig = Signature(tuple(doc["agents"]), tuple(doc.get("atoms", ())))
    nodes = tuple(doc["worlds" if kind == "kripke" else "events"])
    epistemic = doc.get("epistemic", {})
    closure = doc.get("closure", "none")
    if closure != "none":
        # agents outside the signature are kept for the frame to reject
        epistemic = {a: close_pairs(epistemic.get(a, ()), nodes, closure)
                     for a in dict.fromkeys((*sig.agents, *epistemic))}
    frame = sig, nodes, epistemic, doc.get("yesterday", ())
    if kind == "kripke":
        obj = KripkeModel(*frame, doc.get("val", {}))
    else:
        obj = ActionModel(*frame, {e: read_pre(sig, text)
                                   for e, text in doc["pre"].items()}, name)
    point = doc.get("point")
    if point is not None:
        obj._require(point)
    return kind, obj, point


def _strs(v) -> bool:
    return type(v) is list and set(map(type, v)) <= {str}


def _pairs(v) -> bool:
    return (type(v) is list and set(map(type, v)) <= {list}
            and set(map(len, v)) <= {2} and _strs(list(chain(*v))))


def _object(fits):
    return lambda v: (type(v) is dict and _strs(list(v))
                      and all(map(fits, v.values())))


# the values each document key holds, as a test and as their name
_SHAPES = {
    "type": (lambda v: v in ("kripke", "action"), '"kripke" or "action"'),
    "point": (lambda v: type(v) is str, "a string"),
    "closure": (lambda v: v in CLOSURE_MODES,
                "one of " + ", ".join(map(repr, CLOSURE_MODES))),
    **dict.fromkeys(("agents", "atoms", "worlds", "events"),
                    (_strs, "an array of strings")),
    "val": (_object(_strs), "an object of string arrays"),
    "pre": (_object(lambda v: type(v) is str), "an object of strings"),
    "epistemic": (_object(_pairs), "an object of arrays of string pairs"),
    "yesterday": (_pairs, "an array of string pairs"),
}


def _check_shapes(doc):
    """The gate of every reader: ValueError unless doc is a JSON object of
    its type's keys, each holding its shape, with the keys the reader needs."""
    if type(doc) is not dict:
        raise ValueError("a document is a JSON object")
    for key, (fits, what) in _SHAPES.items():
        if key in doc and not fits(doc[key]):
            raise ValueError(f"{key!r} must be {what}")
    # the keys document_to_object reads with doc[...], and those of the
    # other type only
    if doc.get("type") == "kripke":
        needed, other = ("worlds",), {"events", "pre"}
    else:  # an action, or no type and "type" is the key missing
        needed, other = ("events", "pre"), {"worlds", "val"}
    for key in ("type", "agents", *needed):
        if key not in doc:
            raise ValueError(f"a document needs the key {key!r}")
    unknown = doc.keys() - (_SHAPES.keys() - other)
    if unknown:
        raise ValueError(f"unknown keys in document: {sorted(unknown)}")


# model_to_document and action_to_document build canonical documents, so
# saving writes them as they are

def save_model(path, M: KripkeModel, point: str | None = None):
    Path(path).write_text(_write(model_to_document(M, point), 0) + "\n",
                          encoding="utf-8")


def save_action(path, U: ActionModel, point: str | None = None):
    Path(path).write_text(_write(action_to_document(U, point), 0) + "\n",
                          encoding="utf-8")


def error_message(exc: Exception):
    """What to report for exc: a KeyError's bare message, not its repr."""
    return exc.args[0] if type(exc) is KeyError else exc


class Workspace:
    """The models and actions of one directory: name -> (model or action,
    its point or None)."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.models = {}
        self.actions = {}

    @classmethod
    def load_dir(cls, directory) -> "Workspace":
        files = sorted(Path(directory).glob("*.json"))
        if not files:
            raise ValueError(f"no *.json files in {directory}")
        ws: Workspace | None = None
        for f in files:
            name = f.stem
            try:
                doc = json.loads(f.read_text(encoding="utf-8"))
                kind, obj, point = document_to_object(
                    doc, ws.actions_by_name() if ws else {}, name=name)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{f}: {error_message(exc)}") from exc
            if ws is None:
                ws = cls(sig=obj.sig)
            elif obj.sig != ws.sig:
                raise ValueError(f"{f}: signature differs from workspace")
            if kind == "kripke":
                ws.models[name] = (obj, point)
            else:
                ws.actions[name] = (obj, point)
        return ws

    def actions_by_name(self) -> dict[str, ActionModel]:
        return {name: U for name, (U, _) in self.actions.items()}

    def parse(self, text: str) -> Formula:
        return parse(text, self.sig, self.actions_by_name())

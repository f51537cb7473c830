"""JSON file format for models and actions, plus the workspace registry.

One JSON document per file.  Canonical form fixes the key order and
sorts every array and the keys of every object, so `fmt` output and the
bundled fixtures are stable byte-for-byte.  `_layout` writes them all in
one join, each relation from successor positions (a frame's store, or
`fmt`'s sorted pairs).  The optional "closure" key closes the drawn
relations at load time, so a fixture keeps its closure key.
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
    indent=2)` lays it out, plus a newline (see `_layout`)."""
    doc = canonical_document(doc)
    epi = doc.get("epistemic", {})
    names = sorted(set(chain(*chain(doc.get("yesterday", ()), *epi.values()))))
    pos = {n: i for i, n in enumerate(names)}

    def positions(pairs) -> tuple:  # sorted, so the pairs keep their order
        succ = [[] for _ in names]
        for x, y in pairs:
            succ[pos[x]].append(pos[y])
        return tuple(succ)

    if "epistemic" in doc:
        doc["epistemic"] = {a: positions(pairs) for a, pairs in epi.items()}
    if "yesterday" in doc:
        doc["yesterday"] = positions(doc["yesterday"])
    return _layout(doc, names)


_BREAK = ["\n" + "  " * k for k in range(5)]  # a break at each nesting level


def _layout(doc: dict, names) -> str:
    """doc as `json.dumps(doc, ensure_ascii=False, indent=2)` lays it out,
    plus a newline, in one join.  doc is in canonical order, each relation
    as a store holds it: by position x in names, the js of (x, j) pairs."""
    enc = list(map(encode_basestring, names))
    # by a relation's nesting level, each name's head and tail in a pair
    ends = {k: (["[" + _BREAK[k + 2] + e + "," + _BREAK[k + 2] for e in enc],
                [e + _BREAK[k + 1] + "]" for e in enc]) for k in (1, 2)}
    out = []

    def put(v, level: int):
        if type(v) is str:
            return out.append(encode_basestring(v))
        inner, close = _BREAK[level + 1], _BREAK[level]
        if type(v) is dict:
            sep = "{" + inner
            for k, x in v.items():
                out.append(sep + encode_basestring(k) + ": ")
                put(x, level + 1)
                sep = "," + inner
            return out.append(close + "}" if v else "{}")
        if type(v) is tuple:  # a relation: each pair the head of x + tail of j
            heads, tails = ends[level]
            items = [h + tails[j] for h, js in zip(heads, v) for j in js]
        else:
            items = list(map(encode_basestring, v))
        out.extend(("[" + inner, ("," + inner).join(items), close + "]")
                   if items else ("[]",))

    put(doc, 0)
    out.append("\n")
    return "".join(out)


def model_to_document(M: KripkeModel, point: str | None = None) -> dict:
    """The document of a model, or of an action (`action_to_document`)."""
    return _document(M, point, lambda names, succ: [
        [x, names[j]] for x, js in zip(names, succ) for j in js])


def action_to_document(U: ActionModel, point: str | None = None) -> dict:
    return model_to_document(U, point)


def _document(F, point: str | None, relation) -> dict:
    """The document of a model or action, each relation of its store given
    as relation(nodes, successor positions); KeyError, as loading the
    document would raise, for a point off the nodes."""
    if isinstance(F, KripkeModel):
        kind, nodes, key, value = "kripke", "worlds", "val", {
            p: list(ws) for p, ws in F.valuation}
    else:
        kind, nodes, key, value = "action", "events", "pre", {
            e: pretty(p) for e, p in F.pre}
    yesterday, *epi = [relation(F.nodes, succ) for succ in F._arrows]
    doc = {"type": kind, "agents": list(F.sig.agents),
           "atoms": list(F.sig.atoms), nodes: list(F.nodes), key: value,
           "epistemic": dict(zip(F.sig.agents, epi)), "yesterday": yesterday}
    if point is not None:
        F._require(point)
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


def save_model(path, M: KripkeModel, point: str | None = None):
    Path(path).write_text(_layout(_document(M, point, lambda _, s: s),
                                  M.nodes), encoding="utf-8")


def save_action(path, U: ActionModel, point: str | None = None):
    save_model(path, U, point)


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

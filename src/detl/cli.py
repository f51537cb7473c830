"""Command-line front end.

Output is machine-parseable ``KEY: value`` lines.  Exit codes: 0 true /
all-pass, 1 false / fail, 2 not-in-scope, 3 usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import logic, semantics
from .action import (ACTION_PROPERTIES, PointedAction,
                     check_history_preservation, check_past_preservation,
                     check_time_advancing, is_epistemic_past_state,
                     is_lrdetl_action, sharp_action)
from .formula import ParseError, depth_formula, pretty
from .kripke import (KRIPKE_PROPERTIES, KripkeModel, PointedModel,
                     check_property, depth, is_restricted)
from .serialize import (Workspace, canonical_dumps, check_document,
                        error_message, model_to_document, save_action,
                        save_model)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are CliErrors, exit 3 with an ERROR line after the
    usage; argparse would exit 2, which means not-in-scope here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _positive_int(text: str) -> int:
    """An integer of at least 1; argparse names the option on failure."""
    try:
        if (n := int(text)) >= 1:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer of at least 1: {text!r}")


def fixture_dir() -> Path:
    return Path(__file__).with_name("fixtures")


def load_workspace(args) -> Workspace:
    directory = args.workspace or fixture_dir()
    return Workspace.load_dir(directory)


def out(key: str, value):
    print(f"{key}: {value}")


def _named(table: dict, name: str, kind: str):
    """The workspace entry of that name, or a usage error."""
    if name not in table:
        raise CliError(f"unknown {kind} {name!r}")
    return table[name]


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    ws = load_workspace(args)
    M, _ = _named(ws.models, args.model, "model")
    f = ws.parse(args.formula)
    if args.mode == "rdetl":
        verdict = semantics.eval_rdetl(M, args.world, f)
        out("RESULT", verdict.value)
        return {"true": 0, "false": 1, "not-in-scope": 2}[verdict.value]
    if args.mode == "ydel":
        value = semantics.eval_ydel(M, args.world, f,
                                    permissive=args.permissive_ydel)
    else:
        value = semantics.evaluate(M, args.world, f)
    out("RESULT", "true" if value else "false")
    return 0 if value else 1


def cmd_update(args) -> int:
    ws = load_workspace(args)
    M, mpoint = _named(ws.models, args.model, "model")
    U, upoint = _named(ws.actions, args.action, "action")
    if args.mode == "ydel":
        P = semantics.ydel_update(M, U, permissive=args.permissive_ydel)
    else:
        P = semantics.product_update(M, U)
    point = None
    if mpoint and upoint:
        name = semantics.pair_name(mpoint, upoint)
        if name in set(P.worlds):
            point = name
    save_model(args.out, P, point)
    out("WORLDS", len(P.worlds))
    out("WROTE", args.out)
    return 0


def _checks(obj):
    """The checks of a model, an action or a pointed action by property
    name, and the names checked when none are given."""
    if type(obj) is PointedAction:
        checks = {"past_preservation": check_past_preservation,
                  "time_advancing": check_time_advancing}
        return checks, list(checks)
    kripke = type(obj) is KripkeModel
    props = KRIPKE_PROPERTIES if kripke else ACTION_PROPERTIES
    checks = {p: (lambda F, p=p: check_property(F, p)) for p in props}
    if kripke:
        checks["restricted"] = is_restricted
        return checks, list(props)
    checks["history_preservation"] = check_history_preservation
    defaults = list(checks)
    checks["lrdetl"] = is_lrdetl_action
    return checks, defaults


def cmd_check(args) -> int:
    ws = load_workspace(args)
    name, at, event = args.target.partition("@")
    if at:
        obj = PointedAction(_named(ws.actions, name, "action")[0], event)
    else:
        obj = _named({**ws.actions, **ws.models}, name, "model or action")[0]
    checks, defaults = _checks(obj)
    names = [p.replace("-", "_") for p in args.properties] or defaults
    unknown = [p for p in names if p not in checks]
    if unknown:
        raise CliError(f"unknown property {unknown[0]!r} for {args.target!r}")
    reports = [checks[p](obj) for p in names]
    for rep in reports:
        out(rep.property, "PASS" if rep.holds else f"FAIL {rep.witness}")
    return 0 if all(reports) else 1


def cmd_reduce(args) -> int:
    ws = load_workspace(args)
    out("REDUCED", pretty(logic.reduce_formula(ws.parse(args.formula))))
    return 0


def cmd_validity(args) -> int:
    ws = load_workspace(args)
    valid, counter = logic.validity(ws.parse(args.formula),
                                    max_nodes=args.max_tableau_nodes)
    if valid:
        out("VERDICT", "VALID")
        return 0
    out("VERDICT", "INVALID")
    if args.countermodel:
        save_model(args.countermodel, counter.model, counter.point)
        out("COUNTERMODEL", args.countermodel)
    else:
        out("COUNTERMODEL", json.dumps(
            model_to_document(counter.model, counter.point)))
    return 1


def cmd_bisim(args) -> int:
    ws = load_workspace(args)
    (M, _), (N, _) = [_named(ws.models, name, "model")
                        for name in (args.model_a, args.model_b)]
    A, B = PointedModel(M, args.world_a), PointedModel(N, args.world_b)
    wit = logic.bisimilar(A, B)
    if wit is None:
        out("VERDICT", "NOT-BISIMILAR")
        return 1
    out("VERDICT", "BISIMILAR")
    out("RELATION", json.dumps(sorted(map(list, wit.relation))))
    return 0


def cmd_sharp(args) -> int:
    ws = load_workspace(args)
    U, point = _named(ws.actions, args.action, "action")
    S = sharp_action(U)
    save_action(args.out, S, point)
    out("EVENTS", len(S.events))
    out("WROTE", args.out)
    return 0


def cmd_fmt(args) -> int:
    try:
        doc = json.loads(Path(args.file).read_text(encoding="utf-8"))
        text = canonical_dumps(doc)
        check_document(doc)  # what loading rejects, fmt does not reprint
        if args.dot:
            text = _to_dot(doc) + "\n"
    except (KeyError, ValueError) as exc:
        raise CliError(f"{args.file}: {error_message(exc)}") from exc
    sys.stdout.write(text)
    return 0


def _to_dot(doc: dict) -> str:
    kripke = doc["type"] == "kripke"
    lines = ["digraph model {"]
    for n in doc["worlds" if kripke else "events"]:
        if kripke:
            atoms = sorted(p for p, ws in doc.get("val", {}).items() if n in ws)
            label = f"{n}\\n{{{','.join(atoms)}}}"
        else:
            label = f"{n}\\n{doc['pre'][n]}"
        shape = ", peripheries=2" if doc.get("point") == n else ""
        lines.append(f'  "{n}" [label="{label}"{shape}];')
    for agent, pairs in sorted(doc.get("epistemic", {}).items()):
        for x, y in pairs:
            lines.append(f'  "{x}" -> "{y}" [label="{agent}"];')
    for x, y in doc.get("yesterday", []):
        lines.append(f'  "{x}" -> "{y}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# figure demos

# figure: its claims (key, kind, arguments, the value the claim states), in
# the order `demo` prints them.  The first argument names a bundled model or
# action, "M⊗U" a product update, "M⊕U" a ⊕ update, "U♯" a ♯ translation
# and "X@n" the object X pointed at n; `_claim` reads the kinds.
FIGURES = {
    "fig1": [("neither-knows-p", "holds", ("M@w", "~[a]p & ~[b]p"), True),
             ("restricted", "check", ("M", "restricted"), True)],
    "fig2": [("know-but-yesterday-did-not", "holds",
              ("M@w", "[U2@s](([a]p & [b]p) & <Y>(~[a]p & ~[b]p))"), True),
             ("five-worlds", "size", ("M⊗U2", "worlds"), 5),
             ("depth-one", "depth", ("M⊗U2@w|s", 1), True),
             ("time-advancing", "check", ("U2@s", "time_advancing"), True)],
    "fig3": [("bisimilar", "bisimilar", ("M⊗U3@w|t", "M@w"), True),
             ("probe-depth-3", "probe", ("M⊗U3@w|t", "M@w", 3), True),
             ("not-time-advancing", "check", ("U3@t", "time_advancing"),
              False)],
    "fig4": [("seven-worlds", "size", ("M⊗U4", "worlds"), 7),
             ("depth-two", "depth", ("M⊗U4@w|r", 2), True)],
    "fig5": [("two-step-maybe-learned-before", "holds",
              ("M@w", "<U5@r><a>[Y][b](p & q)"), True),
             ("one-step-not", "holds", ("M@w", "[U6@r]<a>[Y][b](p & q)"),
              False),
             ("asynchronous", "check", ("M⊗U5", "synchronicity"), False),
             ("witness-arrow", "arrow", ("M⊗U5", "a", "w|r", "u|s"),
              (True, 2, 1))],
    "fig8": [("atemporal", "size", ("U8", "yesterday"), 0),
             ("restricted", "check", ("M8", "restricted"), True)],
    "fig9": [("five-worlds", "size", ("M8⊕U8", "worlds"), 5),
             ("oplus-equals-sharp-product", "equal", ("M8⊕U8", "M8⊗U8♯"),
              True),
             ("restricted", "check", ("M8⊕U8", "restricted"), True),
             ("flat-layer-bisimilar", "bisimilar", ("M8⊕U8@w|♭", "M8@w"),
              True)],
    "fig10": [("three-events", "size", ("U8♯", "events"), 3),
              ("flat-epistemic-past-state", "past-state", ("U8♯", "♭"), True),
              ("forest-action", "check", ("U8♯", "lrdetl"), True),
              ("histories-length-one", "depth-at-most", ("U8♯", 1), True)],
}


def cmd_demo(args) -> int:
    ws = Workspace.load_dir(fixture_dir())
    results = [(key, _claim(ws, kind, *arguments) == value)
               for key, kind, arguments, value in FIGURES[args.figure]]
    for key, ok in results:
        out(key, "PASS" if ok else "FAIL")
    return 0 if all(ok for _, ok in results) else 1


def _claim(ws: Workspace, kind: str, name: str, *args):
    """What a figure claim of that kind finds on the named object, given
    the claim's further arguments."""
    obj = _demo_object(ws, name)
    if kind == "holds":  # a formula at a pointed model
        return semantics.evaluate(obj.model, obj.point, ws.parse(args[0]))
    if kind == "depth":  # the point's depth is args[0]
        return semantics.evaluate(obj.model, obj.point, depth_formula(args[0]))
    if kind == "depth-at-most":  # every node's depth is at most args[0]
        return all(depth(obj, n) <= args[0] for n in obj.nodes)
    if kind == "size":  # of the nodes or a relation
        return len(getattr(obj, args[0]))
    if kind == "check":  # a property report of `check`
        return _checks(obj)[0][args[0]](obj).holds
    if kind == "past-state":
        return is_epistemic_past_state(obj, args[0])
    if kind == "arrow":  # an agent's arrow x -> y, and the depths of x and y
        agent, x, y = args
        return y in obj.succ(agent, x), depth(obj, x), depth(obj, y)
    other = _demo_object(ws, args[0])
    if kind == "equal":
        return obj == other
    if kind == "bisimilar":
        return logic.bisimilar(obj, other) is not None
    # "probe": the two points agree on the formulas up to depth args[1]
    return semantics.language_equivalence_probe(obj, other, args[1]).agree


def _demo_object(ws: Workspace, name: str):
    """The object a figure claim names (see `FIGURES`)."""
    if "@" in name:
        base, _, point = name.partition("@")
        obj = _demo_object(ws, base)
        pointed = PointedModel if type(obj) is KripkeModel else PointedAction
        return pointed(obj, point)
    for sign, update in (("⊗", semantics.product_update),
                         ("⊕", semantics.ydel_update)):
        if sign in name:
            M, U = name.split(sign)
            return update(_demo_object(ws, M), _demo_object(ws, U))
    if name.endswith("♯"):
        return sharp_action(_demo_object(ws, name[:-1]))
    return (ws.models.get(name) or ws.actions[name])[0]


# ---------------------------------------------------------------------------

# name: (help, handler, arguments), an argument a name or (name, options)
_COMMANDS = {
    "eval": ("evaluate a formula at a world", cmd_eval,
             ["model", "world", "formula"]),
    "update": ("write the updated model", cmd_update,
               ["model", "action", "out"]),
    "check": ("property reports for a model, an action, or a pointed action "
              "Name@event", cmd_check,
              ["target", ("properties", {"nargs": "*"})]),
    "reduce": ("update-free equivalent of a formula", cmd_reduce,
               ["formula"]),
    "validity": ("decide validity over all models", cmd_validity,
                 ["formula", ("--countermodel",
                              {"help": "write the countermodel here"})]),
    "bisim": ("bisimulation between two pointed models", cmd_bisim,
              ["model_a", "world_a", "model_b", "world_b"]),
    "sharp": ("translate an atemporal action", cmd_sharp, ["action", "out"]),
    "demo": ("replay the bundled figure claims", cmd_demo,
             [("figure", {"choices": list(FIGURES)})]),
    "fmt": ("canonical reprint of a model file", cmd_fmt,
            ["file", ("--dot", {"action": "store_true",
                                "help": "DOT export instead"})]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="detl",
        description="Dynamic epistemic temporal logic toolbox")
    ap.add_argument("--workspace", help="directory of *.json model/action "
                    "files (default: bundled figure fixtures)")
    ap.add_argument("--mode", choices=["detl", "ydel", "rdetl"],
                    default="detl", help="semantics used by eval/update")
    ap.add_argument("--max-tableau-nodes", type=_positive_int,
                    default=logic.DEFAULT_NODE_LIMIT,
                    help="tableau nodes validity may expand, at least 1")
    ap.add_argument("--permissive-ydel", action="store_true",
                    help="allow ydel operations on non-restricted models")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in arguments:
            flag, options = (arg, {}) if type(arg) is str else arg
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ParseError, KeyError, ValueError, OSError,
            logic.TableauLimit) as exc:
        print(f"ERROR: {error_message(exc)}", file=sys.stderr)
        return 3
    except RecursionError:
        # still recursing: _ext's box, [Y], update and right-conjunct
        # cases, once per level
        print("ERROR: input nested too deeply", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

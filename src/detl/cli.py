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
from .action import (ACTION_PROPERTIES, PointedAction, action_depth,
                     check_history_preservation, check_past_preservation,
                     check_time_advancing, is_epistemic_past_state,
                     is_lrdetl_action, sharp_action)
from .formula import ParseError, pretty
from .kripke import (KRIPKE_PROPERTIES, PointedModel, check_property, depth,
                     is_restricted)
from .serialize import (Workspace, canonical_dumps, check_document,
                        model_to_document, save_action, save_model)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are CliErrors, exit 3 with an ERROR line after the
    usage; argparse would exit 2, which means not-in-scope here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


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


def _frame_checks(props) -> dict:
    return {p: (lambda F, p=p: check_property(F, p)) for p in props}


def _check_target(ws: Workspace, target: str):
    """The object a `check` target names, its checks by property name and
    the names checked when none are given."""
    if "@" in target:
        name, _, event = target.partition("@")
        U, _ = _named(ws.actions, name, "action")
        checks = {"past_preservation": check_past_preservation,
                  "time_advancing": check_time_advancing}
        return PointedAction(U, event), checks, list(checks)
    if target in ws.models:
        checks = _frame_checks(KRIPKE_PROPERTIES)
        checks["restricted"] = is_restricted
        return ws.models[target][0], checks, list(KRIPKE_PROPERTIES)
    if target in ws.actions:
        checks = _frame_checks(ACTION_PROPERTIES)
        checks["history_preservation"] = check_history_preservation
        defaults = list(checks)
        checks["lrdetl"] = is_lrdetl_action
        return ws.actions[target][0], checks, defaults
    raise CliError(f"unknown model or action {target!r}")


def cmd_check(args) -> int:
    ws = load_workspace(args)
    obj, checks, defaults = _check_target(ws, args.target)
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
    except (KeyError, ValueError) as exc:  # a KeyError's message bare
        msg = exc.args[0] if type(exc) is KeyError else exc
        raise CliError(f"{args.file}: {msg}") from exc
    sys.stdout.write(text)
    return 0


def _to_dot(doc: dict) -> str:
    nodes = doc.get("worlds") or doc.get("events") or []
    val = doc.get("val", {})
    pre = doc.get("pre", {})
    lines = ["digraph model {"]
    for n in nodes:
        if pre:
            label = f"{n}\\n{pre.get(n, 'true')}"
        else:
            atoms = sorted(p for p, ws in val.items() if n in ws)
            label = f"{n}\\n{{{','.join(atoms)}}}"
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

def cmd_demo(args) -> int:
    ws = Workspace.load_dir(fixture_dir())
    claims = _demo_claims(ws, args.figure)
    for key, value in claims:
        out(key, "PASS" if value else "FAIL")
    return 0 if all(value for _, value in claims) else 1


def _demo_claims(ws: Workspace, figure: str):
    M, _ = ws.models["M"]
    ev = semantics.evaluate
    if figure == "fig1":
        return [
            ("neither-knows-p", ev(M, "w", ws.parse("~[a]p & ~[b]p"))),
            ("restricted", is_restricted(M).holds),
        ]
    if figure == "fig2":
        P = semantics.product_update(M, ws.actions["U2"][0])
        return [
            ("know-but-yesterday-did-not",
             ev(M, "w", ws.parse("[U2@s](([a]p & [b]p) & <Y>(~[a]p & ~[b]p))"))),
            ("five-worlds", len(P.worlds) == 5),
            ("depth-one", depth(P, "w|s") == 1),
            ("time-advancing",
             check_time_advancing(PointedAction(ws.actions["U2"][0], "s")).holds),
        ]
    if figure == "fig3":
        P = semantics.product_update(M, ws.actions["U3"][0])
        A, B = PointedModel(P, "w|t"), PointedModel(M, "w")
        return [
            ("bisimilar", logic.bisimilar(A, B) is not None),
            ("probe-depth-3",
             semantics.language_equivalence_probe(A, B, max_depth=3).agree),
            ("not-time-advancing",
             not check_time_advancing(
                 PointedAction(ws.actions["U3"][0], "t")).holds),
        ]
    if figure == "fig4":
        P = semantics.product_update(M, ws.actions["U4"][0])
        return [
            ("seven-worlds", len(P.worlds) == 7),
            ("depth-two", depth(P, "w|r") == 2),
        ]
    if figure == "fig5":
        P5 = semantics.product_update(M, ws.actions["U5"][0])
        P6 = semantics.product_update(M, ws.actions["U6"][0])
        f = ws.parse("<a>[Y][b](p & q)")
        sync = check_property(P5, "synchronicity")
        d = lambda w: depth(P5, w)
        return [
            ("two-step-maybe-learned-before", ev(P5, "w|r", f)),
            ("one-step-not", not ev(P6, "w|r", f)),
            ("asynchronous", not sync.holds),
            ("witness-arrow",
             ("w|r", "u|s") in P5.epi["a"] and d("w|r") == 2 and d("u|s") == 1),
        ]
    if figure == "fig8":
        M8, _ = ws.models["M8"]
        U8, _ = ws.actions["U8"]
        return [
            ("atemporal", not U8.yesterday),
            ("restricted", is_restricted(M8).holds),
        ]
    if figure == "fig9":
        M8, _ = ws.models["M8"]
        U8, _ = ws.actions["U8"]
        Y = semantics.ydel_update(M8, U8)
        S = semantics.product_update(M8, sharp_action(U8))
        flat = logic.bisimilar(PointedModel(Y, "w|♭"), PointedModel(M8, "w"))
        return [
            ("five-worlds", len(Y.worlds) == 5),
            ("oplus-equals-sharp-product", Y == S),
            ("restricted", is_restricted(Y).holds),
            ("flat-layer-bisimilar", flat is not None),
        ]
    if figure == "fig10":
        U8, _ = ws.actions["U8"]
        S = sharp_action(U8)
        return [
            ("three-events", len(S.events) == 3),
            ("flat-epistemic-past-state", is_epistemic_past_state(S, "♭")),
            ("forest-action", is_lrdetl_action(S).holds),
            ("histories-length-one",
             all(action_depth(S, e) <= 1 for e in S.events)),
        ]
    raise CliError(f"unknown figure {figure!r}")


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
             [("figure", {"choices": ["fig1", "fig2", "fig3", "fig4", "fig5",
                                      "fig8", "fig9", "fig10"]})]),
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
    ap.add_argument("--max-tableau-nodes", type=int,
                    default=logic.DEFAULT_NODE_LIMIT)
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
        msg = exc.args[0] if type(exc) is KeyError else exc  # not its repr
        print(f"ERROR: {msg}", file=sys.stderr)
        return 3
    except RecursionError:
        # still recursing: _ext's box, [Y], update and right-conjunct
        # cases, once per level
        print("ERROR: input nested too deeply", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

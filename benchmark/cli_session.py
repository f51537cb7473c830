"""cli-session: a scripted sequence of `detl` subcommands, each in a
process of its own, over an on-disk workspace.

The only workload that pays interpreter start-up, import, workspace
load and the s5 closure fixpoint on every command, with cold caches.
The workspace holds a restricted model drawn minimally (one chain of
pairs per block, "closure": "s5"), an isomorphic copy under other world
names, an atemporal and a forest action.  Every session runs the same
commands, one child at a time; one of them, `eval` on `p` under an even
number of negations nested deeper than the recursion limit, fails on
every run today and is counted as failed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

import gen
import oracle
from harness import now

NAME = "cli-session"

MODEL_ROOTS = 8           # 8 trees of 1 + 2 + 1 worlds: 32 worlds
MODEL_SHAPE = (2, 1)
MODEL_BLOCK = 4
DEEP_NEGATIONS = 3000     # well past the default recursion limit of 1000
DEEP_FORMULA = "~" * DEEP_NEGATIONS + "p"
CHILD_TIMEOUT_S = 60
KEY_VALUE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*: \S.*\Z")
SUBCOMMANDS = ("eval", "update", "check", "reduce", "validity", "bisim",
               "sharp", "demo", "fmt")


def renamed(model, prefix):
    """The same model with world w<i> called <prefix><i>."""
    ren = {w: prefix + w[1:] for w in model["worlds"]}
    return {
        "worlds": [ren[w] for w in model["worlds"]],
        "val": {p: {ren[w] for w in ws} for p, ws in model["val"].items()},
        "blocks": {a: [[ren[w] for w in b] for b in bl]
                   for a, bl in model["blocks"].items()},
        "yesterday": {(ren[x], ren[y]) for x, y in model["yesterday"]},
        "depth": {ren[w]: d for w, d in model["depth"].items()},
    }


def sharp(action):
    """The ♯ of an atemporal action dict: a ♭ past state below every
    event, with true precondition and only a self-loop."""
    out = dict(action, name=action["name"] + "_sharp",
               events=list(action["events"]) + ["♭"],
               pre=dict(action["pre"], **{"♭": []}),
               yesterday={("♭", e) for e in action["events"]})
    out["epistemic"] = {a: set(ps) | {("♭", "♭")}
                        for a, ps in action["epistemic"].items()}
    return out


def sharp_formula(f, names):
    if f[0] == "upd":
        return ("upd", names[f[1]], f[2], sharp_formula(f[3], names))
    return tuple(sharp_formula(x, names) if isinstance(x, tuple) else x
                 for x in f)


def canonical_bytes(doc):
    """The file format's canonical form, written from its description:
    fixed key order, every array sorted, two-space indent."""
    order = ["type", "agents", "atoms", "worlds", "events", "val", "pre",
             "epistemic", "yesterday", "point", "closure"]
    out = {}
    for key in order:
        if key not in doc:
            continue
        v = doc[key]
        if key in ("agents", "atoms", "worlds", "events"):
            v = sorted(v)
        elif key == "val":
            v = {k: sorted(ws) for k, ws in sorted(v.items())}
        elif key == "epistemic":
            v = {k: sorted(list(p) for p in ps) for k, ps in sorted(v.items())}
        elif key == "yesterday":
            v = sorted(list(p) for p in v)
        out[key] = v
    return (json.dumps(out, ensure_ascii=False, indent=2) + "\n").encode()


def make_inputs(seed, ctx):
    rng = gen.new_rng(seed, NAME)
    model = gen.restricted_model(rng, MODEL_ROOTS, MODEL_SHAPE, MODEL_BLOCK)
    copy = renamed(model, "v")
    A = gen.atemporal_action(rng, "A")
    A["pre"] = {"e0": [], "e1": [(rng.choice(gen.ATOMS), True)]}
    F = gen.forest_action(rng, "F", shape=(1, 1))
    worlds = model["worlds"]
    w = rng.choice(worlds)
    p_world = rng.choice(sorted(model["val"]["p"]))
    queries = {
        "detl": gen.update_chain(rng, [A, F], 1, gen.random_formula(rng, 3)),
        "ydel": gen.update_chain(rng, [A], 1, gen.random_formula(rng, 3)),
        "rdetl": gen.update_chain(rng, [F], 1, gen.random_formula(rng, 3)),
    }
    e = rng.choice(A["events"])
    valid = gen.iff(("upd", "A", e, ("box", "a", gen.atom("q"))),
                    gen.implies(gen.pre_formula(A["pre"][e]), gen.conj(*[
                        ("box", "a", ("upd", "A", e2, gen.atom("q")))
                        for e2 in sorted(y for x, y in A["epistemic"]["a"]
                                         if x == e)])))
    invalid = gen.implies(("box", "b", ("upd", "F", "e0", gen.atom("p"))),
                          gen.atom("q"))
    inputs = {
        "model": model, "copy": copy, "A": A, "F": F, "world": w,
        "p_world": p_world, "queries": queries, "valid": valid,
        "invalid": invalid,
        "reduce": ("upd", "A", "e1", ("box", "b", gen.atom("p"))),
        "files": {
            "W.json": gen.model_document(model, point=w),
            "W2.json": gen.model_document(copy),
            "A.json": dict(gen.action_document(A, point="e1"),
                           closure="s5"),
            "F.json": dict(gen.action_document(F, point="e1"),
                           closure="s5"),
        },
    }
    inputs["expect"] = expectations(inputs)
    write_workspace(inputs, ctx.work / "ws")
    return inputs


def expectations(inputs):
    """The oracle's answers to the session's commands, computed before
    the timed set-up: the eval results by mode and the world counts of
    the two updates."""
    view = oracle.plain_model(inputs["model"])
    acts = {"A": inputs["A"], "F": inputs["F"]}
    sharp_acts = dict(acts, A_sharp=sharp(inputs["A"]))
    w = inputs["world"]
    truth = {}
    for mode, f in inputs["queries"].items():
        if mode == "ydel":
            truth[mode] = oracle.evaluate(
                view, w, sharp_formula(f, {"A": "A_sharp"}), sharp_acts)
        else:
            truth[mode] = oracle.evaluate(view, w, f, acts)
    return {"view": view, "eval": truth,
            "ydel_worlds": oracle.product_world_count(view, inputs["A"],
                                                      oplus=True),
            "product_worlds": oracle.product_world_count(view, inputs["F"])}


def script(detl, inputs, out_dir):
    """[(subcommand, argv, check)]; check(code, stdout) -> problem or
    None.  `out_dir` receives the files the commands write.  The
    expected answers come from make_inputs, so this only assembles."""
    expect = inputs["expect"]
    view = expect["view"]
    acts = {"A": inputs["A"], "F": inputs["F"]}
    w = inputs["world"]

    def result(expected_true):
        want = "true" if expected_true else "false"
        return lambda code, lines: None if (
            lines == [f"RESULT: {want}"] and code == (0 if expected_true else 1)
        ) else f"expected RESULT: {want}"

    def worlds(n):
        return lambda code, lines: None if (
            code == 0 and lines and lines[0] == f"WORLDS: {n}"
        ) else f"expected WORLDS: {n}"

    def all_pass(code, lines):
        if code == 0 and lines and all(ln.endswith(": PASS") for ln in lines):
            return None
        return "expected only PASS lines"

    def reduced(code, lines):
        return check_reduced(detl, code, lines, inputs, view, acts)

    def counter(code, lines):
        return check_countermodel(code, lines, inputs, acts)

    def bisim(code, lines):
        return check_bisim(code, lines, inputs)

    cmds = []
    for mode, f in inputs["queries"].items():
        cmds.append(("eval", ["--mode", mode, "eval", "W", w, gen.render(f)],
                     result(expect["eval"][mode])))
    cmds += [
        ("update", ["--mode", "ydel", "update", "W", "A",
                    str(out_dir / "Y.json")],
         worlds(expect["ydel_worlds"])),
        ("update", ["update", "W", "F", str(out_dir / "P.json")],
         worlds(expect["product_worlds"])),
        ("check", ["check", "W"], all_pass),
        ("check", ["check", "F", "lrdetl"], all_pass),
        ("reduce", ["reduce", gen.render(inputs["reduce"])], reduced),
        ("validity", ["validity", gen.render(inputs["valid"])],
         lambda code, lines: None if (code == 0 and lines == ["VERDICT: VALID"])
         else "expected VERDICT: VALID"),
        ("validity", ["validity", gen.render(inputs["invalid"])], counter),
        ("bisim", ["bisim", "W", w, "W2", "v" + w[1:]], bisim),
        ("sharp", ["sharp", "A", str(out_dir / "S.json")],
         lambda code, lines: None if (
             code == 0 and lines[:1] == [f"EVENTS: {len(inputs['A']['events']) + 1}"])
         else "expected EVENTS: 3"),
        ("demo", ["demo", "fig2"], all_pass),
        ("demo", ["demo", "fig9"], all_pass),
        ("fmt", ["fmt", "W.json"], None),
        ("eval", ["eval", "W", inputs["p_world"], DEEP_FORMULA],
         result(True)),
    ]
    return cmds


def judge(sub, args, check, code, stdout, stderr, fmt_doc):
    """("ok" | "failed" | "wrong", problem) for one child's output.
    Only the known failure counts as failed: the deep-negation eval
    ending in a RecursionError with nothing on stdout.  Every other
    wrong answer, crash or empty output is a wrong one."""
    lines = stdout.splitlines()
    if sub == "fmt":
        problem = None if (code == 0 and stdout.encode() ==
                           canonical_bytes(fmt_doc)) \
            else "fmt bytes differ from the canonical form"
    elif not all(KEY_VALUE.match(ln) for ln in lines):
        problem = f"stdout has a line that is not KEY: value: {lines[:2]}"
    else:
        problem = check(code, lines)
    if problem is None:
        return "ok", None
    if args[-1] == DEEP_FORMULA and not stdout and \
            "RecursionError" in stderr:
        return "failed", problem
    return "wrong", problem


def check_reduced(detl, code, lines, inputs, view, acts):
    """The printed reduction must be update-free (it parses with no
    actions known) and true at exactly the worlds where the original
    holds."""
    if code != 0 or len(lines) != 1 or not lines[0].startswith("REDUCED: "):
        return "expected one REDUCED line"
    sig = detl.Signature(gen.AGENTS, gen.ATOMS)
    try:
        g = oracle.from_program(detl.parse(lines[0][len("REDUCED: "):], sig))
    except ValueError as exc:
        return f"reduction does not parse update-free: {exc}"
    mine = {w for w in view.worlds
            if oracle.evaluate(view, w, inputs["reduce"], acts)}
    return None if oracle.truth_set(view, g) == mine else \
        "reduction true at other worlds than the formula"


def check_countermodel(code, lines, inputs, acts):
    if code != 1 or lines[:1] != ["VERDICT: INVALID"] or len(lines) != 2:
        return "expected VERDICT: INVALID and a countermodel"
    doc = json.loads(lines[1].partition(": ")[2])
    M = oracle.PlainModel(doc["worlds"],
                          {p: doc["val"].get(p, []) for p in gen.ATOMS},
                          {a: map(tuple, doc["epistemic"].get(a, []))
                           for a in gen.AGENTS},
                          map(tuple, doc["yesterday"]))
    if oracle.evaluate(M, doc["point"], inputs["invalid"], acts):
        return "countermodel satisfies the formula"
    return None


def check_bisim(code, lines, inputs):
    if code != 0 or lines[:1] != ["VERDICT: BISIMILAR"] or len(lines) != 2:
        return "expected VERDICT: BISIMILAR and a relation"
    rel = [tuple(p) for p in json.loads(lines[1].partition(": ")[2])]
    w = inputs["world"]
    errs = oracle.bisimulation_errors(
        oracle.plain_model(inputs["model"]), w,
        oracle.plain_model(inputs["copy"]), "v" + w[1:], rel)
    return f"relation fails: {errs[:3]}" if errs else None


def write_workspace(inputs, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in inputs["files"].items():
        (directory / name).write_text(json.dumps(doc, ensure_ascii=False),
                                      encoding="utf-8")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv, cwd, env):
    """One child at a time; returns (seconds, exit code, stdout, stderr)."""
    t0 = now()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return now() - t0, proc.returncode, proc.stdout, proc.stderr


@dataclass
class State:
    detl: object
    inputs: dict
    work: object
    env: dict
    cmds: list
    errors: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)


def detl_argv(work, args):
    return [sys.executable, "-m", "detl.cli", "--workspace", str(work / "ws")] + args


def build(detl, inputs, tr, ctx):
    """Set-up: the program's own load of the workspace, in process, and
    one warm-up child."""
    work = ctx.work
    ws = tr.call("serialize.load_dir", detl.Workspace.load_dir, work / "ws")
    if set(ws.models) != {"W", "W2"} or set(ws.actions) != {"A", "F"}:
        raise RuntimeError("workspace did not load")
    env = child_env(ctx.src)
    _, code, _, _ = run_child(detl_argv(work, ["check", "W", "restricted"]),
                           work / "ws", env)
    if code != 0:
        raise RuntimeError("warm-up child failed")
    return State(detl, inputs, work, env, script(detl, inputs, work / "out"))


def verify(state, inputs):
    return state.errors


def one_pass(state, run, tr, op_base):
    work = state.work
    (work / "out").mkdir(parents=True, exist_ok=True)
    lat = []
    failed = 0
    if tr.enabled:
        probe_layers(state, tr)
    for i, (sub, args, check) in enumerate(state.cmds):
        tr.op(op_base + i)
        with tr.span(f"cli.{sub}"):
            secs, code, stdout, stderr = run_child(
                detl_argv(work, args), work / "ws", state.env)
        run.reference(secs)
        verdict, problem = judge(sub, args, check, code, stdout, stderr,
                                 state.inputs["files"]["W.json"])
        if verdict == "ok":
            lat.append(secs)
            continue
        what = f"{sub} {' '.join(args)[:60]}: {problem} (exit {code})"
        if verdict == "failed":
            failed += 1
            last = stderr.strip().splitlines()[-1:] or [""]
            key = f"{what}: {last[0][:100]}"
            state.failures[key] = state.failures.get(key, 0) + 1
        else:
            state.errors.append(what)
    tr.op(None)
    run.record(lat, failed)


def probe_layers(state, tr):
    """Traced runs only: the layers a child pays for, measured here."""
    detl, work = state.detl, state.work
    with tr.span("cli.start"):
        run_child([sys.executable, "-c", "pass"], work, state.env)
    with tr.span("cli.import"):
        run_child([sys.executable, "-c", "import detl.cli"], work, state.env)
    tr.call("serialize.load_dir", detl.Workspace.load_dir, work / "ws")
    drawn = dict(state.inputs["files"]["W.json"])
    del drawn["closure"]
    _, M, _ = detl.document_to_object(drawn)
    tr.call("kripke.closure", detl.relation_closure, M, "s5")
    ws = detl.Workspace.load_dir(work / "ws")
    for sub, args, _ in state.cmds:
        if sub == "eval" and args[-1] != DEEP_FORMULA:
            tr.call("formula.parse", ws.parse, args[-1])

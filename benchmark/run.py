#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload model-check --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from a fresh
copy of `src/` without any `__pycache__`, and no bytecode is written,
so every import of `detl`, in process and in children, compiles it from
source whatever the checkout held before.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics (from spans around the
benchmark's own calls into each layer) with `--trace 1`.  A result
file and, for traced runs, the spans go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import types
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import cli_session  # noqa: E402
import harness  # noqa: E402
import model_check  # noqa: E402
import update_chain  # noqa: E402
import validity  # noqa: E402

WORKLOADS = {m.NAME: m for m in
             (model_check, update_chain, validity, cli_session)}
SETUP_REPS = 7
# peak RSS is read after set-up and this many passes: a fixed amount of
# work, since the program's unbounded caches grow with every pass and
# the figure would otherwise follow how many passes the machine fits in
RSS_PASSES = 3


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, function of the tracer)

# Times are raw medians; per_layer() applies the run's normalisation.
def _ms(span):
    return lambda tr: _med([1e3 * d for d in tr.durations(span)])


def _us(span):
    return lambda tr: _med([1e6 * d for d in tr.durations(span)])


def _count(key, *spans):
    return lambda tr: _med([c for s in spans for c in tr.counts(s, key)])




def _med(xs):
    return harness.median(xs) if xs else None


def _tableau_ms(tr):
    """Per operation: validity time minus its reduction's time."""
    red = {s["op"]: s for s in tr.spans if s["name"] == "logic.reduce"}
    out = []
    for s in tr.spans:
        if s["name"] == "logic.validity" and s["op"] in red:
            r = red[s["op"]]
            out.append(1e3 * ((s["end"] - s["start"])
                              - (r["end"] - r["start"])))
    return _med(out)


def _import_ms(tr):
    start, imp = _ms("cli.start")(tr), _ms("cli.import")(tr)
    return None if start is None or imp is None else imp - start


UPDATES = ("semantics.product_update", "semantics.ydel_update")
PER_LAYER = {
    "formula.parse_us": ("us", _us("formula.parse")),
    "kripke.model_hash_us": ("us", _us("kripke.model_hash")),
    "semantics.evaluate_ms": ("ms", _ms("semantics.evaluate")),
    "semantics.eval_ydel_ms": ("ms", _ms("semantics.eval_ydel")),
    "semantics.eval_rdetl_ms": ("ms", _ms("semantics.eval_rdetl")),
    "kripke.is_restricted_ms": ("ms", _ms("kripke.is_restricted")),
    "semantics.product_update_ms": ("ms", _ms("semantics.product_update")),
    "semantics.ydel_update_ms": ("ms", _ms("semantics.ydel_update")),
    "semantics.worlds_in": ("count", _count("worlds_in", *UPDATES)),
    "semantics.worlds_out": ("count", _count("worlds_out", *UPDATES)),
    "kripke.check_property_ms": ("ms", _ms("kripke.check_property")),
    "kripke.depth_ms": ("ms", _ms("kripke.depth")),
    "action.history_preservation_ms":
        ("ms", _ms("action.history_preservation")),
    "logic.bisimilar_ms": ("ms", _ms("logic.bisimilar")),
    "serialize.save_ms": ("ms", _ms("serialize.save")),
    "serialize.load_dir_ms": ("ms", _ms("serialize.load_dir")),
    "serialize.bytes_written":
        ("count", _count("bytes_written", "serialize.save")),
    "logic.reduce_ms": ("ms", _ms("logic.reduce")),
    "logic.tableau_ms": ("ms", _tableau_ms),
    "logic.validity_ms": ("ms", _ms("logic.validity")),
    "logic.reduce_tree_nodes": ("count", _count("tree_nodes", "logic.reduce")),
    "logic.reduce_dag_nodes": ("count", _count("dag_nodes", "logic.reduce")),
    "kripke.closure_ms": ("ms", _ms("kripke.closure")),
    "cli.start_ms": ("ms", _ms("cli.start")),
    "cli.import_ms": ("ms", _import_ms),
    **{f"cli.{sub}_ms": ("ms", _ms(f"cli.{sub}"))
       for sub in cli_session.SUBCOMMANDS},
}


# ---------------------------------------------------------------------------

def run_workload(module, seed, seconds, tr, ctx, setup_reps):
    """Inputs, timed set-ups, verification and timed passes of one
    workload; returns (state, run)."""
    ctx.work.mkdir(parents=True, exist_ok=True)
    inputs = module.make_inputs(seed, ctx)
    run = harness.Run()
    state = harness.timed_setups(
        setup_reps, lambda detl: module.build(detl, inputs, tr, ctx), run)
    start = harness.now()
    while len(run.pass_times) < RSS_PASSES or harness.now() - start < seconds:
        module.one_pass(state, run, tr, run.attempted)
        if len(run.pass_times) == RSS_PASSES:
            run.peak_rss_mb = harness.peak_rss_mb(
                children=module is cli_session)
    # last, so the checker's own memory stays out of the peak above
    module.verify(state, inputs)
    return state, run


def layer_metrics(tr, factor, keys):
    out = {}
    for key in keys:
        unit, fn = PER_LAYER[key]
        value = fn(tr)
        if value is not None:
            out[key] = (value if unit == "count" else value * factor, unit)
    return out


def per_layer(name, seed, ctx, run, tr):
    """Every per-layer metric, and the errors the extra runs found.  The
    workload's own traced run gives what it touches; a short traced run
    of each other workload fills in the layers it does not, so every
    traced run reports the full set."""
    metrics = layer_metrics(tr, run.factor(), PER_LAYER)
    errors = []
    for other in WORKLOADS.values():
        missing = [k for k in PER_LAYER if k not in metrics]
        if not missing or other.NAME == name:
            continue
        sub = harness.Tracer()
        octx = types.SimpleNamespace(work=ctx.work / other.NAME, src=ctx.src)
        ostate, orun = run_workload(other, seed, 0, sub, octx, 1)
        metrics.update(layer_metrics(sub, orun.factor(), missing))
        errors += [f"{other.NAME}: {e}" for e in ostate.errors]
    t = run.tail_ms()
    top = 1e3 * max(run.latencies)
    metrics["latency_tail_ms"] = (t[1] if t else top, "ms")
    return metrics, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "detl" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}/detl",
              file=sys.stderr)
        return 2
    module = WORKLOADS[args.workload]
    tr = harness.Tracer() if args.trace else harness.NullTracer()
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    ctx = types.SimpleNamespace(work=work, src=work / "src")
    wall = time.time()
    probe_errors = []
    try:
        shutil.copytree(SRC, ctx.src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.pyc"))
        sys.path.insert(0, str(ctx.src))
        state, run = run_workload(
            module, args.seed, args.seconds, tr, ctx, SETUP_REPS)
        if args.trace:
            metrics, probe_errors = per_layer(args.workload, args.seed, ctx,
                                              run, tr)
        else:
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    errors = state.errors + probe_errors
    for e in errors[:10]:
        print(f"error: {e}", file=sys.stderr)
    for what, n in getattr(state, "failures", {}).items():
        print(f"failed {n}x: {what}", file=sys.stderr)

    tail = run.tail_ms()
    med = harness.median
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.time() - wall,
        "passes": len(run.pass_times), "ops": len(run.latencies),
        "setup_s": run.setups,
        "raw_latency_p50_ms": 1e3 * med(run.raw_latencies),
        "raw_pass_ms_median": 1e3 * med(
            [t / f for t, f in zip(run.pass_times, run.factors)]),
        "slice_us_median": 1e6 * harness.NOMINAL_SLICE_S / med(run.factors),
        "factors": run.factors,
        "pass_times": run.pass_times,
        "latency_tail": None if tail is None else
        {"percentile": tail[0], "ms": tail[1], "samples": tail[2]},
        "errors": errors[:20],
        "workload_info": getattr(state, "info", {}),
    }
    if tail:
        print(f"latency_tail_ms: p{tail[0]:.2f} = {tail[1]:.4f} ms "
              f"over {tail[2]} samples")
    print(f"passes: {info['passes']}, operations: {info['ops']}, "
          f"median normalisation factor {med(run.factors):.4f}")
    result = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(dict(info, result=result), indent=1) + "\n")
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{stem}.json").write_text(json.dumps(tr.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

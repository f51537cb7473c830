"""update-chain: seeded chains of ⊕, product and ⊕ updates.

Each chain starts from a fresh restricted model of 24 worlds and takes
three steps: a ⊕ update by an atemporal action, a product update by a
history-preserving forest action, and a second ⊕ update, which end at
60, 108 and 294 worlds.  Each step is one operation: the update (and,
for ⊕, the ♯-product it must equal), all seven frame properties and
`is_restricted`, the depth of every world, `bisimilar` between the
copy layer of the result and the model before, and a save and reload
through `Workspace.load_dir`.

The literals the actions test are drawn so that every chain has the
same sizes: the model has each p/q quadrant on exactly a quarter of its
trees, and the choice of atom and sign only permutes that symmetry.  So
every pass does the same amount of work, and the median falls on the
middle step.  Every pass draws fresh inputs, so the update caches
never hit.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
from harness import now
from model_check import build_action, build_model

NAME = "update-chain"

START_ROOTS = 12          # 12 trees of 1 + 1 worlds: 24 worlds
START_SHAPE = (1,)
CHAINS_PER_PASS = 2
STEP_WORLDS = (60, 108, 294)
FLAT = "♭"


def draw_chain(rng):
    """One chain's inputs as plain data."""
    model = gen.restricted_model(rng, START_ROOTS, START_SHAPE, block=2)
    x, y = rng.sample(gen.ATOMS, 2)
    lx, ly = (x, rng.random() < 0.5), (y, rng.random() < 0.5)
    first = gen.atemporal_action(rng, "A")
    first["pre"] = {"e0": [], "e1": [lx]}
    forest = gen.forest_action(rng, "F", shape=(1, 1))
    forest["pre"] = {"r": [], "e0": [ly], "e1": [ly, lx]}
    second = gen.atemporal_action(rng, "B")
    second["pre"] = {"e0": [], "e1": [ly]}
    return {"model": model, "steps": [first, forest, second],
            "point": rng.choice(model["worlds"])}


def make_inputs(seed, ctx):
    """The warm-up chains, drawn from a stream of their own, and the
    directories their steps save to."""
    rng = gen.new_rng(seed, NAME + ":warm-up")
    chains = [draw_chain(rng) for _ in range(CHAINS_PER_PASS)]
    dirs = [[ctx.work / "warm-up" / f"chain{c}-step{k}" for k in range(3)]
            for c in range(len(chains))]
    for d in (d for row in dirs for d in row):
        d.mkdir(parents=True, exist_ok=True)
    return {"seed": seed, "warm_up": chains, "warm_up_dirs": dirs}


@dataclass
class State:
    detl: object
    rng: object
    work: Path
    errors: list = field(default_factory=list)
    chains: int = 0
    warm_up: list = field(default_factory=list)  # results, checked in verify


def build(detl, inputs, tr, ctx):
    """Set-up: the warm-up chains' models and actions through the
    library and their steps; the timed passes draw fresh chains.  Only
    the program's calls run here, the checks run in verify."""
    state = State(detl, gen.new_rng(inputs["seed"], NAME), ctx.work)
    for chain, dirs in zip(inputs["warm_up"], inputs["warm_up_dirs"]):
        M, actions = build_chain(detl, chain)
        point = chain["point"]
        for k, U in enumerate(actions):
            P, out = step(detl, M, U, k != 1, point, tr, dirs[k])
            state.warm_up.append((M, point, P, out))
            M, point = P, next_point(point, k)
    return state


def verify(state, inputs):
    """Check the warm-up chains' results; the timed ones are checked
    after each step."""
    results = iter(state.warm_up)
    for c, (chain, dirs) in enumerate(zip(inputs["warm_up"],
                                          inputs["warm_up_dirs"])):
        for k, action in enumerate(chain["steps"]):
            M, point, P, out = next(results)
            state.errors.extend(
                f"warm-up chain {c} step {k}: {b}"
                for b in problems(state.detl, k, M, action, point, P, out,
                                  dirs[k]))
    return state.errors


def build_chain(detl, chain):
    M = build_model(detl, chain["model"])
    return M, [build_action(detl, M.sig, a) for a in chain["steps"]]


def next_point(point, k):
    """The point's copy after step k: the e0 copy after ⊕, r after the
    forest product."""
    return f"{point}|{'e0' if k != 1 else 'r'}"


def step(detl, M, U, oplus, point, tr, directory):
    """One timed operation; returns what the checks need."""
    out = {}
    if oplus:
        with tr.span("semantics.ydel_update", worlds_in=len(M.worlds)) as c:
            P = detl.ydel_update(M, U)
            c["worlds_out"] = len(P.worlds)
        with tr.span("semantics.product_update", worlds_in=len(M.worlds)) as c:
            out["sharp"] = detl.product_update(M, detl.sharp_action(U))
            c["worlds_out"] = len(out["sharp"].worlds)
        copy = FLAT
    else:
        out["history"] = tr.call("action.history_preservation",
                                 detl.check_history_preservation, U)
        with tr.span("semantics.product_update", worlds_in=len(M.worlds)) as c:
            P = detl.product_update(M, U)
            c["worlds_out"] = len(P.worlds)
        copy = "r"
    out["props"] = {prop: tr.call("kripke.check_property",
                                  detl.check_property, P, prop)
                    for prop in detl.KRIPKE_PROPERTIES}
    out["restricted"] = tr.call("kripke.is_restricted", detl.is_restricted, P)
    with tr.span("kripke.depth"):
        out["depths"] = {w: detl.depth(P, w) for w in P.worlds}
    out["bisim"] = tr.call("logic.bisimilar", detl.bisimilar,
                           detl.PointedModel(P, f"{point}|{copy}"),
                           detl.PointedModel(M, point))
    path = directory / "P.json"
    with tr.span("serialize.save") as c:
        detl.save_model(path, P)
        c["bytes_written"] = path.stat().st_size
    out["loaded"] = tr.call("serialize.load_dir", detl.Workspace.load_dir,
                            directory)
    return P, out


def check_step(detl, M, action, oplus, point, P, out, directory):
    """Reasons the step's results are wrong; empty when right."""
    bad = []
    want = oracle.product_world_count(M, action, oplus)
    if len(P.worlds) != want:
        return [f"{len(P.worlds)} worlds, {want} pairs pass"]
    if oplus and P != out["sharp"]:
        bad.append("⊕ differs from the ♯-product")
    if not oplus and not out["history"].holds:
        bad.append("forest action not history-preserving")
    # restricted models stay restricted under both updates, and
    # synchronicity survives since every relation keeps to one layer
    failed = [p for p, rep in out["props"].items() if not rep.holds]
    if failed or not out["restricted"].holds:
        bad.append(f"properties lost: {failed}")
    mine = oracle.depths(P)
    udepth = oracle.depths(oracle.PlainModel(action["events"], {}, {},
                                             action["yesterday"]))
    before = oracle.depths(M)
    for w in P.worlds:
        base, _, event = w.rpartition("|")
        add = (0 if event == FLAT else 1) if oplus else udepth[event]
        if out["depths"][w] != mine[w] or mine[w] != before[base] + add:
            bad.append(f"depth of {w}: {out['depths'][w]}, expected "
                       f"{before[base]} + {add}")
            break
    copy = FLAT if oplus else "r"
    if out["bisim"] is None:
        bad.append("copy layer not bisimilar")
    else:
        errs = oracle.bisimulation_errors(P, f"{point}|{copy}", M, point,
                                          out["bisim"].relation)
        if errs:
            bad.append(f"bisimulation fails: {errs[:3]}")
    loaded = out["loaded"].models["P"][0]
    if loaded != P:
        bad.append("reloaded model differs")
    again = directory / "again.json"
    detl.save_model(again, loaded)
    if again.read_bytes() != (directory / "P.json").read_bytes():
        bad.append("second save differs")
    return bad


def problems(detl, k, M, action, point, P, out, directory):
    """check_step, and the world count step k always has."""
    bad = check_step(detl, M, action, k != 1, point, P, out, directory)
    if len(P.worlds) != STEP_WORLDS[k]:
        bad.append(f"step {k} has {len(P.worlds)} worlds")
    return bad


def one_pass(state, run, tr, op_base):
    detl = state.detl
    lat = []
    for c in range(CHAINS_PER_PASS):
        chain = draw_chain(state.rng)
        M, actions = build_chain(detl, chain)
        point = chain["point"]
        for k, (U, action) in enumerate(zip(actions, chain["steps"])):
            directory = state.work / f"step{k}"
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            tr.op(op_base + len(lat))
            t0 = now()
            P, out = step(detl, M, U, k != 1, point, tr, directory)
            lat.append(now() - t0)
            run.reference(lat[-1])
            tr.op(None)
            bad = problems(detl, k, M, action, point, P, out, directory)
            state.errors.extend(f"chain {state.chains} step {k}: {b}"
                                for b in bad)
            shutil.rmtree(directory, ignore_errors=True)
            M, point = P, next_point(point, k)
        state.chains += 1
    run.record(lat, 0)

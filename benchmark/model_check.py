"""model-check: seeded (formula text, world, mode) queries against one
restricted model and a fixed registry of actions.

Every pass runs the same queries, so the update caches are warm after
set-up and the formula and semantics layers do the work: parsing, the
signature checks and the recursive evaluation.  The cold products land
in set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import gen
import oracle
from harness import now

NAME = "model-check"

MODEL_ROOTS = 20          # 20 trees of 1 + 2 + 2 worlds: 100 worlds
MODEL_SHAPE = (2, 1)
MODEL_BLOCK = 3
# queries per pass, by mode and family.  Each mode takes a comparable
# share of the time.  In cost order the evaluate families run random <
# update < tower < ydel, rdetl; with as many cheap evaluate queries as
# ydel and rdetl ones, the median falls in the middle of the towers, the
# family whose cost varies least from seed to seed.
RANDOM_QUERIES = 70       # random formulas of depth 4
UPDATE_QUERIES = 70       # depth-3 random formulas under 1 or 2 updates
TOWER_QUERIES = 760       # [a][b][a][b] over a tautology
YDEL_QUERIES = 60
RDETL_QUERIES = 78


def make_inputs(seed, ctx):
    rng = gen.new_rng(seed, NAME)
    model = gen.restricted_model(rng, MODEL_ROOTS, MODEL_SHAPE, MODEL_BLOCK)
    atemporal = [gen.atemporal_action(rng, "A1"),
                 gen.atemporal_action(rng, "A2")]
    forest = [gen.forest_action(rng, "F1", shape=(1, 1)),
              gen.forest_action(rng, "F2", shape=(2,))]
    # every action tests the same two literals, one per atom: the model
    # has each p/q quadrant on exactly a quarter of its trees, so every
    # product, and every product of products, has the same size for
    # every seed
    x, y = rng.sample(gen.ATOMS, 2)
    lx, ly = (x, rng.random() < 0.5), (y, rng.random() < 0.5)
    atemporal[0]["pre"] = {"e0": [], "e1": [lx]}
    atemporal[1]["pre"] = {"e0": [], "e1": [ly]}
    forest[0]["pre"] = {"r": [], "e0": [lx], "e1": [lx, ly]}
    forest[1]["pre"] = {"r": [], "e0": [lx], "e1": [ly]}
    worlds = model["worlds"]
    queries = []
    for _ in range(RANDOM_QUERIES):
        queries.append(("detl", rng.choice(worlds), gen.random_formula(rng, 4)))
    for _ in range(UPDATE_QUERIES):
        pool = rng.choice([atemporal, forest])
        queries.append(("detl", rng.choice(worlds), gen.update_chain(
            rng, pool, rng.randint(1, 2), gen.random_formula(rng, 3))))
    for _ in range(TOWER_QUERIES):
        # one agent pattern for all: [a][b] and [a][a] reach different
        # numbers of worlds, and a mix would put the median between them
        queries.append(("detl", rng.choice(worlds),
                        gen.tautology_tower(rng, 4, "abab")))
    for mode, n, pool in (("ydel", YDEL_QUERIES, atemporal),
                          ("rdetl", RDETL_QUERIES, forest)):
        for i in range(n):
            # a tower only under one update: after two, its boxes visit
            # blocks of a dozen worlds per level
            if i % 3 == 1:
                nesting, f = 1, gen.tautology_tower(rng, 3)
            else:
                nesting, f = i % 2 + 1, gen.random_formula(rng, 4 - i % 3)
            queries.append((mode, rng.choice(worlds),
                            gen.update_chain(rng, pool, nesting, f)))
    rng.shuffle(queries)
    return {
        "model": model,
        "actions": atemporal + forest,
        "atemporal": [a["name"] for a in atemporal],
        "queries": [(mode, w, f, gen.render(f)) for mode, w, f in queries],
    }


@dataclass
class State:
    detl: object
    M: object
    registry: dict
    queries: list            # (mode, world, text)
    answers: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)   # seconds spent per mode
    updated: dict = field(default_factory=dict)  # (action, mode) -> worlds


def build_model(detl, model):
    sig = detl.Signature(gen.AGENTS, gen.ATOMS)
    return detl.KripkeModel(sig=sig, worlds=tuple(model["worlds"]),
                            epistemic=gen.model_relations(model),
                            yesterday=model["yesterday"],
                            valuation=model["val"])


def build_action(detl, sig, action):
    return detl.ActionModel(
        sig=sig, events=tuple(action["events"]),
        epistemic=action["epistemic"], yesterday=action["yesterday"],
        pre={e: detl.parse(gen.render(gen.pre_formula(lits)), sig)
             for e, lits in action["pre"].items()},
        name=action["name"])


def query(detl, M, registry, mode, w, text, tr):
    """One operation: parse the text, then evaluate in the given mode."""
    f = tr.call("formula.parse", detl.parse, text, M.sig, registry)
    if mode == "detl":
        return tr.call("semantics.evaluate", detl.evaluate, M, w, f)
    if mode == "ydel":
        return tr.call("semantics.eval_ydel", detl.eval_ydel, M, w, f)
    return tr.call("semantics.eval_rdetl", detl.eval_rdetl, M, w, f).value


def build(detl, inputs, tr, ctx):
    """Set-up: the model and registry through the library, the cold
    updates, then one warm-up pass."""
    M = build_model(detl, inputs["model"])
    registry = {a["name"]: build_action(detl, M.sig, a)
                for a in inputs["actions"]}
    queries = [(mode, w, text) for mode, w, _, text in inputs["queries"]]
    state = State(detl, M, registry, queries)

    def update(span, fn, model, U, *flags):
        with tr.span(span, worlds_in=len(model.worlds)) as c:
            out = fn(model, U, *flags)
            c["worlds_out"] = len(out.worlds)
        return out

    # every update, and update of an update, that a query can reach
    # (chains keep to one pool), built cold here, so the caches hold the
    # same models whichever the seed's queries pick; ydel's flag is the
    # one the evaluator passes, so the cache keys match
    atemporal = [registry[n] for n in inputs["atemporal"]]
    forest = [U for n, U in registry.items() if n not in inputs["atemporal"]]
    for pool in (atemporal, forest):
        for U in pool:
            P = update("semantics.product_update", detl.product_update, M, U)
            state.updated[U.name, "detl"] = len(P.worlds)
            for U2 in pool:
                update("semantics.product_update", detl.product_update, P, U2)
    for U in atemporal:
        Y = update("semantics.ydel_update", detl.ydel_update, M, U, True)
        state.updated[U.name, "ydel"] = len(Y.worlds)
        for U2 in atemporal:
            update("semantics.ydel_update", detl.ydel_update, Y, U2, True)
    state.answers = [query(detl, M, registry, mode, w, text, tr)
                     for mode, w, text in queries]
    return state


def verify(state, inputs):
    """Check every query's answer against computations made apart from
    the evaluator that produced it."""
    detl, M = state.detl, state.M
    actions = {a["name"]: a for a in inputs["actions"]}
    view = oracle.plain_model(inputs["model"])
    for (name, mode), n in state.updated.items():
        want = oracle.product_world_count(view, actions[name], mode == "ydel")
        if n != want:
            state.errors.append(f"{mode} update by {name}: {n} worlds, "
                                f"{want} expected")
    for (mode, w, f, text), got in zip(inputs["queries"], state.answers):
        where = f"{mode} {w} {text}"
        if oracle.is_update_free(f):
            want = oracle.holds(view, w, f)
        elif mode == "ydel":
            pf = detl.parse(text, M.sig, state.registry)
            sharp = detl.eval_rdetl(M, w, detl.sharp_formula(pf)).value
            if sharp == "not-in-scope":
                state.errors.append(f"sharp product not in scope: {where}")
            want = sharp == "true"
        else:
            pf = detl.parse(text, M.sig, state.registry)
            reduced = oracle.from_program(detl.reduce_formula(pf))
            want = oracle.holds(view, w, reduced)
            if oracle.evaluate(view, w, f, actions) != want:
                state.errors.append(f"independent product differs: {where}")
        expect = ("true" if want else "false") if mode == "rdetl" else want
        if got != expect:
            state.errors.append(f"answer {got}, expected {expect}: {where}")
    return state.errors


def one_pass(state, run, tr, op_base):
    detl, M, registry = state.detl, state.M, state.registry
    lat = []
    wrong = []
    for i, (mode, w, text) in enumerate(state.queries):
        tr.op(op_base + i)
        t0 = now()
        got = query(detl, M, registry, mode, w, text, tr)
        lat.append(now() - t0)
        run.reference(lat[-1])
        state.info[mode] = state.info.get(mode, 0.0) + lat[-1]
        if got != state.answers[i]:
            wrong.append(i)
    if tr.enabled:
        # traced only: the hash behind every update-cache lookup, and the
        # check that the ydel and rdetl modes repeat on every query
        tr.op(None)
        with tr.span("kripke.model_hash"):
            hash(M)
        tr.call("kripke.is_restricted", detl.is_restricted, M)
    run.record(lat, 0)
    for i in wrong:
        state.errors.append(f"answer changed between passes: {state.queries[i]}")

"""validity: `validity` decisions on seeded formulas with update nesting
of at most 3.

Each round draws two fresh actions (an atemporal one and a forest one)
and nine formulas from the seeded stream, so the reduction and validity
caches never hit:
- 2 invalid by construction: the negation of a reduction-axiom
  instance, or such an instance implying a literal;
- 5 reduction-axiom instances, update nesting 2 (1 for the atom axiom);
- 1 K-axiom instance over bodies of update nesting 2 and 1;
- 1 random formula of update nesting 3, whose verdict is not known in
  advance.
Bodies are a random core of depth 1 under the updates, with at most
one box above them: a box straight below another box over an update
can drive the tableau past its node budget (see CHANGES.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import gen
import oracle
from harness import now
from model_check import build_action

NAME = "validity"

ROUNDS_PER_PASS = 4
# operations per round, by family
INVALID_OPS = 2
AXIOM_OPS = 5
DEEP_OPS = 2
# the warm-up rounds are the same for every --seed (see make_inputs)
WARM_UP_SEED = 0


def draw_actions(rng, tag):
    return [gen.atemporal_action(rng, f"A{tag}"),
            gen.forest_action(rng, f"F{tag}", shape=(1, 1))]


def nested_body(rng, actions, nesting):
    """A random update-free core of depth 1 under `nesting` update
    modalities, at most one box above them."""
    f = gen.random_formula(rng, 1)
    for _ in range(nesting):
        act = rng.choice(actions)
        f = ("upd", act["name"], rng.choice(act["events"]), f)
    if rng.random() < 0.5:
        f = ("box", rng.choice(gen.AGENTS), f)
    return f


def reduction_instance(rng, action, body):
    """One reduction axiom for [U@s] over `body`, as a biconditional."""
    U = action["name"]
    s = rng.choice(action["events"])
    pre = gen.pre_formula(action["pre"][s])
    kind = rng.choice(["atom", "and", "not", "box", "y"])
    if kind == "atom":
        q = gen.atom(rng.choice(gen.ATOMS))
        return gen.iff(("upd", U, s, q), gen.implies(pre, q))
    if kind == "and":
        other = gen.random_formula(rng, 2)
        return gen.iff(("upd", U, s, gen.conj(body, other)),
                       gen.conj(("upd", U, s, body), ("upd", U, s, other)))
    if kind == "not":
        return gen.iff(("upd", U, s, gen.neg(body)),
                       gen.implies(pre, gen.neg(("upd", U, s, body))))
    if kind == "box":
        # a second box straight below this one can drive the tableau
        # past its node budget (see CHANGES.md), so the body loses its own
        if body[0] == "box":
            body = body[2]
        a = rng.choice(gen.AGENTS)
        succ = sorted(y for x, y in action["epistemic"][a] if x == s)
        return gen.iff(("upd", U, s, ("box", a, body)),
                       gen.implies(pre, gen.conj(*[
                           ("box", a, ("upd", U, s2, body)) for s2 in succ])))
    past = sorted(x for x, y in action["yesterday"] if y == s)
    if past:
        right = gen.conj(*[("upd", U, s2, body) for s2 in past])
    else:
        right = ("y", ("upd", U, s, body))
    return gen.iff(("upd", U, s, ("y", body)), gen.implies(pre, right))


def k_instance(rng, phi, psi):
    box = rng.choice([lambda f: ("box", "a", f), lambda f: ("box", "b", f),
                      lambda f: ("y", f)])
    return gen.implies(box(gen.implies(phi, psi)),
                       gen.implies(box(phi), box(psi)))


def draw_round(rng, tag):
    """[(family, expected verdict or None, formula)], in cost order."""
    actions = draw_actions(rng, tag)
    out = []
    for _ in range(INVALID_OPS):
        valid = reduction_instance(rng, rng.choice(actions),
                                   nested_body(rng, actions, 1))
        if rng.random() < 0.5:
            f = gen.neg(valid)
        else:
            f = gen.implies(valid, gen.literal(
                (rng.choice(gen.ATOMS), rng.random() < 0.5)))
        out.append(("invalid", False, f))
    for _ in range(AXIOM_OPS):
        out.append(("reduction-axiom", True, reduction_instance(
            rng, rng.choice(actions), nested_body(rng, actions, 1))))
    out.append(("k-axiom", True, k_instance(
        rng, nested_body(rng, actions, 2), nested_body(rng, actions, 1))))
    for _ in range(DEEP_OPS - 1):
        out.append(("random", None, nested_body(rng, actions, 3)))
    return actions, out


def draw(rng, tag):
    """One round's inputs as plain data: its actions, formulas and their
    texts, and a small restricted model for VALID verdicts."""
    actions, items = draw_round(rng, tag)
    return {"actions": actions, "items": items,
            "texts": [gen.render(f) for _, _, f in items],
            "checker_models": [oracle.plain_model(gen.restricted_model(
                rng, 4, (1,), 2))]}


@dataclass
class State:
    detl: object
    rng: object
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)   # operations per family
    rounds: int = 0
    warm_up: list = field(default_factory=list)  # results, checked in verify


def make_inputs(seed, ctx):
    """The warm-up rounds, drawn from a stream of their own with a fixed
    seed: a decision's cost varies tenfold from draw to draw, and with
    seeded warm-up rounds set-up time followed the seed."""
    rng = gen.new_rng(WARM_UP_SEED, NAME + ":warm-up")
    return {"seed": seed,
            "warm_up": [draw(rng, tag) for tag in range(ROUNDS_PER_PASS)]}


def parse_round(detl, rnd):
    sig = detl.Signature(gen.AGENTS, gen.ATOMS)
    registry = {a["name"]: build_action(detl, sig, a) for a in rnd["actions"]}
    return [detl.parse(text, sig, registry) for text in rnd["texts"]]


def build(detl, inputs, tr, ctx):
    """Set-up: the warm-up rounds' actions and formulas through the
    library and their decisions; the timed passes draw fresh rounds.
    Only the program's calls run here, the checks run in verify."""
    state = State(detl, gen.new_rng(inputs["seed"], NAME),
                  rounds=len(inputs["warm_up"]))
    for rnd in inputs["warm_up"]:
        state.warm_up.append([detl.validity(pf)
                              for pf in parse_round(detl, rnd)])
    return state


def verify(state, inputs):
    """Check the warm-up rounds' verdicts; the timed ones are checked
    after each decision."""
    for tag, (rnd, results) in enumerate(zip(inputs["warm_up"],
                                             state.warm_up)):
        for item, result in zip(rnd["items"], results):
            state.errors.extend(f"warm-up round {tag}: {b}"
                                for b in problems(rnd, item, result))
    return state.errors


def decide(detl, f, tr):
    """One timed operation: the verdict and countermodel for f.  Traced,
    it also reduces f on its own first, for the per-layer split (validity
    reduces again inside), and returns the span's counts and the reduced
    formula, whose size is counted after the timing."""
    reduced = None
    if tr.enabled:
        with tr.span("logic.reduce") as counts:
            reduced = counts, detl.reduce_formula(f)
    return tr.call("logic.validity", detl.validity, f), reduced


def formula_size(f):
    """(nodes as a tree, distinct nodes) of a program formula."""
    tree = {}
    distinct = set()
    stack = [(f, False)]
    while stack:
        g, done = stack.pop()
        if id(g) in tree:
            continue
        subs = [getattr(g, k) for k in ("sub", "left", "right") if hasattr(g, k)]
        if not done:
            stack.append((g, True))
            stack.extend((s, False) for s in subs if id(s) not in tree)
            continue
        tree[id(g)] = 1 + sum(tree[id(s)] for s in subs)
        distinct.add(g)
    return tree[id(f)], len(distinct)


def check(family, expect, f, actions, result, checker_models):
    """Reasons the verdict is wrong; empty when right."""
    valid, counter = result
    if expect is not None and valid != expect:
        return [f"{family} came out {'VALID' if valid else 'INVALID'}"]
    if not valid:
        if oracle.evaluate(counter.model, counter.point, f, actions):
            return [f"countermodel satisfies the {family} formula"]
        return []
    # a valid formula holds at every world of any model
    for M in checker_models:
        products = {}
        for w in M.worlds:
            if not oracle.evaluate(M, w, f, actions, products):
                return [f"VALID {family} formula fails at {w}"]
    return []


def problems(rnd, item, result):
    family, expect, f = item
    by_name = {a["name"]: a for a in rnd["actions"]}
    return [f"{b}: {gen.render(f)}" for b in check(
        family, expect, f, by_name, result, rnd["checker_models"])]


def one_pass(state, run, tr, op_base):
    detl = state.detl
    lat = []
    for _ in range(ROUNDS_PER_PASS):
        tag = state.rounds
        rnd = draw(state.rng, tag)
        for item, pf in zip(rnd["items"], parse_round(detl, rnd)):
            tr.op(op_base + len(lat))
            t0 = now()
            result, reduced = decide(detl, pf, tr)
            lat.append(now() - t0)
            run.reference(lat[-1])
            tr.op(None)
            if reduced:
                counts, g = reduced
                counts["tree_nodes"], counts["dag_nodes"] = formula_size(g)
            family = item[0]
            state.info[family] = state.info.get(family, 0) + 1
            state.errors.extend(f"round {tag}: {b}"
                                for b in problems(rnd, item, result))
        state.rounds += 1
    run.record(lat, 0)

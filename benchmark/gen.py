"""Seeded input generation, as plain data.

Everything here is the benchmark's own work: models and actions are
dicts of names and pairs, formulas are tuples, and the program only ever
receives the rendered text and documents.  Model and action sizes are
fixed by the arguments; the seed only decides arrangement (which roots
share a block, which literal a precondition tests), so every seed yields
models and actions of the same size.

Formula tuples:
    ("bot",) ("atom", p) ("not", f) ("and", f, g) ("box", agent, f)
    ("y", f) ("upd", action_name, event, f)
"""

from __future__ import annotations

import random

AGENTS = ("a", "b")
ATOMS = ("p", "q")

BOT = ("bot",)
TOP = ("not", BOT)


def atom(p):
    return ("atom", p)


def neg(f):
    return ("not", f)


def conj(*fs):
    if not fs:
        return TOP
    out = fs[0]
    for f in fs[1:]:
        out = ("and", out, f)
    return out


def disj(f, g):
    return neg(conj(neg(f), neg(g)))


def implies(f, g):
    return neg(conj(f, neg(g)))


def iff(f, g):
    return conj(implies(f, g), implies(g, f))


def literal(lit):
    p, positive = lit
    return atom(p) if positive else neg(atom(p))


def pre_formula(lits):
    """Precondition tuple of a literal list; the empty list is true."""
    return conj(*map(literal, lits)) if lits else TOP


def render(f) -> str:
    """Text in the program's grammar, core connectives only."""
    kind = f[0]
    if kind == "bot":
        return "false"
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    if kind == "and":
        return f"({render(f[1])} & {render(f[2])})"
    if kind == "box":
        return f"[{f[1]}]{render(f[2])}"
    if kind == "y":
        return f"[Y]{render(f[1])}"
    if kind == "upd":
        return f"[{f[1]}@{f[2]}]{render(f[3])}"
    raise ValueError(f"not a formula tuple: {f!r}")


def update_nesting(f) -> int:
    kind = f[0]
    if kind in ("bot", "atom"):
        return 0
    if kind == "and":
        return max(update_nesting(f[1]), update_nesting(f[2]))
    if kind == "upd":
        return 1 + update_nesting(f[3])
    return update_nesting(f[-1])


# ---------------------------------------------------------------------------
# models

def _blocks(rng, items, size):
    items = list(items)
    rng.shuffle(items)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _equivalence(blocks):
    return {(x, y) for b in blocks for x in b for y in b}


def _chain(blocks):
    """Fewest pairs whose s5 closure is the partition."""
    return {(b[i], b[i + 1]) for b in blocks for i in range(len(b) - 1)}


def restricted_model(rng, roots: int, shape=(2, 1), block: int = 3):
    """A forest-shaped restricted model of fixed size.

    `roots` initial worlds (a multiple of 4), each the root of a tree
    whose layer k+1 gives every world shape[k] children.  Facts are
    fixed per tree, with exactly a quarter of the trees in each p/q
    quadrant.  Each agent's relation is a partition of every layer into
    blocks of at most `block`, each block lying among the children of
    one block of the layer above, which gives perfect recall, knowledge
    of the past and of initial time, and synchronicity by construction.

    Returns {"worlds", "val", "blocks", "yesterday", "depth"}; blocks
    maps agent -> list of blocks.
    """
    if roots % 4:
        raise ValueError("roots must be a multiple of 4")
    layers = [[f"w{i}" for i in range(roots)]]
    parent = {}
    count = roots
    for fan in shape:
        nxt = []
        for w in layers[-1]:
            for _ in range(fan):
                c = f"w{count}"
                count += 1
                parent[c] = w
                nxt.append(c)
        layers.append(nxt)
    quadrants = [(p, q) for p in (0, 1) for q in (0, 1)] * (roots // 4)
    rng.shuffle(quadrants)
    facts = dict(zip(layers[0], quadrants))
    depth = {w: 0 for w in layers[0]}
    for k, layer in enumerate(layers[1:], 1):
        for w in layer:
            facts[w] = facts[parent[w]]
            depth[w] = k
    blocks = {}
    for a in AGENTS:
        out = _blocks(rng, layers[0], block)
        prev = out
        for layer in layers[1:]:
            cur = []
            for b in prev:
                members = set(b)
                kids = [w for w in layer if parent[w] in members]
                cur.extend(_blocks(rng, kids, block))
            out = out + cur
            prev = cur
        blocks[a] = out
    worlds = [w for layer in layers for w in layer]
    return {
        "worlds": worlds,
        "val": {"p": {w for w in worlds if facts[w][0]},
                "q": {w for w in worlds if facts[w][1]}},
        "blocks": blocks,
        "yesterday": {(parent[w], w) for w in parent},
        "depth": depth,
    }


def model_relations(model, minimal=False):
    """agent -> pairs; the full equivalence, or a chain per block that
    needs s5 closure."""
    pick = _chain if minimal else _equivalence
    return {a: pick(bl) for a, bl in model["blocks"].items()}


def model_document(model, point=None):
    """The model drawn minimally, a chain of pairs per block, for the
    program's s5 closure to complete, as the bundled fixtures are."""
    doc = {
        "type": "kripke",
        "agents": list(AGENTS),
        "atoms": list(ATOMS),
        "worlds": list(model["worlds"]),
        "val": {p: sorted(ws) for p, ws in model["val"].items()},
        "epistemic": {a: sorted(map(list, ps)) for a, ps in
                      model_relations(model, minimal=True).items()},
        "yesterday": sorted(map(list, model["yesterday"])),
    }
    if point is not None:
        doc["point"] = point
    doc["closure"] = "s5"
    return doc


# ---------------------------------------------------------------------------
# actions: {"name", "events", "pre": event -> literal list, "epistemic":
# agent -> pairs, "yesterday": pairs}

#: largest block of events one agent cannot tell apart
ACTION_BLOCK = 2


def _random_literal(rng, exclude=()):
    p = rng.choice([a for a in ATOMS if a not in exclude])
    return (p, rng.random() < 0.5)


def atemporal_action(rng, name):
    """Atemporal action of two events: e0 always fires, e1 tests one
    literal; each agent's relation is a random partition of the events."""
    evs = ["e0", "e1"]
    pre = {e: [] if i == 0 else [_random_literal(rng)]
           for i, e in enumerate(evs)}
    return {
        "name": name,
        "events": evs,
        "pre": pre,
        "epistemic": {a: _equivalence(_blocks(rng, evs, ACTION_BLOCK))
                      for a in AGENTS},
        "yesterday": set(),
    }


def forest_action(rng, name, shape=(1, 1)):
    """History-preserving forest action with one root.

    The root r is an epistemic past state (pre true, a self-loop and no
    other arrow).  Layer k+1 gives every event shape[k] children, each
    child's precondition extends its parent's literals by one literal
    on an atom the parent has not tested yet, so pre(child) -> pre(parent)
    is valid.  Relations partition each layer below the root into blocks
    within the children of one block above.
    """
    layers = [["r"]]
    parent = {}
    pre = {"r": []}
    count = 0
    for fan in shape:
        nxt = []
        for e in layers[-1]:
            for _ in range(fan):
                c = f"e{count}"
                count += 1
                parent[c] = e
                used = [p for p, _ in pre[e]]
                pre[c] = pre[e] + [_random_literal(rng, used)]
                nxt.append(c)
        layers.append(nxt)
    events = [e for layer in layers for e in layer]
    epistemic = {}
    for a in AGENTS:
        prev = [["r"]]
        pairs = {("r", "r")}
        for layer in layers[1:]:
            cur = []
            for b in prev:
                members = set(b)
                kids = [e for e in layer if parent[e] in members]
                cur.extend(_blocks(rng, kids, ACTION_BLOCK))
            pairs |= _equivalence(cur)
            prev = cur
        epistemic[a] = pairs
    return {
        "name": name,
        "events": events,
        "pre": pre,
        "epistemic": epistemic,
        "yesterday": {(parent[e], e) for e in parent},
    }


def action_document(action, point=None):
    doc = {
        "type": "action",
        "agents": list(AGENTS),
        "atoms": list(ATOMS),
        "events": list(action["events"]),
        "pre": {e: render(pre_formula(lits))
                for e, lits in action["pre"].items()},
        "epistemic": {a: sorted(map(list, ps))
                      for a, ps in action["epistemic"].items()},
        "yesterday": sorted(map(list, action["yesterday"])),
    }
    if point is not None:
        doc["point"] = point
    return doc


# ---------------------------------------------------------------------------
# formulas

def random_formula(rng, depth):
    """Random update-free formula of connective depth at most `depth`."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice([atom("p"), atom("q"), BOT, TOP])
    kind = rng.choice(["not", "and", "box", "y"])
    if kind == "not":
        return neg(random_formula(rng, depth - 1))
    if kind == "and":
        return conj(random_formula(rng, depth - 1),
                    random_formula(rng, depth - 1))
    if kind == "box":
        return ("box", rng.choice(AGENTS), random_formula(rng, depth - 1))
    return ("y", random_formula(rng, depth - 1))


def tautology_tower(rng, height, agents=None):
    """[a][b][a](p | ~p): every box must visit every successor, since
    the body never fails.  The agents are drawn at random, or repeat
    the given sequence from the top."""
    p = atom(rng.choice(ATOMS))
    f = disj(p, neg(p))
    for i in range(height):
        agent = agents[(height - 1 - i) % len(agents)] if agents \
            else rng.choice(AGENTS)
        f = ("box", agent, f)
    return f


def update_chain(rng, actions, nesting, body):
    """[U1@e1]...[Un@en]body with the (action, event) picks from
    `actions`, a list of action dicts."""
    f = body
    for _ in range(nesting):
        act = rng.choice(actions)
        f = ("upd", act["name"], rng.choice(act["events"]), f)
    return f


def new_rng(seed, stream: str):
    """Independent stream per purpose, so adding draws to one stream does
    not shift another."""
    return random.Random(f"{seed}:{stream}")

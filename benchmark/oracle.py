"""Independent reference computations, written apart from the program.

They read models only through the public views `worlds`, `val`,
`succ(agent, w)` and `yesterdays(w)`, which both the program's models
and `PlainModel` below offer, and formulas only as the tuples of
`gen.py` (`from_program` converts the program's formula objects).
"""

from __future__ import annotations

from collections import deque

from gen import AGENTS, model_relations


class PlainModel:
    """The public model views over plain data."""

    def __init__(self, worlds, val, epistemic, yesterday):
        self.worlds = tuple(worlds)
        self.val = {p: frozenset(ws) for p, ws in val.items()}
        self._succ = {a: {w: [] for w in self.worlds} for a in epistemic}
        for a, pairs in epistemic.items():
            for x, y in pairs:
                self._succ[a][x].append(y)
        self._past = {w: [] for w in self.worlds}
        for x, y in yesterday:
            self._past[y].append(x)

    def succ(self, agent, w):
        return self._succ[agent][w]

    def yesterdays(self, w):
        return self._past[w]


def plain_model(model):
    """PlainModel of a generated model dict (gen.restricted_model)."""
    return PlainModel(model["worlds"], model["val"], model_relations(model),
                      model["yesterday"])


# ---------------------------------------------------------------------------
# set-based evaluation of update-free formulas

def truth_set(M, f, memo=None):
    """The worlds of M where the update-free formula tuple f holds."""
    memo = {} if memo is None else memo
    key = id(f)
    if key in memo:
        return memo[key][1]
    kind = f[0]
    worlds = M.worlds
    if kind == "bot":
        out = frozenset()
    elif kind == "atom":
        out = frozenset(M.val[f[1]])
    elif kind == "not":
        out = frozenset(worlds) - truth_set(M, f[1], memo)
    elif kind == "and":
        out = truth_set(M, f[1], memo) & truth_set(M, f[2], memo)
    elif kind == "box":
        body = truth_set(M, f[2], memo)
        out = frozenset(w for w in worlds
                        if all(v in body for v in M.succ(f[1], w)))
    elif kind == "y":
        body = truth_set(M, f[1], memo)
        out = frozenset(w for w in worlds
                        if all(v in body for v in M.yesterdays(w)))
    else:
        raise ValueError(f"update-free formulas only, got {kind!r}")
    memo[key] = (f, out)  # keep f alive so its id stays unique
    return out


def holds(M, w, f):
    return w in truth_set(M, f)


def from_program(f, memo=None):
    """Formula tuple of one of the program's formula objects, read by
    class name and fields; shared subterms stay shared."""
    memo = {} if memo is None else memo
    key = id(f)
    if key in memo:
        return memo[key][1]
    kind = type(f).__name__
    if kind == "Bottom":
        out = ("bot",)
    elif kind == "Atom":
        out = ("atom", f.name)
    elif kind == "Not":
        out = ("not", from_program(f.sub, memo))
    elif kind == "And":
        out = ("and", from_program(f.left, memo), from_program(f.right, memo))
    elif kind == "Box":
        out = ("box", f.agent, from_program(f.sub, memo))
    elif kind == "Yesterday":
        out = ("y", from_program(f.sub, memo))
    elif kind == "Update":
        out = ("upd", f.action.name, f.event, from_program(f.sub, memo))
    else:
        raise TypeError(f"unknown formula class {kind}")
    memo[key] = (f, out)
    return out


def is_update_free(f):
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "upd":
            return False
        stack.extend(x for x in g[1:] if isinstance(x, tuple))
    return True


# ---------------------------------------------------------------------------
# literal preconditions and products

def pre_holds(M, w, lits):
    """A conjunction of (atom, positive) literals at world w."""
    return all((w in M.val[p]) == positive for p, positive in lits)


def product_pairs(M, action):
    """The (world, event) pairs whose literal precondition holds."""
    return [(v, e) for v in M.worlds for e in action["events"]
            if pre_holds(M, v, action["pre"][e])]


def product_world_count(M, action, oplus=False):
    """Worlds of M[U], or of M ⊕ U, which adds one ♭-copy per world."""
    n = len(product_pairs(M, action))
    return n + len(M.worlds) if oplus else n


def product(M, action):
    """M[U] for a literal-precondition action, built from the definition:
    pairs that pass their precondition, componentwise epistemic arrows,
    and a yesterday arrow that either steps the world back at a past
    state (an event without yesterday) or steps the event back."""
    pairs = product_pairs(M, action)
    alive = set(pairs)
    name = {vt: f"{vt[0]}|{vt[1]}" for vt in pairs}
    upast = {e: [] for e in action["events"]}
    for x, y in action["yesterday"]:
        upast[y].append(x)
    usucc = {a: {e: set() for e in action["events"]} for a in AGENTS}
    for a, ps in action["epistemic"].items():
        for x, y in ps:
            usucc[a][x].add(y)
    epistemic = {a: set() for a in AGENTS}
    yesterday = set()
    for v, e in pairs:
        for a in AGENTS:
            for v2 in M.succ(a, v):
                for e2 in usucc[a][e]:
                    if (v2, e2) in alive:
                        epistemic[a].add((name[v, e], name[v2, e2]))
        if upast[e]:
            for e2 in upast[e]:
                if (v, e2) in alive:
                    yesterday.add((name[v, e2], name[v, e]))
        else:
            for v2 in M.yesterdays(v):
                if (v2, e) in alive:
                    yesterday.add((name[v2, e], name[v, e]))
    val = {p: {name[v, e] for v, e in pairs if v in ws}
           for p, ws in M.val.items()}
    return PlainModel([name[vt] for vt in pairs], val, epistemic, yesterday)


def evaluate(M, w, f, actions, products=None):
    """M, w ⊨ f for formulas with updates by literal-precondition
    actions (`actions` maps name -> action dict).  `products` may carry
    the products built so far from one call to the next."""
    products = {} if products is None else products
    kind = f[0]
    if kind == "upd":
        act = actions[f[1]]
        if not pre_holds(M, w, act["pre"][f[2]]):
            return True
        key = (id(M), f[1])
        if key not in products:
            products[key] = (M, product(M, act))   # M kept alive for its id
        return evaluate(products[key][1], f"{w}|{f[2]}", f[3], actions,
                        products)
    if is_update_free(f):
        return holds(M, w, f)
    if kind == "not":
        return not evaluate(M, w, f[1], actions, products)
    if kind == "and":
        return (evaluate(M, w, f[1], actions, products)
                and evaluate(M, w, f[2], actions, products))
    if kind == "box":
        return all(evaluate(M, v, f[2], actions, products)
                   for v in M.succ(f[1], w))
    if kind == "y":
        return all(evaluate(M, v, f[1], actions, products)
                   for v in M.yesterdays(w))
    raise ValueError(f"not a formula tuple: {f!r}")


# ---------------------------------------------------------------------------
# depth and bisimulation

def depths(M):
    """Longest backward temporal path ending at each world, by repeated
    relaxation; None where the path is unbounded (a cycle lies behind)."""
    d = {w: 0 for w in M.worlds}
    n = len(M.worlds)
    for _ in range(n + 1):
        changed = False
        for w in M.worlds:
            for v in M.yesterdays(w):
                if d[v] + 1 > d[w]:
                    d[w] = d[v] + 1
                    changed = True
        if not changed:
            return d
    # still growing after n rounds: unbounded on and behind a cycle
    reach = deque(w for w in M.worlds if d[w] >= n)
    out = dict(d)
    seen = set(reach)
    children = {w: [] for w in M.worlds}
    for w in M.worlds:
        for v in M.yesterdays(w):
            children[v].append(w)
    while reach:
        w = reach.popleft()
        out[w] = None
        for c in children[w]:
            if c not in seen:
                seen.add(c)
                reach.append(c)
    return out


def bisimulation_errors(A, a_point, B, b_point, relation):
    """Reasons the relation is not a bisimulation linking the points;
    empty when it is.  Checks atoms, and forth and back for every agent
    and for the step into the past."""
    rel = set(relation)
    errors = []
    if (a_point, b_point) not in rel:
        errors.append(("points not related", a_point, b_point))
    atoms = sorted(A.val)
    moves = [(lambda M, w, a=a: M.succ(a, w)) for a in AGENTS]
    moves.append(lambda M, w: M.yesterdays(w))
    for w, v in sorted(rel):
        if [w in A.val[p] for p in atoms] != [v in B.val[p] for p in atoms]:
            errors.append(("atoms", w, v))
        for step in moves:
            bs = step(B, v)
            for w2 in step(A, w):
                if not any((w2, v2) in rel for v2 in bs):
                    errors.append(("forth", w, v, w2))
            as_ = step(A, w)
            for v2 in bs:
                if not any((w2, v2) in rel for w2 in as_):
                    errors.append(("back", w, v, v2))
    return errors

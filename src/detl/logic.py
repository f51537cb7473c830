"""Executable metatheory: the reduction axioms as one rewrite step, taken
to a fixpoint by reduction and on demand by the validity tableau, and
bisimulation by partition refinement.  It imports neither `action` nor
`semantics`, which build on it."""

from __future__ import annotations

from functools import lru_cache

from .formula import (BOT, TOP, And, Atom, Bottom, Box, Formula, Not,
                      Signature, Update, Value, Yesterday, _and, _box, _not,
                      _reachable, _update, _yesterday, conj, implies,
                      map_updates)
from .kripke import KripkeModel, PointedModel

DEFAULT_NODE_LIMIT = 10 ** 6
_REDUCE_LIMIT = 10 ** 5  # [U2@s]^10 q takes 39,365 steps (see reduce_formula)


# ---------------------------------------------------------------------------
# reduction, one step at a time

def _guard(pre: Formula, f: Formula) -> Formula:
    """pre -> f, with the guard dropped when pre is true, and ~pre when f
    is false."""
    if pre is TOP:
        return f
    return _not(pre) if f is BOT else implies(pre, f)


def _step(g: Update, memo: dict) -> Formula:
    """The reduction axiom for the update node g = [U@e]f that f's top
    connective selects: it leaves [U@e′]h on f's subformulas h and U's
    preconditions as they are.  The trivial cases fold: [U@e]f is true
    when pre(e) is false or f is true, and `_guard` drops a true
    precondition and turns pre(e) -> false into ~pre(e).  An update f is
    stepped first, until its step is no update, and g's axiom applied to
    that step.  memo maps update nodes to their steps."""
    out = memo.get(g)
    if out is not None:
        return out
    stack = [g]  # updates waiting for the step of their body
    while stack:
        u = stack[-1]
        U, e, f = u.action, u.event, u.sub
        pre = U.pre_map[e]
        if pre is not BOT:
            while type(f) is Update and (h := memo.get(f)) is not None:
                f = h
            if type(f) is Update:
                stack.append(f)
                continue
        stack.pop()
        t = type(f)
        if pre is BOT or f is TOP:
            out = TOP
        elif t is And:
            out = _and(_update(U, e, f.left), _update(U, e, f.right))
        elif t is Not:
            out = _guard(pre, _not(_update(U, e, f.sub)))
        elif t is Box:
            out = _guard(pre, conj(_box(f.agent, _update(U, e2, f.sub))
                                   for e2 in U.succ(f.agent, e)))
        elif t is Yesterday:
            past = U.yesterdays(e)
            out = _guard(pre, conj(_update(U, e2, f.sub) for e2 in past)
                         if past else _yesterday(_update(U, e, f.sub)))
        else:  # an atom or false
            out = _guard(pre, f)
        memo[u] = out
    return memo[g]


def reduce_formula(f: Formula) -> Formula:
    """Update-free equivalent of f: `_step` to a fixpoint (`map_updates`),
    each update stepped once its body is reduced, so the folds see the
    reduced body and the result is that of the reduction axioms applied
    by structural recursion.  Steps are memoised by node, so a subformula
    shared under one update is stepped once per event: the work follows
    the distinct nodes of the result, which can be exponentially larger
    than f (so TableauLimit is raised past _REDUCE_LIMIT steps), not its
    size as a tree."""
    steps: dict = {}

    def step(g):
        if len(steps) >= _REDUCE_LIMIT:
            raise TableauLimit("reduction step limit exceeded")
        return _step(g, steps)
    return map_updates(f, step=step)


# ---------------------------------------------------------------------------
# tableau for multimodal K (each box independent, no frame conditions)

class TableauLimit(Exception):
    """Raised when a tableau or reduction budget runs out; no verdict."""


class _TreeWorld:
    __slots__ = ("atoms", "children")

    def __init__(self, atoms: frozenset[str], children: list):
        self.atoms = atoms
        self.children = children  # (agent, witness), None for a [Y] witness


_UNSEEN = object()


class _Tableau:
    """Multimodal K tableau over (formula, polarity) entries, a negative
    entry standing for the formula's negation.

    An update entry is rewritten by one memoised `_step` as it is taken
    (Balbiani, van Ditmarsch, Herzig & de Lima, tableaux for public
    announcement logic), so only the part of the reduct read is built.
    A label, the set of entries one world must satisfy, may hold updates.
    Its satisfiability depends on the label alone (each box is a plain K
    box, `[Y]` included, with no converse), so each label handed to a
    diamond's witness is solved once per tableau and its witness, or
    None, is shared by every diamond that asks for it (global caching:
    Goré & Nguyen, tableaux with global caching for K).  Within a world,
    an entry already taken on the branch is skipped, and a formula taken
    with both polarities closes it, so a shared subformula is expanded
    once per branch.  A negated conjunction waits in a queue until
    nothing else is pending, and branching is plain: the second branch
    gets ¬B alone.  One unit of the budget is paid per entry taken off
    the pending stack, and one per step.
    """

    def __init__(self, budget: int):
        self.budget = budget
        # label -> its witness, or None when unsatisfiable
        self.cache: dict[frozenset[tuple], _TreeWorld | None] = {}
        self.steps: dict = {}  # update node -> its step (see `_step`)

    def satisfy(self, entries: list) -> _TreeWorld | None:
        """A model of the entries, its root first, or None; witnesses
        shared through the cache make it a DAG.  The labels in progress
        sit on an explicit stack, each as the generator `_world`, so the
        modal depth of the input is not bounded by the interpreter's."""
        cache = self.cache
        stack = [(frozenset(entries), self._world(entries))]
        answer = None
        while stack:
            key, world = stack[-1]
            try:
                want = world.send(answer)
            except StopIteration as done:
                stack.pop()
                answer = cache[key] = done.value
            else:
                stack.append((want[0], self._world(want[1])))
                answer = None
        return answer

    def _world(self, pending: list):
        """Saturate one label, branching and backtracking in place.  Each
        successor label not yet in the cache is yielded as (key,
        entries), and its witness or None is sent back; the label's own
        witness, or None, is returned."""
        cache, steps = self.cache, self.steps
        pending = list(pending)
        sign: dict = {}  # formula -> polarity, taken in this branch
        trail = []      # the keys of sign in the order added, for undoing
        boxes = []      # (agent or None, body)
        diamonds = []   # (agent or None, body)
        queue = []      # negated conjunctions, branched on in order
        taken = 0       # queue entries branched on so far
        choices = []    # per open branch: sizes at the branch, other side
        while True:
            closed = False
            while pending:
                f, positive = pending.pop()
                self.budget -= 1
                t = type(f)
                while t is Not or t is Update:
                    if t is Not:
                        f, positive = f.sub, not positive
                    else:  # a step, paid like an entry
                        f = steps.get(f) or _step(f, steps)
                        self.budget -= 1
                    t = type(f)
                if self.budget < 0:
                    raise TableauLimit("tableau node limit exceeded")
                known = sign.get(f)
                if known is not None:
                    if known is positive:
                        continue
                    closed = True
                    break
                sign[f] = positive
                trail.append(f)
                if t is And:
                    if positive:
                        pending.append((f.left, True))
                        pending.append((f.right, True))
                    else:
                        queue.append(f)
                elif t is Bottom:
                    if positive:
                        closed = True
                        break
                elif t is Box or t is Yesterday:
                    rel = f.agent if t is Box else None
                    (boxes if positive else diamonds).append((rel, f.sub))
            if not closed:
                if taken < len(queue):
                    f = queue[taken]
                    taken += 1
                    choices.append((len(trail), len(boxes), len(diamonds),
                                    len(queue), taken, f.right))
                    pending.append((f.left, False))
                    continue
                children = []
                for rel, g in diamonds:
                    label = [(g, False)]
                    label.extend((b, True) for r, b in boxes if r == rel)
                    key = frozenset(label)
                    child = cache.get(key, _UNSEEN)
                    if child is _UNSEEN:
                        child = yield key, label
                    if child is None:
                        closed = True
                        break
                    children.append((rel, child))
                if not closed:
                    return _TreeWorld(frozenset(
                        g.name for g, holds in sign.items()
                        if holds and isinstance(g, Atom)), children)
            if not choices:
                return None
            size, nboxes, ndiamonds, nqueue, taken, other = choices.pop()
            while len(trail) > size:
                del sign[trail.pop()]
            del boxes[nboxes:], diamonds[ndiamonds:], queue[nqueue:]
            pending = [(other, False)]


def _tree_to_model(root: _TreeWorld, sig: Signature) -> PointedModel:
    """The tree's worlds, each distinct one once, named in depth-first
    preorder; a witness shared by several diamonds is one world."""
    names = {node: f"w{i}" for i, node in enumerate(_reachable(
        [root], lambda node: [child for _, child in reversed(node.children)]))}
    # per relation the arrows to the children, None for the [Y] witnesses,
    # each one tick before the world that asked for it
    arrows = {rel: [] for rel in (None, *sig.agents)}
    valuation = {p: [] for p in sig.atoms}
    for node, n in names.items():
        for p in node.atoms:
            valuation[p].append(n)
        for rel, child in node.children:
            arrows[rel].append((n, names[child]))
    yesterday = [(c, n) for n, c in arrows.pop(None)]
    model = KripkeModel(sig=sig, worlds=tuple(names.values()),
                        epistemic=arrows, yesterday=yesterday,
                        valuation=valuation)
    return PointedModel(model, names[root])


def validity(f: Formula, max_nodes: int = DEFAULT_NODE_LIMIT):
    """Decide ⊨ f over all Kripke models.

    Returns (True, None) or (False, countermodel) where the countermodel
    is a pointed model falsifying f.  Raises TableauLimit when the node
    budget is exhausted before a verdict.
    """
    # the signature of f alone (an update node counts its action's atoms
    # and agents), built first so a bad name raises whatever the verdict;
    # with no agent in f, the first of a, a_, a__, ... that is no atom
    atoms = tuple(sorted(f.atoms))
    agent = "a"
    while agent in atoms:
        agent += "_"
    sig = _signature(tuple(sorted(f.agents)) or (agent,), atoms)
    tree = _Tableau(max_nodes).satisfy([(f, False)])
    if tree is None:
        return True, None
    return False, _tree_to_model(tree, sig)


@lru_cache(maxsize=256)
def _signature(agents: tuple, atoms: tuple) -> Signature:
    return Signature(agents, atoms)  # a bad name raises, and is not cached


@lru_cache(maxsize=4096)
def is_valid(f: Formula) -> bool:
    return validity(f)[0]


# ---------------------------------------------------------------------------
# bisimulation

class Bisimulation(Value):
    _fields = ("relation",)  # a frozenset of (world, world) pairs


def _refine(models: tuple[KripkeModel, ...]) -> list[int]:
    """The block of every node of the disjoint union of the models, which
    share a signature, the blocks being the bisimilarity classes.

    Partition refinement over the union, a node numbered by its model's
    offset plus its position and each arrow once; the refinement
    relations are the step toward the past (relation 0) and the epistemic
    successors (the future direction does not discriminate).  Each arrow
    carries the code block[target] * nrel + relation, and a node's
    signature is the set of its out-arrows' codes.
    Blocks are seeded by the atoms true at a node and its depth.  Depth is
    a bisimulation invariant here, since relation 0 steps to the past:
    bisimilar worlds have bisimilar parents, each parent of one matched
    by a parent of the other, so by induction on the smaller depth their
    longest backward paths have the same length, and neither is infinite
    alone.
    Splitting is driven by the nodes that changed block: when a node
    moves, only its in-arrows' codes are rewritten and their sources
    marked, and each round splits the marked nodes off their blocks by
    signature.  A marked node has a successor in a block made in the last
    round, so it never shares its old block's part with a node that was
    not marked.  The largest part keeps the block's id and the others
    move, so a node moves O(log n) times (Hopcroft's "process the smaller
    half", as in Paige–Tarjan and Valmari's O(m log n) refinement).
    """
    nrel = len(models[0].sig.agents) + 1
    # per node its seed block; per arrow its source, target and relation
    block: list[int] = []
    seed: dict[tuple, int] = {}
    src: list[int] = []
    tgt: list[int] = []
    rel: list[int] = []
    for M in models:
        off = len(block)
        atoms = [()] * len(M.worlds)
        for p, ws in M.valuation:
            for w in ws:
                atoms[M._pos[w]] += (p,)
        block.extend([seed.setdefault(key, len(seed))
                      for key in zip(atoms, M._depths)])
        for r, succ in enumerate((M._parent_pos, *M._arrows[1:])):
            src += [x for x, ys in enumerate(succ, off) for _ in ys]
            tgt += [off + y for ys in succ for y in ys]
            rel += [r] * (len(src) - len(rel))
    out: list[list[int]] = [[] for _ in block]
    into: list[list[int]] = [[] for _ in block]
    for i, (x, y) in enumerate(zip(src, tgt)):
        out[x].append(i)
        into[y].append(i)
    code = [block[y] * nrel + r for y, r in zip(tgt, rel)]
    # the members of each block; empty before the first round, which
    # recomputes every node
    members: list[set] = [set() for _ in seed]
    dirty = range(len(block))
    while dirty:
        # the marked nodes, grouped by block and signature
        groups: dict[tuple[int, frozenset[int]], set] = {}
        for x in dirty:
            key = (block[x], frozenset(map(code.__getitem__, out[x])))
            g = groups.get(key)
            if g is None:
                groups[key] = {x}
            else:
                g.add(x)
        parts: dict[int, list[set]] = {}
        for (b, _), g in groups.items():
            parts.setdefault(b, []).append(g)
        dirty = set()
        for b, split in parts.items():
            rest = members[b]
            for g in split:
                rest -= g
            if rest:
                split.append(rest)
            keep = members[b] = max(split, key=len)
            for g in split:
                if g is not keep:
                    nb = len(members)
                    members.append(g)
                    shift = (nb - b) * nrel
                    for y in g:
                        block[y] = nb
                        for i in into[y]:
                            code[i] += shift
                            dirty.add(src[i])
    return block


def bisimilar(A: PointedModel, B: PointedModel) -> Bisimulation | None:
    """Largest bisimulation between the two models, the pairs of worlds
    `_refine` puts in one block, if it links the two points, else None."""
    if A.model.sig != B.model.sig:
        raise ValueError("bisimulation requires a shared signature")
    block = _refine((A.model, B.model))
    n = len(A.model.worlds)
    if block[A.model._pos[A.point]] != block[n + B.model._pos[B.point]]:
        return None
    by_block: dict[int, list[str]] = {}
    for v, b in zip(B.model.worlds, block[n:]):
        by_block.setdefault(b, []).append(v)
    return Bisimulation(frozenset((w, v)
                                  for w, b in zip(A.model.worlds, block)
                                  for v in by_block.get(b, ())))

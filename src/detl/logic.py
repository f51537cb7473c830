"""Executable metatheory: reduction to the update-free fragment, a
validity decision procedure (reduction + multimodal K tableau),
bisimulation by partition refinement, and the ♯ translation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .action import FLAT, ActionModel, is_atemporal_action, is_past_state
from .formula import (And, Atom, Bottom, Box, Formula, Not, Signature, TOP,
                      Update, Yesterday, conj, diamond, dia_yesterday,
                      implies, map_updates)
from .kripke import KripkeModel, PointedModel

DEFAULT_NODE_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# reduction

def reduce_formula(f: Formula) -> Formula:
    """Update-free equivalent of f.

    Innermost-first (see `map_updates`): preconditions are reduced before
    the update that carries them is pushed through its body, so the push
    step only ever sees update-free material.  Each distinct node is
    mapped once, and one push memo, keyed by (action, event, node),
    serves the whole call, so each shared subformula is pushed once per
    event: the work follows the distinct nodes of the result, not its
    size as a tree.
    """
    memo: dict = {}
    return map_updates(
        f, lambda U, e, g: _push(_reduce_action(U), e, g, memo))


@lru_cache(maxsize=1024)
def _reduce_action(U: ActionModel) -> ActionModel:
    return ActionModel(
        sig=U.sig, events=U.events, epistemic=U.epi, yesterday=U.yesterday,
        pre={e: reduce_formula(p) for e, p in U.pre}, name=U.name)


def _push(U: ActionModel, s: str, f: Formula, memo: dict) -> Formula:
    """Rewrite [U,s]f into the update-free fragment; f and all of U's
    preconditions are update-free already."""
    key = (U, s, f)
    out = memo.get(key)
    if out is not None:
        return out
    pre = U.pre_map[s]
    if isinstance(f, (Atom, Bottom)):
        out = implies(pre, f)
    elif isinstance(f, Not):
        out = implies(pre, Not(_push(U, s, f.sub, memo)))
    elif isinstance(f, And):
        out = And(_push(U, s, f.left, memo), _push(U, s, f.right, memo))
    elif isinstance(f, Box):
        out = implies(pre, conj(Box(f.agent, _push(U, s2, f.sub, memo))
                                for s2 in U.succ(f.agent, s)))
    elif isinstance(f, Yesterday):
        if is_past_state(U, s):
            out = implies(pre, Yesterday(_push(U, s, f.sub, memo)))
        else:
            out = implies(pre, conj(_push(U, s2, f.sub, memo)
                                    for s2 in U.yesterdays(s)))
    else:
        raise TypeError(f"unexpected update inside a reduced body: {f!r}")
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# tableau for multimodal K (each box independent, no frame conditions)

class TableauLimit(Exception):
    """Raised when the node budget runs out; distinct from invalidity."""


@dataclass
class _TreeWorld:
    atoms: FrozenSet[str]
    children: List[Tuple[tuple, "_TreeWorld"]]


class _Tableau:
    def __init__(self, budget: int):
        self.budget = budget

    def tick(self):
        self.budget -= 1
        if self.budget < 0:
            raise TableauLimit("tableau node limit exceeded")

    def satisfy(self, pending: list) -> Optional[_TreeWorld]:
        """A tree model of the (formula, polarity) entries, or None.  A
        negative entry stands for the formula's negation, so splitting a
        negated conjunction builds no new nodes."""
        return self._expand(list(pending), frozenset(), frozenset(), {}, ())

    def _expand(self, pending, pos, neg, boxes, diamonds):
        while pending:
            self.tick()
            f, positive = pending.pop()
            if positive and isinstance(f, Not):
                f, positive = f.sub, False
            if positive:
                if isinstance(f, Bottom):
                    return None
                if isinstance(f, Atom):
                    if f.name in neg:
                        return None
                    pos = pos | {f.name}
                elif isinstance(f, And):
                    pending.append((f.left, True))
                    pending.append((f.right, True))
                elif isinstance(f, Box):
                    key = ("K", f.agent)
                    boxes = {**boxes, key: boxes.get(key, ()) + (f.sub,)}
                elif isinstance(f, Yesterday):
                    key = ("Y",)
                    boxes = {**boxes, key: boxes.get(key, ()) + (f.sub,)}
                else:
                    raise TypeError(f"update reached the tableau: {f!r}")
            elif isinstance(f, Bottom):
                pass
            elif isinstance(f, Atom):
                if f.name in pos:
                    return None
                neg = neg | {f.name}
            elif isinstance(f, Not):
                pending.append((f.sub, True))
            elif isinstance(f, And):
                left = self._expand(pending + [(f.left, False)],
                                    pos, neg, boxes, diamonds)
                if left is not None:
                    return left
                pending.append((f.right, False))
            elif isinstance(f, Box):
                diamonds = diamonds + ((("K", f.agent), f.sub),)
            elif isinstance(f, Yesterday):
                diamonds = diamonds + ((("Y",), f.sub),)
            else:
                raise TypeError(f"update reached the tableau: {f!r}")
        children = []
        for rel, g in diamonds:
            sub = self.satisfy([(g, False),
                                *((b, True) for b in boxes.get(rel, ()))])
            if sub is None:
                return None
            children.append((rel, sub))
        return _TreeWorld(pos, children)


def _tree_to_model(root: _TreeWorld, sig: Signature) -> PointedModel:
    names = {}
    order = []

    def walk(node):
        name = f"w{len(order)}"
        names[id(node)] = name
        order.append(node)
        for _, child in node.children:
            walk(child)

    walk(root)
    epistemic = {a: set() for a in sig.agents}
    yesterday = set()
    valuation = {p: set() for p in sig.atoms}
    for node in order:
        n = names[id(node)]
        for p in node.atoms:
            valuation[p].add(n)
        for rel, child in node.children:
            c = names[id(child)]
            if rel[0] == "K":
                epistemic[rel[1]].add((n, c))
            else:
                # the child is a witness one tick before this world
                yesterday.add((c, n))
    model = KripkeModel(sig=sig, worlds=tuple(names.values()),
                        epistemic=epistemic, yesterday=yesterday,
                        valuation=valuation)
    return PointedModel(model, names[id(root)])


def validity(f: Formula, max_nodes: int = DEFAULT_NODE_LIMIT):
    """Decide ⊨ f over all Kripke models.

    Returns (True, None) or (False, countermodel) where the countermodel
    is a pointed model falsifying f.  Raises TableauLimit when the node
    budget is exhausted before a verdict.
    """
    g = reduce_formula(f)
    # signature from the original formula too: reduction can drop atoms
    # (vacuous boxes) and countermodels must still evaluate the original
    agents = sorted(f.agents | g.agents) or ["a"]
    atoms = sorted(f.atoms | g.atoms)
    sig = Signature(tuple(agents), tuple(atoms))
    tree = _Tableau(max_nodes).satisfy([(g, False)])
    if tree is None:
        return True, None
    return False, _tree_to_model(tree, sig)


@lru_cache(maxsize=4096)
def is_valid(f: Formula, max_nodes: int = DEFAULT_NODE_LIMIT) -> bool:
    return validity(f, max_nodes)[0]


# ---------------------------------------------------------------------------
# bisimulation

@dataclass(frozen=True)
class Bisimulation:
    relation: FrozenSet[Tuple[str, str]]


def bisimilar(A: PointedModel, B: PointedModel) -> Optional[Bisimulation]:
    """Largest bisimulation between the two models if it links the two
    points, else None.

    Partition refinement over the disjoint union, numbered once; the
    refinement relations are the epistemic successors plus the step
    toward the past (the future direction does not discriminate).  A
    node's signature is the set of (relation, block) of its successors.
    Splitting is driven by the nodes that changed block: each round
    recomputes the signatures of their predecessors only and splits
    those off their blocks by signature.  A recomputed node has a
    successor in a block made in the last round, so it never shares its
    old block's part with a node that was not recomputed.  The largest
    part keeps the block's id and the others move, so a node moves
    O(log n) times (Hopcroft's "process the smaller half", as in
    Paige–Tarjan and Valmari's O(m log n) refinement).
    """
    if A.model.sig != B.model.sig:
        raise ValueError("bisimulation requires a shared signature")
    agents = A.model.sig.agents
    nrel = len(agents) + 1
    # per node, (successor index, relation) with relation 0 the step
    # toward the past; initial blocks by atom valuation
    succ: List[List[Tuple[int, int]]] = []
    block: List[int] = []
    seed: Dict[FrozenSet[str], int] = {}
    points = []
    for pm in (A, B):
        M = pm.model
        index = {w: len(succ) + i for i, w in enumerate(M.worlds)}
        points.append(index[pm.point])
        for w in M.worlds:
            out = [(index[v], 0) for v in M.yesterdays(w)]
            for r, a in enumerate(agents, 1):
                out.extend((index[v], r) for v in M.succ(a, w))
            succ.append(out)
            block.append(seed.setdefault(M.atoms_at(w), len(seed)))
    pred: List[List[int]] = [[] for _ in succ]
    for x, out in enumerate(succ):
        for j, _ in out:
            pred[j].append(x)
    # the members of each block; empty before the first round, which
    # recomputes every node
    members: List[set] = [set() for _ in seed]
    dirty = range(len(succ))
    while dirty:
        # the recomputed nodes, grouped by block and signature
        groups: Dict[Tuple[int, FrozenSet[int]], set] = {}
        for x in dirty:
            key = (block[x], frozenset([block[j] * nrel + r
                                        for j, r in succ[x]]))
            g = groups.get(key)
            if g is None:
                groups[key] = {x}
            else:
                g.add(x)
        parts: Dict[int, List[set]] = {}
        for (b, _), g in groups.items():
            parts.setdefault(b, []).append(g)
        moved = []
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
                    for x in g:
                        block[x] = nb
                    moved.extend(g)
        dirty = {x for y in moved for x in pred[y]}
    if block[points[0]] != block[points[1]]:
        return None
    n = len(A.model.worlds)
    by_block: Dict[int, List[str]] = {}
    for v, b in zip(B.model.worlds, block[n:]):
        by_block.setdefault(b, []).append(v)
    return Bisimulation(frozenset((w, v)
                                  for w, b in zip(A.model.worlds, block)
                                  for v in by_block.get(b, ())))


# ---------------------------------------------------------------------------
# ♯ translation

def sharp_action(U: ActionModel) -> ActionModel:
    """Adjoin a fresh epistemic past state ♭ below every event of an
    atemporal action, its preconditions ♯-translated; built once per
    action model."""
    if not is_atemporal_action(U):
        raise ValueError("♯ is defined on atemporal actions only")
    return U._sharp


def _adjoin_flat(U: ActionModel) -> ActionModel:
    epistemic = {a: set(pairs) | {(FLAT, FLAT)} for a, pairs in U.epi.items()}
    return ActionModel(
        sig=U.sig,
        events=U.events + (FLAT,),
        epistemic=epistemic,
        yesterday={(FLAT, s) for s in U.events},
        pre={**{e: sharp_formula(p) for e, p in U.pre}, FLAT: TOP},
        name=U.name + "_sharp",
    )


def sharp_formula(f: Formula) -> Formula:
    """f with the action of every update modality replaced by its ♯ (see
    `map_updates`): only the nodes above an update are rebuilt, each
    distinct one once."""
    return map_updates(
        f, lambda U, e, g: Update(sharp_action(U), e, g))


# ---------------------------------------------------------------------------
# finite language probe

@dataclass(frozen=True)
class ProbeVerdict:
    agree: bool
    distinguishing: Optional[Formula] = None


def formula_pool(sig: Signature, max_depth: int = 3,
                 max_pool: int = 20000) -> List[Formula]:
    """Update-free formulas up to the given modal depth: literal
    conjunctions at the base, all four modalities layered on top.
    Negations are omitted since a disagreement on φ is one on ¬φ."""
    base: List[Formula] = [Atom(p) for p in sig.atoms]
    lits = base + [Not(b) for b in base]
    for i, l1 in enumerate(lits):
        for l2 in lits[i + 1:]:
            base.append(And(l1, l2))
    base.append(Yesterday(Bottom()))
    pool = list(base)
    layer = list(base)
    for _ in range(max_depth):
        nxt = []
        for f in layer:
            for a in sig.agents:
                nxt.append(Box(a, f))
                nxt.append(diamond(a, f))
            nxt.append(Yesterday(f))
            nxt.append(dia_yesterday(f))
        pool.extend(nxt)
        layer = nxt
        if len(pool) > max_pool:
            del pool[max_pool:]
            break
    return pool


def language_equivalence_probe(A: PointedModel, B: PointedModel,
                               max_depth: int = 3,
                               updates: tuple = (),
                               max_pool: int = 20000) -> ProbeVerdict:
    """Evaluate a finite pool of formulas at both points; report the first
    disagreement.  `updates` is a sequence of (action, event) prefixes
    additionally wrapped around each pooled formula."""
    from .semantics import evaluate

    if A.model.sig != B.model.sig:
        raise ValueError("probe requires a shared signature")
    pool = formula_pool(A.model.sig, max_depth, max_pool)
    candidates = list(pool)
    for U, s in updates:
        candidates.extend(Update(U, s, f) for f in pool)
    for f in candidates[:max_pool]:
        if evaluate(A.model, A.point, f) != evaluate(B.model, B.point, f):
            return ProbeVerdict(False, f)
    return ProbeVerdict(True)

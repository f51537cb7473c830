"""Finite Kripke models with a yesterday relation, on a frame core shared
with action models.

A frame is a set of nodes (the worlds of a Kripke model, the events of an
action model) with per-agent epistemic arrows and a yesterday relation of
pairs (x, y) meaning x lies one tick before y.  `Frame` canonicalises and
validates both relations once and caches the views that evaluation,
property checks and depth queries read.  Depth of a node is the length of
the longest history (a backward path that cannot be extended further into
the past) ending at it, and is infinite when a backward-reachable cycle
makes histories unbounded.
"""

from __future__ import annotations

import re
from functools import cached_property

from .formula import RESERVED, Value, _reachable

INFINITE = float("inf")

KRIPKE_PROPERTIES = (
    "persistence_of_facts",
    "depth_definedness",
    "knowledge_of_past",
    "knowledge_of_initial_time",
    "uniqueness_of_past",
    "perfect_recall",
    "synchronicity",
)

RESTRICTED_PROPERTIES = KRIPKE_PROPERTIES[:6]

# the drawing conventions `close_pairs` applies to a relation
CLOSURE_MODES = ("none", "reflexive", "symmetric", "transitive", "s5")


class PropertyReport(Value):
    _fields = ("property", "holds", "witness")
    witness: tuple | None = None

    def __bool__(self):
        return self.holds


def _canon_pairs(pairs, nodes: set, relation: str, kind: str) -> tuple:
    out, last = [], None
    for e in sorted(map(tuple, pairs)):
        if e != last:
            x, y = last = e
            if x not in nodes or y not in nodes:
                raise ValueError(f"{relation} arrow {x}->{y} off the {kind} set")
            out.append(e)
    return tuple(out)


class Frame(Value):
    """Nodes, per-agent epistemic arrows and a yesterday relation: the
    structure Kripke models (worlds) and action models (events) share.

    Subclasses are values whose fields begin `sig`, the node tuple,
    `epistemic` and `yesterday`.  They expose the node tuple as `nodes`,
    name a node in messages with `_KIND` and check a node name with
    `_check_name`.  The hash and every view below are computed once per
    model.
    """

    val = None  # the valuation view of a Kripke model; action models have none

    def _canonicalise(self) -> tuple:
        """Sort the relations as given (linear on input already nearly in
        order, which a set would scramble), drop repeats, in place, and
        return the sorted node tuple; reject an empty node set, a bad node
        name, an unknown agent and any arrow off the node set."""
        kind = self._KIND
        nodes = tuple(dict.fromkeys(sorted(self.nodes)))
        if not nodes:
            raise ValueError(f"a model needs at least one {kind}")
        for n in nodes:
            self._check_name(n)
        nset = set(nodes)
        epi_in = dict(self.epistemic)
        epi = tuple((a, _canon_pairs(epi_in.get(a, ()), nset, "epistemic", kind))
                    for a in self.sig.agents)
        extra = set(epi_in) - set(self.sig.agents)
        if extra:
            raise ValueError(f"unknown agents in epistemic relation: {sorted(extra)}")
        object.__setattr__(self, "epistemic", epi)
        object.__setattr__(self, "yesterday",
                           _canon_pairs(self.yesterday, nset, "yesterday", kind))
        return nodes

    # -- derived views -----------------------------------------------------

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the compared fields, computed once: update caches
        and formula nodes key on models."""
        return hash(self._key())

    @cached_property
    def epi(self) -> dict[str, frozenset[tuple[str, str]]]:
        return {a: frozenset(pairs) for a, pairs in self.epistemic}

    def _lists(self, pairs) -> dict[str, tuple]:
        """The nodes y of the pairs (x, y) at each node x, in pair order."""
        m: dict[str, list] = {n: [] for n in self.nodes}
        for x, y in pairs:
            m[x].append(y)
        return {n: tuple(vs) for n, vs in m.items()}

    @cached_property
    def _succ(self) -> dict[str, dict[str, tuple]]:
        """Per agent, the sorted successors of every node."""
        return {a: self._lists(pairs) for a, pairs in self.epistemic}

    @cached_property
    def _parents(self) -> dict[str, tuple]:
        """The sorted yesterday-predecessors of every node."""
        return self._lists((y, x) for x, y in self.yesterday)

    @cached_property
    def _children(self) -> dict[str, tuple]:
        """The sorted nodes one tick after every node."""
        return self._lists(self.yesterday)

    @cached_property
    def _pos(self) -> dict[str, int]:
        """Each node's position: bit i of a node-set mask is `nodes[i]`."""
        return {n: i for i, n in enumerate(self.nodes)}

    def _masks(self, pairs) -> list:
        """By position, the mask of the ys of the pairs (x, y) at x and the
        mask of the nodes sharing it: one shared pair per distinct mask."""
        pos, out = self._pos, [0] * len(self.nodes)
        for x, y in pairs:
            out[pos[x]] |= 1 << pos[y]
        twins = {}
        for i, m in enumerate(out):
            twins[m] = twins.get(m, 0) | 1 << i
        shared = {m: (m, ts) for m, ts in twins.items()}
        return [shared[m] for m in out]

    @cached_property
    def _succ_masks(self) -> dict[str, list]:
        """Per agent, the successor and twin masks of each position."""
        return {a: self._masks(pairs) for a, pairs in self.epistemic}

    @cached_property
    def _parent_masks(self) -> list:
        """The yesterday-predecessor and twin masks of each position."""
        return self._masks((y, x) for x, y in self.yesterday)

    @cached_property
    def _depths(self) -> dict:
        """Longest-backward-path length per node; INFINITE past any ⇝-cycle.

        Kahn's algorithm over the yesterday edges: the nodes it never
        reaches, which keep INFINITE, are those whose past meets a cycle.
        """
        indeg = {n: len(ps) for n, ps in self._parents.items()}
        children = self._children
        depth = dict.fromkeys(self.nodes, INFINITE)
        queue = [n for n in self.nodes if indeg[n] == 0]
        for n in queue:
            depth[n] = 0
        while queue:
            n = queue.pop()
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    depth[c] = 1 + max(depth[p] for p in self._parents[c])
                    queue.append(c)
        return depth

    @cached_property
    def _reports(self) -> dict[str, PropertyReport]:
        """The report of each frame property checked so far."""
        return {}

    def _report(self, prop: str) -> PropertyReport:
        rep = self._reports.get(prop)
        if rep is None:
            rep = self._reports[prop] = check_frame_property(prop, self)
        return rep

    @cached_property
    def _restricted(self) -> PropertyReport:
        for prop in RESTRICTED_PROPERTIES:
            rep = self._report(prop)
            if not rep.holds:
                return PropertyReport("restricted", False, (prop,) + rep.witness)
        return PropertyReport("restricted", True)

    def succ(self, agent: str, n: str) -> tuple:
        return self._succ[agent][n]

    def yesterdays(self, n: str) -> tuple:
        """Nodes one tick before n."""
        return self._parents[n]

    def _require(self, n: str):
        if n not in self._pos:
            raise KeyError(f"unknown {self._KIND} {n!r}")


# a world name is an identifier, then one "|event" per update that made it,
# the event an identifier or the flat marker ♭; one match per name, as
# every update result checks all its names again
_IDENT = r"(?!(?:%s)\b)[A-Za-z_][A-Za-z0-9_]*" % "|".join(sorted(RESERVED))
_WORLD_RE = re.compile(rf"{_IDENT}(?:\|(?:{_IDENT}|♭))*\Z")


def _check_world_name(w: str):
    if not _WORLD_RE.match(w):
        raise ValueError(f"bad world: {w!r}")


class KripkeModel(Frame):
    # epistemic ((agent, ((x, y), ...)), ...) for every agent in sig,
    # yesterday ((x, y), ...) with x one tick before y, valuation
    # ((atom, (w, ...)), ...) for every atom in sig
    _fields = ("sig", "worlds", "epistemic", "yesterday", "valuation")

    _KIND = "world"
    _check_name = staticmethod(_check_world_name)
    nodes = property(lambda self: self.worlds)
    require_world = Frame._require

    def _post_init(self):
        object.__setattr__(self, "worlds", self._canonicalise())
        val_in = dict(self.valuation)
        val = []
        for p in self.sig.atoms:
            ws = tuple(dict.fromkeys(sorted(val_in.get(p, ()))))
            if not self._pos.keys() >= set(ws):
                raise ValueError(f"valuation of {p} mentions unknown worlds")
            val.append((p, ws))
        extra = set(val_in) - set(self.sig.atoms)
        if extra:
            raise ValueError(f"unknown atoms in valuation: {sorted(extra)}")
        object.__setattr__(self, "valuation", tuple(val))

    @cached_property
    def val(self) -> dict[str, frozenset[str]]:
        return {p: frozenset(ws) for p, ws in self.valuation}

    @cached_property
    def _val_masks(self) -> dict[str, int]:
        """The mask of the worlds where each atom holds."""
        pos = self._pos
        return {p: sum(1 << pos[w] for w in ws) for p, ws in self.valuation}

    def atoms_at(self, w: str) -> frozenset[str]:
        return frozenset(p for p, ws in self.val.items() if w in ws)


class PointedModel(Value):
    _fields = ("model", "point")

    def _post_init(self):
        self.model.require_world(self.point)


def depth(F: Frame, n: str):
    """Depth of a world or an event (see the module docstring)."""
    F._require(n)
    return F._depths[n]


def is_initial(F: Frame, n: str) -> bool:
    """n is an initial world, or an event that is a past state."""
    F._require(n)
    return not F.yesterdays(n)


# ---------------------------------------------------------------------------
# properties, shared between Kripke and action models

def check_frame_property(prop: str, frame: Frame) -> PropertyReport:
    """Evaluate one defining condition over a frame's cached views.

    Works for Kripke models and action models (no valuation, persistence
    vacuous).  Witnesses list the violating items in the order the
    condition quantifies them.  Callers read the report through
    `Frame._report`, which computes it once per frame.
    """
    nodes, yesterday, valuation = frame.nodes, frame.yesterday, frame.val
    parents, succ, agents = frame._parents, frame._succ, sorted(frame._succ)

    if prop == "persistence_of_facts":
        if valuation is not None:
            for w, w2 in yesterday:
                for p, ws in valuation.items():
                    if (w in ws) != (w2 in ws):
                        return PropertyReport(prop, False, (w, w2, p))
        return PropertyReport(prop, True)

    if prop == "depth_definedness":
        for n in nodes:
            if frame._depths[n] == INFINITE:
                return PropertyReport(prop, False, (n,))
        return PropertyReport(prop, True)

    if prop == "knowledge_of_past":
        for w2, w in yesterday:
            for a in agents:
                for v in succ[a][w]:
                    if not parents[v]:
                        return PropertyReport(prop, False, (w2, w, a, v))
        return PropertyReport(prop, True)

    if prop == "knowledge_of_initial_time":
        for w in nodes:
            if parents[w]:
                continue
            for a in agents:
                for v in succ[a][w]:
                    if parents[v]:
                        return PropertyReport(prop, False, (w, a, v))
        return PropertyReport(prop, True)

    if prop == "uniqueness_of_past":
        for w in nodes:
            ps = parents[w]
            if len(ps) > 1:
                return PropertyReport(prop, False, (w, ps[0], ps[1]))
        return PropertyReport(prop, True)

    if prop == "perfect_recall":
        # per (w, a), the nodes one tick after an a-successor of w, built
        # once for all the pairs (w, v) that share w
        children, last = frame._children, None
        for w, v in yesterday:
            if w != last:
                last = w
                later = {a: {c for u in succ[a][w] for c in children[u]}
                         for a in agents}
            for a in agents:
                if not later[a].issuperset(succ[a][v]):
                    v2 = next(v2 for v2 in succ[a][v] if v2 not in later[a])
                    return PropertyReport(prop, False, (w, v, a, v2))
        return PropertyReport(prop, True)

    if prop == "synchronicity":
        dd = frame._report("depth_definedness")
        if not dd.holds:
            return PropertyReport(prop, False, dd.witness)
        depths = frame._depths
        for a in agents:
            for w in nodes:
                for v in succ[a][w]:
                    if depths[w] != depths[v]:
                        return PropertyReport(
                            prop, False, (w, a, v, depths[w], depths[v]))
        return PropertyReport(prop, True)

    raise ValueError(f"unknown property {prop!r}")


def check_property(M: KripkeModel, prop: str) -> PropertyReport:
    return M._report(prop)


def is_restricted(M: Frame) -> PropertyReport:
    """Forest-likeness: the six conditions short of synchronicity (which
    then follows), checked once per model.  Persistence of facts is
    vacuous on an action model."""
    return M._restricted


# ---------------------------------------------------------------------------
# submodels and closure

def generated_submodel(M: KripkeModel, w: str) -> KripkeModel:
    """Restriction of M to worlds reachable from w via epistemic arrows
    (forward) and yesterday arrows toward the past."""
    M.require_world(w)
    seen = _reachable([w], lambda x: (*M.yesterdays(x), *(
        y for a in M.sig.agents for y in M.succ(a, x))))
    return KripkeModel(
        sig=M.sig,
        worlds=[x for x in M.worlds if x in seen],
        epistemic={a: [e for e in pairs if e[0] in seen and e[1] in seen]
                   for a, pairs in M.epistemic},
        yesterday=[e for e in M.yesterday if e[0] in seen and e[1] in seen],
        valuation={p: [x for x in ws if x in seen] for p, ws in M.valuation},
    )


def _transitive(pairs: set) -> set:
    """Pairs (x, z) with z reachable from x in one or more steps."""
    succ: dict[str, list] = {n: [] for e in pairs for n in e}
    for x, y in pairs:
        succ[x].append(y)
    return {(x, z) for x, ys in succ.items()
            for z in _reachable(ys, succ.__getitem__)}


def close_pairs(pairs, nodes, mode: str) -> set:
    if mode not in CLOSURE_MODES:
        raise ValueError(f"unknown closure mode {mode!r}")
    out = set(map(tuple, pairs))
    if mode in ("reflexive", "s5"):
        out |= {(n, n) for n in nodes}
    if mode in ("symmetric", "s5"):
        out |= {(y, x) for x, y in out}
    if mode in ("transitive", "s5"):
        out = _transitive(out)
    return out


def relation_closure(M: KripkeModel, mode: str) -> KripkeModel:
    return KripkeModel(
        sig=M.sig,
        worlds=M.worlds,
        epistemic={a: close_pairs(pairs, M.worlds, mode)
                   for a, pairs in M.epi.items()},
        yesterday=M.yesterday,
        valuation=M.valuation,
    )

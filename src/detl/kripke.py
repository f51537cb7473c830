"""Finite Kripke models with a yesterday relation, on a frame core shared
with action models.

A frame is a set of nodes (the worlds of a Kripke model, the events of an
action model) with per-agent epistemic arrows and a yesterday relation of
pairs (x, y) meaning x lies one tick before y.  `Frame` validates both
once, keeps them as successor positions over its sorted nodes, builds
their pair tuples only when asked and caches the views that evaluation
and depth queries read, and every report it gives (see `Frame._report`).
Depth of a node is the length of the longest history (a backward path
that cannot be extended further into the past) ending at it, and is
infinite when a backward-reachable cycle makes histories unbounded.
"""

from __future__ import annotations

import re
import weakref
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


def _shared(succ) -> tuple:
    """succ as a tuple in which equal successor tuples are one object."""
    seen = {}
    return tuple([seen.setdefault(js, js) for js in succ])


def _successors(pairs, pos: dict, relation: str, kind: str) -> tuple:
    """By position x, the sorted distinct ys of the pairs (x, y), each list
    of ys sorted once and equal results one tuple object; only an arrow off
    the node set sorts the pairs, to name the first such."""
    if not pairs:
        return ((),) * len(pos)
    out = [[] for _ in pos]
    try:
        for x, y in pairs:
            out[pos[x]].append(pos[y])
    except KeyError:  # the arrows before (x, y) were on the node set
        x, y = min(e for e in [(x, y), *map(tuple, pairs)]
                   if not pos.keys() >= set(e))
        raise ValueError(f"{relation} arrow {x}->{y} off the {kind} set") from None
    memo = {}  # a list of ys, or a result, -> the result
    for x, ys in enumerate(map(tuple, out)):
        if (js := memo.get(ys)) is None:
            js = tuple(sorted(set(ys)))
            js = memo[ys] = memo.setdefault(js, js)
        out[x] = js
    return tuple(out)


class Frame(Value):
    """Nodes, per-agent epistemic arrows and a yesterday relation: the
    structure Kripke models (worlds) and action models (events) share.

    Subclasses are values whose fields begin `sig`, the node tuple,
    `epistemic` and `yesterday`.  They expose the node tuple as `nodes`,
    name a node in messages with `_KIND`, check a node name with
    `_check_name` and list their report names in `REPORTS`, last the one
    `detl check` prints only when asked.  The relations are kept in one
    store, `_arrows`: yesterday's, then each agent's in signature order,
    each holding at every node position the sorted successor positions.
    `epistemic` and `yesterday` build the pair tuples from it on each
    access, and `succ` and `yesterdays` name one node's neighbours on each
    call; equality, the hash and the cached views below read the store.
    Within one relation, equal successor sets are one tuple object.
    """

    _val_masks = None  # the valuation view of a Kripke model; actions have none

    def _canonicalise(self) -> tuple:
        """The sorted nodes, the relation store (repeats dropped) and the
        node positions; reject, in this order, no node, a bad node name, an
        epistemic arrow off the nodes, an unknown agent, then yesterday's."""
        kind, given = self._KIND, self.__dict__
        nodes = tuple(dict.fromkeys(sorted(self.nodes)))
        if not nodes:
            raise ValueError(f"a model needs at least one {kind}")
        for n in nodes:
            self._check_name(n)
        pos = {n: i for i, n in enumerate(nodes)}
        epi_in = dict(given.pop("epistemic"))
        epi = [_successors(epi_in.get(a, ()), pos, "epistemic", kind)
               for a in self.sig.agents]
        if extra := set(epi_in) - set(self.sig.agents):
            raise ValueError(f"unknown agents in epistemic relation: {sorted(extra)}")
        yesterday = _successors(given.pop("yesterday"), pos, "yesterday", kind)
        return nodes, (yesterday, *epi), pos

    def _store(self, arrows: tuple, pos: dict, **fields):
        """Set the relation store, the node positions (mask bit i: nodes[i])
        and the canonical fields given: the one place they are set, by the
        constructors and by `product_update`."""
        self.__dict__.update(fields, _arrows=arrows, _pos=pos)
        return self

    def _pairs(self, succ) -> tuple:
        nodes = self.nodes
        return tuple([(x, nodes[j]) for x, js in zip(nodes, succ) for j in js])

    @property
    def epistemic(self) -> tuple:
        """((agent, ((x, y), ...)), ...) for every agent of the signature."""
        return tuple(zip(self.sig.agents, map(self._pairs, self._arrows[1:])))

    @property
    def yesterday(self) -> tuple:
        """((x, y), ...) with x one tick before y."""
        return self._pairs(self._arrows[0])

    # -- derived views -----------------------------------------------------

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the compared fields, computed once: the update
        cache and formula nodes key on actions."""
        return hash(self._key())

    @cached_property
    def epi(self) -> dict[str, frozenset[tuple[str, str]]]:
        """Per agent, the set of its pairs, built when first asked for."""
        return {a: frozenset(pairs) for a, pairs in self.epistemic}

    @cached_property
    def _parent_pos(self) -> tuple:
        """By position, the sorted positions one tick before it, `_shared`."""
        out = [[] for _ in self.nodes]
        for x, ys in enumerate(self._arrows[0]):
            for y in ys:
                out[y].append(x)
        return _shared(map(tuple, out))

    def _masks(self, succ) -> list:
        """By position, the mask of its positions in succ and the mask of
        the nodes sharing them: one pair per distinct successor tuple,
        told apart by value, so each mask is summed once."""
        twins = {}
        for i, js in enumerate(succ):
            twins[js] = twins.get(js, 0) | 1 << i
        shared = {js: (sum([1 << j for j in js]), ts)
                  for js, ts in twins.items()}
        return [shared[js] for js in succ]

    @cached_property
    def _succ_masks(self) -> dict[str, list]:
        """Per agent, the successor and twin masks of each position."""
        return dict(zip(self.sig.agents, map(self._masks, self._arrows[1:])))

    @cached_property
    def _parent_masks(self) -> list:
        """The yesterday-predecessor and twin masks of each position."""
        return self._masks(self._parent_pos)

    @cached_property
    def _depths(self) -> list:
        """Per position, the longest backward path; INFINITE past a ⇝-cycle.

        Kahn's algorithm over the yesterday edges: the nodes it never
        reaches, which keep INFINITE, are those whose past meets a cycle.
        """
        parents, children = self._parent_pos, self._arrows[0]
        indeg = list(map(len, parents))
        depth = [INFINITE] * len(indeg)
        queue = [i for i, d in enumerate(indeg) if d == 0]
        for i in queue:
            depth[i] = 0
        while queue:
            i = queue.pop()
            for c in children[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    depth[c] = 1 + max(map(depth.__getitem__, parents[c]))
                    queue.append(c)
        return depth

    @cached_property
    def _reports(self) -> dict[str, PropertyReport]:
        """The report of each name checked so far, or a product inherited."""
        return {}

    def _report(self, name: str) -> PropertyReport:
        """The report of that name, computed by `_check` once per frame."""
        rep = self._reports.get(name)
        if rep is None:
            rep = self._reports[name] = self._check(name)
        return rep

    def _check(self, name: str) -> PropertyReport:
        """A frame property, or `restricted`: the first of the six
        restricted properties that fails.  Action models add two names."""
        if name != "restricted":
            return check_frame_property(name, self)
        for prop in RESTRICTED_PROPERTIES:
            if not (rep := self._report(prop)):
                return PropertyReport(name, False, (prop,) + rep.witness)
        return PropertyReport(name, True)

    def succ(self, agent: str, n: str) -> tuple:
        """The sorted agent-successors of n; KeyError for an unknown name."""
        arrows = self._arrows[1 + self.sig._place[agent]]
        return tuple(map(self.nodes.__getitem__, arrows[self._pos[n]]))

    def yesterdays(self, n: str) -> tuple:
        """The sorted nodes one tick before n."""
        return tuple(map(self.nodes.__getitem__, self._parent_pos[self._pos[n]]))

    def _require(self, n: str):
        if n not in self._pos:
            raise KeyError(f"unknown {self._KIND} {n!r}")


# a world name is an identifier, then one "|event" per update that made it,
# the event an identifier or the flat marker ♭
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
    _compared = ("sig", "worlds", "_arrows", "valuation")

    _KIND = "world"
    REPORTS = KRIPKE_PROPERTIES + ("restricted",)
    _check_name = staticmethod(_check_world_name)
    nodes = property(lambda self: self.worlds)
    require_world = Frame._require

    def _post_init(self):
        worlds, arrows, pos = self._canonicalise()
        val_in = dict(self.valuation)
        val = []
        for p in self.sig.atoms:
            ws = tuple(dict.fromkeys(sorted(val_in.get(p, ()))))
            if not pos.keys() >= set(ws):
                raise ValueError(f"valuation of {p} mentions unknown worlds")
            val.append((p, ws))
        extra = set(val_in) - set(self.sig.atoms)
        if extra:
            raise ValueError(f"unknown atoms in valuation: {sorted(extra)}")
        self._store(arrows, pos, worlds=worlds, valuation=tuple(val))

    @cached_property
    def val(self) -> dict[str, frozenset[str]]:
        return {p: frozenset(ws) for p, ws in self.valuation}

    @cached_property
    def _val_masks(self) -> dict[str, int]:
        """The mask of the worlds where each atom holds."""
        pos = self._pos
        return {p: sum(1 << pos[w] for w in ws) for p, ws in self.valuation}

    @cached_property
    def _products(self) -> weakref.WeakKeyDictionary:
        """The product by each action updated with so far, dropped with
        the action (see `product_update`)."""
        return weakref.WeakKeyDictionary()

    def atoms_at(self, w: str) -> frozenset[str]:
        return frozenset(p for p, ws in self.val.items() if w in ws)


class PointedModel(Value):
    _fields = ("model", "point")

    def _post_init(self):
        self.model.require_world(self.point)


def depth(F: Frame, n: str):
    """Depth of a world or an event (see the module docstring)."""
    F._require(n)
    return F._depths[F._pos[n]]


def is_initial(F: Frame, n: str) -> bool:
    """n is an initial world, or an event that is a past state."""
    F._require(n)
    return not F.yesterdays(n)


# ---------------------------------------------------------------------------
# properties, shared between Kripke and action models

def check_frame_property(prop: str, frame: Frame) -> PropertyReport:
    """Evaluate one defining condition over a frame's store and cached
    views, by node position.

    Works for Kripke models and action models (no valuation, persistence
    vacuous).  Witnesses list the violating items in the order the
    condition quantifies them.  Callers read the report through
    `Frame._report`, which computes it once per frame.
    """
    n, agents, parents = frame.nodes, frame.sig.agents, frame._parent_pos
    children, *succ = frame._arrows  # n[i] names position i in witnesses

    if prop == "persistence_of_facts":
        masks = (frame._val_masks or {}).items()
        for w, vs in enumerate(children):
            for w2 in vs:
                for p, m in masks:
                    if (m >> w ^ m >> w2) & 1:
                        return PropertyReport(prop, False, (n[w], n[w2], p))
        return PropertyReport(prop, True)

    if prop == "depth_definedness":
        if INFINITE in frame._depths:
            return PropertyReport(prop, False, (n[frame._depths.index(INFINITE)],))
        return PropertyReport(prop, True)

    if prop == "knowledge_of_past":
        for w2, ws in enumerate(children):
            for w in ws:
                for a, s in zip(agents, succ):
                    for v in s[w]:
                        if not parents[v]:
                            return PropertyReport(
                                prop, False, (n[w2], n[w], a, n[v]))
        return PropertyReport(prop, True)

    if prop == "knowledge_of_initial_time":
        for w, ps in enumerate(parents):
            if ps:
                continue
            for a, s in zip(agents, succ):
                for v in s[w]:
                    if parents[v]:
                        return PropertyReport(prop, False, (n[w], a, n[v]))
        return PropertyReport(prop, True)

    if prop == "uniqueness_of_past":
        for w, ps in enumerate(parents):
            if len(ps) > 1:
                return PropertyReport(prop, False, (n[w], n[ps[0]], n[ps[1]]))
        return PropertyReport(prop, True)

    if prop == "perfect_recall":
        # per (w, a), the nodes one tick after an a-successor of w, built
        # once for all the pairs (w, v) that share w
        for w, vs in enumerate(children):
            later = [{c for u in s[w] for c in children[u]}
                     for s in succ] if vs else ()
            for v in vs:
                for a, s, after in zip(agents, succ, later):
                    if not after.issuperset(s[v]):
                        v2 = next(v2 for v2 in s[v] if v2 not in after)
                        return PropertyReport(
                            prop, False, (n[w], n[v], a, n[v2]))
        return PropertyReport(prop, True)

    if prop == "synchronicity":
        dd = frame._report("depth_definedness")
        if not dd.holds:
            return PropertyReport(prop, False, dd.witness)
        depths = frame._depths
        for a, s in zip(agents, succ):
            for w, vs in enumerate(s):
                for v in vs:
                    if depths[w] != depths[v]:
                        return PropertyReport(prop, False, (
                            n[w], a, n[v], depths[w], depths[v]))
        return PropertyReport(prop, True)

    raise ValueError(f"unknown property {prop!r}")


def check_property(F: Frame, name: str) -> PropertyReport:
    """The report named, one of `F.REPORTS`: the names `detl check` takes; a
    product's passing ones may be inherited (see `semantics._inherited`)."""
    if name not in F.REPORTS:
        raise ValueError(f"unknown property {name!r}")
    return F._report(name)


def is_restricted(M: Frame) -> PropertyReport:
    """Forest-likeness: the six conditions short of synchronicity (which
    then follows), checked once per model.  Persistence of facts is
    vacuous on an action model.  A product's six may be inherited."""
    return M._report("restricted")


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


def close_pairs(pairs, nodes, mode: str) -> set:
    if mode not in CLOSURE_MODES:
        raise ValueError(f"unknown closure mode {mode!r}")
    out = set(map(tuple, pairs))
    if mode in ("reflexive", "s5"):
        out |= {(n, n) for n in nodes}
    if mode in ("symmetric", "s5"):
        out |= {(y, x) for x, y in out}
    if mode in ("transitive", "s5"):
        # (x, z) for every z reachable from x in one or more steps
        succ: dict[str, list] = {n: [] for e in out for n in e}
        for x, y in out:
            succ[x].append(y)
        out = {(x, z) for x, ys in succ.items()
               for z in _reachable(ys, succ.__getitem__)}
    return out


def relation_closure(M: KripkeModel, mode: str) -> KripkeModel:
    return KripkeModel(
        sig=M.sig,
        worlds=M.worlds,
        epistemic={a: close_pairs(pairs, M.worlds, mode)
                   for a, pairs in M.epistemic},
        yesterday=M.yesterday,
        valuation=M.valuation,
    )

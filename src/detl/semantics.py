"""Truth relation, model updates and the finite language probe.

Composite worlds of a product are named ``base|event``; the separator is
reserved and never appears in user identifiers, so the naming is
invertible and model equality doubles as graph isomorphism with the
identity naming.
"""

from __future__ import annotations

import enum

from .action import (ActionModel, is_atemporal_action, is_lrdetl_action,
                     sharp_action, sharp_formula)
from .formula import (And, Atom, Bottom, Box, Formula, Not, Signature, Update,
                      Value, Yesterday, dia_yesterday, diamond)
from .kripke import KripkeModel, PointedModel, _shared, is_restricted

SEP = "|"


class EmptyProductError(ValueError):
    pass


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    NOT_IN_SCOPE = "not-in-scope"


def pair_name(base: str, event: str) -> str:
    return f"{base}{SEP}{event}"


def split_pair(name: str):
    base, _, event = name.rpartition(SEP)
    return base, event


def _check_compatible(M: KripkeModel, U: ActionModel):
    if set(U.sig.agents) != set(M.sig.agents):
        raise ValueError("action and model disagree on agents")
    for _, pre in U.pre:
        if not pre.atoms.issubset(M.sig.atoms):
            raise ValueError("precondition uses atoms outside the model signature")


def _check_formula_sig(M: KripkeModel, f: Formula):
    if not f.agents.issubset(M.sig.agents):
        raise ValueError("formula uses agents outside the model signature")
    if not f.atoms.issubset(M.sig.atoms):
        raise ValueError("formula uses atoms outside the model signature")


def evaluate(M: KripkeModel, w: str, f: Formula) -> bool:
    """M, w ⊨ f with the product-update reading of the update modality."""
    M.require_world(w)
    _check_formula_sig(M, f)
    return bool(_ext(M, f, 1 << M._pos[w], {}))


def _positions(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ext(M: KripkeModel, f: Formula, D: int, memos: dict,
         memo: dict = None) -> int:
    """The worlds of D where f holds in M, an update modality moving into
    the product.  A set of worlds is an int, bit i standing for
    `M.worlds[i]`.

    The labelling algorithm of Clarke–Emerson–Sistla, driven by demand:
    `memos` maps each model reached within one top-level call to its
    `memo`, which maps each compound node reached there to the worlds
    decided so far and those of them where the node holds, so a node
    shared by several parents (as in reduced formulas) is decided once
    per world.  The left spine of a conjunction, seen through even runs
    of ~ (which covers |), is walked in a loop, not one call per level.
    """
    negated = False
    while type(f) is Not:
        f, negated = f.sub, not negated
    t = type(f)
    if t is Atom:
        # leaves are read off the model, not memoised
        val = M._val_masks[f.name]
        return D & ~val if negated else D & val
    if t is Bottom:
        return D if negated else 0
    if memo is None:
        memo = memos.setdefault(M, {})
    entry = memo.get(f)
    if entry is None:
        holds = todo = D  # holds stands only when D is empty
    else:
        decided, truths = entry
        holds, todo = D & truths, D & ~decided
    if todo:
        # new: the worlds of todo where the compound node f holds
        if t is And:
            spine, g = [], f
            while type(g) is And:
                spine.append(g.right)
                g = h = g.left
                odd = False
                while type(h) is Not:
                    h, odd = h.sub, not odd
                if not odd and type(h) is And:
                    g = h
            spine.append(g)
            # each conjunct only where the ones left of it hold
            new = todo
            for g in reversed(spine):
                new = _ext(M, g, new, memos, memo)
                if not new:
                    break
        elif t is Box or t is Yesterday:
            succ = M._succ_masks[f.agent] if t is Box else M._parent_masks
            # the successors of todo, each distinct successor mask taken
            # once: its twins are the worlds that share it
            reach, rest = 0, todo
            while rest:
                m, twins = succ[(rest & -rest).bit_length() - 1]
                reach |= m
                rest &= ~twins
            failing = reach & ~_ext(M, f.sub, reach, memos, memo)
            new, rest = todo, todo if failing else 0
            while rest:
                m, twins = succ[(rest & -rest).bit_length() - 1]
                if m & failing:
                    new &= ~twins
                rest &= ~twins
        elif t is Update:
            fire = _ext(M, f.action.pre_map[f.event], todo, memos, memo)
            new = todo & ~fire
            if fire:
                # the precondition holds somewhere, so the update is not empty
                P, e = product_update(M, f.action), f.event
                pos, worlds, pairs = P._pos, M.worlds, 0
                for i in _positions(fire):
                    pairs |= 1 << pos[pair_name(worlds[i], e)]
                pos, worlds = M._pos, P.worlds
                for j in _positions(_ext(P, f.sub, pairs, memos)):
                    new |= 1 << pos[split_pair(worlds[j])[0]]
        else:
            raise TypeError(f"not a formula: {f!r}")
        if entry is None:
            memo[f], holds = (todo, new), new
        else:
            memo[f] = decided | todo, truths | new
            holds |= new
    return D & ~holds if negated else holds


def product_update(M: KripkeModel, U: ActionModel) -> KripkeModel:
    """The product M[U]: surviving pairs, componentwise epistemic arrows,
    asynchronous yesterday arrows.  Kept on M, weakly keyed by U, so it
    lives as long as both do."""
    P = M._products.get(U)
    if P is not None:
        return P
    _check_compatible(M, U)
    # each precondition's extension computed once over all worlds
    memos, worlds = {}, M.worlds
    everywhere = (1 << len(worlds)) - 1
    ext = [_ext(M, U.pre_map[t], everywhere, memos) for t in U.events]
    # the surviving pairs (world position, event position) by name
    names = {pair_name(w, e): (v, t)
             for v, w in enumerate(worlds) for t, e in enumerate(U.events)
             if ext[t] >> v & 1}
    if not names:
        raise EmptyProductError("no world satisfies any precondition")
    P_worlds = tuple(sorted(names))
    pairs = list(map(names.__getitem__, P_worlds))
    # rank[v][t]: the position in P of the pair (v, t), None if it died
    rank = [[None] * len(U.events) for _ in worlds]
    for i, (v, t) in enumerate(pairs):
        rank[v][t] = i
    # per agent, a pair's successors are the surviving pairs of its world's
    # and its event's successors: joined once per distinct two successor
    # tuples, and equal results kept as one tuple
    (m_next, *ms), (u_next, *us) = M._arrows, U._arrows
    epi = []
    for m, u in zip(ms, us):
        joins, seen, succ = {}, {}, []
        for v, t in pairs:
            key = m[v], u[t]
            js = joins.get(key)
            if js is None:
                js = tuple(sorted([r for row in map(rank.__getitem__, key[0])
                                   for t2 in key[1] if (r := row[t2]) is not None]))
                js = joins[key] = seen.setdefault(js, js)
            succ.append(js)
        epi.append(tuple(succ))
    # asynchronous yesterday: U's step on the same world, and M's step
    # under a past-state event
    u_past, yesterday = U._parent_pos, []
    for v, t in pairs:
        row = rank[v]
        later = [r for t2 in u_next[t] if (r := row[t2]) is not None]
        if not u_past[t]:
            later += [r for v2 in m_next[v] if (r := rank[v2][t]) is not None]
        yesterday.append(tuple(sorted(later)))
    valuation = tuple((p, tuple([x for x, (v, _) in zip(P_worlds, pairs)
                                 if worlds[v] in ws]))
                      for p, ws in M.val.items())
    P = M._products[U] = object.__new__(KripkeModel)._store(
        (_shared(yesterday), *epi), dict(zip(P_worlds, range(len(pairs)))),
        sig=M.sig, worlds=P_worlds, valuation=valuation)
    return P


# ---------------------------------------------------------------------------
# YDEL: the ⊕ update is the product with the ♯ translation (Sack, "Temporal
# languages for epistemic programs", 2008)

def _require_restricted(M: KripkeModel, use: str, permissive: bool):
    """Reject a model the ⊕ reading is undefined on, unless permissive."""
    if not permissive and not (rep := is_restricted(M)):
        raise ValueError(f"ydel {use} requires a restricted model "
                         f"(fails {rep.witness[0]})")


def ydel_update(M: KripkeModel, U: ActionModel,
                permissive: bool = False) -> KripkeModel:
    """M ⊕ U, the ♭-copy of M as the shared yesterday of all event worlds:
    the product M[U♯]."""
    if not is_atemporal_action(U):
        raise ValueError("ydel update requires an atemporal action")
    _require_restricted(M, "update", permissive)
    return product_update(M, sharp_action(U))


def eval_ydel(M: KripkeModel, w: str, f: Formula,
              permissive: bool = False) -> bool:
    """Truth with the ⊕ reading of updates, which is the product reading
    of f♯; defined on restricted models and formulas whose embedded
    actions are atemporal."""
    M.require_world(w)
    _check_formula_sig(M, f)
    for U in f.actions:
        if not is_atemporal_action(U):
            raise ValueError("formula outside the atemporal-action fragment")
    _require_restricted(M, "evaluation", permissive)
    return bool(_ext(M, sharp_formula(f), 1 << M._pos[w], {}))


def eval_rdetl(M: KripkeModel, w: str, f: Formula) -> Verdict:
    """Three-valued: truth is only defined over restricted models and
    forest-like actions; anything else is out of scope, not false."""
    M.require_world(w)
    _check_formula_sig(M, f)
    if not is_restricted(M).holds:
        return Verdict.NOT_IN_SCOPE
    for U in f.actions:
        if not is_lrdetl_action(U).holds:
            return Verdict.NOT_IN_SCOPE
    return Verdict.TRUE if _ext(M, f, 1 << M._pos[w], {}) else Verdict.FALSE


# ---------------------------------------------------------------------------
# finite language probe

POOL_LIMIT = 20000  # formulas the pool keeps at most


class ProbeVerdict(Value):
    _fields = ("agree", "distinguishing")
    distinguishing: Formula | None = None


def formula_pool(sig: Signature, max_depth: int = 3) -> list[Formula]:
    """Update-free formulas up to the given modal depth: literal
    conjunctions at the base, all four modalities layered on top.
    Negations are omitted since a disagreement on φ is one on ¬φ."""
    base: list[Formula] = [Atom(p) for p in sig.atoms]
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
        if len(pool) > POOL_LIMIT:
            del pool[POOL_LIMIT:]
            break
    return pool


def language_equivalence_probe(A: PointedModel, B: PointedModel,
                               max_depth: int = 3) -> ProbeVerdict:
    """Evaluate a finite pool of formulas at both points, one `_ext` memo
    per side for the whole pool; report the first disagreement."""
    if A.model.sig != B.model.sig:
        raise ValueError("probe requires a shared signature")
    sides = [(pm.model, 1 << pm.model._pos[pm.point], {}) for pm in (A, B)]
    for f in formula_pool(A.model.sig, max_depth):
        if len({bool(_ext(M, f, D, memos)) for M, D, memos in sides}) > 1:
            return ProbeVerdict(False, f)
    return ProbeVerdict(True)

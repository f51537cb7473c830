"""Temporal action models, their side of the model-property catalogue,
and the ♯ translation.

An action model is a frame (see `kripke.Frame`) with events in place of
worlds and a precondition formula per event; canonicalisation, the
relation store, the neighbour and depth queries and the frame properties
are the ones Kripke models use.  The temporal properties (history and past
preservation, time-advancing) ask `logic.is_valid` about preconditions.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .formula import (Formula, TOP, Update, Value, _join, _reachable,
                      check_ident, implies, map_updates, subformulas)
from .kripke import (KRIPKE_PROPERTIES, Frame, PropertyReport,
                     depth as action_depth, is_initial as is_past_state,
                     is_restricted)
from .logic import is_valid

FLAT = "♭"

# persistence of facts is vacuous without a valuation
ACTION_PROPERTIES = KRIPKE_PROPERTIES[1:]


def _check_event_name(e: str):
    if e != FLAT:
        check_ident(e, "event")


class ActionModel(Frame):
    # a Kripke model's fields, events for worlds and pre, stored as
    # ((event, formula), ...), for the valuation; the name is for
    # messages, outside equality and hash
    _fields = ("sig", "events", "epistemic", "yesterday", "pre", "name")
    _compared = ("sig", "events", "_arrows", "pre")
    name = "U"

    _KIND = "event"
    _check_name = staticmethod(_check_event_name)
    nodes = property(lambda self: self.events)
    require_event = Frame._require

    def _post_init(self):
        events, arrows, pos = self._canonicalise()
        pre_in = dict(self.pre)
        if pre_in.keys() != pos.keys():
            raise ValueError("exactly one precondition per event required")
        self._store(arrows, pos, events=events,
                    pre=tuple((e, pre_in[e]) for e in events))
        # what an update by it adds to its body's occurrences, itself aside
        occ = (frozenset(), frozenset(self.sig.agents), frozenset())
        object.__setattr__(self, "_occ", reduce(
            _join, (p._occ for _, p in self.pre), occ))

    @cached_property
    def pre_map(self) -> dict[str, Formula]:
        return dict(self.pre)

    @cached_property
    def _sharp(self) -> "ActionModel":
        """The ♯ translation (see `sharp_action`), built once."""
        return ActionModel(
            sig=self.sig,
            events=self.events + (FLAT,),
            epistemic={a: pairs + ((FLAT, FLAT),)
                       for a, pairs in self.epistemic},
            yesterday=[(FLAT, s) for s in self.events],
            pre={**{e: sharp_formula(p) for e, p in self.pre}, FLAT: TOP},
            name=self.name + "_sharp",
        )

    @cached_property
    def _history(self) -> PropertyReport:
        """The report of `check_history_preservation`, built once."""
        for s2, s in self.yesterday:
            if not is_valid(implies(self.pre_map[s], self.pre_map[s2])):
                return PropertyReport("history_preservation", False,
                                      (s2, s, "precondition"))
        for s in self.events:
            if not self.yesterdays(s) and not is_epistemic_past_state(self, s):
                return PropertyReport("history_preservation", False,
                                      (s, "past_state_not_epistemic"))
        return PropertyReport("history_preservation", True)

    @cached_property
    def _lrdetl(self) -> PropertyReport:
        """The report of `is_lrdetl_action`, built once."""
        rep = is_restricted(self)
        if not rep.holds:
            return PropertyReport("lrdetl_action", False, (self.name,) + rep.witness)
        if not self._history.holds:
            return PropertyReport("lrdetl_action", False,
                                  (self.name, "history_preservation")
                                  + self._history.witness)
        # in preorder, so the witness is the first failing action as written;
        # each inner action's check recurses into its own preconditions
        for _, pre in self.pre:
            for g in subformulas(pre):
                if isinstance(g, Update) and not g.action._lrdetl.holds:
                    return g.action._lrdetl
        return PropertyReport("lrdetl_action", True)


class PointedAction(Value):
    _fields = ("action", "point")

    def _post_init(self):
        self.action.require_event(self.point)


def is_atemporal_action(U: ActionModel) -> bool:
    return not any(U._arrows[0])


def is_epistemic_past_state(U: ActionModel, s: str) -> bool:
    """Past state with a valid precondition whose only epistemic arrows,
    in either direction, are the self-loops required for every agent."""
    if not is_past_state(U, s):
        return False
    i = U._pos[s]
    return all(succ[i] == (i,) and sum(i in js for js in succ) == 1
               for succ in U._arrows[1:]) and is_valid(U.pre_map[s])


def check_history_preservation(U: ActionModel) -> PropertyReport:
    """Predecessors can always fire first, and every source of the forest
    is a proper epistemic past state.  Computed once per action model."""
    return U._history


def check_past_preservation(A: PointedAction) -> PropertyReport:
    """History preservation plus: every event backward-reachable from the
    point can reach some past state, continuing backward."""
    U = A.action
    hp = U._history
    if not hp.holds:
        return PropertyReport("past_preservation", False, hp.witness)
    parents = U._parent_pos
    earlier = _reachable([U._pos[A.point]], parents.__getitem__)
    # an event reaches a past state going backward exactly when it is
    # reached going forward from one: one search finds them all
    grounded = _reachable([i for i, ps in enumerate(parents) if not ps],
                          U._arrows[0].__getitem__)
    if stray := earlier.keys() - grounded:
        return PropertyReport("past_preservation", False,
                              (U.events[min(stray)], "no_past_state_reachable"))
    return PropertyReport("past_preservation", True)


def check_time_advancing(A: PointedAction) -> PropertyReport:
    pp = check_past_preservation(A)
    if not pp.holds:
        return PropertyReport("time_advancing", False, pp.witness)
    if is_past_state(A.action, A.point):
        return PropertyReport("time_advancing", False,
                              (A.point, "point_is_past_state"))
    return PropertyReport("time_advancing", True)


def check_action_property(U: ActionModel, prop: str) -> PropertyReport:
    if prop not in ACTION_PROPERTIES:
        raise ValueError(f"unknown action property {prop!r}")
    return U._report(prop)


def is_lrdetl_action(U: ActionModel) -> PropertyReport:
    """Membership of U in the forest-like action class, recursively applied
    to the action models inside preconditions.  Persistence of facts is
    vacuous here since actions carry no valuation.  The report is computed
    once per action model."""
    return U._lrdetl


def sharp_action(U: ActionModel) -> ActionModel:
    """Adjoin a fresh epistemic past state ♭ below every event of an
    atemporal action, its preconditions ♯-translated; built once per
    action model."""
    if not is_atemporal_action(U):
        raise ValueError("♯ is defined on atemporal actions only")
    if FLAT in U._pos:
        raise ValueError(f"♯ adds a fresh event ♭, and {U.name} has one")
    return U._sharp


def sharp_formula(f: Formula) -> Formula:
    """f with the action of every update modality replaced by its ♯ (see
    `map_updates`): only the nodes above an update are rebuilt, each
    distinct one once."""
    return map_updates(
        f, lambda U, e, g: Update(sharp_action(U), e, g))

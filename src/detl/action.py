"""Temporal action models and their side of the model-property catalogue.

An action model is a frame (see `kripke.Frame`) with events in place of
worlds and a precondition formula per event; canonicalisation, the
successor, parent and depth views and the frame properties are the ones
Kripke models use.  The temporal properties (history and past
preservation, time-advancing) call into the validity oracle, which is
injected lazily to avoid an import cycle with the logic module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional

from .formula import (Formula, Signature, Update, check_ident, implies,
                      subformulas)
from .kripke import Frame, PropertyReport, is_restricted

FLAT = "♭"

ACTION_PROPERTIES = (
    "depth_definedness",
    "knowledge_of_past",
    "knowledge_of_initial_time",
    "uniqueness_of_past",
    "perfect_recall",
    "synchronicity",
)


def _check_event_name(e: str):
    if e != FLAT:
        check_ident(e, "event")


@dataclass(frozen=True)
class ActionModel(Frame):
    sig: Signature
    events: tuple
    epistemic: tuple  # ((agent, ((x, y), ...)), ...)
    yesterday: tuple  # ((x, y), ...) with x one tick before y
    pre: "Dict[str, Formula]"  # stored canonically as ((event, formula), ...)
    name: str = field(default="U", compare=False)

    _KIND = "event"
    _check_name = staticmethod(_check_event_name)
    nodes = property(lambda self: self.events)
    require_event = Frame._require
    __hash__ = Frame.__hash__  # kept by the dataclass decorator

    def __post_init__(self):
        object.__setattr__(self, "events", self._canonicalise())
        pre_in = dict(self.pre)
        if set(pre_in) != self._nodeset:
            raise ValueError("exactly one precondition per event required")
        object.__setattr__(self, "pre", tuple((e, pre_in[e]) for e in self.events))

    @cached_property
    def pre_map(self) -> Dict[str, Formula]:
        return dict(self.pre)

    @cached_property
    def _sharp(self) -> "ActionModel":
        """The ♯ translation (see `logic.sharp_action`), built once."""
        from .logic import _adjoin_flat
        return _adjoin_flat(self)

    @cached_property
    def _lrdetl(self) -> PropertyReport:
        """The lrdetl report under the default validity oracle."""
        return _check_lrdetl(self, None)


@dataclass(frozen=True)
class PointedAction:
    action: ActionModel
    point: str

    def __post_init__(self):
        self.action.require_event(self.point)


def action_depth(U: ActionModel, e: str):
    U.require_event(e)
    return U._depths[e]


def is_past_state(U: ActionModel, s: str) -> bool:
    U.require_event(s)
    return not U.yesterdays(s)


def is_atemporal_action(U: ActionModel) -> bool:
    return not U.yesterday


def _validity_oracle(validity: Optional[Callable]) -> Callable:
    if validity is not None:
        return validity
    from . import logic
    return logic.is_valid


def is_epistemic_past_state(U: ActionModel, s: str,
                            validity: Optional[Callable] = None) -> bool:
    """Past state with a valid precondition whose only epistemic arrows,
    in either direction, are the self-loops required for every agent."""
    U.require_event(s)
    if not is_past_state(U, s):
        return False
    for a in U.sig.agents:
        pairs = U.epi[a]
        if (s, s) not in pairs:
            return False
        for x, y in pairs:
            if (x == s or y == s) and (x, y) != (s, s):
                return False
    return _validity_oracle(validity)(U.pre_map[s])


def check_history_preservation(U: ActionModel,
                               validity: Optional[Callable] = None) -> PropertyReport:
    """Predecessors can always fire first, and every source of the forest
    is a proper epistemic past state."""
    valid = _validity_oracle(validity)
    for s2, s in U.yesterday:
        if not valid(implies(U.pre_map[s], U.pre_map[s2])):
            return PropertyReport("history_preservation", False,
                                  (s2, s, "precondition"))
    for s in U.events:
        if is_past_state(U, s) and not is_epistemic_past_state(U, s, valid):
            return PropertyReport("history_preservation", False,
                                  (s, "past_state_not_epistemic"))
    return PropertyReport("history_preservation", True)


def check_past_preservation(A: PointedAction,
                            validity: Optional[Callable] = None) -> PropertyReport:
    """History preservation plus: every event backward-reachable from the
    point can reach some past state, continuing backward."""
    U = A.action
    hp = check_history_preservation(U, validity)
    if not hp.holds:
        return PropertyReport("past_preservation", False, hp.witness)
    seen = {A.point}
    stack = [A.point]
    while stack:
        e = stack.pop()
        for p in U.yesterdays(e):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    # an event reaches a past state going backward exactly when it is
    # reached going forward from one: one search finds them all
    later = U._children
    stack = [e for e in U.events if not U.yesterdays(e)]
    grounded = set(stack)
    while stack:
        for y in later[stack.pop()]:
            if y not in grounded:
                grounded.add(y)
                stack.append(y)
    if seen - grounded:
        return PropertyReport("past_preservation", False,
                              (min(seen - grounded), "no_past_state_reachable"))
    return PropertyReport("past_preservation", True)


def check_time_advancing(A: PointedAction,
                         validity: Optional[Callable] = None) -> PropertyReport:
    pp = check_past_preservation(A, validity)
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


def is_lrdetl_action(U: ActionModel,
                     validity: Optional[Callable] = None) -> PropertyReport:
    """Membership of U in the forest-like action class, recursively applied
    to the action models inside preconditions.  Persistence of facts is
    vacuous here since actions carry no valuation.  Under the default
    validity oracle the report is computed once per action model."""
    if validity is None:
        return U._lrdetl
    return _check_lrdetl(U, validity)


def _check_lrdetl(U: ActionModel, validity: Optional[Callable]) -> PropertyReport:
    rep = is_restricted(U)
    if not rep.holds:
        return PropertyReport("lrdetl_action", False, (U.name,) + rep.witness)
    hp = check_history_preservation(U, validity)
    if not hp.holds:
        return PropertyReport("lrdetl_action", False,
                              (U.name, "history_preservation") + hp.witness)
    # in preorder, so the witness is the first failing action as written;
    # each inner action's check recurses into its own preconditions
    for _, pre in U.pre:
        for g in subformulas(pre):
            if isinstance(g, Update):
                rep = is_lrdetl_action(g.action, validity)
                if not rep.holds:
                    return rep
    return PropertyReport("lrdetl_action", True)

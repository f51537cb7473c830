"""Abstract syntax, concrete grammar and syntactic measures for the logic.

Formulas are built from ``false``, atoms, negation, conjunction, the
knowledge box ``[a]``, the yesterday box ``[Y]`` and the update modality
``[U@s]``.  Everything else (``true``, ``|``, ``->``, ``<->``, diamonds)
is sugar that the parser expands and the printer folds back.

Formulas are hash-consed: a constructor call returns the one node with
that structure, so structurally equal formulas are the same object,
equality and hashing are O(1), and a formula's content is a DAG whose
shared subformulas memo tables can key on.  Every node carries the atoms,
agents and action models occurring in it, computed once from its
children when it is built.  The intern table holds its nodes weakly: a
node lives as long as a caller or a parent node holds it, so a long run
of fresh formulas (parsing queries, reducing them) leaves the table no
larger than what is still in use.
"""

from __future__ import annotations

import re
import weakref
from functools import partial

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: names with a fixed meaning in the grammar, never usable as identifiers
RESERVED = {"Y", "true", "false"}


def check_ident(name: str, kind: str = "identifier") -> str:
    if not IDENT_RE.match(name) or name in RESERVED:
        raise ValueError(f"bad {kind}: {name!r}")
    return name


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in `_fields`, in constructor order; a
    class attribute of a field's name, unless a property, is its default.
    The constructor takes the fields by position or keyword, stores them
    and calls `_post_init`, which may canonicalise them with
    `object.__setattr__`.  `==` and `hash` read the attributes named in
    `_compared` (the fields when None), but an object equals itself
    unread, so a cache keyed on it hits cheaply; assignment raises
    AttributeError.
    """

    _fields: tuple = ()
    _compared: tuple | None = None

    def __init__(self, *args, **kwargs):
        cls, values = type(self), dict(zip(self._fields, args), **kwargs)
        if len(values) < len(args) + len(kwargs) or set(values) != {
                n for n in self._fields if n in values or not hasattr(cls, n)
                or isinstance(getattr(cls, n), property)}:
            raise TypeError(f"{cls.__name__}() takes {', '.join(self._fields)}")
        self.__dict__.update(values)
        self._post_init()

    def _post_init(self):
        pass

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self._compared or self._fields)

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({args})"


class Signature(Value):
    """Declared agent and atom names; shared by all models of a workspace."""

    _fields = ("agents", "atoms")  # tuples, sorted and without repeats

    def _post_init(self):
        object.__setattr__(self, "agents", tuple(sorted(set(self.agents))))
        # each agent's place in `agents`, which orders relation stores
        object.__setattr__(self, "_place", {a: i for i, a in enumerate(self.agents)})
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms))))
        if not self.agents:
            raise ValueError("signature needs at least one agent")
        if set(self.agents) & set(self.atoms):
            raise ValueError("agents and atoms must be disjoint")
        for a in self.agents:
            check_ident(a, "agent")
        for p in self.atoms:
            check_ident(p, "atom")


class _Ref(weakref.ref):
    """A weak reference to an interned node that remembers its table key."""

    __slots__ = ("key",)


#: the intern table, structural key -> weak reference to the one node
_NODES: dict[tuple, _Ref] = {}
_get = _NODES.get

_EMPTY: frozenset = frozenset()
_EMPTY_OCC = (_EMPTY, _EMPTY, _EMPTY)  # no atoms, agents or actions


def _forget(ref: _Ref):
    # the node died; drop its entry unless a new node already took the key
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _node(cls, key: tuple, occ: tuple) -> "Formula":
    """A new node of class cls under key, with its occurrence sets; the
    caller sets the fields."""
    node = object.__new__(cls)
    _set_occ(node, occ)
    ref = _Ref(node, _forget)
    ref.key = key
    _NODES[key] = ref
    return node


def _join(a: tuple, b: tuple) -> tuple:
    """The union of two (atoms, agents, actions) triples, reusing either
    one that already holds the other, so nodes share their triples."""
    if a is b or a[0] >= b[0] and a[1] >= b[1] and a[2] >= b[2]:
        return a
    if b[0] >= a[0] and b[1] >= a[1] and b[2] >= a[2]:
        return b
    return a[0] | b[0], a[1] | b[1], a[2] | b[2]


class Formula:
    """Base class of the connectives below.

    Nodes are hash-consed and immutable: `==` is `is` and hashing is by
    identity.  `atoms`, `agents` and `actions` are the frozensets of atom
    names, agent names and action models occurring in the node,
    preconditions of its action models included; they are one triple per
    node, shared with its children where it is the same.  Constructors
    return what their intern builders below (`_not`, `_and`, ...) return,
    and the library's hot paths call those directly; a fresh node's fields
    are stored through the slots' own `__set__`.
    """

    __slots__ = ("_occ", "__weakref__")

    atoms = property(lambda self: self._occ[0])
    agents = property(lambda self: self._occ[1])
    actions = property(lambda self: self._occ[2])

    __setattr__ = __delattr__ = Value.__setattr__

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, n)) for n in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __and__(self, other: "Formula") -> "Formula":
        return _and(self, other)

    def __invert__(self) -> "Formula":
        return _not(self)


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls):
        return BOT


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _atom(name)


class Not(Formula):
    __slots__ = ("sub",)

    def __new__(cls, sub: Formula):
        return _not(sub)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _and(left, right)


class Box(Formula):
    __slots__ = ("agent", "sub")

    def __new__(cls, agent: str, sub: Formula):
        return _box(agent, sub)


class Yesterday(Formula):
    __slots__ = ("sub",)

    def __new__(cls, sub: Formula):
        return _yesterday(sub)


class Update(Formula):
    """[action@event]sub.  Keyed on the action and its name: action
    models that differ only in name are equal, but each node prints its
    own action's name."""

    __slots__ = ("action", "event", "sub")

    def __new__(cls, action: "ActionModel", event: str, sub: Formula):
        return _update(action, event, sub)


# the slots' setters, which bypass Formula.__setattr__
_set_occ, _set_name = Formula._occ.__set__, Atom.name.__set__
_set_left, _set_right = And.left.__set__, And.right.__set__
_set_agent, _set_box = Box.agent.__set__, Box.sub.__set__
_set_action, _set_event, _set_update = (
    Update.action.__set__, Update.event.__set__, Update.sub.__set__)


def _atom(name: str) -> Atom:
    key = (Atom, name)
    ref = _get(key)
    if ref is None or (node := ref()) is None:
        node = _node(Atom, key, (frozenset((name,)), _EMPTY, _EMPTY))
        _set_name(node, name)
    return node


def _unary(cls):
    """The builder of a connective with the one field `sub`."""
    set_sub = cls.sub.__set__

    def build(sub: Formula) -> Formula:
        key = (cls, sub)
        ref = _get(key)
        if ref is None or (node := ref()) is None:
            node = _node(cls, key, sub._occ)
            set_sub(node, sub)
        return node
    return build


_not, _yesterday = _unary(Not), _unary(Yesterday)


def _and(left: Formula, right: Formula) -> And:
    key = (And, left, right)
    ref = _get(key)
    if ref is None or (node := ref()) is None:
        node = _node(And, key, _join(left._occ, right._occ))
        _set_left(node, left)
        _set_right(node, right)
    return node


def _box(agent: str, sub: Formula) -> Box:
    key = (Box, agent, sub)
    ref = _get(key)
    if ref is None or (node := ref()) is None:
        occ = sub._occ
        if agent not in occ[1]:
            occ = (occ[0], occ[1] | {agent}, occ[2])
        node = _node(Box, key, occ)
        _set_agent(node, agent)
        _set_box(node, sub)
    return node


def _update(action: "ActionModel", event: str, sub: Formula) -> Update:
    key = (Update, action, action.name, event, sub)
    ref = _get(key)
    if ref is None or (node := ref()) is None:
        if event not in action._pos:
            raise ValueError(f"event {event!r} not in action model")
        occ = _join(sub._occ, action._occ)
        if action not in occ[2]:
            occ = (occ[0], occ[1], occ[2] | {action})
        node = _node(Update, key, occ)
        _set_action(node, action)
        _set_event(node, event)
        _set_update(node, sub)
    return node


BOT = _node(Bottom, (Bottom,), _EMPTY_OCC)
TOP = _not(BOT)


def implies(a: Formula, b: Formula) -> Formula:
    return _not(_and(a, _not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return _not(_and(_not(a), _not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return _and(implies(a, b), implies(b, a))


def diamond(agent: str, f: Formula) -> Formula:
    return _not(_box(agent, _not(f)))


def dia_yesterday(f: Formula) -> Formula:
    return _not(_yesterday(_not(f)))


def dia_update(action: "ActionModel", event: str, f: Formula) -> Formula:
    return _not(_update(action, event, _not(f)))


def conj(formulas) -> Formula:
    """Conjunction of a sequence; the empty conjunction is ``true``."""
    formulas = list(formulas)
    if not formulas:
        return TOP
    out = formulas[0]
    for f in formulas[1:]:
        out = _and(out, f)
    return out


def _reachable(start, step) -> dict:
    """The nodes reachable from those in start by zero or more calls of
    step (a node's successors), as the keys of a dict, in the order a
    depth-first search first pops them: preorder when step lists a node's
    successors last-first.  A loop on an explicit stack, so long paths do
    not recurse."""
    seen, stack = {}, list(start)
    while stack:
        x = stack.pop()
        if x not in seen:
            seen[x] = None
            stack += step(x)
    return seen


def subformulas(f: Formula):
    """An iterator over all subformulas of f, preorder, not descending into
    preconditions; a subformula occurring twice is yielded twice."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Not, Box, Yesterday, Update)):
            stack.append(g.sub)


def map_updates(f: Formula, at_update=None, step=None) -> Formula:
    """f with each update node [U@e]g replaced by at_update(U, e, g′), g′
    being g mapped the same way, or, given step instead, by the mapping
    of step([U@e]g′): step is applied until no update is left.

    Innermost first, each distinct node once, on an explicit stack, so
    deep input does not recurse; nodes without updates come back as they
    are.  Preconditions are left to at_update or step.
    """
    done: dict[Formula, Formula] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g in done:
            continue
        if not g._occ[2]:
            done[g] = g
        elif type(g) is And:
            left, right = done.get(g.left), done.get(g.right)
            if left is None or right is None:
                stack += (g, g.right, g.left)  # back until both are done
            else:
                done[g] = _and(left, right)
        elif (sub := done.get(g.sub)) is None:
            stack += (g, g.sub)
        elif type(g) is Not:
            done[g] = _not(sub)
        elif type(g) is Box:
            done[g] = _box(g.agent, sub)
        elif type(g) is Yesterday:
            done[g] = _yesterday(sub)
        elif not step:
            done[g] = at_update(g.action, g.event, sub)
        elif (h := step(_update(g.action, g.event, sub))) in done:
            done[g] = done[h]
        else:
            stack += (g, h)  # back until the step is done
    return done[f]


def actions_in(f: Formula) -> frozenset["ActionModel"]:
    """The action models occurring in f, including inside preconditions."""
    return f.actions


def atoms_in(f: Formula) -> frozenset[str]:
    return f.atoms


def agents_in(f: Formula) -> frozenset[str]:
    return f.agents


def is_atemporal(f: Formula) -> bool:
    """True iff no embedded action model (recursively) has a yesterday arrow.

    [Y] connectives in the formula itself are fine; the restriction is on
    the action models only.
    """
    return not any(any(u._arrows[0]) for u in f.actions)


def is_setl(f: Formula) -> bool:
    """True iff f contains no update modality at all."""
    return not f.actions


def y_nesting_depth(f: Formula) -> int:
    """The most [Y] on one path of f; one search over (node, [Y] above it)
    pairs, each distinct pair once."""
    if f.actions:
        raise ValueError("y_nesting_depth is defined on update-free formulas only")

    def below(item):
        g, d = item
        t = type(g)
        if t is And:
            return (g.left, d), (g.right, d)
        return () if t is Atom or t is Bottom else ((g.sub, d + (t is Yesterday)),)
    return max(d for _, d in _reachable([(f, 0)], below))


def depth_formula(n: int, unique_past: bool = False) -> Formula:
    """The formula true exactly at worlds of temporal depth n.

    Without the uniqueness-of-past assumption this is
    <Y>^n [Y]false & [Y]^(n+1) false; with it the first conjunct suffices.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    lower: Formula = _yesterday(BOT)
    for _ in range(n):
        lower = dia_yesterday(lower)
    if unique_past:
        return lower
    upper: Formula = BOT
    for _ in range(n + 1):
        upper = _yesterday(upper)
    return _and(lower, upper)


# ---------------------------------------------------------------------------
# parsing

class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class UnknownAction(ParseError):
    """An update names an action the registry does not hold."""


# after optional whitespace, an identifier, an operator or any other
# character, which is an error; a token is placed at its first character
_TOKEN_RE = re.compile(r"\s*([A-Za-z_♭][A-Za-z0-9_♭]*|<->|->|[~&|()\[\]<>@]|\S)")
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_♭")
_OPERATORS = frozenset(("<->", "->", *"~&|()[]<>@"))

# per binary operator: its precedence, how much higher the printer reads
# its left operand and the parser and printer its right one, and its
# builder; -> nests to the right and the others to the left
_BINARY = {"<->": (1, 1, 1, iff), "->": (2, 1, 0, implies),
           "|": (3, 0, 1, disj), "&": (4, 0, 1, _and)}
_PREC_UNARY = 5  # prefixes bind tighter than every binary operator
_WORDS = {"true": TOP, "false": BOT}


def _error(text: str, tokens, i: int, msg: str, error=ParseError):
    """error(msg) at tokens[i], or the first bad character's ParseError
    if text holds one; positions are worked out here, not by parse."""
    starts = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    for tok, pos in zip(tokens, starts):
        if tok[0] not in _NAME_START and tok not in _OPERATORS:
            return ParseError(f"unexpected character {tok!r}", pos)
    starts.append(len(text))
    return error(msg, starts[i])


def _modal_head(text: str, tokens, i: int, dual: bool, sig: Signature,
                registry: dict[str, "ActionModel"]):
    """The inside of [..] (or of <..> when dual), from tokens[i] on: the
    builder of its box (or of the box's dual), the argument that goes
    before the operand (an agent, or None) and the index after it."""
    close = ">" if dual else "]"
    name = tokens[i]
    if name[:1] not in _NAME_START:
        raise _error(text, tokens, i, f"expected a name, found {name!r}")
    event = None
    if tokens[i + 1] == "@":
        event = tokens[i + 2]
        if event[:1] not in _NAME_START:
            raise _error(text, tokens, i + 2,
                         f"expected an event name, found {event!r}")
        i += 2
    if tokens[i + 1] != close:
        raise _error(text, tokens, i + 1, f"expected {close!r}, found "
                     f"{tokens[i + 1] or 'end of input'!r}")
    if event is not None:
        if name not in registry:
            raise _error(text, tokens, i - 2, f"unknown action {name!r}",
                         UnknownAction)
        action = registry[name]
        if event not in action.events:
            raise _error(text, tokens, i,
                         f"unknown event {event!r} of action {name!r}")
        build = partial(dia_update if dual else _update, action, event)
        return build, None, i + 2
    if name == "Y":
        return dia_yesterday if dual else _yesterday, None, i + 2
    if name not in sig.agents:
        raise _error(text, tokens, i, f"unknown agent {name!r}")
    return diamond if dual else _box, name, i + 2


def parse(text: str, sig: Signature,
          registry: dict[str, "ActionModel"] | None = None) -> Formula:
    """The formula that text writes, or a ParseError at the first token
    that no formula can continue with.

    One loop over one stack of pending entries, each a triple (right
    binding power, builder, left operand): prefixes (power _PREC_UNARY;
    a box's or diamond's left operand is its agent), open parentheses
    (power 0) and binary operators, whose powers come from _BINARY.
    Once an operand is complete, the next token pops and applies every
    entry that binds tighter than that token, so neither nesting nor long
    runs recurse.  Tokens are bare strings, "" ending the input.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    registry = registry or {}
    stack = []
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "[" or tok == "<":
            build, arg, i = _modal_head(text, tokens, i, tok == "<", sig,
                                        registry)
            stack.append((_PREC_UNARY, build, arg))
            continue
        if tok == "~":
            stack.append((_PREC_UNARY, _not, None))
            continue
        if tok == "(":
            stack.append((0, None, None))
            continue
        f = _atom(tok) if tok in sig.atoms else _WORDS.get(tok)
        if f is None:
            raise _error(text, tokens, i - 1, f"unknown atom {tok!r}"
                         if tok[:1] in _NAME_START else
                         f"unexpected {tok or 'end of input'!r}")
        while True:  # f is a complete operand
            tok = tokens[i]
            i += 1
            op = _BINARY.get(tok)
            prec = op[0] if op else 0
            while stack and stack[-1][0] > prec:
                _, build, left = stack.pop()
                f = build(f) if left is None else build(left, f)
            if op:
                stack.append((prec + op[2], op[3], f))
                break
            if stack:  # an open parenthesis
                if tok != ")":
                    raise _error(text, tokens, i - 1, "expected ')', found "
                                 f"{tok or 'end of input'!r}")
                stack.pop()
            elif tok:
                raise _error(text, tokens, i - 1, f"trailing input {tok!r}")
            else:
                return f


# ---------------------------------------------------------------------------
# printing

_CONSTANTS = {f: word for word, f in _WORDS.items()}


def _match_imp(f: Formula):
    # a -> b  ==  ~(a & ~b)
    if type(f) is Not and type(f.sub) is And and type(f.sub.right) is Not:
        return f.sub.left, f.sub.right.sub
    return None


def pretty(f: Formula) -> str:
    """Concrete syntax for f; parse(pretty(f)) is structurally f again.

    One loop, no recursion: it follows the left operand of each binary
    operator and defers the operator and its right operand on a stack."""
    out = []
    todo = [("", f, 0)]  # text, then a formula read at a precedence, or None
    while todo:
        text, f, ctx = todo.pop()
        out.append(text)
        while f is not None:
            t = type(f)
            if t is And:
                l, r = _match_imp(f.left), _match_imp(f.right)
                if l and r and l[0] == r[1] and l[1] == r[0]:
                    m, op = l, "<->"
                else:
                    m, op = (f.left, f.right), "&"
            elif m := _match_imp(f):
                if type(m[0]) is Not:  # ~(~a & ~b)
                    m, op = (m[0].sub, m[1]), "|"
                else:  # ~(a & ~b)
                    op = "->"
            elif t is Atom or f in _CONSTANTS:
                out.append(f.name if t is Atom else _CONSTANTS[f])
                break
            else:
                if t is Not:
                    g = f.sub
                    if type(g) is Box and type(g.sub) is Not:
                        op, f = f"<{g.agent}>", g.sub.sub
                    elif type(g) is Yesterday and type(g.sub) is Not:
                        op, f = "<Y>", g.sub.sub
                    elif type(g) is Update and type(g.sub) is Not:
                        op, f = f"<{g.action.name}@{g.event}>", g.sub.sub
                    else:
                        op, f = "~", g
                elif t is Box:
                    op, f = f"[{f.agent}]", f.sub
                elif t is Yesterday:
                    op, f = "[Y]", f.sub
                elif t is Update:
                    op, f = f"[{f.action.name}@{f.event}]", f.sub
                else:
                    raise TypeError(f"not a formula: {f!r}")
                out.append(op)
                ctx = _PREC_UNARY
                continue
            prec, up_left, up_right, _ = _BINARY[op]
            if prec < ctx:
                out.append("(")
                todo.append((")", None, 0))
            todo.append((f" {op} ", m[1], prec + up_right))
            f, ctx = m[0], prec + up_left
    return "".join(out)

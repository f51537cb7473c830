"""The parser as it stood before `detl.formula.parse` tokenized into bare
strings: a tokenizer of (kind, value, position) triples feeding the same
Pratt loop.  It is kept only as a differential oracle, so that
test_formula can require the two parsers to agree on every text, in the
formula built or in the error's type, message and position.
"""

import re
from functools import partial
from typing import Mapping, Optional

from detl.formula import (Formula, ParseError, Signature, UnknownAction,
                          _BINARY, _PREC_UNARY, _WORDS, _atom, _box, _not,
                          _update, _yesterday, dia_update, dia_yesterday,
                          diamond)


_TOKEN_RE = re.compile(
    r"(\s*)(?:([A-Za-z_♭][A-Za-z0-9_♭]*)|(<->|->|[~&|()\[\]<>@])|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    for space, ident, op, bad in _TOKEN_RE.findall(text):
        pos += len(space)  # a token is placed at itself, not its whitespace
        if bad:
            raise ParseError(f"unexpected character {bad!r}", pos)
        tokens.append(("ident", ident, pos) if ident else ("op", op, pos))
        pos += len(ident or op)
    tokens.append(("eof", "", len(text)))
    return tokens


def _modal_head(tokens, i: int, dual: bool, sig: Signature,
                registry: Mapping[str, "ActionModel"]):
    """The inside of [..] (or of <..> when dual), from tokens[i] on: the
    builder of its box (or of the box's dual) and the index after it."""
    close = ">" if dual else "]"
    kind, name, pos = tokens[i]
    if kind != "ident":
        raise ParseError(f"expected a name, found {name!r}", pos)
    event = None
    if tokens[i + 1][1] == "@":
        kind, event, epos = tokens[i + 2]
        if kind != "ident":
            raise ParseError(f"expected an event name, found {event!r}", epos)
        i += 2
    kind, val, cpos = tokens[i + 1]
    if val != close:
        raise ParseError(
            f"expected {close!r}, found {val or 'end of input'!r}", cpos)
    if event is not None:
        if name not in registry:
            raise UnknownAction(f"unknown action {name!r}", pos)
        action = registry[name]
        if event not in action.events:
            raise ParseError(f"unknown event {event!r} of action {name!r}", epos)
        return partial(dia_update if dual else _update, action, event), i + 2
    if name == "Y":
        return dia_yesterday if dual else _yesterday, i + 2
    if name not in sig.agents:
        raise ParseError(f"unknown agent {name!r}", pos)
    return partial(diamond if dual else _box, name), i + 2


def parse(text: str, sig: Signature,
          registry: Optional[Mapping[str, "ActionModel"]] = None) -> Formula:
    tokens = _tokenize(text)
    registry = registry or {}
    stack = []
    i = 0
    while True:
        kind, val, pos = tokens[i]
        i += 1
        if kind == "ident":
            f = _atom(val) if val in sig.atoms else _WORDS.get(val)
            if f is None:
                raise ParseError(f"unknown atom {val!r}", pos)
        else:
            if val == "(":
                stack.append((0, None, None))
            elif val == "~":
                stack.append((_PREC_UNARY, _not, None))
            elif val == "[" or val == "<":
                build, i = _modal_head(tokens, i, val == "<", sig, registry)
                stack.append((_PREC_UNARY, build, None))
            else:
                raise ParseError(f"unexpected {val or 'end of input'!r}", pos)
            continue
        while True:  # f is a complete operand
            kind, val, pos = tokens[i]
            i += 1
            op = _BINARY.get(val)
            prec = op[0] if op else 0
            while stack and stack[-1][0] > prec:
                _, build, left = stack.pop()
                f = build(f) if left is None else build(left, f)
            if op:
                stack.append((prec + op[2], op[3], f))
                break
            if stack:  # an open parenthesis
                if val != ")":
                    raise ParseError("expected ')', found "
                                     f"{val or 'end of input'!r}", pos)
                stack.pop()
            elif kind != "eof":
                raise ParseError(f"trailing input {val!r}", pos)
            else:
                return f

"""Recursive-descent parser for the functional prefix grammar.

    expr := ATOM | KIND '(' expr (',' expr)* ')'
    KIND := 'And' | 'Or' | 'Not' | 'Implies' | 'Iff'

Whitespace is insignificant, keywords are case-sensitive and reserved.

Tokens are plain strings, '(', ')', ',' or an identifier, from one
``findall``; a line whose tokens do not cover all of its non-whitespace
characters holds a character no token can take, and fails there. The
parser is one recursive function over the token list, which ends in an
empty string standing for the end of input; it calls itself for an
operator argument and reads an atom argument in place. Having checked
each identifier's spelling (the token pattern) and each operator's
arity, it builds the nodes with the expression module's private
constructors, which check neither again. Errors carry the character
offset into the line. Token offsets are not kept: an error recomputes
the offset of the token it names. A line nested deeper than Python's
recursion limit allows fails at its first token of greatest depth.
"""

from __future__ import annotations

import re
from itertools import accumulate

from ..errors import SatkitError
from .expressions import _OPERATORS, LogicalExpr, _atom

_TOKEN = re.compile(r"[(),]|[A-Za-z_][A-Za-z0-9_]*")
# A character that is neither whitespace nor in a token: anything outside
# the token alphabet, or a digit that does not continue an identifier.
_BAD_CHARACTER = re.compile(r"[^\sA-Za-z0-9_(),]|(?<![A-Za-z0-9_])[0-9]")
_END = ""
_NOT_AN_IDENTIFIER = frozenset(("(", ")", ",", _END))
_NOT_AN_ATOM = _NOT_AN_IDENTIFIER | frozenset(_OPERATORS)


class ExpressionError(SatkitError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExpressionSyntaxError(ExpressionError):
    pass


class ArityError(ExpressionError):
    pass


def _offset(line: str, index: int) -> int:
    """Character offset of token ``index``; past the last token, the end
    of the line."""
    for k, m in enumerate(_TOKEN.finditer(line)):
        if k == index:
            return m.start()
    return len(line)


def _expected(line: str, tokens: list[str], index: int, what: str) -> ExpressionSyntaxError:
    got = tokens[index] or "end of input"
    return ExpressionSyntaxError(f"expected {what}, got {got!r}", _offset(line, index))


def _parse(line: str, tokens: list[str], pos: int) -> tuple[LogicalExpr, int]:
    """Parse the expression at token ``pos``; return it and the position
    of the token after it. An operator's argument that is an atom is
    read in the argument loop, not by a call of its own."""
    name = tokens[pos]
    operator = _OPERATORS.get(name)
    if operator is None:
        if name in _NOT_AN_IDENTIFIER:
            raise _expected(line, tokens, pos, "an identifier")
        return _atom(name), pos + 1
    if tokens[pos + 1] != "(":
        raise _expected(line, tokens, pos + 1, f"'(' after operator {name}")
    args = []
    k = pos + 2
    while True:
        arg = tokens[k]
        if arg in _NOT_AN_ATOM:  # an operator, or the error of a missing identifier
            arg, k = _parse(line, tokens, k)
        else:
            arg, k = _atom(arg), k + 1
        args.append(arg)
        if tokens[k] != ",":
            break
        k += 1
    if tokens[k] != ")":
        raise _expected(line, tokens, k, "')' or ','")
    lo, hi, node = operator
    if len(args) < lo or (hi is not None and len(args) > hi):
        bound = f"exactly {lo}" if hi == lo else f"at least {lo}"
        raise ArityError(f"{name} takes {bound} argument(s), got {len(args)}", _offset(line, pos))
    return (node(tuple(args)) if hi is None else node(*args)), k + 1


def parse_expression(line: str) -> LogicalExpr:
    tokens = _TOKEN.findall(line)
    if len("".join(tokens)) != len("".join(line.split())):  # a character outside every token
        bad = _BAD_CHARACTER.search(line)
        raise ExpressionSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    tokens.append(_END)
    try:
        expr, pos = _parse(line, tokens, 0)
    except RecursionError:
        depths = list(accumulate((token == "(") - (token == ")") for token in tokens))
        message = f"expression nested {max(depths)} levels deep, too deep to parse"
        raise ExpressionSyntaxError(message, _offset(line, depths.index(max(depths)) + 1)) from None
    if tokens[pos] != _END:
        raise ExpressionSyntaxError(f"unexpected trailing input {tokens[pos]!r}", _offset(line, pos))
    return expr

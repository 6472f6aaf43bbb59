"""Expression trees for the functional prefix notation.

Nodes: Atom, Not (unary), And / Or (n-ary, at least two children),
Implies / Iff (binary). Trees are immutable and hashable.

Each node kind has one module-private constructor (``_atom``, ``_not``,
``_and``, ``_or``, ``_implies``, ``_iff``), the only place its fields
are set. The public constructors, each class's ``__new__``, check
their arguments (an ASCII identifier that is not an operator keyword
for an atom's name, two or more children for And and Or) and then call
it. The parser, which has already checked the spelling and arity of
what it read, and the CNF conversion call it directly, so a node they
build costs no second check and no dataclass ``__init__``. The
keywords and their arities are ``_OPERATORS``, which the parser reads
as its operator table. The classes are frozen dataclasses without a
generated ``__init__``: equality, hashing, ``repr``, pattern matching
and ``FrozenInstanceError`` on assignment are the dataclass ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

LogicalExpr = Union["Atom", "Not", "And", "Or", "Implies", "Iff"]

_new = object.__new__
_set = object.__setattr__  # the dataclass __setattr__ refuses every field


class _Node:
    """Base of the node classes. Pickling and copying call the public
    constructor with the node's fields; their default, ``cls.__new__(cls)``
    with no arguments, fails for a ``__new__`` that takes them."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, init=False)
class Atom(_Node):
    name: str

    def __new__(cls, name: str) -> Atom:
        if not isinstance(name, str):
            raise TypeError(f"atom name must be a str, got {type(name).__name__}")
        # [A-Za-z_][A-Za-z0-9_]*, and not a keyword, so that the parser reads it back
        if not (name.isascii() and name.isidentifier()) or name in _OPERATORS:
            raise ValueError(f"invalid atom name {name!r}")
        return _atom(name)


@dataclass(frozen=True, init=False)
class Not(_Node):
    child: LogicalExpr

    def __new__(cls, child: LogicalExpr) -> Not:
        return _not(child)


@dataclass(frozen=True, init=False)
class And(_Node):
    children: tuple[LogicalExpr, ...]

    def __new__(cls, children) -> And:
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("And requires at least two children")
        return _and(children)


@dataclass(frozen=True, init=False)
class Or(_Node):
    children: tuple[LogicalExpr, ...]

    def __new__(cls, children) -> Or:
        children = tuple(children)
        if len(children) < 2:
            raise ValueError("Or requires at least two children")
        return _or(children)


@dataclass(frozen=True, init=False)
class Implies(_Node):
    lhs: LogicalExpr
    rhs: LogicalExpr

    def __new__(cls, lhs: LogicalExpr, rhs: LogicalExpr) -> Implies:
        return _implies(lhs, rhs)


@dataclass(frozen=True, init=False)
class Iff(_Node):
    lhs: LogicalExpr
    rhs: LogicalExpr

    def __new__(cls, lhs: LogicalExpr, rhs: LogicalExpr) -> Iff:
        return _iff(lhs, rhs)


def _atom(name: str) -> Atom:
    node = _new(Atom)
    _set(node, "name", name)
    return node


def _not(child: LogicalExpr) -> Not:
    node = _new(Not)
    _set(node, "child", child)
    return node


def _and(children: tuple[LogicalExpr, ...]) -> And:
    node = _new(And)
    _set(node, "children", children)
    return node


def _or(children: tuple[LogicalExpr, ...]) -> Or:
    node = _new(Or)
    _set(node, "children", children)
    return node


def _implies(lhs: LogicalExpr, rhs: LogicalExpr) -> Implies:
    node = _new(Implies)
    _set(node, "lhs", lhs)
    _set(node, "rhs", rhs)
    return node


def _iff(lhs: LogicalExpr, rhs: LogicalExpr) -> Iff:
    node = _new(Iff)
    _set(node, "lhs", lhs)
    _set(node, "rhs", rhs)
    return node


# The grammar's operator keywords, which no atom may be named: keyword ->
# (min_arity, max_arity or None for unbounded, node constructor). The
# parser checks an operator's arity against it and then builds the node
# with the constructor, which checks nothing.
_OPERATORS = {
    "And": (2, None, _and),
    "Or": (2, None, _or),
    "Not": (1, 1, _not),
    "Implies": (2, 2, _implies),
    "Iff": (2, 2, _iff),
}

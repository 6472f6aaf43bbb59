"""Expression trees for the functional prefix notation.

Nodes: Atom, Not (unary), And / Or (n-ary, at least two children),
Implies / Iff (binary). Trees are immutable and hashable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

LogicalExpr = Union["Atom", "Not", "And", "Or", "Implies", "Iff"]


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self) -> None:
        if not _ATOM_NAME.match(self.name):
            raise ValueError(f"invalid atom name {self.name!r}")


@dataclass(frozen=True)
class Not:
    child: LogicalExpr


@dataclass(frozen=True)
class And:
    children: tuple[LogicalExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("And requires at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple[LogicalExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Or requires at least two children")


@dataclass(frozen=True)
class Implies:
    lhs: LogicalExpr
    rhs: LogicalExpr


@dataclass(frozen=True)
class Iff:
    lhs: LogicalExpr
    rhs: LogicalExpr


def atoms(expr: LogicalExpr) -> list[str]:
    """Atom names in first-appearance (pre-order) order."""
    seen: dict[str, None] = {}

    def walk(node: LogicalExpr) -> None:
        kind = type(node)
        if kind is Atom:
            seen[node.name] = None
        elif kind is Not:
            walk(node.child)
        elif kind is And or kind is Or:
            for child in node.children:
                walk(child)
        elif kind is Implies or kind is Iff:
            walk(node.lhs)
            walk(node.rhs)

    walk(expr)
    return list(seen)


def evaluate(expr: LogicalExpr, env: Mapping[str, bool]) -> bool:
    match expr:
        case Atom(name):
            return env[name]
        case Not(child):
            return not evaluate(child, env)
        case And(children):
            return all(evaluate(c, env) for c in children)
        case Or(children):
            return any(evaluate(c, env) for c in children)
        case Implies(lhs, rhs):
            return (not evaluate(lhs, env)) or evaluate(rhs, env)
        case Iff(lhs, rhs):
            return evaluate(lhs, env) == evaluate(rhs, env)
    raise TypeError(f"not a logical expression: {expr!r}")


def format_expr(expr: LogicalExpr) -> str:
    """Render back to the functional prefix notation the parser accepts."""
    match expr:
        case Atom(name):
            return name
        case Not(child):
            return f"Not({format_expr(child)})"
        case And(children):
            return f"And({', '.join(format_expr(c) for c in children)})"
        case Or(children):
            return f"Or({', '.join(format_expr(c) for c in children)})"
        case Implies(lhs, rhs):
            return f"Implies({format_expr(lhs)}, {format_expr(rhs)})"
        case Iff(lhs, rhs):
            return f"Iff({format_expr(lhs)}, {format_expr(rhs)})"
    raise TypeError(f"not a logical expression: {expr!r}")

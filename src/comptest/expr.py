"""Arithmetic expression sublanguage for symbolic values in test scripts.

Grammar (no whitespace anywhere):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := NUMBER | IDENT | '(' expr ')'

NUMBER is the number rule's token (``sheets.NUMBER_TOKEN``): an optional
sign, a decimal point and an optional exponent, so ``a--1`` and ``2*-3``
parse; IDENT is a lowercase identifier. The surface form is locale-free
regardless of the dialect the sheets were authored in, so generated
scripts mean the same thing on every stand. Rendering is the structural
inverse of parsing: parenthesis nodes are kept in the tree, which makes
render/parse a lossless round trip.
"""

from __future__ import annotations

import re
from decimal import Context, Decimal, DivisionByZero, InvalidOperation
from typing import Mapping, NamedTuple, Union

from .errors import EvalError, ExprError
from .sheets import NUMBER_TOKEN, parse_number

__all__ = ["Num", "Var", "BinOp", "Paren", "Expr",
           "parse_expr", "eval_expr", "render_expr"]


class Num(NamedTuple):
    value: Decimal


class Var(NamedTuple):
    name: str


class BinOp(NamedTuple):
    op: str  # one of + - * /
    left: Expr
    right: Expr


class Paren(NamedTuple):
    inner: Expr


Expr = Union[Num, Var, BinOp, Paren]

_IDENT = re.compile(r"[a-z_][a-z0-9_]*")

#: The context of a run's arithmetic: the default precision, range and
#: traps, whatever the thread's context, which a caller or a DUT plugin
#: may change. The flags an operation sets here are never read.
ARITHMETIC = Context()
_OPS = {"+": ARITHMETIC.add, "-": ARITHMETIC.subtract,
        "*": ARITHMETIC.multiply, "/": ARITHMETIC.divide}


def _factor(text: str, pos: int) -> tuple[Expr, int]:
    """The number or identifier at ``pos`` and the offset after it."""
    m = NUMBER_TOKEN.match(text, pos)
    if m:
        try:
            value = parse_number(m.group(0))
        except ValueError as exc:
            raise ExprError(str(exc), pos) from None
        return Num(value), m.end()
    m = _IDENT.match(text, pos)
    if m:
        return Var(m.group(0)), m.end()
    raise ExprError("expected number, identifier or '('", pos)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExprError with the 0-based offset of the first offending
    character on empty input, trailing operators, unbalanced parentheses
    or anything outside the grammar.

    A loop, so that nesting of any depth needs no deeper recursion: the
    ``expr`` and ``term`` parsed so far, each with its pending operator,
    are pushed on ``outer`` at each '(' and popped at its ')'.
    """
    end, pos = len(text), 0
    outer: list[tuple] = []
    expr = expr_op = term = term_op = None
    while True:
        while pos < end and text[pos] == "(":  # factor := '(' expr ')'
            outer.append((expr, expr_op, term, term_op))
            expr = term = None
            pos += 1
        node, pos = _factor(text, pos)
        while True:  # node is a factor: fold it into its term and expr
            if term is not None:
                node = BinOp(term_op, term, node)
            ch = text[pos] if pos < end else ""
            if ch == "*" or ch == "/":
                term, term_op = node, ch
                break
            term = None
            if expr is not None:
                node = BinOp(expr_op, expr, node)
            if ch == "+" or ch == "-":
                expr, expr_op = node, ch
                break
            if not outer:
                if pos != end:
                    raise ExprError(f"unexpected character {ch!r}", pos)
                return node
            if ch != ")":
                raise ExprError("unbalanced parenthesis (expected ')')", pos)
            pos += 1
            node = Paren(node)
            expr, expr_op, term, term_op = outer.pop()
        pos += 1


def eval_expr(expr: Expr, env: Mapping[str, Decimal]) -> Decimal:
    """Evaluate ``expr`` under ``env`` with decimal arithmetic in
    ``ARITHMETIC``.

    A loop over an explicit stack, so that a tree of any depth needs no
    deeper recursion. Each operand is evaluated left before right, and an
    error is the first one met in that order."""
    todo: list = [expr]  # nodes to evaluate; a None applies the BinOp below
    values: list[Decimal] = []
    while todo:
        node = todo.pop()
        if node is None:
            node = todo.pop()
            right = values.pop()
            values.append(_apply(node, values.pop(), right))
        elif isinstance(node, Num):
            values.append(node.value)
        elif isinstance(node, Var):
            if node.name not in env:
                raise EvalError(f"unbound variable {node.name}")
            values.append(Decimal(env[node.name]))
        elif isinstance(node, Paren):
            todo.append(node.inner)
        elif isinstance(node, BinOp):
            todo += (node, None, node.right, node.left)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return values[0]


def _apply(node: BinOp, left: Decimal, right: Decimal) -> Decimal:
    """``node``'s operator applied to its operands' values, in
    ``ARITHMETIC``."""
    op = _OPS.get(node.op)
    if op is None:
        raise EvalError(f"unknown operator {node.op!r}")
    try:
        return op(left, right)
    except (DivisionByZero, InvalidOperation):
        raise EvalError("division by zero") from None
    except ArithmeticError as exc:  # Overflow: exponent beyond Emax
        raise EvalError(f"{type(exc).__name__.lower()} in "
                        f"{render_expr(node)}") from None


def render_expr(expr: Expr) -> str:
    """Render ``expr`` canonically: decimal points, no spaces, parens kept.

    ``parse_expr(render_expr(e))`` is structurally equal to ``e`` for every
    tree this module produces. A loop over an explicit stack, so that a
    tree of any depth needs no deeper recursion.
    """
    parts: list[str] = []
    todo: list = [expr]  # nodes to render, and text to write as it is
    while todo:
        node = todo.pop()
        if type(node) is str:
            parts.append(node)
        elif isinstance(node, Num):
            parts.append(str(node.value))
        elif isinstance(node, Var):
            parts.append(node.name)
        elif isinstance(node, Paren):
            parts.append("(")
            todo += (")", node.inner)
        elif isinstance(node, BinOp):
            todo += (node.right, node.op, node.left)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return "".join(parts)

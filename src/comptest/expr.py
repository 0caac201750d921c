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
from decimal import Decimal, DivisionByZero, InvalidOperation
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Expr:
        node = self.term()
        while self.peek() in {"+", "-"}:
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek() in {"*", "/"}:
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            start = self.pos
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                raise ExprError("unbalanced parenthesis (expected ')')", self.pos)
            self.pos += 1
            return Paren(inner)
        m = NUMBER_TOKEN.match(self.text, self.pos)
        if m:
            try:
                value = parse_number(m.group(0))
            except ValueError as exc:
                raise ExprError(str(exc), self.pos) from None
            self.pos = m.end()
            return Num(value)
        m = _IDENT.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Var(m.group(0))
        raise ExprError("expected number, identifier or '('", self.pos)


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExprError with the 0-based offset of the first offending
    character on empty input, trailing operators, unbalanced parentheses
    or anything outside the grammar.
    """
    p = _Parser(text)
    node = p.expr()
    if p.pos != len(text):
        raise ExprError(f"unexpected character {text[p.pos]!r}", p.pos)
    return node


def eval_expr(expr: Expr, env: Mapping[str, Decimal]) -> Decimal:
    """Evaluate ``expr`` under ``env`` with exact decimal arithmetic."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise EvalError(f"unbound variable {expr.name}")
        return Decimal(env[expr.name])
    if isinstance(expr, Paren):
        return eval_expr(expr.inner, env)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left / right
        except (DivisionByZero, InvalidOperation):
            raise EvalError("division by zero") from None
        except ArithmeticError as exc:  # Overflow: exponent beyond Emax
            raise EvalError(f"{type(exc).__name__.lower()} in "
                            f"{render_expr(expr)}") from None
        raise EvalError(f"unknown operator {expr.op!r}")
    raise TypeError(f"not an expression node: {expr!r}")


def render_expr(expr: Expr) -> str:
    """Render ``expr`` canonically: decimal points, no spaces, parens kept.

    ``parse_expr(render_expr(e))`` is structurally equal to ``e`` for every
    tree this module produces.
    """
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Paren):
        return f"({render_expr(expr.inner)})"
    if isinstance(expr, BinOp):
        return f"{render_expr(expr.left)}{expr.op}{render_expr(expr.right)}"
    raise TypeError(f"not an expression node: {expr!r}")

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from comptest import EvalError, ExprError, eval_expr, parse_expr, render_expr
from comptest.expr import BinOp, Num, Paren, Var

import strategies


def test_parse_scaled_bound():
    tree = parse_expr("(1.1*ubatt)")
    assert tree == Paren(BinOp("*", Num(Decimal("1.1")), Var("ubatt")))


def test_parse_plain_number():
    assert parse_expr("5") == Num(Decimal("5"))


@pytest.mark.parametrize("text,tree", [
    ("-1", Num(Decimal("-1"))),
    ("+.5", Num(Decimal("0.5"))),
    ("a--1", BinOp("-", Var("a"), Num(Decimal("-1")))),
    ("2*-3", BinOp("*", Num(Decimal("2")), Num(Decimal("-3")))),
    ("(-0.1*ubatt)", Paren(BinOp("*", Num(Decimal("-0.1")), Var("ubatt")))),
    ("-1e-3+a", BinOp("+", Num(Decimal("-0.001")), Var("a"))),
])
def test_parse_signed_numbers(text, tree):
    # Numbers in expressions follow the number rule, sign included.
    assert parse_expr(text) == tree
    assert parse_expr(render_expr(tree)) == tree


@pytest.mark.parametrize("text,offset", [
    ("--1", 0), ("-a", 0), ("-(1)", 0), ("a*--1", 2)])
def test_sign_belongs_to_a_number_only(text, offset):
    with pytest.raises(ExprError) as err:
        parse_expr(text)
    assert err.value.offset == offset


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprError) as err:
        parse_expr("1.1*")
    assert err.value.offset == 4
    with pytest.raises(ExprError) as err:
        parse_expr("")
    assert err.value.offset == 0
    with pytest.raises(ExprError) as err:
        parse_expr("(1.1*ubat")
    assert err.value.offset == 9
    with pytest.raises(ExprError):
        parse_expr("1+*2")
    with pytest.raises(ExprError):
        parse_expr("1 + 2")  # whitespace is not part of the grammar
    with pytest.raises(ExprError):
        parse_expr("UBATT")  # variables are lowercase


def test_eval_scaled_bounds():
    env = {"ubatt": Decimal("12.0")}
    assert eval_expr(parse_expr("(1.1*ubatt)"), env) == Decimal("13.2")
    assert eval_expr(parse_expr("(0.7*ubatt)"), env) == Decimal("8.4")


def test_eval_errors():
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(parse_expr("ubatt/0"), {"ubatt": Decimal("1")})
    with pytest.raises(EvalError, match="unbound variable vref"):
        eval_expr(parse_expr("vref"), {"ubatt": Decimal("1")})
    # The parser makes neither: a tree built in code.
    with pytest.raises(EvalError, match="unknown operator '%'"):
        eval_expr(BinOp("%", Num(Decimal(7)), Num(Decimal(2))), {})
    for walk in (lambda tree: eval_expr(tree, {}), render_expr):
        with pytest.raises(TypeError, match="not an expression node: "
                                            r"Decimal\('1'\)"):
            walk(BinOp("+", Num(Decimal(1)), Decimal(1)))


def test_literal_out_of_range_carries_offset():
    with pytest.raises(ExprError, match="out of range") as err:
        parse_expr("(1.1*1e9999999999999999999999)")
    assert err.value.offset == 5


def test_overflow_is_an_eval_error():
    env = {"ubatt": Decimal("12")}
    with pytest.raises(EvalError, match="overflow in 1E[+]999999[*]ubatt"):
        eval_expr(parse_expr("1e999999*ubatt"), env)
    with pytest.raises(EvalError, match="overflow"):
        eval_expr(parse_expr("(9e999999+9e999999)"), {})
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(parse_expr("0/0"), {})


def test_precedence_and_associativity():
    assert eval_expr(parse_expr("1+2*3"), {}) == 7
    assert eval_expr(parse_expr("1-2-3"), {}) == -4
    assert eval_expr(parse_expr("8/2/2"), {}) == 2
    assert eval_expr(parse_expr("2+8/4"), {}) == 4
    assert eval_expr(parse_expr("(1+2)*3"), {}) == 9


def test_render_golden_forms():
    assert render_expr(Paren(BinOp("*", Num(Decimal("1.1")),
                                   Var("ubatt")))) == "(1.1*ubatt)"
    assert render_expr(Num(Decimal("5000"))) == "5000"
    nested = Paren(BinOp("*", Paren(BinOp("+", Var("a"), Var("b"))), Var("c")))
    assert render_expr(nested) == "((a+b)*c)"
    assert parse_expr(render_expr(nested)) == nested


@given(tree=strategies.expressions())
def test_render_parse_round_trip(tree):
    assert parse_expr(render_expr(tree)) == tree


@given(text=st.text(alphabet="0123456789+-*/()abc.", max_size=20))
def test_text_round_trip_is_stable(text):
    # Whatever parses must re-render to something that parses identically.
    try:
        tree = parse_expr(text)
    except ExprError:
        return
    assert parse_expr(render_expr(tree)) == tree


_INT_TOKENS = st.integers(min_value=0, max_value=50).map(str)


@st.composite
def _linear_texts(draw):
    parts = [draw(_INT_TOKENS)]
    for _ in range(draw(st.integers(0, 4))):
        parts.append(draw(st.sampled_from(["+", "-", "*"])))
        parts.append(draw(_INT_TOKENS))
    return "".join(parts)


@given(text=_linear_texts())
def test_eval_agrees_with_reference_arithmetic(text):
    # Independent oracle: Python's own parser over exact fractions.
    expected = eval(text, {"__builtins__": {}}, {})  # ints only, exact
    assert eval_expr(parse_expr(text), {}) == Fraction(expected)


def test_division_matches_reference_on_exact_cases():
    for text, expected in [("9/3", 3), ("10/4", Decimal("2.5")),
                           ("100/8", Decimal("12.5"))]:
        assert eval_expr(parse_expr(text), {}) == expected


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("text,value", [
    ("(" * 400 + "(0.3*ubatt)" + ")" * 400, Decimal("3.6")),
    ("0.3*ubatt" + "+1" * 3000, Decimal("3003.6")),
])
def test_expression_depth_needs_no_recursion(text, value):
    # Parsing, evaluating and rendering hold their paths in lists: 400
    # nested parentheses and a chain of 3 001 terms go through within 50
    # frames of the caller's stack. The texts are compared, not the trees,
    # as == on a deep tree recurses.
    env = {"ubatt": Decimal("12")}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        tree = parse_expr(text)
        result = eval_expr(tree, env)
        rendered = render_expr(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert result == value
    assert rendered == text


def test_deep_errors_keep_their_offsets_and_texts():
    with pytest.raises(ExprError) as err:
        parse_expr("(" * 500 + "1+" + ")" * 500)
    assert err.value.offset == 502
    assert str(err.value) == "offset 502: expected number, identifier or '('"
    with pytest.raises(ExprError) as err:
        parse_expr("(" * 500 + "1" + ")" * 499)
    assert str(err.value) == \
        "offset 1000: unbalanced parenthesis (expected ')')"
    with pytest.raises(ExprError) as err:
        parse_expr("1" + "+1" * 2000 + ")")
    assert str(err.value) == "offset 4001: unexpected character ')'"
    # An overflow names the operation that overflowed, rendered whole.
    chain = "1e999999*ubatt" + "+0" * 2000
    with pytest.raises(EvalError) as err:
        eval_expr(parse_expr("9e999999*(" + chain + ")"),
                  {"ubatt": Decimal("12")})
    assert str(err.value) == "overflow in 1E+999999*ubatt"
    with pytest.raises(EvalError) as err:
        eval_expr(parse_expr("9e999999*(" + "2" + "+0" * 2000 + ")"), {})
    assert str(err.value) == ("overflow in 9E+999999*(2" + "+0" * 2000
                              + ")")

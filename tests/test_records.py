"""The contract of comptest's value types, whatever builds them: which are
read-only, what equality compares and what it ignores."""

from decimal import Decimal

import pytest

from comptest import (ConnectionMatrix, Connector, CsvDialect,
                      MethodInvocation, Requirement, ResourceDef,
                      ResourceTable, SignalDef, StandModel, StatusDef,
                      TestStep)
from comptest.expr import BinOp, Num, Paren, Var
from comptest.runner import StimulusRecord


def _requirement():
    return Requirement("p", MethodInvocation("put_r", {"r": Decimal(5)}), "s")


def _stimulus():
    return StimulusRecord("s", "p", "put_r", {"r": "5"}, "resource", "R1",
                          "Sw1.1", True, False)


#: Two equal values of each read-only type, built apart, and a field.
READ_ONLY = {
    "Requirement": (_requirement, "pin"),
    "Connector": (lambda: Connector("mux", 3, 2), "position"),
    "CsvDialect": (lambda: CsvDialect(",", "."), "field_separator"),
    "Num": (lambda: Num(Decimal("1.5")), "value"),
    "Var": (lambda: Var("ubatt"), "name"),
    "BinOp": (lambda: BinOp("*", Num(Decimal(2)), Var("x")), "op"),
    "Paren": (lambda: Paren(Var("x")), "inner"),
    "StimulusRecord": (_stimulus, "held"),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_read_only_types_refuse_assignment(name):
    make, field = READ_ONLY[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_read_only_types_compare_and_hash_by_value(name):
    make, _ = READ_ONLY[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert type(a).__hash__ is not None
    if name in ("Requirement", "StimulusRecord"):
        # They hold a dict (the invocation's or the rendered params), so
        # hashing one raises, as hashing the dict would.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_read_only_types_differ_by_any_compared_field():
    assert Connector("mux", 3, 2) != Connector("mux", 3, 1)
    assert Connector("mux", 3, 2) != Connector("switch", 3, 2)
    assert CsvDialect(",", ".") != CsvDialect()
    assert Num(Decimal(1)) != Num(Decimal(2))
    assert BinOp("+", Var("a"), Var("b")) != BinOp("-", Var("a"), Var("b"))
    assert _requirement() != Requirement("p", _requirement().invocation, "t")


def test_row_takes_no_part_in_equality():
    assert SignalDef("a", "input", ("p",), "s", row=2) == \
        SignalDef("a", "input", ("p",), "s", row=9)
    assert StatusDef("s", "put_r", "r", nom=Decimal(1), row=2) == \
        StatusDef("s", "put_r", "r", nom=Decimal(1))
    assert TestStep(0, Decimal(1), {"a": "s"}, row=3) == \
        TestStep(0, Decimal(1), {"a": "s"}, row=4)
    assert ResourceDef("R1", "put_r", "r", Decimal(0), Decimal(1), row=5) \
        == ResourceDef("R1", "put_r", "r", Decimal(0), Decimal(1))
    # ... while every other field does.
    assert SignalDef("a", "input", ("p",), "s") != \
        SignalDef("a", "input", ("p", "q"), "s")
    assert TestStep(0, Decimal(1), {"a": "s"}, "x") != \
        TestStep(0, Decimal(1), {"a": "s"})
    # A value of another class is unequal, and comparing raises nothing.
    assert SignalDef("s", "input", ("p",), "s") != \
        StatusDef("s", "put_r", "r", nom=Decimal(1))


def test_lines_and_group_key_take_no_part_in_equality():
    cells = {("R1", "p"): Connector("switch", 1, 1)}
    assert ConnectionMatrix(["p"], ["R1"], dict(cells), {"R1": 2}) == \
        ConnectionMatrix(["p"], ["R1"], dict(cells))
    assert ConnectionMatrix(["p"], ["R1"], dict(cells)) != \
        ConnectionMatrix(["p", "q"], ["R1"], dict(cells))
    a, b = Connector("switch", 1, 1), Connector("switch", 1, 1)
    assert a.group_key == ("switch", 1)
    # Forced past the read-only guard: equality and hash still ignore it.
    object.__setattr__(b, "group_key", ("mux", 9))
    assert a == b and hash(a) == hash(b)


def test_stand_equality_ignores_what_it_derives():
    def stand():
        return StandModel(
            ResourceTable([ResourceDef("R1", "put_r", "r", Decimal(0),
                                       Decimal(9))]),
            ConnectionMatrix(["p"], ["R1"],
                             {("R1", "p"): Connector("mux", 1, 1)}))

    a, b = stand(), stand()
    assert a == b
    b.wired.clear()
    b.grouped.clear()
    assert a == b
    assert str(a.matrix.cells["R1", "p"]) == "Mx1.1"

import copy
import pickle
from decimal import Decimal
from pathlib import Path

import pytest

from comptest import (INF, ScriptError, SheetError, SignalDef, SignalTable,
                      StatusDef, StatusTable, TestSequence, TestStep,
                      load_script, parse_test_sheet, validate_sheets)
from comptest import ingest, sheets
from comptest.sheets import (MAX_DIGITS, method_class, parse_number,
                             parse_step_index)

DATA = Path(__file__).resolve().parent.parent / "data" / "interior_light"


def make_test(steps):
    return TestSequence("t", steps)


def test_inf_is_one_object():
    # Scripts, sheets and the allocator test for the open circuit by
    # identity, so no copy may make a second one.
    assert copy.copy(INF) is INF
    assert copy.deepcopy({"r": [INF]})["r"][0] is INF
    assert pickle.loads(pickle.dumps(INF)) is INF
    assert repr(INF) == str(INF) == "INF"


def test_demo_sheets_validate_clean(demo_signals, demo_statuses, demo_test):
    assert validate_sheets(demo_signals, demo_statuses, demo_test) == []


def test_unknown_status_is_one_violation(demo_signals, demo_statuses, demo_test):
    steps = [TestStep(s.index, s.dt, dict(s.assignments), s.remark, row=s.row)
             for s in demo_test.steps]
    steps[3].assignments["INT_ILL"] = "Hi"
    [fault] = validate_sheets(demo_signals, demo_statuses, make_test(steps))
    assert isinstance(fault, SheetError)
    assert str(fault) == "test, row 5, column INT_ILL: unknown status 'Hi'"
    assert (fault.sheet, fault.row, fault.column) == ("test", 5, "INT_ILL")


def test_direction_method_mismatch(demo_signals, demo_statuses, demo_test):
    steps = [TestStep(s.index, s.dt, dict(s.assignments), s.remark)
             for s in demo_test.steps]
    steps[1].assignments["DS_FL"] = "Ho"  # get-class status on an input
    [fault] = validate_sheets(demo_signals, demo_statuses, make_test(steps))
    assert str(fault) == ("test, column DS_FL: direction/method mismatch: "
                          "get-class status 'Ho' (get_u) assigned to input "
                          "signal 'DS_FL'")


def test_an_unknown_status_is_reported_at_each_use(demo_signals,
                                                  demo_statuses, demo_test):
    steps = [TestStep(s.index, s.dt, dict(s.assignments), s.remark, row=s.row)
             for s in demo_test.steps]
    steps[6].assignments["INT_ILL"] = "Hi"
    steps[3].assignments["INT_ILL"] = "Hi"
    faults = validate_sheets(demo_signals, demo_statuses, make_test(steps))
    assert [str(fault) for fault in faults] == [
        "test, row 5, column INT_ILL: unknown status 'Hi'",
        "test, row 8, column INT_ILL: unknown status 'Hi'"]


def test_a_status_that_fits_an_input_is_still_refused_on_an_output(
        demo_signals, demo_statuses, demo_test):
    # 'Closed' is DS_FL's initial status and fits it in rows 2 and 4 too;
    # on the output INT_ILL it is a mismatch all the same.
    steps = [TestStep(s.index, s.dt, dict(s.assignments), s.remark, row=s.row)
             for s in demo_test.steps]
    steps[5].assignments["INT_ILL"] = "Closed"
    [fault] = validate_sheets(demo_signals, demo_statuses, make_test(steps))
    assert str(fault) == ("test, row 7, column INT_ILL: direction/method "
                          "mismatch: put-class status 'Closed' (put_r) "
                          "assigned to output signal 'INT_ILL'")


def test_check_reads_and_checks_each_distinct_value_once(
        monkeypatch, demo_signals, demo_statuses):
    # The shipped test sheet uses 7 statuses in 23 cells and 3 Δt texts in
    # 10 rows; with the 5 initial statuses, 7 (status, direction) pairs in
    # 28 uses. Each distinct text and pair is read and checked once.
    calls = {"check_ident": 0, "_parse_cell": 0, "_class_fault": 0}

    def counted(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    counted(ingest, "check_ident")
    counted(ingest, "_parse_cell")
    counted(sheets, "_class_fault")
    test = parse_test_sheet(
        (DATA / "test_interior_light.csv").read_text("utf-8"))
    assert validate_sheets(demo_signals, demo_statuses, test) == []
    assert calls == {"check_ident": 12,  # 5 header labels, 7 statuses
                     "_parse_cell": 3, "_class_fault": 7}


def test_unknown_signal_and_bad_initial_status(demo_statuses, demo_test):
    signals = SignalTable([
        SignalDef("DS_FL", "input", ("DS_FL",), "Nope", row=2),
        SignalDef("INT_ILL", "output", ("INT_ILL_F",), "Lo", row=3),
    ])
    steps = [TestStep(0, Decimal("1"), {"GHOST": "Lo"})]
    faults = validate_sheets(signals, demo_statuses, make_test(steps))
    assert [str(fault) for fault in faults] == [
        "signals, row 2, column initial_status: unknown status 'Nope'",
        "test, column GHOST: unknown signal 'GHOST'"]


def test_validation_covers_initial_status_direction(demo_statuses):
    # An output signal whose initial status is a stimulus is a violation.
    signals = SignalTable([SignalDef("OUT", "output", ("OUT",), "Open", row=2)])
    steps = [TestStep(0, Decimal("1"), {})]
    [fault] = validate_sheets(signals, demo_statuses, make_test(steps))
    assert "direction/method mismatch" in str(fault)
    assert (fault.sheet, fault.column) == ("signals", "initial_status")


def test_signal_table_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate signal"):
        SignalTable([SignalDef("A", "input", ("P1",), "x"),
                     SignalDef("A", "input", ("P2",), "x")])


def test_signal_table_rejects_shared_pins():
    with pytest.raises(ValueError, match="pin"):
        SignalTable([SignalDef("A", "input", ("P1",), "x"),
                     SignalDef("B", "input", ("P1",), "x")])


def test_sheet_errors_are_value_errors_placed_at_the_row():
    with pytest.raises(ValueError) as err:
        SignalTable([SignalDef("A", "input", ("P1",), "x", row=2),
                     SignalDef("a", "input", ("P2",), "x", row=3)])
    assert isinstance(err.value, SheetError)
    assert (err.value.sheet, err.value.row, err.value.column) == \
        ("signals", 3, "name")
    with pytest.raises(SheetError) as err:
        SignalDef("A", "input", (), "x", row=4)
    assert (err.value.sheet, err.value.row, err.value.column) == \
        ("signals", 4, "pins")


def test_status_table_rejects_duplicates():
    row = StatusDef("S", "put_r", "r", nom=Decimal("1"))
    with pytest.raises(ValueError, match="duplicate status"):
        StatusTable([row, StatusDef("S", "put_r", "r", nom=Decimal("2"))])


@pytest.mark.parametrize("var_x", ["0", "9a", "a-b", ""])
def test_status_def_rejects_bad_var_x(var_x):
    with pytest.raises(ValueError, match="var_x .* is not a valid name"):
        StatusDef("S", "get_u", "u", var_x=var_x, max=Decimal("1.1"))


@pytest.mark.parametrize("method,attribut", [("put-r", "r"), ("1put", "r"),
                                             ("put_r", "r.1"), ("put_r", "")])
def test_status_def_rejects_bad_method_or_attribut(method, attribut):
    with pytest.raises(ValueError, match="is not a valid name"):
        StatusDef("S", method, attribut, nom=Decimal("1"))


def test_sequence_invariants():
    with pytest.raises(ValueError):
        TestSequence("t", [])
    with pytest.raises(ValueError, match="non-consecutive"):
        TestSequence("t", [TestStep(0, Decimal("1"), {}),
                           TestStep(2, Decimal("1"), {})])
    with pytest.raises(ValueError, match="dt"):
        TestStep(0, Decimal("0"), {})


def test_method_class_prefixes():
    assert method_class("put_r") == "put"
    assert method_class("get_u") == "get"
    assert method_class("frobnicate") is None


ONE_STATEMENT_SCRIPT = """<?xml version="1.0" encoding="UTF-8"?>
<test name="t" dut="d" format="1">
  <signals>
    <signal name="a" direction="{direction}" pins="a" />
  </signals>
  <init dt="0.1" />
  <step n="0" dt="1">
    <signal name="a">
      <{method} x_max="1" />
    </signal>
  </step>
</test>
"""


@pytest.mark.parametrize("method,direction,fits", [
    ("put_r", "input", True), ("put_r", "output", False),
    ("get_u", "output", True), ("get_u", "input", False),
])
def test_direction_rule_agrees_across_layers(method, direction, fits):
    # Sheet validation and the script loader accept and refuse the same
    # (method, direction) pairs.
    status = StatusDef("S", method, "x", nom=Decimal("1"), max=Decimal("1"))
    signals = SignalTable([SignalDef("A", direction, ("A",), "S")])
    test = make_test([TestStep(0, Decimal("1"), {"A": "S"})])
    validated = not validate_sheets(signals, StatusTable([status]), test)

    try:
        load_script(ONE_STATEMENT_SCRIPT.format(method=method,
                                                direction=direction))
        loaded = True
    except ScriptError as exc:
        assert f"{direction} signal 'a'" in str(exc)
        loaded = False

    assert validated == loaded == fits


def test_step_count_rule_agrees_across_layers():
    # The test sheet and the script loader refuse a test without steps with
    # one text.
    with pytest.raises(SheetError) as sheet:
        make_test([])
    with pytest.raises(ScriptError) as script:
        load_script(ONE_STATEMENT_SCRIPT.format(method="put_r",
                                                direction="input")
                    .split("  <step")[0] + "</test>\n")
    assert str(sheet.value) == "test: a test needs at least one step"
    assert str(script.value) == "line 2: a test needs at least one step"


@pytest.mark.parametrize("text,value", [
    ("12.5", "12.5"), ("-.5", "-0.5"), ("1e999999", "1E+999999"),
    ("-1e-999999", "-1E-999999"), ("0", "0")])
def test_number_rule_accepts(text, value):
    assert parse_number(text) == Decimal(value)
    assert str(parse_number(text)) == value


@pytest.mark.parametrize("text,message", [
    ("1e9999999999999999999999", "out of range"), ("10e999999", "out of range"),
    ("1e-1000000", "out of range"), ("nan", "malformed number"),
    ("1_2", "malformed number"), ("1,5", "malformed number"),
    ("٣", "malformed number"), ("1٠", "malformed number")])
def test_number_rule_refuses(text, message):
    # Decimal() itself raises InvalidOperation on the first one.
    with pytest.raises(ValueError, match=message):
        parse_number(text)


@pytest.mark.parametrize("error,where,prefix", [
    (SheetError, {"sheet": "test", "row": 2, "column": "test step"},
     "test, row 2, column test step: "),
    (ScriptError, {"line": 24}, "line 24: ")])
def test_step_index_rule_bounds_its_digits(error, where, prefix):
    # Past the bound the rule raises its own error, not the interpreter's
    # ValueError for a long int string (4 300 digits on CPython 3.10.7+),
    # so its text is the same on every Python.
    assert parse_step_index("0" * MAX_DIGITS, error, **where) == 0
    assert parse_step_index("0" * (MAX_DIGITS - 1) + "7", error,
                            **where) == 7
    for digits in (MAX_DIGITS + 1, 5000):
        with pytest.raises(error) as err:
            parse_step_index("1" * digits, error, **where)
        assert str(err.value) == (f"{prefix}step index of {digits} digits "
                                  f"(at most 640)")

from decimal import Decimal

import pytest

from comptest import (ScriptError, SheetError, SignalDef, SignalTable,
                      StatusDef, StatusTable, TestSequence, TestStep,
                      load_script, validate_sheets)
from comptest.sheets import method_class, parse_number


def make_test(steps):
    return TestSequence("t", steps)


def test_demo_sheets_validate_clean(demo_signals, demo_statuses, demo_test):
    report = validate_sheets(demo_signals, demo_statuses, demo_test)
    assert report.ok
    assert report.violations == []


def test_unknown_status_is_one_violation(demo_signals, demo_statuses, demo_test):
    steps = [TestStep(s.index, s.dt, dict(s.assignments), s.remark, row=s.row)
             for s in demo_test.steps]
    steps[3].assignments["INT_ILL"] = "Hi"
    report = validate_sheets(demo_signals, demo_statuses, make_test(steps))
    assert len(report.violations) == 1
    v = report.violations[0]
    assert "unknown status" in v.message and "Hi" in v.message
    assert v.sheet == "test" and v.column == "INT_ILL"


def test_direction_method_mismatch(demo_signals, demo_statuses, demo_test):
    steps = [TestStep(s.index, s.dt, dict(s.assignments), s.remark)
             for s in demo_test.steps]
    steps[1].assignments["DS_FL"] = "Ho"  # get-class status on an input
    report = validate_sheets(demo_signals, demo_statuses, make_test(steps))
    assert len(report.violations) == 1
    assert "direction/method mismatch" in report.violations[0].message


def test_unknown_signal_and_bad_initial_status(demo_statuses, demo_test):
    signals = SignalTable([
        SignalDef("DS_FL", "input", ("DS_FL",), "Nope", row=2),
        SignalDef("INT_ILL", "output", ("INT_ILL_F",), "Lo", row=3),
    ])
    steps = [TestStep(0, Decimal("1"), {"GHOST": "Lo"})]
    report = validate_sheets(signals, demo_statuses, make_test(steps))
    messages = [v.message for v in report.violations]
    assert any("unknown status 'Nope'" in m for m in messages)
    assert any("unknown signal 'GHOST'" in m for m in messages)


def test_validation_covers_initial_status_direction(demo_statuses):
    # An output signal whose initial status is a stimulus is a violation.
    signals = SignalTable([SignalDef("OUT", "output", ("OUT",), "Open", row=2)])
    steps = [TestStep(0, Decimal("1"), {})]
    report = validate_sheets(signals, demo_statuses, make_test(steps))
    assert len(report.violations) == 1
    assert "direction/method mismatch" in report.violations[0].message
    assert report.violations[0].sheet == "signals"


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
    validated = validate_sheets(signals, StatusTable([status]), test).ok

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

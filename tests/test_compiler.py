import io
import textwrap
from decimal import Decimal
from pathlib import Path

import pytest

from comptest import (INF, InteriorLightConfig, InteriorLightDut, SheetError,
                      SignalDef, SignalTable, StatusTable, TestSequence,
                      TestStep, ValidationFailed, compile, emit_xml, execute,
                      load_script, lower_status, report_to_json)
from comptest.expr import BinOp, Num, Paren, Var
from comptest.sheets import StatusDef

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "interior_light" \
    / "expected_script.xml"


def test_lower_voltage_check_with_scale_variable(demo_statuses):
    inv = lower_status(demo_statuses["Ho"])
    assert inv.method == "get_u"
    assert list(inv.params) == ["u_max", "u_min"]  # max first, as emitted
    assert inv.params["u_max"] == Paren(BinOp("*", Num(Decimal("1.1")),
                                              Var("ubatt")))
    assert inv.params["u_min"] == Paren(BinOp("*", Num(Decimal("0.7")),
                                              Var("ubatt")))


def test_lower_low_check(demo_statuses):
    inv = lower_status(demo_statuses["Lo"])
    assert inv.params["u_min"] == Paren(BinOp("*", Num(Decimal("0")),
                                              Var("ubatt")))
    assert inv.params["u_max"] == Paren(BinOp("*", Num(Decimal("0.3")),
                                              Var("ubatt")))


def test_lower_bus_stimulus(demo_statuses):
    inv = lower_status(demo_statuses["Off"])
    assert inv.method == "put_can"
    assert inv.params == {"data": "0001B"}


def test_lower_open_circuit_with_passthrough(demo_statuses):
    inv = lower_status(demo_statuses["Closed"])
    assert list(inv.params) == ["r", "d1", "d2", "d3"]
    assert inv.params["r"] is INF
    assert inv.params["d1"] is INF
    assert inv.params["d2"] == Decimal("5000")
    assert inv.is_open_circuit()


def test_lower_plain_numeric_bounds():
    status = StatusDef("Mid", "get_u", "u", min=Decimal("2"), max=Decimal("4"))
    inv = lower_status(status)
    assert inv.params == {"u_max": Decimal("4"), "u_min": Decimal("2")}


def test_lower_scaled_nominal_value():
    status = StatusDef("Half", "put_v", "v", var_x="UBATT", nom=Decimal("0.5"))
    inv = lower_status(status)
    assert inv.params["v"] == Paren(BinOp("*", Num(Decimal("0.5")),
                                          Var("ubatt")))


def test_lower_rejects_incomplete_statuses():
    # StatusDef owns the status-row rules, so no such row reaches lowering.
    with pytest.raises(SheetError, match="neither min nor max"):
        StatusDef("X", "get_u", "u")
    with pytest.raises(SheetError, match="no value"):
        StatusDef("X", "put_r", "r")
    with pytest.raises(SheetError, match="requires a numeric nom"):
        StatusDef("X", "put_can", "data", var_x="ubatt", nom="0001B")


def test_compile_step7_single_statement(demo_script):
    step7 = demo_script.steps[7]
    assert step7.dt == Decimal("280")
    assert len(step7.statements) == 1
    st = step7.statements[0]
    assert st.signal == "int_ill"
    assert st.invocation.method == "get_u"


def test_compile_init_block(demo_script):
    assert demo_script.init.dt == Decimal("0.1")
    assert [st.signal for st in demo_script.init.statements] == \
        ["ign_st", "ds_fl", "ds_fr", "night"]


def test_compile_refuses_invalid_sheets(demo_signals, demo_statuses):
    bad = TestSequence("t", [TestStep(0, Decimal("1"), {"INT_ILL": "Hi"})])
    with pytest.raises(ValidationFailed):
        compile(demo_signals, demo_statuses, bad)


def test_single_assignment_compiles_to_single_statement(demo_signals,
                                                        demo_statuses):
    test = TestSequence("mini", [TestStep(0, Decimal("1"), {"DS_FL": "Open"})])
    script = compile(demo_signals, demo_statuses, test)
    assert len(script.init.statements) == 4
    assert len(script.steps) == 1
    assert len(script.steps[0].statements) == 1


def test_emitted_xml_matches_golden_file(demo_xml):
    assert demo_xml == GOLDEN.read_text(encoding="utf-8")


def test_emitted_fragment_for_voltage_check(demo_xml):
    fragment = textwrap.dedent("""\
        <signal name="int_ill">
          <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />
        </signal>""")
    indented = textwrap.indent(fragment, "    ")
    assert indented in demo_xml


def test_open_circuit_statement_surface(demo_signals, demo_statuses):
    test = TestSequence("mini", [TestStep(0, Decimal("1"), {"DS_FL": "Closed"})])
    xml = emit_xml(compile(demo_signals, demo_statuses, test))
    assert '<signal name="ds_fl">' in xml
    assert '<put_r r="INF" d1="INF" d2="5000" d3="5000" />' in xml


def test_compile_is_deterministic(demo_signals, demo_statuses, demo_test,
                                  demo_xml):
    again = emit_xml(compile(demo_signals, demo_statuses, demo_test,
                             dut="interior_light_ecu"))
    assert again == demo_xml


def test_lowering_is_status_local(demo_signals, demo_statuses, demo_test,
                                  demo_xml):
    # Permuting status-table rows changes nothing in the emitted script.
    permuted = StatusTable(list(reversed(demo_statuses.statuses)))
    xml = emit_xml(compile(demo_signals, permuted, demo_test,
                           dut="interior_light_ecu"))
    assert xml == demo_xml


def test_script_bytes_do_not_depend_on_stand_environment(demo_signals,
                                                         demo_statuses,
                                                         demo_test, demo_xml):
    # Bounds stay symbolic: no environment value is an input to compilation.
    for _ in range(3):
        assert emit_xml(compile(demo_signals, demo_statuses, demo_test,
                                dut="interior_light_ecu")) == demo_xml


def test_settle_is_configurable(demo_signals, demo_statuses, demo_test):
    script = compile(demo_signals, demo_statuses, demo_test,
                     settle=Decimal("0.25"))
    assert script.init.dt == Decimal("0.25")
    with pytest.raises(ValueError):
        compile(demo_signals, demo_statuses, demo_test, settle=Decimal("0"))


def test_negative_scaled_values_load_back():
    # A negative multiplier of var (x) is emitted as a signed number inside
    # the expression, which the loader reads back.
    statuses = StatusTable([
        StatusDef("Neg", "put_v", "v", var_x="UBATT", nom=Decimal("-0.5")),
        StatusDef("Near0", "get_u", "u", var_x="UBATT", min=Decimal("-0.1"),
                  max=Decimal("0.2"))])
    signals = SignalTable([SignalDef("IN", "input", ("IN",), "Neg"),
                           SignalDef("OUT", "output", ("OUT",), "Near0")])
    test = TestSequence("t", [TestStep(0, Decimal("1"), {"OUT": "Near0"})])
    script = compile(signals, statuses, test)
    xml = emit_xml(script)
    assert '<put_v v="(-0.5*ubatt)" />' in xml
    assert '<get_u u_max="(0.2*ubatt)" u_min="(-0.1*ubatt)" />' in xml
    loaded = load_script(xml)
    assert loaded == script
    assert emit_xml(loaded) == xml


def test_compile_gives_equal_statements_one_invocation(
        demo_signals, demo_statuses, demo_test, demo_stand, demo_env):
    script = compile(demo_signals, demo_statuses, demo_test,
                     dut="interior_light_ecu")
    statements = [st for block in (script.init, *script.steps)
                  for st in block.statements]
    # repr tells 0.5 from 0.50, as the emitted text does.
    shared: dict[str, set[int]] = {}
    for st in statements:
        shared.setdefault(repr(st.invocation), set()).add(id(st.invocation))
    assert len(statements) > len(shared) == 7  # one per status
    assert all(len(ids) == 1 for ids in shared.values())
    # Shared as the loader shares them: the run cannot tell the two apart.
    reports = [io.StringIO(), io.StringIO()]
    for s, out in zip((script, load_script(emit_xml(script))), reports):
        report_to_json(execute(s, demo_stand, demo_env, InteriorLightDut(
            InteriorLightConfig(ubatt=Decimal("12.0")))), out)
    assert reports[0].getvalue() == reports[1].getvalue()


def test_compile_gives_equal_cells_one_statement(demo_signals, demo_statuses,
                                                 demo_test):
    script = compile(demo_signals, demo_statuses, demo_test,
                     dut="interior_light_ecu")
    statements = [st for block in (script.init, *script.steps)
                  for st in block.statements]
    shared: dict[tuple[str, str], set[int]] = {}
    for st in statements:
        shared.setdefault((st.signal, repr(st.invocation)), set()).add(id(st))
    assert len(statements) > len(shared)
    assert all(len(ids) == 1 for ids in shared.values())
    # Each statement names its signal with the manifest's own string.
    names = {sig.name: sig.name for sig in script.signals}
    assert all(st.signal is names[st.signal] for st in statements)

from decimal import Decimal

import pytest

from comptest import (ConnectionMatrix, DutError, InteriorLightConfig,
                      InteriorLightDut, ResourceTable, StandModel, execute,
                      load_script, report_to_json, report_to_text)
from comptest.runner import report_to_dict


def fresh_dut(timeout="300"):
    return InteriorLightDut(InteriorLightConfig(ubatt=Decimal("12.0"),
                                             timeout_s=Decimal(timeout)))


def test_end_to_end_demo_passes(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut())
    assert report.overall and not report.aborted
    assert report.steps_passed == 10
    assert report.checks_failed == 0
    t_ends = [s.t_end for s in report.steps]
    assert t_ends == [Decimal(x) for x in
                      ("0.6", "1.1", "1.6", "2.1", "2.6", "3.1", "3.6",
                       "283.6", "308.6", "309.1")]
    assert report.step_time == Decimal("309.0")
    assert report.total_time == Decimal("309.1")


def test_clock_accumulates_exactly(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut())
    running = report.settle.dt
    for record in report.steps:
        running += record.dt
        assert record.t_end == running


def test_short_timeout_fails_exactly_step7(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut("250"))
    assert not report.overall and not report.aborted
    assert [s.index for s in report.steps if not s.passed] == [7]


def test_long_timeout_fails_exactly_step8(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut("310"))
    assert not report.overall and not report.aborted
    assert [s.index for s in report.steps if not s.passed] == [8]


def test_execution_continues_after_check_failures(demo_plan, demo_stand,
                                                  demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut("250"))
    assert len(report.steps) == 10  # failure at step 7 does not stop the run


def test_unbound_variable_aborts(demo_plan, demo_stand):
    report = execute(demo_plan, demo_stand, {}, fresh_dut())
    assert report.aborted
    assert report.abort_kind == "environment"
    assert "unbound variable ubatt" in report.abort_message


def test_unbound_variable_names_the_variable(demo_script, demo_stand):
    from comptest import emit_xml
    xml = emit_xml(demo_script).replace("ubatt", "vref")
    plan = load_script(xml)
    report = execute(plan, demo_stand, {"ubatt": Decimal("12.0")}, fresh_dut())
    assert report.aborted
    assert "unbound variable vref" in report.abort_message


def test_allocation_error_aborts(demo_plan, demo_stand, demo_env):
    # Without the DVM the first check cannot be allocated.
    reduced = StandModel(
        ResourceTable([r for r in demo_stand.resources if r.id != "Ress1"]),
        ConnectionMatrix(demo_stand.matrix.pins,
                         [r for r in demo_stand.matrix.rows if r != "Ress1"],
                         {k: v for k, v in demo_stand.matrix.cells.items()
                          if k[0] != "Ress1"}))
    report = execute(demo_plan, reduced, demo_env, fresh_dut())
    assert report.aborted
    assert report.abort_kind == "allocation"
    assert report.abort_step == 0
    assert "get_u" in report.abort_message
    assert not report.overall


@pytest.mark.parametrize("failing_call,abort_step", [(1, None), (3, 1)])
def test_dut_error_in_advance_aborts(demo_plan, demo_stand, demo_env,
                                     failing_call, abort_step):
    class StallingDut(InteriorLightDut):
        calls = 0

        def advance(self, dt):
            self.calls += 1
            if self.calls == failing_call:
                raise DutError("clock stalled")
            super().advance(dt)

    dut = StallingDut(InteriorLightConfig(ubatt=Decimal("12.0")))
    report = execute(demo_plan, demo_stand, demo_env, dut)
    assert report.aborted and not report.overall
    assert report.abort_kind == "environment"
    assert report.abort_step == abort_step
    assert report.abort_message == "clock stalled"
    assert len(report.steps) == (abort_step or 0)


@pytest.mark.parametrize("method,abort_step", [
    ("set_input", None), ("advance", None), ("read_pin", 0)])
def test_any_dut_exception_aborts_as_environment(demo_plan, demo_stand,
                                                 demo_env, method, abort_step):
    def crash(self, *args):
        raise KeyError("int_ill_f")

    CrashingDut = type("CrashingDut", (InteriorLightDut,), {method: crash})
    dut = CrashingDut(InteriorLightConfig(ubatt=Decimal("12.0")))
    report = execute(demo_plan, demo_stand, demo_env, dut)
    assert report.aborted and not report.overall
    assert report.abort_kind == "environment"
    assert report.abort_step == abort_step
    assert report.abort_message == "dut model raised KeyError: 'int_ill_f'"
    assert len(report.steps) == 0


def test_report_records_resolved_resources(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut())
    step1 = report.steps[1]
    dsfl = next(r for r in step1.stimuli if r.signal == "ds_fl")
    assert dsfl.changed
    assert dsfl.delivery == "resource"
    assert dsfl.resource == "Ress2"
    assert dsfl.connector == "Mx1.2"
    ign = next(r for r in step1.stimuli if r.signal == "ign_st")
    assert ign.delivery == "bus" and ign.resource is None
    assert not ign.changed
    dsfr = next(r for r in step1.stimuli if r.signal == "ds_fr")
    assert dsfr.delivery == "open_circuit"


def test_report_bounds_are_evaluated(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut())
    check = report.steps[7].checks[0]
    assert check.low == Decimal("8.4")
    assert check.high == Decimal("13.2")
    assert check.measured == Decimal("12.0")
    assert check.passed


def test_checks_cover_every_pin(demo_plan, demo_stand, demo_env):
    report = execute(demo_plan, demo_stand, demo_env, fresh_dut())
    for step in report.steps:
        assert [c.pin for c in step.checks] == ["int_ill_f", "int_ill_r"]


def test_reports_are_byte_identical(demo_plan, demo_stand, demo_env):
    a = report_to_json(execute(demo_plan, demo_stand, demo_env, fresh_dut()))
    b = report_to_json(execute(demo_plan, demo_stand, demo_env, fresh_dut()))
    assert a == b
    ta = report_to_text(execute(demo_plan, demo_stand, demo_env, fresh_dut()))
    tb = report_to_text(execute(demo_plan, demo_stand, demo_env, fresh_dut()))
    assert ta == tb


def test_json_report_shape(demo_plan, demo_stand, demo_env):
    doc = report_to_dict(execute(demo_plan, demo_stand, demo_env, fresh_dut()))
    assert doc["overall"] == "pass"
    assert doc["totals"]["steps_total"] == 10
    assert doc["totals"]["step_time"] == "309.0"
    assert doc["totals"]["total_time"] == "309.1"
    assert doc["init"]["n"] == -1
    assert len(doc["steps"]) == 10
    assert doc["steps"][7]["checks"][0]["min"] == "8.40"


def test_text_report_mentions_failures(demo_plan, demo_stand, demo_env):
    text = report_to_text(execute(demo_plan, demo_stand, demo_env,
                                  fresh_dut("250")))
    assert "RESULT: FAIL" in text
    assert "step 7" in text and "FAIL" in text


def test_pacing_sleeps_per_dwell(demo_plan, demo_stand, demo_env, monkeypatch):
    naps = []
    monkeypatch.setattr("comptest.runner.time.sleep", naps.append)
    execute(demo_plan, demo_stand, demo_env, fresh_dut(), pace=True)
    assert naps[0] == pytest.approx(0.1)
    assert len(naps) == 11  # settle plus ten steps
    assert naps[8] == pytest.approx(280.0)


def test_unpaced_run_is_fast(demo_plan, demo_stand, demo_env):
    import time
    start = time.perf_counter()
    execute(demo_plan, demo_stand, demo_env, fresh_dut())
    assert time.perf_counter() - start < 1.0

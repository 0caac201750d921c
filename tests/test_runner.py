import io
import json
import random
import re
import tracemalloc
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from comptest import (ConnectionMatrix, Connector, DutError, EvalError,
                      InteriorLightConfig, InteriorLightDut, MethodInvocation,
                      ResourceDef, ResourceTable, StandModel, emit_xml,
                      eval_expr, execute, load_script, lower_status,
                      render_expr, report_to_json, report_to_text)
from comptest.compiler import render_value
from comptest.sheets import method_class
from comptest.expr import BinOp, Num, Paren, Var
from comptest.runner import (Abort, CheckRecord, RunReport, StepRecord,
                             StimulusRecord, plan)
from comptest import runner as runner_module
from comptest.stand import BUS_METHODS

import strategies
from oracles import (random_run_case, reference_report_json,
                     reference_report_text, repeated_steps, replay_run)


def fresh_dut(timeout="300"):
    return InteriorLightDut(InteriorLightConfig(ubatt=Decimal("12.0"),
                                             timeout_s=Decimal(timeout)))


def rendered(report, render=report_to_json) -> str:
    """What ``render`` writes for ``report``."""
    out = io.StringIO()
    render(report, out)
    return out.getvalue()


def test_end_to_end_demo_passes(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    assert report.overall and report.abort is None
    assert report.steps_passed == 10
    assert report.checks_failed == 0
    t_ends = [s.t_end for s in report.steps]
    assert t_ends == [Decimal(x) for x in
                      ("0.6", "1.1", "1.6", "2.1", "2.6", "3.1", "3.6",
                       "283.6", "308.6", "309.1")]
    assert report.step_time == Decimal("309.0")
    assert report.total_time == Decimal("309.1")


def test_clock_accumulates_exactly(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    running = report.settle.dt
    for record in report.steps:
        running += record.dt
        assert record.t_end == running


def test_short_timeout_fails_exactly_step7(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut("250"))
    assert not report.overall and report.abort is None
    assert [s.index for s in report.steps if not s.passed] == [7]


def test_long_timeout_fails_exactly_step8(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut("310"))
    assert not report.overall and report.abort is None
    assert [s.index for s in report.steps if not s.passed] == [8]


@pytest.mark.parametrize("prec,rounding", [
    (1, ROUND_HALF_EVEN), (1, ROUND_FLOOR), (2, ROUND_FLOOR)])
def test_the_thread_decimal_context_leaves_the_dut_clock(demo_stand, demo_env,
                                                         prec, rounding):
    # The reference DUT keeps its clock, and measures its timeout, in the
    # run's own context: at one digit 0.5 + 280 s would read 3E+2.
    shipped = Path(__file__).resolve().parents[1] / "data" / "interior_light"
    script = load_script(
        (shipped / "expected_script.xml").read_text(encoding="utf-8"))
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = prec, rounding
        report = execute(script, demo_stand, demo_env, fresh_dut())
    assert rendered(report) == (shipped / "expected_report.json").read_text(
        encoding="utf-8")


def test_execution_continues_after_check_failures(demo_loaded, demo_stand,
                                                  demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut("250"))
    assert len(report.steps) == 10  # failure at step 7 does not stop the run


def test_unbound_variable_aborts(demo_loaded, demo_stand):
    report = execute(demo_loaded, demo_stand, {}, fresh_dut())
    assert report.abort.kind == "environment"
    assert "unbound variable ubatt" in report.abort.message


def test_unbound_variable_names_the_variable(demo_script, demo_stand):
    from comptest import emit_xml
    xml = emit_xml(demo_script).replace("ubatt", "vref")
    loaded = load_script(xml)
    report = execute(loaded, demo_stand, {"ubatt": Decimal("12.0")},
                     fresh_dut())
    assert "unbound variable vref" in report.abort.message


def _without_dvm(stand: StandModel) -> StandModel:
    return StandModel(
        ResourceTable([r for r in stand.resources if r.id != "Ress1"]),
        ConnectionMatrix(stand.matrix.pins,
                         [r for r in stand.matrix.rows if r != "Ress1"],
                         {k: v for k, v in stand.matrix.cells.items()
                          if k[0] != "Ress1"}))


def test_allocation_error_aborts(demo_loaded, demo_stand, demo_env):
    # Without the DVM the first check cannot be allocated.
    report = execute(demo_loaded, _without_dvm(demo_stand), demo_env,
                     fresh_dut())
    assert report.abort[:2] == (0, "allocation")
    assert "get_u" in report.abort.message
    assert not report.overall


@pytest.mark.parametrize("fault,kind", [
    ("unbound", "environment"), ("allocation", "allocation"),
    ("clock", "environment")])
def test_a_plan_walked_to_its_end_ends_at_its_abort(
        demo_xml, demo_stand, demo_env, fault, kind):
    # A run stops at the Abort; a caller that walks the whole plan, as a
    # listing of it would, gets nothing after it.
    stand, env = demo_stand, demo_env
    if fault == "unbound":
        env = {}
    elif fault == "allocation":
        stand = _without_dvm(demo_stand)
    else:
        demo_xml = demo_xml.replace('<step n="1" dt="0.5">',
                                    '<step n="1" dt="9e999999">')
    *planned, abort = plan(load_script(demo_xml), stand, env)
    assert type(abort) is Abort and abort.kind == kind
    assert not any(type(block) is Abort for block in planned)
    assert abort.step == len(planned) - 1  # the init block is -1


def test_a_check_with_an_inf_bound_still_needs_an_instrument(
        demo_xml, demo_stand, demo_env):
    # Open circuit is a stimulus rule: a check whose first parameter is INF
    # is measured like any other, so without the DVM the first block that
    # states one aborts, and on the full stand every check is sampled.
    xml = demo_xml.replace('u_max="(0.3*ubatt)"', 'u_max="INF"')
    assert xml != demo_xml
    script = load_script(xml)
    report = execute(script, _without_dvm(demo_stand), demo_env, fresh_dut())
    assert report.abort[:2] == (0, "allocation")
    assert "(pin int_ill_f, method get_u)" in report.abort.message
    assert report.steps == []
    report = execute(script, demo_stand, demo_env, fresh_dut())
    assert report.abort is None and report.overall


@pytest.mark.parametrize("failing_call,abort_step", [(1, -1), (3, 1)])
def test_dut_error_in_advance_aborts(demo_loaded, demo_stand, demo_env,
                                     failing_call, abort_step):
    class StallingDut(InteriorLightDut):
        calls = 0

        def advance(self, dt):
            self.calls += 1
            if self.calls == failing_call:
                raise DutError("clock stalled")
            super().advance(dt)

    dut = StallingDut(InteriorLightConfig(ubatt=Decimal("12.0")))
    report = execute(demo_loaded, demo_stand, demo_env, dut)
    assert not report.overall
    assert report.abort == (abort_step, "environment", "clock stalled")
    assert len(report.steps) == max(abort_step, 0)


@pytest.mark.parametrize("method,abort_step", [
    ("set_input", -1), ("advance", -1), ("read_pin", 0)])
def test_any_dut_exception_aborts_as_environment(demo_loaded, demo_stand,
                                                 demo_env, method, abort_step):
    def crash(self, *args):
        raise KeyError("int_ill_f")

    CrashingDut = type("CrashingDut", (InteriorLightDut,), {method: crash})
    dut = CrashingDut(InteriorLightConfig(ubatt=Decimal("12.0")))
    report = execute(demo_loaded, demo_stand, demo_env, dut)
    assert not report.overall
    assert report.abort == (abort_step, "environment",
                            "dut model raised KeyError: 'int_ill_f'")
    assert len(report.steps) == 0


def test_report_records_resolved_resources(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
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


def test_report_bounds_are_evaluated(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    check = report.steps[7].checks[0]
    assert check.low == Decimal("8.4")
    assert check.high == Decimal("13.2")
    assert check.measured == Decimal("12.0")
    assert check.passed


def test_checks_cover_every_pin(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    for step in report.steps:
        assert [c.pin for c in step.checks] == ["int_ill_f", "int_ill_r"]


def test_reports_are_byte_identical(demo_loaded, demo_stand, demo_env):
    for render in (report_to_json, report_to_text):
        a, b = (rendered(execute(demo_loaded, demo_stand, demo_env,
                                 fresh_dut()), render) for _ in range(2))
        assert a == b


def test_json_report_shape(demo_loaded, demo_stand, demo_env):
    doc = json.loads(rendered(execute(demo_loaded, demo_stand, demo_env,
                                      fresh_dut())))
    assert doc["overall"] == "pass"
    assert doc["totals"]["steps_total"] == 10
    assert doc["totals"]["step_time"] == "309.0"
    assert doc["totals"]["total_time"] == "309.1"
    assert doc["init"]["n"] == -1
    assert len(doc["steps"]) == 10
    assert doc["steps"][7]["checks"][0]["min"] == "8.40"


def test_stimulus_records_share_their_connector_text(demo_loaded,
                                                      demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    texts = {(rid, pin): conn.text
             for (rid, pin), conn in demo_stand.matrix.cells.items()}
    records = [r for s in (report.settle, *report.steps) for r in s.stimuli
               if r.connector is not None]
    assert records
    assert all(r.connector is texts[r.resource, r.pin] for r in records)


TRICKY = 'q"b\\c\x00\x1f\x7f é \u2028 \U0001F600'

# Records a step shares with the step before or changes by one field:
# every way a text may be reused, and the equal values that print
# otherwise (params in another order, 1.0 and 1.00), which may not be.
_HELD = StimulusRecord("s", "p", "put_r", {"a": "1", "b": "2"}, "resource",
                       "R1", "R1:p", True, False)
_REORDERED = _HELD._replace(params={"b": "2", "a": "1"})
_CHECK = CheckRecord("c", "q", "get_u", Decimal("1.0"), Decimal("2.0"),
                     Decimal("1.0"), True)
_TWIN_LOW = _CHECK._replace(low=Decimal("1.00"))
_TWIN_HIGH = _CHECK._replace(high=Decimal("2.00"))
_TWIN_READING = _TWIN_LOW._replace(measured=Decimal("1.00"))
_VERDICT = _TWIN_HIGH._replace(passed=False)
SHARING = RunReport(
    "sharing", "dut", None,
    settle=StepRecord(-1, Decimal("0.1"), Decimal("0.1"), [_HELD], [_CHECK]),
    steps=[StepRecord(0, Decimal("1"), Decimal("1.1"), [_HELD],
                      [_CHECK, _CHECK]),
           StepRecord(1, Decimal("1"), Decimal("2.1"), [_REORDERED],
                      [_TWIN_LOW, _TWIN_HIGH]),
           StepRecord(2, Decimal("1"), Decimal("3.1"), [_REORDERED, _HELD],
                      [_TWIN_READING, _VERDICT]),
           StepRecord(3, Decimal("1"), Decimal("4.1"), [_HELD],
                      [_TWIN_READING._replace(pin="r")])],
    steps_total=4)


@settings(max_examples=100)
@given(report=strategies.run_reports())
@example(report=RunReport(
    TRICKY, TRICKY, Abort(-1, "environment", TRICKY), settle=None,
    steps=[StepRecord(0, Decimal("1"), Decimal("1")),
           StepRecord(1, Decimal("0.5"), Decimal("1.5"), [StimulusRecord(
               TRICKY, "p", "m", {}, "bus", None, None, False, True)],
               [CheckRecord(TRICKY, "p", "get_u", None, Decimal("2"),
                            Decimal("-1E+3"), False)])],
    steps_total=3))
@example(report=SHARING)
def test_json_writer_matches_reference(report):
    # Both formats, written to a stream chunk by chunk: the reference's
    # text.
    for render, reference in ((report_to_json, reference_report_json),
                              (report_to_text, reference_report_text)):
        assert rendered(report, render) == reference(report)


SHIPPED = Path(__file__).resolve().parent.parent / "data" / "interior_light" \
    / "expected_script.xml"


def test_a_long_held_run_writes_the_reference_json(demo_stand, demo_env):
    # The shipped example with its steps written 40 times: most stimuli
    # stay held and the same checks are restated with the same bounds, so
    # most records are rendered from the step before.
    script = load_script(repeated_steps(SHIPPED.read_text(encoding="utf-8"),
                                        40))
    report = execute(script, demo_stand, demo_env, fresh_dut())
    assert len(report.steps) == len(script.steps) > 40
    pairs = list(zip(report.steps, report.steps[1:]))
    assert any(r is p for s, t in pairs for r, p in zip(t.stimuli, s.stimuli))
    assert any(c.low is p.low and c.high is p.high and c is not p
               for s, t in pairs for c, p in zip(t.checks, s.checks))
    assert rendered(report) == reference_report_json(report)


class CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)


def test_a_report_written_to_a_stream_is_never_whole_in_memory():
    # 1 000 steps sharing 16 held stimulus records, as the plan shares
    # them, and four checks each: new records whose names and bounds are
    # the same objects at every step, as the plan restates a check, with
    # a reading that is the same object or new.
    held = [StimulusRecord(f"sig{i}", f"pin{i}", "put_r",
                           {"r": "1000", "d1": "0.5"}, "resource", f"R{i}",
                           f"R{i}:pin{i}", True, False) for i in range(16)]
    low, high, reading = Decimal("8.4"), Decimal("13.2"), Decimal("12.0")
    names = [(f"lamp{i}", f"lamp_pin{i}", "get_u") for i in range(4)]
    steps = [StepRecord(n, Decimal("0.5"), Decimal(n + 1) / 2, held,
                        [CheckRecord(*name, low, high,
                                     reading if i % 2 else Decimal(n), True)
                         for i, name in enumerate(names)])
             for n in range(1000)]
    report = RunReport("endurance", "dut", None,
                       settle=StepRecord(-1, Decimal("0.1"), Decimal("0.1"),
                                         held),
                       steps=steps, steps_total=1000)
    for render in (report_to_json, report_to_text):
        sink = CountingSink()
        tracemalloc.start()
        try:
            render(report, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.length == len(rendered(report, render))
        assert peak < sink.length / 10, (render.__name__, peak, sink.length)


def test_text_report_mentions_failures(demo_loaded, demo_stand, demo_env):
    text = rendered(execute(demo_loaded, demo_stand, demo_env,
                            fresh_dut("250")), report_to_text)
    assert "RESULT: FAIL" in text
    assert "step 7" in text and "FAIL" in text


def test_unpaced_run_is_fast(demo_loaded, demo_stand, demo_env):
    import time
    start = time.perf_counter()
    execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    assert time.perf_counter() - start < 1.0


class RecordingDut:
    """Accepts every input, reads 0 on every pin and logs each call."""

    def __init__(self):
        self.log = []

    def set_input(self, name, value, aux=None):
        self.log.append(("set", name, value, aux))

    def advance(self, dt):
        self.log.append(("advance", dt))

    def read_pin(self, pin):
        self.log.append(("read", pin))
        return Decimal("0")


@pytest.mark.parametrize("make_dut", [RecordingDut, fresh_dut])
def test_dwell_sum_overflow_aborts_as_environment(demo_xml, demo_stand,
                                                  demo_env, make_dut):
    # Each dwell is within the number rule; their sum is not. Every sum
    # before it is exact (9.1E+999999), so only the range is exceeded.
    xml = demo_xml.replace('<init dt="0.1">', '<init dt="1e999998">')
    for n in (0, 1):
        xml = xml.replace(f'<step n="{n}" dt="0.5">',
                          f'<step n="{n}" dt="9e999999">')
    dut = make_dut()
    report = execute(load_script(xml), demo_stand, demo_env, dut)
    assert not report.overall
    assert report.abort == (1, "environment", "clock overflow: dwell sum "
                            f"{report.steps[0].t_end} + 9E+999999 s "
                            "is out of range")
    assert len(report.steps) == 1
    if isinstance(dut, RecordingDut):  # the block was never driven
        assert [c for c in dut.log if c[0] == "advance"] == [
            ("advance", Decimal("1E+999998")),
            ("advance", Decimal("9E+999999"))]


@pytest.mark.parametrize("step,dt,message", [
    (2, "0.0000000000000000000000000001",
     "dwell sum 1.1 + 1E-28 s is not exact in 28 digits"),
    (0, "9e999999", "dwell sum 0.1 + 9E+999999 s is not exact in 28 digits"),
], ids=["tiny_dwell", "huge_dwell"])
@pytest.mark.parametrize("make_dut", [RecordingDut, fresh_dut])
def test_a_dwell_sum_that_would_round_aborts_as_environment(
        demo_xml, demo_stand, demo_env, make_dut, step, dt, message):
    # The clock is exact: a sum that needs more digits than the decimal
    # precision aborts before its block is driven, instead of rounding the
    # t_end of that block and of every block after it.
    xml = demo_xml.replace(f'<step n="{step}" dt="0.5">',
                           f'<step n="{step}" dt="{dt}">')
    dut = make_dut()
    report = execute(load_script(xml), demo_stand, demo_env, dut)
    assert report.abort == (step, "environment", f"clock precision: {message}")
    assert [str(s.t_end) for s in report.steps] == ["0.6", "1.1"][:step]
    assert str(report.total_time) == ["0.1", "0.6", "1.1"][step]
    if isinstance(dut, RecordingDut):  # the block was never driven
        assert [c[1] for c in dut.log if c[0] == "advance"] == [
            Decimal("0.1"), *[Decimal("0.5")] * step]


# --- hold semantics, checked against a brute-force reading -----------------

def manifest_stand(script):
    """One resource per (pin, method) of the script, each on its own switch
    group, with an unbounded range: every step can be allocated."""
    pins = {sig.name: sig.pins for sig in script.signals}
    wanted = {}
    for statements in ([script.init.statements]
                       + [step.statements for step in script.steps]):
        for st in statements:
            for pin in pins[st.signal]:
                wanted.setdefault((pin, st.invocation.method), None)
    resources, cells = [], {}
    for group, (pin, method) in enumerate(wanted, start=1):
        rid = f"r{group}"
        resources.append(ResourceDef(rid, method, "x", Decimal("-Infinity"),
                                     Decimal("Infinity")))
        cells[(rid, pin)] = Connector("switch", group, 1)
    return StandModel(ResourceTable(resources),
                      ConnectionMatrix(sorted({pin for pin, _ in wanted}),
                                       [r.id for r in resources], cells))


def _evaluated(inv, env):
    return MethodInvocation(inv.method, {
        name: (eval_expr(value, env)
               if isinstance(value, (Num, Var, BinOp, Paren)) else value)
        for name, value in inv.params.items()})


def _first(inv, suffix):
    return next((v for k, v in inv.params.items()
                 if k.endswith(suffix) and isinstance(v, Decimal)), None)


def assert_blocks_hold(report, dut, blocks, pins, env):
    """Compare a run with a brute-force reading of its blocks.

    ``blocks`` lists (dt, puts, checks) for init and then each step: puts
    map signal -> invocation and checks list (signal, invocation), in
    statement order. A put stays in force until its signal's next put and
    is applied only when its value changes; a check is sampled at the end
    of its own block. Every block that ran must show exactly that, in the
    report and in the DUT's calls.
    """
    records = ([report.settle] if report.settle else []) + report.steps
    in_force, log = {}, []
    for k, (dt, puts, checks) in enumerate(blocks):
        try:
            puts = {sig: _evaluated(inv, env) for sig, inv in puts.items()}
            checks = [(sig, _evaluated(inv, env)) for sig, inv in checks]
        except EvalError:
            assert report.abort[:2] == (k - 1, "environment")
            break
        changed = [sig for sig, inv in puts.items()
                   if in_force.get(sig) != inv]
        in_force.update(puts)
        record = records[k]
        assert [(r.signal, r.pin, r.method, r.params, r.changed)
                for r in record.stimuli] == [
            (sig, pin, inv.method,
             {name: render_value(v) for name, v in inv.params.items()},
             sig in changed)
            for sig, inv in in_force.items()
            for pin in ((sig,) if inv.method in BUS_METHODS else pins[sig])]
        for r in record.stimuli:
            assert r.held == (r.delivery == "resource" and not r.changed)
        assert [(c.signal, c.pin, c.method, c.low, c.high)
                for c in record.checks] == [
            (sig, pin, inv.method, _first(inv, "_min"), _first(inv, "_max"))
            for sig, inv in checks for pin in pins[sig]]
        for sig in changed:
            inv = in_force[sig]
            aux = dict(list(inv.params.items())[1:])
            for pin in ((sig,) if inv.method in BUS_METHODS else pins[sig]):
                log.append(("set", pin, inv.principal_value(), aux))
        log.append(("advance", dt))
        log += [("read", pin) for sig, _ in checks for pin in pins[sig]]
    else:
        assert report.abort is None
    assert dut.log == log


def test_report_agrees_with_sheet_holds(demo_signals, demo_statuses,
                                        demo_test, demo_loaded, demo_stand,
                                        demo_env):
    # Sheet meaning: a blank input cell holds the last status, seeded by the
    # initial status; an output cell is a check of its own step only.
    blocks = [(demo_loaded.init.dt,
               {s.name.lower(): lower_status(demo_statuses[s.initial_status])
                for s in demo_signals.inputs()}, [])]
    for step in demo_test.steps:
        puts, checks = {}, []
        for name, status in step.assignments.items():
            if demo_signals[name].direction == "input":
                puts[name.lower()] = lower_status(demo_statuses[status])
            else:
                checks.append((name.lower(),
                               lower_status(demo_statuses[status])))
        blocks.append((step.dt, puts, checks))
    pins = {s.name.lower(): tuple(p.lower() for p in s.pins)
            for s in demo_signals}
    dut = RecordingDut()
    report = execute(demo_loaded, demo_stand, demo_env, dut)
    assert len(report.steps) == 10
    assert_blocks_hold(report, dut, blocks, pins, demo_env)


ENV = {name: Decimal(value) for name, value in (
    ("ubatt", "12.0"), ("vref", "5"), ("a", "1"), ("b", "2"), ("c", "3"),
    ("x0", "0.5"), ("temp_c", "-40"))}


def script_blocks(script):
    """The (dt, puts, checks) blocks of ``script`` as its statements read:
    every init statement and every statement on an input is a put, every
    statement on an output is a check."""
    direction = {s.name: s.direction for s in script.signals}
    blocks = [(script.init.dt,
               {st.signal: st.invocation for st in script.init.statements},
               [])]
    for step in script.steps:
        blocks.append((step.dt,
                       {st.signal: st.invocation for st in step.statements
                        if direction[st.signal] == "input"},
                       [(st.signal, st.invocation) for st in step.statements
                        if direction[st.signal] == "output"]))
    return blocks


def test_report_matches_bruteforce(demo_loaded, demo_stand, demo_env):
    dut = RecordingDut()
    report = execute(demo_loaded, demo_stand, demo_env, dut)
    assert len(report.steps) == len(demo_loaded.steps)
    assert_blocks_hold(report, dut, script_blocks(demo_loaded),
                       {s.name: s.pins for s in demo_loaded.signals}, demo_env)


@settings(max_examples=60)
@given(script=strategies.test_scripts())
def test_report_matches_bruteforce_generated(script):
    loaded = load_script(emit_xml(script))
    dut = RecordingDut()
    report = execute(loaded, manifest_stand(script), ENV, dut)
    assert report.abort is None or report.abort.kind != "allocation"
    assert_blocks_hold(report, dut, script_blocks(script),
                       {s.name: s.pins for s in script.signals}, ENV)


def test_report_carries_stimuli_forward(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    # ds_fl is set at steps 1, 2, 4, 5 and held everywhere else.
    dsfl = [next(r for r in step.stimuli if r.signal == "ds_fl")
            for step in report.steps]
    assert dsfl[0].params["r"] == "INF"             # Closed at step 0
    assert dsfl[1].params["r"] == "0"               # Open at step 1
    assert dsfl[3].params == dsfl[2].params         # held across step 3
    assert not dsfl[3].changed
    assert dsfl[4].params["r"] == "0"
    assert all(r.params["r"] == "INF" for r in dsfl[5:])


ONE_SHOTS = """<?xml version="1.0" encoding="UTF-8"?>
<test name="t" dut="d" format="1">
  <signals>
    <signal name="a" direction="input" pins="a" />
    <signal name="b" direction="output" pins="b" />
    <signal name="c" direction="input" pins="c" />
  </signals>
  <init dt="0.1">
    <signal name="a">
      <put_r r="5" />
    </signal>
    <signal name="c">
      <frob_x v="1" />
    </signal>
  </init>
  <step n="0" dt="1">
    <signal name="b">
      <frob_y v="2" />
    </signal>
  </step>
  <step n="1" dt="1">
    <signal name="b">
      <get_u u_max="1" />
    </signal>
  </step>
</test>
"""


# A one-shot on an output that the same block checks is still recorded.
ONE_SHOT_ON_CHECKED = ONE_SHOTS.replace(
    '      <get_u u_max="1" />',
    '      <frob_y v="3" />\n      <get_u u_max="1" />')

STEP0_ONE_SHOT = """    <signal name="b">
      <frob_y v="2" />
    </signal>
"""

# A one-shot on the pin of a held put does not replace the put's hold.
ONE_SHOT_ON_HELD_PIN = ONE_SHOTS.replace(STEP0_ONE_SHOT, """\
    <signal name="a">
      <frob_x v="2" />
    </signal>
""")

# The same one-shot in two steps is allocated again, not held.
REPEATED_FROB = """    <signal name="c">
      <frob_x v="1" />
    </signal>
"""
REPEATED_ONE_SHOT = ONE_SHOTS.replace(STEP0_ONE_SHOT, REPEATED_FROB).replace(
    '  <step n="1" dt="1">\n', '  <step n="1" dt="1">\n' + REPEATED_FROB)


@pytest.mark.parametrize("text,step0,last", [
    (ONE_SHOTS, [("a", "put_r", False, True), ("b", "frob_y", False, False)],
     [("a", "put_r", False, True)]),
    (ONE_SHOT_ON_CHECKED,
     [("a", "put_r", False, True), ("b", "frob_y", False, False)],
     [("a", "put_r", False, True), ("b", "frob_y", False, False)]),
    (ONE_SHOT_ON_HELD_PIN,
     [("a", "put_r", False, True), ("a", "frob_x", False, False)],
     [("a", "put_r", False, True)]),
    (REPEATED_ONE_SHOT,
     [("a", "put_r", False, True), ("c", "frob_x", False, False)],
     [("a", "put_r", False, True), ("c", "frob_x", False, False)]),
], ids=["one_shots", "one_shot_on_checked_output", "one_shot_on_held_pin",
        "repeated_one_shot"])
def test_unknown_methods_are_one_shots_in_every_block(text, step0, last):
    script = load_script(text)
    dut = RecordingDut()
    report = execute(script, manifest_stand(script), {}, dut)
    assert report.abort is None

    def stimuli(record):
        return [(r.signal, r.method, r.changed, r.held)
                for r in record.stimuli]

    # Allocated for their own block only; never held.
    assert stimuli(report.settle) == [("a", "put_r", True, False),
                                      ("c", "frob_x", False, False)]
    assert stimuli(report.steps[0]) == step0
    assert stimuli(report.steps[1]) == last
    # Never applied and never sampled: the DUT sees the put and the check.
    assert dut.log == [("set", "a", Decimal("5"), {}),
                       ("advance", Decimal("0.1")),
                       ("advance", Decimal("1")),
                       ("advance", Decimal("1")), ("read", "b")]
    assert [c.method for c in report.steps[1].checks] == ["get_u"]
    assert report.settle.checks == [] and report.steps[0].checks == []


def test_a_one_shot_beside_a_changed_put_is_not_changed():
    # "Changed" belongs to the put, not to its signal: in the block where
    # a's put changes, a's one-shot is still neither changed nor held.
    text = ONE_SHOTS.replace(STEP0_ONE_SHOT, """\
    <signal name="a">
      <put_r r="6" />
      <frob_x v="2" />
    </signal>
""")
    script = load_script(text)
    report = execute(script, manifest_stand(script), {}, RecordingDut())
    assert report.abort is None
    assert [(r.signal, r.method, r.changed, r.held)
            for r in report.steps[0].stimuli] == [
        ("a", "put_r", True, False), ("a", "frob_x", False, False)]


ONE_SHOT_THEN_PUT = """<?xml version="1.0" encoding="UTF-8"?>
<test name="t" dut="d" format="1">
  <signals>
    <signal name="a" direction="input" pins="pa" />
    <signal name="b" direction="input" pins="pb" />
  </signals>
  <init dt="0.1">
    <signal name="a">
      <put_r r="5" />
    </signal>
  </init>
  <step n="0" dt="1">
    <signal name="a">
      <frob_x v="1" />
    </signal>
  </step>
  <step n="1" dt="1">
    <signal name="b">
      <put_r r="5" />
    </signal>
  </step>
</test>
"""


def test_one_shot_leaves_a_held_stimulus_pinned():
    # a's put stays on R1 through step 0's one-shot on the same pin. In
    # step 1 pb is wired only to R1; moving a to R2 would change its
    # resource without re-applying it, so the run aborts instead.
    unbounded = (Decimal("-Infinity"), Decimal("Infinity"))
    stand = StandModel(
        ResourceTable([ResourceDef("R1", "put_r", "r", *unbounded),
                       ResourceDef("R2", "put_r", "r", *unbounded),
                       ResourceDef("F", "frob_x", "v", *unbounded)]),
        ConnectionMatrix(["pa", "pb"], ["R1", "R2", "F"], {
            ("R1", "pa"): Connector("switch", 1, 1),
            ("R1", "pb"): Connector("switch", 3, 1),
            ("R2", "pa"): Connector("switch", 2, 1),
            ("F", "pa"): Connector("switch", 4, 1)}))
    dut = RecordingDut()
    report = execute(load_script(ONE_SHOT_THEN_PUT), stand, {}, dut)
    assert report.abort[:2] == (1, "allocation")
    assert ("R1: conflict: resource holds a stimulus for pin pa"
            in report.abort.message)
    assert [r.resource for r in report.steps[0].stimuli] == ["R1", "F"]
    assert all(call[1] != "pb" for call in dut.log if call[0] == "set")


HOLD_CHANGE_HOLD_OPEN = """<?xml version="1.0" encoding="UTF-8"?>
<test name="t" dut="d" format="1">
  <signals>
    <signal name="a" direction="input" pins="a" />
    <signal name="b" direction="input" pins="b" />
    <signal name="c" direction="input" pins="c" />
  </signals>
  <init dt="0.1">
    <signal name="a">
      <put_r r="5" />
    </signal>
    <signal name="b">
      <put_r r="(2*ubatt)" />
    </signal>
    <signal name="c">
      <put_can data="01B" />
    </signal>
  </init>
  <step n="0" dt="1" />
  <step n="1" dt="1" />
  <step n="2" dt="1">
    <signal name="a">
      <put_r r="7" />
    </signal>
  </step>
  <step n="3" dt="1">
    <signal name="c">
      <put_can data="01B" />
    </signal>
  </step>
  <step n="4" dt="1" />
  <step n="5" dt="1">
    <signal name="a">
      <put_r r="INF" />
    </signal>
  </step>
  <step n="6" dt="1" />
  <step n="7" dt="1" />
</test>
"""


def test_held_stimuli_share_their_records():
    # a: applied, held, changed, held, open circuit, held open; b and the
    # bus signal c (restated as it stands at step 3): held throughout. From
    # its second unchanged block on, a stimulus in force keeps its record,
    # whatever its delivery.
    script = load_script(HOLD_CHANGE_HOLD_OPEN)
    dut = RecordingDut()
    report = execute(script, manifest_stand(script), ENV, dut)
    assert report.abort is None
    assert_blocks_hold(report, dut, script_blocks(script),
                       {s.name: s.pins for s in script.signals}, ENV)
    assert rendered(report) == reference_report_json(report)

    blocks = [report.settle] + report.steps
    a = [block.stimuli[0] for block in blocks]
    b = [block.stimuli[1] for block in blocks]
    c = [block.stimuli[2] for block in blocks]
    assert [(r.params["r"], r.delivery, r.held, r.changed) for r in a] == [
        ("5", "resource", False, True), ("5", "resource", True, False),
        ("5", "resource", True, False), ("7", "resource", False, True),
        ("7", "resource", True, False), ("7", "resource", True, False),
        ("INF", "open_circuit", False, True),
        ("INF", "open_circuit", False, False),
        ("INF", "open_circuit", False, False)]
    shared = [k for k in range(1, len(blocks)) if a[k] is a[k - 1]]
    assert shared == [2, 5, 8]
    assert all(b[k] is b[1] for k in range(2, len(blocks)))
    assert b[1] is not b[0] and b[1].params["r"] == "24.0"
    assert [(r.delivery, r.held, r.changed) for r in c[:2]] == [
        ("bus", False, True), ("bus", False, False)]
    assert all(c[k] is c[1] for k in range(2, len(blocks)))
    assert c[1] is not c[0]
    with pytest.raises(AttributeError):
        b[1].held = False  # shared records are read-only


TRAILING_ZEROS = """<?xml version="1.0" encoding="UTF-8"?>
<test name="t" dut="d" format="1">
  <signals>
    <signal name="a" direction="input" pins="a" />
    <signal name="b" direction="output" pins="b" />
  </signals>
  <init dt="0.1">
    <signal name="a">
      <put_r r="(1*ubatt)" />
    </signal>
  </init>
  <step n="0" dt="1">
    <signal name="a">
      <put_r r="(1.0*ubatt)" />
    </signal>
    <signal name="b">
      <get_u u_max="(1*ubatt)" />
    </signal>
  </step>
  <step n="1" dt="1">
    <signal name="b">
      <get_u u_max="(1.0*ubatt)" />
    </signal>
  </step>
</test>
"""


def test_equal_expressions_keep_their_own_digits():
    # (1*ubatt) equals (1.0*ubatt) as a tree and as a value, but each is
    # evaluated and rendered from its own digits. Restated with other
    # digits, a stimulus is unchanged: it is not applied again and keeps
    # its held binding.
    script = load_script(TRAILING_ZEROS)
    dut = RecordingDut()
    report = execute(script, manifest_stand(script), ENV, dut)
    assert_blocks_hold(report, dut, script_blocks(script),
                       {s.name: s.pins for s in script.signals}, ENV)
    assert [(s.stimuli[0].params["r"], s.stimuli[0].changed,
             s.stimuli[0].held)
            for s in [report.settle] + report.steps] == [
        ("12.0", True, False), ("12.00", False, True),
        ("12.00", False, True)]
    assert [str(s.checks[0].high) for s in report.steps] == ["12.0", "12.00"]
    assert rendered(report) == reference_report_json(report)


def test_a_run_passes_each_check_statement_one_requirement(monkeypatch):
    # 100 steps restate two check statements on one signal. The loader
    # gives each statement one invocation, and the plan passes it the same
    # requirement in every block of the whole run.
    steps = "".join(f"""  <step n="{n}" dt="1">
    <signal name="a">
      <put_r r="{n % 3}" />
    </signal>
    <signal name="b">
      <get_u u_max="({1 + n % 2}*ubatt)" />
    </signal>
  </step>
""" for n in range(100))
    script = load_script(TRAILING_ZEROS.split("  <step ")[0] + steps
                         + "</test>\n")
    resources = ResourceTable([
        ResourceDef("R", "put_r", "r", Decimal(0), Decimal(100)),
        ResourceDef("V1", "get_u", "u", Decimal(-60), Decimal(60)),
        ResourceDef("V2", "get_u", "u", Decimal(-60), Decimal(60))])
    stand = StandModel(resources, ConnectionMatrix(
        ["a", "b"], ["R", "V1", "V2"],
        {("R", "a"): Connector("mux", 1, 1),
         ("V1", "b"): Connector("switch", 1, 1),
         ("V2", "b"): Connector("switch", 2, 1)}))
    checks = []
    allocate = runner_module.allocate

    def recording(reqs, stand, holds=None):
        checks.extend(req for req in reqs
                      if method_class(req.invocation.method) == "get")
        return allocate(reqs, stand, holds)

    monkeypatch.setattr(runner_module, "allocate", recording)
    report = execute(script, stand, ENV, RecordingDut())
    assert report.abort is None and report.checks_total == 100
    assert len(checks) == 100
    distinct = {id(req): req for req in checks}.values()
    assert sorted(str(req.invocation.params["u_max"])
                  for req in distinct) == ["12.0", "24.0"]


def test_a_run_renders_and_evaluates_each_distinct_statement_once(
        monkeypatch):
    # 100 steps alternate two put values and restate one check. The plan
    # renders each distinct statement's params and evaluates its
    # expressions once in the whole run, not at each appearance.
    steps = "".join(f"""  <step n="{n}" dt="1">
    <signal name="a">
      <put_r r="{1 + n % 2}" />
    </signal>
    <signal name="b">
      <get_u u_max="(1.1*ubatt)" />
    </signal>
  </step>
""" for n in range(100))
    script = load_script(TRAILING_ZEROS.split("  <step ")[0]
                         .replace('r="(1*ubatt)"', 'r="0"') + steps
                         + "</test>\n")
    distinct = {id(st.invocation): st.invocation
                for block in [script.init, *script.steps]
                for st in block.statements}
    rendered, evaluated = [], []

    def render(value):
        rendered.append(value)
        return render_value(value)

    def evaluate(node, env):
        evaluated.append(node)
        return eval_expr(node, env)

    monkeypatch.setattr(runner_module, "render_value", render)
    monkeypatch.setattr(runner_module, "eval_expr", evaluate)
    report = execute(script, manifest_stand(script), ENV, RecordingDut())
    assert report.abort is None and report.checks_total == 100
    assert [s.stimuli[0].params["r"] for s in report.steps[:3]] == [
        "1", "2", "1"]
    assert len(distinct) == 4
    assert len(rendered) <= sum(len(inv.params) for inv in distinct.values())
    assert [render_expr(node) for node in evaluated] == ["(1.1*ubatt)"]


def test_failing_expression_aborts_where_first_used():
    # vx is unbound: the run aborts at step 1, its first use, and not
    # before; nothing of step 1 or later is driven.
    xml = TRAILING_ZEROS.replace('<get_u u_max="(1.0*ubatt)" />',
                                 '<get_u u_max="(1.0*vx)" />')
    xml = xml.replace('  </step>\n</test>', '''  </step>
  <step n="2" dt="1">
    <signal name="b">
      <get_u u_max="(1.0*vx)" />
    </signal>
  </step>
</test>''')
    script = load_script(xml)
    dut = RecordingDut()
    report = execute(script, manifest_stand(script), ENV, dut)
    assert report.abort == (1, "environment", "unbound variable vx")
    assert len(report.steps) == 1
    assert dut.log[-2:] == [("advance", Decimal("1")), ("read", "b")]
    assert_blocks_hold(report, dut, script_blocks(script),
                       {s.name: s.pins for s in script.signals}, ENV)


def test_runs_match_the_block_by_block_replay():
    # Whole runs against a brute force of every block with the holds of
    # the block before: the same resources for every stimulus and one-shot,
    # the same block for an allocation abort, and the same bytes twice, as
    # the reference renderer writes them.
    rng = random.Random(20261018)
    completed = late = shared = held = shots = 0
    for _ in range(400):
        stand, script = random_run_case(rng)
        blocks = replay_run(script, stand)
        report = execute(script, stand, {}, RecordingDut())
        again = execute(script, stand, {}, RecordingDut())
        assert rendered(report) == rendered(again)
        # Records the plan shares between steps are rendered once.
        assert rendered(report) == reference_report_json(report)
        ran = [report.settle, *report.steps] if report.settle else []
        assert [[r.resource for r in s.stimuli] for s in ran] == blocks
        every = [script.init, *script.steps]
        if len(blocks) == len(every):
            assert report.abort is None
            completed += 1
        else:
            index = every[len(blocks)].index
            assert report.abort[:2] == (index, "allocation")
            late += index >= 0
        groups = [c.group_key for c in stand.matrix.cells.values()]
        shared += len(set(groups)) < len(groups)
        held += any(r.held for s in ran for r in s.stimuli)
        # a one-shot bound in a block that another block was planned after
        shots += any(r.resource and method_class(r.method) is None
                     for s in (ran if report.abort else ran[:-1])
                     for r in s.stimuli)
    assert completed > 60 and late > 60 and shared > 80 and held > 60
    assert shots > 20


# --- stand independence: the same script on stands that differ ---------------

def _renamed(stand, rng):
    """``stand`` with its resource ids and mux group numbers renamed by
    random bijections, rows kept in order, and the function that maps a
    report's text back to the old names."""
    rows = [res.id for res in stand.resources]
    ids = dict(zip(rows, (f"Q{k}" for k in rng.sample(range(len(rows)),
                                                      len(rows)))))
    groups = sorted({conn.group for conn in stand.matrix.cells.values()})
    numbers = dict(zip(groups, rng.sample(range(50, 50 + len(groups)),
                                          len(groups))))
    renamed = StandModel(
        ResourceTable([ResourceDef(ids[res.id], res.method, res.attribut,
                                   res.min, res.max)
                       for res in stand.resources]),
        ConnectionMatrix(stand.matrix.pins,
                         [ids[rid] for rid in stand.matrix.rows],
                         {(ids[rid], pin): Connector(conn.kind,
                                                     numbers[conn.group],
                                                     conn.position)
                          for (rid, pin), conn in
                          stand.matrix.cells.items()}))
    old_id = {new: old for old, new in ids.items()}
    old_group = {new: old for old, new in numbers.items()}

    def back(text):
        return re.sub(r"\bQ\d+\b|\bMx(\d+)",
                      lambda m: (f"Mx{old_group[int(m.group(1))]}"
                                 if m.group(1) else old_id[m.group(0)]),
                      text)

    return renamed, back


def _reversed(stand):
    """``stand`` with its resource rows in reverse order."""
    return StandModel(ResourceTable(list(stand.resources)[::-1]),
                      ConnectionMatrix(stand.matrix.pins,
                                       stand.matrix.rows[::-1],
                                       stand.matrix.cells))


def _without_stand(report):
    """A completed run's JSON report without the fields that name the
    stand's choices."""
    doc = json.loads(rendered(report))
    for block in [doc["init"], *doc["steps"]]:
        for stimulus in block["stimuli"]:
            stimulus["resource"] = stimulus["connector"] = None
    return doc


def test_the_same_script_on_other_stands():
    # Metamorphic properties of stand independence, over the runs of the
    # block-by-block replay test: (1) names carry no meaning: renaming the
    # resource ids and mux group numbers gives the same report bytes once
    # the names are mapped back, abort messages included; (2) a resource
    # row no connection names changes no byte of a completing run, and an
    # abort only gains that resource's rejection; (3) the DUT cannot tell
    # apart any two of the original, renamed and row-reversed stands on
    # which the run completes: it sees the same calls, and the reports
    # differ in resources and connectors only.
    rng = random.Random(20261018)
    names = random.Random(7)
    completed = aborted = both = moved = 0
    for _ in range(400):
        stand, script = random_run_case(rng)
        dut = RecordingDut()
        report = execute(script, stand, {}, dut)
        text = rendered(report)

        renamed, back = _renamed(stand, names)
        renamed_dut = RecordingDut()
        renamed_report = execute(script, renamed, {}, renamed_dut)
        assert back(rendered(renamed_report)) == text

        unwired = StandModel(
            ResourceTable([*stand.resources, ResourceDef(
                "Q9", "put_r", "r", Decimal(0), Decimal(10))]),
            stand.matrix)
        extra = execute(script, unwired, {}, RecordingDut())
        if report.abort:
            assert extra.abort.message.startswith(
                report.abort.message + "; Q9: ")
            extra = RunReport(extra.name, extra.dut, report.abort,
                              extra.settle, extra.steps, extra.steps_total)
            aborted += 1
        else:
            completed += 1
        assert rendered(extra) == text

        reversed_dut = RecordingDut()
        reversed_report = execute(script, _reversed(stand), {}, reversed_dut)
        seen = [(d.log, _without_stand(r))
                for d, r in ((dut, report), (renamed_dut, renamed_report),
                             (reversed_dut, reversed_report))
                if r.abort is None]
        assert all(view == seen[0] for view in seen)
        if report.abort is None and reversed_report.abort is None:
            both += 1
            moved += rendered(reversed_report) != text
    assert completed > 60 and aborted > 200 and both > 60 and moved > 30

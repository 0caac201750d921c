import json
from decimal import Decimal

import pytest
from hypothesis import example, given, settings

from comptest import (ConnectionMatrix, Connector, DutError, EvalError,
                      InteriorLightConfig, InteriorLightDut, MethodInvocation,
                      ResourceDef, ResourceTable, StandModel, emit_xml,
                      eval_expr, execute, load_script, lower_status,
                      report_to_json, report_to_text)
from comptest.compiler import render_value
from comptest.expr import BinOp, Num, Paren, Var
from comptest.runner import CheckRecord, RunReport, StepRecord, StimulusRecord
from comptest.stand import BUS_METHODS

import strategies
from oracles import reference_report_json


def fresh_dut(timeout="300"):
    return InteriorLightDut(InteriorLightConfig(ubatt=Decimal("12.0"),
                                             timeout_s=Decimal(timeout)))


def test_end_to_end_demo_passes(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut())
    assert report.overall and not report.aborted
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
    assert not report.overall and not report.aborted
    assert [s.index for s in report.steps if not s.passed] == [7]


def test_long_timeout_fails_exactly_step8(demo_loaded, demo_stand, demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut("310"))
    assert not report.overall and not report.aborted
    assert [s.index for s in report.steps if not s.passed] == [8]


def test_execution_continues_after_check_failures(demo_loaded, demo_stand,
                                                  demo_env):
    report = execute(demo_loaded, demo_stand, demo_env, fresh_dut("250"))
    assert len(report.steps) == 10  # failure at step 7 does not stop the run


def test_unbound_variable_aborts(demo_loaded, demo_stand):
    report = execute(demo_loaded, demo_stand, {}, fresh_dut())
    assert report.aborted
    assert report.abort_kind == "environment"
    assert "unbound variable ubatt" in report.abort_message


def test_unbound_variable_names_the_variable(demo_script, demo_stand):
    from comptest import emit_xml
    xml = emit_xml(demo_script).replace("ubatt", "vref")
    loaded = load_script(xml)
    report = execute(loaded, demo_stand, {"ubatt": Decimal("12.0")},
                     fresh_dut())
    assert report.aborted
    assert "unbound variable vref" in report.abort_message


def test_allocation_error_aborts(demo_loaded, demo_stand, demo_env):
    # Without the DVM the first check cannot be allocated.
    reduced = StandModel(
        ResourceTable([r for r in demo_stand.resources if r.id != "Ress1"]),
        ConnectionMatrix(demo_stand.matrix.pins,
                         [r for r in demo_stand.matrix.rows if r != "Ress1"],
                         {k: v for k, v in demo_stand.matrix.cells.items()
                          if k[0] != "Ress1"}))
    report = execute(demo_loaded, reduced, demo_env, fresh_dut())
    assert report.aborted
    assert report.abort_kind == "allocation"
    assert report.abort_step == 0
    assert "get_u" in report.abort_message
    assert not report.overall


@pytest.mark.parametrize("failing_call,abort_step", [(1, None), (3, 1)])
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
    assert report.aborted and not report.overall
    assert report.abort_kind == "environment"
    assert report.abort_step == abort_step
    assert report.abort_message == "clock stalled"
    assert len(report.steps) == (abort_step or 0)


@pytest.mark.parametrize("method,abort_step", [
    ("set_input", None), ("advance", None), ("read_pin", 0)])
def test_any_dut_exception_aborts_as_environment(demo_loaded, demo_stand,
                                                 demo_env, method, abort_step):
    def crash(self, *args):
        raise KeyError("int_ill_f")

    CrashingDut = type("CrashingDut", (InteriorLightDut,), {method: crash})
    dut = CrashingDut(InteriorLightConfig(ubatt=Decimal("12.0")))
    report = execute(demo_loaded, demo_stand, demo_env, dut)
    assert report.aborted and not report.overall
    assert report.abort_kind == "environment"
    assert report.abort_step == abort_step
    assert report.abort_message == "dut model raised KeyError: 'int_ill_f'"
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
    a = report_to_json(execute(demo_loaded, demo_stand, demo_env, fresh_dut()))
    b = report_to_json(execute(demo_loaded, demo_stand, demo_env, fresh_dut()))
    assert a == b
    ta = report_to_text(execute(demo_loaded, demo_stand, demo_env, fresh_dut()))
    tb = report_to_text(execute(demo_loaded, demo_stand, demo_env, fresh_dut()))
    assert ta == tb


def test_json_report_shape(demo_loaded, demo_stand, demo_env):
    doc = json.loads(report_to_json(execute(demo_loaded, demo_stand, demo_env,
                                            fresh_dut())))
    assert doc["overall"] == "pass"
    assert doc["totals"]["steps_total"] == 10
    assert doc["totals"]["step_time"] == "309.0"
    assert doc["totals"]["total_time"] == "309.1"
    assert doc["init"]["n"] == -1
    assert len(doc["steps"]) == 10
    assert doc["steps"][7]["checks"][0]["min"] == "8.40"


TRICKY = 'q"b\\c\x00\x1f\x7f é \u2028 \U0001F600'


@settings(max_examples=100)
@given(report=strategies.run_reports())
@example(report=RunReport(
    TRICKY, TRICKY, overall=False, aborted=True, abort_step=None,
    abort_kind="environment", abort_message=TRICKY, settle=None,
    steps=[StepRecord(0, Decimal("1"), Decimal("1")),
           StepRecord(1, Decimal("0.5"), Decimal("1.5"), [StimulusRecord(
               TRICKY, "p", "m", {}, "bus", None, None, False, True)],
               [CheckRecord(TRICKY, "p", "get_u", None, Decimal("2"),
                            Decimal("-1E+3"), False)])],
    steps_total=3))
def test_json_writer_matches_reference(report):
    assert report_to_json(report) == reference_report_json(report)


def test_text_report_mentions_failures(demo_loaded, demo_stand, demo_env):
    text = report_to_text(execute(demo_loaded, demo_stand, demo_env,
                                  fresh_dut("250")))
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
    # Each dwell is within the number rule; their sum is not.
    xml = demo_xml
    for n in (0, 1):
        xml = xml.replace(f'<step n="{n}" dt="0.5">',
                          f'<step n="{n}" dt="9e999999">')
    dut = make_dut()
    report = execute(load_script(xml), demo_stand, demo_env, dut)
    assert report.aborted and not report.overall
    assert report.abort_kind == "environment"
    assert report.abort_step == 1
    assert report.abort_message == ("clock overflow: dwell sum "
                                    f"{report.steps[0].t_end} + 9E+999999 s "
                                    "is out of range")
    assert len(report.steps) == 1
    if isinstance(dut, RecordingDut):  # the block was never driven
        assert [c for c in dut.log if c[0] == "advance"] == [
            ("advance", Decimal("0.1")), ("advance", Decimal("9E+999999"))]


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
            assert report.aborted and report.abort_kind == "environment"
            assert report.abort_step == (None if k == 0 else k - 1)
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
        assert not report.aborted
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
    assert report.abort_kind != "allocation"
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
    assert not report.aborted

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
    assert (report.abort_step, report.abort_kind) == (1, "allocation")
    assert ("R1: conflict: resource holds a stimulus for pin pa"
            in report.abort_message)
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
    assert not report.aborted
    assert_blocks_hold(report, dut, script_blocks(script),
                       {s.name: s.pins for s in script.signals}, ENV)
    assert report_to_json(report) == reference_report_json(report)

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
    assert report_to_json(report) == reference_report_json(report)


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
    assert (report.abort_step, report.abort_kind) == (1, "environment")
    assert report.abort_message == "unbound variable vx"
    assert len(report.steps) == 1
    assert dut.log[-2:] == [("advance", Decimal("1")), ("read", "b")]
    assert_blocks_hold(report, dut, script_blocks(script),
                       {s.name: s.pins for s in script.signals}, ENV)

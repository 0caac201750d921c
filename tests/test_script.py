from decimal import Decimal

import pytest
from hypothesis import given, settings

from comptest import ScriptError, emit_xml, load_script, lower_status
from comptest.sheets import method_class

import strategies

MINI = """<?xml version="1.0" encoding="UTF-8"?>
<test name="t" dut="d" format="1">
  <signals>
    <signal name="a" direction="input" pins="a" />
    <signal name="b" direction="output" pins="b1|b2" />
  </signals>
  <init dt="0.1">
    <signal name="a">
      <put_r r="5" />
    </signal>
  </init>
  <step n="0" dt="1">
    <signal name="b">
      <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />
    </signal>
  </step>
</test>
"""


def test_load_demo_script(demo_plan):
    assert len(demo_plan.script.steps) == 10
    assert demo_plan.script.steps[7].dt == Decimal("280")
    assert demo_plan.script.name == "interior_light"
    assert demo_plan.signals["int_ill"].pins == ("int_ill_f", "int_ill_r")


def test_load_emit_round_trip(demo_script, demo_xml):
    assert load_script(demo_xml).script == demo_script


def test_load_parses_expressions_eagerly():
    bad = MINI.replace('u_min="(0.7*ubatt)"', 'u_min="(0.7*ubat"')
    with pytest.raises(ScriptError) as err:
        load_script(bad)
    assert err.value.line is not None


def test_load_rejects_non_dense_steps():
    bad = MINI.replace('<step n="0"', '<step n="2"')
    with pytest.raises(ScriptError, match="non-dense step index"):
        load_script(bad)


def test_load_rejects_missing_dt():
    bad = MINI.replace(' dt="1"', "")
    with pytest.raises(ScriptError, match="missing attribute 'dt'"):
        load_script(bad)


def test_load_rejects_unknown_elements():
    bad = MINI.replace("<signals>", "<signals>\n    <chicken />")
    with pytest.raises(ScriptError, match="chicken"):
        load_script(bad)


def test_load_rejects_unknown_signals():
    bad = MINI.replace('<signal name="b">', '<signal name="zz">')
    with pytest.raises(ScriptError, match="not in the manifest"):
        load_script(bad)


def test_load_rejects_uppercase_names():
    bad = MINI.replace('<signal name="a" direction', '<signal name="A" direction')
    with pytest.raises(ScriptError, match="lowercase"):
        load_script(bad)


def test_load_rejects_wrong_direction_statements():
    bad = MINI.replace('<put_r r="5" />', '<get_u u_max="1" />')
    with pytest.raises(ScriptError, match="check method 'get_u' on input"):
        load_script(bad)


def test_load_rejects_checks_in_init():
    bad = MINI.replace(
        "  </init>",
        '    <signal name="b">\n      <get_u u_max="1" />\n'
        "    </signal>\n  </init>")
    with pytest.raises(ScriptError, match="not allowed in <init>"):
        load_script(bad)


def test_load_rejects_malformed_xml():
    with pytest.raises(ScriptError) as err:
        load_script(MINI.replace("</test>", ""))
    assert err.value.line is not None


def test_load_rejects_wrong_format_version():
    bad = MINI.replace('format="1"', 'format="9"')
    with pytest.raises(ScriptError, match="unsupported format"):
        load_script(bad)


def test_unknown_methods_are_retained():
    script = MINI.replace('<get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />',
                          '<frob_x a="1" />')
    plan = load_script(script)
    methods = [st.invocation.method for st in plan.script.steps[0].statements]
    assert methods == ["frob_x"]
    assert plan.checks[0] == []  # unknown class is not a check


def test_closure_carries_stimuli_forward(demo_plan):
    from comptest import INF
    # ds_fl is set at steps 1, 2, 4, 5 and held everywhere else.
    dsfl = [demo_plan.active_stimuli[k]["ds_fl"] for k in range(10)]
    assert dsfl[0].params["r"] is INF               # Closed at step 0
    assert dsfl[1].params["r"] == Decimal("0")      # Open at step 1
    assert dsfl[3] == dsfl[2]                       # held across step 3
    assert dsfl[4].params["r"] == Decimal("0")
    assert all(inv.params["r"] is INF for inv in dsfl[5:])


def test_closure_matches_bruteforce(demo_plan):
    script = demo_plan.script
    for k in range(len(script.steps)):
        for signal in demo_plan.active_stimuli[k]:
            expected = demo_plan.init_stimuli.get(signal)
            for step in script.steps[:k + 1]:
                for st in step.statements:
                    if st.signal == signal and \
                            method_class(st.invocation.method) == "put":
                        expected = st.invocation
            assert demo_plan.active_stimuli[k][signal] == expected


def test_closure_agrees_with_sheet_holds(demo_signals, demo_statuses,
                                        demo_test, demo_plan):
    # Sheet meaning: a blank input cell holds the last status, seeded by the
    # initial status; an output cell is a check of its own step only.
    held = {s.name: s.initial_status for s in demo_signals.inputs()}
    for k, step in enumerate(demo_test.steps):
        step_checks = {}
        for name, status in step.assignments.items():
            if demo_signals[name].direction == "input":
                held[name] = status
            else:
                step_checks[name] = status
        expected = {name.lower(): lower_status(demo_statuses[status],
                                               "stimulus")
                    for name, status in held.items()}
        assert demo_plan.active_stimuli[k] == expected
        checks = {st.signal: st.invocation for st in demo_plan.checks[k]}
        expected_checks = {name.lower(): lower_status(demo_statuses[status],
                                                      "check")
                           for name, status in step_checks.items()}
        assert checks == expected_checks


@settings(max_examples=60)
@given(script=strategies.test_scripts())
def test_closure_matches_bruteforce_generated(script):
    plan = load_script(emit_xml(script))
    direction = {s.name: s.direction for s in script.signals}
    for k, step in enumerate(script.steps):
        expected = {st.signal: st.invocation for st in script.init.statements}
        for prior in script.steps[:k + 1]:
            for st in prior.statements:
                if direction[st.signal] == "input":
                    expected[st.signal] = st.invocation
        assert plan.active_stimuli[k] == expected
        assert plan.checks[k] == [st for st in step.statements
                                  if direction[st.signal] == "output"]


@settings(max_examples=60)
@given(script=strategies.test_scripts())
def test_load_emit_round_trip_generated(script):
    assert load_script(emit_xml(script)).script == script

from decimal import Decimal

import pytest
from hypothesis import given, settings

from comptest import ScriptError, emit_xml, load_script

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


# MINI with a second step that repeats the first one's check.
TWO_STEPS = MINI.replace("</test>", """  <step n="1" dt="1">
    <signal name="b">
      <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />
    </signal>
  </step>
</test>""")


def _u_max(script, index):
    return script.steps[index].statements[0].invocation.params["u_max"]


def test_load_reports_first_line_of_a_repeated_bad_value():
    bad = TWO_STEPS.replace('"(0.7*ubatt)"', '"(0.7*ubat"')
    with pytest.raises(ScriptError, match="bad parameter value") as err:
        load_script(bad)
    assert err.value.line == 14


def test_load_shares_equal_values_within_a_script():
    script = load_script(TWO_STEPS)
    assert _u_max(script, 0) is _u_max(script, 1)


def test_load_keeps_no_values_between_scripts():
    first = load_script(TWO_STEPS)
    # A different script, with the bad text at line 19 only.
    bad = TWO_STEPS.replace('"(0.7*ubatt)"', '"(0.7*ubat"').replace(
        '"(0.7*ubat"', '"(0.7*ubatt)"', 1)
    with pytest.raises(ScriptError) as err:
        load_script(bad)
    assert err.value.line == 19
    second = load_script(TWO_STEPS)
    assert _u_max(second, 0) == _u_max(first, 0)
    assert _u_max(second, 0) is not _u_max(first, 0)


def test_load_demo_script(demo_loaded):
    assert len(demo_loaded.steps) == 10
    assert demo_loaded.steps[7].dt == Decimal("280")
    assert demo_loaded.name == "interior_light"
    pins = {sig.name: sig.pins for sig in demo_loaded.signals}
    assert pins["int_ill"] == ("int_ill_f", "int_ill_r")


def test_load_emit_round_trip(demo_script, demo_xml):
    assert load_script(demo_xml) == demo_script


def test_load_parses_expressions_eagerly():
    bad = MINI.replace('u_min="(0.7*ubatt)"', 'u_min="(0.7*ubat"')
    with pytest.raises(ScriptError) as err:
        load_script(bad)
    assert err.value.line is not None


def test_load_rejects_non_dense_steps():
    bad = MINI.replace('<step n="0"', '<step n="2"')
    with pytest.raises(ScriptError, match=r"non-consecutive step index 2 "
                       r"\(expected 0\)"):
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
    with pytest.raises(ScriptError, match="get-class method 'get_u' on input"):
        load_script(bad)


def test_load_rejects_checks_in_init():
    bad = MINI.replace(
        "  </init>",
        '    <signal name="b">\n      <get_u u_max="1" />\n'
        "    </signal>\n  </init>")
    with pytest.raises(ScriptError, match="not allowed in <init>"):
        load_script(bad)


CHECK = '<get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />'


@pytest.mark.parametrize("check", [
    "<get_u />", '<get_u u="5" />', '<get_u u_max="INF" />',
    '<get_u u_max="1B" u_min="inf" />', '<get_u u_max="Inf" v="(1*ubatt)" />'])
def test_load_rejects_a_check_without_a_bound(check):
    # A status of a check sets min or max; so does a check in a script.
    with pytest.raises(ScriptError, match="check method 'get_u' has no "
                       "bound") as err:
        load_script(MINI.replace(CHECK, check))
    assert err.value.line == 14


@pytest.mark.parametrize("check", [
    '<get_u u_min="0" />', '<get_u u_max="(1*ubatt)" />',
    '<get_u u="INF" u_min="INF" u_max="-1e3" />'])
def test_load_accepts_a_check_with_one_bound(check):
    load_script(MINI.replace(CHECK, check))


def test_load_rejects_malformed_xml():
    with pytest.raises(ScriptError) as err:
        load_script(MINI.replace("</test>", ""))
    assert err.value.line is not None


def test_load_rejects_wrong_format_version():
    bad = MINI.replace('format="1"', 'format="9"')
    with pytest.raises(ScriptError, match="unsupported format"):
        load_script(bad)


@pytest.mark.parametrize("old,new,line", [
    ('<init dt="0.1">', '<init dt="0">', 7),
    ('<step n="0" dt="1">', '<step n="0" dt="0">', 12),
    ('<step n="0"', '<step n="1"', 12),
    ('<signal name="b">', '<signal name="zz">', 13),
    ('<step n="0"', '<step n="²"', 12),
    ('<step n="0"', '<step n="٠"', 12),
    ('pins="b1|b2"', 'pins="b1||b2|"', 5),
    ('<put_r r="5" />', '<put.r r="5" />', 9),
    ('<put_r r="5" />', '<put_r R-x="5" />', 9),
    ('<put_r r="5" />', '<put_r a:b="5" />', 9),
    pytest.param(MINI[MINI.index("  <step"):MINI.index("</test>")], "", 2,
                 id="no-steps"),
])
def test_script_rule_errors_have_lines(old, new, line):
    with pytest.raises(ScriptError) as err:
        load_script(MINI.replace(old, new))
    assert err.value.line == line


def test_load_rejects_a_pin_listed_twice():
    bad = MINI.replace('pins="b1|b2"', 'pins="b1|a"')
    with pytest.raises(ScriptError, match="duplicate pin 'a'") as err:
        load_script(bad)
    assert err.value.line == 5


def test_unknown_methods_are_retained():
    script = MINI.replace('<get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />',
                          '<frob_x a="1" />')
    loaded = load_script(script)
    methods = [st.invocation.method for st in loaded.steps[0].statements]
    assert methods == ["frob_x"]


@settings(max_examples=60)
@given(script=strategies.test_scripts())
def test_load_emit_round_trip_generated(script):
    assert load_script(emit_xml(script)) == script

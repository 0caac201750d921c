import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings

from comptest import ScriptError, emit_xml, load_script
from comptest.script import CHUNK

import strategies
from oracles import repeated_steps

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


def test_statements_name_their_signal_with_the_manifest_string():
    script = load_script(SHIPPED.read_text(encoding="utf-8"))
    names = {sig.name: sig.name for sig in script.signals}
    statements = [st for block in (script.init, *script.steps)
                  for st in block.statements]
    assert len(statements) > len(names)
    assert all(st.signal is names[st.signal] for st in statements)


def test_equal_dwell_texts_give_one_decimal():
    script = load_script(SHIPPED.read_text(encoding="utf-8"))
    by_text: dict[str, set[int]] = {}
    for step in script.steps:
        by_text.setdefault(str(step.dt), set()).add(id(step.dt))
    assert len(script.steps) > len(by_text)
    assert all(len(ids) == 1 for ids in by_text.values())


def test_load_shares_equal_method_elements():
    # Same tag and the same attributes in the same order: one invocation.
    script = load_script(TWO_STEPS)
    first, second = (step.statements[0].invocation for step in script.steps)
    assert first is second
    swapped = TWO_STEPS.replace(
        '<get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />',
        '<get_u u_min="(0.7*ubatt)" u_max="(1.1*ubatt)" />', 1)
    script = load_script(swapped)
    first, second = (step.statements[0].invocation for step in script.steps)
    assert first is not second and first.params == second.params


# MINI with the init's put element repeated in step 0, on signal b.
PUT_ON_B = MINI.replace('<get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />',
                        '<put_r r="5" />')


@pytest.mark.parametrize("script,line,message", [
    # The direction rule holds for an element seen before on an input.
    (PUT_ON_B, 14, "put-class method 'put_r' on output signal 'b'"),
    # So does the rule that a method element is empty.
    (MINI.replace("</step>", """</step>
  <step n="1" dt="1">
    <signal name="a">
      <put_r r="5"><x /></put_r>
    </signal>
  </step>"""), 19, "method <put_r> must be empty"),
], ids=["direction", "empty"])
def test_a_repeated_method_element_meets_the_rules_of_its_place(
        script, line, message):
    with pytest.raises(ScriptError) as err:
        load_script(script)
    assert str(err.value) == f"line {line}: {message}"


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


def test_load_names_the_line_of_a_step_index_too_long_to_convert():
    bad = MINI.replace('<step n="0"', '<step n="' + "1" * 5000 + '"')
    line = MINI[:MINI.index('<step n="0"')].count("\n") + 1
    with pytest.raises(ScriptError) as err:
        load_script(bad)
    assert str(err.value) == (f"line {line}: step index of 5000 digits "
                              f"(at most 640)")


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
    with pytest.raises(ScriptError, match="not allowed in <init>") as err:
        load_script(bad)
    assert err.value.line == 12  # the <get_u> element's, not the <init>'s


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


SCHEMA_FAULTS = [
    ('<put_r r="5" />', '<put_r r="5" />x', 9, "unexpected text content 'x'"),
    ('<init dt="0.1">', '<init dt="0.1" z="1">', 7,
     "<init> has unexpected attribute 'z'"),
    ("  </init>", "    <frob />\n  </init>", 11,
     "unexpected element <frob> in <init>"),
    ('<signal name="a">\n      <put_r r="5" />\n    </signal>',
     '<signal name="a" />', 8, "signal 'a' has no method statement"),
    ('<put_r r="5" />', '<put_r r="5"><x /></put_r>', 9,
     "method <put_r> must be empty"),
    ("test", "exam", 2, "root element must be <test>, got <exam>"),
    (MINI[MINI.index("  <signals>"):MINI.index("  <init")], "", 2,
     "first element must be the <signals> manifest"),
    ('pins="a" />', 'pins="a"><x /></signal>', 4,
     "manifest entries must be empty elements"),
    (MINI[MINI.index("  <init"):MINI.index("  <step")], "", 2,
     "expected <init> after the manifest"),
    ("</test>", "  <end />\n</test>", 17, "unexpected element <end>"),
]


@pytest.mark.parametrize("old,new,line,message", SCHEMA_FAULTS, ids=[
    "text", "attribute", "block-element", "no-method", "method-not-empty",
    "root", "no-manifest", "manifest-not-empty", "no-init",
    "top-level-element"])
def test_script_schema_errors_have_lines(old, new, line, message):
    assert old in MINI
    with pytest.raises(ScriptError) as err:
        load_script(MINI.replace(old, new))
    assert str(err.value) == f"line {line}: {message}"


SHIPPED = Path(__file__).resolve().parent.parent / "data" / "interior_light" \
    / "expected_script.xml"
FORMAT_2 = (2, 'format="1"', 'format="2"')


# Expat reads the whole script before any schema rule, so a fault of XML
# syntax or stray text wins over an unsupported format; inside an element
# the loader keeps its check order.
@pytest.mark.parametrize("edits,message", [
    ([FORMAT_2, (113, "</test>", "</tset>")], "line 113: mismatched tag"),
    ([FORMAT_2, (101, ">", ">stray")],
     "line 101: unexpected text content 'stray'"),
    ([(5, '<signal name="ds_fl" direction="input" pins="ds_fl" />',
       '<signal name="DS_FL" direction="input" pins="ds_fl"><x/></signal>')],
     "line 5: manifest entries must be empty elements"),
], ids=["syntax-before-format", "text-before-format", "empty-before-name"])
def test_load_fault_precedence(edits, message):
    lines = SHIPPED.read_text(encoding="utf-8").splitlines(keepends=True)
    for at, old, new in edits:
        assert old in lines[at - 1]
        lines[at - 1] = lines[at - 1].replace(old, new)
    with pytest.raises(ScriptError) as err:
        load_script("".join(lines))
    assert str(err.value) == message


# The shipped script with its steps written 12 times: 1 092 lines, 29 867
# characters, so expat reads it in four chunks.
LONG = repeated_steps(SHIPPED.read_text(encoding="utf-8"), 12)


def _line_of(text, at):
    return text.count("\n", 0, at) + 1


def _insert(text, at, new):
    return text[:at] + new + text[at:]


def test_a_long_script_is_read_in_several_chunks():
    assert len(LONG) > 3 * CHUNK
    assert emit_xml(load_script(LONG)) == LONG


# A fault of XML syntax or stray text in a later chunk still wins over a
# schema fault that the walk meets in the first one.
@pytest.mark.parametrize("old,new,message", [
    ("</test>", "</tset>", "line 1092: mismatched tag"),
    ('<step n="100" dt="0.5">', '<step n="100" dt="0.5">stray',
     "line 914: unexpected text content 'stray'"),
], ids=["syntax-after-format", "text-after-format"])
def test_a_later_chunk_fault_wins_over_an_early_schema_fault(old, new,
                                                             message):
    bad = LONG.replace('format="1"', 'format="2"').replace(old, new)
    with pytest.raises(ScriptError) as err:
        load_script(bad)
    assert str(err.value) == message


def test_junk_after_the_document_is_refused_chunks_later():
    # The walk ends at </test>; expat still reads what follows.
    bad = LONG + "\n" * (2 * CHUNK) + "<junk/>\n"
    with pytest.raises(ScriptError) as err:
        load_script(bad)
    assert str(err.value) == \
        f"line {1093 + 2 * CHUNK}: junk after document element"


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_stray_text_across_a_chunk_mark_is_named_whole(chunk):
    # From the end of the last line that starts before the mark, on past
    # the mark: expat splits text where a chunk ends, so chunks end at a
    # line end.
    at = LONG.rfind("\n", 0, chunk * CHUNK)
    stray = "stray" * 60
    with pytest.raises(ScriptError) as err:
        load_script(_insert(LONG, at, stray))
    assert str(err.value) == \
        f"line {_line_of(LONG, at)}: unexpected text content '{stray}'"


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_stray_text_on_the_first_line_of_a_chunk(chunk):
    at = LONG.find("\n", chunk * CHUNK) + 1
    with pytest.raises(ScriptError) as err:
        load_script(_insert(LONG, at, "stray"))
    assert str(err.value) == \
        f"line {_line_of(LONG, at)}: unexpected text content 'stray'"


def _load_overhead(text):
    """What ``load_script(text)`` allocates beyond the script it returns,
    at its peak."""
    tracemalloc.start()
    try:
        script = load_script(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert script.steps
    return peak - retained


def test_a_loaded_statement_costs_little_memory():
    # What the loaded script keeps, per statement, at 300 and 1 200
    # steps: about 160 and 140 bytes, as equal signal names, dwells and
    # method elements share one object each; with a fresh name string and
    # Decimal per use it was about 260 and 240 bytes.
    for copies in (30, 120):
        text = repeated_steps(SHIPPED.read_text(encoding="utf-8"), copies)
        tracemalloc.start()
        try:
            script = load_script(text)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        statements = sum(len(block.statements)
                         for block in (script.init, *script.steps))
        assert retained / statements < 200


def test_loading_costs_memory_independent_of_the_script_length():
    # 300 and 1 200 steps: expat reads one chunk of text at a time, and
    # the walk takes each chunk's elements before the next is read.
    text = SHIPPED.read_text(encoding="utf-8")
    for copies in (30, 120):
        assert _load_overhead(repeated_steps(text, copies)) < 160 * 1024


def test_load_rejects_an_empty_document():
    # expat refuses a document without an element.
    with pytest.raises(ScriptError) as err:
        load_script("")
    assert str(err.value) == "line 1: no element found"


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

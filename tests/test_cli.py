import json
import os
import subprocess
import sys
from decimal import Decimal, getcontext, localcontext
from pathlib import Path

import jsonschema
import pytest

from comptest import (DUT_REGISTRY, InteriorLightConfig, InteriorLightDut,
                      load_script)
from comptest.cli import main

DATA = Path(__file__).resolve().parent.parent / "data" / "interior_light"
SRC = Path(__file__).resolve().parent.parent / "src"

SHEETS = ["--signals", str(DATA / "signals.csv"),
          "--statuses", str(DATA / "statuses.csv"),
          "--test", str(DATA / "test_interior_light.csv")]
STAND = ["--resources", str(DATA / "resources.csv"),
         "--connections", str(DATA / "connections.csv"),
         "--env", str(DATA / "stand.env")]

REPORT_SCHEMA = {
    "type": "object",
    "required": ["test", "dut", "overall", "aborted", "abort", "init",
                 "steps", "totals"],
    "properties": {
        "test": {"type": "string"},
        "dut": {"type": "string"},
        "overall": {"enum": ["pass", "fail"]},
        "aborted": {"type": "boolean"},
        "abort": {"type": ["object", "null"]},
        "init": {"type": ["object", "null"]},
        "steps": {"type": "array", "items": {
            "type": "object",
            "required": ["n", "dt", "t_end", "passed", "stimuli", "checks"],
            "properties": {
                "n": {"type": "integer"},
                "dt": {"type": "string"},
                "t_end": {"type": "string"},
                "passed": {"type": "boolean"},
                "stimuli": {"type": "array"},
                "checks": {"type": "array", "items": {
                    "type": "object",
                    "required": ["signal", "pin", "method", "min", "max",
                                 "measured", "passed"],
                }},
            },
        }},
        "totals": {"type": "object",
                   "required": ["steps_total", "steps_run", "steps_passed",
                                "checks_total", "checks_failed", "step_time",
                                "total_time"]},
    },
}


def test_check_demo_sheets(capsys):
    assert main(["check", *SHEETS]) == 0
    assert "0 violations" in capsys.readouterr().err


def test_check_reports_violations(tmp_path, capsys):
    bad = (DATA / "test_interior_light.csv").read_text(encoding="utf-8") \
        .replace(";Ho;", ";Hi;", 1)
    bad_path = tmp_path / "test.csv"
    bad_path.write_text(bad, encoding="utf-8")
    code = main(["check", *SHEETS[:4], "--test", str(bad_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("test, row 6, column INT_ILL: unknown status 'Hi'\n"
                   "1 violation\n")


@pytest.mark.parametrize("command,sheet,edit,expected,err", [
    ("check", "test_interior_light", lambda t: t.replace("DS_FL", "D S", 1),
     1, "test, row 1, column 4: identifier 'D S' contains whitespace"),
    ("run", "connections", lambda t: t.replace("INT_ILL_R", "INT ILL", 1),
     2, "connections, row 1, column 3: identifier 'INT ILL' contains "
        "whitespace"),
    ("run", "resources", lambda t: t.replace("\n", ";\n", 1), 2,
     "resources, row 1, column 7: unexpected column ''"),
    ("run", "connections", lambda t: t.replace("res;", "anything at all;", 1),
     2, "connections, row 1, column anything at all: first column must be "
        "the resource id 'res'"),
    ("run", "connections",
     lambda t: "".join(line.split(";", 1)[1] for line in t.splitlines(True)),
     2, "connections, row 1, column INT_ILL_F: first column must be the "
        "resource id 'res'"),
], ids=["signal", "pin", "blank", "resource-id", "no-resource-id"])
def test_header_faults_name_their_column_once(script_path, tmp_path, capsys,
                                             command, sheet, edit, expected,
                                             err):
    # A signal or pin header is named by its 1-based position, and so is a
    # blank header cell (here a trailing separator).
    path = tmp_path / f"{sheet}.csv"
    path.write_text(edit((DATA / f"{sheet}.csv").read_text(encoding="utf-8")),
                    encoding="utf-8")
    args = ([*SHEETS, "--test", str(path)] if command == "check" else
            ["--script", str(script_path), *STAND, f"--{sheet}", str(path)])
    assert main([command, *args]) == expected
    assert capsys.readouterr().err == f"comptest: error: {err}\n"


@pytest.mark.parametrize("command,sheet,edit,expected,err", [
    ("check", "test_interior_light",
     lambda t: t.replace(";day: no interior\n", ";day: no interior;x\n", 1),
     1, "test, row 2, column 9: cell 'x' is beyond the header's last "
        "column"),
    ("run", "connections", lambda t: t.replace("Mx4.2\n", "Mx4.2;Mx5.2\n", 1),
     2, "connections, row 3, column 8: cell 'Mx5.2' is beyond the header's "
        "last column"),
], ids=["test", "connections"])
def test_cells_beyond_the_header_are_refused(script_path, tmp_path, capsys,
                                             command, sheet, edit, expected,
                                             err):
    # A cell the header gives no column would be lost; trailing blank cells
    # are not cells.
    path = tmp_path / f"{sheet}.csv"
    text = (DATA / f"{sheet}.csv").read_text(encoding="utf-8")
    args = ([*SHEETS, "--test", str(path)] if command == "check" else
            ["--script", str(script_path), *STAND, f"--{sheet}", str(path)])
    head, body = text.split("\n", 1)
    path.write_text(head + "\n" + body.replace("\n", "; ;\n"),
                    encoding="utf-8")
    assert main([command, *args]) == 0
    capsys.readouterr()
    path.write_text(edit(text), encoding="utf-8")
    assert main([command, *args]) == expected
    assert capsys.readouterr().err == f"comptest: error: {err}\n"


def test_check_reports_a_method_of_unknown_class(tmp_path, capsys):
    statuses = tmp_path / "statuses.csv"
    statuses.write_text((DATA / "statuses.csv").read_text(encoding="utf-8")
                        .replace("Open;put r;", "Open;pulse r;", 1),
                        encoding="utf-8")
    code = main(["check", *SHEETS[:2], "--statuses", str(statuses),
                 *SHEETS[4:]])
    assert code == 1
    # Each use of the status is a violation: steps 1, 2, 4 and 6.
    assert capsys.readouterr().err == "".join(
        f"test, row {row}, column {signal}: status 'Open' uses method "
        f"'pulse_r' of unknown class\n"
        for row, signal in ((3, "DS_FL"), (4, "DS_FR"), (6, "DS_FL"),
                            (8, "DS_FR"))) + "4 violations\n"


def test_run_on_a_second_stand_changes_only_resources_and_connectors(
        tmp_path):
    # One script, any stand: stand B has other resource ids, other switch
    # and mux groups and another row order. Its report differs from the
    # golden one in the chosen resources and connectors, and nowhere else.
    stand_b = DATA / "stand_b"
    out = tmp_path / "report.json"
    code = main(["run", "--script", str(DATA / "expected_script.xml"),
                 "--resources", str(stand_b / "resources.csv"),
                 "--connections", str(stand_b / "connections.csv"),
                 "--env", str(DATA / "stand.env"), "--report", "json",
                 "-o", str(out)])
    assert code == 0
    assert out.read_bytes() == (stand_b / "expected_report.json").read_bytes()
    lines = out.read_text(encoding="utf-8").splitlines()
    golden = (DATA / "expected_report.json").read_text(
        encoding="utf-8").splitlines()
    assert len(lines) == len(golden)
    changed = {line.split(":")[0].strip()
               for line, was in zip(lines, golden) if line != was}
    assert changed == {'"resource"', '"connector"'}


def test_check_missing_file_is_io_error(tmp_path, capsys):
    code = main(["check", *SHEETS[:4], "--test", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "compile"])
def test_sheet_that_is_not_utf8_is_an_io_error(tmp_path, capsys, command):
    # An unreadable file is exit 2 in every command, not a sheet fault.
    signals = tmp_path / "signals.csv"
    signals.write_bytes((DATA / "signals.csv").read_bytes()
                        + "Bär;input;b;Lo\n".encode("latin-1"))
    code = main([command, "--signals", str(signals), *SHEETS[2:]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("comptest: error: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,sheet,expected", [
    ("check", "signals", 1), ("compile", "signals", 1),
    ("run", "resources", 2)])
def test_oversized_cell_is_one_error_line(script_path, tmp_path, capsys,
                                          command, sheet, expected):
    # The csv module refuses a field over 131072 characters; that is a
    # malformed cell like any other, at its sheet and row.
    path = tmp_path / f"{sheet}.csv"
    text = (DATA / f"{sheet}.csv").read_text(encoding="utf-8")
    path.write_text(text + "x" * 140000 + "\n", encoding="utf-8")
    rows = text.count("\n") + 1
    args = ([*SHEETS, "--signals", str(path)] if command != "run" else
            ["--script", str(script_path), *STAND, "--resources", str(path)])
    code = main([command, *args])
    err = capsys.readouterr().err
    assert code == expected
    assert err == (f"comptest: error: {sheet}, row {rows}: field larger "
                   f"than field limit (131072)\n")


def test_compile_writes_golden_bytes(tmp_path, capsys):
    out = tmp_path / "script.xml"
    code = main(["compile", *SHEETS, "--name", "interior_light",
                 "--dut", "interior_light_ecu", "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (DATA / "expected_script.xml").read_bytes()


def test_compile_to_stdout(capsys):
    code = main(["compile", *SHEETS, "--name", "interior_light",
                 "--dut", "interior_light_ecu"])
    assert code == 0
    assert capsys.readouterr().out == \
        (DATA / "expected_script.xml").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", ' a&<>"\t\r\n'])
def test_compiled_names_round_trip(tmp_path, capsys, name):
    # A parser turns a raw tab, LF or CR in an attribute into a space.
    out = tmp_path / "script.xml"
    code = main(["compile", *SHEETS, "--name", name, "--dut", name,
                 "-o", str(out)])
    assert code == 0
    script = load_script(out.read_text(encoding="utf-8"))
    assert (script.name, script.dut) == (name, name)


@pytest.mark.parametrize("flag", ["--name", "--dut"])
def test_name_that_xml_cannot_hold_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "script.xml"
    code = main(["compile", *SHEETS, flag, "a\x01b", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("comptest: error: 'a\\x01b': U+0001 cannot be written to "
                   "an XML script\n")
    assert not out.exists()


def test_compile_invalid_sheets_writes_nothing(tmp_path, capsys):
    bad = (DATA / "test_interior_light.csv").read_text(encoding="utf-8") \
        .replace(";Ho;", ";Hi;", 1)
    bad_path = tmp_path / "test.csv"
    bad_path.write_text(bad, encoding="utf-8")
    out = tmp_path / "script.xml"
    code = main(["compile", *SHEETS[:4], "--test", str(bad_path),
                 "-o", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "test, row 6, column INT_ILL: unknown status 'Hi'\n"
        "comptest: error: sheets did not validate; no script written\n")


def test_compile_dot_dialect_gives_identical_bytes(tmp_path, capsys):
    from comptest import (CsvDialect, parse_signal_sheet, parse_status_sheet,
                          parse_test_sheet, serialize_signal_sheet,
                          serialize_status_sheet, serialize_test_sheet)
    signals = parse_signal_sheet((DATA / "signals.csv").read_text("utf-8"))
    statuses = parse_status_sheet((DATA / "statuses.csv").read_text("utf-8"))
    test = parse_test_sheet(
        (DATA / "test_interior_light.csv").read_text("utf-8"))
    for dialect, spec in ((CsvDialect(decimal_separator="."), "decimal=dot"),
                          (CsvDialect(",", "."), "field=comma,decimal=dot")):
        (tmp_path / "signals.csv").write_text(
            serialize_signal_sheet(signals, dialect), encoding="utf-8")
        (tmp_path / "statuses.csv").write_text(
            serialize_status_sheet(statuses, dialect), encoding="utf-8")
        (tmp_path / "test.csv").write_text(
            serialize_test_sheet(test, dialect), encoding="utf-8")
        sheets = ["--signals", str(tmp_path / "signals.csv"),
                  "--statuses", str(tmp_path / "statuses.csv"),
                  "--test", str(tmp_path / "test.csv"), "--dialect", spec]
        assert main(["check", *sheets]) == 0
        assert main(["compile", *sheets, "--name", "interior_light",
                     "--dut", "interior_light_ecu"]) == 0
        assert capsys.readouterr().out == \
            (DATA / "expected_script.xml").read_text(encoding="utf-8")


@pytest.mark.parametrize("settle", ["Infinity", "nan", "-1", "abc",
                                    "1e9999999999999999999999"])
def test_compile_refuses_bad_settle(tmp_path, capsys, settle):
    out = tmp_path / "script.xml"
    code = main(["compile", *SHEETS, f"--settle={settle}", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "argument --settle" in captured.err
    assert repr(settle) in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.fixture()
def script_path(tmp_path):
    out = tmp_path / "script.xml"
    assert main(["compile", *SHEETS, "--name", "interior_light",
                 "--dut", "interior_light_ecu", "-o", str(out)]) == 0
    return out


def test_run_passes(script_path, capsys):
    code = main(["run", "--script", str(script_path), *STAND])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out


def run_with_env(script_path, tmp_path, env_text):
    env = tmp_path / "stand.env"
    env.write_text(env_text, encoding="utf-8")
    return main(["run", "--script", str(script_path), *STAND[:4],
                 "--env", str(env)])


def test_run_env_keys_ignore_case(script_path, tmp_path, capsys):
    # The status sheet spells var (x) as UBATT; the script uses ubatt.
    assert run_with_env(script_path, tmp_path, "UBATT=12.0\n") == 0
    assert "RESULT: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["ubatt = 12.0", "ubatt =12.0"])
def test_run_env_allows_whitespace_around_the_equals_sign(tmp_path, line):
    env = tmp_path / "stand.env"
    env.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", "--script", str(DATA / "expected_script.xml"),
                 *STAND[:4], "--env", str(env), "--report", "json",
                 "-o", str(out)]) == 0
    assert out.read_bytes() == (DATA / "expected_report.json").read_bytes()


@pytest.mark.parametrize("env_text,message", [
    ("ubatt=12.0\nUBATT=13.0\n", "env line 2: duplicate key 'UBATT' (as "
                                  "'ubatt', ignoring case)"),
    ("ubatt=12.0\nubatt=12.0\n", "env line 2: duplicate key 'ubatt'\n"),
    ("# supply\nubatt=nan\n", "env line 2: malformed number 'nan'"),
    ("ubatt=Infinity\n", "env line 1: malformed number 'Infinity'"),
    ("ubatt=sNaN\n", "env line 1: malformed number 'sNaN'"),
    ("ubatt=1_2\n", "env line 1: malformed number '1_2'"),
    ("ubatt=1e9999999999999999999999\n", "env line 1: number '1e9999999999999999999999' is out of range"),
    ("u-batt=12.0\n", "env line 1: expected key=value"),
    ("u batt=12.0\n", "env line 1: expected key=value, got 'u batt=12.0'"),
    ("ubatt=\n", "env line 1: expected key=value"),
])
def test_run_refuses_bad_env_lines(script_path, tmp_path, capsys, env_text,
                                   message):
    assert run_with_env(script_path, tmp_path, env_text) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("old,new,message", [
    ('d2="5000"', 'd2="1e9999999999999999999999"', "out of range"),
    ('u_max="(1.1*ubatt)"', 'u_max="(1.1*1e9999999999999999999999)"', "out of range"),
    ('<step n="0" dt="0.5">', '<step n="0" dt="1e9999999999999999999999">', "out of range"),
    ('u_max="(1.1*ubatt)"', 'u_max="(1e999999*ubatt)"',
     "[environment]: overflow in 1E+999999*ubatt"),
])
def test_run_refuses_numbers_out_of_range(tmp_path, capsys, old, new,
                                          message):
    golden = (DATA / "expected_script.xml").read_text(encoding="utf-8")
    assert old in golden
    script = tmp_path / "script.xml"
    script.write_text(golden.replace(old, new, 1), encoding="utf-8")
    code = main(["run", "--script", str(script), *STAND])
    assert code == 2
    assert message in capsys.readouterr().err


def test_run_dwell_sum_overflow_exits_2(tmp_path, capsys):
    golden = (DATA / "expected_script.xml").read_text(encoding="utf-8")
    script = tmp_path / "script.xml"
    # Every sum before the last is exact: 1E+999998 + 9E+999999.
    script.write_text(golden.replace('dt="0.5"', 'dt="9e999999"')
                      .replace('<init dt="0.1">', '<init dt="1e999998">'),
                      encoding="utf-8")
    code = main(["run", "--script", str(script), *STAND])
    assert code == 2
    assert "[environment]: clock overflow: dwell sum" in capsys.readouterr().err


def test_check_refuses_number_out_of_range(tmp_path, capsys):
    statuses = (DATA / "statuses.csv").read_text(encoding="utf-8")
    bad = tmp_path / "statuses.csv"
    bad.write_text(statuses.replace("Closed;put r;r;;INF;;;INF;5000;5000",
                                    "Closed;put r;r;;INF;;;INF;1e9999999999999999999999;5000"),
                   encoding="utf-8")
    code = main(["check", "--signals", str(DATA / "signals.csv"),
                 "--statuses", str(bad),
                 "--test", str(DATA / "test_interior_light.csv")])
    assert code == 1
    assert "statuses, row 4, column d2: number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "compile"])
def test_check_and_compile_refuse_a_bad_status_row(tmp_path, capsys,
                                                    command):
    # Lo breaks the get-class rule: check and compile both refuse it when
    # the sheet is read, at the same row and column.
    statuses = (DATA / "statuses.csv").read_text(encoding="utf-8")
    bad = tmp_path / "statuses.csv"
    bad.write_text(statuses.replace("Lo;get u;u;UBATT;0;0;0,3;;;",
                                    "Lo;get u;u;UBATT;0;;;;;"),
                   encoding="utf-8")
    out = tmp_path / "script.xml"
    code = main([command, "--signals", str(DATA / "signals.csv"),
                 "--statuses", str(bad),
                 "--test", str(DATA / "test_interior_light.csv"),
                 *(["-o", str(out)] if command == "compile" else [])])
    assert code == 1
    assert "statuses, row 7, column min: status Lo: get-class status " \
        "defines neither min nor max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "compile"])
def test_check_and_compile_refuse_a_step_index_too_long_to_convert(
        tmp_path, capsys, command):
    # 5 000 digits is past the interpreter's own limit for an int string:
    # the step-index rule refuses them at the cell, and exits 1.
    rows = (DATA / "test_interior_light.csv").read_text(
        encoding="utf-8").split("\n")
    rows[1] = "1" * 5000 + rows[1][rows[1].index(";"):]
    bad = tmp_path / "test.csv"
    bad.write_text("\n".join(rows), encoding="utf-8")
    out = tmp_path / "script.xml"
    code = main([command, *SHEETS[:4], "--test", str(bad),
                 *(["-o", str(out)] if command == "compile" else [])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("comptest: error: test, row 2, column test step: "
                            "step index of 5000 digits (at most 640)\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "compile"])
def test_check_and_compile_refuse_an_identifier_xml_cannot_hold(
        tmp_path, capsys, command):
    # Check passes only what compile can write.
    signals = (DATA / "signals.csv").read_text(encoding="utf-8")
    bad = tmp_path / "signals.csv"
    bad.write_text(signals.replace("IGN_ST;input", "IG\x01N_ST;input"),
                   encoding="utf-8")
    out = tmp_path / "script.xml"
    code = main([command, "--signals", str(bad), *SHEETS[2:],
                 *(["-o", str(out)] if command == "compile" else [])])
    assert code == 1
    assert capsys.readouterr().err == (
        "comptest: error: signals, row 2, column name: identifier "
        "'IG\\x01N_ST' holds U+0001, which an XML script cannot hold\n")
    assert not out.exists()


def test_run_reproduces_golden_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--script", str(DATA / "expected_script.xml"), *STAND,
                 "--report", "json", "-o", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "expected_report.json").read_bytes()


def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys):
    # Spreadsheet "CSV UTF-8" exports and some editors start a file with a
    # byte order mark: every input reads as it would without one.
    bom = {}
    for name in ["signals.csv", "statuses.csv", "test_interior_light.csv",
                 "resources.csv", "connections.csv", "stand.env",
                 "expected_script.xml"]:
        bom[name] = str(tmp_path / name)
        Path(bom[name]).write_bytes(b"\xef\xbb\xbf"
                                    + (DATA / name).read_bytes())
    sheets = ["--signals", bom["signals.csv"],
              "--statuses", bom["statuses.csv"],
              "--test", bom["test_interior_light.csv"]]
    assert main(["check", *sheets]) == 0
    assert capsys.readouterr().err == "0 violations\n"
    script, report = tmp_path / "script.xml", tmp_path / "report.json"
    assert main(["compile", *sheets, "--name", "interior_light",
                 "--dut", "interior_light_ecu", "-o", str(script)]) == 0
    assert script.read_bytes() == (DATA / "expected_script.xml").read_bytes()
    assert main(["run", "--script", bom["expected_script.xml"],
                 "--resources", bom["resources.csv"],
                 "--connections", bom["connections.csv"],
                 "--env", bom["stand.env"], "--report", "json",
                 "-o", str(report)]) == 0
    assert report.read_bytes() == (DATA / "expected_report.json").read_bytes()
    assert capsys.readouterr().err == ""


class _PrecisionDut(InteriorLightDut):
    """Sets the thread's decimal precision before every dwell, as a DUT
    plugin may."""

    def __init__(self, config, prec):
        super().__init__(config)
        self.prec = prec

    def advance(self, dt):
        getcontext().prec = self.prec
        super().advance(dt)


def test_the_thread_decimal_context_leaves_the_golden_report(tmp_path,
                                                             monkeypatch):
    # A run evaluates its bounds and sums its times in a context of its
    # own: neither the caller's precision nor a DUT that changes it while
    # the run goes on alters a byte of the report.
    run = ["run", "--script", str(DATA / "expected_script.xml"), *STAND,
           "--report", "json", "-o"]
    golden = (DATA / "expected_report.json").read_bytes()
    for prec in (2, 3, 4, 6):
        with localcontext() as ctx:
            ctx.prec = prec
            assert main([*run, str(tmp_path / "caller.json")]) == 0
        assert (tmp_path / "caller.json").read_bytes() == golden, prec
        monkeypatch.setitem(DUT_REGISTRY, "interior_illumination",
                            lambda env: _PrecisionDut(InteriorLightConfig(
                                ubatt=env["ubatt"]), prec))
        with localcontext():  # the DUT's change ends with this block
            assert main([*run, str(tmp_path / "dut.json")]) == 0
        assert (tmp_path / "dut.json").read_bytes() == golden, prec


def test_deeply_nested_bound_runs_like_the_golden_one(tmp_path):
    # 400 parentheses around a check's bound nest deeper than the default
    # recursion limit allows a recursive parser: the run must still give
    # the golden report, in a fresh interpreter, with no traceback.
    lines = (DATA / "expected_script.xml").read_text(
        encoding="utf-8").split("\n")
    bound = 'u_max="(0.3*ubatt)"'
    assert bound in lines[37]
    lines[37] = lines[37].replace(
        bound, f'u_max="{"(" * 400}(0.3*ubatt){")" * 400}"')
    script = tmp_path / "deep.xml"
    script.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "comptest", "run", "--script", str(script),
         *STAND, "--report", "json", "-o", str(out)],
        capture_output=True, text=True, env=env)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (DATA / "expected_report.json").read_bytes()


def test_a_resource_range_limits_its_attribute(tmp_path, capsys):
    # The door decades limited to [0, 1.5] still serve the shipped script:
    # their range limits r (0 or INF there), and the pass-through values
    # d1..d3 (up to 5000) are not range-checked. Raising min above r=0
    # refuses them again.
    resources = tmp_path / "resources.csv"
    run = ["run", "--script", str(DATA / "expected_script.xml"),
           "--resources", str(resources),
           "--connections", str(DATA / "connections.csv"),
           "--env", str(DATA / "stand.env"), "--report", "json"]
    golden = (DATA / "resources.csv").read_text(encoding="utf-8")
    narrowed = golden.replace("1,00E+06", "1,5").replace("2,00E+05", "1,5")
    resources.write_text(narrowed, encoding="utf-8")
    assert main([*run, "-o", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_bytes() == \
        (DATA / "expected_report.json").read_bytes()
    resources.write_text(narrowed.replace("r;0;1,5", "r;1;1,5"),
                         encoding="utf-8")
    assert main(run) == 2
    assert "Ress2: range: r=0 outside [1, 1.5]" in capsys.readouterr().err


def test_run_json_report_validates(script_path, capsys):
    code = main(["run", "--script", str(script_path), *STAND,
                 "--report", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["overall"] == "pass"


def test_run_without_dvm_exits_2(script_path, tmp_path, capsys):
    for name in ("resources.csv", "connections.csv"):
        reduced = "\n".join(
            line for line in
            (DATA / name).read_text(encoding="utf-8").splitlines()
            if not line.startswith("Ress1")) + "\n"
        (tmp_path / name).write_text(reduced, encoding="utf-8")
    code = main(["run", "--script", str(script_path),
                 "--resources", str(tmp_path / "resources.csv"),
                 "--connections", str(tmp_path / "connections.csv"),
                 "--env", str(DATA / "stand.env")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "comptest: error: run aborted [allocation]: no resource satisfies "
        "(pin int_ill_f, method get_u); rejected candidates: Ress2: no method "
        "(supports put_r); Ress3: no method (supports put_r)\n")
    assert "aborted" in captured.out  # the report itself is still an artifact


def test_run_names_an_unknown_matrix_row(script_path, tmp_path, capsys):
    connections = tmp_path / "connections.csv"
    connections.write_text((DATA / "connections.csv").read_text(
        encoding="utf-8") + "R9;;;;;;\n", encoding="utf-8")
    code = main(["run", "--script", str(script_path), *STAND,
                 "--connections", str(connections)])
    captured = capsys.readouterr()
    assert code == 2
    # The connections sheet has a header and three rows, so R9 is row 5.
    assert captured.err == ("comptest: error: connections, row 5, column "
                            "res: resource 'R9' is not in the resource "
                            "table\n")
    assert captured.out == ""


def test_run_check_failure_exits_1(tmp_path, capsys):
    # A test expecting the lamp on during the day fails its check.
    day_fail = (
        "test step;Δt;DS_FL;NIGHT;INT_ILL;remarks\n"
        "0;0,5;Open;0;Ho;lamp cannot be on during the day\n")
    test_path = tmp_path / "test.csv"
    test_path.write_text(day_fail, encoding="utf-8")
    script = tmp_path / "script.xml"
    assert main(["compile", *SHEETS[:4], "--test", str(test_path),
                 "-o", str(script)]) == 0
    code = main(["run", "--script", str(script), *STAND])
    captured = capsys.readouterr()
    assert code == 1
    assert "RESULT: FAIL" in captured.out
    assert "check(s) failed" in captured.err


def test_run_report_to_file_keeps_stdout_clean(script_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--script", str(script_path), *STAND,
                 "--report", "json", "-o", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    jsonschema.validate(json.loads(out.read_text(encoding="utf-8")),
                        REPORT_SCHEMA)


def test_bad_dialect_flag(capsys):
    assert main(["check", *SHEETS, "--dialect", "bogus"]) == 2
    assert main(["compile", *SHEETS, "--dialect", "bogus"]) == 2
    assert "bad dialect part 'bogus'" in capsys.readouterr().err
    assert main(["check", *SHEETS, "--dialect", "sep=comma"]) == 2
    assert capsys.readouterr().err == \
        "comptest: error: unknown dialect key 'sep'\n"


def test_unknown_dut_exits_2(script_path, capsys):
    code = main(["run", "--script", str(script_path), *STAND,
                 "--dut", "flux_capacitor"])
    assert code == 2
    assert "unknown dut" in capsys.readouterr().err


def test_crashing_dut_plugin_exits_2(script_path, capsys, monkeypatch):
    class CrashingDut(InteriorLightDut):
        def read_pin(self, pin):
            raise KeyError(pin)

    monkeypatch.setitem(DUT_REGISTRY, "crashing",
                        lambda env: CrashingDut(InteriorLightConfig(
                            ubatt=env["ubatt"])))
    code = main(["run", "--script", str(script_path), *STAND,
                 "--dut", "crashing"])
    captured = capsys.readouterr()
    assert code == 2
    assert ("run aborted [environment]: dut model raised KeyError: "
            "'int_ill_f'") in captured.err
    assert "Traceback" not in captured.err


class PermissiveDut:
    """Takes every input and reads 0 V on every pin."""

    def set_input(self, name, value, aux=None):
        pass

    def advance(self, dt):
        pass

    def read_pin(self, pin):
        return Decimal(0)


def test_run_allocates_a_wide_init_block(tmp_path, capsys, monkeypatch):
    # 1 100 stimuli in one block, each on a resource of its own: deeper
    # than the interpreter's default recursion limit.
    n = 1100
    pins = [f"p{j}" for j in range(n)]
    manifest = "".join(f'    <signal name="{pin}" direction="input" '
                       f'pins="{pin}" />\n' for pin in pins)
    puts = "".join(f'    <signal name="{pin}">\n      <put_r r="5" />\n'
                   f'    </signal>\n' for pin in pins)
    files = {
        "script.xml": '<?xml version="1.0" encoding="UTF-8"?>\n'
                      '<test name="wide" dut="permissive" format="1">\n'
                      f'  <signals>\n{manifest}  </signals>\n'
                      f'  <init dt="0.1">\n{puts}  </init>\n'
                      '  <step n="0" dt="1" />\n</test>\n',
        "resources.csv": "res;method;attribut;min;max;unit\n" + "".join(
            f"R{j};put r;r;0;1000;Ω\n" for j in range(n)),
        "connections.csv": ";".join(["res", *pins]) + "\n" + "".join(
            f"R{j};{';' * j}Mx{j}.1\n" for j in range(n)),
        "stand.env": "ubatt=12\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setitem(DUT_REGISTRY, "permissive", lambda env: PermissiveDut())
    code = main(["run", "--script", str(tmp_path / "script.xml"),
                 "--resources", str(tmp_path / "resources.csv"),
                 "--connections", str(tmp_path / "connections.csv"),
                 "--env", str(tmp_path / "stand.env"), "--dut", "permissive",
                 "--report", "json", "-o", str(tmp_path / "report.json")])
    assert (code, capsys.readouterr().err) == (0, "")
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [s["resource"] for s in report["init"]["stimuli"]] == \
        [f"R{j}" for j in range(n)]


def test_dut_factory_that_raises_exits_2(script_path, capsys, monkeypatch):
    def broken(env):
        raise RuntimeError("no supply")

    monkeypatch.setitem(DUT_REGISTRY, "broken", broken)
    code = main(["run", "--script", str(script_path), *STAND,
                 "--dut", "broken"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("comptest: error: dut model raised RuntimeError: "
                            "no supply\n")
    assert captured.out == ""


def test_a_run_that_stops_before_its_report_leaves_no_new_out(
        script_path, tmp_path, capsys, monkeypatch):
    def broken(env):
        raise RuntimeError("no supply")

    monkeypatch.setitem(DUT_REGISTRY, "broken", broken)
    out = tmp_path / "new.json"
    for existing in (None, "kept"):
        if existing is not None:
            out.write_text(existing, encoding="utf-8")
        for dut in ("nosuch", "broken"):
            assert main(["run", "--script", str(script_path), *STAND,
                         "--dut", dut, "-o", str(out)]) == 2
            assert capsys.readouterr().err.count("\n") == 1
            # A file the run created is gone; one that was there stays.
            assert (out.read_text(encoding="utf-8") if out.exists()
                    else None) == existing


@pytest.mark.parametrize("command", ["compile", "run --report json",
                                     "run --report text"])
def test_unwritable_out_exits_2(script_path, tmp_path, capsys, monkeypatch,
                                command):
    command, *flags = command.split()
    built = []  # a run fails before its DUT is built, let alone driven
    monkeypatch.setitem(DUT_REGISTRY, "recording",
                        lambda env: built.append(env) or PermissiveDut())
    args = SHEETS if command == "compile" else [
        "--script", str(script_path), *STAND, "--dut", "recording", *flags]
    # A file in a missing directory, and a path that is a directory.
    for out in (tmp_path / "missing" / "out", tmp_path):
        code = main([command, *args, "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("comptest: error: ")
        assert captured.err.count("\n") == 1
        assert str(out) in captured.err
        assert captured.out == ""
    assert built == []


@pytest.mark.parametrize("report", ["json", "text"])
def test_run_writes_the_same_bytes_to_stdout_and_to_out(script_path, tmp_path,
                                                        capsysbinary, report):
    out = tmp_path / f"report.{report}"
    args = ["run", "--script", str(script_path), *STAND, "--report", report]
    assert main([*args, "-o", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(args) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_module_entry_point_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "comptest", "check", *SHEETS],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "0 violations" in proc.stderr

def test_import_loads_no_dataclasses_or_inspect():
    # Every command pays the import, so comptest builds its types without
    # generated code: importing dataclasses alone would also load inspect,
    # ast, dis and tokenize. -S keeps site-packages from loading them first.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import comptest, comptest.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

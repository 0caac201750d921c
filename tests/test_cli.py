import json
import os
import subprocess
import sys
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
    assert "unknown status 'Hi'" in err
    assert "1 violation" in err


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
    assert "unknown status" in capsys.readouterr().err


def test_compile_dot_dialect_gives_identical_bytes(tmp_path, capsys):
    from comptest import (CsvDialect, parse_signal_sheet, parse_status_sheet,
                          parse_test_sheet, serialize_signal_sheet,
                          serialize_status_sheet, serialize_test_sheet)
    dot = CsvDialect(decimal_separator=".")
    signals = parse_signal_sheet((DATA / "signals.csv").read_text("utf-8"))
    statuses = parse_status_sheet((DATA / "statuses.csv").read_text("utf-8"))
    test = parse_test_sheet(
        (DATA / "test_interior_light.csv").read_text("utf-8"))
    (tmp_path / "signals.csv").write_text(
        serialize_signal_sheet(signals, dot), encoding="utf-8")
    (tmp_path / "statuses.csv").write_text(
        serialize_status_sheet(statuses, dot), encoding="utf-8")
    (tmp_path / "test.csv").write_text(
        serialize_test_sheet(test, dot), encoding="utf-8")
    code = main(["compile",
                 "--signals", str(tmp_path / "signals.csv"),
                 "--statuses", str(tmp_path / "statuses.csv"),
                 "--test", str(tmp_path / "test.csv"),
                 "--dialect", "decimal=dot",
                 "--name", "interior_light", "--dut", "interior_light_ecu"])
    assert code == 0
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
    script.write_text(golden.replace('dt="0.5"', 'dt="9e999999"'),
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


def test_run_reproduces_golden_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--script", str(DATA / "expected_script.xml"), *STAND,
                 "--report", "json", "-o", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "expected_report.json").read_bytes()


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
    assert "get_u" in captured.err
    assert "aborted" in captured.out  # the report itself is still an artifact


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


@pytest.mark.parametrize("command", ["compile", "run"])
def test_unwritable_out_exits_2(script_path, tmp_path, capsys, command):
    args = SHEETS if command == "compile" else ["--script", str(script_path),
                                                *STAND]
    out = tmp_path / "missing" / "out"
    code = main([command, *args, "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("comptest: error: ")
    assert captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert captured.out == ""


def test_module_entry_point_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "comptest", "check", *SHEETS],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "0 violations" in proc.stderr
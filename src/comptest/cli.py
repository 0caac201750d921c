"""Command-line entry point for the authoring and execution workflows.

Exit codes are a stable contract:
  0  success / overall pass
  1  sheet validation or check failure
  2  I/O, load, environment or allocation error

Diagnostics go to stderr; artifacts (scripts, reports) go to files or
stdout only.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from decimal import Decimal
from pathlib import Path

from . import __version__
from .compiler import compile as compile_sheets
from .compiler import emit_xml
from .dut import build_dut
from .errors import ComptestError, SheetError, ValidationFailed
from .ingest import (CsvDialect, parse_connection_sheet, parse_resource_sheet,
                     parse_signal_sheet, parse_status_sheet, parse_test_sheet)
from .runner import execute, report_to_json, report_to_text
from .script import load_script
from .sheets import (check_unique, is_name, parse_dwell, parse_number,
                     validate_sheets)
from .stand import StandModel

_SEP_NAMES = {"comma": ",", "dot": ".", "semicolon": ";", "tab": "\t",
              "pipe": "|"}


def _err(message: str):
    print(f"comptest: error: {message}", file=sys.stderr)


def _parse_dialect(spec: str | None) -> CsvDialect:
    if not spec:
        return CsvDialect()
    kwargs = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad dialect part {part!r} "
                             f"(expected field=<char>,decimal=<char>)")
        key, _, value = part.partition("=")
        key = key.strip()
        value = _SEP_NAMES.get(value.strip(), value.strip())
        if key == "field":
            kwargs["field_separator"] = value
        elif key == "decimal":
            kwargs["decimal_separator"] = value
        else:
            raise ValueError(f"unknown dialect key {key!r}")
    return CsvDialect(**kwargs)


def _read(path: str) -> str:
    """A UTF-8 input file's text, without a leading byte order mark."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def _output(path: str | None):
    """Where an artifact goes: the file at ``path`` (``-o``), opened for
    writing, or stdout without one, left open."""
    if path:
        return open(path, "w", encoding="utf-8")
    return nullcontext(sys.stdout)


def _try_out(path: str) -> bool:
    """Fail on an unwritable ``-o`` path before the DUT is built, truncating
    nothing. True if this created the file."""
    try:
        open(path, "x", encoding="utf-8").close()
        return True
    except FileExistsError:
        open(path, "a", encoding="utf-8").close()
        return False


def _parse_env_file(text: str) -> dict[str, Decimal]:
    """Parse ``key=value`` lines into the stand environment; whitespace
    around ``=`` is allowed on either side.

    Keys obey the name rule and are folded to lowercase, as the compiler
    folds ``var (x)``; two keys that fold to one name are refused
    (``sheets.check_unique``). Values obey the number rule.
    """
    entries: list[tuple[str, Decimal, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not is_name(key) or not value:
            raise ValueError(f"env line {lineno}: expected key=value, "
                             f"got {line!r}")
        try:
            number = parse_number(value)
        except ValueError as exc:
            raise ValueError(f"env line {lineno}: {exc}") from None
        entries.append((key, number, lineno))
    check_unique(((key, {"line": lineno}) for key, _, lineno in entries),
                 "key", lambda message, line: ValueError(
                     f"env line {line}: {message}"), fold=True)
    return {key.lower(): number for key, number, _ in entries}


def _load_sheets(args, dialect: CsvDialect):
    signals = parse_signal_sheet(_read(args.signals), dialect)
    statuses = parse_status_sheet(_read(args.statuses), dialect)
    name = getattr(args, "name", None) or Path(args.test).stem
    test = parse_test_sheet(_read(args.test), dialect, name=name)
    return signals, statuses, test


def cmd_check(args) -> int:
    dialect = _parse_dialect(args.dialect)
    try:
        signals, statuses, test = _load_sheets(args, dialect)
    except SheetError as exc:
        _err(str(exc))
        return 1
    violations = validate_sheets(signals, statuses, test)
    for fault in violations:
        print(fault, file=sys.stderr)
    n = len(violations)
    print(f"{n} violation{'' if n == 1 else 's'}", file=sys.stderr)
    return 1 if violations else 0


def cmd_compile(args) -> int:
    dialect = _parse_dialect(args.dialect)
    try:
        signals, statuses, test = _load_sheets(args, dialect)
        script = compile_sheets(signals, statuses, test, dut=args.dut,
                                settle=args.settle)
    except ValidationFailed as exc:
        for fault in exc.violations:
            print(fault, file=sys.stderr)
        _err("sheets did not validate; no script written")
        return 1
    except SheetError as exc:
        _err(str(exc))
        return 1
    xml = emit_xml(script)  # before -o is opened: a refused value leaves no file
    with _output(args.out) as out:
        out.write(xml)
    return 0


def cmd_run(args) -> int:
    dialect = _parse_dialect(args.dialect)
    script = load_script(_read(args.script))
    stand = StandModel(parse_resource_sheet(_read(args.resources), dialect),
                       parse_connection_sheet(_read(args.connections), dialect))
    env = _parse_env_file(_read(args.env))
    created = bool(args.out) and _try_out(args.out)
    try:
        report = execute(script, stand, env, build_dut(args.dut, env))
    except BaseException:  # no report: leave no empty file behind
        if created:
            Path(args.out).unlink(missing_ok=True)
        raise
    render = report_to_json if args.report == "json" else report_to_text
    with _output(args.out) as out:
        render(report, out)  # written as it is rendered
    if report.abort is not None:
        _err(f"run aborted [{report.abort.kind}]: {report.abort.message}")
        return 2
    if not report.overall:
        _err(f"{report.checks_failed} check(s) failed")
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comptest",
        description="Compile tabular component-test definitions into portable "
                    "XML scripts and run them on a virtual test stand.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sheet_args(p):
        p.add_argument("--signals", required=True, help="signal table CSV")
        p.add_argument("--statuses", required=True, help="status table CSV")
        p.add_argument("--test", required=True, help="test table CSV")
        p.add_argument("--dialect", default=None,
                       help="CSV dialect, e.g. field=semicolon,decimal=comma")

    p_check = sub.add_parser("check", help="validate the three sheets")
    add_sheet_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_compile = sub.add_parser("compile", help="compile sheets to a test script")
    add_sheet_args(p_compile)
    p_compile.add_argument("-o", "--out", default=None,
                           help="output path (default: stdout)")
    p_compile.add_argument("--name", default=None,
                           help="test name (default: test sheet file stem)")
    p_compile.add_argument("--dut", default="dut",
                           help="DUT name recorded in the script header")
    p_compile.add_argument("--settle", default=Decimal("0.1"),
                           type=lambda text: parse_dwell(
                               text, argparse.ArgumentTypeError),
                           help="settling dwell after init, seconds")
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="execute a test script on the virtual "
                                       "stand")
    p_run.add_argument("--script", required=True, help="test script XML")
    p_run.add_argument("--resources", required=True, help="resource table CSV")
    p_run.add_argument("--connections", required=True,
                       help="connection matrix CSV")
    p_run.add_argument("--env", required=True,
                       help="stand environment file (key=value per line)")
    p_run.add_argument("--dut", default="interior_illumination",
                       help="DUT model name from the built-in registry")
    p_run.add_argument("--report", choices=("text", "json"), default="text")
    p_run.add_argument("--dialect", default=None,
                       help="CSV dialect for the stand files")
    p_run.add_argument("-o", "--out", default=None,
                       help="report path (default: stdout)")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the contract.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ComptestError, OSError, ValueError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Parse spreadsheet-exported CSV sheets into domain tables.

Sheets are authored in a spreadsheet tool and exported as UTF-8 CSV. The
default dialect is semicolon-separated fields with decimal commas (the
usual export on a German locale); a dot-decimal dialect parses to the very
same values. Every parse failure carries 1-based (row, column) coordinates,
counting the header as row 1. The parsers only turn cells into values; the
table rules (names, uniqueness, directions, step order, dwells, ranges) are
checked by the table types, which raise the same ``SheetError`` with the row
they are built from.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator

from .errors import SheetError
from .sheets import (INF, Scalar, SignalDef, SignalTable, StatusDef,
                     StatusTable, TestSequence, TestStep, check_ident,
                     check_unique, parse_number, parse_scalar,
                     parse_step_index)
from .stand import (ConnectionMatrix, Connector, ResourceDef, ResourceTable,
                    parse_connector)

PIN_SEPARATOR = "|"


@dataclass(frozen=True)
class CsvDialect:
    field_separator: str = ";"
    decimal_separator: str = ","

    def __post_init__(self):
        if len(self.field_separator) != 1 or len(self.decimal_separator) != 1:
            raise ValueError("separators must be single characters")
        if self.field_separator == self.decimal_separator:
            raise ValueError("field and decimal separators must differ")


DEFAULT_DIALECT = CsvDialect()


def _frame(text: str, dialect: CsvDialect, sheet: str
           ) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The sheet frame: the header row, and every body row that is not
    blank with its 1-based row number (the header is row 1). A row the csv
    module refuses (a field over its size limit) is a SheetError."""
    def numbered():
        line = 0
        try:
            for line, row in enumerate(csv.reader(
                    io.StringIO(text), delimiter=dialect.field_separator), 1):
                yield line, row
        except csv.Error as exc:
            raise SheetError(str(exc), sheet=sheet, row=line + 1,
                             column=None) from None

    rows = numbered()
    _, header = next(rows, (1, None))
    if header is None:
        raise SheetError("missing header row", sheet=sheet, row=1, column=None)
    return header, ((line, row) for line, row in rows
                    if any(cell.strip() for cell in row))


def _norm(cell: str) -> str:
    return "".join(ch for ch in cell.casefold() if ch.isalnum())


def _parse_cell(cell: str, dialect: CsvDialect, sheet: str, row: int,
                column: str, read=parse_number) -> Scalar:
    """Read a number (``read=parse_number``) or a scalar cell in ``dialect``."""
    text = cell.strip()
    for ch in ".,":
        if ch != dialect.decimal_separator and ch in text:
            raise SheetError(f"malformed number {cell!r}", sheet=sheet,
                             row=row, column=column)
    try:
        return read(text.replace(dialect.decimal_separator, "."))
    except ValueError as exc:
        raise SheetError(str(exc), sheet=sheet, row=row,
                         column=column) from None


def _ident(cell: str, sheet: str, row: int, column: str) -> str:
    return check_ident(cell.strip(), SheetError, sheet=sheet, row=row,
                       column=column)


def _method(cell: str) -> str:
    # "put r" and "put_r" both normalize to the element name put_r.
    return "_".join(cell.split())


def _header_map(header: list[str], required: dict[str, str],
                optional: dict[str, str], sheet: str) -> dict[str, int]:
    index: dict[str, int] = {}
    known = {**required, **optional}
    for col, cell in enumerate(header):
        key = _norm(cell)
        if key not in known:
            raise SheetError(f"unexpected column {cell.strip()!r}", sheet=sheet,
                             row=1, column=cell.strip())
        name = known[key]
        if name in index:
            raise SheetError(f"duplicate column {cell.strip()!r}", sheet=sheet,
                             row=1, column=cell.strip())
        index[name] = col
    for key, name in required.items():
        if name not in index:
            raise SheetError(f"missing column '{name}'", sheet=sheet, row=1,
                             column=name)
    return index


def _cell(row: list[str], col: int | None) -> str:
    if col is None or col >= len(row):
        return ""
    return row[col]


_STATUS_REQUIRED = {"status": "status", "method": "method",
                    "attribut": "attribut", "varx": "var_x", "nom": "nom",
                    "min": "min", "max": "max", "d1": "d1", "d2": "d2",
                    "d3": "d3"}
_STATUS_OPTIONAL = {"unit": "unit"}


def parse_status_sheet(text: str, dialect: CsvDialect = DEFAULT_DIALECT) -> StatusTable:
    header, body = _frame(text, dialect, "statuses")
    cols = _header_map(header, _STATUS_REQUIRED, _STATUS_OPTIONAL, "statuses")
    statuses: list[StatusDef] = []
    for line, row in body:
        name = _ident(_cell(row, cols["status"]), "statuses", line, "status")

        def opt(column, read=parse_scalar):
            cell = _cell(row, cols.get(column))
            if not cell.strip():
                return None
            return _parse_cell(cell, dialect, "statuses", line, column, read)

        unit_cell = _cell(row, cols.get("unit")).strip()
        statuses.append(StatusDef(
            status=name,
            method=_method(_cell(row, cols["method"])),
            attribut=_cell(row, cols["attribut"]).strip(),
            var_x=_cell(row, cols["var_x"]).strip() or None,
            nom=opt("nom"),
            min=opt("min", parse_number),
            max=opt("max", parse_number),
            d1=opt("d1"),
            d2=opt("d2"),
            d3=opt("d3"),
            unit=unit_cell or None,
            row=line,
        ))
    return StatusTable(statuses)


_SIGNAL_REQUIRED = {"name": "name", "direction": "direction", "pins": "pins",
                    "initialstatus": "initial_status"}


def parse_signal_sheet(text: str, dialect: CsvDialect = DEFAULT_DIALECT) -> SignalTable:
    header, body = _frame(text, dialect, "signals")
    cols = _header_map(header, _SIGNAL_REQUIRED, {}, "signals")
    signals: list[SignalDef] = []
    for line, row in body:
        signals.append(SignalDef(
            name=_ident(_cell(row, cols["name"]), "signals", line, "name"),
            direction=_cell(row, cols["direction"]).strip().casefold(),
            pins=tuple(_ident(p, "signals", line, "pins")
                       for p in _cell(row, cols["pins"]).split(PIN_SEPARATOR)),
            initial_status=_ident(_cell(row, cols["initial_status"]), "signals",
                                  line, "initial_status"),
            row=line,
        ))
    if not signals:
        raise SheetError("signal sheet has no rows", sheet="signals", row=None,
                         column=None)
    return SignalTable(signals)


_STEP_HEADERS = {"teststep", "step"}
_DT_HEADERS = {"δt", "dt", "deltat"}
_REMARK_HEADERS = {"remarks", "remark"}


def parse_test_sheet(text: str, dialect: CsvDialect = DEFAULT_DIALECT,
                     name: str = "test") -> TestSequence:
    header, body = _frame(text, dialect, "test")
    if len(header) < 2 or _norm(header[0]) not in _STEP_HEADERS:
        raise SheetError("first column must be the test step index",
                         sheet="test", row=1,
                         column=header[0].strip() if header else None)
    if _norm(header[1]) not in _DT_HEADERS:
        raise SheetError("second column must be the step duration Δt",
                         sheet="test", row=1, column=header[1].strip())
    dt_label = header[1].strip()
    # The remarks column, when there is one, is the last column. A column
    # before it may then be headed "remark(s)" too: that is a signal of
    # that name. Without a trailing remarks column such a header is a
    # misplaced remarks column.
    last = len(header) - 1
    remark_col = (last if last >= 2 and _norm(header[last]) in _REMARK_HEADERS
                  else None)
    signal_cols: list[tuple[int, str]] = []
    for col in range(2, remark_col if remark_col is not None else len(header)):
        label = header[col].strip()
        if _norm(label) in _REMARK_HEADERS and remark_col is None:
            raise SheetError("remarks must be the last column", sheet="test",
                             row=1, column=label)
        signal_cols.append((col, _ident(label, "test", 1, f"column {col + 1}")))
    check_unique(((label, {"column": label}) for _, label in signal_cols),
                 "signal column", SheetError, sheet="test", row=1)

    steps: list[TestStep] = []
    for line, row in body:
        index = parse_step_index(_cell(row, 0).strip(), SheetError,
                                 sheet="test", row=line, column="test step")
        dt = _parse_cell(_cell(row, 1), dialect, "test", line, dt_label)
        assignments: dict[str, str] = {}
        for col, signal in signal_cols:
            cell = _cell(row, col).strip()
            if cell:
                assignments[signal] = _ident(cell, "test", line, signal)
        remark = _cell(row, remark_col).strip() if remark_col is not None else ""
        steps.append(TestStep(index, dt, assignments, remark or None,
                              row=line))
    return TestSequence(name, steps)


def parse_resource_sheet(text: str, dialect: CsvDialect = DEFAULT_DIALECT) -> ResourceTable:
    header, body = _frame(text, dialect, "resources")
    cols = _header_map(header, {"method": "method", "attribut": "attribut",
                                 "min": "min", "max": "max", "unit": "unit"},
                       {"res": "id", "ress": "id", "resource": "id"},
                       "resources")
    if "id" not in cols:
        raise SheetError("missing column 'res'", sheet="resources", row=1,
                         column="res")
    resources: list[ResourceDef] = []
    for line, row in body:
        resources.append(ResourceDef(
            id=_ident(_cell(row, cols["id"]), "resources", line, "res"),
            method=_method(_cell(row, cols["method"])),
            attribut=_cell(row, cols["attribut"]).strip(),
            min=_parse_cell(_cell(row, cols["min"]), dialect, "resources",
                            line, "min"),
            max=_parse_cell(_cell(row, cols["max"]), dialect, "resources",
                            line, "max"),
            unit=_cell(row, cols["unit"]).strip(),
            row=line,
        ))
    return ResourceTable(resources)


def parse_connection_sheet(text: str, dialect: CsvDialect = DEFAULT_DIALECT) -> ConnectionMatrix:
    header, body = _frame(text, dialect, "connections")
    pins = [_ident(header[col], "connections", 1, f"column {col + 1}").lower()
            for col in range(1, len(header))]
    check_unique(((pin, {"column": pin}) for pin in pins), "pin column",
                 SheetError, sheet="connections", row=1)
    matrix_rows: list[tuple[str, int]] = []
    cells: dict[tuple[str, str], Connector] = {}
    for line, row in body:
        rid = _ident(_cell(row, 0), "connections", line, "res")
        matrix_rows.append((rid, line))
        for col, pin in enumerate(pins, start=1):
            cell = _cell(row, col).strip()
            if not cell:
                continue
            try:
                cells[(rid, pin)] = parse_connector(cell)
            except ValueError as exc:
                raise SheetError(str(exc), sheet="connections", row=line,
                                 column=pin) from None
    check_unique(((rid, {"row": line}) for rid, line in matrix_rows),
                 "resource row", SheetError, sheet="connections", column="res")
    return ConnectionMatrix(pins, [rid for rid, _ in matrix_rows], cells)


# --- serializers (round-trip partners of the parsers) ---------------------

def render_number(value: Decimal, dialect: CsvDialect = DEFAULT_DIALECT) -> str:
    return str(value).replace(".", dialect.decimal_separator)


def _scalar_cell(value: Scalar | None, dialect: CsvDialect) -> str:
    if value is None:
        return ""
    if value is INF:
        return "INF"
    if isinstance(value, Decimal):
        return render_number(value, dialect)
    return value


def _write(rows: list[list[str]], dialect: CsvDialect) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=dialect.field_separator,
                        lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def serialize_status_sheet(table: StatusTable,
                           dialect: CsvDialect = DEFAULT_DIALECT) -> str:
    rows = [["status", "method", "attribut", "var (x)", "nom", "min", "max",
             "D 1", "D 2", "D 3", "unit"]]
    for st in table:
        rows.append([st.status, st.method, st.attribut, st.var_x or "",
                     _scalar_cell(st.nom, dialect),
                     _scalar_cell(st.min, dialect),
                     _scalar_cell(st.max, dialect),
                     _scalar_cell(st.d1, dialect),
                     _scalar_cell(st.d2, dialect),
                     _scalar_cell(st.d3, dialect),
                     st.unit or ""])
    return _write(rows, dialect)


def serialize_signal_sheet(table: SignalTable,
                           dialect: CsvDialect = DEFAULT_DIALECT) -> str:
    rows = [["name", "direction", "pins", "initial_status"]]
    for sig in table:
        rows.append([sig.name, sig.direction, PIN_SEPARATOR.join(sig.pins),
                     sig.initial_status])
    return _write(rows, dialect)


def serialize_test_sheet(test: TestSequence,
                         dialect: CsvDialect = DEFAULT_DIALECT) -> str:
    columns: list[str] = []
    for step in test.steps:
        for signal in step.assignments:
            if signal not in columns:
                columns.append(signal)
    rows = [["test step", "Δt", *columns, "remarks"]]
    for step in test.steps:
        cells = [str(step.index), render_number(step.dt, dialect)]
        cells += [step.assignments.get(sig, "") for sig in columns]
        cells.append(step.remark or "")
        rows.append(cells)
    return _write(rows, dialect)


def serialize_resource_sheet(table: ResourceTable,
                             dialect: CsvDialect = DEFAULT_DIALECT) -> str:
    rows = [["res", "method", "attribut", "min", "max", "unit"]]
    for res in table:
        rows.append([res.id, res.method, res.attribut,
                     render_number(res.min, dialect),
                     render_number(res.max, dialect), res.unit])
    return _write(rows, dialect)


def serialize_connection_sheet(matrix: ConnectionMatrix,
                               dialect: CsvDialect = DEFAULT_DIALECT) -> str:
    rows = [["res", *matrix.pins]]
    for rid in matrix.rows:
        cells = [rid]
        for pin in matrix.pins:
            conn = matrix.cells.get((rid, pin))
            cells.append(str(conn) if conn is not None else "")
        rows.append(cells)
    return _write(rows, dialect)

"""Domain types for the three definition sheets and their cross checks.

A component test is authored as three tables: a signal table naming the
DUT's inputs and outputs, a status table defining named stimulus/check
templates, and a test table assigning statuses to signals step by step.
This module holds the parsed value types, the cross-reference validator
and the one implementation of each rule the sheet parsers share with the
script loader: identifier, name, number, scalar (INF, bit literal or
number), step index, step order, step count, dwell, uniqueness and
direction. A rule given an ``error`` type raises
``error(message, **where)``: each reader places it, by row and column or
by line. The types own every rule of a single table, so a parser only
turns cells into values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import DefaultContext, Decimal, InvalidOperation
from typing import Iterable, Iterator, Union

from .errors import SheetError


class _OpenCircuit:
    """Singleton marker for the open-circuit value spelled ``INF`` in sheets.

    Deliberately not a float infinity: it takes part in no arithmetic and
    round-trips through CSV and XML bit-exactly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


INF = _OpenCircuit()

#: A sheet cell value: a number, a bit literal kept as text, or the INF marker.
Scalar = Union[Decimal, str, _OpenCircuit]


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: A plain decimal number, as sheets (after decimal-comma folding), scripts,
#: expressions and environment files spell it: ASCII digits only. No NaN, no
#: infinity, no underscores.
NUMBER_TOKEN = re.compile(
    r"[+-]?([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_number(text: str) -> Decimal:
    """The number rule: ``text`` must be a ``NUMBER_TOKEN``, and its adjusted
    exponent must lie in the default decimal context's [Emin, Emax], so
    that every number read is a normal value of the context that does the
    arithmetic. Returns the Decimal; raises ValueError otherwise.
    """
    if NUMBER_TOKEN.fullmatch(text) is None:
        raise ValueError(f"malformed number {text!r}")
    try:
        value = Decimal(text)
    except InvalidOperation:  # an exponent beyond what Decimal can hold
        value = None
    if value is None or not (DefaultContext.Emin <= value.adjusted()
                             <= DefaultContext.Emax):
        raise ValueError(f"number {text!r} is out of range (exponent "
                         f"outside [{DefaultContext.Emin}, "
                         f"{DefaultContext.Emax}])")
    return value


#: A bit literal such as ``0001B``, kept as text wherever it appears.
_BIT_LITERAL = re.compile(r"[01]+B\Z")


def parse_scalar(text: str) -> Scalar:
    """The scalar rule of a value cell or a script parameter: ``INF`` in any
    case, a bit literal, or a number; raises ValueError otherwise."""
    if text.casefold() == "inf":
        return INF
    if _BIT_LITERAL.match(text):
        return text
    return parse_number(text)


def parse_step_index(text: str, error: type[Exception], **where) -> int:
    """The step-index rule: one or more ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"malformed step index {text!r}", **where)
    return int(text)


def check_step_order(index: int, expected: int, error: type[Exception],
                     **where) -> int:
    """The step-order rule: the step at position ``expected`` (from 0) has
    that index."""
    if index != expected:
        raise error(f"non-consecutive step index {index} (expected "
                    f"{expected})", **where)
    return index


def check_has_steps(steps: list, error: type[Exception], **where):
    """The rule of test sheets and scripts: a test has at least one step."""
    if not steps:
        raise error("a test needs at least one step", **where)


def check_ident(text: str, error: type[Exception], what: str = "identifier",
                **where) -> str:
    """The identifier rule of signal, pin, status and resource names: not
    empty, no whitespace."""
    if text.split() != [text]:
        raise error(f"{what} {text!r} contains whitespace" if text
                    else f"empty {what}", **where)
    return text


#: The name rule in words, for error messages.
NAME_RULE = "letters, digits, underscore; no leading digit"


def is_name(text: str) -> bool:
    """True if ``text`` obeys the name rule (see ``NAME_RULE``).

    Methods and attributes become XML element and attribute names, and
    ``var (x)`` becomes an expression variable and an environment key, so
    all three are held to this rule wherever a table is built.
    """
    return _NAME.match(text) is not None


def check_name(text: str, error: type[Exception], what: str, **where) -> str:
    """The name rule (see ``is_name``), raising ``error(message, **where)``."""
    if not is_name(text):
        raise error(f"{what} {text!r} is not a valid name ({NAME_RULE})",
                    **where)
    return text


def check_names(owner: str, sheet: str, row: int | None,
                **names: str | None) -> None:
    """Raise SheetError for the first of ``names`` that breaks the name rule;
    the keyword is the column. A value of None means the optional field is
    unset and is not checked.
    """
    for column, value in names.items():
        if value is not None:
            check_name(value, SheetError, f"{owner}: {column}", sheet=sheet,
                       row=row, column=column)


def check_unique(keys: Iterable[tuple[str, dict]], what: str,
                 error: type[Exception], *, fold: bool = False,
                 **where) -> None:
    """The uniqueness rule: raise ``error(message, **where, **at)`` at the
    first (key, at) whose key repeats an earlier one; with ``fold`` keys
    compare lowercased, as the script a sheet compiles to spells them."""
    seen: dict[str, str] = {}
    for key, at in keys:
        norm = key.lower() if fold else key
        first = seen.get(norm)
        if first is not None:
            same = "" if first == key else f" (as {first!r}, ignoring case)"
            raise error(f"duplicate {what} {key!r}{same}", **where, **at)
        seen[norm] = key


def check_dwell(dt: Decimal, error: type[Exception] = ValueError,
                **where) -> Decimal:
    """The dwell rule: every dwell (a step's Δt, the settle after init) is
    greater than zero."""
    if dt <= 0:
        raise error(f"dt must be > 0, got '{dt}'", **where)
    return dt


def parse_dwell(text: str, error: type[Exception], **where) -> Decimal:
    """A dwell written as text (a script's ``dt``, ``--settle``): the
    number rule, then the dwell rule."""
    try:
        dt = parse_number(text)
    except ValueError as exc:
        raise error(f"bad dt: {exc}", **where) from None
    return check_dwell(dt, error, **where)


def method_class(method: str) -> str | None:
    """Return ``"put"`` for stimulus methods, ``"get"`` for check methods.

    Classification is by name prefix; anything else returns None and is
    treated as an unknown method (feasibility is decided by the stand).
    """
    if method.startswith("put"):
        return "put"
    if method.startswith("get"):
        return "get"
    return None


#: The direction rule, stated once: a put-class method is a stimulus and
#: drives an input signal; a get-class method is a check and samples an
#: output signal.
_DIRECTION_OF = {"put": "input", "get": "output"}


def check_direction(direction: str, owner: str, error: type[Exception],
                    **where) -> str:
    """A signal's direction is ``input`` or ``output``."""
    if direction not in _DIRECTION_OF.values():
        raise error(f"{owner}: direction must be input or output, got "
                    f"{direction!r}", **where)
    return direction


def fits_direction(cls: str, direction: str) -> bool:
    """True if a put or get method (``cls``) fits a signal of ``direction``;
    a method of unknown class is each caller's policy."""
    return _DIRECTION_OF[cls] == direction


@dataclass
class SignalDef:
    """One row of the signal table: a logical DUT signal and its pins."""

    name: str
    direction: str  # "input" | "output"
    pins: tuple[str, ...]
    initial_status: str
    row: int | None = field(default=None, compare=False)

    def __post_init__(self):
        check_direction(self.direction, f"signal {self.name}", SheetError,
                        sheet="signals", row=self.row, column="direction")
        if not self.pins:
            raise SheetError(f"signal {self.name}: at least one pin required",
                             sheet="signals", row=self.row, column="pins")


@dataclass
class SignalTable:
    """Signal names and pins are unique ignoring case: the compiled script
    spells both in lowercase."""

    signals: list[SignalDef]

    def __post_init__(self):
        check_unique(((sig.name, {"row": sig.row}) for sig in self.signals),
                     "signal name", SheetError, fold=True, sheet="signals",
                     column="name")
        check_unique(((pin, {"row": sig.row}) for sig in self.signals
                      for pin in sig.pins), "pin", SheetError, fold=True,
                     sheet="signals", column="pins")
        self._by_name = {sig.name: sig for sig in self.signals}

    def __iter__(self) -> Iterator[SignalDef]:
        return iter(self.signals)

    def __len__(self):
        return len(self.signals)

    def __contains__(self, name: str):
        return name in self._by_name

    def __getitem__(self, name: str) -> SignalDef:
        return self._by_name[name]

    def inputs(self) -> list[SignalDef]:
        return [s for s in self.signals if s.direction == "input"]


@dataclass
class StatusDef:
    """One row of the status table: a named, parameterized method template.

    ``nom`` holds the value a put-class method applies (a number, a bit
    literal such as ``0001B``, or INF for open circuit). ``min``/``max``
    bound a get-class measurement; with ``var_x`` set they are
    dimensionless multipliers of that variable. ``d1``..``d3`` are
    carried through to the invocation untouched.

    ``method``, ``attribut`` and ``var_x`` (when set) must obey the name
    rule (``is_name``). A get-class status needs ``min`` or ``max``; a
    put-class status needs ``nom`` or one of ``d1``..``d3``, and with
    ``var_x`` set its ``nom`` must be a number. Construction raises
    SheetError (a ValueError) otherwise.
    """

    status: str
    method: str
    attribut: str
    var_x: str | None = None
    nom: Scalar | None = None
    min: Decimal | None = None
    max: Decimal | None = None
    d1: Scalar | None = None
    d2: Scalar | None = None
    d3: Scalar | None = None
    unit: str | None = None
    row: int | None = field(default=None, compare=False)

    def __post_init__(self):
        check_names(f"status {self.status}", "statuses", self.row,
                    method=self.method, attribut=self.attribut,
                    var_x=self.var_x)
        cls = method_class(self.method)
        if cls == "get" and self.min is None and self.max is None:
            self._refuse("get-class status defines neither min nor max", "min")
        if cls == "put":
            if (self.nom is None and self.d1 is None and self.d2 is None
                    and self.d3 is None):
                self._refuse("put-class status defines no value "
                             "(nom or d1..d3 required)", "nom")
            if (self.var_x is not None and self.nom is not None
                    and not isinstance(self.nom, Decimal)):
                self._refuse("var (x) scaling requires a numeric nom", "nom")

    def _refuse(self, message: str, column: str):
        raise SheetError(f"status {self.status}: {message}", sheet="statuses",
                         row=self.row, column=column)


@dataclass
class StatusTable:
    statuses: list[StatusDef]

    def __post_init__(self):
        check_unique(((st.status, {"row": st.row}) for st in self.statuses),
                     "status name", SheetError, sheet="statuses",
                     column="status")
        self._by_name = {st.status: st for st in self.statuses}

    def __iter__(self) -> Iterator[StatusDef]:
        return iter(self.statuses)

    def __len__(self):
        return len(self.statuses)

    def __contains__(self, name: str):
        return name in self._by_name

    def __getitem__(self, name: str) -> StatusDef:
        return self._by_name[name]


@dataclass
class TestStep:
    """One row of the test table.

    ``assignments`` maps signal name to status name and preserves sheet
    column order; a signal absent from the map holds its previous status
    (inputs) or is simply not checked this step (outputs).
    """

    index: int
    dt: Decimal
    assignments: dict[str, str]
    remark: str | None = None
    row: int | None = field(default=None, compare=False)

    def __post_init__(self):
        check_dwell(self.dt, SheetError, sheet="test", row=self.row,
                    column="Δt")


@dataclass
class TestSequence:
    name: str
    steps: list[TestStep]

    def __post_init__(self):
        check_has_steps(self.steps, SheetError, sheet="test")
        for expected, step in enumerate(self.steps):
            check_step_order(step.index, expected, SheetError, sheet="test",
                             row=step.row, column="test step")


@dataclass(frozen=True)
class Violation:
    sheet: str
    row: int | None
    column: str | None
    message: str

    def __str__(self):
        row = "?" if self.row is None else str(self.row)
        col = "?" if self.column is None else self.column
        return f"{self.sheet}:{row}:{col}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "\n".join(str(v) for v in self.violations)


def _class_violation(sheet: str, row: int | None, column: str | None,
                     status: StatusDef, signal: SignalDef) -> Violation | None:
    cls = method_class(status.method)
    if cls is None:
        return Violation(sheet, row, column,
                         f"status '{status.status}' uses method "
                         f"'{status.method}' of unknown class")
    if not fits_direction(cls, signal.direction):
        return Violation(sheet, row, column,
                         f"direction/method mismatch: {cls}-class status "
                         f"'{status.status}' ({status.method}) assigned to "
                         f"{signal.direction} signal '{signal.name}'")
    return None


def validate_sheets(signals: SignalTable, statuses: StatusTable,
                    test: TestSequence) -> ValidationReport:
    """Cross-check the three sheets against each other.

    The report is empty exactly when every referenced status exists, every
    assigned signal exists, initial statuses resolve, and each status's
    method class matches the direction of the signal it is applied to.
    Violations are data, not exceptions.
    """
    out: list[Violation] = []
    for sig in signals:
        if sig.initial_status not in statuses:
            out.append(Violation("signals", sig.row, "initial_status",
                                 f"unknown status '{sig.initial_status}'"))
            continue
        v = _class_violation("signals", sig.row, "initial_status",
                             statuses[sig.initial_status], sig)
        if v:
            out.append(v)
    for step in test.steps:
        for sig_name, status_name in step.assignments.items():
            if sig_name not in signals:
                out.append(Violation("test", step.row, sig_name,
                                     f"unknown signal '{sig_name}'"))
                continue
            if status_name not in statuses:
                out.append(Violation("test", step.row, sig_name,
                                     f"unknown status '{status_name}'"))
                continue
            v = _class_violation("test", step.row, sig_name,
                                 statuses[status_name], signals[sig_name])
            if v:
                out.append(v)
    return ValidationReport(out)

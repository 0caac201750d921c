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
from decimal import DefaultContext, Decimal, InvalidOperation
from enum import Enum
from itertools import chain
from typing import Iterable, Union

from .errors import SheetError


class _OpenCircuit(Enum):
    """The open-circuit value spelled ``INF`` in sheets, one object however
    it is copied or pickled.

    Deliberately not a float infinity: it takes part in no arithmetic and
    round-trips through CSV and XML bit-exactly.
    """

    INF = "INF"

    def __repr__(self):
        return "INF"

    __str__ = __repr__


INF = _OpenCircuit.INF

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


#: The most digits of a step index or connector number: ``int`` converts
#: that many under any limit an interpreter sets (CPython's least is 640).
MAX_DIGITS = 640


def parse_step_index(text: str, error: type[Exception], **where) -> int:
    """The step-index rule: one to ``MAX_DIGITS`` ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise error(f"malformed step index {text!r}", **where)
    if len(text) > MAX_DIGITS:
        raise error(f"step index of {len(text)} digits (at most "
                    f"{MAX_DIGITS})", **where)
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


#: The characters XML 1.0 cannot hold: controls other than tab, LF and CR,
#: surrogates, U+FFFE and U+FFFF.
NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def check_ident(text: str, error: type[Exception], what: str = "identifier",
                **where) -> str:
    """The identifier rule of signal, pin, status and resource names: not
    empty, no whitespace, no character an XML script cannot hold."""
    if text.split() != [text]:
        raise error(f"{what} {text!r} contains whitespace" if text
                    else f"empty {what}", **where)
    bad = NOT_XML.search(text)
    if bad:
        raise error(f"{what} {text!r} holds U+{ord(bad.group()):04X}, which "
                    f"an XML script cannot hold", **where)
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


class _Fields:
    """Equality by value for comptest's classes with slots (built without
    generated code, so that importing comptest stays cheap): two are equal
    when they are of one class and equal in each field ``_compared``
    names. What a type derives, and a row number, take no part. Mutable,
    so not hashable."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Fields):
    """A read-only ``_Fields`` type, hashed by its compared fields. Its
    ``__init__`` sets each field with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __hash__(self):
        return hash(self._key())


class _Keyed(_Fields):
    """The lookup of a keyed table: its rows in order, and each by key.
    A table sets ``_by_key`` once its rows have passed the uniqueness
    rule."""

    __slots__ = ("_by_key",)

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self):
        return len(self._by_key)

    def __contains__(self, key: str):
        return key in self._by_key

    def __getitem__(self, key: str):
        return self._by_key[key]


class SignalDef(_Fields):
    """One row of the signal table: a logical DUT signal and its pins."""

    _compared = ("name", "direction", "pins", "initial_status")
    __slots__ = (*_compared, "row")

    def __init__(self, name: str, direction: str, pins: tuple[str, ...],
                 initial_status: str, row: int | None = None):
        self.name = name
        self.direction = direction  # "input" | "output"
        self.pins = pins
        self.initial_status = initial_status
        self.row = row
        check_direction(direction, f"signal {name}", SheetError,
                        sheet="signals", row=row, column="direction")
        if not pins:
            raise SheetError(f"signal {name}: at least one pin required",
                             sheet="signals", row=row, column="pins")


class SignalTable(_Keyed):
    """Signal names and pins are unique ignoring case: the compiled script
    spells both in lowercase."""

    __slots__ = _compared = ("signals",)

    def __init__(self, signals: list[SignalDef]):
        self.signals = signals
        check_unique(((sig.name, {"row": sig.row}) for sig in signals),
                     "signal name", SheetError, fold=True, sheet="signals",
                     column="name")
        check_unique(((pin, {"row": sig.row}) for sig in signals
                      for pin in sig.pins), "pin", SheetError, fold=True,
                     sheet="signals", column="pins")
        self._by_key = {sig.name: sig for sig in signals}

    def inputs(self) -> list[SignalDef]:
        return [s for s in self.signals if s.direction == "input"]


class StatusDef(_Fields):
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

    _compared = ("status", "method", "attribut", "var_x", "nom", "min",
                 "max", "d1", "d2", "d3", "unit")
    __slots__ = (*_compared, "row")

    def __init__(self, status: str, method: str, attribut: str,
                 var_x: str | None = None, nom: Scalar | None = None,
                 min: Decimal | None = None, max: Decimal | None = None,
                 d1: Scalar | None = None, d2: Scalar | None = None,
                 d3: Scalar | None = None, unit: str | None = None,
                 row: int | None = None):
        self.status, self.method, self.attribut = status, method, attribut
        self.var_x, self.nom, self.min, self.max = var_x, nom, min, max
        self.d1, self.d2, self.d3 = d1, d2, d3
        self.unit, self.row = unit, row
        check_names(f"status {status}", "statuses", row, method=method,
                    attribut=attribut, var_x=var_x)
        cls = method_class(method)
        if cls == "get" and min is None and max is None:
            self._refuse("get-class status defines neither min nor max", "min")
        if cls == "put":
            if nom is None and d1 is None and d2 is None and d3 is None:
                self._refuse("put-class status defines no value "
                             "(nom or d1..d3 required)", "nom")
            if (var_x is not None and nom is not None
                    and not isinstance(nom, Decimal)):
                self._refuse("var (x) scaling requires a numeric nom", "nom")

    def _refuse(self, message: str, column: str):
        raise SheetError(f"status {self.status}: {message}", sheet="statuses",
                         row=self.row, column=column)


class StatusTable(_Keyed):
    __slots__ = _compared = ("statuses",)

    def __init__(self, statuses: list[StatusDef]):
        self.statuses = statuses
        check_unique(((st.status, {"row": st.row}) for st in statuses),
                     "status name", SheetError, sheet="statuses",
                     column="status")
        self._by_key = {st.status: st for st in statuses}


class TestStep(_Fields):
    """One row of the test table.

    ``assignments`` maps signal name to status name and preserves sheet
    column order; a signal absent from the map holds its previous status
    (inputs) or is simply not checked this step (outputs).
    """

    _compared = ("index", "dt", "assignments", "remark")
    __slots__ = (*_compared, "row")

    def __init__(self, index: int, dt: Decimal, assignments: dict[str, str],
                 remark: str | None = None, row: int | None = None):
        self.index, self.dt, self.assignments = index, dt, assignments
        self.remark, self.row = remark, row
        check_dwell(dt, SheetError, sheet="test", row=row, column="Δt")


class TestSequence(_Fields):
    __slots__ = _compared = ("name", "steps")

    def __init__(self, name: str, steps: list[TestStep]):
        self.name, self.steps = name, steps
        check_has_steps(steps, SheetError, sheet="test")
        for expected, step in enumerate(steps):
            check_step_order(step.index, expected, SheetError, sheet="test",
                             row=step.row, column="test step")


def _class_fault(status: StatusDef, signal: SignalDef) -> str | None:
    cls = method_class(status.method)
    if cls is None:
        return (f"status '{status.status}' uses method '{status.method}' of "
                f"unknown class")
    if not fits_direction(cls, signal.direction):
        return (f"direction/method mismatch: {cls}-class status "
                f"'{status.status}' ({status.method}) assigned to "
                f"{signal.direction} signal '{signal.name}'")
    return None


def validate_sheets(signals: SignalTable, statuses: StatusTable,
                    test: TestSequence) -> list[SheetError]:
    """Cross-check the three sheets against each other.

    The list is empty exactly when every referenced status exists, every
    assigned signal exists, initial statuses resolve, and each status's
    method class matches the direction of the signal it is applied to.
    Violations are data: SheetErrors placed at their sheet, row and
    column, returned in sheet order, not raised. Each (status, direction)
    pair is class-checked once; only a pair that passed is remembered, so
    every fault is reported at each of its uses.
    """
    # (sheet, row, column, signal, status) per use, streamed, not listed
    uses = chain((("signals", sig.row, "initial_status", sig.name,
                   sig.initial_status) for sig in signals),
                 (("test", step.row, sig_name, sig_name, status_name)
                  for step in test.steps
                  for sig_name, status_name in step.assignments.items()))
    out: list[SheetError] = []
    fits: set[tuple[str, str]] = set()  # (status, direction) pairs that passed
    for sheet, row, column, sig_name, status_name in uses:
        if sig_name not in signals:
            message = f"unknown signal '{sig_name}'"
        elif status_name not in statuses:
            message = f"unknown status '{status_name}'"
        else:
            signal = signals[sig_name]
            pair = (status_name, signal.direction)
            if pair in fits:
                continue
            message = _class_fault(statuses[status_name], signal)
            if message is None:
                fits.add(pair)
                continue
        out.append(SheetError(message, sheet=sheet, row=row, column=column))
    return out

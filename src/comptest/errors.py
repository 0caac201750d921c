"""Shared exception types for the toolchain."""

from __future__ import annotations


class ComptestError(Exception):
    """Base class for every error raised by this package."""


class SheetError(ComptestError, ValueError):
    """A sheet cell or table breaks a sheet rule.

    Carries the sheet kind plus 1-based row and column coordinates so that
    authoring mistakes can be pointed at directly in the source table. The
    table types raise it too, with the row they were built from (None when
    built in code); it is a ValueError for their callers. Cross-sheet
    validation (``sheets.validate_sheets``) returns its faults as
    SheetErrors without raising them.
    """

    def __init__(self, message: str, *, sheet: str | None = None,
                 row: int | None = None, column: str | None = None):
        self.sheet = sheet
        self.row = row
        self.column = column
        where = []
        if sheet is not None:
            where.append(sheet)
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ValidationFailed(ComptestError):
    """Cross-reference validation found violations (compile refuses to run).

    ``violations`` holds them as SheetErrors, in sheet order.
    """

    def __init__(self, violations: list[SheetError]):
        self.violations = violations
        super().__init__(f"{len(violations)} sheet violation(s):\n"
                         + "\n".join(map(str, violations)))


class ExprError(ComptestError):
    """An expression string could not be parsed; ``offset`` is 0-based."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"offset {offset}: {message}")


class EvalError(ComptestError):
    """An expression could not be evaluated (unbound variable, divide by zero)."""


class ScriptError(ComptestError):
    """An XML test script is malformed or violates the script schema."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class AllocationError(ComptestError):
    """No conflict-free resource assignment exists for a step's requirements.

    ``candidates`` lists every resource considered for the first
    unsatisfiable requirement together with the reason it was rejected.
    """

    def __init__(self, *, pin: str, method: str, parameter: str | None,
                 candidates: list[tuple[str, str]]):
        self.pin = pin
        self.method = method
        self.parameter = parameter
        self.candidates = candidates
        detail = "; ".join(f"{rid}: {reason}" for rid, reason in candidates)
        param = f", parameter {parameter}" if parameter else ""
        super().__init__(
            f"no resource satisfies (pin {pin}, method {method}{param}); "
            f"rejected candidates: {detail if detail else 'none available'}")


class DutError(ComptestError):
    """The device-under-test model rejected an input or read request."""

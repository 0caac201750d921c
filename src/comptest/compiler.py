"""Lower validated sheets into method invocations and emit the XML script.

The emitted script is the portable interchange artifact: sparse like the
authored sheets (the interpreter owns hold semantics), symbolic in the
stand environment (bounds reference ``ubatt`` instead of baking a voltage
in), and byte-deterministic so golden-file comparisons are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Union

from .errors import ValidationFailed
from .expr import BinOp, Expr, Num, Paren, Var, render_expr
from .sheets import (INF, SignalTable, StatusDef, StatusTable, TestSequence,
                     _OpenCircuit, check_dwell, method_class, validate_sheets)

#: A method parameter: a number, a text literal (bit pattern), a symbolic
#: expression, or the open-circuit marker.
ParamValue = Union[Decimal, str, Expr, _OpenCircuit]

FORMAT_VERSION = "1"


@dataclass
class MethodInvocation:
    """A method statement: name plus ordered parameters.

    Parameter order is meaningful only for emission (attribute order in the
    XML); the first parameter is the method's principal attribute by the
    lowering convention, which is what open-circuit detection keys on.
    """

    method: str
    params: dict[str, ParamValue]

    def principal_value(self) -> ParamValue | None:
        return next(iter(self.params.values()), None)

    def is_open_circuit(self) -> bool:
        return self.principal_value() is INF


@dataclass
class Statement:
    signal: str
    invocation: MethodInvocation


@dataclass
class ScriptSignal:
    """Signal manifest entry; names and pins are lowercase in scripts."""

    name: str
    direction: str
    pins: tuple[str, ...]


@dataclass
class InitBlock:
    dt: Decimal
    statements: list[Statement]


@dataclass
class ScriptStep:
    index: int
    dt: Decimal
    statements: list[Statement]


@dataclass
class TestScript:
    """A test script. Its two producers guarantee the script rules before
    they build one: ``load_script`` with line numbers, ``compile`` through
    the validated sheets."""

    name: str
    dut: str
    signals: list[ScriptSignal]
    init: InitBlock
    steps: list[ScriptStep]


def _scaled(bound: Decimal, var: str) -> Expr:
    return Paren(BinOp("*", Num(bound), Var(var.lower())))


def lower_status(status: StatusDef) -> MethodInvocation:
    """Turn one status row into a method invocation.

    Get-class statuses become bounded measurements, symbolic when ``var_x``
    is set; put-class statuses carry their nominal value plus any d1..d3
    pass-through. ``StatusDef`` has checked the row, and ``compile`` lowers
    only statuses whose class fits the signal they are applied to.
    """
    params: dict[str, ParamValue] = {}
    if method_class(status.method) == "get":
        attr = status.attribut
        if status.max is not None:
            params[f"{attr}_max"] = (_scaled(status.max, status.var_x)
                                     if status.var_x else status.max)
        if status.min is not None:
            params[f"{attr}_min"] = (_scaled(status.min, status.var_x)
                                     if status.var_x else status.min)
    else:
        if status.nom is not None:
            params[status.attribut] = (_scaled(status.nom, status.var_x)
                                       if status.var_x else status.nom)
        for name in ("d1", "d2", "d3"):
            value = getattr(status, name)
            if value is not None:
                params[name] = value
    return MethodInvocation(status.method, params)


def compile(signals: SignalTable, statuses: StatusTable, test: TestSequence,
            *, dut: str = "dut", settle: Decimal = Decimal("0.1")) -> TestScript:
    """Bind the three sheets into a portable test script.

    Init applies every input signal's initial status in signal-table row
    order with a single settling dwell. Steps stay as sparse as the test
    sheet: hold semantics are the interpreter's job, so re-stating unchanged
    stimuli would add bytes but no information.
    """
    report = validate_sheets(signals, statuses, test)
    if not report.ok:
        raise ValidationFailed(report)
    check_dwell(settle)

    manifest = [ScriptSignal(s.name.lower(), s.direction,
                             tuple(p.lower() for p in s.pins))
                for s in signals]
    init = InitBlock(settle, [
        Statement(s.name.lower(), lower_status(statuses[s.initial_status]))
        for s in signals.inputs()
    ])
    steps = []
    for step in test.steps:
        statements = []
        for sig_name, status_name in step.assignments.items():
            statements.append(Statement(sig_name.lower(),
                                        lower_status(statuses[status_name])))
        steps.append(ScriptStep(step.index, step.dt, statements))
    return TestScript(test.name, dut, manifest, init, steps)


def render_value(value: ParamValue) -> str:
    """Canonical text for a parameter value as it appears in the XML."""
    if value is INF:
        return "INF"
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, str):
        return value
    return render_expr(value)


#: The characters XML 1.0 cannot hold: controls other than tab, LF and CR,
#: surrogates, U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
#: What ``_attr`` escapes or refuses; most values hold none of it.
_SPECIAL = re.compile('[&<>"\x00-\x1f\ud800-\udfff\ufffe\uffff]')


def _attr(value: str) -> str:
    """``value`` as a double-quoted attribute value that a parser reads
    back unchanged: tab, LF and CR are written as character references, as
    a parser turns them into spaces. Raises ValueError for a character
    XML 1.0 cannot hold."""
    if _SPECIAL.search(value) is None:
        return value
    bad = _NOT_XML.search(value)
    if bad:
        raise ValueError(f"{value!r}: U+{ord(bad.group()):04X} cannot be "
                         f"written to an XML script")
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\t", "&#9;").replace("\n", "&#10;")
            .replace("\r", "&#13;"))


def _statement_lines(st: Statement, pad: str) -> list[str]:
    attrs = " ".join(f'{name}="{_attr(render_value(value))}"'
                     for name, value in st.invocation.params.items())
    body = f"<{st.invocation.method} {attrs} />" if attrs else f"<{st.invocation.method} />"
    return [f'{pad}<signal name="{_attr(st.signal)}">',
            f"{pad}  {body}",
            f"{pad}</signal>"]


def emit_xml(script: TestScript) -> str:
    """Serialize a script to its canonical XML form.

    2-space indentation, fixed attribute order (insertion order of the
    invocation parameters, max before min for measurements), lowercase
    signal names: emitting the same script twice yields identical bytes.
    """
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f'<test name="{_attr(script.name)}" dut="{_attr(script.dut)}" '
               f'format="{FORMAT_VERSION}">')
    out.append("  <signals>")
    for sig in script.signals:
        pins = "|".join(sig.pins)
        out.append(f'    <signal name="{_attr(sig.name)}" '
                   f'direction="{_attr(sig.direction)}" pins="{_attr(pins)}" />')
    out.append("  </signals>")
    if script.init.statements:
        out.append(f'  <init dt="{script.init.dt}">')
        for st in script.init.statements:
            out.extend(_statement_lines(st, "    "))
        out.append("  </init>")
    else:
        out.append(f'  <init dt="{script.init.dt}" />')
    for step in script.steps:
        if step.statements:
            out.append(f'  <step n="{step.index}" dt="{step.dt}">')
            for st in step.statements:
                out.extend(_statement_lines(st, "    "))
            out.append("  </step>")
        else:
            out.append(f'  <step n="{step.index}" dt="{step.dt}" />')
    out.append("</test>")
    return "\n".join(out) + "\n"

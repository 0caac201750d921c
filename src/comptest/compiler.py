"""Lower validated sheets into method invocations and emit the XML script.

The emitted script is the portable interchange artifact: sparse like the
authored sheets (the interpreter owns hold semantics), symbolic in the
stand environment (bounds reference ``ubatt`` instead of baking a voltage
in), and byte-deterministic so golden-file comparisons are exact.
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import NamedTuple, Union

from .errors import ValidationFailed
from .expr import BinOp, Expr, Num, Paren, Var, render_expr
from .sheets import (INF, NOT_XML, SignalTable, StatusDef, StatusTable,
                     TestSequence, _Fields, _OpenCircuit, check_dwell,
                     method_class, validate_sheets)

#: A method parameter: a number, a text literal (bit pattern), a symbolic
#: expression, or the open-circuit marker.
ParamValue = Union[Decimal, str, Expr, _OpenCircuit]

FORMAT_VERSION = "1"


class MethodInvocation(NamedTuple):
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

    def bounds(self) -> tuple[ParamValue | None, ParamValue | None]:
        """A check's bounds: its first ``*_min`` and its first ``*_max``
        parameter that is neither text nor INF (None where it has none).
        Before evaluation a bound is a number or an expression, after it a
        number. A check needs at least one."""
        low = high = None
        for name, value in self.params.items():
            if isinstance(value, str) or value is INF:
                continue
            if low is None and name.endswith("_min"):
                low = value
            elif high is None and name.endswith("_max"):
                high = value
        return low, high


class Statement(_Fields):
    """A signal and the method applied to it. A class with slots, not a
    tuple: compile and load build one per statement, and a tuple type is
    slower to build."""

    __slots__ = _compared = ("signal", "invocation")

    def __init__(self, signal: str, invocation: MethodInvocation):
        self.signal, self.invocation = signal, invocation


class ScriptSignal(NamedTuple):
    """Signal manifest entry; names and pins are lowercase in scripts."""

    name: str
    direction: str
    pins: tuple[str, ...]


class Block(NamedTuple):
    """``<init>`` (index -1, its dwell the settle) or one ``<step>``."""

    index: int
    dt: Decimal
    statements: list[Statement]


class TestScript(NamedTuple):
    """A test script. Its two producers guarantee the script rules before
    they build one: ``load_script`` with line numbers, ``compile`` through
    the validated sheets."""

    name: str
    dut: str
    signals: list[ScriptSignal]
    init: Block
    steps: list[Block]


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
    stimuli would add bytes but no information. Each status is lowered
    once: the statements that apply it share one invocation, as the
    loader gives equal method elements one. Each signal name is lowercased
    once, and the cells that apply one status to one signal share one
    statement.
    """
    violations = validate_sheets(signals, statuses, test)
    if violations:
        raise ValidationFailed(violations)
    check_dwell(settle)

    manifest = [ScriptSignal(s.name.lower(), s.direction,
                             tuple(p.lower() for p in s.pins))
                for s in signals]
    lowered: dict[str, MethodInvocation] = {}  # by status name
    names = {s.name: sig.name for s, sig in zip(signals, manifest)}
    # By sheet signal name, then status name. Nested dicts, not
    # (signal, status) keys: no key tuple is left on a free list.
    shared: dict[str, dict[str, Statement]] = {name: {} for name in names}

    def statement(signal: str, status: str) -> Statement:
        by_status = shared[signal]
        st = by_status.get(status)
        if st is None:
            inv = lowered.get(status)
            if inv is None:
                inv = lowered[status] = lower_status(statuses[status])
            st = by_status[status] = Statement(names[signal], inv)
        return st

    init = Block(-1, settle, [statement(s.name, s.initial_status)
                              for s in signals.inputs()])
    steps = [Block(step.index, step.dt,
                   [statement(*pair) for pair in step.assignments.items()])
             for step in test.steps]
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


#: What ``_attr`` escapes or refuses; most values hold none of it.
_SPECIAL = re.compile('[&<>"\x00-\x1f\ud800-\udfff\ufffe\uffff]')


def _attr(value: str) -> str:
    """``value`` as a double-quoted attribute value that a parser reads
    back unchanged: tab, LF and CR are written as character references, as
    a parser turns them into spaces. Raises ValueError for a character
    XML 1.0 cannot hold."""
    if _SPECIAL.search(value) is None:
        return value
    bad = NOT_XML.search(value)
    if bad:
        raise ValueError(f"{value!r}: U+{ord(bad.group()):04X} cannot be "
                         f"written to an XML script")
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;")
            .replace("\t", "&#9;").replace("\n", "&#10;")
            .replace("\r", "&#13;"))


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
    elements: dict[int, str] = {}  # one method element per invocation
    openings: dict[str, str] = {}  # one opening line per signal
    for block in (script.init, *script.steps):
        # The closing tags are constants, shared by every block's line.
        if block.index < 0:
            head, end = f'  <init dt="{block.dt}"', "  </init>"
        else:
            head = f'  <step n="{block.index}" dt="{block.dt}"'
            end = "  </step>"
        if block.statements:
            out.append(head + ">")
            for st in block.statements:
                inv = st.invocation
                element = elements.get(id(inv))
                if element is None:
                    attrs = "".join(f' {name}="{_attr(render_value(value))}"'
                                    for name, value in inv.params.items())
                    element = elements[id(inv)] = f"      <{inv.method}{attrs} />"
                opening = openings.get(st.signal)
                if opening is None:
                    opening = openings[st.signal] = (
                        f'    <signal name="{_attr(st.signal)}">')
                out += (opening, element, "    </signal>")
            out.append(end)
        else:
            out.append(head + " />")
    out += ("</test>", "")  # the empty line gives the final newline
    return "\n".join(out)

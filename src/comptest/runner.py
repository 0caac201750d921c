"""Discrete-time execution of a test script on a virtual stand.

The script is as sparse as the sheets; this module owns hold semantics.
Each block (``<init>``, then every step) allocates resources for the
stimuli in force plus the block's one-shots and checks, applies whatever
stimuli changed, advances the DUT by the dwell and samples every check pin
at the end of it. Check failures are recorded and execution continues;
allocation failures, unbound environment variables, a dwell sum beyond the
decimal range and any exception raised by the DUT model abort the run. The
clock is virtual and exact (decimal arithmetic), so a 300 s test finishes
in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, Overflow
from json.encoder import encode_basestring_ascii as _str
from typing import Mapping

from .compiler import MethodInvocation, TestScript, render_value
from .dut import DutModel, dut_fault
from .errors import AllocationError, EvalError
from .expr import Num, Var, BinOp, Paren, eval_expr
from .sheets import method_class
from .stand import BUS_METHODS, Binding, Requirement, StandModel, allocate


@dataclass(frozen=True)
class StimulusRecord:
    """One stimulus of one block, as reported. Records are read-only: a
    stimulus in force shares its records from its second unchanged block
    on."""

    signal: str
    pin: str
    method: str
    params: dict[str, str]
    delivery: str  # "resource" | "open_circuit" | "bus"
    resource: str | None
    connector: str | None
    held: bool
    changed: bool


@dataclass
class CheckRecord:
    signal: str
    pin: str
    method: str
    low: Decimal | None
    high: Decimal | None
    measured: Decimal
    passed: bool


@dataclass
class StepRecord:
    index: int  # -1 is the init/settle block
    dt: Decimal
    t_end: Decimal
    stimuli: list[StimulusRecord] = field(default_factory=list)
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class RunReport:
    name: str
    dut: str
    overall: bool
    aborted: bool
    abort_step: int | None
    abort_kind: str | None  # "allocation" | "environment"
    abort_message: str | None
    settle: StepRecord | None
    steps: list[StepRecord]
    steps_total: int

    @property
    def steps_passed(self) -> int:
        return sum(1 for s in self.steps if s.passed)

    @property
    def checks_total(self) -> int:
        return sum(len(s.checks) for s in self.steps)

    @property
    def checks_failed(self) -> int:
        return sum(1 for s in self.steps for c in s.checks if not c.passed)

    @property
    def step_time(self) -> Decimal:
        return sum((s.dt for s in self.steps), Decimal("0"))

    @property
    def total_time(self) -> Decimal:
        settle = self.settle.dt if self.settle else Decimal("0")
        return settle + self.step_time


def _evaluate(inv: MethodInvocation, env: Mapping[str, Decimal],
              values: dict[int, Decimal]) -> MethodInvocation:
    """``inv`` with its expressions evaluated under ``env``. ``values``
    caches each node's value by identity, not by equality: ``Num(1)``
    equals ``Num(1.0)`` but renders differently. The script keeps every
    node alive while it runs, so no identity is reused. A node that fails
    is not cached and fails again wherever it is used."""
    params = {}
    for name, value in inv.params.items():
        if isinstance(value, (Num, Var, BinOp, Paren)):
            key = id(value)
            if key not in values:
                values[key] = eval_expr(value, env)
            params[name] = values[key]
        else:
            params[name] = value
    return MethodInvocation(inv.method, params)


def _bounds(inv: MethodInvocation) -> tuple[Decimal | None, Decimal | None]:
    low = high = None
    for name, value in inv.params.items():
        if name.endswith("_min") and isinstance(value, Decimal) and low is None:
            low = value
        elif name.endswith("_max") and isinstance(value, Decimal) and high is None:
            high = value
    return low, high


def _aux(inv: MethodInvocation) -> dict:
    first = next(iter(inv.params), None)
    return {k: v for k, v in inv.params.items() if k != first}


def _rendered(inv: MethodInvocation) -> dict[str, str]:
    return {k: render_value(v) for k, v in inv.params.items()}


def _record(b: Binding, params: dict[str, str],
            changed: bool) -> StimulusRecord:
    req = b.requirement
    connector = str(b.connector) if b.connector else None
    # Positional: a frozen dataclass sets each field by a call, and
    # keywords make that slower still.
    return StimulusRecord(req.signal, req.pin, req.invocation.method, params,
                          b.delivery, b.resource_id, connector, b.held,
                          changed)


@dataclass
class _InForce:
    """A stimulus in force, built when its put appears: the invocation as
    applied, its rendered params and its requirements (one per target),
    kept while it is unchanged, even when restated with other digits.
    ``records`` are those of its first unchanged block, shared by every
    later one: ``allocate`` pins a binding handed its own requirement back
    or aborts, and no other delivery changes while the stimulus does not."""

    invocation: MethodInvocation
    params: dict[str, str]
    requirements: list[Requirement]
    records: list[StimulusRecord] | None = None


def execute(script: TestScript, stand: StandModel, env: Mapping[str, Decimal],
            dut: DutModel) -> RunReport:
    """Run ``script`` against ``dut`` on ``stand`` under ``env``.

    This is where hold semantics live. ``<init>`` and every step go through
    one block body: a put replaces the stimulus in force for its signal and
    is evaluated once, when it appears; a get is sampled at the end of its
    own block's dwell; any other method is a one-shot, allocated for its
    block only and never evaluated, applied, held or sampled. Only this
    function decides what is unchanged: a stimulus in force passes the same
    requirements to every block, so ``allocate`` pins its binding, and
    shares its records from its second unchanged block on (see _InForce).

    The report is complete and deterministic: byte-identical for identical
    inputs. The run aborts on allocation errors, unbound environment
    variables, a clock overflow (checked before the block drives ``dut``)
    and exceptions raised by ``dut``; failed checks only mark their step as
    failed.
    """
    env = {k: Decimal(v) for k, v in env.items()}
    pins = {sig.name: sig.pins for sig in script.signals}
    records: list[StepRecord] = []  # the init block's, then one per step
    clock = Decimal("0")
    values: dict[int, Decimal] = {}  # see _evaluate
    in_force: dict[str, _InForce] = {}
    held: dict[str, Binding] = {}

    def targets(signal: str, inv: MethodInvocation) -> tuple[str, ...]:
        # A bus method reaches the DUT by signal name, all else by pin.
        return (signal,) if inv.method in BUS_METHODS else pins[signal]

    def report(step: int | None = None, kind: str | None = None,
               message: str | None = None) -> RunReport:
        steps = records[1:]
        aborted = kind is not None
        return RunReport(script.name, script.dut,
                         overall=not aborted and all(s.passed for s in steps),
                         aborted=aborted, abort_step=step, abort_kind=kind,
                         abort_message=message,
                         settle=records[0] if records else None,
                         steps=steps, steps_total=len(script.steps))

    blocks = [(-1, script.init.dt, script.init.statements)]
    blocks += [(step.index, step.dt, step.statements) for step in script.steps]
    for index, dt, statements in blocks:
        where = None if index < 0 else index
        puts: dict[str, MethodInvocation] = {}  # the last put per signal
        one_shots: list[tuple[str, MethodInvocation]] = []
        checks: list[tuple[str, MethodInvocation]] = []
        for st in statements:
            cls = method_class(st.invocation.method)
            if cls == "put":
                puts[st.signal] = st.invocation
            elif cls == "get":
                checks.append((st.signal, st.invocation))
            else:
                one_shots.append((st.signal, st.invocation))
        try:
            puts = {sig: _evaluate(inv, env, values)
                    for sig, inv in puts.items()}
            checks = [(sig, _evaluate(inv, env, values))
                      for sig, inv in checks]
        except EvalError as exc:
            return report(where, "environment", str(exc))
        changed: dict[str, _InForce] = {}
        for sig, inv in puts.items():
            rendered = _rendered(inv)
            entry = in_force.get(sig)
            if entry is None or entry.invocation != inv:
                in_force[sig] = changed[sig] = _InForce(inv, rendered, [
                    Requirement(target, inv, sig)
                    for target in targets(sig, inv)])
            elif entry.params != rendered:  # restated with other digits
                entry.params, entry.records = rendered, None

        reqs = [req for entry in in_force.values()
                for req in entry.requirements]
        n_in_force = len(reqs)  # the one-shots' requirements follow
        reqs += [Requirement(target, inv, sig)
                 for sig, inv in one_shots for target in targets(sig, inv)]
        n_stimuli = len(reqs)  # the checks' requirements follow
        reqs += [Requirement(target, inv, sig)
                 for sig, inv in checks for target in targets(sig, inv)]
        try:
            alloc = allocate(reqs, stand, held)
        except AllocationError as exc:
            return report(where, "allocation", str(exc))
        held = {b.requirement.pin: b for b in alloc.bindings[:n_in_force]
                if b.delivery == "resource"}
        try:
            t_end = clock + dt
        except Overflow:
            return report(where, "environment",
                          f"clock overflow: dwell sum {clock} + {dt} s is "
                          f"out of range")

        check_records: list[CheckRecord] = []
        try:
            for entry in changed.values():
                inv = entry.invocation
                for req in entry.requirements:
                    dut.set_input(req.pin, inv.principal_value(), _aux(inv))
            dut.advance(dt)
            for signal, inv in checks:
                low, high = _bounds(inv)
                for pin in pins[signal]:
                    measured = dut.read_pin(pin)
                    ok = ((low is None or low <= measured)
                          and (high is None or measured <= high))
                    check_records.append(CheckRecord(signal, pin, inv.method,
                                                     low, high, measured, ok))
        except Exception as exc:  # a faulty DUT plugin, see dut_fault
            return report(where, "environment", dut_fault(exc))
        clock = t_end
        stimuli: list[StimulusRecord] = []
        at = 0  # bindings come in the order of reqs
        for sig, entry in in_force.items():
            n = len(entry.requirements)
            block_records = entry.records
            if block_records is None:
                new = sig in changed
                block_records = [_record(b, entry.params, new)
                                 for b in alloc.bindings[at:at + n]]
                if not new:
                    entry.records = block_records
            stimuli += block_records
            at += n
        stimuli += [_record(b, _rendered(b.requirement.invocation), False)
                    for b in alloc.bindings[at:n_stimuli]]
        records.append(StepRecord(index, dt, clock, stimuli, check_records))
    return report()


# --- report rendering ------------------------------------------------------
#
# The JSON layout is a contract: what ``json.dumps(doc, indent=2)`` writes,
# with ASCII-escaped strings and a trailing newline. It is written straight
# from the records, one template per record; ``pad`` is the newline and
# indent of the line on which a value starts.

def _null_or_str(value) -> str:
    return "null" if value is None else _str(str(value))


def _array(items: list[str], pad: str, brackets: str = "[]") -> str:
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _stimulus_json(r: StimulusRecord, pad: str) -> str:
    q = pad + "  "
    params = [f"{_str(k)}: {_str(v)}" for k, v in r.params.items()]
    return (f'{{{q}"signal": {_str(r.signal)},{q}"pin": {_str(r.pin)},'
            f'{q}"method": {_str(r.method)},'
            f'{q}"params": {_array(params, q, "{}")},'
            f'{q}"delivery": {_str(r.delivery)},'
            f'{q}"resource": {_null_or_str(r.resource)},'
            f'{q}"connector": {_null_or_str(r.connector)},'
            f'{q}"held": {"true" if r.held else "false"},'
            f'{q}"changed": {"true" if r.changed else "false"}{pad}}}')


def _check_json(c: CheckRecord, pad: str) -> str:
    q = pad + "  "
    return (f'{{{q}"signal": {_str(c.signal)},{q}"pin": {_str(c.pin)},'
            f'{q}"method": {_str(c.method)},'
            f'{q}"min": {_null_or_str(c.low)},{q}"max": {_null_or_str(c.high)},'
            f'{q}"measured": {_str(str(c.measured))},'
            f'{q}"passed": {"true" if c.passed else "false"}{pad}}}')


def _step_json(s: StepRecord, pad: str,
               last: Mapping[int, str]) -> tuple[str, dict[int, str]]:
    """The step's JSON, and the fragments of its unchanged stimuli by
    record identity. ``last`` holds the previous step's: an unchanged
    stimulus may share its record with that step, and is written once. A
    changed one has a new record, so its fragment is not kept."""
    q = pad + "  "
    item = q + "  "
    fragments = [last.get(id(r)) or _stimulus_json(r, item)
                 for r in s.stimuli]
    checks = _array([_check_json(c, item) for c in s.checks], q)
    return (f'{{{q}"n": {s.index},{q}"dt": {_str(str(s.dt))},'
            f'{q}"t_end": {_str(str(s.t_end))},'
            f'{q}"passed": {"true" if s.passed else "false"},'
            f'{q}"stimuli": {_array(fragments, q)},'
            f'{q}"checks": {checks}{pad}}}',
            {id(r): text for r, text in zip(s.stimuli, fragments)
             if not r.changed})


def _steps_json(steps: list[StepRecord], pad: str) -> str:
    """The steps as a JSON array; each step sees the fragments of the one
    before it only."""
    texts, last = [], {}
    for s in steps:
        text, last = _step_json(s, pad + "  ", last)
        texts.append(text)
    return _array(texts, pad)


def report_to_json(report: RunReport) -> str:
    """The report as JSON; numeric values are decimal strings so that it
    round-trips exactly."""
    q, item = "\n  ", "\n    "
    abort = "null"
    if report.aborted:
        step = "null" if report.abort_step is None else report.abort_step
        abort = (f'{{{item}"step": {step},'
                 f'{item}"kind": {_null_or_str(report.abort_kind)},'
                 f'{item}"message": {_null_or_str(report.abort_message)}{q}}}')
    init = ("null" if report.settle is None
            else _step_json(report.settle, q, {})[0])
    steps = _steps_json(report.steps, q)
    return (f'{{{q}"test": {_str(report.name)},{q}"dut": {_str(report.dut)},'
            f'{q}"overall": {_str("pass" if report.overall else "fail")},'
            f'{q}"aborted": {"true" if report.aborted else "false"},'
            f'{q}"abort": {abort},{q}"init": {init},{q}"steps": {steps},'
            f'{q}"totals": {{'
            f'{item}"steps_total": {report.steps_total},'
            f'{item}"steps_run": {len(report.steps)},'
            f'{item}"steps_passed": {report.steps_passed},'
            f'{item}"checks_total": {report.checks_total},'
            f'{item}"checks_failed": {report.checks_failed},'
            f'{item}"step_time": {_str(str(report.step_time))},'
            f'{item}"total_time": {_str(str(report.total_time))}{q}}}\n}}\n')


def report_to_text(report: RunReport) -> str:
    lines = [f"test '{report.name}' on dut '{report.dut}'"]
    if report.settle:
        lines.append(f"init: dwell {report.settle.dt} s, "
                     f"{len(report.settle.stimuli)} stimuli")
    for s in report.steps:
        bits = []
        for c in s.checks:
            lo = "-inf" if c.low is None else str(c.low)
            hi = "+inf" if c.high is None else str(c.high)
            verdict = "ok" if c.passed else "FAIL"
            bits.append(f"{c.signal}.{c.pin}={c.measured} in [{lo}, {hi}] "
                        f"{verdict}")
        detail = "; ".join(bits) if bits else "no checks"
        mark = "pass" if s.passed else "FAIL"
        lines.append(f"step {s.index}: dt={s.dt} t_end={s.t_end} {mark} "
                     f"({detail})")
    if report.aborted:
        where = "init" if report.abort_step is None else f"step {report.abort_step}"
        lines.append(f"aborted at {where} [{report.abort_kind}]: "
                     f"{report.abort_message}")
    verdict = "PASS" if report.overall else "FAIL"
    lines.append(f"RESULT: {verdict} (steps {report.steps_passed}/"
                 f"{report.steps_total}, checks "
                 f"{report.checks_total - report.checks_failed}/"
                 f"{report.checks_total}, virtual time {report.total_time} s)")
    return "\n".join(lines) + "\n"

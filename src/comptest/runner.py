"""Discrete-time execution of a test script on a virtual stand.

The script is as sparse as the sheets; this module owns hold semantics.
A run is planned, then driven. ``plan`` needs no DUT: it is an iterator
that, per block (``<init>``, then every step), evaluates the block's
stimuli and checks, allocates resources for the stimuli in force plus the
block's one-shots and checks, keeping the run's held bindings engaged
across blocks (``stand.Holds``), advances the clock and yields the block's
step record with the stimuli to apply and the checks to sample.
``drive(script, blocks, dut)`` applies whatever stimuli changed, advances
the DUT by the dwell and samples every check pin at the end of it into the
step record. Check failures are recorded and execution continues;
allocation failures, unbound environment variables, a dwell sum beyond the
decimal range or precision and any exception raised by the DUT model abort
the run. The clock is virtual and exact (decimal arithmetic), so a 300 s
test finishes in milliseconds.
"""

from __future__ import annotations

from decimal import (Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow)
from functools import reduce
from itertools import chain
from json.encoder import encode_basestring_ascii as _str
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

from .compiler import MethodInvocation, TestScript, render_value
from .dut import DutModel, dut_fault
from .errors import AllocationError, EvalError
from .expr import ARITHMETIC, Num, Var, BinOp, Paren, eval_expr
from .sheets import _Fields, method_class
from .stand import (BUS_METHODS, Binding, Holds, Requirement, StandModel,
                    allocate)


class StimulusRecord(NamedTuple):
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


class CheckRecord(NamedTuple):
    signal: str
    pin: str
    method: str
    low: Decimal | None
    high: Decimal | None
    measured: Decimal
    passed: bool


class StepRecord(_Fields):
    """One block as driven: ``drive`` appends its check records."""

    __slots__ = _compared = ("index", "dt", "t_end", "stimuli", "checks")

    def __init__(self, index: int, dt: Decimal, t_end: Decimal,
                 stimuli: list[StimulusRecord] | None = None,
                 checks: list[CheckRecord] | None = None):
        self.index = index  # -1 is the init/settle block
        self.dt, self.t_end = dt, t_end
        self.stimuli = [] if stimuli is None else stimuli
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class Abort(NamedTuple):
    """The first block that cannot be planned, or driven."""

    step: int  # the block's index: -1 is the init block
    kind: str  # "allocation" | "environment"
    message: str


class RunReport(NamedTuple):
    """A run's blocks as driven, and the ``Abort`` that ended it early."""

    name: str
    dut: str
    abort: Abort | None
    settle: StepRecord | None
    steps: list[StepRecord]
    steps_total: int

    @property
    def overall(self) -> bool:
        return self.abort is None and all(s.passed for s in self.steps)

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
        return reduce(ARITHMETIC.add, (s.dt for s in self.steps),
                      Decimal("0"))

    @property
    def total_time(self) -> Decimal:
        settle = self.settle.dt if self.settle else Decimal("0")
        return ARITHMETIC.add(settle, self.step_time)


def _evaluate(inv: MethodInvocation,
              env: Mapping[str, Decimal]) -> MethodInvocation:
    """``inv`` with its expressions evaluated under ``env``."""
    return MethodInvocation(inv.method, {
        name: (eval_expr(value, env)
               if isinstance(value, (Num, Var, BinOp, Paren)) else value)
        for name, value in inv.params.items()})


def _aux(inv: MethodInvocation) -> dict:
    first = next(iter(inv.params), None)
    return {k: v for k, v in inv.params.items() if k != first}


def _rendered(inv: MethodInvocation) -> dict[str, str]:
    return {k: render_value(v) for k, v in inv.params.items()}


def _record(b: Binding, params: dict[str, str],
            changed: bool) -> StimulusRecord:
    req = b.requirement
    connector = b.connector.text if b.connector else None
    return StimulusRecord(req.signal, req.pin, req.invocation.method, params,
                          b.delivery, b.resource_id, connector, b.held,
                          changed)


class _InForce:
    """A stimulus in force, built when its put appears: the invocation as
    applied, its rendered params and its requirements (one per target),
    kept while it is unchanged, even when restated with other digits.
    ``records`` are those of its first unchanged block, shared by every
    later one: ``allocate`` keeps a binding handed its own requirement back
    or aborts, and no other delivery changes while the stimulus does not.
    A one-shot is recorded through an entry of its own block only."""

    __slots__ = ("invocation", "params", "requirements", "records")

    def __init__(self, invocation: MethodInvocation, params: dict[str, str],
                 requirements: list[Requirement]):
        self.invocation, self.params = invocation, params
        self.requirements = requirements
        self.records: list[StimulusRecord] | None = None


#: A check statement as planned: its requirements (one per pin) and its
#: evaluated bounds.
_Check = tuple[list[Requirement], Decimal | None, Decimal | None]

#: The run clock's arithmetic: the default precision and range, with a
#: rounded sum trapped too, so every ``t_end`` is exact (and so are the
#: report's step and total times, sums of the same positive dwells). The
#: flags a sum sets here are never read.
_CLOCK = Context(traps=[InvalidOperation, DivisionByZero, Overflow, Inexact])


class Planned(NamedTuple):
    """One block as planned: its step record, with its stimulus records and
    no check records yet, the requirements of the stimuli to apply (those
    that changed, in statement order, evaluated) and the check statements
    to sample."""

    record: StepRecord
    applies: list[Requirement]
    checks: list[_Check]


def plan(script: TestScript, stand: StandModel,
         env: Mapping[str, Decimal]) -> Iterator[Planned | Abort]:
    """Plan ``script`` on ``stand`` under ``env``, without a DUT: each
    block, ``<init>`` first, as ``Planned``, ending with the first
    ``Abort`` if there is one. The plan is lazy and can be walked once.

    This is where hold semantics live. ``<init>`` and every step go through
    one block body: a put replaces the stimulus in force for its signal
    when it appears; a get is a check of its own block; any other method is
    a one-shot, allocated for its block only and never evaluated, applied,
    held or sampled. Each distinct statement is evaluated (unless it is a
    one-shot) and rendered once per run, and a check restated on a signal
    passes the same requirements and bounds to every block. Only the plan
    decides what is unchanged: a stimulus in force passes the same
    requirements to every block, so ``allocate`` keeps its binding engaged
    in the run's ``Holds``, and it shares its records from its second
    unchanged block on (see _InForce).

    Each block is evaluated, then allocated, then its clock is checked; the
    first that fails ends the plan with an ``Abort``: unbound environment
    variables and a dwell sum beyond the decimal range or precision
    (``_CLOCK``) are of kind ``environment``, allocation errors of kind
    ``allocation``. A block is planned only when the one before it has
    been taken, so a run driven from the plan stops at whichever fault
    comes first.
    """
    env = {k: Decimal(v) for k, v in env.items()}
    pins = {sig.name: sig.pins for sig in script.signals}
    holds = Holds()
    clock = Decimal("0")
    in_force: dict[str, _InForce] = {}
    # Per script invocation, by identity (the loader gives equal statements
    # one invocation, and the script keeps each alive while it runs): once
    # it has been evaluated without fault, the invocation as applied and
    # its rendered params; per signal and check invocation, the check's
    # requirements and bounds, which every block then passes as the same
    # objects.
    evaluated: dict[int, tuple[MethodInvocation, dict[str, str]]] = {}
    checked: dict[tuple[str, int], _Check] = {}

    def requirements(signal: str, inv: MethodInvocation) -> list[Requirement]:
        # A bus method reaches the DUT by signal name, all else by pin.
        return [Requirement(target, inv, signal) for target in
                ((signal,) if inv.method in BUS_METHODS else pins[signal])]

    def evaluate(inv: MethodInvocation
                 ) -> tuple[MethodInvocation, dict[str, str]]:
        done = evaluated.get(id(inv))
        if done is None:
            # A one-shot (a method of no class) is never evaluated.
            as_applied = (inv if method_class(inv.method) is None
                          else _evaluate(inv, env))
            done = evaluated[id(inv)] = (as_applied, _rendered(as_applied))
        return done

    def check(signal: str, inv: MethodInvocation) -> _Check:
        known = checked.get((signal, id(inv)))
        if known is None:
            as_applied = evaluate(inv)[0]
            known = checked[signal, id(inv)] = (
                requirements(signal, as_applied), *as_applied.bounds())
        return known

    for block in (script.init, *script.steps):
        puts: dict[str, MethodInvocation] = {}  # the last put per signal
        one_shots: list[tuple[str, MethodInvocation]] = []
        checks: list[tuple[str, MethodInvocation]] = []
        for st in block.statements:
            cls = method_class(st.invocation.method)
            if cls == "put":
                puts[st.signal] = st.invocation
            elif cls == "get":
                checks.append((st.signal, st.invocation))
            else:
                one_shots.append((st.signal, st.invocation))
        try:
            puts = {sig: evaluate(inv) for sig, inv in puts.items()}
            checks = [check(sig, inv) for sig, inv in checks]
            changed: dict[str, _InForce] = {}
            for sig, (inv, rendered) in puts.items():
                entry = in_force.get(sig)
                if entry is None or entry.invocation != inv:
                    in_force[sig] = changed[sig] = _InForce(
                        inv, rendered, requirements(sig, inv))
                elif entry.params != rendered:  # restated with other digits
                    entry.params, entry.records = rendered, None
            shots = [(sig, _InForce(*evaluate(inv), requirements(sig, inv)))
                     for sig, inv in one_shots]

            # The stimuli in force, then the one-shots; the checks follow.
            reqs = [req for _, entry in chain(in_force.items(), shots)
                    for req in entry.requirements]
            for check_reqs, _, _ in checks:
                reqs += check_reqs
            bindings = allocate(reqs, stand, holds).bindings
            t_end = _CLOCK.add(clock, block.dt)
        except (EvalError, AllocationError, Inexact) as exc:  # Overflow too
            message = str(exc)
            if isinstance(exc, Overflow):
                message = (f"clock overflow: dwell sum {clock} + {block.dt} "
                           f"s is out of range")
            elif isinstance(exc, Inexact):
                message = (f"clock precision: dwell sum {clock} + {block.dt} "
                           f"s is not exact in {_CLOCK.prec} digits")
            yield Abort(block.index, "allocation" if isinstance(
                exc, AllocationError) else "environment", message)
            return
        clock = t_end

        stimuli: list[StimulusRecord] = []
        at = 0  # bindings come in the order of reqs
        for sig, entry in chain(in_force.items(), shots):
            n = len(entry.requirements)
            block_records = entry.records
            if block_records is None:
                # By identity: a one-shot beside a changed put on its
                # signal is not new.
                new = changed.get(sig) is entry
                block_records = [_record(b, entry.params, new)
                                 for b in bindings[at:at + n]]
                if not new:
                    entry.records = block_records
            stimuli += block_records
            at += n
        yield Planned(StepRecord(block.index, block.dt, t_end, stimuli),
                      [req for entry in changed.values()
                       for req in entry.requirements], checks)


def drive(script: TestScript, blocks: Iterable[Planned | Abort],
          dut: DutModel) -> RunReport:
    """Run ``script``, planned as ``blocks``, against ``dut``: per block,
    apply the changed stimuli, advance by the dwell and sample every check
    pin at the end of it, into the block's step record.

    Failed checks only mark their step as failed. The run stops at the
    plan's abort, or at the first exception raised by ``dut`` (kind
    ``environment``), whichever block comes first; a block the DUT failed
    in is not reported.
    """
    records: list[StepRecord] = []  # the init block's, then one per step
    abort: Abort | None = None
    for block in blocks:
        if isinstance(block, Abort):
            abort = block
            break
        record, applies, checks = block
        try:
            for req in applies:
                inv = req.invocation
                dut.set_input(req.pin, inv.principal_value(), _aux(inv))
            dut.advance(record.dt)
            for reqs, low, high in checks:
                for req in reqs:
                    measured = dut.read_pin(req.pin)
                    ok = ((low is None or low <= measured)
                          and (high is None or measured <= high))
                    record.checks.append(CheckRecord(
                        req.signal, req.pin, req.invocation.method, low, high,
                        measured, ok))
        except Exception as exc:  # a faulty DUT plugin, see dut_fault
            abort = Abort(record.index, "environment", dut_fault(exc))
            break
        records.append(record)
    return RunReport(script.name, script.dut, abort,
                     records[0] if records else None, records[1:],
                     len(script.steps))


def execute(script: TestScript, stand: StandModel, env: Mapping[str, Decimal],
            dut: DutModel) -> RunReport:
    """Run ``script`` against ``dut`` on ``stand`` under ``env``: its
    ``plan``, driven (``drive``). The report is complete and deterministic:
    byte-identical for identical inputs."""
    return drive(script, plan(script, stand, env), dut)


# --- report rendering ------------------------------------------------------
#
# The JSON layout is a contract: what ``json.dumps(doc, indent=2)`` writes,
# with ASCII-escaped strings and a trailing newline. It is written straight
# from the records, one template per record; ``pad`` is the newline and
# indent of the line on which a value starts. Each report function writes
# its head, one chunk per step and its tail to its ``out`` as it renders
# them, so that a report never exists whole in memory.

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
    """The step's JSON, and the fragments of its stimuli by record
    identity. ``last`` holds the previous step's: a record the plan shares
    with that step is written once. The report keeps every record alive
    while it is rendered, so no identity is reused."""
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
            dict(zip(map(id, s.stimuli), fragments)))


def report_to_json(report: RunReport, out: TextIO) -> None:
    """Write the report as JSON to ``out`` (any object with a ``write``
    method taking text): its head up to ``"steps": ``, one chunk per step
    (each sees the fragments of the one before it only), then the totals.
    Numeric values are decimal strings so that it round-trips exactly."""
    q, item = "\n  ", "\n    "
    abort = "null"
    if report.abort is not None:
        step, kind, message = report.abort
        abort = (f'{{{item}"step": {"null" if step < 0 else step},'
                 f'{item}"kind": {_str(kind)},{item}"message": {_str(message)}'
                 f'{q}}}')
    init = ("null" if report.settle is None
            else _step_json(report.settle, q, {})[0])
    out.write(f'{{{q}"test": {_str(report.name)},{q}"dut": {_str(report.dut)},'
              f'{q}"overall": {_str("pass" if report.overall else "fail")},'
              f'{q}"aborted": {"false" if report.abort is None else "true"},'
              f'{q}"abort": {abort},{q}"init": {init},{q}"steps": ')
    opening, last = "[", {}
    for s in report.steps:
        text, last = _step_json(s, item, last)
        out.write(opening + item + text)
        opening = ","
    out.write(f'{q + "]" if report.steps else "[]"},{q}"totals": {{'
              f'{item}"steps_total": {report.steps_total},'
              f'{item}"steps_run": {len(report.steps)},'
              f'{item}"steps_passed": {report.steps_passed},'
              f'{item}"checks_total": {report.checks_total},'
              f'{item}"checks_failed": {report.checks_failed},'
              f'{item}"step_time": {_str(str(report.step_time))},'
              f'{item}"total_time": {_str(str(report.total_time))}{q}}}\n}}\n')


def report_to_text(report: RunReport, out: TextIO) -> None:
    """Write the report as text to ``out``, as ``report_to_json`` does: one
    line per block plus a result line, each as it is rendered."""
    out.write(f"test '{report.name}' on dut '{report.dut}'\n")
    if report.settle:
        out.write(f"init: dwell {report.settle.dt} s, "
                  f"{len(report.settle.stimuli)} stimuli\n")
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
        out.write(f"step {s.index}: dt={s.dt} t_end={s.t_end} {mark} "
                  f"({detail})\n")
    if report.abort is not None:
        step, kind, message = report.abort
        where = "init" if step < 0 else f"step {step}"
        out.write(f"aborted at {where} [{kind}]: {message}\n")
    verdict = "PASS" if report.overall else "FAIL"
    out.write(f"RESULT: {verdict} (steps {report.steps_passed}/"
              f"{report.steps_total}, checks "
              f"{report.checks_total - report.checks_failed}/"
              f"{report.checks_total}, virtual time {report.total_time} s)\n")

"""Independent oracles for the allocation search and the JSON run report.

Everything here is written from the documented rules alone and shares no
code with the program: ``assert_allocation_sound`` re-checks a returned
allocation constraint by constraint, ``first_feasible`` finds by brute
force the first candidate assignment in row order, checks last (and
``enumeration_feasible`` whether there is one), ``random_stand_case``
builds small randomized stands for the equivalence test,
``random_block_sequence`` larger ones with a few blocks to allocate in
turn, ``replay_run``
replays a whole run block by block through ``first_feasible`` on the tiny
runs of ``random_run_case``, ``reference_report_json`` writes a run
report through ``json.dumps``, and ``repeated_steps`` lengthens a script
text for the loader tests.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from decimal import Decimal
from typing import NamedTuple

from comptest import (Allocation, ConnectionMatrix, Connector,
                      MethodInvocation, Requirement, ResourceDef,
                      ResourceTable, StandModel, TestScript, INF)
from comptest.compiler import Block, ScriptSignal, Statement
from comptest.sheets import method_class
from comptest.stand import BUS_METHODS


def _role(req: Requirement) -> str:
    return method_class(req.invocation.method) or "put"


def _expects_resource(req: Requirement) -> bool:
    # Open circuit is a stimulus rule: a check is measured whatever its
    # first parameter.
    if req.invocation.method in BUS_METHODS:
        return False
    first = next(iter(req.invocation.params.values()), None)
    return _role(req) == "get" or first is not INF


def _in_range(res: ResourceDef, req: Requirement) -> bool:
    # The range limits the resource's attribute and a check's bounds on it
    # (<attr>_min, <attr>_max); pass-through values such as d1..d3 are free.
    limited = {res.attribut, res.attribut + "_min", res.attribut + "_max"}
    return all(res.min <= value <= res.max
               for name, value in req.invocation.params.items()
               if name in limited and isinstance(value, Decimal))


def _resource_ok(res: ResourceDef, req: Requirement,
                 stand: StandModel) -> bool:
    if res.method != req.invocation.method:
        return False
    if stand.matrix.connector_for(res.id, req.pin) is None:
        return False
    return _in_range(res, req)


def _combination_ok(reqs, choice, stand, held) -> bool:
    # choice[i] is a resource id for every resource-expecting requirement.
    used_put_res = {}
    used_put_grp = {}
    get_res = set()
    get_grp = set()
    for req, rid in zip(reqs, choice):
        if not _resource_ok(stand.resources[rid], req, stand):
            return False
        prev = held.get(req.pin) if held else None
        if (prev is not None and prev.requirement is req
                and prev.resource_id != rid):
            return False  # pinned: the held binding's own requirement
        conn = stand.matrix.connector_for(rid, req.pin)
        grp = (conn.kind, conn.group)
        if _role(req) == "get":
            if rid in used_put_res or grp in used_put_grp:
                return False
            get_res.add(rid)
            get_grp.add(grp)
        else:
            if rid in used_put_res or rid in get_res:
                return False
            if grp in used_put_grp or grp in get_grp:
                return False
            used_put_res[rid] = req.pin
            used_put_grp[grp] = req.pin
    return True


def first_feasible(requirements, stand: StandModel, held=None):
    """Brute force: the first assignment, in resource table row order, that
    satisfies everything. A requirement on a pin ``held`` (pin -> binding)
    names tries that binding's resource first. The exclusive requirements
    come first, in the given order, then the checks: the first varies
    slowest, the last check fastest.

    Returns the resource ids of the requirements that expect a resource, in
    requirement order, or None when no assignment exists.
    """
    held = held or {}
    needing = [r for r in requirements if _expects_resource(r)]
    order = sorted(range(len(needing)),
                   key=lambda j: _role(needing[j]) == "get")
    ordered = [needing[j] for j in order]
    ids = [res.id for res in stand.resources]

    def candidates(req):
        prev = held.get(req.pin)
        return sorted(ids, key=lambda rid: prev is None
                      or rid != prev.resource_id)

    for choice in itertools.product(*map(candidates, ordered)):
        if _combination_ok(ordered, choice, stand, held):
            by_index = dict(zip(order, choice))
            return [by_index[j] for j in range(len(needing))]
    return None


def enumeration_feasible(requirements, stand: StandModel, held=None) -> bool:
    """Brute force: does any assignment of resources satisfy everything?"""
    return first_feasible(requirements, stand, held) is not None


def assert_allocation_sound(requirements, stand: StandModel,
                            allocation: Allocation, held=None):
    """Re-verify every documented constraint on a returned allocation."""
    held = held or {}
    assert len(allocation.bindings) == len(list(requirements))
    put_res = {}
    put_grp = {}
    get_res = set()
    get_grp = set()
    for req, binding in zip(requirements, allocation.bindings):
        assert binding.requirement == req
        if req.invocation.method in BUS_METHODS:
            assert binding.delivery == "bus"
            assert binding.resource_id is None and binding.connector is None
            continue
        first = next(iter(req.invocation.params.values()), None)
        if first is INF and _role(req) != "get":
            assert binding.delivery == "open_circuit"
            assert binding.resource_id is None and binding.connector is None
            continue
        assert binding.delivery == "resource"
        res = stand.resources[binding.resource_id]
        assert res.method == req.invocation.method, "method support"
        conn = stand.matrix.connector_for(res.id, req.pin)
        assert conn is not None and conn == binding.connector, "connection"
        assert _in_range(res, req), "range containment"
        prev = held.get(req.pin)
        if prev is not None and prev.requirement is req:
            assert binding.resource_id == prev.resource_id, "pinned hold moved"
            assert binding.held
        else:
            assert not binding.held, "searched requirement marked held"
        grp = (conn.kind, conn.group)
        if _role(req) == "get":
            assert res.id not in put_res and grp not in put_grp
            get_res.add(res.id)
            get_grp.add(grp)
        else:
            assert res.id not in put_res and res.id not in get_res, \
                "resource exclusivity"
            assert grp not in put_grp and grp not in get_grp, \
                "group exclusivity"
            put_res[res.id] = req.pin
            put_grp[grp] = req.pin


def random_stand_case(rng: random.Random):
    """A random small stand plus a random requirement set.

    Bounds: at most 5 resources, 8 pins and 6 requirements, which keeps the
    brute-force enumeration comfortably fast.
    """
    methods = ["put_r", "get_u", "put_v"]
    n_pins = rng.randint(1, 8)
    pins = [f"p{i}" for i in range(n_pins)]
    n_res = rng.randint(1, 5)
    resources = []
    for i in range(n_res):
        method = rng.choice(methods)
        low = Decimal(rng.randint(-5, 5))
        high = low + Decimal(rng.randint(5, 25))
        resources.append(ResourceDef(f"R{i}", method, method.split("_")[1],
                                     low, high))
    cells = {}
    for i in range(n_res):
        for pin in pins:
            if rng.random() < 0.7:
                kind = rng.choice(["switch", "mux"])
                group = rng.randint(1, max(2, n_pins // 2))
                cells[(f"R{i}", pin)] = Connector(kind, group, i + 1)
    stand = StandModel(ResourceTable(resources),
                       ConnectionMatrix(pins, [f"R{i}" for i in range(n_res)],
                                        cells))
    n_req = rng.randint(1, 6)
    req_pins = rng.sample(pins, min(n_req, len(pins)))
    stand_methods = [res.method for res in resources]
    requirements = []
    for pin in req_pins:
        # Bias toward methods the stand offers and values inside some
        # resource's range so both outcomes show up often.
        method = (rng.choice(stand_methods) if rng.random() < 0.75
                  else rng.choice(methods))
        attr = method.split("_")[1]
        in_range = [r for r in resources if r.method == method]
        if in_range and rng.random() < 0.7:
            res = rng.choice(in_range)
            value = Decimal(rng.randint(int(res.min), int(res.max)))
        else:
            value = Decimal(rng.randint(-10, 40))
        params = {attr: value}
        if rng.random() < 0.1:
            params[attr] = INF
        requirements.append(Requirement(pin, MethodInvocation(method, params)))
    return stand, requirements


def random_block_sequence(rng: random.Random):
    """A random stand of 3-14 resources on 3-12 pins, whose switch and mux
    groups many cells share, and 1-4 blocks to allocate in turn, each of
    at most 12 requirements: stimuli (about one in ten an open circuit)
    on pins of their own, which a later block passes again as the same
    requirement, changes or drops, and one-shot pulses and checks in
    between, in a random order."""
    methods = ["put_r", "put_v", "get_u", "pulse_r"]
    n_res, n_pins = rng.randint(3, 14), rng.randint(3, 12)
    pins = [f"p{j}" for j in range(n_pins)]
    resources = []
    for i in range(n_res):
        method = rng.choice(methods[:1] * 4 + methods[1:3] * 2 + methods[3:])
        low = Decimal(rng.randint(-5, 5))
        resources.append(ResourceDef(f"R{i}", method, method[-1], low,
                                     low + Decimal(rng.randint(5, 25))))
    groups, density = rng.randint(1, max(2, n_res // 2)), rng.uniform(0.3, 0.8)
    cells = {(res.id, pin): Connector(rng.choice(["switch", "mux"]),
                                      rng.randint(1, groups), j + 1)
             for res in resources for j, pin in enumerate(pins)
             if rng.random() < density}
    stand = StandModel(ResourceTable(resources),
                       ConnectionMatrix(pins, [r.id for r in resources],
                                        cells))

    def requirement(pin: str, *methods: str) -> Requirement:
        # Mostly a method and a value that some resource wired to the pin
        # offers, so that the search has work to do.
        wired = [r for r in resources if r.method in methods
                 and (r.id, pin) in cells]
        if wired and rng.random() < 0.9:
            res = rng.choice(wired)
            method, value = res.method, Decimal(rng.randint(int(res.min),
                                                            int(res.max)))
        else:
            method, value = rng.choice(methods), Decimal(rng.randint(-10, 40))
        if method.startswith("put") and rng.random() < 0.1:
            value = INF
        return Requirement(pin, MethodInvocation(method, {method[-1]: value}))

    def served(method: str, among: list[str]) -> list[str]:
        # Mostly the pins some resource of the method is wired to, if any.
        wired = [pin for pin in among if any(
            r.method == method and (r.id, pin) in cells for r in resources)]
        return among if rng.random() < 0.05 else wired

    stimulus_pins = rng.sample(pins, rng.randint(1, min(8, n_pins)))
    check_pins = [pin for pin in pins if pin not in stimulus_pins]
    in_force: dict[str, Requirement] = {}
    blocks = []
    for _ in range(rng.randint(1, 4)):
        for pin in stimulus_pins:
            draw = rng.random()
            if pin not in in_force or draw < 0.35:
                in_force[pin] = requirement(pin, "put_r", "put_v")
            elif draw < 0.45:
                del in_force[pin]
        block = list(in_force.values())
        pulsed = served("pulse_r", pins)
        block += [requirement(rng.choice(pulsed), "pulse_r")
                  for _ in range(rng.choice((0, 0, 1, 2)) if pulsed else 0)]
        checked = served("get_u", check_pins)
        block += [requirement(pin, "get_u") for pin in
                  rng.sample(checked, min(len(checked), rng.randint(0, 3)))]
        rng.shuffle(block)
        blocks.append(block[:12])
    return stand, blocks


# --- whole runs ------------------------------------------------------------

class _Held(NamedTuple):
    requirement: Requirement
    resource_id: str


def replay_run(script: TestScript, stand: StandModel):
    """Brute force, block by block: ``first_feasible`` on each block's
    requirements with the previous block's holds.

    The blocks are ``<init>`` and then the steps. In each, a signal's last
    put replaces its stimulus unless it equals the one in force; a get is a
    check of the block; any other method is a one-shot of the block. A
    block's requirements are the stimuli in force, each signal at the
    place of its first put, then the one-shots, then the checks, one per
    target: the signal for a bus method, else each of its pins. An
    unchanged stimulus keeps its requirements, so a binding is held
    exactly while its stimulus is unchanged.

    Returns, per block until the first that cannot be allocated, the
    resource id (or None) of each stimulus in force and each one-shot, in
    that order.
    """
    pins = {sig.name: sig.pins for sig in script.signals}
    in_force: dict[str, tuple[MethodInvocation, list[Requirement]]] = {}
    held: dict[str, _Held] = {}
    blocks = []

    def requirements(signal, inv):
        targets = ((signal,) if inv.method in BUS_METHODS
                   else pins[signal])
        return [Requirement(t, inv, signal) for t in targets]

    for block in (script.init, *script.steps):
        puts, one_shots, checks = {}, [], []
        for st in block.statements:
            role = method_class(st.invocation.method)
            if role == "put":
                puts[st.signal] = st.invocation
            else:
                (checks if role == "get" else one_shots).extend(
                    requirements(st.signal, st.invocation))
        for signal, inv in puts.items():
            if signal not in in_force or in_force[signal][0] != inv:
                in_force[signal] = (inv, requirements(signal, inv))
        stimuli = [req for _, reqs in in_force.values() for req in reqs]
        reqs = stimuli + one_shots + checks
        ids = first_feasible(reqs, stand, held)
        if ids is None:
            break
        got = iter(ids)
        placed = [next(got) if _expects_resource(req) else None
                  for req in reqs]
        blocks.append(placed[:len(stimuli) + len(one_shots)])
        held = {req.pin: _Held(req, rid)
                for req, rid in zip(stimuli, placed) if rid is not None}
    return blocks


def random_run_case(rng: random.Random):
    """A random tiny run: 2-4 resources on 2-3 pins, and a script of 2-4
    blocks. Each connection has a mux group of its own, or in about half
    the cases one of as many groups as there are pins, shared. The
    last pin is an output, sampled by checks, in about a third of them;
    every other pin is an input that may get a stimulus (a resistance,
    now and then an open circuit) or a one-shot pulse in each block."""
    n_res, n_pins = rng.randint(2, 4), rng.randint(2, 3)
    pins = [f"p{j}" for j in range(n_pins)]
    output = pins[-1] if rng.random() < 0.35 else None
    shared = rng.random() < 0.5
    resources, cells = [], {}
    for i in range(n_res):
        method = rng.choice(["put_r"] * 8 + ["get_u"] * 2 * bool(output)
                            + ["pulse_r"] * 2)
        resources.append(ResourceDef(f"R{i}", method, method[-1], Decimal(0),
                                     Decimal(rng.choice((6, 10, 10)))))
        for j, pin in enumerate(pins):
            if rng.random() < 0.7:
                group = (rng.randint(1, n_pins) if shared
                         else i * n_pins + j + 1)
                cells[(f"R{i}", pin)] = Connector("mux", group, i + 1)
    stand = StandModel(ResourceTable(resources),
                       ConnectionMatrix(pins, [r.id for r in resources],
                                        cells))
    signals = [ScriptSignal(pin, "output" if pin == output else "input",
                            (pin,)) for pin in pins]
    blocks = []
    for index in range(-1, rng.randint(1, 3)):
        statements = []
        for pin in pins:
            if pin == output:  # the script rules allow no check in <init>
                if index >= 0 and rng.random() < 0.5:
                    statements.append(Statement(pin, MethodInvocation(
                        "get_u", {"u_max": Decimal(9), "u_min": Decimal(0)})))
                continue
            draw = rng.random()
            if draw < 0.35 or (index < 0 and draw < 0.7):
                value = Decimal(rng.choice((1, 1, 5, 5, 8)))
                statements.append(Statement(pin, MethodInvocation(
                    "put_r", {"r": value})))
            elif draw < 0.45:
                statements.append(Statement(pin, MethodInvocation(
                    "put_r", {"r": INF})))
            if rng.random() < 0.15:
                statements.append(Statement(pin, MethodInvocation(
                    "pulse_r", {"r": Decimal(1)})))
        blocks.append(Block(index, Decimal(1), statements))
    return stand, TestScript("run", "dut", signals, blocks[0], blocks[1:])


def repeated_steps(text: str, copies: int) -> str:
    """The script ``text`` with all its steps written ``copies`` times and
    numbered again from 0: a longer script under the same manifest and
    ``<init>``, for the loader's reading of a long text."""
    head, mark, rest = text.partition("  <step ")
    steps, end, tail = (mark + rest).rpartition("</test>")
    numbers = itertools.count()
    return (head + re.sub(r'<step n="\d+"',
                          lambda m: f'<step n="{next(numbers)}"',
                          steps * copies) + end + tail)


# --- the JSON run report -----------------------------------------------------

def _dec(value: Decimal | None) -> str | None:
    return None if value is None else str(value)


def _step_dict(s) -> dict:
    return {
        "n": s.index,
        "dt": str(s.dt),
        "t_end": str(s.t_end),
        "passed": s.passed,
        "stimuli": [{
            "signal": r.signal,
            "pin": r.pin,
            "method": r.method,
            "params": r.params,
            "delivery": r.delivery,
            "resource": r.resource,
            "connector": r.connector,
            "held": r.held,
            "changed": r.changed,
        } for r in s.stimuli],
        "checks": [{
            "signal": c.signal,
            "pin": c.pin,
            "method": c.method,
            "min": _dec(c.low),
            "max": _dec(c.high),
            "measured": str(c.measured),
            "passed": c.passed,
        } for c in s.checks],
    }


def reference_report_json(report) -> str:
    """The JSON run report as a dict rendered by ``json.dumps(indent=2)``:
    the layout ``runner.report_to_json`` must reproduce byte for byte."""
    doc = {
        "test": report.name,
        "dut": report.dut,
        "overall": "pass" if report.overall else "fail",
        "aborted": report.abort is not None,
        "abort": None if report.abort is None else {
            "step": None if report.abort.step == -1 else report.abort.step,
            "kind": report.abort.kind,
            "message": report.abort.message,
        },
        "init": _step_dict(report.settle) if report.settle else None,
        "steps": [_step_dict(s) for s in report.steps],
        "totals": {
            "steps_total": report.steps_total,
            "steps_run": len(report.steps),
            "steps_passed": report.steps_passed,
            "checks_total": report.checks_total,
            "checks_failed": report.checks_failed,
            "step_time": str(report.step_time),
            "total_time": str(report.total_time),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_report_text(report) -> str:
    """The text run report, line by line: the layout
    ``runner.report_to_text`` must reproduce byte for byte."""
    lines = [f"test '{report.name}' on dut '{report.dut}'"]
    if report.settle is not None:
        lines.append(f"init: dwell {report.settle.dt} s, "
                     f"{len(report.settle.stimuli)} stimuli")
    for s in report.steps:
        bits = [f"{c.signal}.{c.pin}={c.measured} in "
                f"[{'-inf' if c.low is None else c.low}, "
                f"{'+inf' if c.high is None else c.high}] "
                f"{'ok' if c.passed else 'FAIL'}" for c in s.checks]
        lines.append(f"step {s.index}: dt={s.dt} t_end={s.t_end} "
                     f"{'pass' if s.passed else 'FAIL'} "
                     f"({'; '.join(bits) or 'no checks'})")
    if report.abort is not None:
        step, kind, message = report.abort
        where = "init" if step == -1 else f"step {step}"
        lines.append(f"aborted at {where} [{kind}]: {message}")
    lines.append(f"RESULT: {'PASS' if report.overall else 'FAIL'} (steps "
                 f"{report.steps_passed}/{report.steps_total}, checks "
                 f"{report.checks_total - report.checks_failed}/"
                 f"{report.checks_total}, virtual time "
                 f"{report.total_time} s)")
    return "\n".join(lines) + "\n"

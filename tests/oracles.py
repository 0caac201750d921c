"""Independent oracles for the allocation search and the JSON run report.

Everything here is written from the documented rules alone and shares no
code with the program: ``assert_allocation_sound`` re-checks a returned
allocation constraint by constraint, ``first_feasible`` finds by brute
force the first candidate assignment in row order, checks last (and
``enumeration_feasible`` whether there is one), ``random_stand_case``
builds small randomized stands for the equivalence test, and
``reference_report_json`` writes a run report through ``json.dumps``.
"""

from __future__ import annotations

import itertools
import json
import random
from decimal import Decimal

from comptest import (Allocation, ConnectionMatrix, Connector,
                      MethodInvocation, Requirement, ResourceDef,
                      ResourceTable, StandModel, INF)
from comptest.sheets import method_class
from comptest.stand import BUS_METHODS


def _role(req: Requirement) -> str:
    return method_class(req.invocation.method) or "put"


def _expects_resource(req: Requirement) -> bool:
    if req.invocation.method in BUS_METHODS:
        return False
    first = next(iter(req.invocation.params.values()), None)
    return first is not INF


def _resource_ok(res: ResourceDef, req: Requirement,
                 stand: StandModel) -> bool:
    if res.method != req.invocation.method:
        return False
    if stand.matrix.connector_for(res.id, req.pin) is None:
        return False
    for value in req.invocation.params.values():
        if isinstance(value, Decimal) and not (res.min <= value <= res.max):
            return False
    return True


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
    satisfies everything. The exclusive requirements come first, in the
    given order, then the checks: the first varies slowest, the last check
    fastest.

    Returns the resource ids of the requirements that expect a resource, in
    requirement order, or None when no assignment exists.
    """
    needing = [r for r in requirements if _expects_resource(r)]
    order = sorted(range(len(needing)),
                   key=lambda j: _role(needing[j]) == "get")
    ordered = [needing[j] for j in order]
    ids = [res.id for res in stand.resources]
    for choice in itertools.product(ids, repeat=len(needing)):
        if _combination_ok(ordered, choice, stand, held or {}):
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
        if first is INF:
            assert binding.delivery == "open_circuit"
            assert binding.resource_id is None and binding.connector is None
            continue
        assert binding.delivery == "resource"
        res = stand.resources[binding.resource_id]
        assert res.method == req.invocation.method, "method support"
        conn = stand.matrix.connector_for(res.id, req.pin)
        assert conn is not None and conn == binding.connector, "connection"
        for value in req.invocation.params.values():
            if isinstance(value, Decimal):
                assert res.min <= value <= res.max, "range containment"
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
        "aborted": report.aborted,
        "abort": (None if not report.aborted else {
            "step": report.abort_step,
            "kind": report.abort_kind,
            "message": report.abort_message,
        }),
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

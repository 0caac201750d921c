"""Correctness gates: each returns a list of problems, empty when it passes.

The gates read only the program's outputs (exit codes, script and report
bytes) and the generator's known answer. They share no code with the
program or its test suite, so a defect in either cannot hide itself here.
"""

from __future__ import annotations

import re
from decimal import Decimal

_GROUP = re.compile(r"(Sw|Mx)(\d+)\.\d+\Z")
_LIMIT = 5  # problems listed per gate


def check_golden(actual: bytes, expected: bytes) -> list[str]:
    """The shipped example compiles to exactly its golden script."""
    if actual == expected:
        return []
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
              min(len(actual), len(expected)))
    return [f"golden script differs at byte {at} "
            f"({len(actual)} bytes, expected {len(expected)})"]


def check_identical(first: dict[str, bytes],
                    second: dict[str, bytes]) -> list[str]:
    """Two runs on identical inputs give identical bytes."""
    return [f"{name} bytes differ between two runs on identical inputs"
            for name in sorted(first) if first[name] != second.get(name)]


def _principal(record: dict) -> str | None:
    return next(iter(record["params"].values()), None)


def _check_stimuli(where: str, records: list[dict], active: dict[str, str],
                   changed: set[str] | None, out: list[str]):
    seen = {r["pin"]: r for r in records}
    if set(seen) != set(active) or len(records) != len(active):
        out.append(f"{where}: stimulus pins {sorted(seen)} != "
                   f"{sorted(active)}")
        return
    for pin, value in active.items():
        rec = seen[pin]
        if _principal(rec) != value:
            out.append(f"{where}: {pin} holds {_principal(rec)}, "
                       f"expected {value}")
        if changed is not None and rec["changed"] != (pin in changed):
            out.append(f"{where}: {pin} changed={rec['changed']}, "
                       f"expected {pin in changed}")
        want = "open_circuit" if value == "INF" else "resource"
        if rec["delivery"] != want:
            out.append(f"{where}: {pin} delivered by {rec['delivery']}, "
                       f"expected {want}")


def check_outcome(expected: dict, exit_code: int, report: dict) -> list[str]:
    """Exit code, abort, totals, every stimulus and every check verdict
    match the generator's known answer."""
    out: list[str] = []
    if exit_code != expected["run_exit"]:
        out.append(f"run exit code {exit_code}, expected "
                   f"{expected['run_exit']}")
    abort = expected["abort"]
    if report.get("aborted") != (abort is not None):
        out.append(f"aborted={report.get('aborted')}, expected "
                   f"{abort is not None}")
    elif abort is not None:
        got = report["abort"] or {}
        if (got.get("kind"), got.get("step")) != (abort["kind"],
                                                  abort["step"]):
            out.append(f"abort {got.get('kind')} at step {got.get('step')}, "
                       f"expected {abort['kind']} at step {abort['step']}")
    failing = {(n, pin) for n, pin in expected["failing"]}
    want_overall = "fail" if failing or abort is not None else "pass"
    if report.get("overall") != want_overall:
        out.append(f"overall {report.get('overall')}, expected {want_overall}")
    totals = report.get("totals", {})
    for key, value in expected["totals"].items():
        got = totals.get(key)
        same = (Decimal(got) == Decimal(value) if key.endswith("_time")
                and got is not None else got == value)
        if not same:
            out.append(f"totals.{key} = {got}, expected {value}")

    if abort is not None:
        if report.get("steps"):
            out.append("an init abort must leave no step records")
        return out[:_LIMIT]

    active = dict(expected["init"])
    if report.get("init") is None:
        out.append("missing init record")
    else:
        _check_stimuli("init", report["init"]["stimuli"], active, None, out)
    steps = report.get("steps", [])
    if len(steps) != len(expected["steps"]):
        out.append(f"{len(steps)} step records, expected "
                   f"{len(expected['steps'])}")
    ubatt = Decimal(expected["ubatt"])
    for n, (step, want) in enumerate(zip(steps, expected["steps"])):
        where = f"step {n}"
        if step["n"] != n or Decimal(step["dt"]) != Decimal(want["dt"]):
            out.append(f"{where}: index/dt {step['n']}/{step['dt']}, "
                       f"expected {n}/{want['dt']}")
        active.update(want["set"])
        _check_stimuli(where, step["stimuli"], active, set(want["set"]), out)
        checks = {c["pin"]: c for c in step["checks"]}
        if sorted(checks) != sorted(expected["outputs"]) \
                or len(checks) != len(step["checks"]):
            out.append(f"{where}: checked pins {sorted(checks)}")
            continue
        for pin, bit in zip(expected["outputs"], want["outputs"]):
            check = checks[pin]
            reading = ubatt if bit == "1" else Decimal("0")
            if Decimal(check["measured"]) != reading:
                out.append(f"{where}: {pin} measured {check['measured']}, "
                           f"expected {reading}")
            if check["passed"] == ((n, pin) in failing):
                out.append(f"{where}: {pin} passed={check['passed']}")
        if len(out) >= _LIMIT:
            break
    return out[:_LIMIT]


def check_exclusive(report: dict) -> list[str]:
    """No resource and no switch/mux group drives two pins in one step."""
    out: list[str] = []
    blocks = ([("init", report["init"])] if report.get("init") else []) + \
        [(f"step {s['n']}", s) for s in report.get("steps", [])]
    for where, block in blocks:
        by_resource: dict[str, str] = {}
        by_group: dict[str, str] = {}
        for rec in block["stimuli"]:
            if rec["delivery"] != "resource":
                continue
            pin, rid, conn = rec["pin"], rec["resource"], rec["connector"]
            m = _GROUP.match(conn or "")
            if rid is None or m is None:
                out.append(f"{where}: {pin} has resource {rid} "
                           f"via connector {conn}")
                continue
            group = m.group(1) + m.group(2)
            for owner, key, what in ((by_resource, rid, "resource"),
                                     (by_group, group, "group")):
                if key in owner:
                    out.append(f"{where}: {what} {key} drives {owner[key]} "
                               f"and {pin}")
                owner[key] = pin
        if len(out) >= _LIMIT:
            break
    return out[:_LIMIT]

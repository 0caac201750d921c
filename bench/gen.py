"""Seeded workload generator for the comptest benchmark.

``generate(workload, seed, outdir)`` writes the three definition sheets
(signals, statuses, test), the two stand sheets (resources, connections),
the stand environment and ``expected.json``, the known answer the run must
reproduce. The same workload, seed and shape always give the same bytes.

Every workload is built for the echo DUT (``echo_dut.py``): inputs
``I<g>_<k>`` belong to group ``g`` and output ``O<g>`` reads ``ubatt``
exactly when an odd number of the group's inputs carry a resistance below
``echo_dut.LOW_OHM``. The generator replays that rule itself, so it knows
every stimulus value, every measured output and every verdict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path

from echo_dut import LOW_OHM

WORKLOADS = ("hold_heavy", "pool_churn", "pigeonhole")

SHEETS = {
    "signals": "signals.csv",
    "statuses": "statuses.csv",
    "test": "test.csv",
    "resources": "resources.csv",
    "connections": "connections.csv",
    "env": "stand.env",
}

WIDE_MAX = Decimal("1000000")
NARROW_MAX = Decimal("1000")
DTS = (Decimal("0.1"), Decimal("0.2"), Decimal("0.5"))
SETTLE = Decimal("0.1")  # init dwell passed to ``comptest compile --settle``
UBATTS = (Decimal("12.0"), Decimal("13.5"), Decimal("14.0"))


@dataclass(frozen=True)
class Shape:
    groups: int          # output signals; each has its own input group
    group_size: int      # inputs per group
    steps: int
    changes: int = 0     # hold_heavy: inputs restated per step
    planted: int = 0     # hold_heavy: steps with one deliberately wrong check
    wide: int = 0        # pool_churn: wide-range resources (and narrow ones)
    pool: int = 0        # pigeonhole: interchangeable resources


SHAPES = {
    "hold_heavy": Shape(groups=8, group_size=8, steps=100, changes=3,
                        planted=7),
    "pool_churn": Shape(groups=2, group_size=4, steps=40, wide=4),
    "pigeonhole": Shape(groups=1, group_size=8, steps=20, pool=7),
}

#: Small shapes for the benchmark's own smoke tests.
TINY = {
    "hold_heavy": replace(SHAPES["hold_heavy"], groups=2, group_size=4,
                          steps=12, changes=2, planted=2),
    "pool_churn": replace(SHAPES["pool_churn"], group_size=2, steps=10,
                          wide=2),
    "pigeonhole": replace(SHAPES["pigeonhole"], group_size=4, steps=3, pool=3),
}


def _num(value: Decimal) -> str:
    """A number as a decimal-comma spreadsheet export writes it."""
    return str(value).replace(".", ",")


def _csv(rows: list[list[str]]) -> str:
    return "".join(";".join(row) + "\n" for row in rows)


def _is_low(value) -> bool:
    return isinstance(value, Decimal) and value < LOW_OHM


class _Sheets:
    """Builds the sheets and replays the run the echo DUT will see."""

    def __init__(self, shape: Shape, rng: random.Random):
        self.shape = shape
        self.rng = rng
        self.ubatt = rng.choice(UBATTS)
        self.inputs = [f"I{g}_{k}" for g in range(shape.groups)
                       for k in range(shape.group_size)]
        self.outputs = [f"O{g}" for g in range(shape.groups)]
        # status name -> (status row cells, value the DUT receives)
        self.statuses: dict[str, tuple[list[str], object]] = {}
        self.add_check("Hi", "0.9", "1.1")
        self.add_check("Lo", "0", "0.1")

    def add_check(self, name: str, low: str, high: str):
        row = [name, "get u", "u", "UBATT", "", _num(Decimal(low)),
               _num(Decimal(high)), "", "", ""]
        self.statuses[name] = (row, None)

    def add_stimulus(self, name: str, nom: Decimal | None = None, *,
                     scale: Decimal | None = None, open_circuit=False):
        if open_circuit:
            row, value = [name, "put r", "r", "", "INF"], "INF"
        elif scale is not None:
            row = [name, "put r", "r", "UBATT", _num(scale)]
            value = scale * self.ubatt
        else:
            row, value = [name, "put r", "r", "", _num(nom)], nom
        self.statuses[name] = (row + ["", "", "", "", ""], value)

    def value(self, status: str):
        return self.statuses[status][1]

    def output_bits(self, active: dict[str, str]) -> str:
        g_size = self.shape.group_size
        bits = []
        for g in range(self.shape.groups):
            lows = sum(_is_low(self.value(active[pin]))
                       for pin in self.inputs[g * g_size:(g + 1) * g_size])
            bits.append("1" if lows % 2 else "0")
        return "".join(bits)

    def write(self, outdir: Path, init: dict[str, str],
              steps: list[tuple[Decimal, dict[str, str]]],
              planted: set[int], resources: list[list[str]],
              wiring: dict[tuple[str, str], str], run_exit: int,
              abort: dict | None) -> dict:
        """Write every file; ``steps`` holds (dt, input changes) per step."""
        outdir.mkdir(parents=True, exist_ok=True)
        signals = [["name", "direction", "pins", "initial_status"]]
        signals += [[pin, "input", pin, init[pin]] for pin in self.inputs]
        signals += [[pin, "output", pin, "Lo"] for pin in self.outputs]

        statuses = [["status", "method", "attribut", "var (x)", "nom", "min",
                     "max", "D 1", "D 2", "D 3"]]
        statuses += [row for row, _ in self.statuses.values()]

        columns = self.inputs + self.outputs
        test = [["test step", "Δt", *columns, "remarks"]]
        active = dict(init)
        expected_steps = []
        failing = []
        for n, (dt, changes) in enumerate(steps):
            active.update(changes)
            bits = self.output_bits(active)
            checks = ["Hi" if b == "1" else "Lo" for b in bits]
            if n in planted:
                g = self.rng.randrange(self.shape.groups)
                checks[g] = "Lo" if checks[g] == "Hi" else "Hi"
                failing.append([n, self.outputs[g].lower()])
            test.append([str(n), _num(dt)]
                        + [changes.get(pin, "") for pin in self.inputs]
                        + checks + [""])
            expected_steps.append({
                "dt": str(dt),
                "set": {pin.lower(): str(self.value(s))
                        for pin, s in changes.items()},
                "outputs": bits,
            })

        pins = self.inputs + self.outputs
        connections = [["res", *pins]]
        connections += [[row[0]] + [wiring.get((row[0], pin), "")
                                    for pin in pins] for row in resources]

        files = {
            "signals": _csv(signals),
            "statuses": _csv(statuses),
            "test": _csv(test),
            "resources": _csv([["res", "method", "attribut", "min", "max",
                                "unit"]] + resources),
            "connections": _csv(connections),
            "env": f"ubatt={self.ubatt}\n",
        }
        for key, text in files.items():
            (outdir / SHEETS[key]).write_text(text, encoding="utf-8")

        step_time = sum((Decimal(s["dt"]) for s in expected_steps),
                        Decimal("0"))
        ran = abort is None
        n_checks = len(steps) * len(self.outputs) if ran else 0
        expected = {
            "compile_exit": 0,
            "run_exit": run_exit,
            "abort": abort,
            "ubatt": str(self.ubatt),
            "resources": len(resources),
            "inputs": [pin.lower() for pin in self.inputs],
            "outputs": [pin.lower() for pin in self.outputs],
            "init": {pin.lower(): str(self.value(s))
                     for pin, s in init.items()},
            "steps": expected_steps if ran else [],
            "failing": failing if ran else [],
            "totals": {
                "steps_total": len(steps),
                "steps_run": len(steps) if ran else 0,
                "steps_passed": len(steps) - len(failing) if ran else 0,
                "checks_total": n_checks,
                "checks_failed": len(failing) if ran else 0,
                "step_time": str(step_time if ran else Decimal("0")),
                "total_time": str(step_time + SETTLE if ran else Decimal("0")),
            },
        }
        (outdir / "expected.json").write_text(
            json.dumps(expected, indent=1) + "\n", encoding="utf-8")
        return expected


def _distinct_values(rng: random.Random, count: int, low: int, high: int,
                     taken: set) -> list[Decimal]:
    out = []
    while len(out) < count:
        value = Decimal(rng.randrange(low, high))
        if value not in taken:
            taken.add(value)
            out.append(value)
    return out


def _hold_heavy(b: _Sheets) -> dict:
    """Many inputs, few changes per step, symbolic stimuli and checks."""
    shape, rng = b.shape, b.rng
    taken: set = set()
    for i, v in enumerate(_distinct_values(rng, 8, 10, 900, taken)):
        b.add_stimulus(f"L{i}", v)
    for i, v in enumerate(_distinct_values(rng, 8, 2000, 900000, taken)):
        b.add_stimulus(f"H{i}", v)
    # Symbolic stimuli: k * ubatt stays on its side of LOW_OHM for every
    # ubatt the generator picks. Distinct values keep every restated
    # stimulus a real change.
    for prefix, low, high in (("SL", 1, 60), ("SH", 200, 2000)):
        for i in range(4):
            k = Decimal(rng.randrange(low, high))
            while k * b.ubatt in taken:
                k = Decimal(rng.randrange(low, high))
            taken.add(k * b.ubatt)
            b.add_stimulus(f"{prefix}{i}", scale=k)
    b.add_stimulus("OPEN", open_circuit=True)
    stimuli = [s for s, (_, v) in b.statuses.items() if v is not None]

    init = {pin: rng.choice(stimuli) for pin in b.inputs}
    active = dict(init)
    steps = []
    for _ in range(shape.steps):
        changes = {}
        for pin in rng.sample(b.inputs, shape.changes):
            changes[pin] = rng.choice([s for s in stimuli if s != active[pin]])
        active.update(changes)
        steps.append((rng.choice(DTS), changes))
    planted = set(rng.sample(range(shape.steps), shape.planted))

    # One resource per pin, each on its own mux; the meters come first in
    # the table, as in the shipped example.
    resources, wiring = [], {}
    for i, pin in enumerate(b.outputs + b.inputs):
        rid = f"R{i + 1}"
        if pin in b.inputs:
            resources.append([rid, "put r", "r", "0", _num(WIDE_MAX), "Ω"])
        else:
            resources.append([rid, "get u", "u", "-60", "60", "V"])
        wiring[(rid, pin)] = f"Mx{i + 1}.1"
    return dict(init=init, steps=steps, planted=planted, resources=resources,
                wiring=wiring, run_exit=1 if planted else 0, abort=None)


def _shared_pool(b: _Sheets, kinds: list[str], ranges: dict[str, Decimal]):
    """Resources in ``kinds`` order, each wired to every input through its
    own mux (one position per pin), plus one meter for every output."""
    resources, wiring = [], {}
    for r, kind in enumerate(kinds, start=1):
        rid = f"{kind}{r}"
        resources.append([rid, "put r", "r", "0", _num(ranges[kind]), "Ω"])
        for p, pin in enumerate(b.inputs, start=1):
            wiring[(rid, pin)] = f"Mx{r}.{p}"
    meter = len(kinds) + 1
    resources.append([f"U{meter}", "get u", "u", "-60", "60", "V"])
    for p, pin in enumerate(b.outputs, start=1):
        wiring[(f"U{meter}", pin)] = f"Mx{meter}.{p}"
    return resources, wiring


def _pool_churn(b: _Sheets) -> dict:
    """Every stimulus changes every step on a shared wide/narrow pool."""
    shape, rng = b.shape, b.rng
    taken: set = set()
    narrow = _distinct_values(rng, 16, 1, int(NARROW_MAX), taken)
    wide = _distinct_values(rng, 16, 2000, int(WIDE_MAX), taken)
    for i, v in enumerate(narrow):
        b.add_stimulus(f"N{i}", v)
    for i, v in enumerate(wide):
        b.add_stimulus(f"W{i}", v)
    narrow_st = [f"N{i}" for i in range(len(narrow))]
    wide_st = [f"W{i}" for i in range(len(wide))]

    # Up to ``shape.wide`` pins per step need a wide resource; the rest fit
    # both kinds. Which pins those are decides how far the search
    # backtracks, so that pattern comes from a fixed stream: the search
    # effort is the same for every seed, and the seed picks the values.
    pattern = random.Random("pool_churn wide pins")

    def draw(active: dict[str, str], wide: set[str]) -> dict[str, str]:
        return {pin: rng.choice([s for s in (wide_st if pin in wide
                                             else narrow_st)
                                 if s != active.get(pin)])
                for pin in b.inputs}

    init = draw({}, set())
    active = dict(init)
    steps = []
    for _ in range(shape.steps):
        wide_pins = pattern.sample(b.inputs, pattern.randint(0, shape.wide))
        changes = draw(active, set(wide_pins))
        active.update(changes)
        steps.append((rng.choice(DTS), changes))

    # Wide resources first in row order, so the search tries them on
    # narrow values before it reaches the narrow ones.
    resources, wiring = _shared_pool(
        b, ["W"] * shape.wide + ["N"] * shape.wide,
        {"W": WIDE_MAX, "N": NARROW_MAX})
    return dict(init=init, steps=steps, planted=set(), resources=resources,
                wiring=wiring, run_exit=0, abort=None)


def _pigeonhole(b: _Sheets) -> dict:
    """One more input than interchangeable resources, all driven at init."""
    shape, rng = b.shape, b.rng
    values = _distinct_values(rng, 2 * len(b.inputs), 1, int(WIDE_MAX), set())
    names = [f"P{i}" for i in range(len(values))]
    for name, v in zip(names, values):
        b.add_stimulus(name, v)
    init = dict(zip(b.inputs, names))
    active = dict(init)
    steps = []
    for _ in range(shape.steps):
        pin = rng.choice(b.inputs)
        changes = {pin: rng.choice([s for s in names if s != active[pin]])}
        active.update(changes)
        steps.append((rng.choice(DTS), changes))

    resources, wiring = _shared_pool(b, ["P"] * shape.pool, {"P": WIDE_MAX})
    return dict(init=init, steps=steps, planted=set(), resources=resources,
                wiring=wiring, run_exit=2,
                abort={"kind": "allocation", "step": None})


_MAKERS = {"hold_heavy": _hold_heavy, "pool_churn": _pool_churn,
             "pigeonhole": _pigeonhole}


def generate(workload: str, seed: int, outdir: Path,
             shape: Shape | None = None) -> dict:
    """Write ``workload`` for ``seed`` into ``outdir``; return the answer."""
    shape = shape or SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    sheets = _Sheets(shape, rng)
    return sheets.write(Path(outdir), **_MAKERS[workload](sheets))

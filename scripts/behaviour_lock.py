#!/usr/bin/env python3
"""The behaviour lock: seeded corpora whose outputs must stay byte-identical.

Three corpora are rebuilt from fixed seeds, and every chunk of cases is
hashed into one SHA-256 digest:

- ``runs``: ``oracles.random_run_case`` runs on a recording DUT: the JSON
  report, the text report and the DUT's call log;
- ``allocate``: ``oracles.random_stand_case`` cases, each through three
  ``allocate`` calls on one ``Holds``: the bindings with their held flags,
  or the error text, and the holds after every call;
- ``mutations``: seeded mutations of the shipped script
  (``data/interior_light/expected_script.xml``): the XML that ``emit_xml``
  writes for each load, or its ``ScriptError`` text (any other exception
  escapes, and the lock fails).

Without arguments it compares the digests with those committed in
``tests/behaviour_lock.json``, names every chunk that differs and exits 1
if any does. ``--write`` regenerates the committed digests, for a change
that alters behaviour on purpose. Standard library only, so that it runs
on every supported Python without pytest; ``tests/test_behaviour_lock.py``
runs the same comparison in the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import re
import sys
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from comptest import (AllocationError, Requirement, ScriptError,  # noqa: E402
                      allocate, emit_xml, execute, load_script,
                      report_to_json, report_to_text)
from comptest.stand import Holds  # noqa: E402
from oracles import random_run_case, random_stand_case  # noqa: E402

DIGESTS = ROOT / "tests" / "behaviour_lock.json"
SCRIPT = ROOT / "data" / "interior_light" / "expected_script.xml"


class _RecordingDut:
    """Accepts every input and logs each call; a pin reads the number of
    calls so far modulo 11, so that a check in [0, 9] passes or fails."""

    def __init__(self):
        self.log: list[tuple] = []

    def set_input(self, name, value, aux=None):
        self.log.append(("set", name, value, aux))

    def advance(self, dt):
        self.log.append(("advance", dt))

    def read_pin(self, pin):
        self.log.append(("read", pin))
        return Decimal(len(self.log) % 11)


def run_cases(rng: random.Random) -> Iterator[str]:
    while True:
        stand, script = random_run_case(rng)
        dut = _RecordingDut()
        report = execute(script, stand, {}, dut)
        out = io.StringIO()
        report_to_json(report, out)
        report_to_text(report, out)
        out.write(repr(dut.log))
        yield out.getvalue()


def _holds(holds: Holds) -> str:
    return repr((sorted((pin, b.requirement.pin, b.resource_id,
                         str(b.connector), b.held)
                        for pin, b in holds.by_pin.items()),
                 sorted(holds.res.items()), sorted(holds.grp.items())))


def allocate_cases(rng: random.Random) -> Iterator[str]:
    while True:
        stand, reqs = random_stand_case(rng)
        holds = Holds()
        lines = []
        for call in range(3):
            if call:
                # Pass each requirement again (kept held), an equal copy of
                # it (searched again, preferring its old resource) or drop
                # it, in a shuffled order.
                again = []
                for req in reqs:
                    draw = rng.random()
                    if draw < 0.5:
                        again.append(req)
                    elif draw < 0.75:
                        again.append(Requirement(req.pin, req.invocation,
                                                 req.signal))
                rng.shuffle(again)
                reqs = again
            try:
                bindings = allocate(reqs, stand, holds).bindings
            except AllocationError as exc:
                lines.append(f"error: {exc}")
            else:
                lines += [f"{b.requirement.pin} {b.delivery} {b.resource_id} "
                          f"{b.connector} {b.held}" for b in bindings]
            lines.append(_holds(holds))
        yield "\n".join(lines)


_CHARS = '<>"=/ \n\t&;#x09.-+*()eE_aZé'
_VALUES = ("INF", "inf", "-INF", "0", "-0", "-1", "5000", "0.5", "1e999999",
           "9e-999999", "0x1", "", " ", "abc", "1,5", "0001B", "2B", "10B",
           "(0.3*ubatt)", "(1.1*ubatt", "ubatt*", "vx", "ds_fl", "int_ill",
           "input", "output", "ds_fl|ds_fr", "a|", "2", "1", "99")
_TAGS = ("test", "signals", "signal", "init", "step", "put_r", "get_u",
         "put_can", "pulse_r", "x", "put", "get_", "a-b")
_ATTR_VALUE = re.compile(r'="[^"]*"')
_ATTR_NAME = re.compile(r' (\w+)="')
_TAG = re.compile(r"</?(\w+)")


def _mutate(text: str, rng: random.Random) -> str:
    kind = rng.randrange(8)
    if kind < 3:  # a character deleted, inserted or replaced
        at = rng.randrange(len(text))
        cut = 0 if kind == 1 else rng.randint(1, 3)
        new = "" if kind == 0 else rng.choice(_CHARS)
        return text[:at] + new + text[at + cut:]
    if kind < 6:  # an attribute value, attribute name or tag replaced
        pattern, pool, fmt = [(_ATTR_VALUE, _VALUES, '="{}"'),
                              (_ATTR_NAME, _TAGS + ("n", "dt", "name", "r",
                                                    "d1", "u_min", "pins",
                                                    "direction", "format"),
                               ' {}="'),
                              (_TAG, _TAGS, None)][kind - 3]
        found = list(pattern.finditer(text))
        m = rng.choice(found)
        new = rng.choice(pool)
        if fmt is None:  # keep "<" or "</"
            return text[:m.start(1)] + new + text[m.end(1):]
        return text[:m.start()] + fmt.format(new) + text[m.end():]
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    if kind == 6:  # a line duplicated or deleted
        lines[at:at + 1] = ([lines[at]] * 2 if rng.random() < 0.5 else [])
    else:  # two lines swapped
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    return "\n".join(lines)


def mutation_cases(rng: random.Random) -> Iterator[str]:
    base = SCRIPT.read_text("utf-8")
    while True:
        text = base
        for _ in range(rng.choice((1, 1, 2, 3))):
            text = _mutate(text, rng)
        try:
            yield emit_xml(load_script(text))
        except ScriptError as exc:
            yield f"ScriptError: {exc}"


#: name -> (cases, seed, number of cases, cases per digest)
CORPORA: dict[str, tuple[Callable[[random.Random], Iterator[str]],
                         int, int, int]] = {
    "runs": (run_cases, 20261019, 3000, 300),
    "allocate": (allocate_cases, 20261020, 3000, 300),
    "mutations": (mutation_cases, 20261021, 3000, 300),
}


def digests(name: str) -> list[str]:
    """The digests of corpus ``name``, one per chunk of its cases."""
    cases, seed, total, chunk = CORPORA[name]
    drawn = cases(random.Random(seed))
    out = []
    for _ in range(0, total, chunk):
        h = hashlib.sha256()
        for _ in range(chunk):
            data = next(drawn).encode()
            h.update(b"%d:" % len(data) + data)
        out.append(h.hexdigest())
    return out


def committed() -> dict[str, list[str]]:
    return json.loads(DIGESTS.read_text("utf-8"))


def mismatches(name: str, expected: list[str]) -> list[str]:
    """One line per chunk of corpus ``name`` whose digest is not
    ``expected``'s."""
    got = digests(name)
    _, _, _, chunk = CORPORA[name]
    if len(got) != len(expected):
        return [f"{name}: {len(got)} chunks, {len(expected)} committed"]
    return [f"{name}: chunk {i} (cases {i * chunk}-{(i + 1) * chunk - 1}) "
            f"differs" for i, (a, b) in enumerate(zip(got, expected))
            if a != b]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the committed digests")
    args = ap.parse_args()
    if args.write:
        DIGESTS.write_text(json.dumps({name: digests(name)
                                       for name in CORPORA}, indent=2) + "\n",
                           "utf-8")
        print(f"wrote {DIGESTS.relative_to(ROOT)}")
        return 0
    expected = committed()
    bad = [line for name in CORPORA
           for line in mismatches(name, expected.get(name, []))]
    for line in bad:
        print(line)
    if not bad:
        print(f"behaviour lock: {len(CORPORA)} corpora match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The behaviour lock: seeded corpora whose outputs must stay byte-identical.

Six corpora are rebuilt from fixed seeds, and every chunk of cases is
hashed into one SHA-256 digest:

- ``runs``: ``oracles.random_run_case`` runs on a recording DUT: the JSON
  report, the text report and the DUT's call log;
- ``allocate``: ``oracles.random_stand_case`` cases, each through three
  ``allocate`` calls on one ``Holds``: the bindings with their held flags,
  or the error text, and the holds after every call;
- ``blocks``: ``oracles.random_block_sequence`` cases, each block
  allocated in turn through one ``Holds``: the bindings with their held
  flags, or the error text, and the holds after every block;
- ``mutations``: seeded mutations of the shipped script
  (``data/interior_light/expected_script.xml``): the XML that ``emit_xml``
  writes for each load, or its ``ScriptError`` text (any other exception
  escapes, and the lock fails);
- ``long_mutations``: the same on the shipped script with its steps
  written 12 times (``oracles.repeated_steps``, about 29 KB), so that
  faults fall in every chunk the loader reads, and a schema fault often
  comes before a fault of XML syntax further on;
- ``exit_codes``: seeded byte mutations of one shipped file each (a sheet,
  a stand file, the env file or the script) through in-process
  ``cli.main``: ``check`` and ``compile`` for a sheet, ``run`` for the
  others. Each command must exit 0, 1 or 2 without an escaping exception
  or a traceback on stderr, and give the same bytes when called again;
  its exit code and first stderr line are digested.

Without arguments it compares the digests with those committed in
``tests/behaviour_lock.json``, names every chunk that differs and exits 1
if any does. ``--write`` regenerates the committed digests, for a change
that alters behaviour on purpose. Standard library only, so that it runs
on every supported Python without pytest; ``tests/test_behaviour_lock.py``
runs the same comparison in the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from comptest import (AllocationError, Requirement, ScriptError,  # noqa: E402
                      allocate, emit_xml, execute, load_script,
                      report_to_json, report_to_text)
from comptest.cli import main as cli_main  # noqa: E402
from comptest.stand import Holds  # noqa: E402
from oracles import (random_block_sequence, random_run_case,  # noqa: E402
                     random_stand_case, repeated_steps)

DIGESTS = ROOT / "tests" / "behaviour_lock.json"
EXAMPLE = ROOT / "data" / "interior_light"
SCRIPT = EXAMPLE / "expected_script.xml"


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


def _bindings(stand, reqs: list[Requirement], holds: Holds) -> list[str]:
    """One ``allocate`` call: a line per binding, or the error text; then
    the holds."""
    try:
        bindings = allocate(reqs, stand, holds).bindings
    except AllocationError as exc:
        lines = [f"error: {exc}"]
    else:
        lines = [f"{b.requirement.pin} {b.delivery} {b.resource_id} "
                 f"{b.connector} {b.held}" for b in bindings]
    return lines + [_holds(holds)]


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
            lines += _bindings(stand, reqs, holds)
        yield "\n".join(lines)


def block_cases(rng: random.Random) -> Iterator[str]:
    while True:
        stand, blocks = random_block_sequence(rng)
        holds = Holds()
        yield "\n".join(line for reqs in blocks
                        for line in _bindings(stand, reqs, holds))


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


def _script_mutations(base: str, rng: random.Random) -> Iterator[str]:
    while True:
        text = base
        for _ in range(rng.choice((1, 1, 2, 3))):
            text = _mutate(text, rng)
        try:
            yield emit_xml(load_script(text))
        except ScriptError as exc:
            yield f"ScriptError: {exc}"


def mutation_cases(rng: random.Random) -> Iterator[str]:
    return _script_mutations(SCRIPT.read_text("utf-8"), rng)


def long_mutation_cases(rng: random.Random) -> Iterator[str]:
    return _script_mutations(repeated_steps(SCRIPT.read_text("utf-8"), 12),
                             rng)


#: The shipped files an ``exit_codes`` case mutates, by the option that
#: names each; the first three are the sheets.
_FILES = {"--signals": "signals.csv", "--statuses": "statuses.csv",
          "--test": "test_interior_light.csv",
          "--script": "expected_script.xml", "--resources": "resources.csv",
          "--connections": "connections.csv", "--env": "stand.env"}
#: What an ``exit_codes`` mutation inserts: separators, number and markup
#: characters, and bytes that are not UTF-8 or that XML cannot hold.
_BYTES = (b";", b",", b".", b"|", b'"', b"\n", b"\r", b" ", b"\t", b"=",
          b"<", b">", b"/", b"&", b"#", b"-", b"+", b"e", b"E", b"0", b"9",
          b"B", b"x", b"_", "é".encode(), "Δ".encode(), b"\x01", b"\xff",
          b"\xc3", b"INF", b"1e999999", b"\x00")


def _mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    kind = rng.randrange(4)
    if kind < 3:  # bytes deleted, a token inserted, or bytes replaced
        at = rng.randrange(len(data))
        cut = 0 if kind == 1 else rng.randint(1, 3)
        new = b"" if kind == 0 else rng.choice(_BYTES)
        return data[:at] + new + data[at + cut:]
    lines = data.split(b"\n")  # a line duplicated
    at = rng.randrange(len(lines))
    lines[at:at + 1] = [lines[at]] * 2
    return b"\n".join(lines)


def _invoke(argv: list[str], where: str) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process: its exit code, stdout and stderr,
    with the case directory ``where`` spelled ``<dir>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return (code, out.getvalue().replace(where, "<dir>"),
            err.getvalue().replace(where, "<dir>"))


def exit_code_cases(rng: random.Random) -> Iterator[str]:
    originals = {opt: (EXAMPLE / name).read_bytes()
                 for opt, name in _FILES.items()}
    sheets = list(_FILES)[:3]
    with tempfile.TemporaryDirectory() as where:
        paths = {opt: str(Path(where, name)) for opt, name in _FILES.items()}
        for opt, data in originals.items():
            Path(paths[opt]).write_bytes(data)
        commands = {
            "check": ["check", *(a for opt in sheets
                                 for a in (opt, paths[opt]))],
            "run": ["run", *(a for opt in list(_FILES)[3:]
                             for a in (opt, paths[opt])), "--report", "json"],
        }
        commands["compile"] = ["compile", *commands["check"][1:]]
        while True:
            target = rng.choice(list(_FILES))
            data = originals[target]
            for _ in range(rng.choice((1, 1, 2, 3))):
                data = _mutate_bytes(data, rng)
            Path(paths[target]).write_bytes(data)
            lines = [f"{target} {hashlib.sha256(data).hexdigest()[:16]}"]
            for name in (("check", "compile") if target in sheets
                         else ("run",)):
                first = _invoke(commands[name], where)
                code, _, err = first
                case = f"{name} on a mutated {_FILES[target]}: {data!r}"
                if code not in (0, 1, 2) or "Traceback" in err:
                    raise AssertionError(f"{case}: exit {code}, stderr "
                                         f"{err!r}")
                if _invoke(commands[name], where) != first:
                    raise AssertionError(f"{case}: a second call differs")
                lines.append(f"{name} {code} {err.partition(chr(10))[0]}")
            Path(paths[target]).write_bytes(originals[target])
            yield "\n".join(lines)


#: name -> (cases, seed, number of cases, cases per digest)
CORPORA: dict[str, tuple[Callable[[random.Random], Iterator[str]],
                         int, int, int]] = {
    "runs": (run_cases, 20261019, 3000, 300),
    "allocate": (allocate_cases, 20261020, 3000, 300),
    "mutations": (mutation_cases, 20261021, 3000, 300),
    "blocks": (block_cases, 20261022, 3000, 300),
    "exit_codes": (exit_code_cases, 20261023, 500, 100),
    "long_mutations": (long_mutation_cases, 20261025, 1000, 100),
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

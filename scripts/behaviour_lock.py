#!/usr/bin/env python3
"""The behaviour lock: seeded corpora whose outputs must stay byte-identical.

Seven corpora are rebuilt from fixed seeds, and every chunk of cases is
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
  its exit code and first stderr line are digested;
- ``grammar``: the same through ``cli.main`` for inputs grown along the
  grammar, which random bytes hardly build: deep parentheses and long
  chains of each operator in a script bound, long method and parameter
  names, long numbers in script attribute values, and long step indices
  in the script and in the test sheet, each from one to 5 000 long.

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
_SHEETS = list(_FILES)[:3]
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


@contextlib.contextmanager
def _case_dir() -> Iterator[tuple[str, dict[str, str], dict[str, list[str]]]]:
    """A directory holding a copy of each shipped file, the path of each
    by its option, and the commands a case may run on them: ``check`` and
    ``compile`` the sheets, ``run`` the script on the stand."""
    with tempfile.TemporaryDirectory() as where:
        paths = {opt: str(Path(where, name)) for opt, name in _FILES.items()}
        for opt, name in _FILES.items():
            Path(paths[opt]).write_bytes((EXAMPLE / name).read_bytes())
        commands = {
            "check": ["check", *(a for opt in _SHEETS
                                 for a in (opt, paths[opt]))],
            "run": ["run", *(a for opt in list(_FILES)[3:]
                             for a in (opt, paths[opt])), "--report", "json"],
        }
        commands["compile"] = ["compile", *commands["check"][1:]]
        yield where, paths, commands


def _exits(label: str, target: str, data: bytes, where: str,
           paths: dict[str, str], commands: dict[str, list[str]]) -> str:
    """``data`` written as the file of option ``target`` and run through
    the commands that read it: ``check`` and ``compile`` for a sheet,
    ``run`` for the others. Each must exit 0, 1 or 2 without an escaping
    exception or a traceback on stderr, and give the same bytes when
    called again. The case's text: ``label`` with a hash of ``data``, then
    a line per command with its exit code and first stderr line. The
    shipped file is put back after."""
    Path(paths[target]).write_bytes(data)
    lines = [f"{label} {hashlib.sha256(data).hexdigest()[:16]}"]
    for name in ("check", "compile") if target in _SHEETS else ("run",):
        first = _invoke(commands[name], where)
        code, _, err = first
        case = f"{name} on a mutated {_FILES[target]}: {data!r}"
        if code not in (0, 1, 2) or "Traceback" in err:
            raise AssertionError(f"{case}: exit {code}, stderr {err!r}")
        if _invoke(commands[name], where) != first:
            raise AssertionError(f"{case}: a second call differs")
        lines.append(f"{name} {code} {err.partition(chr(10))[0]}")
    Path(paths[target]).write_bytes((EXAMPLE / _FILES[target]).read_bytes())
    return "\n".join(lines)


def exit_code_cases(rng: random.Random) -> Iterator[str]:
    originals = {opt: (EXAMPLE / name).read_bytes()
                 for opt, name in _FILES.items()}
    with _case_dir() as (where, paths, commands):
        while True:
            target = rng.choice(list(_FILES))
            data = originals[target]
            for _ in range(rng.choice((1, 1, 2, 3))):
                data = _mutate_bytes(data, rng)
            yield _exits(target, target, data, where, paths, commands)


#: How long a ``grammar`` case makes what it grows: from one up to past
#: the digit bound of step indices and connectors (640) and CPython's
#: limit on the digits of an int string (4 300).
_SIZES = (1, 2, 10, 100, 640, 641, 4300, 4301, 5000)
#: The operands of a long operator chain.
_OPERANDS = ("ubatt", "1", "0", "2.5", "-1", "1e999999")
#: The script attributes that hold a number.
_NUMBER_ATTRS = ("r", "d2", "u_max", "u_min", "dt", "data")


def _long_expression(rng: random.Random, size: int) -> str:
    """``size`` parentheses around an operand, at times one ``)`` short,
    or a chain of ``size`` operands joined by one operator."""
    if rng.random() < 0.4:
        return ("(" * size + rng.choice(("0.3*ubatt", "ubatt", "1"))
                + ")" * (size - rng.choice((0, 0, 1))))
    return rng.choice("+-*/").join(rng.choice(_OPERANDS)
                                   for _ in range(size))


def _long_number(rng: random.Random, size: int, attr: str) -> str:
    """A number of ``size`` digits in one of several shapes; a bit literal
    for ``data``."""
    if attr == "data":
        return rng.choice("01") * size + "B"
    return rng.choice(("1" * size, "-" + "9" * size, "0" * size + "1",
                       "0." + "0" * size + "1", "1e" + "1" * size,
                       "1" * size + "e-" + "9" * min(size, 6)))


def _replace(text: str, pattern: str, new: Callable[[re.Match], str],
             rng: random.Random) -> str:
    """``text`` with one match of ``pattern``, chosen by ``rng``, replaced
    by ``new`` of it."""
    m = rng.choice(list(re.finditer(pattern, text)))
    return text[:m.start()] + new(m) + text[m.end():]


def grammar_cases(rng: random.Random) -> Iterator[str]:
    """Inputs grown along the grammar, which random bytes hardly build:
    in the script, deep parentheses and long operator chains in a bound,
    long method and parameter names, long numbers in attribute values and
    long step indices; in the test sheet, long step indices."""
    script = SCRIPT.read_text("utf-8")
    sheet = (EXAMPLE / _FILES["--test"]).read_text("utf-8")
    with _case_dir() as (where, paths, commands):
        while True:
            kind, size = rng.randrange(6), rng.choice(_SIZES)
            target, text = "--script", script
            if kind == 0:
                text = _replace(text, r'(?<= u_m(?:ax|in)=")[^"]*', lambda m:
                                _long_expression(rng, size), rng)
            elif kind == 1:
                text = _replace(text, r"(?<=<)(?:put|get)_\w+", lambda m:
                                m.group() + rng.choice("ru_x") * size, rng)
            elif kind == 2:
                text = _replace(text, r"(?<= )(?:r|d[123]|u_m(?:ax|in)|data)"
                                r'(?==")', lambda m:
                                m.group() + rng.choice("_x9") * size, rng)
            elif kind == 3:
                attr = rng.choice(_NUMBER_ATTRS)
                text = _replace(text, rf'(?<= {attr}=")[^"]*', lambda m:
                                _long_number(rng, size, attr), rng)
            elif kind == 4:
                text = _replace(text, r'(?<=<step n=")[0-9]+', lambda m:
                                rng.choice(("0" * size + m.group(),
                                            "1" * size)), rng)
            else:
                target, text = "--test", _replace(
                    sheet, r"(?m)^[0-9]+(?=;)", lambda m: rng.choice(
                        ("0" * size + m.group(), "1" * size)), rng)
            yield _exits(f"{target} {kind} {size}", target, text.encode(),
                         where, paths, commands)


#: name -> (cases, seed, number of cases, cases per digest)
CORPORA: dict[str, tuple[Callable[[random.Random], Iterator[str]],
                         int, int, int]] = {
    "runs": (run_cases, 20261019, 3000, 300),
    "allocate": (allocate_cases, 20261020, 3000, 300),
    "mutations": (mutation_cases, 20261021, 3000, 300),
    "blocks": (block_cases, 20261022, 3000, 300),
    "exit_codes": (exit_code_cases, 20261023, 500, 100),
    "long_mutations": (long_mutation_cases, 20261025, 1000, 100),
    "grammar": (grammar_cases, 20261026, 300, 50),
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

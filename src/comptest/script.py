"""Interpreter-side loader: parse a test-script XML into a ``TestScript``.

Loading is strict about the script schema (it is the portability contract)
but deliberately tolerant about method names: an unknown method that obeys
the name rule loads fine and only fails later if no stand resource supports
it. Expressions are parsed eagerly so a syntactically broken script is
rejected without any stand at all; evaluation waits until execution, when
the stand environment is known.
"""

from __future__ import annotations

from contextlib import suppress
from decimal import Decimal
from typing import Iterator
from xml.parsers import expat

from .compiler import (FORMAT_VERSION, Block, MethodInvocation, ParamValue,
                       ScriptSignal, Statement, TestScript)
from .errors import ExprError, ScriptError
from .expr import parse_expr
from .sheets import (check_direction, check_has_steps, check_ident,
                     check_name, check_step_order, check_unique,
                     fits_direction, method_class, parse_dwell, parse_scalar,
                     parse_step_index)


#: How much text expat reads at a time: the loader holds the elements of
#: one chunk, not of the whole script.
CHUNK = 8 * 1024


def _events(text: str) -> Iterator[list | None]:
    """The elements of ``text`` in document order: ``[tag, attrs, line]``
    where one starts and ``None`` where one ends. Expat reads the text a
    chunk at a time, and each chunk's elements are taken before the next
    chunk is read. A fault of XML syntax or stray text is raised when its
    chunk is read."""
    parser = expat.ParserCreate()
    events: list[list | None] = []

    def start(tag, attrs):
        # Expat fills ``attrs`` in document order. A list, not a tuple:
        # CPython keeps up to 2 000 freed 3-tuples for reuse and
        # tracemalloc still counts them, so tuple events would raise the
        # memory peak of the run that follows the load.
        events.append([tag, attrs, parser.CurrentLineNumber])

    def chars(data):
        if data.strip():
            raise ScriptError(f"unexpected text content {data.strip()!r}",
                              line=parser.CurrentLineNumber)

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: events.append(None)
    parser.CharacterDataHandler = chars
    at = 0
    try:
        while True:
            # Each chunk ends just after a line end: expat splits text
            # content where a chunk ends, which would change the text
            # that a stray-text fault names.
            end = text.find("\n", at + CHUNK) + 1 or len(text)
            final = end == len(text)
            try:
                parser.Parse(text[at:end], final)
            except expat.ExpatError as exc:
                raise ScriptError(expat.errors.messages[exc.code],
                                  line=exc.lineno) from None
            if final:
                break
            yield from events
            events.clear()
            at = end
    finally:
        # Two handlers close over the parser: break that cycle so that it
        # is freed by reference counting, not by a later collection.
        parser.StartElementHandler = None
        parser.CharacterDataHandler = None
    # Expat's state (11-15 KiB) is freed before the last chunk is walked,
    # so a script of one chunk costs what it did when expat read it whole.
    del parser
    yield from events


def _require_attrs(tag: str, attrs: dict[str, str], line: int,
                   names: tuple[str, ...]):
    for name in names:
        if name not in attrs:
            raise ScriptError(f"<{tag}> is missing attribute '{name}'",
                              line=line)
    for name in attrs:
        if name not in names:
            raise ScriptError(f"<{tag}> has unexpected attribute '{name}'",
                              line=line)


def _children(events: Iterator[list | None], tag: str,
              names: tuple[str, ...], where: str = ""
              ) -> Iterator[tuple[dict[str, str], int]]:
    """The children of the element whose start was read last, each held to
    the child-element rule: a ``<tag>`` with exactly the attributes
    ``names``. Yields each child's attributes and line; the caller reads
    the child's own content from ``events`` before it takes the next."""
    for child, attrs, line in iter(events.__next__, None):
        if child != tag:
            raise ScriptError(f"unexpected element <{child}>{where}",
                              line=line)
        _require_attrs(child, attrs, line, names)
        yield attrs, line


def classify_value(text: str, line: int | None = None) -> ParamValue:
    """Map an attribute value to its parameter type.

    A scalar first (``sheets.parse_scalar``: INF, a bit literal or a
    number), else an expression that is more than a number; anything else
    is a schema violation.
    """
    with suppress(ValueError):
        return parse_scalar(text)
    try:
        return parse_expr(text)
    except ExprError as exc:
        raise ScriptError(f"bad parameter value {text!r}: {exc}",
                          line=line) from None


def _name(name: str, what: str, line: int) -> str:
    """A signal name or pin: the sheet identifier rule, in lowercase."""
    if check_ident(name, ScriptError, what, line=line) != name.lower():
        raise ScriptError(f"{what} '{name}' must be lowercase in scripts",
                          line=line)
    return name


def _invocation(tag: str, attrs: dict[str, str], line: int
                ) -> MethodInvocation:
    """A method element as an invocation, under the name rule for its
    method and parameter names and with its attribute values classified."""
    tag = check_name(tag, ScriptError, "method", line=line)
    return MethodInvocation(tag, {
        check_name(key, ScriptError, f"<{tag}> parameter", line=line):
            classify_value(text, line)
        for key, text in attrs.items()})


def _parse_statements(events: Iterator[list | None],
                      manifest: dict[str, ScriptSignal], where: str,
                      invocations: dict[tuple, MethodInvocation]
                      ) -> list[Statement]:
    """The statements of ``<init>`` or of a step, under the direction and
    bound rules and the rule that ``<init>`` holds no check. ``invocations``
    gives equal method elements of one script (same tag, same attributes in
    the same order) one ``MethodInvocation``: a repeated element skips the
    name, value and bound rules, but not the direction and ``<init>`` rules,
    as it may sit on a signal of the other direction or in ``<init>``. What
    fails is not kept, so the error names the first line that uses it."""
    statements: list[Statement] = []
    for attrs, line in _children(events, "signal", ("name",), f" in {where}"):
        name = attrs["name"]
        entry = manifest.get(name)
        if entry is None:  # each manifest name has passed _name
            _name(name, "signal name", line)
            raise ScriptError(f"signal '{name}' is not in the manifest",
                              line=line)
        # The manifest's string, not expat's fresh copy of it.
        name, direction = entry.name, entry.direction
        count = len(statements)
        for tag, method_attrs, method_line in iter(events.__next__, None):
            if next(events) is not None:
                raise ScriptError(f"method <{tag}> must be empty",
                                  line=method_line)
            element = (tag, *method_attrs.items())
            inv = invocations.get(element)
            fresh = inv is None
            if fresh:
                inv = _invocation(tag, method_attrs, method_line)
            cls = method_class(tag)
            # Unknown classes load as one-shots; the stand decides them.
            if cls is not None and not fits_direction(cls, direction):
                raise ScriptError(f"{cls}-class method '{tag}' on "
                                  f"{direction} signal '{name}'",
                                  line=method_line)
            if fresh:
                if cls == "get" and inv.bounds() == (None, None):
                    # The script form of the status rule: a check sets min
                    # or max.
                    raise ScriptError(f"check method '{tag}' has no bound "
                                      f"(a *_min or *_max number or "
                                      f"expression)", line=method_line)
                invocations[element] = inv
            if cls == "get" and where == "<init>":
                raise ScriptError(f"check method '{tag}' is not allowed in "
                                  f"<init>", line=method_line)
            statements.append(Statement(name, inv))
        if len(statements) == count:
            raise ScriptError(f"signal '{name}' has no method statement",
                              line=line)
    return statements


def load_script(text: str) -> TestScript:
    """Parse and validate a test script; raises ScriptError with a line
    number on any schema violation. What the statements do at run time is
    the runner's business (``runner.execute``)."""
    events = _events(text)
    try:
        return _walk(events)
    finally:
        # Expat reads the rest of the text after the walk, whether it ended
        # at </test> or at a schema fault: a fault of XML syntax or stray
        # text anywhere wins, as if the whole text were read first.
        for _ in events:
            pass


def _walk(events: Iterator[list | None]) -> TestScript:
    """The script whose elements ``events`` yields, read in one walk up to
    the end of ``<test>``."""
    tag, test, line = next(events)
    if tag != "test":
        raise ScriptError(f"root element must be <test>, got <{tag}>",
                          line=line)
    _require_attrs(tag, test, line, ("name", "dut", "format"))
    if test["format"] != FORMAT_VERSION:
        raise ScriptError(f"unsupported format '{test['format']}' "
                          f"(this interpreter reads format {FORMAT_VERSION})",
                          line=line)

    event = next(events)
    if event is None or event[0] != "signals":
        raise ScriptError("first element must be the <signals> manifest",
                          line=line)
    _require_attrs(*event, ())
    order: list[ScriptSignal] = []
    lines: list[dict[str, int]] = []
    for attrs, at in _children(events, "signal", ("name", "direction", "pins"),
                               " in manifest"):
        if next(events) is not None:
            raise ScriptError("manifest entries must be empty elements",
                              line=at)
        name = _name(attrs["name"], "signal name", at)
        order.append(ScriptSignal(
            name, check_direction(attrs["direction"], f"signal {name}",
                                  ScriptError, line=at),
            tuple(_name(pin, "pin", at) for pin in attrs["pins"].split("|"))))
        lines.append({"line": at})
    check_unique(((sig.name, at) for sig, at in zip(order, lines)),
                 "manifest signal", ScriptError)
    check_unique(((pin, at) for sig, at in zip(order, lines)
                  for pin in sig.pins), "pin", ScriptError)
    manifest = {sig.name: sig for sig in order}

    event = next(events)
    if event is None or event[0] != "init":
        raise ScriptError("expected <init> after the manifest", line=line)
    _require_attrs(*event, ("dt",))
    invocations: dict[tuple, MethodInvocation] = {}  # see _parse_statements
    init = Block(-1, parse_dwell(event[1]["dt"], ScriptError, line=event[2]),
                 _parse_statements(events, manifest, "<init>", invocations))

    # A script reuses few dwell texts: each is read once, and its steps
    # share one Decimal. A text that fails is not kept.
    dts: dict[str, Decimal] = {}
    steps: list[Block] = []
    for pos, (attrs, at) in enumerate(_children(events, "step", ("n", "dt"))):
        index = check_step_order(
            parse_step_index(attrs["n"], ScriptError, line=at),
            pos, ScriptError, line=at)
        dt = dts.get(attrs["dt"])
        if dt is None:
            dt = dts[attrs["dt"]] = parse_dwell(attrs["dt"], ScriptError,
                                                line=at)
        steps.append(Block(index, dt,
                           _parse_statements(events, manifest, f"step {index}",
                                             invocations)))
    check_has_steps(steps, ScriptError, line=line)

    return TestScript(test["name"], test["dut"], order, init, steps)

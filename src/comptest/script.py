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
from xml.parsers import expat

from .compiler import (FORMAT_VERSION, Block, MethodInvocation, ParamValue,
                       ScriptSignal, Statement, TestScript)
from .errors import ExprError, ScriptError
from .expr import parse_expr
from .sheets import (check_direction, check_has_steps, check_ident,
                     check_name, check_step_order, check_unique,
                     fits_direction, method_class, parse_dwell, parse_scalar,
                     parse_step_index)


class _Node:
    __slots__ = ("tag", "attrs", "line", "children")

    def __init__(self, tag: str, attrs: dict[str, str], line: int):
        self.tag, self.attrs, self.line = tag, attrs, line
        self.children: list[_Node] = []


def _parse_tree(text: str) -> _Node:
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    root: list[_Node] = []
    stack: list[_Node] = []

    def start(tag, attr_list):
        attrs = dict(zip(attr_list[0::2], attr_list[1::2]))
        node = _Node(tag, attrs, parser.CurrentLineNumber)
        if stack:
            stack[-1].children.append(node)
        else:
            root.append(node)
        stack.append(node)

    def end(tag):
        stack.pop()

    def chars(data):
        if data.strip():
            raise ScriptError(f"unexpected text content {data.strip()!r}",
                              line=parser.CurrentLineNumber)

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise ScriptError(expat.errors.messages[exc.code],
                          line=exc.lineno) from None
    finally:
        # The handlers close over the parser: break that cycle so that the
        # tree is freed by reference counting, not by a later collection.
        parser.StartElementHandler = None
        parser.EndElementHandler = None
        parser.CharacterDataHandler = None
    return root[0]


def _require_attrs(node: _Node, names: tuple[str, ...]):
    for name in names:
        if name not in node.attrs:
            raise ScriptError(f"<{node.tag}> is missing attribute '{name}'",
                              line=node.line)
    for name in node.attrs:
        if name not in names:
            raise ScriptError(f"<{node.tag}> has unexpected attribute '{name}'",
                              line=node.line)


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


def _invocation(node: _Node) -> MethodInvocation:
    """A method element as an invocation, under the name rule for its
    method and parameter names and with its attribute values classified."""
    tag = check_name(node.tag, ScriptError, "method", line=node.line)
    return MethodInvocation(tag, {
        check_name(key, ScriptError, f"<{tag}> parameter", line=node.line):
            classify_value(text, node.line)
        for key, text in node.attrs.items()})


def _parse_statements(parent: _Node, manifest: dict[str, ScriptSignal],
                      where: str, invocations: dict[tuple, MethodInvocation]
                      ) -> list[Statement]:
    """The statements of ``<init>`` or of a step, under the direction and
    bound rules and the rule that ``<init>`` holds no check. ``invocations``
    gives equal method elements of one script (same tag, same attributes in
    the same order) one ``MethodInvocation``: a repeated element skips the
    name, value and bound rules, but not the direction and ``<init>`` rules,
    as it may sit on a signal of the other direction or in ``<init>``. What
    fails is not kept, so the error names the first line that uses it."""
    statements: list[Statement] = []
    for node in parent.children:
        if node.tag != "signal":
            raise ScriptError(f"unexpected element <{node.tag}> in {where}",
                              line=node.line)
        _require_attrs(node, ("name",))
        name = node.attrs["name"]
        if name not in manifest:  # each manifest name has passed _name
            _name(name, "signal name", node.line)
            raise ScriptError(f"signal '{name}' is not in the manifest",
                              line=node.line)
        if not node.children:
            raise ScriptError(f"signal '{name}' has no method statement",
                              line=node.line)
        for method_node in node.children:
            tag = method_node.tag
            if method_node.children:
                raise ScriptError(f"method <{tag}> must be empty",
                                  line=method_node.line)
            element = (tag, *method_node.attrs.items())
            inv = invocations.get(element)
            fresh = inv is None
            if fresh:
                inv = _invocation(method_node)
            cls = method_class(tag)
            direction = manifest[name].direction
            # Unknown classes load as one-shots; the stand decides them.
            if cls is not None and not fits_direction(cls, direction):
                raise ScriptError(f"{cls}-class method '{tag}' on "
                                  f"{direction} signal '{name}'",
                                  line=method_node.line)
            if fresh:
                if cls == "get" and inv.bounds() == (None, None):
                    # The script form of the status rule: a check sets min
                    # or max.
                    raise ScriptError(f"check method '{tag}' has no bound "
                                      f"(a *_min or *_max number or "
                                      f"expression)", line=method_node.line)
                invocations[element] = inv
            if cls == "get" and where == "<init>":
                raise ScriptError(f"check method '{tag}' is not allowed in "
                                  f"<init>", line=method_node.line)
            statements.append(Statement(name, inv))
    return statements


def load_script(text: str) -> TestScript:
    """Parse and validate a test script; raises ScriptError with a line
    number on any schema violation. What the statements do at run time is
    the runner's business (``runner.execute``)."""
    root = _parse_tree(text)
    if root.tag != "test":
        raise ScriptError(f"root element must be <test>, got <{root.tag}>",
                          line=root.line)
    _require_attrs(root, ("name", "dut", "format"))
    if root.attrs["format"] != FORMAT_VERSION:
        raise ScriptError(f"unsupported format '{root.attrs['format']}' "
                          f"(this interpreter reads format {FORMAT_VERSION})",
                          line=root.line)

    children = list(root.children)
    if not children or children[0].tag != "signals":
        raise ScriptError("first element must be the <signals> manifest",
                          line=root.line)
    signals_node = children[0]
    _require_attrs(signals_node, ())
    order: list[ScriptSignal] = []
    for node in signals_node.children:
        if node.tag != "signal":
            raise ScriptError(f"unexpected element <{node.tag}> in manifest",
                              line=node.line)
        _require_attrs(node, ("name", "direction", "pins"))
        if node.children:
            raise ScriptError("manifest entries must be empty elements",
                              line=node.line)
        name = _name(node.attrs["name"], "signal name", node.line)
        order.append(ScriptSignal(
            name, check_direction(node.attrs["direction"], f"signal {name}",
                                  ScriptError, line=node.line),
            tuple(_name(pin, "pin", node.line)
                  for pin in node.attrs["pins"].split("|"))))
    lines = [{"line": node.line} for node in signals_node.children]
    check_unique(((sig.name, at) for sig, at in zip(order, lines)),
                 "manifest signal", ScriptError)
    check_unique(((pin, at) for sig, at in zip(order, lines)
                  for pin in sig.pins), "pin", ScriptError)
    manifest = {sig.name: sig for sig in order}

    if len(children) < 2 or children[1].tag != "init":
        raise ScriptError("expected <init> after the manifest", line=root.line)
    init_node = children[1]
    _require_attrs(init_node, ("dt",))
    invocations: dict[tuple, MethodInvocation] = {}  # see _parse_statements
    init = Block(-1, parse_dwell(init_node.attrs["dt"], ScriptError,
                                 line=init_node.line),
                 _parse_statements(init_node, manifest, "<init>",
                                   invocations))

    steps: list[Block] = []
    for pos, node in enumerate(children[2:]):
        if node.tag != "step":
            raise ScriptError(f"unexpected element <{node.tag}>", line=node.line)
        _require_attrs(node, ("n", "dt"))
        index = check_step_order(
            parse_step_index(node.attrs["n"], ScriptError, line=node.line),
            pos, ScriptError, line=node.line)
        steps.append(Block(index, parse_dwell(node.attrs["dt"], ScriptError,
                                              line=node.line),
                           _parse_statements(node, manifest, f"step {index}",
                                             invocations)))
    check_has_steps(steps, ScriptError, line=root.line)

    return TestScript(root.attrs["name"], root.attrs["dut"], order, init, steps)

"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import string
from decimal import Decimal

from hypothesis import strategies as st

from comptest import (ConnectionMatrix, Connector, MethodInvocation,
                      ResourceDef, ResourceTable, SignalDef, SignalTable,
                      StatusDef, StatusTable, TestSequence, TestStep, INF)
from comptest.compiler import Block, ScriptSignal, Statement, TestScript
from comptest.expr import BinOp, Num, Paren, Var
from comptest.runner import (Abort, CheckRecord, RunReport, StepRecord,
                             StimulusRecord)

idents = st.text(alphabet=string.ascii_letters + string.digits + "_",
                 min_size=1, max_size=8).filter(lambda s: s.strip() == s)
names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
lower_idents = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)

decimals = st.decimals(allow_nan=False, allow_infinity=False,
                       min_value=Decimal("-1e12"), max_value=Decimal("1e12"),
                       places=6)
positive_decimals = st.decimals(min_value=Decimal("0.001"),
                                max_value=Decimal("100000"), places=3)
bit_literals = st.from_regex(r"[01]{1,8}B", fullmatch=True)
scalars = st.one_of(decimals, bit_literals, st.just(INF))
remarks = st.one_of(st.none(), st.text(
    alphabet=string.ascii_letters + string.digits + " ,.;", min_size=1,
    max_size=20).filter(lambda s: s.strip() == s and s != ""))


@st.composite
def status_tables(draw) -> StatusTable:
    status_names = draw(st.lists(idents, min_size=1, max_size=6, unique=True))
    rows = []
    for name in status_names:
        method = draw(st.sampled_from(["put_r", "put_can", "get_u", "put_v"]))
        # var (x) obeys the name rule that StatusDef enforces
        var_x = draw(st.one_of(st.none(), names))
        # ... and so do the status-row rules: a get needs min or max, a put
        # needs nom or d1..d3, and a scaled put's nom is a number.
        noms = decimals if var_x and method.startswith("put") else scalars
        row = dict(
            nom=draw(st.one_of(st.none(), noms)),
            min=draw(st.one_of(st.none(), decimals)),
            max=draw(st.one_of(st.none(), decimals)),
            d1=draw(st.one_of(st.none(), scalars)),
            d2=draw(st.one_of(st.none(), scalars)),
            d3=draw(st.one_of(st.none(), scalars)),
        )
        if method.startswith("get") and row["min"] is None and row["max"] is None:
            row["min"] = draw(decimals)
        if method.startswith("put") and all(
                row[k] is None for k in ("nom", "d1", "d2", "d3")):
            row["nom"] = draw(noms)
        rows.append(StatusDef(
            status=name,
            method=method,
            attribut=draw(st.sampled_from(["r", "u", "data", "v"])),
            var_x=var_x,
            unit=draw(st.one_of(st.none(), st.sampled_from(["V", "Ω", "ms"]))),
            **row,
        ))
    return StatusTable(rows)


@st.composite
def signal_tables(draw) -> SignalTable:
    # Signal names and pins are unique ignoring case (SignalTable).
    names = draw(st.lists(idents, min_size=1, max_size=5, unique_by=str.lower))
    pin_pool = draw(st.lists(idents, min_size=len(names) * 3,
                             max_size=len(names) * 3, unique_by=str.lower))
    rows = []
    for i, name in enumerate(names):
        n_pins = draw(st.integers(min_value=1, max_value=3))
        pins = tuple(pin_pool[i * 3:i * 3 + n_pins])
        rows.append(SignalDef(
            name=name,
            direction=draw(st.sampled_from(["input", "output"])),
            pins=pins,
            initial_status=draw(idents),
        ))
    return SignalTable(rows)


@st.composite
def test_sequences(draw, signal_names: list[str] | None = None) -> TestSequence:
    if signal_names is None:
        signal_names = draw(st.lists(idents, min_size=1, max_size=5,
                                     unique=True))
    n_steps = draw(st.integers(min_value=1, max_value=6))
    steps = []
    for index in range(n_steps):
        assigned = draw(st.lists(st.sampled_from(signal_names), max_size=4,
                                 unique=True))
        assignments = {name: draw(idents) for name in assigned}
        steps.append(TestStep(index, draw(positive_decimals), assignments,
                              draw(remarks)))
    return TestSequence(draw(idents), steps)


@st.composite
def resource_tables(draw) -> ResourceTable:
    ids = draw(st.lists(idents, min_size=1, max_size=5, unique=True))
    spans = st.decimals(min_value=0, max_value=Decimal("1e6"),
                        allow_nan=False, allow_infinity=False, places=3)
    rows = []
    for rid in ids:
        low = draw(decimals)
        high = low + draw(spans)
        rows.append(ResourceDef(rid, draw(st.sampled_from(["put_r", "get_u"])),
                                draw(st.sampled_from(["r", "u"])), low, high,
                                draw(st.sampled_from(["", "V", "Ω"]))))
    return ResourceTable(rows)


@st.composite
def connection_matrices(draw) -> ConnectionMatrix:
    pins = draw(st.lists(lower_idents, min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(idents, min_size=1, max_size=4, unique=True))
    cells = {}
    for rid in rows:
        for pin in pins:
            if draw(st.booleans()):
                cells[(rid, pin)] = Connector(
                    draw(st.sampled_from(["switch", "mux"])),
                    draw(st.integers(min_value=1, max_value=9)),
                    draw(st.integers(min_value=1, max_value=9)))
    return ConnectionMatrix(pins, rows, cells)


# --- expression trees in grammar shape (render/parse is lossless on them) --

expr_numbers = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(Decimal),
    st.tuples(st.sampled_from("+-"), st.integers(0, 999),
              st.integers(0, 99)).map(
        lambda t: Decimal(f"{t[0]}{t[1]}.{t[2]:02d}")),
    st.sampled_from([Decimal("1.00E+6"), Decimal("-1.00E+6")]),
).map(Num)
expr_vars = st.sampled_from(
    ["ubatt", "vref", "a", "b", "c", "x0", "temp_c"]).map(Var)


@st.composite
def expressions(draw, depth: int = 2):
    """Random trees shaped like the grammar, so rendering re-parses exactly."""

    def factor(d):
        kind = draw(st.integers(0, 2 if d > 0 else 1))
        if kind == 0:
            return draw(expr_numbers)
        if kind == 1:
            return draw(expr_vars)
        return Paren(expr(d - 1))

    def term(d):
        node = factor(d)
        if draw(st.booleans()):
            node = BinOp(draw(st.sampled_from("*/")), node, factor(d))
        return node

    def expr(d):
        node = term(d)
        if draw(st.booleans()):
            node = BinOp(draw(st.sampled_from("+-")), node, term(d))
        return node

    return expr(depth)


# --- whole scripts ----------------------------------------------------------

def _param_safe(e):
    # a bare Num loads back as a plain number and a bare variable named
    # "inf" would load as the INF marker; exclude both
    if isinstance(e, Num):
        return False
    if isinstance(e, Var) and e.name == "inf":
        return False
    return True


param_values = st.one_of(
    decimals,
    bit_literals,
    st.just(INF),
    expressions().filter(_param_safe),
)


@st.composite
def invocations(draw, cls: str) -> MethodInvocation:
    prefix = {"put": "put_", "get": "get_"}[cls]
    method = prefix + draw(st.sampled_from(["r", "u", "can", "v", "i"]))
    names = draw(st.lists(lower_idents, min_size=1, max_size=3, unique=True))
    params = {n: draw(param_values) for n in names}
    if cls == "get":
        # A check carries a bound: a number or an expression (load_script).
        bound = draw(lower_idents) + draw(st.sampled_from(["_min", "_max"]))
        params[bound] = draw(st.one_of(decimals,
                                       expressions().filter(_param_safe)))
    return MethodInvocation(method, params)


@st.composite
def test_scripts(draw) -> TestScript:
    n_signals = draw(st.integers(min_value=1, max_value=4))
    names = draw(st.lists(lower_idents, min_size=n_signals, max_size=n_signals,
                          unique=True))
    pin_pool = draw(st.lists(lower_idents, min_size=n_signals * 2,
                             max_size=n_signals * 2, unique=True))
    manifest = []
    for i, name in enumerate(names):
        n_pins = draw(st.integers(min_value=1, max_value=2))
        manifest.append(ScriptSignal(
            name, draw(st.sampled_from(["input", "output"])),
            tuple(pin_pool[i * 2:i * 2 + n_pins])))
    inputs = [s for s in manifest if s.direction == "input"]
    outputs = [s for s in manifest if s.direction == "output"]
    init = Block(-1, draw(positive_decimals), [
        Statement(s.name, draw(invocations("put"))) for s in inputs])
    steps = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        statements = []
        for sig in draw(st.lists(st.sampled_from(manifest), max_size=3,
                                 unique_by=lambda s: s.name)):
            cls = "put" if sig.direction == "input" else "get"
            statements.append(Statement(sig.name, draw(invocations(cls))))
        steps.append(Block(index, draw(positive_decimals), statements))
    return TestScript(draw(idents), draw(idents), manifest, init, steps)


# --- run reports, for the JSON writer ---------------------------------------

#: Any text, with the characters JSON escapes or that are easy to get wrong
#: drawn often: quote, backslash, controls, non-ASCII, U+2028, astral.
report_texts = st.text(alphabet=st.one_of(
    st.sampled_from('"\\\x00\x08\t\n\x1f\x7fé\u2028\u2029\U0001F600a'),
    st.characters()), max_size=6)
optional_texts = st.none() | report_texts
report_decimals = st.decimals(allow_nan=False, allow_infinity=False,
                              min_value=Decimal("-1e9"),
                              max_value=Decimal("1e9"))
optional_decimals = st.none() | st.decimals()


stimulus_records = st.builds(
    StimulusRecord, report_texts, report_texts, report_texts,
    st.dictionaries(report_texts, report_texts, max_size=3), report_texts,
    optional_texts, optional_texts, st.booleans(), st.booleans())
check_records = st.builds(
    CheckRecord, report_texts, report_texts, report_texts,
    optional_decimals, optional_decimals, st.decimals(), st.booleans())


def _twins(value: Decimal | None):
    """Another object equal to ``value``: printed the same, or, if it is
    finite, with one more trailing zero (``1.0`` for ``1``, ``1.00`` for
    ``1.0``). A text reused for an equal but distinct bound or reading
    would show."""
    if value is None:
        return st.none()
    same = st.builds(Decimal, st.just(str(value)))
    if not value.is_finite():
        return same
    sign, digits, exponent = value.as_tuple()
    return same | st.builds(Decimal, st.just((sign, digits + (0,),
                                              exponent - 1)))


def _stimulus_variant(r: StimulusRecord):
    """A new record like ``r``: with the same fields, with params equal to
    its own in a new dict (in its order, or reversed, which prints
    otherwise), or with other fields new."""
    return st.one_of(
        st.builds(r._replace),
        st.sampled_from((r.params, dict(reversed(r.params.items())))).map(
            lambda params: r._replace(params=dict(params))),
        st.fixed_dictionaries({}, optional={
            "params": st.dictionaries(report_texts, report_texts,
                                      max_size=3),
            "resource": optional_texts, "held": st.booleans(),
            "changed": st.booleans()}).map(lambda new: r._replace(**new)))


def _check_variant(c: CheckRecord):
    """A new record like ``c``, as a check restated on a held signal is:
    with the same fields, the other verdict, a reading that is the same,
    equal to its own (``_twins``) or new with any verdict, bounds equal to
    its own, or one of its names new."""
    return st.one_of(
        st.builds(c._replace),
        st.builds(c._replace, passed=st.just(not c.passed)),
        st.builds(lambda measured, passed: c._replace(measured=measured,
                                                      passed=passed),
                  st.just(c.measured) | _twins(c.measured) | st.decimals(),
                  st.booleans()),
        st.builds(lambda low, high: c._replace(low=low, high=high),
                  _twins(c.low), _twins(c.high)),
        st.sampled_from(("signal", "pin", "method")).flatmap(
            lambda name: report_texts.map(
                lambda text: c._replace(**{name: text}))))


@st.composite
def _records_after(draw, before: list, fresh, variant) -> list:
    """The records of a block after one with ``before``, as a plan shares
    them: up to two more or fewer, each the record at its index in
    ``before``, another of them, a ``variant`` of the one at its index (or
    of the last) or ``fresh``."""
    records = []
    for i in range(draw(st.integers(max(0, len(before) - 2),
                                    len(before) + 2))):
        how = draw(st.integers(0, 4)) if before else 4
        if how == 0 and i < len(before):
            records.append(before[i])
        elif how < 2:
            records.append(draw(st.sampled_from(before)))
        elif how < 4:
            records.append(draw(variant(before[min(i, len(before) - 1)])))
        else:
            records.append(draw(fresh))
    return records


@st.composite
def run_reports(draw) -> RunReport:
    """A report as a run ends: completed, or aborted at the init block
    (-1) or a step, with a kind and a message. Each block's records are
    drawn after those of the block before it (``_records_after``), the
    first step's after the init block's."""
    blocks: list[StepRecord] = []
    stimuli: list[StimulusRecord] = []
    checks: list[CheckRecord] = []
    for _ in range(draw(st.integers(0, 5))):
        stimuli = draw(_records_after(stimuli, stimulus_records,
                                      _stimulus_variant))
        checks = draw(_records_after(checks, check_records, _check_variant))
        blocks.append(StepRecord(
            draw(st.integers(-1, 10 ** 6)), draw(report_decimals),
            draw(report_decimals), stimuli, checks))
    settle = blocks.pop(0) if blocks and draw(st.booleans()) else None
    return RunReport(
        draw(report_texts), draw(report_texts),
        draw(st.none() | st.builds(Abort, st.integers(-1, 10 ** 6),
                                   report_texts, report_texts)),
        settle=settle, steps=blocks,
        steps_total=draw(st.integers(0, 10 ** 6)))

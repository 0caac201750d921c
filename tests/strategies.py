"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import string
from decimal import Decimal

from hypothesis import strategies as st

from comptest import (ConnectionMatrix, Connector, MethodInvocation,
                      ResourceDef, ResourceTable, SignalDef, SignalTable,
                      StatusDef, StatusTable, TestSequence, TestStep, INF)
from comptest.compiler import InitBlock, ScriptSignal, ScriptStep, Statement, TestScript
from comptest.expr import BinOp, Num, Paren, Var
from comptest.runner import CheckRecord, RunReport, StepRecord, StimulusRecord

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
    init = InitBlock(draw(positive_decimals), [
        Statement(s.name, draw(invocations("put"))) for s in inputs])
    steps = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        statements = []
        for sig in draw(st.lists(st.sampled_from(manifest), max_size=3,
                                 unique_by=lambda s: s.name)):
            cls = "put" if sig.direction == "input" else "get"
            statements.append(Statement(sig.name, draw(invocations(cls))))
        steps.append(ScriptStep(index, draw(positive_decimals), statements))
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


@st.composite
def step_records(draw) -> StepRecord:
    stimuli = draw(st.lists(st.builds(
        StimulusRecord, report_texts, report_texts, report_texts,
        st.dictionaries(report_texts, report_texts, max_size=3),
        report_texts, optional_texts, optional_texts, st.booleans(),
        st.booleans()), max_size=2))
    checks = draw(st.lists(st.builds(
        CheckRecord, report_texts, report_texts, report_texts,
        optional_decimals, optional_decimals, st.decimals(), st.booleans()),
        max_size=2))
    return StepRecord(draw(st.integers(-1, 10 ** 6)), draw(report_decimals),
                      draw(report_decimals), stimuli, checks)


@st.composite
def run_reports(draw) -> RunReport:
    aborted = draw(st.booleans())
    return RunReport(
        draw(report_texts), draw(report_texts), overall=draw(st.booleans()),
        aborted=aborted,
        abort_step=draw(st.none() | st.integers(-1, 10 ** 6)),
        abort_kind=draw(optional_texts), abort_message=draw(optional_texts),
        settle=draw(st.none() | step_records()),
        steps=draw(st.lists(step_records(), max_size=2)),
        steps_total=draw(st.integers(0, 10 ** 6)))

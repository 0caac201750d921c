"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is exact unless a wall-clock budget is stated.
"""

import random
import time
from decimal import Decimal
from pathlib import Path

from comptest import (AllocationError, INF, InteriorLightConfig,
                      InteriorLightDut, MethodInvocation, Requirement,
                      SignalDef, SignalTable, StatusDef, StatusTable,
                      TestSequence, TestStep, allocate, compile, emit_xml,
                      execute, load_script, parse_expr, parse_signal_sheet,
                      parse_status_sheet, parse_test_sheet, render_expr,
                      serialize_signal_sheet, serialize_status_sheet,
                      serialize_test_sheet, CsvDialect)
from comptest.expr import BinOp, Num, Paren, Var

from oracles import (assert_allocation_sound, enumeration_feasible,
                     random_stand_case)

DATA = Path(__file__).resolve().parent.parent / "data" / "interior_light"

GOLDEN_FRAGMENT = (
    '<signal name="int_ill">\n'
    '  <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />\n'
    "</signal>")


def record(cid: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_c1_golden_xml_fragment(demo_signals, demo_statuses, demo_test):
    start = time.perf_counter()
    xml = emit_xml(compile(demo_signals, demo_statuses, demo_test,
                           dut="interior_light_ecu"))
    elapsed = time.perf_counter() - start
    lines = xml.splitlines()
    step7_at = next(i for i, line in enumerate(lines)
                    if line.strip() == '<step n="7" dt="280">')
    got = "\n".join(line[4:] for line in lines[step7_at + 1:step7_at + 4])
    ok = got == GOLDEN_FRAGMENT and elapsed < 1.0
    record("C1 golden-fragment", ok,
           f"step-7 statement char-identical, {elapsed:.3f}s")


def test_c2_end_to_end_example(demo_loaded, demo_stand, demo_env):
    start = time.perf_counter()
    dut = InteriorLightDut(InteriorLightConfig(ubatt=Decimal("12.0")))
    report = execute(demo_loaded, demo_stand, demo_env, dut)
    elapsed = time.perf_counter() - start
    through_step8 = sum((s.dt for s in report.steps[:9]), Decimal("0"))
    ok = (report.overall and report.abort is None
          and report.steps_passed == 10 and report.steps_total == 10
          and through_step8 == Decimal("308.5")      # 0.5*7 + 280 + 25
          and report.step_time == Decimal("309.0")   # all ten dwells
          and elapsed < 1.0)
    record("C2 end-to-end", ok,
           f"10/10 steps, 308.5s through step 8, {elapsed:.3f}s wall")


def test_c3_timeout_sensitivity(demo_loaded, demo_stand, demo_env):
    failures = {}
    for timeout in ("250", "310"):
        dut = InteriorLightDut(InteriorLightConfig(ubatt=Decimal("12.0"),
                                                timeout_s=Decimal(timeout)))
        report = execute(demo_loaded, demo_stand, demo_env, dut)
        failures[timeout] = [s.index for s in report.steps if not s.passed]
    ok = failures["250"] == [7] and failures["310"] == [8]
    record("C3 timeout-sensitivity", ok,
           f"250s fails {failures['250']}, 310s fails {failures['310']}")


def test_c4_allocation_oracle_equivalence():
    rng = random.Random(4242)
    start = time.perf_counter()
    feasible = infeasible = 0
    ok = True
    for _ in range(200):
        stand, reqs = random_stand_case(rng)
        expected = enumeration_feasible(reqs, stand)
        try:
            alloc = allocate(reqs, stand)
        except AllocationError:
            ok = ok and not expected
            infeasible += 1
        else:
            ok = ok and expected
            assert_allocation_sound(reqs, stand, alloc)
            feasible += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    record("C4 allocation-oracle", ok,
           f"200 stands ({feasible} feasible / {infeasible} not), "
           f"{elapsed:.2f}s")


def test_c5_range_rejection(demo_stand):
    ok = True
    detail = []
    for pin in ("ds_fl", "ds_fr", "ds_rl", "ds_rr"):
        try:
            allocate([Requirement(pin, MethodInvocation(
                "put_r", {"r": Decimal("5e6")}))], demo_stand)
            ok = False
            detail.append(f"{pin}: unexpectedly allocated")
        except AllocationError as exc:
            reasons = dict(exc.candidates)
            here = (reasons.get("Ress2", "").startswith("range")
                    and reasons.get("Ress3", "").startswith("range"))
            ok = ok and here
            if here:
                detail.append(f"{pin}: both decades rejected by range")
    record("C5 range-rejection", ok, "; ".join(detail[:1]) + ", all 4 pins")


# --- C6 helpers: a seeded random corpus, independent of hypothesis ---------

def _rand_decimal(rng):
    return Decimal(rng.randint(0, 99999)) / Decimal(10) ** rng.randint(0, 3)


def _rand_status(rng, name):
    cls = rng.choice(["get", "put_r", "put_can"])
    if cls == "get":
        return StatusDef(name, "get_u", "u",
                         var_x=rng.choice([None, "UBATT", "VREF"]),
                         nom=_rand_decimal(rng), min=_rand_decimal(rng),
                         max=_rand_decimal(rng))
    if cls == "put_r":
        values = rng.choice([
            dict(nom=_rand_decimal(rng)),
            dict(nom=INF, d1=INF, d2=_rand_decimal(rng)),
            dict(nom=_rand_decimal(rng), d1=_rand_decimal(rng),
                 d2=_rand_decimal(rng), d3=_rand_decimal(rng)),
        ])
        return StatusDef(name, "put_r", "r", **values)
    bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
    return StatusDef(name, "put_can", "data", nom=bits + "B")


def _rand_tables(rng):
    rows = [_rand_status(rng, f"S{i}") for i in range(rng.randint(2, 6))]
    if not any(s.method.startswith("put") for s in rows):
        rows.append(StatusDef("SP", "put_r", "r", nom=_rand_decimal(rng)))
    statuses = StatusTable(rows)
    puts = [s.status for s in statuses if s.method.startswith("put")]
    gets = [s.status for s in statuses if s.method.startswith("get")]
    signals = []
    for i in range(rng.randint(1, 4)):
        if puts and (not gets or rng.random() < 0.6):
            direction, pool = "input", puts
        elif gets:
            direction, pool = "output", gets
        else:
            continue
        pins = tuple(f"P{i}_{j}" for j in range(rng.randint(1, 2)))
        signals.append(SignalDef(f"SIG{i}", direction, pins, rng.choice(pool)))
    if not any(s.direction == "input" for s in signals):
        signals.append(SignalDef("SIGX", "input", ("PX",), rng.choice(puts)))
    table = SignalTable(signals)
    steps = []
    for index in range(rng.randint(1, 5)):
        assignments = {}
        for sig in table:
            if rng.random() < 0.5:
                pool = puts if sig.direction == "input" else gets
                if pool:
                    assignments[sig.name] = rng.choice(pool)
        steps.append(TestStep(index, _rand_decimal(rng) + Decimal("0.001"),
                              assignments))
    return table, statuses, TestSequence(f"t{rng.randint(0, 999)}", steps)


def _rand_expr(rng, depth=2):
    kind = rng.randint(0, 2 if depth > 0 else 1)
    if kind == 0:
        return Num(_rand_decimal(rng))
    if kind == 1:
        return Var(rng.choice(["ubatt", "vref", "a", "b2"]))
    left = _rand_expr(rng, depth - 1)
    right = _rand_expr(rng, depth - 1)
    node = BinOp(rng.choice("+-*/"), left, right)
    # Parenthesize so the tree stays inside the grammar's shape.
    return Paren(node)


def test_c6_round_trips():
    rng = random.Random(6060)
    sheets_ok = scripts_ok = True
    for _ in range(40):
        signals, statuses, test = _rand_tables(rng)
        for dialect in (CsvDialect(), CsvDialect(decimal_separator=".")):
            sheets_ok &= parse_signal_sheet(
                serialize_signal_sheet(signals, dialect), dialect
            ).signals == signals.signals
            sheets_ok &= parse_status_sheet(
                serialize_status_sheet(statuses, dialect), dialect
            ).statuses == statuses.statuses
            sheets_ok &= parse_test_sheet(
                serialize_test_sheet(test, dialect), dialect, name=test.name
            ) == test
        script = compile(signals, statuses, test)
        scripts_ok &= load_script(emit_xml(script)) == script
    exprs_ok = all(parse_expr(render_expr(tree)) == tree
                   for tree in (_rand_expr(rng) for _ in range(1000)))
    ok = sheets_ok and scripts_ok and exprs_ok
    record("C6 round-trips", ok,
           "40 sheet triples x 2 dialects, 40 scripts, 1000 expressions, "
           "exact")


def test_c7_supply_voltage_invariance(demo_signals, demo_statuses, demo_test,
                                      demo_stand):
    baseline = emit_xml(compile(demo_signals, demo_statuses, demo_test,
                                dut="interior_light_ecu"))
    ok = True
    for u in ("9", "12", "16"):
        xml = emit_xml(compile(demo_signals, demo_statuses, demo_test,
                               dut="interior_light_ecu"))
        ok &= xml == baseline  # no environment value reaches the compiler
        loaded = load_script(xml)
        dut = InteriorLightDut(InteriorLightConfig(ubatt=Decimal(u)))
        report = execute(loaded, demo_stand, {"ubatt": Decimal(u)}, dut)
        ok &= report.overall and report.steps_passed == 10
    record("C7 ubatt-invariance", ok,
           "identical bytes and full pass for ubatt in {9, 12, 16}")


def test_c8_locale_robustness(demo_signals, demo_statuses, demo_test):
    comma = CsvDialect()
    dot = CsvDialect(decimal_separator=".")
    outputs = []
    for dialect in (comma, dot):
        signals = parse_signal_sheet(
            serialize_signal_sheet(demo_signals, dialect), dialect)
        statuses = parse_status_sheet(
            serialize_status_sheet(demo_statuses, dialect), dialect)
        test = parse_test_sheet(
            serialize_test_sheet(demo_test, dialect), dialect,
            name="interior_light")
        outputs.append(emit_xml(compile(signals, statuses, test,
                                        dut="interior_light_ecu")))
    ok = outputs[0] == outputs[1]
    record("C8 locale-robustness", ok,
           "decimal comma and decimal point compile to identical bytes")

"""Smoke tests for the benchmark itself, at a tiny size.

Run from the root of the repository:  python3 -m pytest -q bench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import echo_dut  # noqa: E402
import gates  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    shape = gen.TINY[workload]
    gen.generate(workload, 7, tmp_path / "a", shape)
    gen.generate(workload, 7, tmp_path / "b", shape)
    gen.generate(workload, 8, tmp_path / "c", shape)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    """Each tiny workload, gated through the real comptest CLI."""
    echo_dut.register()
    out = {}
    for workload in gen.WORKLOADS:
        inputs = tmp_path_factory.mktemp(workload)
        expected = gen.generate(workload, 3, inputs, gen.TINY[workload])
        bench = run.Bench(inputs, expected, workload)
        bench.gate(inputs / "golden.xml", memory=False)
        report = json.loads(bench.reference["report.json"])
        out[workload] = bench, expected, report
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_gates_pass_on_true_outputs(gated, workload):
    bench, _, _ = gated[workload]
    assert bench.problems == []
    assert bench.failed == 0 and bench.attempted >= 6


def test_golden_gate_trips_on_one_changed_byte():
    golden = (run.GOLDEN / "expected_script.xml").read_bytes()
    assert gates.check_golden(golden, golden) == []
    tampered = golden.replace(b'dt="0.5"', b'dt="0.6"', 1)
    assert gates.check_golden(tampered, golden)


def test_identity_gate_trips_on_changed_report():
    same = {"report.json": b"{}", "script.xml": b"<test/>"}
    assert gates.check_identical(same, dict(same)) == []
    assert gates.check_identical(same, {**same, "report.json": b"{ }"})


def _tampered(report: dict, edit) -> dict:
    report = copy.deepcopy(report)
    edit(report)
    return report


OUTCOME_TAMPERS = {
    "measured": lambda r: r["steps"][1]["checks"][0].update(
        measured="99.9"),
    "verdict": lambda r: r["steps"][2]["checks"][0].update(
        passed=not r["steps"][2]["checks"][0]["passed"]),
    "held value": lambda r: r["steps"][3]["stimuli"][0]["params"].update(
        r="12345"),
    "changed flag": lambda r: r["steps"][3]["stimuli"][0].update(
        changed=not r["steps"][3]["stimuli"][0]["changed"]),
    "totals": lambda r: r["totals"].update(
        checks_failed=r["totals"]["checks_failed"] + 1),
    "missing step": lambda r: r["steps"].pop(),
}


@pytest.mark.parametrize("tamper", sorted(OUTCOME_TAMPERS))
def test_outcome_gate_trips_on_tampered_report(gated, tamper):
    _, expected, report = gated["hold_heavy"]
    assert gates.check_outcome(expected, expected["run_exit"], report) == []
    bad = _tampered(report, OUTCOME_TAMPERS[tamper])
    assert gates.check_outcome(expected, expected["run_exit"], bad)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_outcome_gate_trips_on_wrong_exit_code(gated, workload):
    _, expected, report = gated[workload]
    assert gates.check_outcome(expected, expected["run_exit"] ^ 3, report)


def test_outcome_gate_trips_on_wrong_abort(gated):
    _, expected, report = gated["pigeonhole"]
    assert report["abort"]["kind"] == "allocation"
    bad = _tampered(report, lambda r: r["abort"].update(step=0))
    assert gates.check_outcome(expected, 2, bad)
    bad = _tampered(report, lambda r: r["abort"].update(kind="environment"))
    assert gates.check_outcome(expected, 2, bad)


@pytest.mark.parametrize("shared", ["resource", "group"])
def test_exclusivity_gate_trips_on_shared_resource_or_group(gated, shared):
    _, _, report = gated["pool_churn"]
    assert gates.check_exclusive(report) == []

    def share(r):
        first, second = [s for s in r["steps"][0]["stimuli"]
                         if s["delivery"] == "resource"][:2]
        if shared == "resource":
            second["resource"] = first["resource"]
        else:
            group = first["connector"].split(".")[0]
            second["connector"] = group + ".99"

    assert gates.check_exclusive(_tampered(report, share))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_speed_scales_by_the_loop_time_around_the_call(monkeypatch):
    loops = iter([0.010, 0.010, 0.030, 0.020])
    monkeypatch.setattr(calib, "sample", lambda: next(loops))
    speed = calib.Speed(warmup=1)
    # The loop took 0.010 s before the call and 0.030 s after it, so 1 s
    # of call is 1 s * REFERENCE_S / 0.020 s at the reference speed.
    assert speed.scale(1.0) == pytest.approx(calib.REFERENCE_S / 0.020)
    # The next call is bracketed by the 0.030 s and 0.020 s samples.
    assert speed.scale(1.0) == pytest.approx(calib.REFERENCE_S / 0.025)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pigeonhole",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

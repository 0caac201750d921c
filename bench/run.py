"""The comptest benchmark: one seeded workload through the user's real path.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hold_heavy --seed 1 --seconds 30 --trace 0

The workload is generated from the seed (``gen.py``). The command then runs
``comptest compile`` (three sheets -> XML) and ``comptest run --report
json`` (XML + stand sheets + env -> report) in-process through
``comptest.cli.main``, with the benchmark's echo DUT selected by ``--dut``.
Correctness gates run before anything is timed; every later invocation is
checked against the gated bytes.

``--trace 0`` measures the end-to-end metrics: the median time of each
command over ``--seconds`` of repetitions, the median set-up time of fresh
interpreters started evenly over that time, the ``tracemalloc`` peak of a
separate untimed pass and the output sizes. Times are scaled to a
reference host speed by the calibration loop of ``calib.py``, timed
around every timed call; the raw medians are printed in the summary.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.

A summary goes to standard output; its last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every gate and every checked invocation passed.
Generated inputs, outputs and the span dump are kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calib
import echo_dut
import gates
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "data" / "interior_light"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"
SETUP_PROBES = 20
#: Compiles per timed batch, so that one batch lasts 50 ms or more; the
#: calibration around a shorter call is longer than the call itself.
COMPILE_BATCH = {"hold_heavy": 2, "pool_churn": 8, "pigeonhole": 16}
MIB = 2 ** 20

END_TO_END = {
    "compile_s": "s", "run_s": "s", "setup_s": "s", "peak_mem_mib": "MiB",
    "script_bytes": "B", "report_bytes": "B",
}
_COUNTS = ("ingest.rows", "compiler.lower_calls", "script.classify_calls",
           "expr.parse_calls", "expr.eval_calls", "stand.allocate_calls",
           "stand.requirements", "stand.alloc_errors", "dut.set_input_calls",
           "dut.read_pin_calls")
_RATIOS = ("stand.held_ratio", "share.allocate_of_execute",
           "share.allocate_of_run", "share.load_render_of_run")
_TIMES = ("ingest.parse_s", "ingest.stand_parse_s", "sheets.validate_s",
          "compiler.lower_s", "compiler.self_s", "compiler.emit_s",
          "script.load_s", "expr.eval_s", "stand.allocate_s",
          "runner.execute_s", "runner.self_s", "runner.render_s",
          "dut.busy_s", "cli.self_s", "trace.run_s", "trace.overhead_s")
_SELF_LAYERS = ("ingest.parse_s", "sheets.validate_s", "compiler.lower_s",
                "compiler.self_s", "compiler.emit_s", "script.load_s",
                "ingest.stand_parse_s", "stand.allocate_s", "expr.eval_s",
                "dut.busy_s", "runner.self_s", "runner.render_s", "cli.self_s")
PER_LAYER = {**{n: "s" for n in _TIMES}, **{n: "count" for n in _COUNTS},
             **{n: "1" for n in _RATIOS}}


def _use_checkout_sources():
    """Import comptest from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "comptest" / "__init__.py").is_file():
        raise SystemExit(f"bench: error: no comptest package under {SRC}; "
                         f"run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import comptest
    if Path(comptest.__file__).resolve().parent != SRC / "comptest":
        raise SystemExit(f"bench: error: comptest imported from "
                         f"{comptest.__file__}, not from {SRC}")


class Bench:
    """Runs one generated workload and keeps the pass/fail tally."""

    def __init__(self, inputs: Path, expected: dict, workload: str):
        from comptest.cli import main
        self.main = main
        self.expected = expected
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.script = inputs / "script.xml"
        self.report = inputs / "report.json"
        sheet = lambda key: str(inputs / gen.SHEETS[key])  # noqa: E731
        self.compile_argv = [
            "compile", "--signals", sheet("signals"),
            "--statuses", sheet("statuses"), "--test", sheet("test"),
            "--name", workload, "--dut", echo_dut.NAME,
            "--settle", str(gen.SETTLE), "-o", str(self.script)]
        self.run_argv = [
            "run", "--script", str(self.script),
            "--resources", sheet("resources"),
            "--connections", sheet("connections"), "--env", sheet("env"),
            "--dut", echo_dut.NAME, "--report", "json", "-o",
            str(self.report)]
        self.reference: dict[str, bytes] | None = None
        #: Set to scale every timed call to the reference host speed.
        self.speed: calib.Speed | None = None
        self.compile_reps = 1
        self.raw: dict[str, list[float]] = {}

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def invoke(self, argv: list[str], main=None,
               reps: int = 1) -> tuple[int, float]:
        """Run one command ``reps`` times; return its exit code (``-1`` if
        the repetitions disagree) and the time of one call."""
        gc.collect()
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            codes = {(main or self.main)(argv) for _ in range(reps)}
            took = (time.perf_counter() - start) / reps
        code = codes.pop() if len(codes) == 1 else -1
        return code, self.scaled(argv[0], took)

    def scaled(self, what: str, took: float) -> float:
        if self.speed is None:
            return took
        self.raw.setdefault(what, []).append(took)
        return self.speed.scale(took)

    def once(self, main=None) -> tuple[float, float, int, dict[str, bytes]]:
        """Compile, then run. Compile's exit code is always checked; once
        the gates have set a reference, so are run's exit code and the
        bytes of both outputs."""
        for path in (self.script, self.report):
            path.unlink(missing_ok=True)
        code, compile_s = self.invoke(self.compile_argv, main,
                                      self.compile_reps)
        self.record("compile", [] if code == self.expected["compile_exit"]
                    else [f"exit code {code}"])
        run_code, run_s = self.invoke(self.run_argv, main)
        outputs = {p.name: p.read_bytes() if p.exists() else b""
                   for p in (self.script, self.report)}
        if self.reference is not None:
            problems = gates.check_identical(self.reference, outputs)
            if run_code != self.expected["run_exit"]:
                problems.append(f"run exit code {run_code}")
            self.record("run", problems)
        return compile_s, run_s, run_code, outputs

    def gate(self, golden_out: Path, memory: bool) -> float | None:
        """Every gate, before any timing. Returns the tracemalloc peak."""
        code, _ = self.invoke([
            "compile", "--signals", str(GOLDEN / "signals.csv"),
            "--statuses", str(GOLDEN / "statuses.csv"),
            "--test", str(GOLDEN / "test_interior_light.csv"),
            "--name", "interior_light", "--dut", "interior_light_ecu",
            "-o", str(golden_out)])
        self.record("golden", gates.check_golden(
            golden_out.read_bytes() if code == 0 else b"",
            (GOLDEN / "expected_script.xml").read_bytes()))

        peak = None
        if memory:
            tracemalloc.start()
        try:
            _, _, run_code, first = self.once()
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        try:
            report = json.loads(first[self.report.name])
        except ValueError as exc:
            report = {}
            self.record("report", [f"not JSON: {exc}"])
        self.record("outcome", gates.check_outcome(self.expected, run_code,
                                                   report))
        if report:
            self.record("exclusive", gates.check_exclusive(report))
        second = self.once()[3]
        self.record("identical", gates.check_identical(first, second))
        self.reference = first
        return peak

    def setup_time(self) -> float | None:
        """Set-up time of one fresh interpreter (``probe.py``)."""
        start = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(PROBE), str(self.script.parent)],
                capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            self.record("setup", ["probe timed out"])
            return None
        ready, _, resources = proc.stdout.partition(" ")
        if proc.returncode != 0 or not ready.isdigit() \
                or resources.strip() != str(self.expected["resources"]):
            self.record("setup", [f"probe failed: {proc.stderr[-300:]}"])
            return None
        self.record("setup", [])
        return self.scaled("setup", (int(ready) - start) * 1e-9)


def _timed(bench: Bench, seconds: float):
    """Repeat compile + run for ``seconds``, with the set-up probes spread
    evenly over that time; return the three lists of times."""
    compile_s, run_s, setup = [], [], []
    bench.speed = calib.Speed()
    bench.compile_reps = COMPILE_BATCH[bench.workload]
    start = time.perf_counter()
    probes = 0
    while True:
        elapsed = (time.perf_counter() - start) / seconds
        if probes < SETUP_PROBES and elapsed >= probes / SETUP_PROBES:
            probes += 1
            took = bench.setup_time()
            if took is not None:
                setup.append(took)
            continue
        if run_s and elapsed >= 1:
            break
        c, r, _, _ = bench.once()
        compile_s.append(c)
        run_s.append(r)
    return compile_s, run_s, setup


def _traced(bench: Bench, seconds: float, work: Path):
    """Alternate untraced and traced repetitions; return per-layer metrics."""
    tracer = spans.Tracer()
    traced_main = tracer.span("cli.main", bench.main)
    plain_run, traced_run, requests = [], [], []
    deadline = time.perf_counter() + seconds
    while not requests or time.perf_counter() < deadline:
        plain_run.append(bench.once()[1])
        tracer.request = len(requests) + 1
        requests.append(tracer.request)
        echo_dut.register(lambda env: tracer.wrap_dut(echo_dut.build(env)))
        try:
            with spans.instrument(tracer):
                traced_run.append(bench.once(traced_main)[1])
        finally:
            echo_dut.register()

    per = [tracer.layers(r) for r in requests]
    bench.record("invariants", [
        f"{name} varies between identical runs: "
        f"{sorted({p[name] for p in per})}"
        for name in _COUNTS if len({p[name] for p in per}) > 1])
    layers = spans.median_layers(per)
    run = statistics.median(traced_run)
    layers["trace.run_s"] = run
    layers["trace.overhead_s"] = run - statistics.median(plain_run)
    execute = layers["runner.execute_s"]
    layers["share.allocate_of_execute"] = (layers["stand.allocate_s"] / execute
                                           if execute else 0.0)
    layers["share.allocate_of_run"] = layers["stand.allocate_s"] / run
    layers["share.load_render_of_run"] = (layers["script.load_s"]
                                          + layers["runner.render_s"]) / run
    (work / "trace.json").write_text(json.dumps(
        {"requests": requests, "untraced_run_s": plain_run,
         "traced_run_s": traced_run, **tracer.dump()}) + "\n",
        encoding="utf-8")

    # The self-time layers add up to the traced compile + run.
    total = sum(layers[name] for name in _SELF_LAYERS)
    shares = ", ".join(f"{name.rsplit('_s', 1)[0]} {layers[name] / total:.1%}"
                       for name in _SELF_LAYERS)
    notes = {
        "trace.run_s": f"median of {len(requests)} traced runs",
        "trace.overhead_s": f"traced minus untraced run_s "
                            f"({layers['trace.overhead_s'] / run:+.1%})",
        "shares": f"self-time shares of traced compile + run "
                  f"({total:.4g} s): {shares}",
    }
    return layers, notes


def _print_summary(workload: str, seed: int, metrics: dict, units: dict,
                   notes: dict, bench: Bench):
    print(f"comptest benchmark: workload {workload}, seed {seed}")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:28s} {shown:>14s} {units[name]:5s} "
              f"{notes.get(name, '')}")
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'fail_ratio':28s} {ratio:>14.6g} {'1':5s} "
          f"{bench.failed} of {bench.attempted} operations failed")
    if "shares" in notes:
        print(f"  {notes['shares']}")
    for problem in bench.problems[:20]:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    echo_dut.register()

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    expected = gen.generate(args.workload, args.seed, inputs)
    bench = Bench(inputs, expected, args.workload)
    peak = bench.gate(work / "golden_script.xml", memory=not args.trace)

    notes: dict[str, str] = {}
    if args.trace:
        metrics, notes = _traced(bench, args.seconds, work)
        units = PER_LAYER
        metrics = {name: metrics[name] for name in PER_LAYER}
    else:
        compile_s, run_s, setup = _timed(bench, args.seconds)
        units = END_TO_END
        metrics = {
            "compile_s": statistics.median(compile_s),
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_mem_mib": peak,
            "script_bytes": len(bench.reference["script.xml"]),
            "report_bytes": len(bench.reference["report.json"]),
        }
        for name, samples, raw in (("compile_s", compile_s, "compile"),
                                   ("run_s", run_s, "run"),
                                   ("setup_s", setup, "setup")):
            if samples:
                batch = (f" batches of {bench.compile_reps}"
                         if name == "compile_s" else "")
                notes[name] = (f"median of {len(samples)}{batch} "
                               f"({min(samples):.4g} .. {max(samples):.4g}), "
                               f"raw median "
                               f"{statistics.median(bench.raw[raw]):.4g} s")
        notes["peak_mem_mib"] = "tracemalloc, untimed pass"

    _print_summary(args.workload, args.seed, metrics, units, notes, bench)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

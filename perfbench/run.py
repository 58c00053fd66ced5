"""planeinv benchmark: one workload, one closed-loop client, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload orbit-equivalent --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run (see ``tracer.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in a fresh interpreter, one after another, and prints a table.
Every output is checked between operations, outside the timed section.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import Tracer
from workloads import WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
PROBE_EVERY_S = 0.1  # the loop probes the speed before an op once this long has passed

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

SPAN_METRICS = (
    [f"linalg.{op}.{f}" for op in ("matmul", "rref", "inverse", "solve", "nullspace") for f in ("q", "jet")]
    + ["words.enumerate_words", "words.evaluate_traces"]
    + ["divisible.matrix_data", "divisible.check_general_position"]
    + [
        f"odd.{name}"
        for name in (
            "column_normalize", "frame_3e", "frame_odd", "reduce_odd",
            "sigma_data", "letters_odd", "check_general_position",
        )
    ]
    + ["grassmann.general_position"]
    + ["orbit.invariant_vector", "orbit.same_orbit_test", "orbit.jacobian_rank"]
)
SELF_TIME_ONLY = ["fileio.load_json", "fileio.config_from_obj", "fileio.write_json", "cli.main"]

# name, unit, better
PER_LAYER = (
    [m for span in SPAN_METRICS for m in ((f"{span}.calls", "calls/op", "lower"), (f"{span}.s", "s/op", "lower"))]
    + [(f"{span}.s", "s/op", "lower") for span in SELF_TIME_ONLY]
    + [
        ("words.traces_evaluated", "count/op", "lower"),
        ("words.value_bits_max", "bits", "lower"),
        ("words.letter_bits_max", "bits", "lower"),
        ("orbit.reductions_per_config", "count/config", "lower"),
        ("fileio.bytes_written", "bytes/op", "lower"),
        ("grassmann.sample_config.s", "s", "lower"),
        ("cli.process_s", "s", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.ops_per_s_lost", "1/s", "lower"),
    ]
)


# -- set-up ------------------------------------------------------------------


def import_planeinv():
    for name in [m for m in sys.modules if m == "planeinv" or m.startswith("planeinv.")]:
        del sys.modules[name]
    names = ("cli", "errors", "fileio", "grassmann", "orbit")
    mods = {name: importlib.import_module(f"planeinv.{name}") for name in names}
    return argparse.Namespace(**mods)


def set_up(workload, seed: int, workdir: Path):
    """Import plus sampling and writing of the inputs, ``SETUP_REPEATS`` times.

    Each repetition drops planeinv from ``sys.modules`` first, so each one
    pays the import.  Each is timed between two speed probes and scaled to
    the reference speed (see ``speed.py``).  Returns the last repetition's
    plan and the medians of the set-up time and of the time spent in
    ``sample_config``, both scaled.
    """
    totals, sampling = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_planeinv()
        inputs = Inputs(lib, workload, seed, workdir)
        plan = workload.build(inputs)
        dt = time.perf_counter() - t0
        after = speed.probe()
        totals.append(speed.scaled(dt, (before + after) / 2))
        sampling.append(speed.scaled(inputs.sample_s, (before + after) / 2))
        before = after
    for skipped in inputs.skipped:
        print(f"set-up skipped a draw: {skipped}", file=sys.stderr)
    return lib, plan, statistics.median(totals), statistics.median(sampling)


# -- the closed loop -----------------------------------------------------------


class Loop:
    """Op latencies, speed probes, failures and reduced configurations of one loop."""

    def __init__(self):
        self.times: list[float] = []
        self.pass_ends: list[int] = []  # len(times) after each whole pass
        self.failures: list[str] = []
        self.configs = 0
        self.probes: list[float] = []  # speed probes, in the order taken
        self.probe_before: list[int] = []  # per op: index of the last probe before it
        self.last_probe = -math.inf

    def probe(self) -> None:
        self.probes.append(speed.probe())
        self.last_probe = time.perf_counter()

    @property
    def ops_per_s(self) -> float:
        """Operations per second at the reference speed."""
        return len(self.times) / sum(self.scaled_times())

    def scaled_times(self) -> list[float]:
        """Each latency at the reference speed, by the mean of the probes around it."""
        return [
            speed.scaled(t, (self.probes[p] + self.probes[p + 1]) / 2)
            for t, p in zip(self.times, self.probe_before)
        ]

    def passes(self, times: list[float]) -> list[list[float]]:
        starts = [0, *self.pass_ends[:-1]]
        return [times[a:b] for a, b in zip(starts, self.pass_ends)]


def run_pass(lib, plan, loop: Loop, tracer: Tracer | None = None) -> None:
    """One operation on every input; outputs are checked between operations.

    A speed probe runs before an operation once ``PROBE_EVERY_S`` has passed
    since the last one, and after the pass, so every operation lies between
    two probes.
    """
    main = lib.cli.main
    for ops in plan.rounds:
        for op in ops:
            if time.perf_counter() - loop.last_probe >= PROBE_EVERY_S:
                loop.probe()
            out, err = io.StringIO(), io.StringIO()
            rc = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    rc = main(op.argv)
                except Exception as exc:  # a crash is a failed op, not a stopped bench
                    err.write(f"{type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            loop.times.append(dt)
            loop.probe_before.append(len(loop.probes) - 1)
            loop.configs += op.configs
            problem = op.check(rc, out.getvalue().strip())
            if problem is not None:
                loop.failures.append(f"{' '.join(op.argv)}: {problem} {err.getvalue().strip()}")
    loop.probe()
    loop.pass_ends.append(len(loop.times))


def percentile(sorted_times: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted_times[max(0, math.ceil(len(sorted_times) * pct / 100) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def cold_process_s(probe_config: str, workdir: Path) -> tuple[float, str | None]:
    """One ``python -m planeinv invariants`` process, start-up included."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "planeinv", "invariants", "--in", probe_config, "--out", str(workdir / "cold.json")]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    problem = None if proc.returncode == 0 else f"cold process exit {proc.returncode}: {proc.stderr.strip()}"
    return dt, problem


# -- one workload ----------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced: Loop, untraced: Loop, sample_s: float, process_s: float) -> dict:
    ops = len(traced.times)
    c = tracer.counters
    values = {}
    for span in SPAN_METRICS:
        values[f"{span}.calls"] = tracer.calls(span) / ops
        values[f"{span}.s"] = tracer.self_s(span) / ops
    for span in SELF_TIME_ONLY:
        values[f"{span}.s"] = tracer.self_s(span) / ops
    values.update({
        "words.traces_evaluated": c["traces_evaluated"] / ops,
        "words.value_bits_max": c["value_bits_max"],
        "words.letter_bits_max": c["letter_bits_max"],
        "orbit.reductions_per_config": c["reductions"] / traced.configs,
        "fileio.bytes_written": c["bytes_written"] / ops,
        "grassmann.sample_config.s": sample_s,
        "cli.process_s": process_s,
        "trace.ops_per_s": traced.ops_per_s,
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.ops_per_s_lost": untraced.ops_per_s - traced.ops_per_s,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def measure(workload, lib, plan, seconds: float, setup_s: float):
    """Untraced whole passes for ``seconds``: the end-to-end metrics."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(lib, plan, loop)
        if time.perf_counter() >= deadline:
            break
    # Each pass runs every input once.  Each latency is scaled to the
    # reference speed by the speed probes taken around it (see speed.py), and
    # an input's cost is the median of its scaled latencies over the passes,
    # which sets aside the few taken while the host changed speed.  The
    # metrics are taken over those costs.  The raw latencies are reported too.
    scaled = loop.scaled_times()
    cost = sorted(map(statistics.median, zip(*loop.passes(scaled))))
    tail = percentile(cost, workload.tail_pct)
    beyond = sum(t > tail for t in scaled)
    probes = sorted(loop.probes)
    note = (
        f"  median scaled latency of each of {len(cost)} inputs over {len(loop.pass_ends)} passes; "
        f"op_tail_ms is their p{workload.tail_pct:g}, with {beyond} of {len(loop.times)} scaled samples beyond it"
        + ("" if beyond >= 10 else " (fewer than ten: too few for this percentile)")
        + f"\n  unscaled: {len(loop.times) / sum(loop.times):.4g} ops/s, p50 "
        f"{statistics.median(loop.times) * 1e3:.4g} ms; speed probe {len(probes)} times, "
        f"min {probes[0] * 1e3:.3f} median {statistics.median(probes) * 1e3:.3f} "
        f"max {probes[-1] * 1e3:.3f} ms (reference {speed.REFERENCE_S * 1e3:.3f} ms)"
    )
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(cost) / sum(cost),
        "op_p50_ms": statistics.median(cost) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    return metrics, len(loop.times), loop.failures, [note]


def measure_traced(workload, lib, plan, seconds: float, sample_s: float, seed: int, workdir: Path):
    """Untraced and traced passes, alternating: the per-layer metrics.

    Alternating makes both sets of passes see the same machine conditions,
    so their difference in ops_per_s is the tracing overhead.  The wrappers
    are installed for the traced passes only.  The span table
    is also written to ``.perfbench_out``.
    """
    untraced, traced = Loop(), Loop()
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(lib, plan, untraced)
        tracer.install()
        try:
            run_pass(lib, plan, traced, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    failures = untraced.failures + traced.failures
    process_s, problem = cold_process_s(plan.probe_config, workdir)
    if problem is not None:
        failures.append(problem)
    metrics = layer_metrics(tracer, traced, untraced, sample_s, process_s)
    TRACE_OUT.mkdir(exist_ok=True)
    dump = {
        "workload": workload.name,
        "seed": seed,
        "traced_ops": len(traced.times),
        "spans": {k: dict(zip(("calls", "total_s", "self_s"), v)) for k, v in sorted(tracer.spans.items())},
        "counters": tracer.counters,
    }
    (TRACE_OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(dump, indent=1) + "\n")
    return metrics, len(untraced.times) + len(traced.times), failures, []


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns the result object and the human-readable report lines."""
    lib, plan, setup_s, sample_s = set_up(workload, seed, workdir)
    if trace:
        metrics, attempted, failures, notes = measure_traced(workload, lib, plan, seconds, sample_s, seed, workdir)
    else:
        metrics, attempted, failures, notes = measure(workload, lib, plan, seconds, setup_s)
    failures += plan.finish()
    failed = len(failures)
    report = [
        f"workload {workload.name}: planeinv {workload.command}, expect {workload.expect}",
        f"  shapes {' '.join(map(str, workload.shapes))}, {workload.per_shape} inputs per shape, "
        f"seed {seed}, closed loop, 1 client",
        *notes,
        f"  attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4f}",
    ]
    report += [f"  {name:<40} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    for problem in failures[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def run_all(args) -> int:
    """Every workload in its own interpreter, then one table."""
    rows = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':<18} {'metric':<40} {'value':>14} unit")
    for name, result in rows.items():
        print(f"{name:<18} {'fail_ratio':<40} {result['failed'] / result['attempted']:>14.4f}")
        for metric, m in result["metrics"].items():
            print(f"{name:<18} {metric:<40} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "planeinv" / "__init__.py").is_file():
        print(f"perfbench: no planeinv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny size (one input per shape, one pass).

Run from the repository root:

    python3 perfbench/selftest.py

It shows that

* the output checks see a wrong verdict: a Distinct pair fed to
  ``orbit-equivalent`` raises fail_ratio above 0, and the same inputs without
  it give 0;
* the traced count ``orbit.reductions_per_config`` reads exactly 2.0, 1.0 and
  1.0 on ``orbit-equivalent``, ``orbit-distinct`` and ``invariants-m3``, and
  ``words.traces_evaluated`` reads 540 per op on ``invariants-m3``;
* every count metric repeats exactly between two traced runs at one seed;
* ``BENCHMARK.json`` lists the workloads and metrics that ``run.py`` prints;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, Inputs

SEED = 7
COUNTS = ("words.traces_evaluated", "words.value_bits_max", "words.letter_bits_max",
          "orbit.reductions_per_config", "fileio.bytes_written")

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def tiny(name: str, workdir, seed: int = SEED):
    workload = dataclasses.replace(WORKLOADS[name], per_shape=1)
    lib = run.import_planeinv()
    inputs = Inputs(lib, workload, seed, workdir)
    return workload, lib, workload.build(inputs), inputs


def fail_ratio(workload, lib, plan) -> float:
    _, attempted, failures, _ = run.measure(workload, lib, plan, 0, 0.0)
    failures += plan.finish()
    return len(failures) / attempted


def traced(name: str, workdir) -> dict:
    workload, lib, plan, _ = tiny(name, workdir)
    metrics, _, failures, _ = run.measure_traced(workload, lib, plan, 0, 0.0, SEED, workdir)
    check(not failures + plan.finish(), f"{name}: traced run has no failed op")
    return {k: m["value"] for k, m in metrics.items()}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    wd = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        workload, lib, plan, inputs = tiny("orbit-equivalent", wd)
        check(fail_ratio(workload, lib, plan) == 0.0, "orbit-equivalent: fail_ratio 0 on equivalent pairs")
        op = plan.rounds[0][0]
        stranger = inputs.sample(op.shape)
        lib.fileio.write_json(op.argv[4], lib.fileio.config_to_obj(stranger))
        ratio = fail_ratio(workload, lib, plan)
        check(ratio > 0.0, f"orbit-equivalent: fail_ratio {ratio:.3f} > 0 with one Distinct pair")

        want = {"orbit-equivalent": 2.0, "orbit-distinct": 1.0, "invariants-m3": 1.0}
        for name, reductions in want.items():
            first, second = traced(name, wd), traced(name, wd)
            got = first["orbit.reductions_per_config"]
            check(got == reductions, f"{name}: orbit.reductions_per_config {got} == {reductions}")
            same = all(first[k] == second[k] for k in first if k in COUNTS or k.endswith(".calls"))
            check(same, f"{name}: counts repeat exactly at seed {SEED}")
            if name == "invariants-m3":
                got = first["words.traces_evaluated"]
                check(got == 540, f"{name}: words.traces_evaluated {got} == 540 per op")

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads match")
        check(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END,
            "BENCHMARK.json end_to_end metrics match",
        )
        check(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER,
            "BENCHMARK.json per_layer metrics match",
        )

        bare = wd / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "jacobian", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without src/: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print(f"{len(problems)} check(s) failed" if problems else "all checks hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

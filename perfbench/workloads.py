"""The four benchmark workloads: inputs sampled from a seed, one CLI call per op.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  An operation is one call to
``planeinv.cli.main([...])``, so it crosses cli -> fileio -> orbit ->
divisible/odd -> words -> linalg exactly as a command-line call does, minus
interpreter start-up.

Inputs are drawn at set-up from ``random.Random(f"{name}:{seed}")`` and
written as JSON files.  Every shape gets ``per_shape`` inputs, and the loop
visits them in rounds of one operation per shape, so each shape gets the same
number of operations and the median lands inside one shape's cluster rather
than on the boundary between two.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# The group moves that make the orbit-equivalent pairs, and the reference
# copies of the invariants workload, are redrawn when they land off the
# normalization chart, as the exact-invariance acceptance criterion does.
MOVE_REDRAWS = 20


@dataclass(frozen=True)
class Op:
    """One operation: CLI arguments and the check of its result."""

    shape: tuple[int, int, int]
    argv: list[str]
    configs: int  # configurations the operation reduces
    check: Callable[[Optional[int], str], Optional[str]]  # None when correct


@dataclass
class Plan:
    """The sampled inputs of one workload at one seed."""

    rounds: list[list[Op]]  # rounds[i] holds the i-th input of every shape
    probe_config: str  # a configuration file for the cold-process probe
    finish: Callable[[], list[str]] = lambda: []  # checks made after the loop


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    shapes: tuple[tuple[int, int, int], ...]
    per_shape: int
    tail_pct: float  # fixed so that at least ten samples lie beyond it
    expect: str
    why: str
    build: Callable[["Inputs"], Plan] = field(repr=False)


class Inputs:
    """Draws and writes the inputs of one workload at one seed."""

    def __init__(self, lib, workload: Workload, seed: int, workdir: Path):
        self.lib = lib
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.workdir = workdir
        self.sample_s = 0.0  # time spent inside grassmann.sample_config
        self.skipped: list[str] = []  # draws lost to the general_position defect

    def _general_position(self, config, what: str) -> bool:
        """``general_position``, reading a SingularMatrixError as False.

        ``general_position`` should return False off the chart, but on some
        odd-case configurations with r = 1 ``odd.sigma_data`` raises
        SingularMatrixError instead, and ``sample_config`` passes it on, e.g.
        ``sample_config(3, 2, 6, seed=3871074876)``.  Such draws are skipped
        and reported on stderr, so the workload keeps its shape mix.
        """
        try:
            return self.lib.grassmann.general_position(config)
        except self.lib.errors.SingularMatrixError as exc:
            self.skipped.append(f"{what}: SingularMatrixError: {exc}")
            return False

    def sample(self, shape):
        """A general-position configuration; draws hitting the defect above are skipped."""
        while True:
            seed = self.rng.getrandbits(32)
            t0 = time.perf_counter()
            try:
                config = self.lib.grassmann.sample_config(*shape, seed=seed)
            except self.lib.errors.SingularMatrixError as exc:
                self.skipped.append(f"sample_config{shape}, seed={seed}: SingularMatrixError: {exc}")
                continue
            finally:
                self.sample_s += time.perf_counter() - t0
            return config

    def moved(self, config):
        """``act_right(h, act_left(g, config))`` in general position, or None."""
        g = self.lib.grassmann
        mover = g.SplitMix64(self.rng.getrandbits(64))
        n, d, s = config.n, config.d, config.s
        for _ in range(MOVE_REDRAWS):
            left = g.sample_invertible(mover, n)
            hs = [g.sample_invertible(mover, d) for _ in range(s)]
            moved = g.act_right(hs, g.act_left(left, config))
            if self._general_position(moved, f"a group move of a {(n, d, s)} configuration"):
                return moved
        return None

    def write(self, config, name: str) -> str:
        path = str(self.workdir / f"{name}.json")
        self.lib.fileio.write_json(path, self.lib.fileio.config_to_obj(config))
        return path

    def grid(self, make_op: Callable[[tuple, int], Op]) -> list[list[Op]]:
        return [
            [make_op(shape, i) for shape in self.workload.shapes]
            for i in range(self.workload.per_shape)
        ]


def _expect_line(want: str, want_rc: int):
    def check(rc, out):
        if rc != want_rc or out != want:
            return f"exit {rc} output {out!r}, expected exit {want_rc} output {want!r}"
        return None

    return check


def _shape_tag(shape, i: int) -> str:
    return "x".join(map(str, shape)) + f"-{i}"


def build_orbit_equivalent(inp: Inputs) -> Plan:
    def make(shape, i):
        while True:
            a = inp.sample(shape)
            b = inp.moved(a)
            if b is not None:
                break
        tag = _shape_tag(shape, i)
        argv = ["orbit-test", "--a", inp.write(a, tag + "-a"), "--b", inp.write(b, tag + "-b")]
        return Op(shape, argv, 2, _expect_line("Equivalent", 0))

    rounds = inp.grid(make)
    return Plan(rounds, probe_config=rounds[0][0].argv[2])


def build_orbit_distinct(inp: Inputs) -> Plan:
    def make(shape, i):
        tag = _shape_tag(shape, i)
        a = inp.write(inp.sample(shape), tag + "-a")
        b = inp.write(inp.sample(shape), tag + "-b")
        return Op(shape, ["orbit-test", "--a", a, "--b", b], 2, _expect_line("Distinct", 3))

    rounds = inp.grid(make)
    return Plan(rounds, probe_config=rounds[0][0].argv[2])


def build_jacobian(inp: Inputs) -> Plan:
    expected = inp.lib.orbit.expected_quotient_dim

    def make(shape, i):
        path = inp.write(inp.sample(shape), _shape_tag(shape, i))
        rank = expected(*shape)
        return Op(shape, ["rank", "--in", path], 1, _expect_line(f"rank {rank} / expected {rank}", 0))

    rounds = inp.grid(make)
    return Plan(rounds, probe_config=rounds[0][0].argv[2])


# Inputs of the invariants workload whose every output is also compared with
# the vector of a group-moved copy, computed after the timed loop.
MOVED_REFERENCE_INPUTS = 2


def build_invariants(inp: Inputs) -> Plan:
    lib = inp.lib
    (shape,) = inp.workload.shapes
    n, d, s = shape
    letters = lib.orbit.letter_count(n, d, s)
    words = len(lib.orbit.enumerate_words(letters, 2**d - 1))
    configs = []
    outputs: dict[int, dict[tuple, int]] = {}  # input -> distinct values -> ops

    def make(shape, i):
        config = inp.sample(shape)
        configs.append(config)
        src = inp.write(config, _shape_tag(shape, i))
        out = str(inp.workdir / f"{_shape_tag(shape, i)}-out.json")
        want = f"wrote {out} ({words} invariants over {letters} letters)"

        def check(rc, text):
            if rc != 0 or text != want:
                return f"exit {rc} output {text!r}, expected exit 0 output {want!r}"
            obj = lib.fileio.load_json(out)
            if len(obj["letters"]) != letters or len(obj["invariants"]) != words:
                return (
                    f"{out} has {len(obj['letters'])} letters and "
                    f"{len(obj['invariants'])} entries, expected {letters} and {words}"
                )
            if i < MOVED_REFERENCE_INPUTS:
                values = tuple(e["value"] for e in obj["invariants"])
                seen = outputs.setdefault(i, {})
                seen[values] = seen.get(values, 0) + 1
            return None

        return Op(shape, ["invariants", "--in", src, "--out", out], 1, check)

    def finish():
        errors = []
        for i, seen in sorted(outputs.items()):
            moved = inp.moved(configs[i])
            if moved is None:
                errors.append(f"input {i}: no group move in general position")
                continue
            fmt = lib.fileio.format_rat
            ref = tuple(fmt(v) for v in lib.orbit.invariant_vector(moved).values)
            for values, count in seen.items():
                if values != ref:
                    errors += [f"input {i}: invariants differ from a group-moved copy"] * count
        return errors

    rounds = inp.grid(make)
    return Plan(rounds, probe_config=rounds[0][0].argv[2], finish=finish)


ORBIT_SHAPES = ((4, 2, 5), (3, 2, 6), (5, 2, 5), (7, 2, 7), (6, 4, 6))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="invariants-m3",
            command="invariants --in C --out F",
            shapes=((6, 3, 6),),
            per_shape=10,
            tail_pct=90,
            expect="exit 0; the file has 3 letters and 540 entries, equal to a group-moved copy's",
            why="3x3 letters, 540 words: word traces and Fraction matmul dominate; "
            "writes a JSON file, so fileio writes are covered",
            build=build_invariants,
        ),
        Workload(
            name="orbit-equivalent",
            command="orbit-test --a C --b g.C.h",
            shapes=ORBIT_SHAPES,
            per_shape=12,
            tail_pct=95,
            expect="exit 0, Equivalent",
            why="1x1/2x2 letters: the reduction dominates and runs twice per "
            "configuration, since general_position repeats it",
            build=build_orbit_equivalent,
        ),
        Workload(
            name="orbit-distinct",
            command="orbit-test --a C1 --b C2",
            shapes=ORBIT_SHAPES,
            per_shape=12,
            tail_pct=95,
            expect="exit 3, Distinct",
            why="same layers without the general-position pass: one reduction "
            "per configuration",
            build=build_orbit_distinct,
        ),
        Workload(
            name="jacobian",
            command="rank --in C",
            shapes=((3, 2, 6), (4, 2, 5), (5, 2, 5)),
            per_shape=8,
            tail_pct=87,
            expect="exit 0, rank R / expected R",
            why="the only workload whose kernels run over Jet: n*d*s jet passes "
            "plus one Fraction rank per op",
            build=build_jacobian,
        ),
    )
}

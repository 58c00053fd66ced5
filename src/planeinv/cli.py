"""Batch command-line interface.

Subcommands:

* ``gen``        sample a general-position configuration to a JSON file
* ``invariants`` compute the trace-invariant vector of a configuration
* ``orbit-test`` compare two configurations by their letters
* ``rank``       exact Jacobian rank of the invariant map at a configuration
* ``embed``      build the divisible-case normal form from a letter grid

Exit codes: 0 success (orbit-test: Equivalent), 2 input error (bad flags,
unparseable or unsupported input), 3 Distinct, 4 degenerate configuration
(or sampling exhausted), 5 Inconclusive.
"""

from __future__ import annotations

import argparse
import sys

from . import divisible, fileio, orbit
from .errors import (
    DegenerateConfigError,
    DegenerateSamplingExhausted,
)
from .grassmann import sample_config
from .orbit import Verdict

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISTINCT = 3
EXIT_DEGENERATE = 4
EXIT_INCONCLUSIVE = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeinv",
        description="Exact rational invariants of subspace configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a general-position configuration")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--d", type=int, required=True, help="subspace dimension")
    p.add_argument("--s", type=int, required=True, help="number of subspaces")
    p.add_argument("--seed", type=int, required=True, help="PRNG seed (splitmix64)")
    p.add_argument("--bound", type=int, default=10, help="entry bound (default 10)")
    p.add_argument("--out", required=True, help="output configuration file")

    p = sub.add_parser("invariants", help="compute the invariant vector")
    p.add_argument("--in", dest="infile", required=True, help="configuration file")
    p.add_argument("--out", required=True, help="output invariants file")

    p = sub.add_parser("orbit-test", help="compare two configurations")
    p.add_argument("--a", required=True, help="first configuration file")
    p.add_argument("--b", required=True, help="second configuration file")

    p = sub.add_parser("rank", help="exact Jacobian rank of the invariant map")
    p.add_argument("--in", dest="infile", required=True, help="configuration file")

    p = sub.add_parser("embed", help="divisible normal form from a letter grid")
    p.add_argument("--in", dest="infile", required=True, help="letters file")
    p.add_argument("--out", required=True, help="output configuration file")
    return parser


def _cmd_gen(args) -> int:
    config = sample_config(args.n, args.d, args.s, args.seed, args.bound)
    fileio.write_json(args.out, fileio.config_to_obj(config, args.seed, args.bound))
    print(f"wrote {args.out} (n={args.n}, d={args.d}, s={args.s}, seed={args.seed})")
    return EXIT_OK


def _cmd_invariants(args) -> int:
    config = fileio.config_from_obj(fileio.load_json(args.infile))
    vec = orbit.invariant_vector(config)
    fileio.write_invariants(args.out, vec)
    print(f"wrote {args.out} ({len(vec)} invariants over {len(vec.letter_ids)} letters)")
    if vec.degeneracy is not None:
        member = "" if vec.degeneracy.block is None else f" (member {vec.degeneracy.block})"
        print(f"warning: {vec.degeneracy.reason}{member}", file=sys.stderr)
    return EXIT_OK


def _cmd_orbit_test(args) -> int:
    a = fileio.config_from_obj(fileio.load_json(args.a))
    b = fileio.config_from_obj(fileio.load_json(args.b))
    verdict = orbit.same_orbit_test(a, b)
    print(verdict)
    if verdict is Verdict.DISTINCT:
        return EXIT_DISTINCT
    if verdict is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_rank(args) -> int:
    config = fileio.config_from_obj(fileio.load_json(args.infile))
    rank = orbit.jacobian_rank(config)
    expected = orbit.expected_quotient_dim(config.n, config.d, config.s)
    print(f"rank {rank} / expected {expected}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    d, r, s, letters = fileio.letters_from_obj(fileio.load_json(args.infile))
    config = divisible.embed(d, r, s, letters)
    assert orbit.letters(config)[2] == letters  # embed contract: exact roundtrip
    fileio.write_json(args.out, fileio.config_to_obj(config))
    print(f"wrote {args.out} (normal form, n={config.n}, d={config.d}, s={config.s})")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "invariants": _cmd_invariants,
    "orbit-test": _cmd_orbit_test,
    "rank": _cmd_rank,
    "embed": _cmd_embed,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (DegenerateConfigError, DegenerateSamplingExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

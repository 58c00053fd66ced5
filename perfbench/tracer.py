"""Span and counter recorder wrapped around planeinv from the outside.

The library carries no instrumentation of its own, so :class:`Tracer`
replaces each public function of each ``planeinv`` module by a timing
wrapper, in every module namespace that holds a reference to it (for
example ``orbit.general_position`` as well as ``grassmann.general_position``),
and wraps the five ``Mat`` methods whose cost is the exact arithmetic
(``@``, ``rref``, ``inverse``, ``solve``, ``nullspace_basis``), split by
field: ``q`` for ``Fraction`` entries, ``jet`` for dual numbers.

Spans are kept in memory as per-name aggregates (calls, total seconds, self
seconds); a span's self time is its duration minus the time its child spans
cover.  Recording happens only while ``active`` is true, so set-up and the
output checks that run between operations leave no trace.  ``uninstall``
puts every original back.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

# Helpers that run once per matrix entry: a span each would cost more than
# the work it measures, so they stay unwrapped.
SCALAR_HELPERS = {"as_scalar", "zero_like", "one_like", "format_rat", "parse_rat"}

MAT_METHODS = {
    "__matmul__": "matmul",
    "rref": "rref",
    "inverse": "inverse",
    "solve": "solve",
    "nullspace_basis": "nullspace",
}

# Entry points of one reduction pass over one configuration.
REDUCTIONS = {
    "divisible.invariants",
    "divisible.check_general_position",
    "odd.invariants",
    "odd.check_general_position",
}


def _bits(x, jet_type) -> int:
    if isinstance(x, jet_type):
        return max(_bits(x.value, jet_type), _bits(x.deriv, jet_type))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters = {
            "reductions": 0,
            "traces_evaluated": 0,
            "value_bits_max": 0,
            "letter_bits_max": 0,
            "bytes_written": 0,
        }
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []
        self._jet = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public planeinv function and the Mat kernel methods."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "planeinv" or name.startswith("planeinv."))
        ]
        linalg = sys.modules["planeinv.linalg"]
        self._jet = linalg.Jet
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if short.startswith("_") or mod.__name__ == "planeinv":
                continue
            for name, fn in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or name in SCALAR_HELPERS
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, attr, wrapper)
        mat = linalg.Mat
        for meth, label in MAT_METHODS.items():
            self._patch(mat, meth, self._wrap(f"linalg.{label}", vars(mat)[meth], by_field=True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _field(self, args) -> str:
        for m in args[:2]:
            data = getattr(m, "data", None)
            if data and data[0] and isinstance(data[0][0], self._jet):
                return "jet"
        return "q"

    def _wrap(self, name: str, fn, by_field: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hook_for(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = f"{name}.{self._field(args)}" if by_field else name
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
            if hook is not None:
                h0 = clock()
                hook(args, result)
                dur += clock() - h0  # keep hook cost out of the parent's self time
            if stack:
                stack[-1] += dur
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters recorded at layer boundaries -----------------------------

    def _hook_for(self, name: str):
        c = self.counters
        if name in REDUCTIONS:
            def count_reduction(args, result):
                c["reductions"] += 1
            return count_reduction
        if name == "words.evaluate_traces":
            def count_traces(args, result):
                letters, words = args[0], args[1]
                c["traces_evaluated"] += len(words)
                jet = self._jet
                for m in letters:
                    for row in m.data:
                        for x in row:
                            b = _bits(x, jet)
                            if b > c["letter_bits_max"]:
                                c["letter_bits_max"] = b
                for v in result:
                    b = _bits(v, jet)
                    if b > c["value_bits_max"]:
                        c["value_bits_max"] = b
            return count_traces
        if name == "fileio.write_json":
            def count_bytes(args, result):
                c["bytes_written"] += os.path.getsize(args[0])
            return count_bytes
        return None

    def self_s(self, key: str) -> float:
        rec = self.spans.get(key)
        return rec[2] if rec else 0.0

    def calls(self, key: str) -> int:
        rec = self.spans.get(key)
        return rec[0] if rec else 0

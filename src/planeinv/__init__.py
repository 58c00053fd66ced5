"""Exact rational invariants separating orbits of subspace configurations.

Tuples of d-dimensional subspaces of rational n-space, up to a global
invertible change of coordinates, are separated (generically) by traces of
words in a finite alphabet of matrix "letters".  Two shape families are
supported: n = r*d (letters are d x d block ratios of the translated
configuration matrix) and n = (2r+1)e with d = 2e (letters are e x e ratios
extracted through intersection frames).  All arithmetic is exact.

Public API highlights:

* :func:`planeinv.grassmann.sample_config` / :class:`planeinv.grassmann.Config`
* :func:`planeinv.orbit.invariant_vector` / :func:`planeinv.orbit.same_orbit_test`
* :func:`planeinv.orbit.jacobian_rank` / :func:`planeinv.orbit.expected_quotient_dim`
* :func:`planeinv.divisible.embed` (normal form from divisible-case letters)
* ``planeinv`` command-line tool (see :mod:`planeinv.cli`)
"""

from . import errors
from .divisible import embed
from .grassmann import (
    CaseTag,
    Config,
    SplitMix64,
    Subspace,
    act_left,
    act_right,
    canonicalize,
    classify_case,
    general_position,
    intersect,
    sample_config,
    sample_invertible,
)
from .linalg import Jet, Mat
from .orbit import (
    Verdict,
    enumerate_words,
    expected_quotient_dim,
    invariant_vector,
    jacobian_rank,
    letter_count,
    same_orbit_test,
)
from .words import InvariantVector

__version__ = "0.1.0"

__all__ = [
    "CaseTag",
    "Config",
    "InvariantVector",
    "Jet",
    "Mat",
    "SplitMix64",
    "Subspace",
    "Verdict",
    "act_left",
    "act_right",
    "canonicalize",
    "classify_case",
    "embed",
    "enumerate_words",
    "errors",
    "expected_quotient_dim",
    "general_position",
    "intersect",
    "invariant_vector",
    "jacobian_rank",
    "letter_count",
    "sample_config",
    "sample_invertible",
    "same_orbit_test",
    "__version__",
]

"""Input validation helpers shared across the library.

The checks raise :class:`ValidationError` (a ``ValueError`` subclass) with
messages that name the offending argument, which keeps the public API
error messages consistent.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Optional

import numpy as np
import scipy.sparse as sp


class ValidationError(ValueError):
    """Raised when a user-supplied argument fails a sanity check."""


def check_known_keys(data: Mapping[str, Any], known: Iterable[str],
                     what: str) -> None:
    """Reject keys of *data* outside *known* (a spec's ``from_dict`` input).

    A misspelled key would otherwise load silently with the field's default.
    """
    known = sorted(known)
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {what} keys {unknown}; known keys: {known}")


def check_positive(value: float, name: str) -> float:
    """Ensure ``value > 0``; return it unchanged."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Ensure ``value >= 0``; return it unchanged."""
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return value


def check_tolerance(value: Any, name: str) -> float:
    """*value* as a float, rejecting NaN, inf and negative values.

    A convergence tolerance outside that range makes PCG report nonsense:
    with ``inf`` it stops "converged" after zero iterations, with ``NaN``
    no residual ever meets the threshold.
    """
    tolerance = float(value)
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValidationError(
            f"{name} must be a finite non-negative number, got {value!r}")
    return tolerance


def check_in_range(value: float, low: float, high: float, name: str,
                   inclusive: bool = True) -> float:
    """Ensure ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        raise ValidationError(
            f"{name} must lie in {'[' if inclusive else '('}{low}, {high}"
            f"{']' if inclusive else ')'}, got {value!r}"
        )
    return value


def check_finite(values, name: str) -> np.ndarray:
    """*values* as a float64 array, rejecting NaN and inf entries.

    A non-finite right-hand side has no meaningful solution, and PCG on it
    fails quietly: an ``inf`` entry makes the initial residual norm and the
    stopping threshold both ``inf``, so the solve reports convergence after
    zero iterations.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))
        raise ValidationError(
            f"{name} has {len(bad)} non-finite entries (first at index "
            f"{tuple(int(i) for i in bad[0])})"
        )
    return values


def check_square(matrix, name: str = "matrix"):
    """Ensure a (sparse or dense) matrix is square; return it unchanged."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {matrix.shape}")
    return matrix


def check_symmetric(matrix, name: str = "matrix", tol: float = 1e-10):
    """Ensure a sparse matrix is numerically symmetric within *tol*."""
    check_square(matrix, name)
    m = sp.csr_matrix(matrix)
    diff = (m - m.T).tocoo()
    if diff.nnz:
        max_dev = float(np.max(np.abs(diff.data)))
        scale = float(np.max(np.abs(m.data))) if m.nnz else 1.0
        if max_dev > tol * max(scale, 1.0):
            raise ValidationError(
                f"{name} is not symmetric: max deviation {max_dev:.3e} "
                f"(tolerance {tol:.1e} relative to {scale:.3e})"
            )
    return matrix


def check_spd_sample(matrix, name: str = "matrix", n_probes: int = 4,
                     rng: Optional[np.random.Generator] = None, tol: float = 0.0):
    """Cheap probabilistic SPD check: ``v.T @ A @ v > tol`` for random probes.

    A full Cholesky would be too expensive for the large matrices used in
    benchmarks; random quadratic-form probes catch sign errors in the
    generators while staying O(nnz).
    """
    check_symmetric(matrix, name)
    m = sp.csr_matrix(matrix)
    rng = rng if rng is not None else np.random.default_rng(0)
    n = m.shape[0]
    for _ in range(max(1, n_probes)):
        v = rng.standard_normal(n)
        quad = float(v @ (m @ v))
        if not quad > tol:
            raise ValidationError(
                f"{name} failed SPD probe: v.T A v = {quad:.3e} <= {tol:.3e}"
            )
    return matrix


def check_rank_list(ranks, n_nodes: int, name: str = "ranks"):
    """Validate a collection of node ranks against the cluster size."""
    ranks = list(ranks)
    if len(set(ranks)) != len(ranks):
        raise ValidationError(f"{name} contains duplicates: {ranks}")
    for r in ranks:
        if not (0 <= int(r) < n_nodes):
            raise ValidationError(
                f"{name} entry {r} out of range for {n_nodes} nodes"
            )
    return [int(r) for r in ranks]

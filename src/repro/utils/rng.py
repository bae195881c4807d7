"""Deterministic random-number handling.

All stochastic behaviour in the library (synthetic matrices, failure
scenarios, runtime jitter in the cost model) flows through
:class:`numpy.random.Generator` objects created here, so that every
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

#: Canonical alias used throughout the code base.
RandomState = np.random.Generator

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> RandomState:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer, an existing generator
        (returned unchanged), or a :class:`numpy.random.SeedSequence`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[RandomState]:
    """Create *count* statistically independent generators from one seed.

    Used by the experiment harness to give every repetition of a
    configuration its own stream while remaining reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh entropy from the parent stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(count)]


def stable_hash_seed(*parts: object, base_seed: int = 0) -> int:
    """Derive a stable 63-bit seed from a tuple of hashable descriptors.

    Unlike the built-in :func:`hash`, the result does not depend on
    ``PYTHONHASHSEED``: only ``repr`` of the parts and the base seed matter.
    This is used to give e.g. (matrix-id, phi, location, repetition) its own
    deterministic stream.
    """
    import hashlib

    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for part in parts:
        digest.update(b"\x1f")
        digest.update(repr(part).encode())
    return int.from_bytes(digest.digest()[:8], "little") & (2**63 - 1)


def jittered(rng: Optional[RandomState], value: float, rel_std: float) -> float:
    """Return *value* perturbed by multiplicative Gaussian noise.

    The cost model uses this to emulate run-to-run variability of a real
    machine (the paper reports mean +/- standard deviation over >= 5 runs).
    ``rng=None`` or ``rel_std<=0`` returns *value* unchanged; the result is
    clipped below at 10% of the nominal value so a jitter draw can never
    produce a non-positive duration.
    """
    if rng is None or rel_std <= 0.0:
        return float(value)
    factor = 1.0 + rel_std * float(rng.standard_normal())
    return float(value) * max(factor, 0.1)


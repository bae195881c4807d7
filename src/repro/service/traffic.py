"""Seeded synthetic traffic for the solver service.

The benchmark and the determinism tests need *reproducible* request
streams: a :class:`TrafficSpec` describes the workload shape (how many
requests, over which matrices, from which tenants, at what Poisson arrival
rate) and :func:`generate_traffic` expands it into a concrete list of
:class:`SyntheticRequest` entries.  All randomness flows through
:mod:`repro.utils.rng` (R001), so one integer seed pins the entire trace --
right-hand sides, tenants, matrices and inter-arrival gaps alike.

Right-hand sides are independent standard-normal vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

import numpy as np

from ..utils.rng import SeedLike, spawn_rngs
from ..utils.serde import RoundTrip


@dataclass(frozen=True)
class TrafficSpec(RoundTrip):
    """Shape of a synthetic request stream (JSON-round-trippable)."""

    #: Total number of requests in the trace.
    n_requests: int = 32
    #: Matrix ids the requests target, drawn uniformly.
    matrix_ids: Tuple[str, ...] = ("default",)
    #: Tenant names, drawn uniformly.
    tenants: Tuple[str, ...] = ("tenant-0",)
    #: Mean request rate (requests / second of host time); the trace carries
    #: exponential inter-arrival gaps with this rate.  ``<= 0`` means all
    #: requests arrive at once (gaps of zero).
    rate_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ValueError(
                f"n_requests must be >= 0, got {self.n_requests}")
        # A list would leave the spec unhashable and unequal to its own
        # round trip, and a str would be drawn from letter by letter.
        for name in ("matrix_ids", "tenants"):
            value = getattr(self, name)
            if not (isinstance(value, tuple)
                    and all(isinstance(item, str) for item in value)):
                raise TypeError(
                    f"{name} must be a tuple of str, got {value!r}")
        if not self.matrix_ids:
            raise ValueError("matrix_ids must not be empty")
        if not self.tenants:
            raise ValueError("tenants must not be empty")


@dataclass(frozen=True)
class SyntheticRequest:
    """One generated request: target, payload and its arrival offset."""

    index: int
    matrix_id: str
    tenant: str
    rhs: np.ndarray
    #: Seconds after the trace start at which the request arrives.
    arrival_s: float


def generate_traffic(spec: TrafficSpec, sizes: Mapping[str, int], *,
                     seed: SeedLike = 0) -> List[SyntheticRequest]:
    """Expand *spec* into a concrete, fully seeded request trace.

    *sizes* maps each matrix id of the spec to its problem size ``n`` (the
    generated right-hand sides must match the registered operators).  The
    same ``(spec, sizes, seed)`` triple always yields the same trace.
    """
    for matrix_id in spec.matrix_ids:
        if matrix_id not in sizes:
            raise ValueError(
                f"no size given for matrix id {matrix_id!r}")
    # Independent streams: one for the request schedule (targets, tenants,
    # arrivals), one per matrix for the rhs payloads, so adding a matrix
    # does not reshuffle everything else.
    schedule_rng, payload_root = spawn_rngs(seed, 2)
    payload_rngs = dict(zip(
        spec.matrix_ids, spawn_rngs(payload_root, len(spec.matrix_ids))))

    requests: List[SyntheticRequest] = []
    arrival = 0.0
    for index in range(spec.n_requests):
        matrix_id = spec.matrix_ids[
            int(schedule_rng.integers(len(spec.matrix_ids)))]
        tenant = spec.tenants[int(schedule_rng.integers(len(spec.tenants)))]
        if spec.rate_per_s > 0.0:
            arrival += float(schedule_rng.exponential(1.0 / spec.rate_per_s))
        rhs = payload_rngs[matrix_id].standard_normal(sizes[matrix_id])
        requests.append(SyntheticRequest(
            index=index, matrix_id=matrix_id, tenant=tenant, rhs=rhs,
            arrival_s=arrival))
    return requests

"""Cost attribution and service statistics.

When ``k`` requests coalesce into one block solve, the batch is charged once
by the :class:`~repro.cluster.cost_model.CostLedger` -- the service must then
attribute those charges back to the tenants that rode in the batch.  The
attribution model follows how the block solver actually scales (see
``repro.core.block_pcg``):

* **volume terms** (every ``compute.*`` phase) scale with the columns, so
  they are split proportionally to each request's column work
  (``iterations + 1`` block operations touched the column);
* **message/latency terms** (``comm.*``, ``recovery.*``, ``checkpoint``)
  have a message count independent of ``k`` -- that is the whole point of
  coalescing -- so they are amortized equally across the batch.

Shares are computed by :func:`exact_shares`, whose contract is *exact*
floating-point conservation: the left-to-right ``sum()`` of the returned
shares equals the input total bit-for-bit (the proportionality is only
approximate -- the last share absorbs the rounding, fixed up ulp by ulp).
That makes per-tenant ledgers reconcile exactly against the service ledger,
with no "leaked" simulated nanoseconds.

:class:`ServiceStats` accumulates per-request results into a
JSON-round-trippable snapshot.  Its :meth:`~ServiceStats.aggregate` view is
built exclusively from simulated/deterministic quantities, so a seeded
traffic trace produces byte-identical aggregates across scheduler
invocations; host-wallclock latency percentiles live in the separate
:meth:`~ServiceStats.latency_summary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..utils.serde import RoundTrip, encode

#: Ledger-phase prefix of the per-column volume terms.
VOLUME_PHASE_PREFIX = "compute."

#: The :class:`ServiceStats` fields that hold host-wallclock samples.
WALLCLOCK_FIELDS = ("queue_waits_s", "batch_waits_s", "solves_s",
                    "latencies_s")


def _fit_complement(partial: float, total: float) -> Optional[float]:
    """A ``last`` with ``fl(partial + last) == total``, or ``None``.

    ``total - partial`` is within an ulp or two of the exact complement and
    float addition is monotone in ``last``, so a few ulp steps either land
    on *total* or prove it unreachable (the candidate sums straddle *total*
    without hitting it -- a round-to-even tie).
    """
    last = total - partial
    for _ in range(8):
        recomposed = partial + last
        if recomposed == total:
            return last
        last = math.nextafter(last, math.inf if recomposed < total
                              else -math.inf)
    return None


def exact_shares(total: float, weights: Sequence[float]) -> List[float]:
    """Split *total* into ``len(weights)`` shares that sum back exactly.

    The first ``k - 1`` shares are the rounded proportional values
    ``fl(total * w_j / W)``; the last share is the complement ``total -
    sum(shares[:-1])`` nudged by ulps (``math.nextafter``) until the
    left-to-right float sum of all shares reproduces *total* bit-for-bit.
    When no complement can reach *total* (the candidate sums tie exactly
    between two representable values and round-to-even skips *total*), the
    preceding share is nudged an ulp to move the prefix sum off the tie; if
    64 nudges leave it on a tie, the prefix shares are truncated onto the
    grid of ``2 * ulp(total)``, where the sum is exact.  With every weight
    zero the split degrades to equal weights.  A non-finite *total* that no
    shares sum back to raises :class:`ArithmeticError`.
    """
    k = len(weights)
    if k == 0:
        raise ValueError("cannot split a charge over zero requests")
    if k == 1:
        return [float(total)]
    total = float(total)
    w = [float(max(x, 0.0)) for x in weights]
    w_sum = math.fsum(w)
    if w_sum <= 0.0 or not math.isfinite(w_sum):
        w = [1.0] * k
        w_sum = float(k)
    shares = [total * (w[j] / w_sum) for j in range(k - 1)]
    for _ in range(64):
        partial = 0.0
        for s in shares:
            partial += s
        last = _fit_complement(partial, total)
        if last is not None:
            shares.append(last)
            return shares
        # Tie-break: step the largest prefix share one ulp toward zero (it
        # is nonzero whenever a tie can occur, and its granularity is at
        # most the sum's, so the prefix sum usually moves off the midpoint
        # within a few steps).
        at = max(range(k - 1), key=lambda j: abs(shares[j]))
        shares[at] = math.nextafter(shares[at], 0.0)
    # Nudging one share cannot break every tie: when that share's addition is
    # itself a round-to-even tie, each step moves the prefix sum by 0 or 2 of
    # its ulps and never changes its parity.  Truncate the prefix shares onto
    # the grid of 2 ulp(total) instead.  Their magnitudes then add up to less
    # than |total| + 4 ulp(total), where every multiple of the grid is a
    # float, so each prefix sum and the complement are exact.
    grid = 2.0 * math.ulp(total)
    shares = [s - math.fmod(s, grid) for s in shares]
    partial = 0.0
    for s in shares:
        partial += s
    last = total - partial
    if partial + last != total:  # a non-finite total
        raise ArithmeticError(
            f"could not reconcile shares against total {total!r}")
    shares.append(last)
    return shares


def split_charges(breakdown: Mapping[str, float],
                  column_weights: Sequence[float]) -> List[Dict[str, float]]:
    """Attribute a batch's per-phase charges to its coalesced requests.

    *breakdown* is the batch's per-phase simulated-time delta (e.g.
    ``result.time_breakdown``); *column_weights* holds one volume weight per
    request in column order (the service uses ``iterations_j + 1``).
    Returns one ``{phase: share}`` dict per request.  For every phase the
    left-to-right sum of the shares over the requests equals the batch total
    exactly (:func:`exact_shares`), so summing the returned dicts
    reconstructs *breakdown* bit-for-bit.
    """
    k = len(column_weights)
    if k == 0:
        raise ValueError("cannot attribute charges to zero requests")
    per_request: List[Dict[str, float]] = [{} for _ in range(k)]
    equal = [1.0] * k
    for phase in sorted(breakdown):
        total = float(breakdown[phase])
        is_volume = phase.startswith(VOLUME_PHASE_PREFIX)
        shares = exact_shares(total, column_weights if is_volume else equal)
        for j in range(k):
            per_request[j][phase] = shares[j]
    return per_request


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` in [0, 100].  Returns ``nan`` for an empty sequence.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return float("nan")
    ordered = sorted(float(v) for v in values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class TenantUsage(RoundTrip):
    """Accumulated usage of one tenant (the per-tenant cost ledger)."""

    tenant: str
    n_requests: int = 0
    n_converged: int = 0
    iterations: int = 0
    simulated_time: float = 0.0
    #: Per-phase attributed charges, summed over the tenant's requests.
    charges: Dict[str, float] = field(default_factory=dict)


@dataclass
class ServiceStats(RoundTrip):
    """Accumulated service statistics; JSON-round-trippable.

    The deterministic core (request/batch counts, widths, per-tenant
    ledgers, simulated time) is separated from the host-wallclock latency
    samples: :meth:`aggregate` summarizes only the former and is therefore
    byte-identical across invocations for a seeded trace, while
    :meth:`latency_summary` reports the (run-dependent) p50/p99 wallclock
    percentiles.
    """

    n_requests: int = 0
    n_batches: int = 0
    #: Requests that rode in a batch of width >= 2.
    n_coalesced: int = 0
    n_failed: int = 0
    batch_widths: List[int] = field(default_factory=list)
    tenants: Dict[str, TenantUsage] = field(default_factory=dict)
    #: Total simulated time charged across all batches.
    simulated_time: float = 0.0
    #: Host-wallclock samples (seconds), one per completed request.
    queue_waits_s: List[float] = field(default_factory=list)
    batch_waits_s: List[float] = field(default_factory=list)
    solves_s: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)

    # -- recording -----------------------------------------------------------
    def record_batch(self, width: int) -> None:
        self.n_batches += 1
        self.batch_widths.append(int(width))

    def record_request(self, result: "Any") -> None:
        """Fold one resolved :class:`~repro.service.jobs.RequestResult` in."""
        self.n_requests += 1
        if result.batch_width >= 2:
            self.n_coalesced += 1
        usage = self.tenants.get(result.tenant)
        if usage is None:
            usage = TenantUsage(result.tenant)
            self.tenants[result.tenant] = usage
        usage.n_requests += 1
        usage.n_converged += int(bool(result.converged))
        usage.iterations += int(result.iterations)
        usage.simulated_time += float(result.simulated_time)
        for phase in sorted(result.charges):
            usage.charges[phase] = usage.charges.get(phase, 0.0) \
                + float(result.charges[phase])
        self.simulated_time += float(result.simulated_time)
        self.queue_waits_s.append(float(result.queue_wait_s))
        self.batch_waits_s.append(float(result.batch_wait_s))
        self.solves_s.append(float(result.solve_s))
        self.latencies_s.append(float(result.latency_s))

    def record_failure(self) -> None:
        self.n_failed += 1

    # -- views ---------------------------------------------------------------
    @property
    def mean_batch_width(self) -> float:
        if not self.batch_widths:
            return float("nan")
        return math.fsum(self.batch_widths) / len(self.batch_widths)

    def aggregate(self) -> Dict[str, Any]:
        """Deterministic aggregate view (no host-wallclock quantities).

        For a seeded traffic trace pumped through a deterministic scheduler
        this dictionary is byte-identical across invocations.
        """
        data = encode(self, leave_out=WALLCLOCK_FIELDS)
        data["mean_batch_width"] = self.mean_batch_width
        return data

    def latency_summary(self) -> Dict[str, float]:
        """Host-wallclock latency percentiles (run-dependent)."""
        return {
            "queue_wait_p50_s": percentile(self.queue_waits_s, 50.0),
            "queue_wait_p99_s": percentile(self.queue_waits_s, 99.0),
            "solve_p50_s": percentile(self.solves_s, 50.0),
            "solve_p99_s": percentile(self.solves_s, 99.0),
            "latency_p50_s": percentile(self.latencies_s, 50.0),
            "latency_p99_s": percentile(self.latencies_s, 99.0),
            "latency_mean_s": (math.fsum(self.latencies_s)
                               / len(self.latencies_s))
            if self.latencies_s else float("nan"),
        }

"""Sparsity-pattern analysis relevant to the ESR overhead (Sec. 5).

Sec. 5 of the paper shows that the redundancy scheme is cheap exactly when
the matrix already forces each search-direction element to be communicated to
at least ``phi`` other nodes, and that no extra *latency* is incurred when
every submatrix ``A_{I_{d_ik}, I_i}`` has at least one non-zero (i.e. ``A`` is
"not too sparse within a bandwidth of ceil(phi*n/(2N)) around the diagonal").
These helpers evaluate both conditions for a concrete matrix and partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.redundancy import RedundancyScheme, backup_targets
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix


@dataclass
class SparsityReport:
    """Summary of how a matrix's pattern interacts with the ESR scheme."""

    phi: int
    n_nodes: int
    #: Histogram of the multiplicity m_i(s) over all elements (index = m).
    multiplicity_histogram: List[int]
    #: Fraction of elements with m_i(s) >= phi (no extra copies needed).
    natural_coverage: float
    #: Fraction of (owner, round) pairs whose extras can piggyback on SpMV.
    piggyback_fraction: float
    #: Whether the Sec. 5 band condition holds for every (i, k) pair.
    band_condition: bool
    #: Per-owner count of elements never sent anywhere (Chen's R^c_i sizes).
    unsent_per_owner: Dict[int, int]



def multiplicity_histogram(context: CommunicationContext,
                           max_bins: int = 32) -> List[int]:
    """Histogram of ``m_i(s)`` over all owners and elements."""
    counts = np.zeros(max_bins + 1, dtype=np.int64)
    for owner in range(context.partition.n_parts):
        m = context.multiplicity(owner)
        clipped = np.minimum(m, max_bins)
        counts += np.bincount(clipped, minlength=max_bins + 1)
    # Trim trailing zeros but keep at least the 0 bin.
    last = int(np.max(np.nonzero(counts)[0])) if counts.any() else 0
    return counts[:last + 1].tolist()


def natural_coverage_fraction(context: CommunicationContext, phi: int) -> float:
    """Fraction of all elements with at least *phi* natural copies."""
    n = context.partition.n
    if n == 0:
        return 1.0
    covered = sum(
        context.natural_copy_count(owner, phi)
        for owner in range(context.partition.n_parts)
    )
    return covered / n


def band_condition_holds(matrix: DistributedMatrix, phi: int, *,
                         placement: str = "paper") -> bool:
    """Check the Sec. 5 no-extra-latency condition.

    For all owners ``i`` and rounds ``k``: the submatrix
    ``A_{I_{d_ik}, I_i}`` must contain at least one non-zero -- then the
    extras of round ``k`` always piggyback on an SpMV message and no extra
    latency is ever paid.
    """
    context = matrix.context
    n_nodes = matrix.partition.n_parts
    for owner in range(n_nodes):
        targets = backup_targets(owner, phi, n_nodes, placement)
        for target in targets:
            # A_{I_target, I_owner} has a non-zero exactly when the SpMV sends
            # at least one element from owner to target.
            if context.send_count(owner, target) == 0:
                return False
    return True


def piggyback_fraction(scheme: RedundancyScheme) -> float:
    """Fraction of (owner, round) extra transfers that ride on SpMV messages."""
    total = 0
    piggybacked = 0
    for owner in range(scheme.partition.n_parts):
        info = scheme.owner(owner)
        for k0, target in enumerate(info.targets):
            if info.extra_counts[k0] == 0:
                continue
            total += 1
            if scheme.context.send_count(owner, target) > 0:
                piggybacked += 1
    return piggybacked / total if total else 1.0


def sparsity_report(matrix: DistributedMatrix, phi: int, *,
                    placement: str = "paper") -> SparsityReport:
    """Produce a :class:`SparsityReport` for one matrix/partition/phi."""
    context = matrix.context
    scheme = RedundancyScheme(context, phi, placement=placement)
    unsent = {
        owner: int(context.unsent_indices(owner).size)
        for owner in range(context.partition.n_parts)
    }
    return SparsityReport(
        phi=phi,
        n_nodes=context.partition.n_parts,
        multiplicity_histogram=multiplicity_histogram(context),
        natural_coverage=natural_coverage_fraction(context, phi),
        piggyback_fraction=piggyback_fraction(scheme),
        band_condition=band_condition_holds(matrix, phi, placement=placement),
        unsent_per_owner=unsent,
    )

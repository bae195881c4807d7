"""Communication-overhead analysis of the redundancy scheme (Sec. 4.2).

The paper bounds the per-iteration overhead ``O`` of distributing ``phi``
redundant copies of the search direction by

``0 <= max_i sum_k |R^c_ik| mu <= O <= phi * (lambda_max + ceil(n/N) * mu)``

where the lower end is reached when every extra element piggybacks on an SpMV
message and the upper end corresponds to completely unshared, full-block
messages in every round.  :func:`analyze_overhead` evaluates the exact
per-round quantities for a given matrix/partition/phi and checks where the
scheme lands inside those bounds; the ``A3`` benchmark uses it to validate
the cost model against the analytic expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.redundancy import RedundancyScheme
from ..distributed.dmatrix import DistributedMatrix
from .sparsity import natural_coverage_fraction


@dataclass
class OverheadAnalysis:
    """Result of :func:`analyze_overhead` for one (matrix, N, phi) setting."""

    phi: int
    n_nodes: int
    block_size_max: int
    #: ``max_i |R^c_ik|`` per round k.
    max_extras_per_round: List[int]
    #: Total extra elements shipped per iteration (all nodes, all rounds).
    total_extra_elements: int
    #: Number of extra messages per iteration that cannot piggyback on SpMV.
    extra_messages: int
    #: Simulated per-iteration redundancy time.
    per_iteration_time: float
    #: Sec. 4.2 lower bound on the per-iteration overhead.
    lower_bound: float
    #: Sec. 4.2 upper bound on the per-iteration overhead.
    upper_bound: float
    #: Fraction of elements that already have >= phi natural copies.
    natural_coverage: float
    #: Baseline per-iteration halo traffic (elements), for relative comparisons.
    halo_elements: int
    per_owner_extras: Dict[int, int] = field(default_factory=dict)

    @property
    def within_bounds(self) -> bool:
        """Whether the modelled overhead respects the analytic bounds."""
        eps = 1e-12
        return (self.lower_bound - eps) <= self.per_iteration_time \
            <= (self.upper_bound + eps)


def analyze_overhead(matrix: DistributedMatrix, phi: int, *,
                     placement: str = "paper") -> OverheadAnalysis:
    """Full Sec. 4.2-style analysis for one distributed matrix and ``phi``,
    over the matrix's scatter plan, priced on the matrix's cluster."""
    context = matrix.context
    scheme = RedundancyScheme(context, phi, placement=placement)
    topology = matrix.cluster.topology
    model = matrix.cluster.machine

    n_nodes = matrix.partition.n_parts
    lower, upper = scheme.overhead_bounds(topology, model)
    messages, _elements = scheme.extra_traffic_per_iteration()
    per_iteration_time = scheme.per_iteration_overhead_time(topology, model)

    per_owner = {
        owner: scheme.owner(owner).total_extra for owner in range(n_nodes)
    }
    return OverheadAnalysis(
        phi=phi,
        n_nodes=n_nodes,
        block_size_max=matrix.partition.max_block_size(),
        max_extras_per_round=scheme.max_extra_per_round(),
        total_extra_elements=scheme.total_extra_elements(),
        extra_messages=messages,
        per_iteration_time=per_iteration_time,
        lower_bound=lower,
        upper_bound=upper,
        natural_coverage=natural_coverage_fraction(context, phi),
        halo_elements=context.total_exchanged_elements(),
        per_owner_extras=per_owner,
    )

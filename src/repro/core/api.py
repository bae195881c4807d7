"""High-level API: one ``repro.solve()`` entry point behind a solver registry.

The substrates are wired together declaratively: a
:class:`~repro.core.spec.SolveSpec` (plus optional
:class:`~repro.core.spec.ResilienceSpec` / :class:`~repro.core.spec.BlockSpec`
extensions) describes the solve, the :mod:`~repro.core.registry` maps its
solver name to a solver class, and :func:`solve` normalises the input --
a raw SciPy matrix is distributed over a fresh virtual cluster, an ``(n, k)``
right-hand-side block becomes a
:class:`~repro.distributed.dmultivector.DistributedMultiVector` -- resolves
the preconditioner once per problem (cached on the
:class:`DistributedProblem`, invalidated via the matrix's
``structure_version``), and runs the solver.  Both registered solvers run
the one PCG core (:mod:`repro.core.block_pcg`) and answer in the shape of
the right-hand side: a 1-D vector is its ``k = 1`` case and comes back as a
single-RHS result, a block comes back as a block result.

>>> import repro
>>> a = repro.matrices.poisson_2d(32)
>>> problem = repro.distribute_problem(a, n_nodes=8)
>>> result = repro.solve(problem, spec=repro.SolveSpec(
...     resilience=repro.ResilienceSpec(phi=3, failures=[(20, [2, 3, 4])]),
... ))
>>> result.converged
True

The same ``ResilienceSpec`` next to an ``(n, k)`` right-hand-side block
runs the same resilient solver
(:class:`~repro.core.resilient_block_pcg.ResilientBlockPCG`) on the block,
so every solve reachable through this façade can survive node failures.

Keyword overrides are routed into the spec (``repro.solve(problem, phi=3,
failures=[(20, [2])])`` is the short form of the above), so quick scripts
never have to spell the dataclasses out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..cluster.cluster import VirtualCluster
from ..cluster.cost_model import MachineModel
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..distributed.dvector import DistributedVector
from ..distributed.partition import BlockRowPartition
from ..precond.base import Preconditioner
from ..precond.factory import make_preconditioner
from ..utils.validation import check_finite
from .block_pcg import BlockSolveResult, DistributedSolveResult
from .reconstruction import restore_rhs, store_rhs
from .registry import SOLVERS, register_solver
from .spec import BlockSpec, ResilienceSpec, SolveSpec, build_failure_events

__all__ = [
    "DistributedProblem",
    "distribute_problem",
    "solve",
    "SolveSpec",
    "ResilienceSpec",
    "BlockSpec",
    "SOLVERS",
    "register_solver",
    "build_failure_events",
]

#: ``solve`` keyword arguments consumed by problem construction (only legal
#: when a raw matrix is passed), not by the :class:`SolveSpec`.
_CLUSTER_KEYS = ("n_nodes", "machine", "seed")


@dataclass
class DistributedProblem:
    """A linear system distributed over a virtual cluster.

    Besides the distributed operands the problem caches two derived objects
    keyed by the matrix's ``structure_version``:

    * :meth:`global_operator` -- the assembled global CSR matrix, so repeated
      solves stop paying an ``O(nnz)`` gather per call;
    * :meth:`resolve_preconditioner` -- set-up preconditioner instances per
      name, so one problem re-uses one block-Jacobi factorization across
      its solves.

    A recovered solve keeps both: restoring a rank's block from reliable
    storage puts the rank's own view back and changes no value, so the
    version stays.  A restore of other values bumps it, and both caches are
    rebuilt on next use.
    """

    cluster: VirtualCluster
    partition: BlockRowPartition
    matrix: DistributedMatrix
    rhs: DistributedVector

    #: Cached ``matrix.to_global()`` (+ the structure version it was built at).
    _operator_cache: Optional[sp.csr_matrix] = field(
        default=None, init=False, repr=False, compare=False)
    _operator_version: int = field(default=-1, init=False, repr=False,
                                   compare=False)
    #: ``lower-case name -> set-up preconditioner`` for the cached version.
    _precond_cache: Dict[str, Preconditioner] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _precond_version: int = field(default=-1, init=False, repr=False,
                                  compare=False)

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def n_nodes(self) -> int:
        return self.partition.n_parts

    @property
    def context(self) -> CommunicationContext:
        """The matrix's scatter plan (:attr:`DistributedMatrix.context`)."""
        return self.matrix.context

    # -- cached derived objects ------------------------------------------------
    def global_operator(self) -> sp.csr_matrix:
        """The assembled global matrix, cached until a stored value changes."""
        version = self.matrix.structure_version
        if self._operator_cache is None or self._operator_version != version:
            self._operator_cache = self.matrix.to_global()
            self._operator_version = version
        return self._operator_cache

    def resolve_preconditioner(
            self, preconditioner: Union[str, Preconditioner] = "block_jacobi"
    ) -> Preconditioner:
        """A set-up preconditioner for this problem.

        Instances are set up (against the cached :meth:`global_operator`) and
        returned as-is; names are built via
        :func:`~repro.precond.factory.make_preconditioner` once per
        lower-case name and cached until a stored matrix value changes (the
        matrix's ``structure_version``).
        """
        if isinstance(preconditioner, Preconditioner):
            if not preconditioner.is_set_up:
                preconditioner.setup(self.global_operator(), self.partition)
            return preconditioner
        version = self.matrix.structure_version
        if self._precond_version != version:
            self._precond_cache.clear()
            self._precond_version = version
        key = preconditioner.lower()
        cached = self._precond_cache.get(key)
        if cached is None:
            cached = make_preconditioner(preconditioner)
            cached.setup(self.global_operator(), self.partition)
            self._precond_cache[key] = cached
        return cached


def distribute_problem(matrix: Any, rhs: Optional[np.ndarray] = None, *,
                       n_nodes: int = 8,
                       machine: Optional[MachineModel] = None,
                       seed: Optional[int] = None
                       ) -> DistributedProblem:
    """Distribute ``A x = b`` over a new virtual cluster.

    This is the one way a problem's cluster is built: each problem gets its
    own, so no other problem's blocks can overwrite its matrix or
    right-hand side.

    Parameters
    ----------
    matrix:
        Global SPD matrix (any SciPy sparse format or dense array).
    rhs:
        Right-hand side; defaults to ``A @ ones`` so the exact solution is the
        all-ones vector (handy for verification).
    n_nodes, machine, seed:
        The cluster options: the number of virtual compute nodes, the
        machine model (which also prices the interconnect) and the jitter
        seed, forwarded to :class:`~repro.cluster.cluster.VirtualCluster`.
    """
    a = sp.csr_matrix(matrix)
    n = a.shape[0]
    if rhs is None:
        rhs = a @ np.ones(n)
    rhs = check_finite(rhs, "rhs")
    cluster = VirtualCluster(n_nodes, machine=machine, seed=seed)
    partition = BlockRowPartition(n, cluster.n_nodes)
    a_dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    b_dist = DistributedVector.from_global(cluster, partition, "b", rhs)
    # Static data: a recovered solve of another rhs may replace nodes.
    store_rhs(cluster, b_dist)
    return DistributedProblem(cluster, partition, a_dist, b_dist)


def _restore_lost_rhs(problem: DistributedProblem) -> None:
    """Restore the blocks of ``problem.rhs`` that replaced nodes lost, from
    reliable storage (charged to the recovery)."""
    for rank in problem.rhs.lost_ranks():
        restore_rhs(problem.cluster, problem.rhs, rank)


def _normalize_rhs(problem: DistributedProblem, rhs: Any
                   ) -> DistributedMultiVector:
    """Turn *rhs* into a distributed (multi-)vector on *problem*'s cluster."""
    if rhs is None:
        # A solver class run directly on another right-hand side may have
        # replaced nodes holding blocks of the problem's own.
        _restore_lost_rhs(problem)
        return problem.rhs
    if isinstance(rhs, DistributedMultiVector):
        if rhs.cluster is not problem.cluster:
            raise ValueError("rhs lives on a different cluster than the problem")
        if not problem.partition.is_compatible_with(rhs.partition):
            raise ValueError("rhs has a partition incompatible with the problem")
        return rhs
    values = check_finite(rhs, "rhs")
    if values.ndim == 1:
        return DistributedVector.from_global(
            problem.cluster, problem.partition, "solve:b", values)
    if values.ndim == 2:
        return DistributedMultiVector.from_global(
            problem.cluster, problem.partition, "solve:B", values)
    raise ValueError(f"rhs must be 1-D or (n, k) 2-D, got shape {values.shape}")


def solve(problem: Any, rhs: Any = None, spec: Optional[SolveSpec] = None,
          **overrides: Any
          ) -> Union[DistributedSolveResult, BlockSolveResult]:
    """Solve ``A x = b`` (or ``A X = B``) as described by a :class:`SolveSpec`.

    Parameters
    ----------
    problem:
        A :class:`DistributedProblem`, or a raw global matrix (any SciPy
        sparse format / dense array) that is distributed first.  With a raw
        matrix the cluster options ``n_nodes``, ``machine`` and ``seed`` may
        be passed as keyword arguments (they are forwarded to
        :func:`distribute_problem`).
    rhs:
        Right-hand side(s): ``None`` (the problem's stored rhs, or ``A @
        ones`` for a raw matrix), a global 1-D array, a global ``(n, k)``
        array, or an already-distributed (multi-)vector on the problem's
        cluster.
    spec:
        The declarative configuration; defaults to ``SolveSpec()`` (plain
        PCG, block Jacobi, ``rtol=1e-8``).  An unknown solver name raises
        the registry's ``ValueError`` before any set-up or charge.
    **overrides:
        Spec-field overrides applied via :meth:`SolveSpec.with_overrides` --
        including extension fields such as ``phi``, ``failures`` or
        ``fuse_reductions`` -- plus the cluster options above.

    Returns
    -------
    :class:`~repro.core.block_pcg.DistributedSolveResult` for a 1-D
    right-hand side (a global 1-D array, a
    :class:`~repro.distributed.dvector.DistributedVector` or the problem's
    stored rhs), :class:`~repro.core.block_pcg.BlockSolveResult` for a
    block (a global ``(n, k)`` array or a
    :class:`~repro.distributed.dmultivector.DistributedMultiVector`, also
    with ``k = 1``), whatever the solver name or a ``BlockSpec`` says.
    """
    cluster_kwargs = {k: overrides.pop(k) for k in _CLUSTER_KEYS
                      if k in overrides}
    spec = spec if spec is not None else SolveSpec()
    if overrides:
        spec = spec.with_overrides(**overrides)
    build_solver = SOLVERS.get(spec.resolved_solver())

    if isinstance(problem, DistributedProblem):
        if cluster_kwargs:
            raise ValueError(
                f"cluster options {sorted(cluster_kwargs)} only apply when a "
                "raw matrix is passed; the problem's cluster is reused"
            )
        rhs_obj = _normalize_rhs(problem, rhs)
    else:
        values = None if rhs is None else check_finite(rhs, "rhs")
        if values is not None and values.ndim == 2:
            # The problem's single-rhs slot is unused on the block path;
            # zeros skip the default ``A @ ones`` SpMV.
            problem = distribute_problem(
                problem, np.zeros(values.shape[0]), **cluster_kwargs)
            rhs_obj = DistributedMultiVector.from_global(
                problem.cluster, problem.partition, "solve:B", values)
        else:
            problem = distribute_problem(problem, values, **cluster_kwargs)
            rhs_obj = problem.rhs

    preconditioner = problem.resolve_preconditioner(spec.preconditioner)
    result = build_solver(problem, rhs_obj, preconditioner, spec).solve()
    if result.recoveries and rhs_obj is not problem.rhs:
        # The replacement nodes came up without their block of the
        # problem's own right-hand side; restore it now, so a caller reading
        # ``problem.rhs`` sees it whole.
        _restore_lost_rhs(problem)
    return result


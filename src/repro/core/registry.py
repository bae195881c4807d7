"""Solver registry: from ``SolveSpec.solver`` names to configured solvers.

:data:`SOLVERS` is a :class:`~repro.utils.registry.Registry` of solver
builders, the same class every named choice uses (preconditioners,
placements, redundancy schemes, batching policies).  The façade
(:func:`repro.core.api.solve`) resolves the name with
:meth:`SolveSpec.resolved_solver`, looks the builder up with
``SOLVERS.get`` and calls it; new scenarios (coupled block-CG, ...) plug in
as a ``@register_solver("name")`` builder plus whatever :class:`SolveSpec`
extension they need -- no new top-level helper required.

Two names are built in, one per class of the single PCG core:
``"pcg"`` builds :class:`~repro.core.block_pcg.BlockPCG` and
``"resilient_pcg"`` builds
:class:`~repro.core.resilient_block_pcg.ResilientBlockPCG`.  Both hand the
right-hand side to the solver unchanged, and the solver answers in its
shape: a 1-D vector with a single-RHS result, an ``(n, k)`` block (even
``k = 1``) with a block result.  An attached :class:`BlockSpec` checks the
block's column count and may fuse reductions; it never changes the shape
of the answer.

A builder receives ``(problem, rhs, preconditioner, spec)`` -- the
distributed problem, the already-distributed right-hand side (a
:class:`~repro.distributed.dmultivector.DistributedMultiVector`; a 1-D
:class:`~repro.distributed.dvector.DistributedVector` is its one-column
case), the resolved (set-up) preconditioner, and the full
:class:`SolveSpec` -- and returns a solver object exposing ``solve()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..precond.base import Preconditioner
from ..distributed.dmultivector import DistributedMultiVector
from ..utils.registry import Registry
from .block_pcg import BlockPCG
from .resilient_block_pcg import ResilientBlockPCG
from .spec import SolveSpec

if TYPE_CHECKING:  # circular at runtime: api.py imports this module
    from .api import DistributedProblem

#: A solver builder: ``(problem, rhs, preconditioner, spec) -> solver``.
SolverBuilder = Callable[..., object]

#: The registry behind :func:`repro.solve`.
SOLVERS: Registry[SolverBuilder] = Registry("solver")

#: Register a solver builder in :data:`SOLVERS` (decorator).
register_solver = SOLVERS.register


def _build(cls: type, problem: "DistributedProblem",
           rhs: DistributedMultiVector,
           preconditioner: Preconditioner, spec: SolveSpec,
           **extra: Any) -> Any:
    """*cls* configured with the spec's common solver options and its
    :class:`BlockSpec`, whose ``n_cols`` must match the rhs."""
    block = spec.block
    if block is not None and block.n_cols is not None \
            and rhs.n_cols != block.n_cols:
        raise ValueError(
            f"BlockSpec expects n_cols={block.n_cols} right-hand sides but "
            f"the RHS block carries {rhs.n_cols}"
        )
    return cls(
        problem.matrix, rhs, preconditioner,
        rtol=spec.rtol, atol=spec.atol, max_iterations=spec.max_iterations,
        fuse_reductions=block is not None and block.fuse_reductions,
        **extra,
    )


@register_solver("pcg")
def build_pcg(problem: "DistributedProblem",
              rhs: DistributedMultiVector,
              preconditioner: Preconditioner,
              spec: SolveSpec) -> BlockPCG:
    """The plain distributed PCG (the paper's reference solver)."""
    if spec.resilience is not None:
        raise ValueError(
            "solver 'pcg' does not understand a ResilienceSpec; use "
            "solver='resilient_pcg' for ESR-protected solves"
        )
    return _build(BlockPCG, problem, rhs, preconditioner, spec)


@register_solver("resilient_pcg")
def build_resilient_pcg(problem: "DistributedProblem",
                        rhs: DistributedMultiVector,
                        preconditioner: Preconditioner,
                        spec: SolveSpec) -> ResilientBlockPCG:
    """The ESR-protected PCG (the paper's contribution)."""
    return _build(ResilientBlockPCG, problem, rhs, preconditioner, spec,
                  resilience=spec.resilience)

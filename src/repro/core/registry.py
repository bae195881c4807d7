"""Solver registry: from ``SolveSpec.solver`` names to configured solvers.

:data:`SOLVERS` is a :class:`~repro.utils.registry.Registry` of solver
builders, the same class every named choice uses (preconditioners,
placements, redundancy schemes, batching policies).  The façade
(:func:`repro.core.api.solve`) resolves the name with
:meth:`SolveSpec.resolved_solver`, looks the builder up with
``SOLVERS.get`` and calls it; new scenarios (coupled block-CG, ...) plug in
as a ``@register_solver("name")`` builder plus whatever :class:`SolveSpec`
extension they need -- no new top-level helper required.

Every built-in name builds one of the two classes of the single PCG core:
:class:`~repro.core.block_pcg.BlockPCG` (``"pcg"``, ``"block_pcg"``) or
:class:`~repro.core.resilient_block_pcg.ResilientBlockPCG`
(``"resilient_pcg"``, ``"resilient_block_pcg"``).  The single-RHS names hand
the solver the 1-D right-hand side, which it runs as a ``k = 1`` block and
answers with a single-RHS result; the block names take ``(n, k)`` blocks (a
1-D rhs is handed over as its ``k = 1`` multi-vector view and answered as a
block).  A
``SolveSpec`` carrying *both* a ``ResilienceSpec`` and a multi-RHS block
dispatches to ``"resilient_block_pcg"``.

A builder receives ``(problem, rhs, preconditioner, spec)`` -- the
distributed problem, the already-distributed right-hand side (a
:class:`~repro.distributed.dmultivector.DistributedMultiVector`; a 1-D
:class:`~repro.distributed.dvector.DistributedVector` is its one-column
case), the
resolved (set-up) preconditioner, and the full :class:`SolveSpec` -- and
returns a solver object exposing ``solve()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..precond.base import Preconditioner
from ..distributed.dmultivector import DistributedMultiVector
from ..distributed.dvector import DistributedVector
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


def _require_single_rhs(rhs: DistributedMultiVector,
                        solver: str) -> DistributedVector:
    if not isinstance(rhs, DistributedVector):
        raise ValueError(
            f"solver {solver!r} takes a single right-hand side; pass a "
            "1-D rhs or select solver='block_pcg' for (n, k) blocks"
        )
    return rhs


def _require_no_block(spec: SolveSpec, solver: str) -> None:
    if spec.block is not None:
        raise ValueError(
            f"solver {solver!r} does not understand a BlockSpec; use "
            "solver='block_pcg' for multi-RHS solves"
        )


def _require_no_resilience(spec: SolveSpec, solver: str) -> None:
    if spec.resilience is not None:
        suggestion = "resilient_block_pcg" if solver == "block_pcg" \
            else "resilient_pcg"
        raise ValueError(
            f"solver {solver!r} does not understand a ResilienceSpec; use "
            f"solver={suggestion!r} for ESR-protected solves"
        )


def _build(cls: type, problem: "DistributedProblem",
           rhs: DistributedMultiVector,
           preconditioner: Preconditioner, spec: SolveSpec,
           **extra: Any) -> Any:
    """*cls* configured with the spec's common solver options."""
    return cls(
        problem.matrix, rhs, preconditioner,
        rtol=spec.rtol, atol=spec.atol, max_iterations=spec.max_iterations,
        **extra,
    )


@register_solver("pcg")
def build_pcg(problem: "DistributedProblem",
              rhs: DistributedMultiVector,
              preconditioner: Preconditioner,
              spec: SolveSpec) -> BlockPCG:
    """The plain distributed PCG (the paper's reference solver)."""
    _require_no_resilience(spec, "pcg")
    _require_no_block(spec, "pcg")
    return _build(BlockPCG, problem, _require_single_rhs(rhs, "pcg"),
                  preconditioner, spec)


@register_solver("resilient_pcg")
def build_resilient_pcg(problem: "DistributedProblem",
                        rhs: DistributedMultiVector,
                        preconditioner: Preconditioner,
                        spec: SolveSpec) -> ResilientBlockPCG:
    """The ESR-protected PCG (the paper's contribution)."""
    _require_no_block(spec, "resilient_pcg")
    return _build(ResilientBlockPCG, problem,
                  _require_single_rhs(rhs, "resilient_pcg"), preconditioner,
                  spec, resilience=spec.resilience)


def _block_rhs(rhs: DistributedMultiVector,
               spec: SolveSpec) -> DistributedMultiVector:
    """*rhs* as a plain multi-vector (a vector's zero-copy ``k = 1`` view, so
    the run is answered as a block), checked against ``BlockSpec.n_cols``."""
    n_cols = spec.block.n_cols if spec.block is not None else None
    if n_cols is not None and rhs.n_cols != n_cols:
        raise ValueError(
            f"BlockSpec expects n_cols={n_cols} right-hand sides but "
            f"the RHS block carries {rhs.n_cols}"
        )
    return rhs.as_multivector()


def _fuse_reductions(spec: SolveSpec) -> bool:
    return spec.block is not None and spec.block.fuse_reductions


@register_solver("block_pcg")
def build_block_pcg(problem: "DistributedProblem",
                    rhs: DistributedMultiVector,
                    preconditioner: Preconditioner,
                    spec: SolveSpec) -> BlockPCG:
    """The lock-step multi-RHS block PCG (no failure handling)."""
    _require_no_resilience(spec, "block_pcg")
    return _build(BlockPCG, problem, _block_rhs(rhs, spec),
                  preconditioner, spec,
                  fuse_reductions=_fuse_reductions(spec))


@register_solver("resilient_block_pcg")
def build_resilient_block_pcg(problem: "DistributedProblem",
                              rhs: DistributedMultiVector,
                              preconditioner: Preconditioner,
                              spec: SolveSpec) -> ResilientBlockPCG:
    """The ESR-protected multi-RHS block PCG (ResilienceSpec + BlockSpec)."""
    return _build(ResilientBlockPCG, problem,
                  _block_rhs(rhs, spec), preconditioner,
                  spec, fuse_reductions=_fuse_reductions(spec),
                  resilience=spec.resilience)

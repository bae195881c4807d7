"""The resilient PCG solver: PCG + ESR redundancy + multi-failure recovery.

:class:`ResilientBlockPCG` extends the lock-step
:class:`~repro.core.block_pcg.BlockPCG` (one right-hand side is the ``k = 1``
block) with

* the ESR protocol of Sec. 4.1 -- after every SpMV, ``phi`` redundant copies
  of each row block of the two most recent search directions are kept on the
  backup nodes selected by Eqn. (5), shipping only the minimal extra sets of
  Eqn. (6); the redundancy scheme is laid out over the matrix's own scatter
  plan (:attr:`~repro.distributed.dmatrix.DistributedMatrix.context`), which
  keeps it: every resilient solve of one problem with the same layout
  (scheme, ``phi``, placement) reuses the scheme and its static tables,
  and only the slot buffers of the ESR protocol are new per solve;
* failure handling -- when the ``failures`` schedule strikes (possibly
  several nodes simultaneously, possibly again during a running recovery),
  the ULFM runtime provides replacement nodes and the ESR reconstruction
  restores the exact solver state before iterating on (the one failure path
  of :class:`~repro.core.reconstruction.FailureHandlingMixin`, which also
  tags an :class:`~repro.cluster.errors.UnrecoverableStateError` with the
  iteration it struck at).

A failure-free run (with ``phi >= 1``) measures the "relative overhead
undisturbed" column of Table 2; runs with injected failures measure the
reconstruction time and the "overhead with failures" columns.
``ResilientPCG`` is the same class under its single-vector name.

The ESR machinery works on whole ``(n_i, k)`` blocks:

* after every batched SpMV, each holder stores ``(rows, k)`` slices of the
  two most recent search-direction blocks, all gathered with one
  fancy-index into the search direction's ``(n, k)`` array (see
  :mod:`repro.core.esr`);
* the extra redundancy traffic is charged with the block charge model --
  message count and latency terms independent of ``k``, volume scaling with
  ``k`` -- exactly mirroring how the batched halo exchange is charged;
* the per-column recurrence coefficients ``beta^(j-1)`` are replicated as one
  ``(k,)`` vector and recovered with a single message;
* recovery rebuilds all ``k`` columns of every lost ``(n_i, k)`` row block
  with one reverse scatter and **one local multi-RHS solve per failed set**
  (factorization amortized over the columns, see
  :meth:`~repro.solvers.local_solver.LocalSubsystemSolver.solve_block`).

**Equivalence contract** (pinned by ``tests/test_core_resilient_block_pcg.py``
and ``benchmarks/bench_resilient_block_pcg.py``):

* with no failure events and ``phi = 0`` the run is bit-identical to
  :class:`BlockPCG` in iterates *and* ledger charges; with ``phi > 0`` the
  iterates stay bit-identical and the charges differ only by the per-
  iteration redundancy overhead;
* under a failure schedule that strikes while the columns are active, each
  recovered column's iterates and residual history are bit-identical to a
  sequential ``k = 1`` solve of that column hit by the same schedule;
* column freezing interacts correctly with recovery: converged/broken
  columns of a failed rank are restored along with the rest of the block
  (their reconstructed values are exact up to the local-solver tolerance)
  but stay frozen -- their histories do not grow and their coefficients
  remain an exact ``0.0``.
"""

from __future__ import annotations

from typing import List, Optional

from .. import sanitizer as _sanitizer
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..precond.base import Preconditioner
from ..utils.logging import get_logger
from .block_pcg import BlockPCG
from .esr import ESRProtocol
from .reconstruction import (ESRReconstructor, FailureHandlingMixin,
                             RecoveryReport)
from .redundancy import build_redundancy_scheme
from .spec import ResilienceSpec

logger = get_logger("core.resilient_block_pcg")


class EsrResilienceMixin(FailureHandlingMixin):
    """ESR-resilience plumbing of the resilient solver.

    Expects the host class to provide the solver substrate (``cluster``,
    ``partition``, ``context``, ``matrix``, ``rhs``, ``n_cols``,
    ``preconditioner``, and the live state operands ``x``/``r``/``z``/``p``
    plus ``beta_prev``); adds the redundancy scheme, the ESR protocol, the
    reconstructor, and the ESR reconstruction as the episode's ``_recover``.
    """

    def _init_resilience(self, resilience: ResilienceSpec) -> None:
        """Build the failure injector, the ESR protocol and the
        reconstructor that *resilience* describes, over the redundancy
        scheme of its layout (built on the problem's first solve with that
        layout, then reused)."""
        self._init_failure_handling(resilience.failures)
        if self.failure_injector is not None:
            worst = self.failure_injector.max_simultaneous_failures()
            if worst > resilience.phi:
                logger.warning(
                    "failure schedule contains %d simultaneous failures but "
                    "phi=%d redundant copies are kept; recovery may fail",
                    worst, resilience.phi,
                )
        self.resilience = resilience
        self.scheme = build_redundancy_scheme(
            resilience.scheme, self.context, resilience.phi,
            placement=resilience.placement)
        self.esr = ESRProtocol(self.cluster, self.scheme, n_cols=self.n_cols)
        self.reconstructor = ESRReconstructor(
            self.matrix, self.rhs, self.preconditioner, self.esr)

    # -- hooks ------------------------------------------------------------------
    def _after_spmv(self, iteration: int) -> None:
        """Keep the redundant copies and replicate the recurrence coefficients."""
        super()._after_spmv(iteration)
        if _sanitizer._ACTIVE is not None:
            _sanitizer._ACTIVE.on_resilience_hook(self, "after_spmv")
        self.esr.after_spmv(self.p, iteration)
        self.esr.store_replicated_scalars(iteration, beta=self.beta_prev)

    def _recover(self, failed: List[int], iteration: int) -> RecoveryReport:
        """Run the ESR reconstruction; failures that strike while it runs
        restart it with the enlarged failed set."""
        return self.reconstructor.reconstruct(
            failed, iteration=iteration,
            x=self.x, r=self.r, z=self.z, p=self.p,
            overlap_provider=lambda: self._fire_due_failures(
                iteration, overlapping=True),
        )

    # -- result assembly ------------------------------------------------------------
    def solve(self, x0=None):
        """Run the host solver's loop, then decorate the result with the
        resilience metadata (the host's ``_build_result`` already collected
        the recovery reports)."""
        result = super().solve(x0)
        result.info["phi"] = self.scheme.phi
        result.info["placement"] = self.scheme.placement
        result.info["scheme"] = self.scheme.scheme_name
        result.info["redundancy"] = self.esr.overhead_summary()
        return result


class ResilientBlockPCG(EsrResilienceMixin, BlockPCG):
    """PCG protected against up to ``phi`` simultaneous/overlapping node failures.

    Parameters
    ----------
    matrix, rhs, preconditioner:
        As for :class:`~repro.core.block_pcg.BlockPCG` (``rhs`` is a 1-D
        :class:`~repro.distributed.dvector.DistributedVector` or an ``(n, k)``
        :class:`DistributedMultiVector`); the preconditioner must be
        block-diagonal (the paper uses block Jacobi).
    resilience:
        The whole resilience configuration: redundancy level ``phi``
        (``0 <= phi < N``), redundancy scheme, backup placement and
        failure schedule (see :class:`~repro.core.spec.ResilienceSpec`).
        ``None`` means ``ResilienceSpec()``, the paper's settings.  The spec
        stays readable as :attr:`resilience`, the injector built from its
        failure schedule as :attr:`failure_injector`; each recovery episode
        is a :class:`RecoveryReport` in ``result.recoveries``.

    The remaining keyword arguments (``rtol``/``atol``/``max_iterations``/
    ``fuse_reductions``) are those of :class:`BlockPCG`.
    """

    vector_prefix = "resilient_bpcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 resilience: Optional[ResilienceSpec] = None,
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None,
                 fuse_reductions: bool = False):
        super().__init__(matrix, rhs, preconditioner, rtol=rtol, atol=atol,
                         max_iterations=max_iterations,
                         fuse_reductions=fuse_reductions)
        self._init_resilience(resilience if resilience is not None
                              else ResilienceSpec())

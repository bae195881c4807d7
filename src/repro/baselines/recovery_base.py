"""The recovery the baseline strategies share.

Every baseline (checkpoint/restart, interpolation/restart, full restart)
handles failures on the one failure path of the library,
:class:`~repro.core.reconstruction.FailureHandlingMixin`, like the ESR
solver: it takes a ``failures`` schedule in the ``ResilienceSpec.failures``
form, fires the due events, and reports each episode as a
:class:`~repro.core.reconstruction.RecoveryReport` in ``result.recoveries``.
:class:`BaselineRecoveryMixin` is the episode's recovery for a strategy
without redundant dynamic data: fold the overlapping failures into the
failed set, install replacement nodes, and re-retrieve the *static* data
(matrix row blocks, right-hand-side blocks) from reliable storage.  Only the
treatment of the *dynamic* solver state differs between strategies: each
implements ``_restore_state(failed, iteration)``.  The baselines run the one
PCG core (:class:`~repro.core.block_pcg.BlockPCG`: a 1-D right-hand side is
its ``k = 1`` case) and only override its hooks.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.reconstruction import (FailureHandlingMixin, RecoveryReport,
                                   restore_rhs)


class BaselineRecoveryMixin(FailureHandlingMixin):
    """Recovery episodes of a :class:`~repro.core.block_pcg.BlockPCG`
    baseline; the subclass implements ``_restore_state(failed, iteration)``,
    which rebuilds the lost dynamic state."""

    def _recover(self, failed: List[int], iteration: int) -> RecoveryReport:
        """Recover from the failure of *failed* at *iteration*.

        Overlapping events (``during_recovery_of``) are folded into the same
        failure set: the baseline strategies have no notion of a restartable
        reconstruction, so an overlapping failure simply behaves like an
        additional simultaneous failure.
        """
        failed = sorted(set(failed) | set(
            self._fire_due_failures(iteration, overlapping=True)))
        still_failed = [r for r in failed if self.cluster.node(r).is_failed]
        if still_failed:
            self.cluster.replace_nodes(still_failed)
        for rank in failed:
            self.matrix.restore_block_to_node(rank, charge=True)
            restore_rhs(self.cluster, self.rhs, rank)
        self._reinitialize_lost_blocks(failed)
        self._restore_state(failed, iteration)
        return RecoveryReport(iteration=iteration, failed_ranks=failed)

    def _reinitialize_lost_blocks(self, failed_ranks: List[int]) -> None:
        """Create zero blocks of the dynamic work vectors on replacement nodes.

        The baseline strategies overwrite these with their own recovered
        values (checkpoint data, interpolated iterate, or a fresh start), but
        the blocks must exist before any in-place vector operation touches
        them.
        """
        for rank in failed_ranks:
            shape = (self.partition.size_of(rank), self.n_cols)
            for vec in (self.x, self.r, self.z, self.p, self.ap):
                if vec is not None and not vec.has_block(rank):
                    vec.restore_block(rank, np.zeros(shape))

    def _restart_krylov(self) -> None:
        """Restart the recurrences from the current iterate: recompute
        ``R``, ``Z`` and ``P`` (:meth:`BlockPCG._reset_krylov`) and ``R^T Z``,
        and forget ``beta``.  The restart rewrote the iterate of every
        column, so every column that did not break down or go non-finite
        iterates again -- including ones that had already converged."""
        self._reset_krylov()
        self.rz = self.r.dots(self.z)
        self.beta_prev = np.zeros(self.n_cols)
        self.active = ~(self.breakdown | self.nonfinite)

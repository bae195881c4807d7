"""Shared machinery for the baseline recovery strategies.

Every baseline (checkpoint/restart, interpolation/restart, full restart) has
to perform the same bookkeeping when nodes fail: trigger the due events of
the failure schedule, install replacement nodes through the ULFM runtime, and
re-retrieve the *static* data (matrix row blocks, right-hand-side blocks) from
reliable storage -- only the treatment of the *dynamic* solver state differs
between strategies.  :class:`FailureHandlingMixin` factors out the common
part so the baselines stay small and directly comparable to the ESR solver.
The baselines run the one PCG core (:class:`~repro.core.block_pcg.BlockPCG`:
a 1-D right-hand side is its ``k = 1`` case) and only override its hooks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..cluster.failure import FailureInjector
from ..core.reconstruction import restore_rhs, store_rhs
from ..utils.logging import get_logger

logger = get_logger("baselines")


class FailureHandlingMixin:
    """Mixin for :class:`~repro.core.block_pcg.BlockPCG` subclasses.

    Expects the host class to provide the solver substrate (``cluster``,
    ``matrix``, ``rhs``, ``partition``, ``n_cols`` and the work blocks); the
    subclass constructor sets ``failure_injector`` through
    :meth:`_init_failure_handling`.
    """

    failure_injector: Optional[FailureInjector]

    def _init_failure_handling(self,
                               failure_injector: Optional[FailureInjector]
                               ) -> None:
        if failure_injector is not None:
            failure_injector.check_ranks(self.partition.n_parts)
        self.failure_injector = failure_injector
        # The right-hand side is static data: deposit it in reliable storage.
        store_rhs(self.cluster, self.rhs)

    # -- event handling ---------------------------------------------------------
    def _trigger_due_failures(self, iteration: int) -> List[int]:
        """Fire all failure events due at *iteration*; return the failed ranks.

        Overlapping events (``during_recovery_of``) are folded into the same
        failure set: the baseline strategies have no notion of a restartable
        reconstruction, so an overlapping failure simply behaves like an
        additional simultaneous failure.
        """
        if self.failure_injector is None:
            return []
        failed: List[int] = []
        for overlapping in (False, True):
            due = self.failure_injector.events_due(iteration, overlapping=overlapping)
            if overlapping and not failed:
                # Overlap events only make sense if a primary event fired.
                continue
            for idx, event in due:
                self.failure_injector.trigger(idx, self.cluster.nodes)
                failed.extend(event.ranks)
        if failed:
            newly = self.cluster.ulfm.detect_failures()
            failed = sorted(set(failed) | set(newly))
            logger.info("iteration %d: failure of ranks %s", iteration, failed)
        return failed

    # -- static data restoration -----------------------------------------------------
    def _install_replacements(self, failed_ranks: List[int]) -> None:
        """Provide replacement nodes and restore the static data they own."""
        still_failed = [r for r in failed_ranks if self.cluster.node(r).is_failed]
        if still_failed:
            self.cluster.replace_nodes(still_failed)
        for rank in failed_ranks:
            self.matrix.restore_block_to_node(rank, charge=True)
            restore_rhs(self.cluster, self.rhs, rank)
        self._reinitialize_lost_blocks(failed_ranks)

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

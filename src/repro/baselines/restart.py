"""Full-restart baseline: start over from the initial guess after a failure.

The crudest possible recovery: no redundant data, no interpolation -- after a
node failure the solver simply restores the static data on the replacement
nodes and restarts PCG from the initial guess (zero).  All progress is lost,
which makes this the natural lower bound every smarter strategy is measured
against.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.failure import FailureInjector
from ..core.block_pcg import BlockPCG
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..precond.base import Preconditioner
from ..utils.logging import get_logger
from .recovery_base import FailureHandlingMixin

logger = get_logger("baselines.restart")


class FullRestartPCG(FailureHandlingMixin, BlockPCG):
    """PCG that restarts from scratch whenever nodes fail."""

    vector_prefix = "restart_pcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 failure_injector: Optional[FailureInjector] = None,
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None,
                 context: Optional[CommunicationContext] = None):
        super().__init__(matrix, rhs, preconditioner, rtol=rtol, atol=atol,
                         max_iterations=max_iterations, context=context)
        self._init_failure_handling(failure_injector)
        self.restarts = 0
        self.iterations_lost = 0

    def _handle_failures(self, iteration: int) -> bool:
        failed = self._trigger_due_failures(iteration)
        if not failed:
            return super()._handle_failures(iteration)
        self._install_replacements(failed)
        # Back to the initial guess (zero iterate).  The iteration counter
        # keeps running: a restart does not make the time already spent
        # disappear, it only discards its effect.
        self.x.fill(0.0)
        self._restart_krylov()
        logger.info("restarting from scratch after failure of %s "
                    "(%d iterations lost)", failed, iteration)
        self.iterations_lost += iteration
        self.restarts += 1
        return True

    def solve(self, x0=None):
        result = super().solve(x0)
        result.info["strategy"] = "full_restart"
        result.info["restarts"] = self.restarts
        result.info["iterations_lost"] = self.iterations_lost
        return result

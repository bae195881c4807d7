"""Full-restart baseline: start over from the initial guess after a failure.

The crudest possible recovery: no redundant data, no interpolation -- after a
node failure the solver simply restores the static data on the replacement
nodes and restarts PCG from the initial guess (zero).  All progress is lost,
which makes this the natural lower bound every smarter strategy is measured
against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.block_pcg import BlockPCG
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..precond.base import Preconditioner
from ..utils.logging import get_logger
from .recovery_base import BaselineRecoveryMixin

logger = get_logger("baselines.restart")


class FullRestartPCG(BaselineRecoveryMixin, BlockPCG):
    """PCG that restarts from scratch whenever nodes fail.

    *failures* is the failure schedule, in the ``ResilienceSpec.failures``
    form; each failure restarts the solve, one
    :class:`~repro.core.reconstruction.RecoveryReport` per episode in
    ``result.recoveries``.  ``info["iterations_lost"]`` counts the
    iterations the restarts discarded.
    """

    vector_prefix = "restart_pcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 failures: Iterable = (),
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None):
        super().__init__(matrix, rhs, preconditioner, rtol=rtol, atol=atol,
                         max_iterations=max_iterations)
        self._init_failure_handling(failures)

    def _on_setup(self) -> None:
        super()._on_setup()
        #: Iterations this solve's restarts discarded.
        self.iterations_lost = 0
        #: Iteration of the last restart (0: the initial start).
        self._restarted_at = 0

    def _restore_state(self, failed: List[int], iteration: int) -> None:
        """Back to the initial guess (zero iterate).

        The iteration counter keeps running: a restart does not make the
        time already spent disappear, it only discards the iterations since
        the last restart.
        """
        self.x.fill(0.0)
        self._restart_krylov()
        lost = iteration - self._restarted_at
        self.iterations_lost += lost
        self._restarted_at = iteration
        logger.info("restarting from scratch after failure of %s "
                    "(%d iterations lost)", failed, lost)

    def solve(self, x0=None):
        result = super().solve(x0)
        result.info["strategy"] = "full_restart"
        result.info["iterations_lost"] = self.iterations_lost
        return result

"""Checkpoint/restart baseline (Sec. 1.2, related work).

The most common fault-tolerance technique in practice: every ``interval``
iterations the full dynamic solver state (``x``, ``r``, ``z``, ``p`` and the
recurrence scalars) is written to reliable storage; after a node failure the
state is rolled back to the most recent checkpoint and the iterations since
then are repeated.  Unlike ESR, the failure-free overhead is paid every
``interval`` iterations regardless of the matrix structure, and recovery
throws away up to ``interval - 1`` iterations of work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..cluster.cost_model import Phase
from ..core.block_pcg import BlockPCG
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..precond.base import Preconditioner
from ..utils.logging import get_logger
from .recovery_base import BaselineRecoveryMixin

logger = get_logger("baselines.checkpoint")

#: Solver attributes besides the work blocks that a checkpoint captures: the
#: recurrence coefficients, the lock-step and per-column iteration counters,
#: the column states and the residual histories.
_CHECKPOINTED = ("global_iterations", "iterations", "rz", "beta_prev",
                 "active", "breakdown", "nonfinite", "residual_histories")


@dataclass(frozen=True)
class CheckpointConfig:
    """Configuration of the checkpoint/restart strategy."""

    #: Checkpoint every this many iterations (the paper's related work uses
    #: application-dependent intervals; 50 is a reasonable default for the
    #: scaled problems).  The initial state (iteration 0) is always
    #: checkpointed too, so every rollback has a checkpoint to go to.
    interval: int = 50

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.interval}")


class CheckpointRestartPCG(BaselineRecoveryMixin, BlockPCG):
    """Distributed PCG protected by periodic in-memory/remote checkpoints.

    *failures* is the failure schedule, in the ``ResilienceSpec.failures``
    form; each failure rolls the solver back to its last checkpoint, one
    :class:`~repro.core.reconstruction.RecoveryReport` per episode in
    ``result.recoveries``.  ``info["iterations_lost"]`` counts the
    iterations the rollbacks discarded.
    """

    vector_prefix = "cr_pcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 config: Optional[CheckpointConfig] = None,
                 failures: Iterable = (),
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None):
        super().__init__(matrix, rhs, preconditioner, rtol=rtol, atol=atol,
                         max_iterations=max_iterations)
        self.config = config if config is not None else CheckpointConfig()
        self._init_failure_handling(failures)

    # -- checkpointing ------------------------------------------------------------
    def _checkpoint_cost(self) -> float:
        """Simulated time to write one checkpoint (per-node row block of the
        four ``(n_i, k)`` work blocks)."""
        model = self.cluster.ledger.model
        block = self.partition.max_block_size()
        return model.storage_retrieve_time(4 * block * self.n_cols)

    def _take_checkpoint(self) -> None:
        """Snapshot the dynamic state to (failure-proof) storage."""
        state = {name: copy.deepcopy(getattr(self, name))
                 for name in _CHECKPOINTED}
        for name in ("x", "r", "z", "p"):
            state[name] = getattr(self, name).to_global()
        self.cluster.storage.put(("checkpoint", self.vector_prefix), state)
        self.checkpoints_taken += 1
        self.cluster.ledger.add_time(Phase.CHECKPOINT, self._checkpoint_cost())
        self.cluster.ledger.add_traffic(
            Phase.CHECKPOINT, self.partition.n_parts,
            4 * self.partition.n * self.n_cols,
        )

    def _restore_state(self, failed: List[int], iteration: int) -> None:
        """Roll the full solver state back to the last checkpoint."""
        state = self.cluster.storage.retrieve(("checkpoint", self.vector_prefix),
                                              charge=True)
        lost = self.global_iterations - int(state["global_iterations"])
        self.iterations_lost += max(lost, 0)
        for name in ("x", "r", "z", "p"):
            values = np.asarray(state[name])
            vec = getattr(self, name)
            for rank in range(self.partition.n_parts):
                start, stop = self.partition.range_of(rank)
                vec.restore_block(rank, values[start:stop])
        for name in _CHECKPOINTED:
            setattr(self, name, copy.deepcopy(state[name]))
        logger.info("rolled back to iteration %d after failure of %s",
                    self.global_iterations, failed)

    # -- hooks -----------------------------------------------------------------------
    def _on_setup(self) -> None:
        super()._on_setup()
        #: This solve's counters.
        self.checkpoints_taken = 0
        self.iterations_lost = 0
        self._take_checkpoint()

    def _after_iteration(self, iteration: int) -> None:
        super()._after_iteration(iteration)
        if iteration % self.config.interval == 0:
            self._take_checkpoint()

    # -- result ------------------------------------------------------------------------
    def solve(self, x0=None):
        result = super().solve(x0)
        result.info["strategy"] = "checkpoint_restart"
        result.info["checkpoint_interval"] = self.config.interval
        result.info["checkpoints_taken"] = self.checkpoints_taken
        result.info["iterations_lost"] = self.iterations_lost
        return result

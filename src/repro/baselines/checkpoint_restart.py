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
from typing import Dict, Optional

import numpy as np

from ..cluster.cost_model import Phase
from ..cluster.failure import FailureInjector
from ..core.block_pcg import BlockPCG
from ..distributed.comm_context import CommunicationContext
from ..distributed.dmatrix import DistributedMatrix
from ..distributed.dmultivector import DistributedMultiVector
from ..precond.base import Preconditioner
from ..utils.logging import get_logger
from .recovery_base import FailureHandlingMixin

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
    #: scaled problems).
    interval: int = 50
    #: Also checkpoint iteration 0 (before the first step).
    checkpoint_initial_state: bool = True

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.interval}")


class CheckpointRestartPCG(FailureHandlingMixin, BlockPCG):
    """Distributed PCG protected by periodic in-memory/remote checkpoints."""

    vector_prefix = "cr_pcg"

    def __init__(self, matrix: DistributedMatrix,
                 rhs: DistributedMultiVector,
                 preconditioner: Optional[Preconditioner] = None, *,
                 config: Optional[CheckpointConfig] = None,
                 failure_injector: Optional[FailureInjector] = None,
                 rtol: float = 1e-8, atol: float = 0.0,
                 max_iterations: Optional[int] = None,
                 context: Optional[CommunicationContext] = None):
        super().__init__(matrix, rhs, preconditioner, rtol=rtol, atol=atol,
                         max_iterations=max_iterations, context=context)
        self.config = config if config is not None else CheckpointConfig()
        self._init_failure_handling(failure_injector)
        self._checkpoint: Optional[Dict[str, object]] = None
        self.checkpoints_taken = 0
        self.rollbacks = 0
        self.iterations_lost = 0

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
        self._checkpoint = state
        self.checkpoints_taken += 1
        self.cluster.ledger.add_time(Phase.CHECKPOINT, self._checkpoint_cost())
        self.cluster.ledger.add_traffic(
            Phase.CHECKPOINT, self.partition.n_parts,
            4 * self.partition.n * self.n_cols,
        )

    def _restore_checkpoint(self) -> None:
        """Roll the full solver state back to the last checkpoint."""
        if self._checkpoint is None:
            raise RuntimeError("no checkpoint available to restore")
        state = self.cluster.storage.retrieve(("checkpoint", self.vector_prefix),
                                              charge=True)
        lost = self.global_iterations - int(state["global_iterations"])
        self.iterations_lost += max(lost, 0)
        self.rollbacks += 1
        for name in ("x", "r", "z", "p"):
            values = np.asarray(state[name])
            vec = getattr(self, name)
            for rank in range(self.partition.n_parts):
                start, stop = self.partition.range_of(rank)
                vec.restore_block(rank, values[start:stop])
        for name in _CHECKPOINTED:
            setattr(self, name, copy.deepcopy(state[name]))

    # -- hooks -----------------------------------------------------------------------
    def _on_setup(self) -> None:
        super()._on_setup()
        if self.config.checkpoint_initial_state:
            self._take_checkpoint()

    def _after_iteration(self, iteration: int) -> None:
        super()._after_iteration(iteration)
        if iteration % self.config.interval == 0:
            self._take_checkpoint()

    def _handle_failures(self, iteration: int) -> bool:
        failed = self._trigger_due_failures(iteration)
        if not failed:
            return super()._handle_failures(iteration)
        self._install_replacements(failed)
        self._restore_checkpoint()
        logger.info("rolled back to iteration %d after failure of %s",
                    self.global_iterations, failed)
        return True

    # -- result ------------------------------------------------------------------------
    def solve(self, x0=None):
        result = super().solve(x0)
        result.info["strategy"] = "checkpoint_restart"
        result.info["checkpoint_interval"] = self.config.interval
        result.info["checkpoints_taken"] = self.checkpoints_taken
        result.info["rollbacks"] = self.rollbacks
        result.info["iterations_lost"] = self.iterations_lost
        return result

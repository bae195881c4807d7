"""Single-RHS names of the one distributed PCG implementation.

``DistributedPCG`` *is* :class:`~repro.core.block_pcg.BlockPCG`: a 1-D
right-hand side is solved as a ``k = 1`` block and returned as a
:class:`DistributedSolveResult`, so there is exactly one PCG iteration loop
in the library (see :mod:`repro.core.block_pcg`).
"""

from .block_pcg import BlockPCG, DistributedSolveResult

DistributedPCG = BlockPCG

__all__ = ["DistributedPCG", "DistributedSolveResult"]

"""Single-RHS names of the one resilient PCG implementation.

``ResilientPCG`` *is* :class:`~repro.core.resilient_block_pcg.
ResilientBlockPCG` (a 1-D right-hand side is the ``k = 1`` block), and
:class:`EsrResilienceMixin` -- the ESR redundancy and recovery driver -- is
re-exported from there.
"""

from .resilient_block_pcg import EsrResilienceMixin, ResilientBlockPCG

ResilientPCG = ResilientBlockPCG

__all__ = ["EsrResilienceMixin", "ResilientPCG"]

"""Construction helpers for preconditioners by name.

The experiment harness, the :class:`~repro.core.spec.SolveSpec` configuration
layer and the examples refer to preconditioners by short string identifiers
(``"block_jacobi"``, ``"jacobi"``, ...).  :data:`PRECONDITIONERS` maps those
names to builders; it is a :class:`~repro.utils.registry.Registry`, the
class every named choice uses.  New preconditioners plug in with
:func:`register_preconditioner`.
"""

from __future__ import annotations

from typing import Callable

from ..utils.registry import Registry
from .base import Preconditioner
from .block_jacobi import BlockJacobiPreconditioner
from .identity import IdentityPreconditioner
from .jacobi import JacobiPreconditioner

#: Registered preconditioner builders, ``() -> Preconditioner``.
PRECONDITIONERS: Registry[Callable[[], Preconditioner]] = \
    Registry("preconditioner")

#: Register a preconditioner builder in :data:`PRECONDITIONERS` (decorator).
register_preconditioner = PRECONDITIONERS.register


def make_preconditioner(name: str) -> Preconditioner:
    """Build a preconditioner instance from its registered *name*.

    Each name is one configuration (block Jacobi's ILU, for instance, always
    uses :data:`~repro.precond.block_jacobi.ILU_DROP_TOL` and
    :data:`~repro.precond.block_jacobi.ILU_FILL_FACTOR`).  An unknown name
    raises ``ValueError`` listing every registered name.
    """
    if not isinstance(name, str):
        raise TypeError(
            f"preconditioner name must be a string, got {name!r}")
    return PRECONDITIONERS.get(name)()


@register_preconditioner("identity", "No preconditioning (plain CG).")
def _build_identity() -> Preconditioner:
    return IdentityPreconditioner()


@register_preconditioner("jacobi", "Point Jacobi: M = diag(A).")
def _build_jacobi() -> Preconditioner:
    return JacobiPreconditioner()


@register_preconditioner(
    "block_jacobi",
    "Block Jacobi over the node partition, exact block solves "
    "(the paper's setting).")
def _build_block_jacobi() -> Preconditioner:
    return BlockJacobiPreconditioner(block_solver="direct")


@register_preconditioner(
    "block_jacobi_ilu",
    "Block Jacobi with threshold ILU block solves (spilu; drop_tol 1e-4, "
    "fill_factor 10).")
def _build_block_jacobi_ilu() -> Preconditioner:
    return BlockJacobiPreconditioner(block_solver="ilu")

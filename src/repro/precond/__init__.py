"""Preconditioners for the (resilient) PCG solver."""

from .base import Preconditioner, PreconditionerForm
from .block_jacobi import BlockJacobiPreconditioner
from .factory import (
    PRECONDITIONERS,
    make_preconditioner,
    register_preconditioner,
)
from .ichol import FactorizationError, factorization_residual, ic0, ic0_solve
from .identity import IdentityPreconditioner
from .jacobi import JacobiPreconditioner

__all__ = [
    "Preconditioner",
    "PreconditionerForm",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "make_preconditioner",
    "register_preconditioner",
    "PRECONDITIONERS",
    "ic0",
    "ic0_solve",
    "factorization_residual",
    "FactorizationError",
]


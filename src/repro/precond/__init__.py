"""Preconditioners for the (resilient) PCG solver."""

from .base import Preconditioner, PreconditionerForm
from .block_jacobi import BlockJacobiPreconditioner, FactorizationError
from .factory import (
    PRECONDITIONERS,
    make_preconditioner,
    register_preconditioner,
)
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
    "FactorizationError",
]


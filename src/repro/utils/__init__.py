"""Small shared utilities: RNG handling, validation, the name registry,
logging and JSON serialization (:mod:`repro.utils.serde`).

These helpers are deliberately dependency-free (NumPy only) and are used by
every other subpackage.  They carry no domain logic of their own.
"""

from .rng import RandomState, spawn_rngs, as_rng
from .validation import (
    check_positive,
    check_nonnegative,
    check_in_range,
    check_square,
    check_symmetric,
    check_spd_sample,
    ValidationError,
)
from .logging import get_logger, set_verbosity

__all__ = [
    "RandomState",
    "spawn_rngs",
    "as_rng",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_square",
    "check_symmetric",
    "check_spd_sample",
    "ValidationError",
    "get_logger",
    "set_verbosity",
]

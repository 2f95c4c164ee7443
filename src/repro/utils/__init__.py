"""Shared utilities: RNG management, timers, logging, serialization."""

from repro.utils.logging import get_logger, set_log_level
from repro.utils.rng import RngTree, as_generator
from repro.utils.serialization import flatten_arrays, unflatten_arrays
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_in,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RngTree",
    "as_generator",
    "Timer",
    "get_logger",
    "set_log_level",
    "flatten_arrays",
    "unflatten_arrays",
    "check_positive",
    "check_probability",
    "check_in",
    "check_type",
]

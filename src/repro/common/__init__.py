"""Shared low-level utilities for the Nexus# reproduction.

This package contains the pieces every other subpackage relies on:

* :mod:`repro.common.errors` — the exception hierarchy.
* :mod:`repro.common.constants` — hardware constants (address width,
  default clock frequencies, table geometries) taken from the paper.
* :mod:`repro.common.units` — conversions between cycles, seconds and
  the micro-second task durations used by the traces.
* :mod:`repro.common.rng` — deterministic random-number helpers so that
  every workload generator and every simulation is reproducible.
* :mod:`repro.common.validation` — small argument-checking helpers used
  throughout the public API.
"""

from repro.common.constants import (
    ADDRESS_BITS,
    ADDRESS_MASK,
    CACHE_LINE_BYTES,
    DEFAULT_FREQUENCY_MHZ,
    MAX_TASK_GRAPHS,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.common.rng import derive_seed, make_rng
from repro.common.units import (
    Frequency,
    cycles_to_seconds,
    cycles_to_us,
    seconds_to_cycles,
    us_to_cycles,
    us_to_seconds,
)
from repro.common.validation import (
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "ADDRESS_BITS",
    "ADDRESS_MASK",
    "CACHE_LINE_BYTES",
    "DEFAULT_FREQUENCY_MHZ",
    "MAX_TASK_GRAPHS",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "TraceError",
    "derive_seed",
    "make_rng",
    "Frequency",
    "cycles_to_seconds",
    "cycles_to_us",
    "seconds_to_cycles",
    "us_to_cycles",
    "us_to_seconds",
    "check_non_negative",
    "check_positive",
    "check_power_of_two",
    "check_probability",
]

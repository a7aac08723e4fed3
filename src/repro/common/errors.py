"""Exception hierarchy for the Nexus# reproduction.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still being able to distinguish configuration mistakes from
simulation-time problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied.

    Raised eagerly, at object-construction time, so that a mis-configured
    experiment fails before any simulation work is done.
    """


class TraceError(ReproError):
    """A trace (workload description) is malformed.

    Examples: a task referencing an undefined function identifier, a
    ``taskwait on`` event naming an address no prior task produced, or a
    serialized trace file with an unknown schema version.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state.

    This signals a bug in a manager model (for example a dependence count
    going negative or a task reported ready twice), never a user error.
    """


class AnalysisError(ReproError):
    """An analysis/report step was asked to summarise inconsistent data."""


def reject_non_finite(token: str) -> None:
    """``parse_constant`` of every JSON read: JSON has no NaN/±Infinity.

    ``json.loads`` accepts the tokens ``NaN``, ``Infinity`` and
    ``-Infinity`` by default; passing this hook turns each into a
    :class:`TraceError`, so no non-finite number enters through a file,
    a frame or a response.
    """
    raise TraceError(f"non-finite number {token} is outside the JSON domain")

"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can distinguish library failures from
programming errors with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or combination of parameters was supplied.

    Raised eagerly at construction time so misconfigurations fail fast
    rather than mid-simulation.
    """


class ScheduleError(ReproError):
    """A dynamic-graph schedule is malformed or violates its contract."""


class IntervalConnectivityError(ScheduleError):
    """A schedule claimed to be T-interval connected but is not.

    Carries the offending window so tests and users can inspect the
    counterexample.
    """

    def __init__(self, message: str, *, window_start: int | None = None,
                 window_length: int | None = None) -> None:
        super().__init__(message)
        self.window_start = window_start
        self.window_length = window_length


class SimulationError(ReproError):
    """The round engine encountered an unrecoverable inconsistency."""


class AlgorithmViolation(SimulationError):
    """An algorithm broke a model rule (e.g. wrote to another node's state)."""


class NotTerminatedError(SimulationError):
    """A run hit its round budget before every node decided/halted."""

    def __init__(self, message: str, *, rounds_executed: int | None = None,
                 undecided: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.rounds_executed = rounds_executed
        self.undecided = tuple(undecided)


class IncorrectOutputError(SimulationError):
    """A run terminated but some node's output violates the problem spec."""

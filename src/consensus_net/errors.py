"""Exception types, and the number check of the document parsers, shared
across the package."""

import math
import numbers


class ConsensusNetError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ConsensusNetError, ValueError):
    """Bad input data: graph weights, scenario files, simulation parameters.

    The message names the offending field, using a JSON-style path when the
    input came from a document (e.g. ``edges[2].w``).
    """


class DegenerateSpectrumError(ConsensusNetError, ArithmeticError):
    """The zero eigenvalue of the Laplacian is numerically non-simple, or a
    shifted matrix that must have its spectrum in the open right half plane
    does not."""


class InfeasibleGainError(ConsensusNetError, ValueError):
    """Requested gain parameters cannot satisfy the required inequalities.

    Carries ``minimal_value`` when a single scalar bound explains the failure.
    """

    def __init__(self, message, minimal_value=None):
        super().__init__(message)
        self.minimal_value = minimal_value


class IntegrationDivergedError(ConsensusNetError, RuntimeError):
    """The integrator produced a non-finite state.

    ``last_time`` is the last sample time with finite values and ``partial``
    holds the trajectory up to that sample, which starts with the initial
    state: every stepping path writes it first.
    """

    def __init__(self, message, last_time, partial):
        super().__init__(message)
        self.last_time = last_time
        self.partial = partial


class SignalFitError(ConsensusNetError, ValueError):
    """A signal fit (exponential decay, sinusoid) cannot be performed on the
    given window, e.g. the signal crosses zero or the window is empty."""


class NoOrbitError(SignalFitError):
    """A sinusoid fit failed to explain the signal: the residual exceeds half
    the signal RMS, or no oscillation is present at all."""


def finite_number(value, kind=float):
    """``value`` as a finite float, or as an int when ``kind`` is int, which
    must equal ``value`` (5 and 5.0 pass, 5.7 does not).  Raises ValueError
    otherwise, or TypeError for a value that is not a number at all (a bool,
    which Python counts as an int, or a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    try:
        number = kind(value)
    except OverflowError:
        raise ValueError(f"{value!r} is out of range") from None
    if number != value if kind is int else not math.isfinite(number):
        raise ValueError(f"not a finite {kind.__name__}: {value!r}")
    return number

"""Exception types raised across the package."""

from __future__ import annotations


class QindelError(Exception):
    """Base class for all package-specific errors."""


# --- argument / shape errors -------------------------------------------------

class NonSquare(QindelError, ValueError):
    """Matrix is not square where a square one is required."""


class InvalidShape(QindelError, ValueError):
    """A qudit shape has a level below 2 or a negative length."""


class ShapeMismatch(QindelError, ValueError):
    """Operands have incompatible shapes or qudit lengths."""


class LevelMismatch(QindelError, ValueError):
    """States live on qudits of different level l."""


class DigitOutOfRange(QindelError, ValueError):
    """A basis digit is outside Z_l."""


class PositionOutOfRange(QindelError, ValueError):
    """A qudit position is outside [1, n]."""


class CountOutOfRange(QindelError, ValueError):
    """A deletion/insertion/sample/grid count is outside its valid range."""


class WeightOutOfRange(QindelError, ValueError):
    """A Hamming weight is outside [0, n], or a mixture weight is negative."""


class NotAPermutation(QindelError, ValueError):
    """Sequence is not a bijection on [1, n]."""


class InvalidIndexSet(QindelError, ValueError):
    """Positions are not a strictly increasing subset of the ambient range."""


class TooFewStates(QindelError, ValueError):
    """A code needs at least two states for pairwise checks."""


class DuplicateStates(QindelError, ValueError):
    """Two states of a code coincide within eq_tol."""


class SizeCapExceeded(QindelError, ValueError):
    """Requested dimension exceeds the configured cap."""


class DegenerateParam(QindelError, ValueError):
    """Codeword parameters collapse an engineered pair to a single state."""


class ParseError(QindelError, ValueError):
    """A state file or CLI spec could not be parsed."""


class InvalidTolerance(QindelError, ValueError):
    """A tolerance is negative, non-finite, or (feas_tol) not positive."""


# --- state validation --------------------------------------------------------

class ValidationError(QindelError, ValueError):
    """A density-matrix invariant is violated; carries the numeric residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = float(residual)


class NotHermitian(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


# --- numerical / construction failures ---------------------------------------

class NoConvergence(QindelError, RuntimeError):
    """The eigensolver failed to converge."""


class BlockConstraintViolated(QindelError, ValueError):
    """Insertion blocks violate the trace / adjoint / density conditions."""


class RoundTripFailed(QindelError, RuntimeError):
    """Deleting the inserted positions did not return the original state."""

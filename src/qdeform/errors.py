"""Exception hierarchy shared across the package."""

import math
import numbers


class QdeformError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QdeformError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ParameterError(QdeformError, ValueError):
    """Invalid or inconsistent physical/special-function parameters."""


class NonConvergenceError(QdeformError, ArithmeticError):
    """A series or iteration failed to converge within its budget."""


class NonBindingError(QdeformError, ValueError):
    """Trial energy outside the regime where the effective well binds."""


class DiscriminantError(QdeformError, ValueError):
    """Negative discriminant: exponents would be complex, outside the
    solution class (fall-to-center regime of the singular well)."""


class EmptyWindowError(QdeformError, ValueError):
    """No energy window for bound states (requires C < 2M)."""


class GridError(QdeformError, ValueError):
    """Radial grid unsuitable for the requested computation."""


class ZeroNormError(QdeformError, ValueError):
    """Cannot normalize an identically-zero wavefunction."""


def _require_finite(params, *counts):
    """Raise ParameterError, naming the class and the field, unless every field
    is a finite real number, not a bool, and each one named in counts an integer >= 1."""
    for name, value in vars(params).items():
        field = f"{type(params).__name__}.{name}"
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ParameterError(f"{field} must be finite, got {value}")
        if name in counts:
            _require_count(field, value, 1)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"{field} must be a number, got {value!r}")


def _require_count(name, value, least):
    """Raise ParameterError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")

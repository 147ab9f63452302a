"""Exception hierarchy shared across the package."""


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


class NoRootError(QdeformError, RuntimeError):
    """A quantization equation has no root for the requested level."""


class GridError(QdeformError, ValueError):
    """Radial grid unsuitable for the requested computation."""


class ZeroNormError(QdeformError, ValueError):
    """Cannot normalize an identically-zero wavefunction."""

"""Exception and warning types shared across the package."""


class FlockdynError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FlockdynError, ValueError):
    """Argument lies outside a function's mathematical domain.

    A record's field check sets ``field`` to (record class, field name),
    ``domain`` to the field's domain and ``value`` to the refused value, so
    that a caller can name the value its own way; elsewhere all three are
    None.
    """

    def __init__(self, message, field=None, domain=None, value=None):
        super().__init__(message)
        self.field, self.domain, self.value = field, domain, value


class UnsupportedOrderError(FlockdynError, ValueError):
    """Bessel order outside the finite set this package evaluates."""


class DegenerateDenominatorError(FlockdynError, ArithmeticError):
    """The aggregate parameter's denominator C*ell^n - ell^2 is (numerically) zero."""


class ParameterOverflowError(FlockdynError, OverflowError):
    """A quantity derived from parameters, such as ell^n, leaves the double
    range.  ``fields`` holds the (record class, field name) of each
    parameter the message names."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = fields


class CaseMismatchError(FlockdynError, ValueError):
    """Requested sign branch contradicts the sign of the aggregate parameter."""


class RegimeError(FlockdynError):
    """Parameters outside the biologically relevant regime without the opt-in flag."""


class NoRootError(FlockdynError):
    """No flock support radius exists (aggregate parameter is non-positive)."""


class BracketFailureError(FlockdynError):
    """A root bracket did not show the sign structure the theory guarantees."""


class PositivityFailureError(FlockdynError):
    """A first-root density dipped below tolerance; signals an inconsistency."""


class OutOfSupportError(FlockdynError, ValueError):
    """Closed-form convolution requested outside the profile's support."""


class QuadratureNonConvergenceError(FlockdynError):
    """Adaptive quadrature hit the maximum refinement depth."""


class VerificationFailureError(FlockdynError):
    """Flock verification exceeded its deviation thresholds.

    The offending report is attached as the ``report`` attribute.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NumericalBlowupError(FlockdynError):
    """A simulated coordinate exceeded the configured bound.

    The bound and the index of the step that exceeded it are attached as
    ``bound`` and ``step``, and the message names both.
    """

    def __init__(self, bound, step):
        super().__init__(f"coordinate exceeded bound {bound:g} at step {step}")
        self.bound, self.step = bound, step


class LimitMismatchWarning(UserWarning):
    """Asymptotic formula requested far from its validity limit."""


class MultipleRootsWarning(UserWarning):
    """More than one sign change detected in the first 2-D root bracket."""

"""Exception hierarchy shared across the package.

Numerical failures (non-simple eigenvalues, Newton divergence, singular
Jacobians) are distinguished from usage errors so that callers, in
particular the CLI, can map them to distinct exit codes.
"""


class EigenPathError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(EigenPathError):
    """A computation failed for numerical reasons (exit code 2 in the CLI)."""


class NonSimpleEigenvalueError(NumericalError):
    """The bordered system is singular: the expansion eigenvalue is not simple."""


class EigenSolverError(NumericalError):
    """The dense eigensolver did not converge."""


class DerivativeOrderError(NumericalError):
    """Derivative matrices are unavailable at the requested order."""

    def __init__(self, order):
        super().__init__(f"derivative matrix unavailable at order {order}")


class JacobianSingularError(NumericalError):
    """Newton's method hit a numerically singular Jacobian."""


class NewtonDivergenceError(NumericalError):
    """Newton's method did not reach the tolerance within the iteration budget.

    Carries the best iterate seen (packed unknown vector) together with its
    residual norm, so callers can inspect or salvage it.
    """

    def __init__(self, message, best_x=None, best_residual=None, iterations=None):
        super().__init__(message)
        self.best_x = best_x
        self.best_residual = best_residual
        self.iterations = iterations


class DegenerateEvaluationError(NumericalError):
    """Series evaluation produced a vector too close to zero to normalize."""


class DomainError(EigenPathError):
    """The parameter value lies outside a problem's or function's domain."""


class ExpressionError(EigenPathError):
    """Problem with an entry expression (parse or evaluation)."""


class ExpressionSyntaxError(ExpressionError):
    """Syntax error while parsing an expression. Offsets are 1-based."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    """An identifier other than 'mu' or a known function name was used."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class ConfigError(EigenPathError):
    """A problem configuration file violates the documented schema."""

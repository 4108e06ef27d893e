"""Exception hierarchy shared by all modules."""


class SpinnetError(Exception):
    """Base class for all library errors."""


class InputError(SpinnetError):
    """Malformed or inconsistent input (files, namespaces, matrices)."""


class PreconditionError(SpinnetError):
    """A documented operation precondition was violated."""


class AdmissibilityError(SpinnetError):
    """Coloring violates parity or a triangle inequality where required."""


class RegimeError(SpinnetError):
    """Exact-arithmetic operation received a floating-point holonomy."""


class DomainError(SpinnetError):
    """Numeric argument outside the operation's domain."""


class HypothesisError(SpinnetError):
    """A non-degeneracy hypothesis failed (or a kernel dimension mismatched)."""


class NumericalError(SpinnetError):
    """Numerical procedure did not converge to the requested accuracy."""


class ResourceError(SpinnetError):
    """A computation would pass polyring.TERM_BUDGET: a product or an edge
    contraction; a series step, counting its products and the terms it
    holds; the planar routes' cycle space; or the curve walk's steps."""

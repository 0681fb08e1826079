"""Exception hierarchy shared by all modcat modules."""


class ModcatError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(ModcatError):
    """Input data is structurally invalid (shape mismatch, broken invariant)."""


class UnsupportedInputError(ModcatError):
    """Input is well-formed but outside the supported class
    (non-commutative ring, non-weakly-integral dimensions, ...)."""


class DegenerateInputError(ModcatError):
    """Input is too degenerate for the requested computation."""


class ParameterError(ModcatError):
    """A scalar parameter is outside its allowed range."""


class PreconditionError(ModcatError):
    """A documented operation precondition does not hold."""


class ResourceLimitError(ModcatError):
    """Requested brute-force computation exceeds the configured size limit."""


class InternalConsistencyError(ModcatError):
    """Derived data contradicts itself; indicates invalid input slipped through."""


class RedirectError(ParameterError):
    """The requested case is handled by a different operation; the message
    names the correct entry point."""

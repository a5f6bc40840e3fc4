"""Exception types shared across the library."""


class SliceKernelsError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SliceKernelsError):
    """Operands live in Clifford algebras of different dimension."""


class ZeroNorm(SliceKernelsError):
    """Paravector inversion attempted on an element of zero norm."""


class NonInvertibleConstantTerm(SliceKernelsError):
    """Jet reciprocal requested for a jet whose constant term is not invertible."""


class OrderExceeded(SliceKernelsError):
    """A derivative of higher total order than the jet carries was requested."""


class SingularKernel(SliceKernelsError):
    """Kernel evaluated on its singular set (s in the sphere [x])."""


class InvalidParams(SliceKernelsError):
    """Parameters outside the admissible range of a formula."""


class DomainError(SliceKernelsError):
    """Evaluation point outside (or on the boundary of) the valid domain."""


class WorkerFailed(SliceKernelsError):
    """A forked suite worker died, or left no whole report of its cases."""

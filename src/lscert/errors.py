"""Exception vocabulary shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
anything else surfaces as a plain ValueError from the offending call.
"""

from __future__ import annotations


class LscertError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LscertError):
    """An array argument has the wrong shape for the operation."""


class NonFinite(LscertError):
    """A NaN or infinity appeared where a finite value is required."""


class NonSingularJacobian(LscertError):
    """The Jacobian has no kernel at the working tolerance (q = 0)."""


class UnknownModel(LscertError):
    """Requested built-in model name is not registered."""


class NotEquilibrium(LscertError):
    """Base point residual exceeds the equilibrium tolerance."""


class ParseError(LscertError):
    """Expression source is malformed.

    Carries the 1-based line/column of the offending token and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        loc = f"line {line}, column {column}"
        if expected:
            message = f"{message} at {loc} (expected one of: {', '.join(expected)})"
        else:
            message = f"{message} at {loc}"
        super().__init__(message)


class ArityError(LscertError):
    """Number of expression components does not match the declared dimension."""


class UnknownIdentifier(LscertError):
    """Identifier is not a known variable or function for the declared dims."""


class DomainError(LscertError):
    """Evaluation left the domain of an elementary function.

    The message quotes the offending subexpression so the bad term can be
    located in multi-line sources.
    """


class SingularDyf(LscertError):
    """D_y f at the base point is numerically singular (cond > 1e14)."""


class InexactKernel(LscertError):
    """The computed kernel basis V is not annihilated by J (||J V|| not small).

    The kernel-split base norm M_par treats the alpha block J V as a hard
    zero, which is only sound when it is one up to the rank tolerance.
    """


class SingularReducedJacobian(LscertError):
    """The perpendicular Jacobian block W^T J Vperp is numerically singular."""


class NewtonDiverged(LscertError):
    """Damped Newton failed to reach the residual tolerance."""


class SingularNewtonSystem(LscertError):
    """Newton linear system is singular at the current iterate."""


class UnsupportedDimensions(LscertError):
    """Operation is only implemented for q = 1, m = 1."""


class ConfigError(LscertError):
    """Run configuration is invalid; message carries the JSON field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at {path}: {message}")

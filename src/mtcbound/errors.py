"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`MtcError`, so callers
(notably the CLI) can map failures to exit codes without fishing through
arbitrary exception types.
"""

from __future__ import annotations


class MtcError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MtcError):
    """Malformed or inconsistent input data (bad JSON shape, bad indices,
    duplicate fusion triples, inconsistent pointed hint, ...)."""


class DivisionByZero(MtcError, ZeroDivisionError):
    """Division by the zero cyclotomic scalar."""


class ConductorLimitError(InputError):
    """A scalar operation would need a cyclotomic conductor above the cap.

    The cap bounds what the program accepts, so data that needs more is
    refused as input, like any other malformed document."""


class MultiplicityLimitError(InputError):
    """A fusion multiplicity is above the cap of the float64 FP dimensions.

    Like the conductor cap, it bounds what the program accepts: a ring
    that needs more is refused as input where FP dimensions are asked."""


class NumericError(MtcError):
    """A floating-point fallback could not certify its answer."""


class NotRootOfUnity(MtcError):
    """A scalar expected to be a root of unity is not one."""


class NonModular(MtcError):
    """S/T data fails a modularity requirement (e.g. S^2 is not a
    permutation, so S is not invertible in the required sense)."""


class NonIntegralVerlinde(MtcError):
    """Verlinde coefficients are not non-negative integers."""


class GaussIdentityFailure(MtcError):
    """tau_plus * tau_minus differs from the squared total dimension."""


class PerfectnessFailure(MtcError):
    """The unit-coefficient pairing matrix is not a permutation matrix."""


class DualMismatch(MtcError):
    """The permutation induced by the pairing disagrees with the declared
    dual involution."""


class AmbiguousBlock(MtcError):
    """A label is supported in more than one unit-projector block."""


class Degenerate(MtcError):
    """The bilinear form of a metric group has a nonzero radical."""


class SizeLimit(MtcError):
    """An enumeration was refused because the input exceeds a hard size cap."""


class SearchBudgetExceeded(MtcError):
    """The backtracking search hit its node budget before finishing."""

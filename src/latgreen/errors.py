"""Exception types shared across the package."""


class LatticeGFError(Exception):
    """Base class for all errors raised by this package."""


class ZeroConstantTerm(LatticeGFError):
    """Division by a series whose constant term vanishes."""


class BadConstantTerm(LatticeGFError):
    """Series has the wrong constant term for the requested operation
    (exp needs a(0) = 0, log needs a(0) = 1, and so on)."""


class NotReversible(LatticeGFError):
    """Series reversion requires a(0) = 0 and a(1) invertible."""


class BadInnerConstant(LatticeGFError):
    """Composition a(b(z)) requires b(0) = 0."""


class UnsupportedLattice(LatticeGFError):
    """No closed-form coefficient route for this family/dimension."""


class UnsupportedTerm(LatticeGFError):
    """Kernel or structure-function term outside the supported shape."""


class ResourceLimit(LatticeGFError):
    """A configured budget (monomials, terms, time) would be exceeded."""


class UnknownOperator(LatticeGFError):
    """Operator name not present in the registry."""


class InsufficientTerms(LatticeGFError):
    """Not enough series coefficients for the requested fit or check."""


class NotMUM(LatticeGFError):
    """Operator does not have maximal unipotent monodromy at the origin."""


class FitFailure(LatticeGFError):
    """No annihilating operator of the requested shape exists."""


class NotSymmetricSquare(LatticeGFError):
    """Third-order operator fails the Appell symmetric-square criterion."""


class DomainError(LatticeGFError):
    """Evaluation point outside the region where the formula is valid."""


class DivergentRequest(LatticeGFError):
    """The requested value diverges (e.g. P(0;1) on a 2d lattice)."""


class PrecisionNotMet(LatticeGFError):
    """An evaluation could not certify the requested error bound."""

"""Exception types shared across the package."""


class FactorLabError(Exception):
    pass


class FieldMismatch(FactorLabError):
    pass


class DivisionByZero(FactorLabError):
    pass


class NotASubfield(FactorLabError):
    pass


class NoSuchConstant(FactorLabError):
    pass


class DimensionMismatch(FactorLabError):
    pass


class SingularVector(FactorLabError):
    pass


class NotAnIsometry(FactorLabError):
    pass


class DecompositionFailure(FactorLabError):
    pass


class ShapeSyntaxError(FactorLabError):
    def __init__(self, msg, pos=None, expected=None):
        super().__init__(msg if pos is None else f"{msg} at position {pos}")
        self.pos = pos
        self.expected = expected or ()


class UnknownFamily(FactorLabError):
    pass


class UnboundSymbol(FactorLabError):
    pass


class NonIntegralQuotient(FactorLabError):
    pass


class IllegalParameters(FactorLabError):
    pass


class UnsupportedParameters(FactorLabError):
    pass


class PointNotInDomain(FactorLabError):
    pass


class DomainOverflow(FactorLabError):
    pass


class NotFaithful(FactorLabError):
    pass


class VerificationFailed(FactorLabError):
    pass


class CapExceeded(FactorLabError):
    pass


class NoTower(FactorLabError):
    pass


class SignParityMismatch(FactorLabError):
    pass


class NotNormalizing(FactorLabError):
    pass


class ManifestMismatch(FactorLabError):
    pass


class NotSubgroup(FactorLabError):
    pass


class UsageError(FactorLabError):
    pass

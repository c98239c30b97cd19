"""Exception types raised by nuext operations."""


class NuextError(Exception):
    """Base class for all nuext errors."""


class DimensionMismatchError(NuextError):
    pass


class NotHermitianError(NuextError):
    pass


class NotNormalError(NuextError):
    pass


class NotSelfAdjointError(NuextError):
    pass


class NotNormaloidError(NuextError):
    pass


class ZeroOperatorError(NuextError):
    pass


class NotCollinearError(NuextError):
    pass


class ModulusMismatchError(NuextError):
    pass


class EqualEigenvaluesError(NuextError):
    pass


class DegenerateDiscriminantError(NuextError):
    pass


class IsUnitaryError(NuextError):
    pass


class IsIsometryError(NuextError):
    pass


class WrongSpectrumError(NuextError):
    pass


class ZeroParameterError(NuextError):
    pass


class NoFeasibleBetaError(NuextError):
    pass


class RadiusOrderViolationError(NuextError):
    pass


class ParseError(NuextError):
    pass


class BadFormatError(NuextError):
    pass


class InternalInconsistencyError(NuextError):
    """Two routes that must agree did not; a bug, not a verdict."""

"""Exception hierarchy.

Two families: validation errors (malformed or physically inadmissible input)
and numerical-domain errors (the requested computation is not defined or not
reliable at the given point, e.g. glancing frames or singular operators).
The CLI maps them to exit codes 2 and 3.
"""


class ElasticError(Exception):
    exit_code = 1


class ValidationError(ElasticError):
    exit_code = 2


class NumericalDomainError(ElasticError):
    exit_code = 3


# --- validation ---

class NonPositiveDensity(ValidationError):
    pass


class NonUnitAxis(ValidationError):
    pass


class NotARotation(ValidationError):
    pass


class AsymmetricStiffness(ValidationError):
    pass


class AsymmetricVoigtMatrix(ValidationError):
    pass


class MaterialFileError(ValidationError):
    pass


class StackFileError(ValidationError):
    pass


class InvalidInput(ValidationError, ValueError):
    """A malformed argument to a library call.  Also a ValueError, so
    callers that catch ValueError keep working."""


# --- numerical domain ---

class IndefiniteAcousticTensor(NumericalDomainError):
    pass


class DegenerateA0(NumericalDomainError):
    pass


class CoefficientOverflow(NumericalDomainError):
    pass


class GlancingSpectrum(NumericalDomainError):
    pass


class SigmaCardinality(NumericalDomainError):
    pass


class IllConditionedJ(NumericalDomainError):
    pass


class SolvencyResidual(NumericalDomainError):
    pass


class ContourTooClose(NumericalDomainError):
    pass


class NotAnEigenvalue(NumericalDomainError):
    pass


class DefectiveEigenvalue(NumericalDomainError):
    pass


class RealSpectrumPresent(NumericalDomainError):
    pass


class NearDefectiveQ(NumericalDomainError):
    pass


class QuadratureNotConverged(NumericalDomainError):
    pass


class CrossCheckFailed(NumericalDomainError):
    pass


class NonEllipticOperator(NumericalDomainError):
    pass


class NoIncomingMode(NumericalDomainError):
    pass


class NoSurfaceWave(NumericalDomainError):
    pass


class GlancingLimit(NumericalDomainError):
    pass

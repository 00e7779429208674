"""Error taxonomy for the lifting library.

``UnsupportedInput`` marks inputs the algorithms legitimately cannot
handle (reported, not a failure); everything else signals a violated
precondition or an internal inconsistency.
"""


class GonaliftError(Exception):
    """Base class for all library errors."""


class InputError(GonaliftError):
    """Malformed or inconsistent input data."""


class UnsupportedInput(GonaliftError):
    """Structurally valid input outside the supported range (CLI exit 2)."""


class SingularMatrix(GonaliftError):
    """A linear change of variables must be invertible."""


class ZeroInput(GonaliftError):
    """Resultant of a zero polynomial."""


class AllZero(GonaliftError):
    """gcd of an all-zero family."""


class SingularPoint(GonaliftError):
    """Tangent data requested at a point with vanishing gradient."""


class VerticalTangent(GonaliftError):
    """A transformed plane model missed its promised y-degree or support."""


class WrongGammaDegree(GonaliftError):
    """Monicization asked for a y-degree the polynomial does not have."""


class DegenerateModel(GonaliftError):
    """Toric point counting requires a nondegenerate plane model."""

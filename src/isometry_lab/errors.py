"""Exception types shared by the solver modules and the CLI."""

__all__ = [
    "AntipodalPoints", "CoincidentPoints", "DegenerateAxis", "DegenerateBisector",
    "DegenerateSegment", "GeometryError", "IdenticalCircles", "IdentityCorrespondence",
    "IdentityRotation", "InternalCheckError", "LengthMismatch", "NonUnitVector", "NotARotation",
    "NotIsometric", "ParallelBisectors", "ParseError", "PointOnAxis", "SchemaError",
    "SingularMatrix", "ValidationError", "ZeroAngle",
]


class GeometryError(Exception):
    """Base class for domain errors raised by the solvers."""


class SingularMatrix(GeometryError):
    """A linear system has no usable solution at the working tolerance."""


class NotARotation(GeometryError):
    """A matrix fails the orthogonality or determinant checks."""


class IdentityRotation(GeometryError):
    """Signal raised when a matrix is the identity, where every direction
    is an eigenvector and no single axis can be reported."""


class DegenerateSegment(GeometryError):
    """A segment's endpoints coincide."""


class ParallelBisectors(GeometryError):
    """The two perpendicular bisectors are parallel; the correspondence is
    a translation, not a rotation."""


class DegenerateBisector(GeometryError):
    """A perpendicular bisector is undetermined (both endpoints fixed)."""


class ZeroAngle(GeometryError):
    """A zero rotation cannot be split into a canonical reflection pair."""


class NonUnitVector(GeometryError):
    """A vector claimed to lie on the unit sphere is too far from it."""


class DegenerateAxis(GeometryError):
    """No unique rotation axis can be extracted from the given points."""


class NotIsometric(GeometryError):
    """The point correspondence does not preserve distances."""


class LengthMismatch(NotIsometric):
    """Corresponding segments have different lengths, so no isometry maps
    one onto the other."""


class PointOnAxis(GeometryError):
    """A point lies on the rotation axis, so its turn angle is undefined."""


class CoincidentPoints(GeometryError):
    """Two sphere points coincide where distinct points are required."""


class AntipodalPoints(GeometryError):
    """Two sphere points are antipodal where a unique construction needs
    them not to be."""


class IdenticalCircles(GeometryError):
    """Two great circles coincide and have no isolated intersection."""


class IdentityCorrespondence(GeometryError):
    """Every given point is fixed; the isometry is the identity and has no
    unique axis."""


class ParseError(Exception):
    """Input text is not valid UTF-8 JSON."""


class SchemaError(Exception):
    """A JSON instance has the wrong shape (missing, extra, or mistyped
    fields, or an unknown kind)."""


class ValidationError(Exception):
    """A JSON instance is well formed but its values are inadmissible."""


class InternalCheckError(Exception):
    """Two internal computation routes disagreed beyond tolerance."""

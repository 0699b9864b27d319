"""The package's public names: each declared once, in the `__all__` of the
module that defines it, and re-exported unchanged by the package."""

import inspect

import isometry_lab
from isometry_lab import cli, errors, figures, linalg, planar, spherical

_MODULES = (cli, errors, figures, linalg, planar, spherical)

# isometry_lab.__all__ as the package lists it, order included.
_EXPORTS = [
    "AntipodalPoints", "CoincidentPoints", "DegenerateAxis", "DegenerateBisector",
    "DegenerateSegment", "FigureSpec", "GeometryError", "IdenticalCircles", "Identity2",
    "IdentityCorrespondence", "IdentityRotation", "InternalCheckError", "LengthMismatch",
    "Line2", "Mat3", "NonUnitVector",
    "NotARotation", "NotIsometric", "ParallelBisectors", "ParseError", "PlanarIsometry",
    "PointOnAxis", "ProblemInstance", "Rotation2", "Rotation3",
    "SchemaError", "Segment2", "SingularMatrix", "SolutionRecord", "SphereSegment",
    "Translation2", "UnitVector3", "ValidationError", "Vec2", "Vec3", "ZeroAngle",
    "angular_distance", "apply_planar", "apply_sphere", "axis_angle_from_matrix",
    "bisector_great_circle", "chord_arcsin_angle", "compose_planar", "compose_reflections",
    "compose_rotations_planar", "compose_sphere_rotations", "cross", "cross2", "eig3_rotation",
    "intersect_great_circles", "orientation_sign", "parse_instance", "perpendicular_bisector",
    "recover_axis_cross", "recover_axis_geometric", "recover_pivot_geometric", "recover_planar",
    "recover_planar_geometric", "recover_sphere_rotation", "reflect", "reflections_for_rotation",
    "render_svg", "rotation_angle_about_axis", "rotation_matrix", "run", "run_baseball",
    "signed_angle", "solve2", "wrap_angle",
]


def test_package_all_is_unchanged_in_content_and_order():
    assert len(_EXPORTS) == 69
    assert isometry_lab.__all__ == _EXPORTS


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from isometry_lab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == _EXPORTS


def test_no_name_is_declared_by_two_modules():
    declared = [name for module in _MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))


def test_each_module_declares_what_it_defines():
    for module in _MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(isometry_lab, name) is value
            if isinstance(value, type) or inspect.isfunction(value):  # not PlanarIsometry
                assert value.__module__ == module.__name__, name

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import isometry_lab
from helpers import rand_rotation3
from isometry_lab import (
    IdentityRotation,
    Mat2,
    Mat3,
    NotARotation,
    Rotation3,
    Segment2,
    SingularMatrix,
    UnitVector3,
    Vec2,
    Vec3,
    cross,
    eig3_rotation,
    recover_axis_cross,
    recover_axis_geometric,
    recover_planar,
    recover_planar_geometric,
    recover_sphere_rotation,
    rotation_matrix,
    solve2,
    wrap_angle,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vec3s = st.builds(Vec3, finite, finite, finite)


class TestWrapAngle:
    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    def test_range_and_congruence(self, theta):
        a = wrap_angle(theta)
        assert -math.pi < a <= math.pi
        assert math.isclose(
            math.cos(a), math.cos(theta), abs_tol=1e-9
        ) and math.isclose(math.sin(a), math.sin(theta), abs_tol=1e-9)

    def test_negative_pi_maps_to_pi(self):
        assert wrap_angle(-math.pi) == math.pi


class TestCross:
    def test_right_handed_basis(self):
        assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)

    def test_self_cross_vanishes(self):
        x = Vec3(2.5, -1.0, 0.25)
        assert cross(x, x) == Vec3(0, 0, 0)

    def test_componentwise_example(self):
        # (1,2,3) x (4,5,6), evaluated by hand from the definition
        assert cross(Vec3(1, 2, 3), Vec3(4, 5, 6)) == Vec3(-3, 6, -3)

    @given(vec3s, vec3s)
    def test_orthogonal_to_both_factors(self, x, y):
        c = cross(x, y)
        scale = max(1.0, x.norm() * y.norm())
        assert abs(c.dot(x)) <= 1e-12 * scale * max(1.0, x.norm())
        assert abs(c.dot(y)) <= 1e-12 * scale * max(1.0, y.norm())

    @given(vec3s, vec3s)
    def test_lagrange_identity(self, x, y):
        # |x cross y|^2 + (x.y)^2 = |x|^2 |y|^2, a rounding-stable form of
        # the magnitude law
        lhs = cross(x, y).dot(cross(x, y)) + x.dot(y) ** 2
        rhs = x.dot(x) * y.dot(y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)

    def test_magnitude_is_sine_law(self):
        rng = random.Random(7)
        for _ in range(300):
            x = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            y = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            nx, ny = x.norm(), y.norm()
            if nx < 0.1 or ny < 0.1:
                continue
            theta = math.acos(max(-1.0, min(1.0, x.dot(y) / (nx * ny))))
            if not 0.1 < theta < math.pi - 0.1:
                continue
            assert math.isclose(
                cross(x, y).norm(), nx * ny * math.sin(theta), rel_tol=1e-12, abs_tol=1e-12
            )


class TestNormalized:
    @pytest.mark.parametrize("v, unit", [
        (Vec3(1e200, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),  # the squares overflow
        (Vec3(1e-200, 0.0, 0.0), Vec3(1.0, 0.0, 0.0)),  # the squares underflow
        (Vec3(0.0, -3e200, 4e200), Vec3(0.0, -0.6, 0.8)),
        (Vec3(0.0, 3e-200, -4e-200), Vec3(0.0, 0.6, -0.8)),
    ])
    def test_a_vector_too_long_or_short_to_square_is_rescaled_first(self, v, unit):
        got = v.normalized()
        assert max(abs(got.x - unit.x), abs(got.y - unit.y), abs(got.z - unit.z)) <= 1e-15

    @given(vec3s)
    def test_an_ordinary_vector_keeps_its_bits(self, v):
        n = math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)
        if n > 0.0:
            assert v.normalized() == Vec3(v.x / n, v.y / n, v.z / n)

    @pytest.mark.parametrize("v", [
        Vec3(0.0, 0.0, 0.0), Vec3(-0.0, 0.0, -0.0), Vec3(math.inf, 0.0, 0.0),
        Vec3(1.0, -math.inf, 0.0), Vec3(1.0, 0.0, math.nan), Vec3(math.nan, 0.0, 0.0),
    ])
    def test_a_zero_or_non_finite_vector_raises(self, v):
        with pytest.raises(ValueError, match="zero|non-finite"):
            v.normalized()


class TestSolve2:
    def test_identity_solve(self):
        assert solve2(Mat2.identity(), Vec2(3, 4)) == Vec2(3, 4)

    def test_diagonal_scaling(self):
        assert solve2(Mat2(2, 0, 0, 2), Vec2(2, 4)) == Vec2(1, 2)

    def test_published_four_digit_instance(self):
        # four-decimal inputs reproduce the four-decimal answer
        x = solve2(Mat2(1.7071, 0.7071, -0.7071, 1.7071), Vec2(1.4142, 0.0))
        assert abs(x.x - 0.7071) <= 1e-4
        assert abs(x.y - 0.2929) <= 1e-4

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve2(Mat2(1, 2, 2, 4), Vec2(1, 1))

    def test_singularity_test_is_scale_invariant(self):
        m = Mat2.rotation(0.3)
        tiny = Mat2(m.m00 * 1e-8, m.m01 * 1e-8, m.m10 * 1e-8, m.m11 * 1e-8)
        x = solve2(tiny, tiny.mv(Vec2(2.0, -3.0)))
        assert math.isclose(x.x, 2.0, rel_tol=1e-9)
        assert math.isclose(x.y, -3.0, rel_tol=1e-9)

    @given(
        st.floats(min_value=-math.pi, max_value=math.pi),
        st.floats(min_value=0.1, max_value=10.0),
        st.builds(Vec2, finite, finite),
    )
    def test_round_trip_on_conformal_matrices(self, theta, s, x):
        r = Mat2.rotation(theta)
        m = Mat2(r.m00 * s, r.m01 * s, r.m10 * s, r.m11 * s)
        got = solve2(m, m.mv(x))
        assert (got - x).norm() <= 1e-10 * max(1.0, x.norm())


@given(st.lists(finite, min_size=18, max_size=18))
def test_mat3_product_matches_numpy(vals):
    a = Mat3(tuple(tuple(vals[i:i + 3]) for i in range(0, 9, 3)))
    b = Mat3(tuple(tuple(vals[i:i + 3]) for i in range(9, 18, 3)))
    np.testing.assert_allclose(
        np.array((a @ b).rows), np.array(a.rows) @ np.array(b.rows), rtol=1e-12, atol=1e-12
    )


def test_mat3_product_entry_of_negative_zeros_is_positive_zero():
    # every product in each entry is -0.0; the entry still reads +0.0
    m = Mat3(((-1.0,) * 3,) * 3) @ Mat3(((0.0,) * 3,) * 3)
    assert all(math.copysign(1.0, v) == 1.0 for row in m.rows for v in row)


def _mat3_to_np(m: Mat3) -> np.ndarray:
    return np.array(m.rows)


class TestEig3Rotation:
    def test_coordinate_axis_rotation(self):
        m = rotation_matrix(_rot_z(math.pi / 6)).m
        eig = eig3_rotation(m)
        assert eig.lambda_real == 1.0
        a, b = eig.complex_pair
        assert math.isclose(a, math.cos(math.pi / 6), abs_tol=1e-12)
        assert math.isclose(b, math.sin(math.pi / 6), abs_tol=1e-12)
        assert (eig.axis - Vec3(0, 0, 1)).norm() <= 1e-12

    def test_two_axis_composite(self):
        # frozen from an independent dense eigensolver run on the same product
        m = (
            rotation_matrix(_rot_y(math.pi / 4)).m
            @ rotation_matrix(_rot_z(math.pi / 6)).m
        )
        eig = eig3_rotation(m)
        a, b = eig.complex_pair
        assert math.isclose(a, 0.5927523103333905, abs_tol=1e-9)
        assert math.isclose(b, 0.8053848139829978, abs_tol=1e-9)
        expected_axis = Vec3(0.21949345483979876, 0.8191607253909539, 0.5299040755263686)
        assert (eig.axis - expected_axis).norm() <= 1e-9

    def test_identity_raises_signal(self):
        with pytest.raises(IdentityRotation):
            eig3_rotation(Mat3.identity())

    def test_reflection_rejected(self):
        m = Mat3(((1, 0, 0), (0, 1, 0), (0, 0, -1)))
        with pytest.raises(NotARotation):
            eig3_rotation(m)

    def test_scaled_matrix_rejected(self):
        m = Mat3(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        with pytest.raises(NotARotation):
            eig3_rotation(m)

    def test_against_dense_eigensolver(self):
        rng = random.Random(42)
        for _ in range(300):
            m = rotation_matrix(rand_rotation3(rng, min_angle=1e-3)).m
            eig = eig3_rotation(m)
            w, v = np.linalg.eig(_mat3_to_np(m))
            i = int(np.argmin(np.abs(w - 1.0)))
            ref_axis = np.real(v[:, i])
            ref_axis /= np.linalg.norm(ref_axis)
            got = np.array([eig.axis.x, eig.axis.y, eig.axis.z])
            assert min(
                np.linalg.norm(got - ref_axis), np.linalg.norm(got + ref_axis)
            ) <= 1e-9
            ref_complex = w[np.argmax(np.imag(w))]
            a, b = eig.complex_pair
            assert abs(a - ref_complex.real) <= 1e-9
            assert abs(b - ref_complex.imag) <= 1e-9

    def test_eigen_invariants(self):
        rng = random.Random(99)
        for _ in range(300):
            m = rotation_matrix(rand_rotation3(rng, min_angle=1e-3)).m
            eig = eig3_rotation(m)
            a, b = eig.complex_pair
            # eigenvalue product equals det = +1
            assert abs(eig.lambda_real * (a * a + b * b) - m.det()) <= 1e-9
            # the +1 eigenvector direction is preserved
            assert (m.mv(eig.axis) - eig.axis).norm() <= 1e-9
            assert abs(eig.axis.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("theta", [1e-8, 1e-6, math.pi - 1e-8])
    def test_b_keeps_its_digits_near_a_turn_of_zero_or_pi(self, theta):
        # sqrt(1 - a^2) reads 0.0 at 1e-8 and at pi - 1e-8, and is 4e-5 off at 1e-6
        _, b = eig3_rotation(rotation_matrix(_rot_z(theta)).m).complex_pair
        assert b == pytest.approx(math.sin(theta), rel=1e-12, abs=0.0)


def _rot_z(theta):
    return Rotation3(UnitVector3(0, 0, 1), theta)


def _rot_y(theta):
    return Rotation3(UnitVector3(0, 1, 0), theta)


def _threshold_table(tree: ast.Module) -> list[ast.Assign]:
    """linalg's threshold table: its module-level assignments to upper-case names."""
    return [
        node for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()
    ]


def _stray_small_floats(path: Path):
    """(line, value) of every float literal 0 < |v| < 1e-3 in the module at
    `path`, leaving out linalg's threshold table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.name == "linalg.py":
        for node in _threshold_table(tree):
            allowed.update(id(n) for n in ast.walk(node))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3 and id(node) not in allowed
    ]


def test_every_small_float_threshold_lives_in_the_linalg_table():
    src = Path(isometry_lab.__file__).parent
    stray = {
        path.name: found
        for path in sorted(src.glob("*.py"))
        if (found := _stray_small_floats(path))
    }
    assert stray == {}


def test_every_name_in_the_linalg_table_is_read_somewhere():
    # a decision deleted from the code must not leave its threshold behind
    src = Path(isometry_lab.__file__).parent
    table = _threshold_table(ast.parse((src / "linalg.py").read_text(encoding="utf-8")))
    read = {
        node.id
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(node.targets[0].id for node in table if node.targets[0].id not in read) == []


def _unused_imports(path: Path) -> list[str]:
    """Names the module at `path` imports but neither reads nor lists in `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if alias.name != "*"
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, ast.List)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(imported - used)


def test_every_imported_name_is_used_or_exported():
    # no linter runs on the package: a deletion must not leave its imports behind
    src = Path(isometry_lab.__file__).parent
    unused = {path.name: found for path in sorted(src.glob("*.py")) if (found := _unused_imports(path))}
    assert unused == {}


# Segments of lengths 1 and 2; arcs of pi/2 and 0.927 (x fixed): no isometry exists.
_PLANE_ARGS = (Segment2(Vec2(0, 0), Vec2(1, 0)), Segment2(Vec2(0, 0), Vec2(2, 0)))
_SPHERE_ARGS = (
    UnitVector3(1, 0, 0), UnitVector3(1, 0, 0), UnitVector3(0, 1, 0), UnitVector3(0.6, 0.8, 0)
)
_SOLVERS = [
    (recover_planar, _PLANE_ARGS),
    (recover_planar_geometric, _PLANE_ARGS),
    (recover_axis_cross, _SPHERE_ARGS),
    (recover_axis_geometric, _SPHERE_ARGS),
    (recover_sphere_rotation, _SPHERE_ARGS),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
@pytest.mark.parametrize("solver, args", _SOLVERS, ids=[f.__name__ for f, _ in _SOLVERS])
def test_solvers_reject_a_bad_tolerance(solver, args, value):
    with pytest.raises(ValueError, match="tolerance"):
        solver(*args, tol=value)

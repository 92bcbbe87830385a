"""Geometry core: distances, emptiness predicates, cones, regions, and
point-set ingestion rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxdeg import (
    ROT_HALF_DIAG,
    TWO_PI,
    ConeSpec,
    DuplicatePointError,
    ParameterError,
    Point,
    PointSet,
    Rect,
    Region,
    cone_index,
    contains,
    dist,
    in_gabriel_disk,
    in_lune,
    sqdist,
)

# exact dyadic coordinates make float predicates reproducible under
# shrinking and rule out accidental near-boundary cases
grid_coord = st.integers(min_value=-64, max_value=64).map(lambda k: k / 64.0)
grid_point = st.tuples(grid_coord, grid_coord)


class TestDist:
    def test_three_four_five(self):
        assert dist((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identity(self):
        assert dist((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_unit_diagonal(self):
        assert dist((1.0, 1.0), (2.0, 2.0)) == pytest.approx(math.sqrt(2.0), abs=0)

    def test_matches_sqdist(self):
        u, v = (0.3, -0.7), (1.9, 2.2)
        assert dist(u, v) == pytest.approx(math.sqrt(sqdist(u, v)))

    @given(grid_point, grid_point)
    def test_symmetry(self, u, v):
        assert dist(u, v) == dist(v, u)
        assert sqdist(u, v) == sqdist(v, u)

    @given(grid_point, grid_point, grid_point)
    def test_triangle_inequality(self, u, v, w):
        assert dist(u, w) <= dist(u, v) + dist(v, w) + 1e-12


class TestGabrielDisk:
    def test_disk_center_inside(self):
        assert in_gabriel_disk((1.0, 0.0), (0.0, 0.0), (2.0, 0.0))

    def test_boundary_point_outside(self):
        # w = (1, 0) sits exactly on the circle with center (0.5, 0.5)
        # and radius sqrt(2)/2; the open convention excludes it
        assert sqdist((1.0, 0.0), (0.5, 0.5)) == sqdist((0.0, 0.0), (1.0, 1.0)) / 4.0
        assert not in_gabriel_disk((1.0, 0.0), (0.0, 0.0), (1.0, 1.0))

    def test_far_outside(self):
        assert not in_gabriel_disk((5.0, 5.0), (0.0, 0.0), (1.0, 0.0))

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ParameterError):
            in_gabriel_disk((1.0, 0.0), (0.5, 0.5), (0.5, 0.5))

    @given(grid_point, grid_point, grid_point)
    def test_symmetric_in_endpoints(self, w, u, v):
        if u == v:
            return
        assert in_gabriel_disk(w, u, v) == in_gabriel_disk(w, v, u)

    @given(grid_point, grid_point, grid_point)
    def test_disk_subset_of_lune(self, w, u, v):
        if u == v:
            return
        if in_gabriel_disk(w, u, v):
            assert in_lune(w, u, v)


class TestLune:
    def test_point_near_segment_inside(self):
        w, u, v = (0.5, 0.1), (0.0, 0.0), (1.0, 0.0)
        assert dist(w, u) < 1.0 and dist(w, v) < 1.0
        assert in_lune(w, u, v)

    def test_orthogonal_point_outside(self):
        assert not in_lune((0.0, 1.0), (0.0, 0.0), (1.0, 0.0))

    def test_midpoint_always_inside(self):
        for u, v in [((0.0, 0.0), (1.0, 0.0)), ((-2.0, 3.0), (5.0, -1.0))]:
            m = ((u[0] + v[0]) / 2.0, (u[1] + v[1]) / 2.0)
            assert in_lune(m, u, v)

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ParameterError):
            in_lune((1.0, 0.0), (2.0, 2.0), (2.0, 2.0))


class TestConeSpec:
    def test_theta(self):
        spec = ConeSpec(4)
        assert spec.theta == pytest.approx(math.pi / 2.0, abs=0)

    @pytest.mark.parametrize("p", range(2, 40))
    def test_theta_times_p_is_two_pi(self, p):
        assert ConeSpec(p).theta * p == pytest.approx(TWO_PI, rel=2**-52)

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.0, True])
    def test_bad_cone_count(self, bad):
        with pytest.raises(ParameterError):
            ConeSpec(bad)

    @pytest.mark.parametrize("bad", [-0.1, TWO_PI, 7.0, math.inf, math.nan, True])
    def test_bad_offset(self, bad):
        with pytest.raises(ParameterError):
            ConeSpec(4, bad)

    @pytest.mark.parametrize("p", [np.int64(4), np.int32(4)])
    @pytest.mark.parametrize("offset", [np.float32(0.5), np.int64(1)])
    def test_numpy_scalars_stored_as_python_numbers(self, p, offset):
        spec = ConeSpec(p, offset)
        assert spec == ConeSpec(4, float(offset))
        assert type(spec.p) is int and type(spec.offset) is float


class TestConeIndex:
    def test_reference_ray_in_first_cone(self):
        assert cone_index((0.0, 0.0), (1.0, 0.0), ConeSpec(4)) == 1

    def test_left_endpoint_owned_by_upper_cone(self):
        # angle exactly pi/2 starts cone 2 under the half-open convention
        assert cone_index((0.0, 0.0), (0.0, 1.0), ConeSpec(4)) == 2

    def test_third_quadrant(self):
        # angle 5*pi/4 lies in [pi, 3*pi/2)
        assert cone_index((0.0, 0.0), (-1.0, -1.0), ConeSpec(4)) == 3

    def test_offset_shifts_partition(self):
        # with offset just past the +x direction, (1, 0) wraps to cone p
        assert cone_index((0.0, 0.0), (1.0, 0.0), ConeSpec(4, 0.1)) == 4

    def test_coincident_points_rejected(self):
        with pytest.raises(ParameterError):
            cone_index((1.0, 1.0), (1.0, 1.0), ConeSpec(4))

    @pytest.mark.parametrize("p", [2, 3, 4, 7, 12])
    def test_index_always_in_range(self, p):
        spec = ConeSpec(p)
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = tuple(rng.normal(size=2))
            assert 1 <= cone_index((0.0, 0.0), w, spec) <= p

    @given(
        st.integers(min_value=2, max_value=11),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(deadline=None)
    def test_rotation_increments_index(self, p, i, frac):
        # a direction placed a safe fraction into cone i+1 moves to the
        # next cone when advanced by exactly theta
        spec = ConeSpec(p)
        a = (i + frac) * spec.theta
        u = (0.0, 0.0)
        w1 = (math.cos(a), math.sin(a))
        w2 = (math.cos(a + spec.theta), math.sin(a + spec.theta))
        i1 = cone_index(u, w1, spec)
        i2 = cone_index(u, w2, spec)
        assert i2 == i1 % p + 1


class TestRect:
    def test_area(self):
        assert Rect(0.0, 0.0, 2.0, 0.5).area == 1.0

    def test_contains_is_closed(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert r.contains((0.0, 1.0)) and r.contains((1.0, 0.5))
        assert not r.contains((1.0000001, 0.5))

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0),
         (0.0, 0.0, math.inf, 1.0), (0.0, math.nan, 1.0, 1.0),
         (True, 0.0, 2.0, 1.0)],
    )
    def test_degenerate_rejected(self, bounds):
        with pytest.raises(ParameterError):
            Rect(*bounds)

    def test_numpy_bounds_stored_as_floats(self):
        r = Rect(np.float32(0.5), np.int64(0), np.int32(2), np.float32(1.25))
        assert r == Rect(0.5, 0.0, 2.0, 1.25)
        assert all(type(v) is float for v in (r.xmin, r.ymin, r.xmax, r.ymax))


class TestRegion:
    def test_unit_square_contains(self):
        r = Region.unit_square()
        assert contains(r, (0.5, 0.5))
        assert not contains(r, (1.0001, 0.5))
        assert contains(r, (0.0, 1.0))

    def test_rotated_square_excludes_original_corners(self):
        r = Region.rotated_square()
        for c in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]:
            assert not contains(r, c)
        assert contains(r, (0.5, 0.5))
        # the rotated square's own corners lie on its boundary
        assert contains(r, (0.5 + ROT_HALF_DIAG, 0.5))

    def test_rect_union_membership_and_area(self):
        r = Region.rect_union([Rect(0.0, 0.0, 1.0, 0.5), Rect(0.0, 0.5, 0.5, 1.0)])
        assert r.area == pytest.approx(0.75)
        assert contains(r, (0.9, 0.2))
        assert contains(r, (0.2, 0.9))
        assert not contains(r, (0.9, 0.9))

    def test_overlapping_interiors_rejected(self):
        with pytest.raises(ParameterError):
            Region.rect_union([Rect(0.0, 0.0, 1.0, 1.0), Rect(0.5, 0.5, 2.0, 2.0)])

    def test_touching_rectangles_allowed(self):
        r = Region.rect_union([Rect(0.0, 0.0, 1.0, 1.0), Rect(1.0, 0.0, 2.0, 1.0)])
        assert r.area == pytest.approx(2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            Region("pentagon")

    @pytest.mark.parametrize("rects", [
        [(0.0, 0.0, 1.0, 0.5)],
        [(0.0, 0.0, 1.0, 0.5), (0.0, 0.5, 0.5, 1.0)],
        [Rect(0.0, 0.0, 1.0, 0.5), "0 0.5 0.5 1"],
    ])
    def test_rect_union_takes_only_rects(self, rects):
        with pytest.raises(ParameterError):
            Region.rect_union(rects)

    def test_square_kinds_take_no_rects(self):
        with pytest.raises(ParameterError):
            Region("unit-square", (Rect(0.0, 0.0, 1.0, 1.0),))

    def test_contains_mask_matches_scalar(self):
        # contains is contains_mask on one point, so both are checked
        # against closed-membership formulas written out per kind, on
        # random points and on quarter-grid points, which include every
        # corner and edge of the unit square and the L-shape
        rects = [(0.0, 0.0, 1.0, 0.5), (0.0, 0.5, 0.5, 1.0)]
        formulas = [
            (Region.unit_square(), lambda x, y: 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0),
            (
                Region.rotated_square(),
                lambda x, y: abs(x - 0.5) + abs(y - 0.5) <= ROT_HALF_DIAG,
            ),
            (
                Region.rect_union([Rect(*r) for r in rects]),
                lambda x, y: any(
                    x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in rects
                ),
            ),
        ]
        rng = np.random.default_rng(11)
        grid = [(i / 4.0, j / 4.0) for i in range(-2, 7) for j in range(-2, 7)]
        pts = np.concatenate([rng.random((300, 2)) * 2.0 - 0.5, grid])
        for r, inside in formulas:
            want = [inside(float(x), float(y)) for x, y in pts]
            assert r.contains_mask(pts).tolist() == want
            assert [contains(r, q) for q in pts] == want
            assert [r.contains(Point(*q)) for q in pts] == want

    def test_bbox(self):
        assert Region.unit_square().bbox == (0.0, 0.0, 1.0, 1.0)
        x0, y0, x1, y1 = Region.rotated_square().bbox
        assert x0 == pytest.approx(0.5 - ROT_HALF_DIAG)
        assert x1 == pytest.approx(0.5 + ROT_HALF_DIAG)
        r = Region.rect_union([Rect(0.0, 0.0, 1.0, 0.5), Rect(0.0, 0.5, 0.5, 1.0)])
        assert r.bbox == (0.0, 0.0, 1.0, 1.0)


class TestPoint:
    def test_coordinates_coerced_to_float(self):
        p = Point(1, 2)
        assert p.x == 1.0 and p.y == 2.0
        assert p == (1.0, 2.0)

    @pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_nonfinite_rejected(self, x, y):
        with pytest.raises(ParameterError):
            Point(x, y)

    @pytest.mark.parametrize(
        "x,y", [("abc", 1), ("1.5", 1), (0.0, True), (10**400, 0.0)],
        ids=["text", "numeric-text", "bool", "int-beyond-double"],
    )
    def test_non_numbers_rejected(self, x, y):
        with pytest.raises(ParameterError):
            Point(x, y)


class TestPointSet:
    def test_basic_shape_and_access(self):
        ps = PointSet([(0.0, 1.0), (2.0, 3.0)])
        assert ps.n == 2 and len(ps) == 2
        assert ps[1] == Point(2.0, 3.0)
        assert [tuple(p) for p in ps] == [(0.0, 1.0), (2.0, 3.0)]

    def test_empty(self):
        ps = PointSet([])
        assert ps.n == 0
        assert ps.coords.shape == (0, 2)

    def test_duplicates_rejected_with_indices(self):
        with pytest.raises(DuplicatePointError) as ei:
            PointSet([(0.0, 0.0), (1.0, 1.0), (0.0, 0.0)])
        assert "0" in str(ei.value) and "2" in str(ei.value)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            PointSet([(0.0, math.nan)])

    def test_bad_shape_rejected(self):
        with pytest.raises(ParameterError):
            PointSet([(0.0, 1.0, 2.0)])

    @pytest.mark.parametrize("coords", [[("a", 1.0)], [[1.0, 2.0], [3.0]]], ids=["text", "ragged"])
    def test_unreadable_rows_rejected(self, coords):
        with pytest.raises(ParameterError):
            PointSet(coords)

    @pytest.mark.parametrize(
        "coords",
        [
            [(True, "1.5"), (0, 0)],
            [(True, 1.0)],
            [("1.5", 0.0)],
            np.array([[True, False]]),
            np.array([["1.5", "0"]]),
            np.array([[1.0, "2"]], dtype=object),
            [(0.0, None)],
            [(0.0, 1j)],
            [np.zeros((2, 2)), np.zeros((2, 3))],
        ],
        ids=[
            "bool-and-text", "bool", "text", "bool-array", "text-array", "object-array", "none", "complex",
            "ragged-arrays",
        ],
    )
    def test_non_numbers_rejected(self, coords):
        # NumPy would convert the first to [[1.0, 1.5], [0.0, 0.0]]
        with pytest.raises(ParameterError):
            PointSet(coords)

    @pytest.mark.parametrize(
        "coords",
        [
            [(0, 1), (2, 3)],
            [(np.float32(0.5), np.int64(1)), (2.0, 3)],
            np.array([[0, 1], [2, 3]], dtype=np.int32),
            np.array([[0.5, 1.0]], dtype=np.float32),
            np.array([[0.5, 1.0]], dtype=object),
        ],
        ids=["ints", "numpy-scalars", "int-array", "float32-array", "object-array"],
    )
    def test_real_numbers_accepted(self, coords):
        assert PointSet(coords) == PointSet(np.asarray(coords, dtype=np.float64))

    def test_coords_are_frozen(self):
        ps = PointSet([(0.0, 1.0)])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0

    def test_input_not_aliased(self):
        arr = np.array([[0.0, 1.0], [2.0, 3.0]])
        ps = PointSet(arr)
        arr[0, 0] = 99.0
        assert ps.coords[0, 0] == 0.0

    def test_equality_ignores_meta(self):
        a = PointSet([(0.0, 1.0)], meta={"seed": 1})
        b = PointSet([(0.0, 1.0)], meta={"seed": 2})
        c = PointSet([(0.0, 2.0)])
        assert a == b and a != c

    def test_meta_is_copied(self):
        m = {"seed": 1}
        ps = PointSet([(0.0, 1.0)], meta=m)
        m["seed"] = 2
        assert ps.meta["seed"] == 1

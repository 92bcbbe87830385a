"""Witness generators, detectors, census scans and extrema counts.

Boundary assertions use axis-aligned or integer-derived coordinates so
the open-inner/closed-outer annulus and closed-step conventions are
exercised exactly, without epsilon slack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxdeg import (
    ConeSpec,
    ParameterError,
    PearlSpec,
    PointSet,
    Region,
    StaircaseSpec,
    count_jewels,
    count_maxima,
    count_minima,
    count_staircases,
    find_jewels,
    find_staircases,
    gabriel,
    is_staircase,
    is_tiara,
    jewel_scale,
    make_staircase,
    make_tiara,
    pearl_region_index,
    staircase_scale,
    undirected_view,
    yao,
)

from conftest import uniform_points


# ---------------------------------------------------------------------------
# ring witness geometry


class TestPearlSpec:
    def test_derived_quantities(self):
        spec = PearlSpec(5, 0.2)
        assert spec.xi == pytest.approx(2.0 * math.pi / 15.0, rel=1e-15)
        assert spec.R * math.cos(spec.xi) == pytest.approx(spec.r, rel=1e-15)
        assert spec.R > spec.r

    @pytest.mark.parametrize("k", [2, 1, 0, -3, 3.0, True])
    def test_rejects_small_or_non_int_k(self, k):
        with pytest.raises(ParameterError):
            PearlSpec(k, 0.1)

    @pytest.mark.parametrize("r", [0.0, -0.5, math.inf, math.nan, "0.1"])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(ParameterError):
            PearlSpec(3, r)


@pytest.mark.parametrize("make", [PearlSpec, StaircaseSpec])
@pytest.mark.parametrize("k, r", [(np.int64(4), np.float32(0.25)), (np.int32(4), np.int64(1))])
def test_specs_store_numpy_scalars_as_python_numbers(make, k, r):
    spec = make(k, r)
    assert spec == make(4, float(r))
    assert type(spec.k) is int and type(spec.r) is float


class TestPearlRegionIndex:
    spec = PearlSpec(3, 1.0)

    def test_on_outer_radius_is_inside(self):
        # axis-aligned so the squared distance reproduces R*R exactly;
        # the outer boundary is closed
        assert pearl_region_index((0.0, 0.0), (self.spec.R, 0.0), self.spec) == 1

    def test_beyond_outer_radius_is_outside(self):
        w = (self.spec.R * (1.0 + 1e-12), 0.0)
        assert pearl_region_index((0.0, 0.0), w, self.spec) is None

    def test_on_inner_radius_is_outside(self):
        # the inner boundary is open
        assert pearl_region_index((0.0, 0.0), (1.0, 0.0), self.spec) is None

    def test_inside_inner_disk_is_outside(self):
        assert pearl_region_index((0.0, 0.0), (0.5, 0.0), self.spec) is None

    def test_center_itself_rejected(self):
        with pytest.raises(ParameterError):
            pearl_region_index((0.3, 0.3), (0.3, 0.3), self.spec)

    def at_clockwise(self, mult):
        rho = (self.spec.r + self.spec.R) / 2.0
        a = -mult * self.spec.xi
        return (rho * math.cos(a), rho * math.sin(a))

    def test_gap_sectors_return_none(self):
        # every third sector separates consecutive regions
        assert pearl_region_index((0.0, 0.0), self.at_clockwise(2.5), self.spec) is None
        assert pearl_region_index((0.0, 0.0), self.at_clockwise(5.5), self.spec) is None
        assert pearl_region_index((0.0, 0.0), self.at_clockwise(8.5), self.spec) is None

    def test_regions_advance_clockwise(self):
        assert pearl_region_index((0.0, 0.0), self.at_clockwise(0.5), self.spec) == 1
        assert pearl_region_index((0.0, 0.0), self.at_clockwise(3.5), self.spec) == 2
        assert pearl_region_index((0.0, 0.0), self.at_clockwise(6.5), self.spec) == 3

    def test_full_turn_wraps_into_last_gap(self):
        rho = (self.spec.r + self.spec.R) / 2.0
        a = 1e-9  # a hair counterclockwise of the positive x axis
        w = (rho * math.cos(a), rho * math.sin(a))
        assert pearl_region_index((0.0, 0.0), w, self.spec) is None

    def test_offset_center(self):
        c = (2.5, -1.75)
        w = (c[0] + self.at_clockwise(0.5)[0], c[1] + self.at_clockwise(0.5)[1])
        assert pearl_region_index(c, w, self.spec) == 1

    @pytest.mark.parametrize("k", range(3, 21))
    def test_generated_pearls_cover_regions_once(self, k):
        spec = PearlSpec(k, 0.05)
        ring = make_tiara(spec, (0.3, 0.7))
        got = [
            pearl_region_index((0.3, 0.7), tuple(row), spec)
            for row in ring.coords
        ]
        assert got == list(range(1, k + 1))


class TestTiaraRoundTrip:
    @pytest.mark.parametrize("k", range(3, 21))
    def test_generator_satisfies_detector(self, k):
        spec = PearlSpec(k, 0.05)
        ring = make_tiara(spec, (0.3, 0.7))
        assert isinstance(ring, PointSet)
        assert ring.n == k
        assert is_tiara((0.3, 0.7), ring, spec)

    def test_pearl_radii_inside_annulus(self):
        spec = PearlSpec(6, 0.1)
        ring = make_tiara(spec, (0.0, 0.0))
        d = np.hypot(ring.coords[:, 0], ring.coords[:, 1])
        assert (d > spec.r).all()
        assert (d <= spec.R).all()

    def test_empty_set_is_not_a_tiara(self):
        spec = PearlSpec(3, 0.1)
        assert not is_tiara((0.0, 0.0), PointSet([]), spec)

    def test_center_row_and_far_points_ignored(self):
        spec = PearlSpec(4, 0.1)
        ring = make_tiara(spec, (0.5, 0.5))
        rows = np.vstack([[[0.5, 0.5]], ring.coords, [[9.0, 9.0], [-7.0, 3.0]]])
        assert is_tiara((0.5, 0.5), PointSet(rows), spec)

    def test_extra_point_in_gap_sector_breaks_it(self):
        spec = PearlSpec(3, 0.1)
        ring = make_tiara(spec, (0.0, 0.0))
        rho = (spec.r + spec.R) / 2.0
        a = -2.5 * spec.xi
        rows = np.vstack([ring.coords, [[rho * math.cos(a), rho * math.sin(a)]]])
        assert not is_tiara((0.0, 0.0), PointSet(rows), spec)

    def test_pearl_inside_inner_radius_breaks_it(self):
        spec = PearlSpec(3, 0.1)
        ring = make_tiara(spec, (0.0, 0.0)).coords.copy()
        ring[0] *= 0.5 * spec.r / np.hypot(ring[0, 0], ring[0, 1])
        assert not is_tiara((0.0, 0.0), PointSet(ring), spec)

    def test_two_pearls_in_one_region_breaks_it(self):
        spec = PearlSpec(3, 0.1)
        ring = make_tiara(spec, (0.0, 0.0)).coords.copy()
        rho = (spec.r + spec.R) / 2.0
        a = -0.5 * spec.xi  # region 1, already occupied by pearl 1
        ring[1] = (rho * math.cos(a), rho * math.sin(a))
        assert not is_tiara((0.0, 0.0), PointSet(ring), spec)

    # On CPUs where NumPy's arctan2 and math.atan2 agree to the last bit,
    # the next two tests pass whichever of them the ring test uses; on
    # AVX-512 CPUs arctan2 is an ulp off for a few percent of directions.
    def test_pearl_an_ulp_from_a_gap_follows_region_index(self):
        # the third pearl lies within an ulp of the edge between gap
        # sector 6 and region 3: math.atan2 puts it in the gap, the
        # arctan2 of an AVX-512 build in region 3
        spec = PearlSpec(3, 1.0)
        w = (-0.5763518223330703, 0.9982706393157872)
        rows = np.vstack([make_tiara(spec, (0.0, 0.0)).coords[:2], [w]])
        assert pearl_region_index((0.0, 0.0), w, spec) is None
        assert is_tiara((0.0, 0.0), PointSet(rows), spec) is False

    @pytest.mark.parametrize("k", [3, 4, 5, 7, 12])
    def test_pearls_at_sector_edges_follow_region_index(self, k):
        # every sector edge, at 21 directions within 1e-15 rad of it, in
        # place of the pearl of a region next to the edge
        spec = PearlSpec(k, 1.0)
        ring = make_tiara(spec, (0.0, 0.0)).coords
        rho = (spec.r + spec.R) / 2.0
        for edge in range(3 * k):
            j = (edge // 3) % k  # region j + 1 borders this edge
            for t in range(-10, 11):
                a = -edge * spec.xi + t * 1e-16
                rows = ring.copy()
                rows[j] = (rho * math.cos(a), rho * math.sin(a))
                regions = {pearl_region_index((0.0, 0.0), tuple(w), spec) for w in rows}
                expect = regions == set(range(1, k + 1))
                assert is_tiara((0.0, 0.0), PointSet(rows), spec) is expect

    @pytest.mark.parametrize("k", [3, 7, 12])
    def test_forces_disk_empty_degree(self, k):
        spec = PearlSpec(k, 1.0)
        ring = make_tiara(spec, (0.0, 0.0))
        pts = PointSet(np.vstack([[[0.0, 0.0]], ring.coords]))
        assert gabriel(pts).degrees()[0] >= k


# ---------------------------------------------------------------------------
# staircase witness geometry


class TestStaircaseSpec:
    def test_step_size(self):
        assert StaircaseSpec(4, 1.0).step == 0.25

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ParameterError):
            StaircaseSpec(k, 1.0)

    @pytest.mark.parametrize("r", [0.0, -2.0, math.nan])
    def test_rejects_bad_r(self, r):
        with pytest.raises(ParameterError):
            StaircaseSpec(1, r)


class TestStaircaseRoundTrip:
    def test_two_step_unit_square_exact_points(self):
        stairs = make_staircase(StaircaseSpec(2, 1.0), (0.0, 0.0))
        assert stairs.coords.tolist() == [[0.25, 0.75], [0.75, 0.25]]

    def test_points_form_an_antichain(self):
        stairs = make_staircase(StaircaseSpec(7, 0.5), (0.1, 0.2))
        assert count_maxima(stairs) == 7
        assert count_minima(stairs) == 7

    @pytest.mark.parametrize("k", range(1, 21))
    def test_generator_satisfies_detector(self, k):
        spec = StaircaseSpec(k, 0.37)
        stairs = make_staircase(spec, (0.21, 0.4))
        assert isinstance(stairs, PointSet)
        assert stairs.n == k
        assert is_staircase((0.21, 0.4), stairs, spec)

    def test_far_points_ignored(self):
        spec = StaircaseSpec(3, 0.2)
        stairs = make_staircase(spec, (0.4, 0.4))
        rows = np.vstack([stairs.coords, [[0.9, 0.9], [0.0, 0.0]]])
        assert is_staircase((0.4, 0.4), PointSet(rows), spec)

    def test_two_points_in_one_step_breaks_it(self):
        spec = StaircaseSpec(2, 1.0)
        pts = PointSet([(0.1, 0.9), (0.2, 0.8)])  # both on step 1
        assert not is_staircase((0.0, 0.0), pts, spec)

    def test_point_off_the_diagonal_breaks_it(self):
        spec = StaircaseSpec(2, 1.0)
        pts = PointSet([(0.25, 0.75), (0.9, 0.9)])  # second in no step
        assert not is_staircase((0.0, 0.0), pts, spec)

    def test_shared_step_corner_counts_for_both(self):
        # (0.5, 0.5) lies in both closed steps, so together with a step-1
        # point the first step holds two points
        spec = StaircaseSpec(2, 1.0)
        pts = PointSet([(0.25, 0.75), (0.5, 0.5)])
        assert not is_staircase((0.0, 0.0), pts, spec)

    def test_step_boundaries_are_closed(self):
        spec = StaircaseSpec(2, 1.0)
        pts = PointSet([(0.0, 1.0), (1.0, 0.0)])  # extreme step corners
        assert is_staircase((0.0, 0.0), pts, spec)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_forces_cone_nearest_degree(self, k):
        spec = StaircaseSpec(k, 1.0)
        stairs = make_staircase(spec, (0.0, 0.0))
        pts = PointSet(np.vstack([[[0.0, 0.0]], stairs.coords]))
        g = undirected_view(yao(pts, ConeSpec(4)))
        assert g.degrees()[0] >= k


# ---------------------------------------------------------------------------
# census scales


class TestCensusScales:
    def test_small_sets_pin_the_minimum(self):
        assert jewel_scale(16) == (3, 0.25)
        k, r = staircase_scale(16)
        assert k == 2
        assert r == pytest.approx(math.sqrt(2.0 / 16.0), rel=1e-15)

    def test_growth_with_n(self):
        k6, r6 = jewel_scale(10**6)
        assert k6 == 5
        assert r6 == pytest.approx(1e-3, rel=1e-12)
        assert staircase_scale(10**6)[0] == 5

    def test_scale_constant_multiplies(self):
        assert jewel_scale(10**6, c=2.0)[0] == 10
        assert staircase_scale(10**6, c=0.01)[0] == 1

    @pytest.mark.parametrize("c", [np.float32(2.0), np.int64(2)])
    def test_numpy_scale_constant(self, c):
        assert jewel_scale(np.int64(10**6), c) == jewel_scale(10**6, 2.0)
        assert staircase_scale(np.int32(10**6), c) == staircase_scale(10**6, 2.0)

    @pytest.mark.parametrize("n", [15, 0, -4, 16.0, True])
    def test_rejects_small_or_non_int_n(self, n):
        with pytest.raises(ParameterError):
            jewel_scale(n)
        with pytest.raises(ParameterError):
            staircase_scale(n)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_c(self, c):
        with pytest.raises(ParameterError):
            jewel_scale(100, c)
        with pytest.raises(ParameterError):
            staircase_scale(100, c)


# ---------------------------------------------------------------------------
# census scans


def planted_jewel_set():
    """40 points: a ring witness around index 0 plus far fillers."""
    k, r = jewel_scale(40)
    spec = PearlSpec(k, r)
    center = (0.5, 0.5)
    ring = make_tiara(spec, center)
    fillers = 0.86 + 0.08 * np.random.default_rng(7).random((40 - 1 - k, 2))
    return PointSet(np.vstack([[center], ring.coords, fillers])), spec


def planted_staircase_set():
    """40 points: a staircase witness at index 0 plus far fillers."""
    k, r = staircase_scale(40)
    spec = StaircaseSpec(k, r)
    corner = (0.4, 0.4)
    stairs = make_staircase(spec, corner)
    fillers = 0.86 + 0.08 * np.random.default_rng(7).random((40 - 1 - k, 2))
    return PointSet(np.vstack([[corner], stairs.coords, fillers])), spec


def planted_census_set(make, spec, radius):
    """2,000 points holding the witness ``make(spec, centre)`` at 16
    centres on a 4x4 grid. Every other plant gets one more point just past
    ``radius`` (inside the census's 1e-9 fetch slack, outside the
    witness), so its ball holds k + 2 points and the others' k + 1; every
    fourth plant is broken by a point r/2 from its centre. Uniform fillers
    keep an L-infinity distance of 3 * radius from every centre. Returns
    the set and the centres' indices."""
    g = np.linspace(0.15, 0.85, 4)
    centres = np.array([(x, y) for x in g for y in g])
    rows, plants = [], []
    for i, (cx, cy) in enumerate(centres):
        plants.append(len(rows))
        rows.append((cx, cy))
        rows.extend(make(spec, (cx, cy)).coords.tolist())
        if i % 2:
            rows.append((cx + radius * (1.0 + 1e-12), cy))
        if i % 4 == 0:
            rows.append((cx + spec.r / 2.0, cy))
    q = np.random.default_rng(67).random((10_000, 2))
    far = np.abs(q[:, None, :] - centres[None, :, :]).max(axis=2).min(axis=1) > 3.0 * radius
    fill = q[far][: 2000 - len(rows)]
    return PointSet(np.vstack([rows, fill])), plants


def census_inputs(seed, make, spec, radius):
    """The two inputs of a census differential test: 10,000 uniform
    points, where the census finds nothing, and the planted set, with
    hits and broken plants, for the 2,000-point ``spec``."""
    return [
        pytest.param(lambda: (uniform_points(seed=seed, n=10_000), []), id="uniform"),
        pytest.param(lambda: planted_census_set(make, spec, radius), id="planted"),
    ]


JEWEL_SPEC_2000 = PearlSpec(*jewel_scale(2000))
STAIRCASE_SPEC_2000 = StaircaseSpec(*staircase_scale(2000))


class TestJewelCensus:
    def test_planted_witness_found_exactly_once(self):
        pts, _ = planted_jewel_set()
        assert find_jewels(pts).tolist() == [0]
        assert count_jewels(pts) == 1
        assert count_jewels(pts, support=Region.unit_square()) == 1

    def test_perimeter_margin_excludes_candidates(self):
        # same witness shifted against the left edge: clearance 0.3 is
        # under the required 2r ~ 0.316, so the census must skip it
        k, r = jewel_scale(40)
        spec = PearlSpec(k, r)
        center = (0.3, 0.5)
        ring = make_tiara(spec, center)
        fillers = 0.86 + 0.08 * np.random.default_rng(8).random((40 - 1 - k, 2))
        pts = PointSet(np.vstack([[center], ring.coords, fillers]))
        assert is_tiara(center, pts, spec)
        assert count_jewels(pts) == 0

    def test_rejects_non_unit_square_support(self):
        pts, _ = planted_jewel_set()
        with pytest.raises(ParameterError):
            count_jewels(pts, support=Region.rotated_square())
        with pytest.raises(ParameterError):
            count_jewels(pts, support="unit-square")

    def test_rejects_small_sets_and_bad_c(self):
        pts = uniform_points(seed=60, n=15)
        with pytest.raises(ParameterError):
            count_jewels(pts)
        ok = uniform_points(seed=60, n=20)
        with pytest.raises(ParameterError):
            count_jewels(ok, c=0.0)

    @pytest.mark.parametrize(
        "layout", census_inputs(61, make_tiara, JEWEL_SPEC_2000, JEWEL_SPEC_2000.R)
    )
    def test_matches_per_point_detector(self, layout):
        pts, plants = layout()
        k, r = jewel_scale(pts.n)
        spec = PearlSpec(k, r)
        found = find_jewels(pts).tolist()
        P = pts.coords
        clear = np.minimum(
            np.minimum(P[:, 0], 1.0 - P[:, 0]),
            np.minimum(P[:, 1], 1.0 - P[:, 1]),
        )
        expect = [
            i for i in range(pts.n)
            if clear[i] >= 2.0 * r and is_tiara(tuple(P[i]), pts, spec)
        ]
        assert found == expect
        if plants:
            assert len(found) >= 5
            assert any(i not in found for i in plants)  # a broken plant


class TestStaircaseCensus:
    def test_planted_witness_found_exactly_once(self):
        pts, _ = planted_staircase_set()
        assert find_staircases(pts).tolist() == [0]
        assert count_staircases(pts) == 1
        assert count_staircases(pts, support=Region.unit_square()) == 1

    def test_perimeter_margin_excludes_candidates(self):
        k, r = staircase_scale(40)
        spec = StaircaseSpec(k, r)
        corner = (0.1, 0.4)  # under the required clearance r ~ 0.224
        stairs = make_staircase(spec, corner)
        fillers = 0.86 + 0.08 * np.random.default_rng(9).random((40 - 1 - k, 2))
        pts = PointSet(np.vstack([[corner], stairs.coords, fillers]))
        assert is_staircase(corner, pts, spec)
        assert count_staircases(pts) == 0

    def test_rejects_non_unit_square_support(self):
        pts, _ = planted_staircase_set()
        with pytest.raises(ParameterError):
            count_staircases(pts, support=Region.rect_union([]))

    def test_rejects_small_sets_and_bad_c(self):
        with pytest.raises(ParameterError):
            count_staircases(uniform_points(seed=62, n=15))
        with pytest.raises(ParameterError):
            count_staircases(uniform_points(seed=62, n=20), c=-2.0)

    @pytest.mark.parametrize(
        "layout",
        census_inputs(63, make_staircase, STAIRCASE_SPEC_2000, STAIRCASE_SPEC_2000.r),
    )
    def test_matches_per_point_detector(self, layout):
        pts, plants = layout()
        k, r = staircase_scale(pts.n)
        spec = StaircaseSpec(k, r)
        found = find_staircases(pts).tolist()
        P = pts.coords
        inside = (
            (P[:, 0] >= r) & (P[:, 0] <= 1.0 - r)
            & (P[:, 1] >= r) & (P[:, 1] <= 1.0 - r)
        )
        expect = [
            i for i in range(pts.n)
            if inside[i] and is_staircase(tuple(P[i]), pts, spec)
        ]
        assert found == expect
        if plants:
            assert len(found) >= 5
            assert any(i not in found for i in plants)  # a broken plant


# ---------------------------------------------------------------------------
# census edge cases


def tiara_reference(center, P, spec):
    """The ring test as the definition reads, one point at a time."""
    near = []
    for x, y in P.tolist():
        dx = x - center[0]
        dy = y - center[1]
        d2 = dx * dx + dy * dy
        if 0.0 < d2 <= spec.R * spec.R:
            near.append((x, y))
    regions = {pearl_region_index(center, w, spec) for w in near}
    return len(near) == spec.k and regions == set(range(1, spec.k + 1))


def staircase_reference(center, P, spec):
    """The staircase test as the definition reads: every point within
    L-infinity distance r in some closed step, every step holding one."""
    st = spec.r / spec.k
    near = [
        (x - center[0], y - center[1]) for x, y in P.tolist()
        if max(abs(x - center[0]), abs(y - center[1])) <= spec.r
        and (x, y) != tuple(center)
    ]
    if len(near) != spec.k:
        return False
    memb = [
        [
            (i - 1.0) * st <= dx <= i * st and spec.r - i * st <= dy <= spec.r - (i - 1.0) * st
            for dx, dy in near
        ]
        for i in range(1, spec.k + 1)
    ]
    return all(any(col) for col in zip(*memb)) and all(sum(row) == 1 for row in memb)


def detector_hits(pts, c, find):
    """What ``find`` must return: the census candidates at which the
    per-point detector holds. At every candidate the detector is also
    checked against the written-out definition."""
    P = pts.coords
    x = P[:, 0]
    y = P[:, 1]
    if find is find_jewels:
        spec = PearlSpec(*jewel_scale(pts.n, c))
        clear = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
        cand = np.flatnonzero(clear >= 2.0 * spec.r)
        detect, reference = is_tiara, tiara_reference
    else:
        spec = StaircaseSpec(*staircase_scale(pts.n, c))
        r = spec.r
        cand = np.flatnonzero((x >= r) & (x <= 1.0 - r) & (y >= r) & (y <= 1.0 - r))
        detect, reference = is_staircase, staircase_reference
    hits = []
    for i in cand.tolist():
        got = detect(tuple(P[i]), pts, spec)
        assert got == reference(tuple(P[i]), P, spec), i
        if got:
            hits.append(i)
    return hits


def plant_cases(n, cases, radius):
    """n points: the centre and rows of each case, centres on a grid of
    spacing 1/8, then uniform fillers at L-infinity distance over 3 *
    radius from every centre. Returns the set and the centres' indices."""
    g = np.arange(1, 8) / 8.0
    rows, centres = [], []
    for (cx, cy), case in zip([(x, y) for y in g for x in g], cases):
        centres.append(len(rows))
        rows.append((cx, cy))
        rows.extend(case(cx, cy))
    C = np.asarray(rows)[centres]
    q = np.random.default_rng(68).random((4 * n, 2))
    far = np.abs(q[:, None, :] - C[None, :, :]).max(axis=2).min(axis=1) > 3.0 * radius
    return PointSet(np.vstack([rows, q[far][: n - len(rows)]])), centres


def on_circle(cx, cy, d2):
    """A point a hair clockwise of the ray from (cx, cy) along +x whose raw
    squared offset from (cx, cy) is d2 exactly, and the next double in x
    past it. Each step down in y rounds the sum afresh."""
    for j in range(1, 10_000):
        y = cy - j * 2.0 ** -30
        dy2 = (y - cy) * (y - cy)
        x = cx + math.sqrt(d2)
        while (x - cx) * (x - cx) + dy2 > d2:
            x = math.nextafter(x, -math.inf)
        while (math.nextafter(x, math.inf) - cx) ** 2 + dy2 <= d2:
            x = math.nextafter(x, math.inf)
        if (x - cx) * (x - cx) + dy2 == d2:
            return (x, y), (math.nextafter(x, math.inf), y)
    raise AssertionError("no double offset hits d2")


JEWEL = PearlSpec(*jewel_scale(2000))
GAP = -2.5 * JEWEL.xi  # the middle of the gap after region 1


def ring(cx, cy, first=None, extra=()):
    """The rows of ``make_tiara`` around (cx, cy), the first pearl
    replaced by ``first`` and ``extra`` rows added."""
    rows = make_tiara(JEWEL, (cx, cy)).coords.tolist()
    if first is not None:
        rows[0] = first
    return rows + list(extra)


def gap_point(cx, cy, rho):
    return [(cx + rho * math.cos(GAP), cy + rho * math.sin(GAP))]


RING_CASES = [
    # (case, witness?)
    (lambda cx, cy: ring(cx, cy), True),
    # a (k+1)-th point just inside R, and one just outside in the fetch slack
    (lambda cx, cy: ring(cx, cy, extra=gap_point(cx, cy, JEWEL.R * (1.0 - 1e-12))), False),
    (lambda cx, cy: ring(cx, cy, extra=gap_point(cx, cy, JEWEL.R * (1.0 + 1e-12))), True),
    # a pearl on the closed outer circle, and one a double past it
    (lambda cx, cy: ring(cx, cy, on_circle(cx, cy, JEWEL.R * JEWEL.R)[0]), True),
    (lambda cx, cy: ring(cx, cy, on_circle(cx, cy, JEWEL.R * JEWEL.R)[1]), False),
    # a pearl on the open inner circle, and one a double past it
    (lambda cx, cy: ring(cx, cy, on_circle(cx, cy, JEWEL.r * JEWEL.r)[0]), False),
    (lambda cx, cy: ring(cx, cy, on_circle(cx, cy, JEWEL.r * JEWEL.r)[1]), True),
]

# at n = 2048 and c = 1.1 the staircase has k = 4 steps of side 1/128 in a
# square of side r = 1/32, so offsets from centres on the 1/8 grid and
# every step bound are exact
STAIR = StaircaseSpec(*staircase_scale(2048, 1.1))


def stairs(cx, cy, points):
    return [(cx + dx, cy + dy) for dx, dy in points]


def steps(a, b):
    """One point per step i at ((i - a) * step, r - (i - b) * step): its
    lower left corner for (1, 0), its upper right for (0, 1) and the
    corner it shares with step i + 1 for (0, 0)."""
    s = STAIR.step
    return [((i - a) * s, STAIR.r - (i - b) * s) for i in range(1, STAIR.k + 1)]


STAIRCASE_CASES = [
    (lambda cx, cy: make_staircase(STAIR, (cx, cy)).coords.tolist(), True),
    # a (k+1)-th point just inside r, and one just outside in the fetch slack
    (lambda cx, cy: make_staircase(STAIR, (cx, cy)).coords.tolist()
     + [(cx - STAIR.r * (1.0 - 1e-12), cy)], False),
    (lambda cx, cy: make_staircase(STAIR, (cx, cy)).coords.tolist()
     + [(cx - STAIR.r * (1.0 + 1e-12), cy)], True),
    # points on step corners: unshared ones belong to one step, shared
    # ones to two, so a shared corner next to the next step's point
    # doubles that step; (0, r) and (r, 0) lie on the ball's boundary
    (lambda cx, cy: stairs(cx, cy, steps(1, 0)), True),
    (lambda cx, cy: stairs(cx, cy, steps(0, 1)), True),
    (lambda cx, cy: stairs(cx, cy, steps(0, 0)), False),
    (lambda cx, cy: stairs(cx, cy, steps(0, 0)[:1] + steps(0, 1)[1:]), False),
    (lambda cx, cy: stairs(cx, cy, [(0.0, STAIR.r)] + steps(1, 0)[1:-1] + [(STAIR.r, 0.0)]), True),
]


class TestCensusEdgeCases:
    def test_ring_boundaries_match_detector(self):
        pts, centres = plant_cases(2000, [case for case, _ in RING_CASES], JEWEL.R)
        found = find_jewels(pts).tolist()
        assert found == detector_hits(pts, 1.0, find_jewels)
        assert [i in found for i in centres] == [hit for _, hit in RING_CASES]

    def test_step_boundaries_match_detector(self):
        pts, centres = plant_cases(2048, [case for case, _ in STAIRCASE_CASES], STAIR.r)
        found = find_staircases(pts, 1.1).tolist()
        assert found == detector_hits(pts, 1.1, find_staircases)
        assert [i in found for i in centres] == [hit for _, hit in STAIRCASE_CASES]

    def test_lattice_ties_at_the_radius(self):
        # n = 2048 and c = 0.3 give one step, the square [0, r]^2 with
        # r = 1/32. Pairs on a lattice of spacing 3r put each partner, and
        # some partners of neighbouring pairs, at L-infinity distance
        # exactly r; 1,886 fillers sit outside the unit square.
        r = 1.0 / 32.0
        offsets = [(r, r), (r, 0.0), (0.0, r), (r / 2, r), (-r, r), (r, -r / 2)]
        g = 3.0 * r * np.arange(1, 10)
        base = [(x, y) for y in g for x in g]
        rows = []
        for j, (x, y) in enumerate(base):
            dx, dy = offsets[j % len(offsets)]
            rows += [(x, y), (x + dx, y + dy)]
        fill = 3.0 + np.random.default_rng(69).random((2048 - len(rows), 2))
        pts = PointSet(np.vstack([rows, fill]))
        found = find_staircases(pts, 0.3).tolist()
        assert found == detector_hits(pts, 0.3, find_staircases)
        assert 20 <= len(found) < len(base)

    @pytest.mark.parametrize("find, make, spec_of", [
        (find_jewels, make_tiara, lambda n, c: PearlSpec(*jewel_scale(n, c))),
        (find_staircases, make_staircase, lambda n, c: StaircaseSpec(*staircase_scale(n, c))),
    ], ids=["jewels", "staircases"])
    def test_more_neighbours_than_points(self, find, make, spec_of):
        # c = 10 at n = 20 asks for k = 27 points around a centre; c = 7
        # asks for k = 19, so a witness fills the whole set and its
        # (k+2)-th neighbour does not exist
        pts = uniform_points(seed=70, n=20)
        assert find(pts, 10.0).tolist() == []
        spec = spec_of(20, 7.0)
        assert spec.k == 19
        centre = (0.5, 0.5) if find is find_jewels else (0.4, 0.4)
        pts = PointSet(np.vstack([[centre], make(spec, centre).coords]))
        assert find(pts, 7.0).tolist() == [0] == detector_hits(pts, 7.0, find)


# ---------------------------------------------------------------------------
# coordinatewise extrema


def maxima_oracle(coords):
    cnt = 0
    for i, (xi, yi) in enumerate(coords):
        if not any(
            xj > xi and yj > yi for j, (xj, yj) in enumerate(coords) if j != i
        ):
            cnt += 1
    return cnt


class TestExtrema:
    def test_examples(self):
        chain = PointSet([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        anti = PointSet([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        assert count_maxima(chain) == 1
        assert count_minima(chain) == 1
        assert count_maxima(anti) == 3
        assert count_minima(anti) == 3

    def test_trivial_sizes(self):
        assert count_maxima(PointSet([])) == 0
        assert count_minima(PointSet([])) == 0
        assert count_maxima(PointSet([(0.3, 0.4)])) == 1

    def test_tied_x_column_never_dominates(self):
        col = PointSet([(0.0, float(i)) for i in range(5)])
        assert count_maxima(col) == 5
        assert count_minima(col) == 5

    def test_mixed_ties(self):
        # dominance is strict in both coordinates, so on the unit-square
        # corners only the opposite corner is beaten: three maxima and
        # three minima
        pts = PointSet([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        assert count_maxima(pts) == 3
        assert count_minima(pts) == 3

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            coords = rng.integers(0, 6, size=(n, 2)) / 4.0
            coords = np.unique(coords, axis=0)
            pts = PointSet(coords)
            assert count_maxima(pts) == maxima_oracle(coords.tolist())
            neg = [(-x, -y) for x, y in coords.tolist()]
            assert count_minima(pts) == maxima_oracle(neg)

    def test_reflection_symmetry(self):
        pts = uniform_points(seed=65, n=500)
        assert count_minima(pts) == count_maxima(PointSet(-pts.coords))

    def test_sample_mean_tracks_harmonic_number(self):
        # over independent uniform samples the expected count is the
        # m-th harmonic number, which sits between log m and log m + 1
        rng = np.random.default_rng(66)
        m = 100
        vals = [count_maxima(PointSet(rng.random((m, 2)))) for _ in range(400)]
        mean = float(np.mean(vals))
        h = sum(1.0 / i for i in range(1, m + 1))
        assert abs(mean - h) < 0.35
        assert math.log(m) <= mean <= math.log(m) + 1.0


grid_points = st.lists(
    st.tuples(
        st.integers(0, 12).map(lambda k: k / 8.0),
        st.integers(0, 12).map(lambda k: k / 8.0),
    ),
    min_size=1,
    max_size=32,
    unique=True,
)


@settings(max_examples=80, deadline=None)
@given(grid_points)
def test_property_extrema_match_oracle(coords):
    pts = PointSet(coords)
    assert count_maxima(pts) == maxima_oracle(coords)
    assert count_minima(pts) == maxima_oracle([(-x, -y) for x, y in coords])


@settings(max_examples=80, deadline=None)
@given(grid_points)
def test_property_dominated_point_changes_nothing(coords):
    pts = PointSet(coords)
    before = count_maxima(pts)
    x0, y0 = coords[0]
    extra = (x0 - 1.0 / 1024.0, y0 - 1.0 / 4096.0)
    assert count_maxima(PointSet(coords + [extra])) == before

"""Graph containers and the four proximity-graph builders.

The fast disk-empty and lune-empty builders take their candidate pairs
from a Delaunay triangulation at every input size, so the adversarial
families here, and the property tests on small grid sets, all compare
them against the quadratic reference builders, which share only the
predicate expressions. The families aim at the places where rounding
could cost a candidate: cocircular points, points Qhull drops as
coplanar, clusters far below the bounding box's scale, flat input,
coordinates many ulps from zero, and coordinates whose squares overflow
or turn subnormal. The Yao builder's exact scan is checked against an
independent pure-python oracle on the same families, and its staged
neighbor search against the exact scan on layouts large enough to need
the search: ties, points on cone edges, deep clusters, rings and
overflowing distances.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxdeg import (
    ConeSpec,
    DiGraph,
    Graph,
    ParameterError,
    PointSet,
    cone_index,
    gabriel,
    gabriel_naive,
    intersect,
    rng_graph,
    rng_naive,
    undirected_view,
    unit_disk_graph,
    yao,
)
from proxdeg.graphs import _yao_dense, _yao_knn

from conftest import uniform_points


def edge_set(g):
    return {(int(u), int(v)) for u, v in g.edges}


# ---------------------------------------------------------------------------
# containers


class TestGraph:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.edge_count == 0
        assert g.edges.shape == (0, 2)

    def test_canonicalization(self):
        # reversed, duplicated and mirrored pairs collapse to one sorted list
        g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0), (0, 3)])
        assert g.edges.tolist() == [[0, 3], [1, 2]]
        assert g.edge_count == 2

    def test_edges_read_only(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.edges[0, 0] = 2

    def test_degrees(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_neighbors_sorted(self):
        g = Graph(5, [(3, 0), (1, 3), (3, 4), (2, 4)])
        assert g.neighbors(3).tolist() == [0, 1, 4]
        assert g.neighbors(0).tolist() == [3]
        assert g.neighbors(2).tolist() == [4]

    def test_neighbors_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph(2).neighbors(2)

    def test_equality(self):
        assert Graph(3, [(1, 0)]) == Graph(3, [(0, 1)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(3) != Graph(4)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (-1, None),
            (2.0, None),
            (True, None),
            (3, [(0, 3)]),
            (3, [(-1, 0)]),
            (3, [(1, 1)]),
            (3, [(0, 1, 2)]),
        ],
    )
    def test_invalid_inputs(self, n, edges):
        with pytest.raises(ParameterError):
            Graph(n, edges)


class TestDiGraph:
    def test_arcs_keep_direction(self):
        d = DiGraph(3, [(2, 0), (0, 2)])
        assert d.edges.tolist() == [[0, 2], [2, 0]]
        assert d.edge_count == 2

    def test_degree_splits(self):
        d = DiGraph(3, [(0, 1), (0, 2), (2, 1)])
        assert d.out_degrees().tolist() == [2, 0, 1]
        assert d.in_degrees().tolist() == [0, 2, 1]

    def test_undirected_view_merges_opposite_arcs(self):
        d = DiGraph(3, [(0, 1), (1, 0), (2, 1)])
        g = d.undirected_view()
        assert isinstance(g, Graph)
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            DiGraph(2, [(0, 0)])
        with pytest.raises(ParameterError):
            DiGraph(-2)


class TestUndirectedView:
    def test_graph_passthrough(self):
        g = Graph(3, [(0, 1)])
        assert undirected_view(g) is g

    def test_digraph_coerced(self):
        d = DiGraph(2, [(1, 0), (0, 1)])
        assert undirected_view(d) == Graph(2, [(0, 1)])

    def test_rejects_other_types(self):
        with pytest.raises(ParameterError):
            undirected_view([(0, 1)])


class TestIntersect:
    def test_idempotent(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert intersect(g, g) == g

    def test_plain_intersection(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(1, 2), (0, 3)])
        assert intersect(a, b) == Graph(4, [(1, 2)])

    def test_empty_factor(self):
        a = Graph(3, [(0, 1)])
        assert intersect(a, Graph(3)) == Graph(3)
        assert intersect(Graph(0), Graph(0)) == Graph(0)

    def test_directed_inputs_collapse(self):
        d = DiGraph(3, [(1, 0), (1, 2)])
        g = Graph(3, [(0, 1), (0, 2)])
        assert intersect(d, g) == Graph(3, [(0, 1)])

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParameterError):
            intersect(Graph(3), Graph(4))


# ---------------------------------------------------------------------------
# disk-empty graph


class TestGabriel:
    def test_two_points(self):
        g = gabriel(PointSet([(0.0, 0.0), (3.0, 1.0)]))
        assert edge_set(g) == {(0, 1)}

    def test_collinear_triple_drops_long_pair(self):
        g = gabriel(PointSet([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_square_corners_keep_diagonals(self, square_corners):
        # each diagonal's disk passes exactly through the other two
        # corners; the open-disk rule keeps both diagonals, giving K4
        g = gabriel(square_corners)
        assert g.edge_count == 6

    def test_few_points(self):
        assert gabriel(PointSet([])).edge_count == 0
        assert gabriel(PointSet([(0.5, 0.5)])).edge_count == 0

    def test_accepts_raw_coordinates(self):
        assert gabriel([(0.0, 0.0), (1.0, 0.0)]).edge_count == 1

    def test_planarity_bound(self):
        pts = uniform_points(seed=11, n=400)
        g = gabriel(pts)
        assert g.edge_count <= 3 * pts.n - 6

    def test_deterministic(self):
        pts = uniform_points(seed=12, n=300)
        assert np.array_equal(gabriel(pts).edges, gabriel(pts).edges)


class TestRelativeNeighborhood:
    def test_exact_leg_tie_keeps_all_edges(self):
        # isoceles triangle with integer coordinates: the apex sits at
        # squared distance 5 from both base endpoints, the base pair at
        # squared distance 4, so no vertex is strictly closer to both
        # endpoints of any edge and all three edges survive
        g = rng_graph(PointSet([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]))
        assert g.edge_count == 3

    def test_float_equilateral_drops_base(self):
        # the rounded apex height sqrt(3)/2 puts the apex at squared
        # distance 0.999... from each base endpoint, strictly inside the
        # base edge's lune; the raw-double predicate must drop the base
        # and the fast builder must agree with the reference
        h = math.sqrt(3.0) / 2.0
        pts = PointSet([(0.0, 0.0), (1.0, 0.0), (0.5, h)])
        g = rng_graph(pts)
        assert edge_set(g) == {(0, 2), (1, 2)}
        assert g == rng_naive(pts)

    def test_lune_point_blocks_edge_disk_does_not(self):
        # (0.5, 0.6) lies outside the diameter disk of the base pair but
        # strictly closer to both endpoints than they are to each other
        pts = PointSet([(0.0, 0.0), (1.0, 0.0), (0.5, 0.6)])
        assert (0, 1) in edge_set(gabriel(pts))
        assert (0, 1) not in edge_set(rng_graph(pts))

    def test_square_corners_drop_diagonals(self, square_corners):
        g = rng_graph(square_corners)
        assert edge_set(g) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    def test_subgraph_of_disk_empty(self):
        pts = uniform_points(seed=13, n=350)
        lune_edges = edge_set(rng_graph(pts))
        disk_edges = edge_set(gabriel(pts))
        assert lune_edges <= disk_edges


# ---------------------------------------------------------------------------
# fast builders versus quadratic references on adversarial layouts


def adversarial_families():
    rng = np.random.default_rng(20240)
    fams = {}

    fams["collinear"] = [(i / 120.0, 0.5) for i in range(120)]
    fams["collinear-gap"] = [
        (i / 200.0 if i < 60 else 0.7 + i / 500.0, 0.25) for i in range(120)
    ]

    a = rng.random((60, 2)) * 1e-4
    b = rng.random((60, 2)) * 1e-4 + 0.9
    fams["two-clusters"] = np.vstack([a, b])

    ang = 2.0 * np.pi * np.arange(150) / 150.0
    fams["ring"] = np.column_stack([np.cos(ang), np.sin(ang)])
    fams["ring-center"] = np.vstack([fams["ring"], [[0.0, 0.0]]])

    xs, ys = np.meshgrid(np.arange(15) / 15.0, np.arange(15) / 15.0)
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    fams["lattice"] = lattice
    fams["jittered-lattice"] = lattice + rng.normal(0.0, 1e-3, lattice.shape)

    base = rng.random((96, 2))
    far = 50.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8.0)
    fary = 50.0 + 2.0 * np.sin(2.0 * np.pi * np.arange(8) / 8.0)
    fams["square-plus-cocircular"] = np.vstack(
        [base, np.column_stack([far, fary])]
    )

    halo_ang = 2.0 * np.pi * np.arange(40) / 40.0
    fams["cluster-plus-halo"] = np.vstack(
        [
            rng.random((80, 2)) * 1e-3,
            np.column_stack([10.0 * np.cos(halo_ang), 10.0 * np.sin(halo_ang)]),
        ]
    )

    fams["single-column"] = np.column_stack(
        [np.zeros(100), np.sort(rng.random(100))]
    )
    fams["thin-bbox"] = np.column_stack(
        [np.sort(rng.random(100)), rng.random(100) * 1e-9]
    )

    # near-degenerate layouts; each one defeats some simpler way of
    # taking candidates from a float Delaunay triangulation
    g = np.random.default_rng(100)
    fams["tiny-cluster"] = np.unique(
        np.vstack([g.random((200, 2)), 0.4 + 1e-15 * g.random((60, 2))]), axis=0
    )

    fams["ulp-pair"] = np.vstack(
        [
            np.random.default_rng(1).random((100, 2)),
            [[0.5, 0.5], [0.5, np.nextafter(0.5, 1.0)]],
        ]
    )

    ulps = [0.5]
    for _ in range(3):
        ulps.insert(0, np.nextafter(ulps[0], 0.0))
    for _ in range(2):
        ulps.append(np.nextafter(ulps[-1], 1.0))
    ux, uy = np.meshgrid(ulps, ulps)
    fams["ulp-grid"] = np.vstack(
        [np.column_stack([ux.ravel(), uy.ravel()]), rng.random((100, 2))]
    )

    fams["offset-1e8"] = 1e8 + rng.random((300, 2))

    xs, ys = np.meshgrid(np.arange(40) / 40.0, np.arange(40) / 40.0)
    fams["lattice-40"] = np.column_stack([xs.ravel(), ys.ravel()])

    ang = 2.0 * np.pi * np.arange(400) / 400.0
    fams["ring-400-center"] = np.vstack(
        [np.column_stack([np.cos(ang), np.sin(ang)]), [[0.0, 0.0]]]
    )

    fams["cocircular-integers"] = np.array(
        [
            (x, y)
            for x in range(-13, 14)
            for y in range(-13, 14)
            if x * x + y * y in (25, 65, 85, 125, 169)
        ],
        dtype=float,
    )

    fams["clusters-4x100"] = np.vstack(
        [c + 1e-3 * rng.random((100, 2)) for c in rng.random((4, 2))]
        + [rng.random((300, 2))]
    )

    # coordinates whose squares leave the normal range: the incircle terms
    # of degree 4 overflow, then the squared distances themselves overflow
    # or round to subnormals
    fams["lattice-2pow332"] = np.ldexp(lattice, 332)
    uniform50 = np.random.default_rng(2).random((50, 2))
    fams["uniform-50-1e155"] = 1e155 * uniform50
    fams["uniform-50-1e-200"] = 1e-200 * uniform50

    return sorted(fams.items())


# under the raw-double predicates the lune graph need not lie inside the
# disk graph at ulp scale: in "ulp-pair" the reference lune graph keeps
# edge (87, 100), whose disk holds the point one ulp above vertex 100;
# where squared distances overflow, a long pair keeps its lune edge unless
# some point lies within about 1.3e154 of both ends
LUNE_OUTSIDE_DISK = {"tiny-cluster": 5, "ulp-pair": 1, "uniform-50-1e155": 1093}


@pytest.mark.parametrize("name, coords", adversarial_families(), ids=lambda v: v if isinstance(v, str) else "")
def test_fast_builders_match_references(name, coords):
    pts = PointSet(coords)
    fast_disk = gabriel(pts)
    fast_lune = rng_graph(pts)
    assert fast_disk == gabriel_naive(pts)
    assert fast_lune == rng_naive(pts)
    assert len(edge_set(fast_lune) - edge_set(fast_disk)) == LUNE_OUTSIDE_DISK.get(name, 0)


def dense_square():
    # 2,000 points in a 1e-3 square plus 100 uniform points
    rng = np.random.default_rng(0)
    return np.vstack([0.5 + 1e-3 * rng.random((2000, 2)), rng.random((100, 2))])


def ring(n):
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def ring_1000():
    return ring(1000)


def deep_square():
    # 2,000 points in a 1e-9 square plus 100 uniform points: below Qhull's
    # resolution, so the square's candidates come from a re-triangulated hole
    rng = np.random.default_rng(0)
    return np.vstack([0.5 + 1e-9 * rng.random((2000, 2)), rng.random((100, 2))])


@pytest.mark.parametrize("build", [gabriel, rng_graph], ids=lambda f: f.__name__)
@pytest.mark.parametrize("layout", [dense_square, ring_1000, deep_square], ids=lambda f: f.__name__)
def test_builders_bounded_cost(layout, build):
    # a candidate search sized by the global point density goes quadratic
    # on the first two (4.9-28 s, 1.3-4.1 GB resident); the bounds leave
    # five-fold headroom over the cost of the triangulation's candidates
    pts = PointSet(layout())
    t0 = time.perf_counter()
    build(pts)
    elapsed = time.perf_counter() - t0
    tracemalloc.start()
    try:
        build(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.25
    assert peak < 300e6


def test_fast_builders_match_references_uniform():
    for seed in (21, 22, 23):
        pts = uniform_points(seed=seed, n=220)
        assert gabriel(pts) == gabriel_naive(pts)
        assert rng_graph(pts) == rng_naive(pts)


# ---------------------------------------------------------------------------
# cone-nearest graph


def yao_families():
    """Layouts of more than 2048 points, each with a cone spec, on which the
    staged neighbor search must match the exact scan: exact distance ties,
    points on cone edges, clusters far below the bounding box, rows whose
    cones reach far past their neighbors, and overflowing distances."""
    rng = np.random.default_rng(30)
    xs, ys = np.meshgrid(np.arange(50) / 50.0, np.arange(50) / 50.0)
    t = np.arange(2500) / 2500.0
    two = [0.2 + 1e-6 * rng.random((1500, 2)), 0.7 + 1e-6 * rng.random((1500, 2))]
    mixture = [
        c + s * rng.standard_normal((750, 2))
        for c, s in zip(rng.random((4, 2)), [0.01, 0.05, 0.002, 0.1])
    ]
    offset = 1e8 + rng.random((3000, 2))
    clusters = [c + 1e-3 * rng.random((100, 2)) for c in rng.random((16, 2))]
    return [
        ("lattice-50", np.column_stack([xs.ravel(), ys.ravel()]), 8, 0.0),
        ("two-clusters-1e-6", np.vstack(two), 3, 0.3),
        ("ring-3000", ring(3000), 3, 0.0),
        ("collinear-2500", np.column_stack([t, np.full(2500, 0.5)]), 2, 0.0),
        ("diagonal-2500", np.column_stack([t, t]), 2, np.pi / 4.0),
        ("gaussian-mixture", np.vstack(mixture), 5, 0.3),
        ("offset-1e8", offset, 3, 5.9),
        ("clusters-16x100-plus-5000", np.vstack(clusters + [rng.random((5000, 2))]), 2, 0.0),
        ("uniform-3000-1e160", 1e160 * np.random.default_rng(0).random((3000, 2)), 3, 0.0),
    ]


def yao_oracle(pts, spec):
    """Per point and per cone, keep the neighbor minimizing (squared
    distance, index); independent of the production scan order."""
    P = pts.coords
    arcs = set()
    for u in range(pts.n):
        best = {}
        for w in range(pts.n):
            if w == u:
                continue
            c = cone_index(tuple(P[u]), tuple(P[w]), spec)
            d2 = (P[w, 0] - P[u, 0]) ** 2 + (P[w, 1] - P[u, 1]) ** 2
            if c not in best or (d2, w) < best[c]:
                best[c] = (d2, w)
        for d2, w in best.values():
            arcs.add((u, w))
    return arcs


class TestYao:
    def test_tiny_inputs(self):
        spec = ConeSpec(4)
        assert yao(PointSet([]), spec).edge_count == 0
        assert yao(PointSet([(0.0, 0.0)]), spec).edge_count == 0

    def test_requires_cone_spec(self):
        with pytest.raises(ParameterError):
            yao(PointSet([(0.0, 0.0), (1.0, 0.0)]), 4)

    def test_tie_breaks_toward_smaller_index(self):
        # both candidates sit in the first quadrant cone at squared
        # distance exactly 25; the arc must go to index 1
        pts = PointSet([(0.0, 0.0), (3.0, 4.0), (4.0, 3.0)])
        arcs = {(int(a), int(b)) for a, b in yao(pts, ConeSpec(4)).edges}
        assert (0, 1) in arcs
        assert (0, 2) not in arcs

    def test_out_degree_bounded_by_cone_count(self):
        pts = uniform_points(seed=31, n=500)
        for p in (2, 4, 7, 13):
            d = yao(pts, ConeSpec(p))
            assert d.out_degrees().max() <= p
            assert d.edge_count <= p * pts.n

    @pytest.mark.parametrize("p", [2, 3, 4, 7, 12])
    @pytest.mark.parametrize("offset", [0.0, 0.3, 5.9])
    def test_matches_pure_python_oracle(self, p, offset):
        pts = uniform_points(seed=32 + p, n=60)
        spec = ConeSpec(p, offset=offset)
        arcs = {(int(a), int(b)) for a, b in yao(pts, spec).edges}
        assert arcs == yao_oracle(pts, spec)

    @pytest.mark.parametrize("p", [4, 7])
    def test_neighbor_search_path_matches_dense_path(self, p):
        # the staged nearest-neighbor search must give the arcs of the
        # exact scan of every row
        pts = uniform_points(seed=40 + p, n=3000)
        spec = ConeSpec(p)
        dense = np.unique(_yao_dense(pts.coords, spec), axis=0)
        knn = np.unique(_yao_knn(pts.coords, spec), axis=0)
        assert np.array_equal(dense, knn)
        assert yao(pts, spec) == DiGraph(pts.n, dense)

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_distances_match_oracle(self, scale):
        # squared distances overflow to inf; a cone whose points are all at
        # infinite distance still sends its arc, to the smallest index.
        # Taking inf for "no point in the cone" kept 97 and 0 of 184 arcs
        pts = PointSet(scale * np.random.default_rng(0).random((50, 2)))
        spec = ConeSpec(4)
        got = {(int(a), int(b)) for a, b in yao(pts, spec).edges}
        assert got == yao_oracle(pts, spec)

    @pytest.mark.parametrize(
        "name, coords, p, offset", [pytest.param(*f, id=f[0]) for f in yao_families()]
    )
    def test_neighbor_search_matches_dense_on_adversarial_layouts(self, name, coords, p, offset):
        pts = PointSet(coords)
        spec = ConeSpec(p, offset=offset)
        assert yao(pts, spec) == DiGraph(pts.n, _yao_dense(pts.coords, spec))

    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize(
        "name, coords",
        [(k, c) for k, c in adversarial_families() if len(c) <= 300],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_dense_scan_matches_oracle_on_adversarial_layouts(self, name, coords, p):
        # "cluster-plus-halo" at p=8 holds a pair whose direction lies
        # within an ulp of a cone edge, where NumPy's arctan2 and
        # math.atan2 can disagree
        pts = PointSet(coords)
        spec = ConeSpec(p)
        dense = _yao_dense(pts.coords, spec)
        assert {(int(a), int(b)) for a, b in dense} == yao_oracle(pts, spec)
        assert yao(pts, spec) == DiGraph(pts.n, dense)

    @pytest.mark.parametrize(
        "layout, p",
        [(lambda: uniform_points(seed=60, n=30000), 12), (lambda: PointSet(ring(3000)), 8)],
        ids=["uniform-30000", "ring-3000"],
    )
    def test_bounded_cost(self, layout, p):
        # a search that cannot settle a row with an empty cone before
        # scanning every point takes 9 s and 550 MB on the first input; on
        # the ring nearly every row needs the exact scan, so each search
        # stage beyond two only adds cost. Both inputs take 0.6-1.2 s and
        # at most 31 MB, so the bounds leave three-fold headroom or more
        pts = layout()
        spec = ConeSpec(p)
        t0 = time.perf_counter()
        yao(pts, spec)
        elapsed = time.perf_counter() - t0
        tracemalloc.start()
        try:
            yao(pts, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 4.0
        assert peak < 150e6


# ---------------------------------------------------------------------------
# threshold graph


class TestUnitDisk:
    def test_threshold_is_closed(self):
        pts = PointSet([(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)])
        g = unit_disk_graph(pts, 1.0)
        assert edge_set(g) == {(0, 1)}
        g2 = unit_disk_graph(pts, 1.5)
        assert edge_set(g2) == {(0, 1), (1, 2)}

    def test_just_under_threshold_excluded(self):
        pts = PointSet([(0.0, 0.0), (1.0, 0.0)])
        assert unit_disk_graph(pts, 1.0 - 1e-12).edge_count == 0
        assert unit_disk_graph(pts, 1.0).edge_count == 1

    def test_complete_at_large_radius(self):
        pts = uniform_points(seed=51, n=40)
        g = unit_disk_graph(pts, 10.0)
        assert g.edge_count == 40 * 39 // 2

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan, "1", True])
    def test_invalid_radius(self, radius):
        with pytest.raises(ParameterError):
            unit_disk_graph(PointSet([(0.0, 0.0)]), radius)

    def test_matches_brute_force(self):
        pts = uniform_points(seed=52, n=150)
        P = pts.coords
        d = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2))
        iu = np.triu_indices(pts.n, k=1)
        expect = {
            (int(i), int(j))
            for i, j in zip(*iu)
            if d[i, j] <= 0.08
        }
        assert edge_set(unit_disk_graph(pts, 0.08)) == expect


def test_disk_empty_graph_within_generous_threshold():
    # every disk-empty edge survives intersection with a threshold graph
    # whose radius exceeds the pointset diameter
    pts = uniform_points(seed=53, n=200)
    g = gabriel(pts)
    assert intersect(g, unit_disk_graph(pts, 2.0)) == g


# ---------------------------------------------------------------------------
# property-based cross-checks on exact grid coordinates


grid_point = st.tuples(
    st.integers(-64, 64).map(lambda k: k / 64.0),
    st.integers(-64, 64).map(lambda k: k / 64.0),
)

point_lists = st.lists(grid_point, min_size=2, max_size=28, unique=True)


@settings(max_examples=60, deadline=None)
@given(point_lists)
def test_property_disk_empty_matches_reference(coords):
    pts = PointSet(coords)
    assert gabriel(pts) == gabriel_naive(pts)


@settings(max_examples=60, deadline=None)
@given(point_lists)
def test_property_lune_subset_of_disk(coords):
    pts = PointSet(coords)
    assert rng_graph(pts) == rng_naive(pts)
    assert edge_set(rng_graph(pts)) <= edge_set(gabriel(pts))


@settings(max_examples=40, deadline=None)
@given(point_lists, st.integers(2, 9))
def test_property_cone_out_degree(coords, p):
    pts = PointSet(coords)
    d = yao(pts, ConeSpec(p))
    assert d.out_degrees().max() <= p
    # every point with at least one other point sends at least one arc
    assert d.out_degrees().min() >= 1

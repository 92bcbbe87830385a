"""Graph containers and the four proximity-graph builders.

The fast disk-empty and lune-empty builders take their candidate pairs
from a Delaunay triangulation at every input size, and from a cone
search for the points it cannot vouch for, so the adversarial families
here, and the property tests on small grid sets, all compare them
against the quadratic reference builders, which share only the
predicate expressions. The families aim at the places where rounding
could cost a candidate: cocircular points, points Qhull drops as
coplanar, clusters far below the bounding box's scale, flat input,
coordinates many ulps from zero, and coordinates whose squares overflow
or turn subnormal; at each step of the cone search; and at the margins
of the certificate that keeps Gabriel edges with no test: opposite
vertices within ulps of an edge's diametral circle, points an ulp from
an edge's end, and a near-cocircular quadruple that must switch it off.
The property tests also draw from a dense integer grid, where the
vertices opposite a Delaunay edge, tried first as witnesses, often lie
exactly on the edge's circle. The Yao builder's exact scan is checked against an independent
pure-python oracle on the same families, and its staged neighbor search
against the exact scan on layouts large enough to need the search: ties,
points on cone edges, deep clusters, rings and overflowing distances.
The scan of nearby blocks that follows the search is checked on layouts
where a spy shows rows reaching it.
"""

import math
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, cKDTree

from proxdeg import (
    ConeSpec,
    DiGraph,
    Graph,
    ParameterError,
    PointSet,
    Rect,
    Region,
    cone_index,
    gabriel,
    gabriel_naive,
    intersect,
    rng_graph,
    rng_naive,
    sample_uniform,
    trial_generator,
    undirected_view,
    unit_disk_graph,
    yao,
)
from proxdeg import graphs
from proxdeg.graphs import _cone_nearest, _yao_dense, _yao_knn

from conftest import uniform_points


def edge_set(g):
    return {(int(u), int(v)) for u, v in g.edges}


# the most vertices whose pair keys u * n + v fit in int64
MAX_N = 3_037_000_499


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
        # same n and pairs, but an undirected graph is never a directed one
        assert Graph(2, [(0, 1)]) != DiGraph(2, [(0, 1)])
        assert DiGraph(2, [(0, 1)]) != Graph(2, [(0, 1)])

    def test_repr(self):
        assert repr(Graph(4, [(0, 1), (2, 3)])) == "Graph(n=4, edges=2)"
        assert repr(DiGraph(3, [(0, 1), (1, 0), (2, 1)])) == "DiGraph(n=3, arcs=3)"

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_degrees(self, n):
        d = DiGraph(n)
        for deg in (Graph(n).degrees(), d.out_degrees(), d.in_degrees()):
            assert deg.dtype == np.int64
            assert deg.tolist() == [0] * n

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
            (3, [(0, 2**70)]),  # beyond int64: ParameterError, not OverflowError
            (3, [(-(2**70), 0)]),
            (3, [(2.9, 1)]),  # not silently truncated to the edge (1, 2)
            (3, [(True, 2)]),
            (3, [("1", 2)]),
            (3, [(float("nan"), 1)]),
        ],
    )
    def test_invalid_inputs(self, n, edges):
        with pytest.raises(ParameterError):
            Graph(n, edges)

    def test_largest_vertex_count(self):
        g = Graph(MAX_N, [(MAX_N - 1, MAX_N - 2), (2, 1), (MAX_N - 1, 0)])
        assert g.edges.tolist() == [[0, MAX_N - 1], [1, 2], [MAX_N - 2, MAX_N - 1]]

    @pytest.mark.parametrize("n", [MAX_N + 1, 4_000_000_000, 2**40])
    def test_vertex_count_whose_keys_overflow(self, n):
        # keys u * n + v once wrapped here and gave negative endpoints
        with pytest.raises(ParameterError):
            Graph(n, [(n - 1, n - 2), (1, 2)])
        with pytest.raises(ParameterError):
            Graph(n)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_numpy_ints(self, int_type):
        g = Graph(int_type(3), [(int_type(2), 0)])
        assert g == Graph(3, [(0, 2)]) and type(g.n) is int


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
        # built once: the measures of one digraph share it
        assert d.undirected_view() is g

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            DiGraph(2, [(0, 0)])
        with pytest.raises(ParameterError):
            DiGraph(-2)

    def test_largest_vertex_count(self):
        d = DiGraph(MAX_N, [(MAX_N - 1, MAX_N - 2), (MAX_N - 2, MAX_N - 1), (1, 0)])
        assert d.edges.tolist() == [[1, 0], [MAX_N - 2, MAX_N - 1], [MAX_N - 1, MAX_N - 2]]
        with pytest.raises(ParameterError):
            DiGraph(MAX_N + 1, [(MAX_N, MAX_N - 1)])


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

    def test_largest_vertex_count(self):
        top = (MAX_N - 2, MAX_N - 1)
        a = Graph(MAX_N, [top, (0, MAX_N - 1), (1, 2)])
        b = DiGraph(MAX_N, [top[::-1], (2, 1), (0, 1)])
        assert intersect(a, b).edges.tolist() == [[1, 2], list(top)]


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
    # every pair is a candidate, and most long pairs keep their lune, so
    # each is tested against every point
    fams["uniform-300-1e155"] = 1e155 * np.random.default_rng(3).random((300, 2))
    # the allowance's floor of 2**-500 input units dwarfs the span, so every
    # pair's ball holds every point; all squared distances underflow to 0,
    # and every pair is an edge
    fams["uniform-300-1e-300"] = 1e-300 * np.random.default_rng(4).random((300, 2))

    # Gabriel edges certified from the triangulation, with no test: small
    # triangles among uniform points whose vertex w opposite the edge uv
    # lies on uv's diametral circle (exactly, with dyadic coordinates) or
    # within a few ulps of it on either side, where the raw predicate and
    # exact arithmetic can disagree
    g = np.random.default_rng(31)
    s = 2.0 ** -11
    on_circle = [(5, 0), (0, 5), (-5, 0), (0, -5), (4, -3), (-4, 3), (4, 3), (-3, 4)]
    right = [g.random((300, 2))]
    for i in range(40):
        c = g.integers(200, 1800, 2) * s
        flip = g.choice([-1.0, 1.0], 2)
        right.append(np.array([c - (3, 4) * flip * s, c + (3, 4) * flip * s, c + np.array(on_circle[i % 8]) * flip * s]))
    fams["right-triangles"] = np.vstack(right)
    near_right = [g.random((300, 2))]
    for i in range(160):
        u = g.random(2) * 0.8 + 0.1
        a = g.uniform(0, 2 * np.pi)
        v = u + 1e-3 * (1.0 + g.random()) * np.array([np.cos(a), np.sin(a)]) + 1e-9 * g.random(2)
        m = (u + v) / 2.0
        phi = a + g.uniform(0.3, 2.8)
        w = m + np.hypot(*(v - u)) / 2.0 * np.array([np.cos(phi), np.sin(phi)])
        # i % 7 - 3 ulps out from the circle, in each coordinate
        k = i % 7 - 3
        for _ in range(abs(k)):
            w = np.nextafter(w, w + np.sign(k) * (w - m))
        near_right.append(np.array([u, v, w]))
    fams["near-right-triangles"] = np.vstack(near_right)

    # a point one ulp, or 1e-12 of the edge, from an endpoint u of the edge
    # to u's nearest neighbour v, inside the edge's disk
    base = np.random.default_rng(32).random((300, 2))
    nn = cKDTree(base).query(base, k=2)[1][:, 1]
    ends = [np.nextafter(base[i], base[nn[i]]) for i in range(0, 300, 30)]
    ends += [base[i] + 1e-12 * (base[nn[i]] - base[i]) for i in range(15, 300, 30)]
    fams["endpoint-ulp"] = np.vstack([base] + ends)

    # four points within rounding of one circle among 2,000 uniform points:
    # the certificate switches off, and every pair takes the test
    ang = np.sort(np.random.default_rng(33).uniform(0, 2 * np.pi, 4))
    fams["near-cocircular-2000"] = np.vstack(
        [np.random.default_rng(34).random((2000, 2)), 0.5 + 1e-3 * np.column_stack([np.cos(ang), np.sin(ang)])]
    )

    # the cone search for points the triangulation cannot vouch for, at each
    # of its steps: a ring, whose every point is flagged and scans all
    # points; a cluster below Qhull's resolution in a corner of the bounding
    # box, whose empty cones settle by their reach within the box; and a
    # line of dense and sparse runs whose dense end takes the second query
    ang = 2.0 * np.pi * np.arange(600) / 600.0
    fams["ring-600"] = np.column_stack([np.cos(ang), np.sin(ang)])
    g = np.random.default_rng(40)
    fams["corner-cluster"] = np.vstack([g.random((200, 2)), 1e-10 * g.random((100, 2))])
    x = np.concatenate([np.arange(40) * 1e-4, 0.01 + np.arange(1, 261)])
    fams["collinear-dense-sparse"] = np.column_stack([x, np.full(300, 0.25)])

    # seven points within 4e-7 among eight spread ones, from a random search:
    # Qhull folds a triangle of the cluster over, and the incircle test of
    # its edges passes from its own side, so only its orientation makes it
    # a seed
    fams["folded-triangle"] = np.array([
        [0.07445166881200171, 0.04361686597315728], [0.5709710414892739, 0.5233705474307403],
        [0.45404233718211046, 0.6980291195392561], [0.45404214303847124, 0.6980290587592656],
        [0.4540421208753387, 0.6980290240644718], [0.7565716359887389, 0.7328822471044597],
        [0.22042869963949252, 0.637402065443674], [0.45404201581254133, 0.6980289300578387],
        [0.4540420160881501, 0.6980292101712335], [0.7877191926183319, 0.034515292108072804],
        [0.9293100801339447, 0.8633964343239371], [0.45404196525270296, 0.6980290240328676],
        [0.4540420000252816, 0.6980290762087044], [0.42876845478089415, 0.8880985411508135],
        [0.41180529703747426, 0.30763247873879906],
    ])

    return sorted(fams.items())


# under the raw-double predicates the lune graph need not lie inside the
# disk graph at ulp scale: in "ulp-pair" the reference lune graph keeps
# edge (87, 100), whose disk holds the point one ulp above vertex 100;
# where squared distances overflow, a long pair keeps its lune edge unless
# some point lies within about 1.3e154 of both ends
LUNE_OUTSIDE_DISK = {
    "tiny-cluster": 5,
    "ulp-pair": 1,
    "uniform-50-1e155": 1093,
    "uniform-300-1e155": 38369,
    "right-triangles": 0,
    "near-right-triangles": 0,
    "endpoint-ulp": 0,
    "near-cocircular-2000": 0,
}


@pytest.mark.parametrize("name, coords", adversarial_families(), ids=lambda v: v if isinstance(v, str) else "")
def test_fast_builders_match_references(name, coords):
    pts = PointSet(coords)
    fast_disk = gabriel(pts)
    fast_lune = rng_graph(pts)
    # the references, too, raise no warning where squared distances
    # overflow (the 1e155 families)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    # resolution, so the square's points take their candidates from the cone
    # search, and those near its edge scan every point
    rng = np.random.default_rng(0)
    return np.vstack([0.5 + 1e-9 * rng.random((2000, 2)), rng.random((100, 2))])


def clusters_12():
    # 12 clusters of 100 points in 1e-6 squares, each below Qhull's
    # resolution, so that every point takes the cone search
    rng = np.random.default_rng(5)
    return np.vstack([c + 1e-6 * rng.random((100, 2)) for c in rng.random((12, 2))])


def overflowing_300():
    return dict(adversarial_families())["uniform-300-1e155"]


def underflowing_300():
    return dict(adversarial_families())["uniform-300-1e-300"]


@pytest.mark.parametrize("build", [gabriel, rng_graph], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "layout",
    [dense_square, ring_1000, deep_square, clusters_12, overflowing_300, underflowing_300],
    ids=lambda f: f.__name__,
)
def test_builders_bounded_cost(layout, build):
    # a candidate search sized by the global point density goes quadratic
    # on the first two (4.9-28 s, 1.3-4.1 GB resident); the bounds leave
    # five-fold headroom over the cost of the triangulation's candidates.
    # Fetching the ball of every point for each overflowing pair as a list
    # took 3.3 s and 1.0 GB traced for rng_graph on the fourth, and 2.4-3.4 s
    # and 1.4-1.6 GB on the last, where every ball holds every point
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


@pytest.fixture
def query_rows(monkeypatch):
    """Row counts of the kd-tree queries the graph builders make."""
    rows = []

    class Spy(cKDTree):
        def query(self, x, *args, **kwargs):
            rows.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(graphs, "cKDTree", Spy)
    return rows


def delaunay_edge_count(pts):
    return len(Delaunay(pts.coords).vertex_neighbor_vertices[1]) // 2


def test_opposite_vertices_spare_nearest_queries(query_rows):
    # the vertices opposite a Delaunay edge kill every non-Gabriel edge of
    # uniform input but a few, about a third of the edges, and the
    # triangulation certifies nearly every Gabriel edge, so the query sees
    # only hull edges and a few more (0-8 rows of about 1,780 edges on ten
    # seeds at 600 points; 64-66% of the edges before the certificate)
    pts = uniform_points(seed=24, n=600)
    g = gabriel(pts)
    assert 0 < sum(query_rows) < 0.75 * delaunay_edge_count(pts)
    assert g == gabriel_naive(pts)


def test_certificate_spares_nearest_queries(query_rows):
    # every shared Delaunay edge of uniform input passes the incircle test
    # strictly, so the certificate holds and only the Gabriel edges it
    # cannot settle, mostly on the hull, reach the query (1-6 rows of about
    # 5,975 edges on ten seeds)
    pts = uniform_points(seed=25, n=2000)
    g = gabriel(pts)
    assert sum(query_rows) < 0.02 * delaunay_edge_count(pts)
    assert g == gabriel_naive(pts)


def test_points_inside_a_seed_circle_are_searched(monkeypatch):
    # Qhull errs only below its resolution, where nearly every point is a
    # seed's vertex; a valid triangulation two edge flips away from Delaunay
    # stands in for one that errs elsewhere. Its Gabriel edge (1, 5) is no
    # edge of it, neither end is a seed's vertex, and 5 lies strictly inside
    # a seed's circumcircle
    P = np.array([
        [0.55, 0.31], [0.48, 0.16], [0.63, 0.49], [0.85, 0.42], [0.83, 0.01], [0.17, 0.34],
        [0.75, 0.44], [0.51, 0.04], [0.85, 0.19], [0.83, 0.03], [0.14, 0.23], [0.5, 0.09],
    ])
    T = np.array([
        [10, 1, 0], [3, 6, 8], [6, 3, 2], [6, 2, 10], [2, 5, 10], [10, 0, 6], [6, 0, 8], [0, 11, 8],
        [11, 0, 1], [11, 1, 10], [9, 4, 8], [11, 9, 8], [7, 11, 10], [9, 11, 7], [7, 4, 9],
    ])
    # the triangle across from each vertex, -1 on the hull
    nb = np.array([
        [8, 5, 9], [6, -1, 2], [-1, 3, 1], [4, 5, 2], [-1, 3, -1], [6, 3, 0], [7, 1, 5], [11, 6, 8],
        [0, 9, 7], [0, 12, 8], [-1, 11, 14], [10, 7, 13], [9, -1, 13], [12, 14, 11], [10, 13, -1],
    ])

    def delaunay(X):
        # X holds the rows of P, shifted, in the kd-tree's leaf order
        at = {row: i for i, row in enumerate(map(tuple, X.tolist()))}
        pos = np.array([at[row] for row in map(tuple, (P - P.min(axis=0)).tolist())])
        return types.SimpleNamespace(simplices=pos[T], neighbors=nb)

    monkeypatch.setattr(graphs, "Delaunay", delaunay)
    pts = PointSet(P)
    assert (1, 5) in edge_set(gabriel_naive(pts))
    assert gabriel(pts) == gabriel_naive(pts)
    assert rng_graph(pts) == rng_naive(pts)


@pytest.mark.parametrize(
    "name",
    ["clusters-4x100", "corner-cluster", "near-right-triangles", "offset-1e8", "ring-center", "tiny-cluster", "uniform"],
)
def test_search_alone_covers_every_edge(name):
    # run on every point with no triangulation, whose edges would cover most
    # of its misses elsewhere, the cone search gives every edge of both
    # references among its candidates
    if name == "uniform":
        pts = uniform_points(seed=26, n=1000)
    else:
        pts = PointSet(dict(adversarial_families())[name])
    e, Q, tree = graphs._scaled_tree(pts.coords)
    slack = graphs._ulp_slack(Q, math.ldexp(1.0, graphs._FLOOR_EXP - e))
    cand = graphs._search_pairs(Q, tree, np.ones(pts.n, dtype=bool), slack)
    pairs = set(map(tuple, np.sort(cand[:, :2], axis=1).tolist()))
    assert edge_set(gabriel_naive(pts)) <= pairs
    assert edge_set(rng_naive(pts)) <= pairs


@pytest.fixture
def search_steps(monkeypatch):
    """Rows per step of the Gabriel/RNG cone search, keyed by the points each
    row is paired with: one more than the step's nearest points, or n where
    the step scans every point."""
    steps = {}
    cone_nearest = graphs._cone_nearest

    def spy(P, rows, slot, cols, spec):
        if spec is graphs._SEARCH:
            k = len(cols) // len(rows)
            steps[k] = steps.get(k, 0) + len(rows)
        return cone_nearest(P, rows, slot, cols, spec)

    monkeypatch.setattr(graphs, "_cone_nearest", spy)
    return steps


@pytest.mark.parametrize(
    "name, reached",
    [("ring-600", (17, 65, 600)), ("corner-cluster", (17, 65, 300)), ("collinear-dense-sparse", (17, 65))],
)
def test_search_reaches_every_step(name, reached, search_steps):
    # the first query, the second and the scan of every point each see rows
    # on the families that aim at them, which the references check
    gabriel(PointSet(dict(adversarial_families())[name]))
    assert all(search_steps.get(k, 0) > 0 for k in reached)


@pytest.mark.parametrize("seed, n", [(24, 600), (25, 2000)])
def test_uniform_input_takes_no_search(seed, n, monkeypatch):
    # the triangulation vouches for every point of uniform input, so the
    # cone search sees no row and the certificate holds
    rows = []
    search = graphs._search_pairs

    def spy(P, tree, flagged, slack):
        rows.append(int(flagged.sum()))
        return search(P, tree, flagged, slack)

    monkeypatch.setattr(graphs, "_search_pairs", spy)
    pts = uniform_points(seed=seed, n=n)
    e, Q, tree = graphs._scaled_tree(pts.coords)
    sure = graphs._candidate_pairs(Q, tree, math.ldexp(1.0, graphs._FLOOR_EXP - e), certify=True)[1]
    assert sure is not None and sure.any()
    gabriel(pts)
    rng_graph(pts)
    assert rows == []


def test_fast_builders_match_references_uniform():
    for seed in (21, 22, 23):
        pts = uniform_points(seed=seed, n=220)
        assert gabriel(pts) == gabriel_naive(pts)
        assert rng_graph(pts) == rng_naive(pts)


# ---------------------------------------------------------------------------
# cone-nearest graph


def dense_square_1e4():
    # 5,000 points in a 1e-4 square plus 2,000 uniform points: groups that
    # span the square and the points around it take a radius for their
    # mean density, whose balls hold the whole square
    rng = np.random.default_rng(31)
    return np.vstack([0.5 + 1e-4 * rng.random((5000, 2)), rng.random((2000, 2))])


def uniform_plus_far_point():
    # 10,000 uniform points plus one at (50, 50): the far point's group has
    # a box of about 1,250 units of area and a radius to match
    return np.vstack([np.random.default_rng(32).random((10000, 2)), [(50.0, 50.0)]])


def yao_families():
    """Layouts of more than 2048 points, each with a cone spec, on which the
    staged neighbor search must match the exact scan: exact distance ties,
    points on cone edges, clusters far below the bounding box, rows whose
    cones reach far past their neighbors, overflowing distances, and groups
    whose join radius would pair most rows with most points, which the
    join's pair-count guard sends on to the next stage."""
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
        ("square-1e-4-5000-plus-2000-p4", dense_square_1e4(), 4, 0.0),
        ("square-1e-4-5000-plus-2000-p8", dense_square_1e4(), 8, 0.0),
        ("uniform-10000-plus-far-point-p4", uniform_plus_far_point(), 4, 0.0),
        ("uniform-10000-plus-far-point-p8", uniform_plus_far_point(), 8, 0.0),
    ]


def spy_block_scan(monkeypatch):
    """The number of rows each call of the block scan gets, as a list that
    fills while the test runs."""
    seen = []
    scan = graphs._yao_blocks

    def spy(P, spec, tree, cuts, rows, heads, bound):
        seen.append(len(rows))
        return scan(P, spec, tree, cuts, rows, heads, bound)

    monkeypatch.setattr(graphs, "_yao_blocks", spy)
    return seen


@pytest.fixture
def join_pairs(monkeypatch):
    """(rows, pairs) of each fixed-radius join of the Yao search: the
    points of the tree that joins, and the pairs it reports."""
    pairs = []

    class Spy(cKDTree):
        def sparse_distance_matrix(self, *args, **kwargs):
            out = super().sparse_distance_matrix(*args, **kwargs)
            pairs.append((self.n, len(out)))
            return out

    monkeypatch.setattr(graphs, "cKDTree", Spy)
    return pairs


def box_edges(m, inner, seed):
    """``m - 1`` dyadic points on each edge of the unit square, none on a
    corner, plus ``inner`` uniform points inside."""
    t = np.arange(1, m) / m
    zeros, ones = np.zeros_like(t), np.ones_like(t)
    edges = np.column_stack([
        np.concatenate([t, t, zeros, ones]), np.concatenate([zeros, ones, t, t]),
    ])
    return np.vstack([edges, np.random.default_rng(seed).random((inner, 2))])


def block_scan_families():
    """Layouts, each with a cone offset, whose rows reach the block scan:
    rows near an empty part of the bounding box (the rotated square's
    corners, the L's notch, the ring's outside, points on the box's edges),
    exact ties (a lattice), squared distances that overflow or underflow
    and so settle nothing, and clusters far below the box."""
    rng = np.random.default_rng(90)
    L = Region.rect_union([Rect(0.0, 0.0, 1.0, 0.5), Rect(0.0, 0.5, 0.5, 1.0)])
    xs, ys = np.meshgrid(np.arange(40) / 40.0, np.arange(40) / 40.0)
    uniform = rng.random((1000, 2))
    clusters = [c + 1e-12 * rng.random((200, 2)) for c in rng.random((5, 2))]
    return [
        ("rotated-square-3000", sample_uniform(Region.rotated_square(), 3000, trial_generator(91, 0)).coords, 0.0),
        ("L-shape-3000", sample_uniform(L, 3000, trial_generator(92, 0)).coords, 0.0),
        ("L-shape-3000-offset", sample_uniform(L, 3000, trial_generator(93, 0)).coords, 2.5),
        ("ring-3000", ring(3000), 0.0),
        ("box-edges", box_edges(256, 1000, 96), 0.0),
        ("lattice-40", np.column_stack([xs.ravel(), ys.ravel()]), 0.0),
        ("uniform-1000-1e155", 1e155 * uniform, 0.0),
        ("uniform-1000-1e-300", 1e-300 * uniform, 1.0),
        ("clusters-5x200-1e-12", np.vstack(clusters + [rng.random((500, 2))]), 0.0),
    ]


def axis_families():
    """Layouts whose points share a coordinate with many others, each with
    the cone specs to test: rows whose blocks and bounding box lie on an
    axis line through them. A row and a column, a row at y = +0 and -0
    mixed, a row among uniform points and four columns, at 300 points for
    every p from 2 to 8 and offsets on and off the axes, and at 2,600."""
    fams = []
    for n in (300, 2600):
        rng = np.random.default_rng(n)
        t = rng.random(n)
        zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        if n == 300:
            specs = [(p, a) for p in range(2, 9) for a in (0.0, np.pi / 4.0, np.pi / 2.0, 1.0)]
        else:
            specs = [(2, np.pi / 2.0), (8, 1.0)]
        fams += [
            (f"row-{n}", np.column_stack([t, np.full(n, 0.5)]), specs),
            (f"column-{n}", np.column_stack([np.full(n, 0.5), t]), specs),
            (f"signed-zero-row-{n}", np.column_stack([t - 0.5, zeros]), specs),
            (f"row-plus-uniform-{n}", np.vstack([np.column_stack([t, np.full(n, 0.5)]), rng.random((n // 4, 2))]), specs),
            (f"four-columns-{n}", np.column_stack([np.repeat([0.2, 0.4, 0.6, 0.8], n // 4), t]), specs),
        ]
    return fams


# (left, mid, right) point counts of layouts whose median column splits
# off a block larger than sqrt(8n) points
TIED_SPLITS = [(30, 40, 30), (31, 50, 35)]


def tied_split(left, mid, right):
    """``left`` and ``right`` uniform points on either side of a column of
    ``mid`` points at x = 0.5, in the unit square."""
    rng = np.random.default_rng(0)
    return np.vstack([
        np.column_stack([0.5 * rng.random(left), rng.random(left)]),
        np.column_stack([np.full(mid, 0.5), rng.random(mid)]),
        np.column_stack([1.0 - 0.5 * rng.random(right), rng.random(right)]),
    ])


def tree_ranges(tree):
    """(start, stop, is a leaf) of every node of a kd-tree, its points
    [start, stop) in leaf order."""
    out, stack = set(), [tree.tree]
    while stack:
        node = stack.pop()
        out.add((node.start_idx, node.end_idx, node.lesser is None))
        if node.lesser is not None:
            stack += [node.lesser, node.greater]
    return out


def range_boxes(X, ranges):
    """The boxes of the points X[a:b] for each (a, b) of ``ranges``, rows
    lo_x, lo_y, hi_x, hi_y."""
    return np.array([np.concatenate([X[a:b].min(axis=0), X[a:b].max(axis=0)]) for a, b in ranges]).T


def yao_oracle(pts, spec):
    """Per point and per cone, keep the neighbor minimizing (squared
    distance, index); independent of the production scan order. The
    squares are raw doubles, as the contract says, so far pairs may
    overflow to inf on purpose."""
    P = pts.coords
    arcs = set()
    with np.errstate(over="ignore"):
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

    def test_cone_winner_ignores_candidate_order(self):
        # from point 0: three points tie at squared distance 25 in the first
        # cone, and the third cone's points all lie at infinite squared
        # distance; each cone goes to its smallest index, whatever the order
        # of the candidate columns
        P = np.array([
            (0.0, 0.0), (4.0, 3.0), (3.0, 4.0), (5.0, 0.0),
            (-1e155, -2e155), (-2e155, -1e155), (-1.5e155, -1.5e155),
        ])
        spec = ConeSpec(4)
        rows = np.arange(len(P))
        slot = np.repeat(rows, len(P))
        cols = np.tile(rows, len(P))
        with np.errstate(over="ignore"):
            heads, hd2 = _cone_nearest(P, rows, slot, cols, spec)[:2]
            shuffled = np.random.default_rng(0).permutation(len(cols))
            for order in (np.arange(cols.size)[::-1], shuffled):
                got_heads, got_hd2 = _cone_nearest(P, rows, slot[order], cols[order], spec)[:2]
                assert np.array_equal(got_heads, heads)
                assert np.array_equal(got_hd2, hd2)
            # repeated pairs change nothing
            twice = np.concatenate([shuffled, shuffled])
            got_heads, got_hd2 = _cone_nearest(P, rows, slot[twice], cols[twice], spec)[:2]
            assert np.array_equal(got_heads, heads)
            assert np.array_equal(got_hd2, hd2)
        assert heads[0].tolist() == [1, -1, 4, -1]
        assert hd2[0].tolist() == [25.0, np.inf, np.inf, np.inf]

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

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_neighbor_search_matches_dense_on_small_inputs(self, p, monkeypatch):
        # the rows the join leaves query their 16p + 64 nearest points,
        # capped at n - 1: up to 16p + 65 points that stage sees every point
        # and settles every row. Beyond, up to 16p + 70, it sees all but a
        # few points, and the rows still settle, so the block scan gets none
        scanned = spy_block_scan(monkeypatch)
        spec = ConeSpec(p)
        for n in range(2, 16 * p + 71):
            pts = uniform_points(seed=70 + n, n=n)
            assert yao(pts, spec) == DiGraph(n, _yao_dense(pts.coords, spec)), n
        assert sum(scanned) == 0

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
    def test_neighbor_search_matches_dense_on_adversarial_layouts(self, name, coords, p, offset, join_pairs):
        # the pair-count guard bounds each join's pairs by _JOIN_LOAD * k
        # per row, k = 4p + 16, and so all of them by _JOIN_LOAD * k * n.
        # Without it, one group paired about 3,800 points per row on the
        # square and 9,900, nearly all, on the far point's layout (145-159
        # MB traced there; 25 MB with the guard)
        pts = PointSet(coords)
        spec = ConeSpec(p, offset=offset)
        assert yao(pts, spec) == DiGraph(pts.n, _yao_dense(pts.coords, spec))
        load = graphs._JOIN_LOAD * (4 * p + 16)
        assert all(m <= load * rows for rows, m in join_pairs)

    def test_join_spares_nearest_queries(self, query_rows):
        # the join settles the rows of uniform input but a few near the
        # hull or with a cone just past the join's radius, and only those
        # query their nearest points: 4.1-6.3% of the rows on ten seeds,
        # against all of them for a first stage of nearest-point queries
        pts = uniform_points(seed=33, n=3000)
        spec = ConeSpec(8)
        got = yao(pts, spec)
        assert sum(query_rows) < 0.1 * pts.n
        assert got == DiGraph(pts.n, _yao_dense(pts.coords, spec))

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

    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize(
        "name, coords, offset", [pytest.param(*f, id=f[0]) for f in block_scan_families()]
    )
    def test_block_scan_matches_dense(self, name, coords, offset, p, monkeypatch):
        # the staged search leaves rows on every one of these layouts, and
        # the scan of nearby blocks must give the exact scan's arcs
        scanned = spy_block_scan(monkeypatch)
        pts = PointSet(coords)
        spec = ConeSpec(p, offset=offset)
        assert yao(pts, spec) == DiGraph(pts.n, _yao_dense(pts.coords, spec))
        assert sum(scanned) > 0

    @pytest.mark.parametrize("p", [4, 8])
    @pytest.mark.parametrize(
        "name, coords, offset",
        [
            ("ring-400", ring(400), 0.3),
            ("box-edges-400", box_edges(64, 148, 97), 0.0),
            ("uniform-400-1e155", 1e155 * np.random.default_rng(94).random((400, 2)), 0.3),
            ("uniform-400-1e-300", 1e-300 * np.random.default_rng(95).random((400, 2)), 0.3),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_block_scan_matches_oracle(self, name, coords, offset, p, monkeypatch):
        scanned = spy_block_scan(monkeypatch)
        pts = PointSet(coords)
        spec = ConeSpec(p, offset=offset)
        assert {(int(a), int(b)) for a, b in yao(pts, spec).edges} == yao_oracle(pts, spec)
        assert sum(scanned) > 0

    @pytest.mark.parametrize("p, left, mid, right", [(2, *TIED_SPLITS[0]), (3, *TIED_SPLITS[1])])
    def test_block_scan_small_tree_with_tied_split(self, p, left, mid, right, monkeypatch):
        # a column of points on the median splits off the ``left`` points
        # as one block of more than sqrt(8n) points; grouping by sqrt(8n)
        # alone left that block outside every group and out of the scan.
        # At 1e-300 no squared distance settles a cone, so every row pends
        scanned = spy_block_scan(monkeypatch)
        pts = PointSet(1e-300 * tied_split(left, mid, right))
        spec = ConeSpec(p)
        got = yao(pts, spec)
        assert got == DiGraph(pts.n, _yao_dense(pts.coords, spec))
        assert {(int(a), int(b)) for a, b in got.edges} == yao_oracle(pts, spec)
        assert sum(scanned) == pts.n

    @pytest.mark.parametrize(
        "name, coords, specs", [pytest.param(*f, id=f[0]) for f in axis_families()]
    )
    def test_axis_layouts_match_dense(self, name, coords, specs):
        # a box on an axis line through a row meets only the cones of the
        # axis directions, so an empty cone of a row on a line settles from
        # the bounding box's reach, whose corners lie on that line
        pts = PointSet(coords)
        for p, offset in specs:
            spec = ConeSpec(p, offset=offset)
            assert yao(pts, spec) == DiGraph(pts.n, _yao_dense(pts.coords, spec)), (p, offset)

    @pytest.mark.parametrize(
        "n, cases",
        [(n, [(far, p) for far in (1e300, 1e160, 1e100, 1e20) for p in (2, 4, 8)]) for n in (20, 100, 500)]
        + [(3000, [(1e300, 2), (1e20, 8)])],
        ids=["20", "100", "500", "3000"],
    )
    def test_mixed_scales_match_dense(self, n, cases):
        # n uniform points times 1e-300 and one far point. Scaled by the
        # power of two that brings the far point near 1, the tiny points
        # flush to 0 when the far point is at 1e100 or more, and the kd-tree
        # holds them in one leaf, larger than a group; grouping only
        # subtrees of at most max(sqrt(8n), 32) points left that leaf out of
        # every group and raised IndexError from n = 100 on. With the far
        # point at 1e20 they turn subnormal. Every row of the leaf scans all
        # of it, about 0.9 s at 3,000 points, so that size takes two cases
        tiny = 1e-300 * np.random.default_rng(n).random((n, 2))
        for far, p in cases:
            pts = PointSet(np.vstack([tiny, [(far, far)]]))
            spec = ConeSpec(p)
            assert yao(pts, spec) == DiGraph(pts.n, _yao_dense(pts.coords, spec)), (far, p)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 3.7e-320, 1e300])
    def test_leaf_layout(self, scale):
        # uniform points at every n from 2 to 300 and the tied splits: the
        # blocks partition the leaf order, each a leaf or a subtree of at
        # most 32 points; the groups partition the blocks, each a subtree of
        # at most max(sqrt(8n), 32) points; a block's box is the min and max
        # of its points, a group's the union of its blocks' boxes, and
        # scaled by 2**-e both are the boxes of Q, bit for bit
        layouts = [np.random.default_rng(n).random((n, 2)) for n in range(2, 301)]
        layouts += [tied_split(*s) for s in TIED_SPLITS]
        for coords in layouts:
            P = scale * coords
            n = len(P)
            e, Q, tree = graphs._scaled_tree(P)
            first, stop, gfirst, gstop, box, gbox = graphs._leaf_cuts(P, tree)
            assert first[0] == 0 and stop[-1] == n and np.array_equal(first[1:], stop[:-1])
            assert gfirst[0] == 0 and gstop[-1] == len(first) and np.array_equal(gfirst[1:], gstop[:-1])
            assert (first < stop).all() and (gfirst < gstop).all()
            nodes = tree_ranges(tree)
            blocks = list(zip(first, stop))
            groups = [(first[a], stop[b - 1]) for a, b in zip(gfirst, gstop)]
            for a, b in blocks:
                assert (a, b, True) in nodes or ((a, b, False) in nodes and b - a <= 32)
            for a, b in groups:
                assert ((a, b, True) in nodes or (a, b, False) in nodes) and b - a <= max(math.sqrt(8.0 * n), 32)
            union = [np.concatenate([box[:2, a:b].min(axis=1), box[2:, a:b].max(axis=1)]) for a, b in zip(gfirst, gstop)]
            assert np.array_equal(gbox, np.array(union).T)
            assert np.array_equal(box, range_boxes(P[tree.indices], blocks))
            assert np.array_equal(np.ldexp(box, -e), range_boxes(Q[tree.indices], blocks))
            assert np.array_equal(np.ldexp(gbox, -e), range_boxes(Q[tree.indices], groups))

    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 13])
    @pytest.mark.parametrize("offset", [0.0, np.pi / 4.0, 2.5])
    def test_cone_reach_covers_the_box(self, p, offset):
        # every point of the bounding box that cone_index puts in cone c,
        # probed on cone edges, box corners and box edges, lies within the
        # row's reach[c] in raw squared distance
        spec = ConeSpec(p, offset=offset)
        rng = np.random.default_rng(p)
        for _ in range(12):
            lo = rng.uniform(-1.0, 1.0, 2)
            hi = lo + 10.0 ** rng.uniform(-3.0, 1.0, 2)
            box = np.concatenate([lo, hi])
            corners = [(lo[0], lo[1]), (hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])]
            P = np.vstack([lo + (hi - lo) * rng.random((6, 2)), corners[1:3], [(lo[0], 0.5 * (lo[1] + hi[1]))]])
            reach = graphs._cone_reach(P, np.arange(len(P)), spec, box)
            assert reach.shape == (len(P), p)
            for u, bound in zip(P, reach):
                probes = list(corners)
                t = rng.random(4)
                probes += [(lo[0] + t[0] * (hi[0] - lo[0]), lo[1]), (lo[0] + t[1] * (hi[0] - lo[0]), hi[1])]
                probes += [(lo[0], lo[1] + t[2] * (hi[1] - lo[1])), (hi[0], lo[1] + t[3] * (hi[1] - lo[1]))]
                for a in offset + spec.theta * np.arange(p):
                    d = np.array([math.cos(a), math.sin(a)])
                    with np.errstate(divide="ignore", invalid="ignore"):
                        exit_t = np.where(d > 0.0, hi - u, lo - u) / d
                    exit_t = exit_t[exit_t >= 0.0].min()
                    for s in (0.5, 1.0):
                        probes.append(tuple(np.clip(u + s * exit_t * d, lo, hi)))
                for w in probes:
                    if w == tuple(u):
                        continue
                    c = cone_index(tuple(u), w, spec) - 1
                    dx, dy = w[0] - u[0], w[1] - u[1]
                    assert dx * dx + dy * dy <= bound[c]
        assert graphs._cone_reach(P, np.arange(0), spec, box).shape == (0, p)

    @pytest.mark.parametrize(
        "layout, p",
        [
            (lambda: uniform_points(seed=60, n=30000), 12),
            (lambda: PointSet(ring(3000)), 8),
            (lambda: PointSet(ring(10000)), 8),
            (lambda: PointSet(np.column_stack([np.arange(10000) / 10000.0, np.full(10000, 0.5)])), 4),
        ],
        ids=["uniform-30000", "ring-3000", "ring-10000", "row-10000"],
    )
    def test_bounded_cost(self, layout, p):
        # a search that cannot settle a row with an empty cone before
        # scanning every point takes 9 s and 550 MB on the first input; on
        # the rings every row needs the block scan, so each search stage
        # beyond two only adds cost. Scanning all points for those rows
        # takes 3.6-7.5 s on the larger ring; the block scan takes 1.1-1.5 s
        # there and the others 0.4-1.2 s, all at most 31 MB, so the bounds
        # leave about three-fold headroom or more. On the row of points the
        # empty cones settle only when the row's bounding box, whose
        # corners lie on the row, meets just the cones of the axis
        # directions; otherwise every row scans every point on its side,
        # 12 s in all
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
# working set of the builders


def batch_layouts():
    """Layouts that span several batches and chunks of the pair and row
    kernels at their default sizes."""
    rng = np.random.default_rng(40)
    clusters = [c + 1e-3 * rng.random((100, 2)) for c in rng.random((16, 2))]
    t = np.arange(1200) / 1200.0
    return {
        "uniform-6000": rng.random((6000, 2)),
        "clusters-16x100-plus-2000": np.vstack(clusters + [rng.random((2000, 2))]),
        "ring-500": ring(500),
        "collinear-1200": np.column_stack([t, np.full(1200, 0.5)]),
    }


@pytest.mark.parametrize("name", list(batch_layouts()))
def test_edges_do_not_depend_on_batch_size(name, monkeypatch):
    # every kernel decides each row or pair on its own, so the batch and
    # chunk sizes set only the cost. At 2**8 most batches hold one row
    pts = PointSet(batch_layouts()[name])
    builds = [gabriel, rng_graph, lambda q: yao(q, ConeSpec(4)), lambda q: yao(q, ConeSpec(8))]
    want = [build(pts) for build in builds]
    for size in (2 ** 8, 2 ** 20):
        monkeypatch.setattr(graphs, "_CHUNK", size)
        monkeypatch.setattr(graphs, "_BLOCK", size)
        assert [build(pts) for build in builds] == want, size


def traced_peak(build, pts):
    tracemalloc.start()
    try:
        build(pts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [lambda q: yao(q, ConeSpec(8)), gabriel], ids=["yao-8", "gabriel"])
def test_peak_memory_is_linear_in_n(build):
    # the pair and row kernels work in batches of a fixed size, so the peak
    # is set by arrays that grow with n: 4.6-5.6 MiB at 10,000 uniform
    # points, 330-590 bytes per point at both sizes. Batches of 2**18 pairs
    # and more, each with about ten pair-sized temporaries, took Yao p=8 to
    # 21.6 MiB at 10,000 points, 2,270 bytes per point there against 450 at
    # 100,000, and gabriel's row chunks took it to 10.3 MiB
    small = traced_peak(build, uniform_points(seed=61, n=10 ** 4))
    large = traced_peak(build, uniform_points(seed=61, n=10 ** 5))
    assert small < 8e6
    assert 0.6 < (large / 10) / small < 1.25


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

    @pytest.mark.parametrize("radius", [np.float32(0.25), np.int64(1)])
    def test_numpy_radius(self, radius):
        pts = uniform_points(seed=53, n=60)
        assert unit_disk_graph(pts, radius) == unit_disk_graph(pts, float(radius))

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

# up to 48 points of an 8 x 8 integer grid: right angles put a triangle's third vertex
# exactly on the diametral circle of its hypotenuse, and squares and other
# cocircular quadruples abound, so the strict predicates decide the
# opposite-vertex test
dense_grid_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=48, unique=True
).map(lambda c: [(float(x), float(y)) for x, y in c])


@settings(max_examples=60, deadline=None)
@given(point_lists | dense_grid_lists)
def test_property_disk_empty_matches_reference(coords):
    pts = PointSet(coords)
    assert gabriel(pts) == gabriel_naive(pts)


@settings(max_examples=60, deadline=None)
@given(point_lists | dense_grid_lists)
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

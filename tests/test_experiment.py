"""Sampling, measures, the Monte Carlo driver and the closed forms."""

import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import proxdeg
from proxdeg import (
    ConeSpec,
    DiGraph,
    DisconnectedGraphError,
    ExperimentConfig,
    Graph,
    GraphKind,
    ParameterError,
    PointSet,
    Rect,
    Region,
    TrialError,
    TrialResult,
    TrialSummary,
    chernoff_tail,
    degree_histogram,
    gabriel,
    harmonic,
    max_degree,
    max_edge_length,
    max_out_degree,
    rng_graph,
    run_trials,
    sample_uniform,
    stretch_details,
    stretch_factor,
    theoretical_k,
    trial_generator,
    undirected_view,
    yao,
)
from proxdeg import experiment

from conftest import die_in_worker, uniform_points, unpicklable_result

L_SHAPE = [Rect(0.0, 0.0, 1.0, 0.5), Rect(0.0, 0.5, 0.5, 1.0)]


# ---------------------------------------------------------------------------
# randomness contract


class TestTrialGenerator:
    def test_replay_is_exact(self):
        a = trial_generator(123, 7).random(16)
        b = trial_generator(123, 7).random(16)
        assert np.array_equal(a, b)

    def test_trials_have_distinct_streams(self):
        a = trial_generator(123, 0).random(16)
        b = trial_generator(123, 1).random(16)
        assert not np.array_equal(a, b)

    def test_seeds_have_distinct_streams(self):
        a = trial_generator(0, 0).random(16)
        b = trial_generator(1, 0).random(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (0.5, 0), (0, True)])
    def test_invalid_arguments(self, seed, trial):
        with pytest.raises(ParameterError):
            trial_generator(seed, trial)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_numpy_ints_give_the_same_stream(self, int_type):
        a = trial_generator(int_type(1), int_type(0)).random(16)
        assert np.array_equal(a, trial_generator(1, 0).random(16))


class TestSampleUniform:
    def test_zero_points(self):
        pts = sample_uniform(Region.unit_square(), 0, trial_generator(1, 0))
        assert pts.n == 0

    def test_deterministic(self):
        a = sample_uniform(Region.unit_square(), 50, trial_generator(5, 2))
        b = sample_uniform(Region.unit_square(), 50, trial_generator(5, 2))
        assert np.array_equal(a.coords, b.coords)

    @pytest.mark.parametrize(
        "region",
        [
            Region.unit_square(),
            Region.rotated_square(),
            Region.rect_union(L_SHAPE),
        ],
        ids=["unit-square", "rotated-square", "rect-union"],
    )
    def test_samples_lie_in_region(self, region):
        pts = sample_uniform(region, 2000, trial_generator(6, 0))
        assert pts.n == 2000
        assert region.contains_mask(pts.coords).all()

    def test_rect_union_weights_by_area(self):
        # the L-shape's lower rectangle has twice the area of the upper
        pts = sample_uniform(Region.rect_union(L_SHAPE), 30_000, trial_generator(7, 0))
        frac_lower = float((pts.coords[:, 1] < 0.5).mean())
        assert abs(frac_lower - 2.0 / 3.0) < 0.015

    def test_rotated_square_is_centered(self):
        pts = sample_uniform(Region.rotated_square(), 100_000, trial_generator(8, 0))
        assert abs(pts.coords[:, 0].mean() - 0.5) < 0.005
        assert abs(pts.coords[:, 1].mean() - 0.5) < 0.005

    def test_meta_is_attached(self):
        pts = sample_uniform(
            Region.unit_square(), 3, trial_generator(9, 0), meta={"tag": 4}
        )
        assert pts.meta == {"tag": 4}

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            sample_uniform("unit-square", 5, trial_generator(1, 0))
        with pytest.raises(ParameterError):
            sample_uniform(Region.unit_square(), -1, trial_generator(1, 0))


# ---------------------------------------------------------------------------
# closed forms


class TestTheoreticalK:
    def test_pinned_values(self):
        assert theoretical_k(16) == pytest.approx(2.7188068070511737, rel=1e-15)
        assert theoretical_k(10**6) == pytest.approx(5.261464353591485, rel=1e-15)

    def test_scale_constant(self):
        assert theoretical_k(10**6, c=2.0) == pytest.approx(
            2.0 * theoretical_k(10**6), rel=1e-15
        )
        assert theoretical_k(100, c=0.0) == 0.0

    def test_monotone_in_n(self):
        vals = [theoretical_k(n) for n in (16, 100, 10**4, 10**8)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("n", [15, 2, 0, -1, 16.0, True])
    def test_rejects_small_n(self, n):
        with pytest.raises(ParameterError):
            theoretical_k(n)

    @pytest.mark.parametrize("c", [-0.5, math.inf, math.nan, "1"])
    def test_rejects_bad_c(self, c):
        with pytest.raises(ParameterError):
            theoretical_k(100, c)


class TestChernoffTail:
    def test_zero_deviation_is_one(self):
        assert chernoff_tail(5.0, 0.0) == 1.0

    def test_closed_form_at_e_minus_one(self):
        # at delta = e - 1 the exponent collapses to -mu
        assert chernoff_tail(1.0, math.e - 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )
        assert chernoff_tail(3.0, math.e - 1.0) == pytest.approx(
            math.exp(-3.0), rel=1e-12
        )

    def test_decreasing_in_mu_and_delta(self):
        assert chernoff_tail(1.0, 0.5) > chernoff_tail(2.0, 0.5) > chernoff_tail(4.0, 0.5)
        assert chernoff_tail(5.0, 0.1) > chernoff_tail(5.0, 1.0) > chernoff_tail(5.0, 3.0)

    def test_bounded_by_one(self):
        for delta in (0.01, 0.5, 2.0, 10.0):
            assert 0.0 < chernoff_tail(2.5, delta) < 1.0

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan, True])
    def test_rejects_bad_mu(self, mu):
        with pytest.raises(ParameterError):
            chernoff_tail(mu, 0.5)

    @pytest.mark.parametrize("delta", [-0.1, math.inf, math.nan, "0"])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ParameterError):
            chernoff_tail(1.0, delta)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_pinned_value(self):
        assert harmonic(1000) == pytest.approx(7.485470860550344, rel=1e-15)

    @pytest.mark.parametrize("m", [10, 100, 1000])
    def test_log_bracketing(self, m):
        assert math.log(m) < harmonic(m) <= math.log(m) + 1.0

    @pytest.mark.parametrize("m", [-1, 2.5, True])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ParameterError):
            harmonic(m)


# ---------------------------------------------------------------------------
# measures


class TestDegreeMeasures:
    path3 = Graph(3, [(0, 1), (1, 2)])
    star5 = Graph(6, [(0, i) for i in range(1, 6)])

    def test_max_degree(self):
        assert max_degree(self.path3) == 2
        assert max_degree(self.star5) == 5
        assert max_degree(Graph(0)) == 0
        assert max_degree(Graph(4)) == 0
        assert max_degree(DiGraph(0)) == 0

    def test_max_degree_of_directed_uses_undirected_view(self):
        d = DiGraph(3, [(0, 1), (1, 0), (2, 1)])
        assert max_degree(d) == 2

    def test_max_out_degree(self):
        d = DiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert max_out_degree(d) == 2
        assert max_out_degree(DiGraph(0)) == 0
        assert max_out_degree(DiGraph(3)) == 0

    def test_max_out_degree_rejects_undirected(self):
        with pytest.raises(ParameterError):
            max_out_degree(self.path3)

    def test_degree_histogram(self):
        assert degree_histogram(self.path3) == (0, 2, 1)
        assert degree_histogram(self.star5) == (0, 5, 0, 0, 0, 1)
        assert degree_histogram(Graph(0)) == ()
        assert degree_histogram(Graph(3)) == (3,)
        assert degree_histogram(DiGraph(0)) == ()

    def test_histogram_mass_equals_vertex_count(self):
        g = gabriel(sample_uniform(Region.unit_square(), 200, trial_generator(10, 0)))
        assert sum(degree_histogram(g)) == 200


class TestMaxEdgeLength:
    def test_examples(self):
        pts = PointSet([(0.0, 0.0), (3.0, 4.0), (3.0, 0.0)])
        assert max_edge_length(Graph(3, [(0, 1)]), pts) == 5.0
        assert max_edge_length(Graph(3, [(0, 2), (1, 2)]), pts) == 4.0
        assert max_edge_length(Graph(3), pts) == 0.0

    def test_directed_input(self):
        pts = PointSet([(0.0, 0.0), (0.0, 2.0)])
        assert max_edge_length(DiGraph(2, [(1, 0)]), pts) == 2.0

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            max_edge_length(Graph(3, [(0, 1)]), PointSet([(0.0, 0.0), (1.0, 1.0)]))

    def test_overflowing_length(self):
        # the difference of the ends overflows; an inf length, with a
        # RuntimeWarning, is no answer
        pts = PointSet([(-1e308, 0.0), (1e308, 0.0), (0.0, 0.0)])
        with pytest.raises(ParameterError, match="overflows"):
            max_edge_length(Graph(3, [(0, 1)]), pts)
        with pytest.raises(ParameterError, match="overflows"):
            max_edge_length(Graph(3, [(1, 2), (0, 2)]), PointSet([(1.5e308, 1.5e308), (0.0, 0.0), (0.0, 1.0)]))
        assert max_edge_length(Graph(3, [(0, 2), (1, 2)]), pts) == 1e308


def whole_matrix_stretch(g, pts):
    """The first maximum, in row-major order, of the whole ratio matrix:
    the reference stretch_details must equal bit for bit."""
    n = pts.n
    P = pts.coords
    e = undirected_view(g).edges
    w = np.hypot(P[e[:, 0], 0] - P[e[:, 1], 0], P[e[:, 0], 1] - P[e[:, 1], 1])
    D = dijkstra(csr_matrix((w, (e[:, 0], e[:, 1])), shape=(n, n)), directed=False)
    euc = np.hypot(P[:, None, 0] - P[None, :, 0], P[:, None, 1] - P[None, :, 1])
    np.fill_diagonal(euc, 1.0)
    ratio = np.divide(D, euc, out=D)
    u, v = divmod(int(np.argmax(ratio)), n)
    return ratio[u, v], (u, v)


def _uniform_family(build, n, scale=1.0):
    def make():
        pts = uniform_points(seed=71, n=n, scale=scale)
        return build(pts), pts
    return make


def _path_family(P):
    def make():
        pts = PointSet(P)
        return Graph(pts.n, [(i, i + 1) for i in range(pts.n - 1)]), pts
    return make


def _lattice():
    # Gabriel on a lattice is the grid; many pairs tie on each ratio
    xs, ys = np.meshgrid(np.arange(45.0), np.arange(45.0))
    pts = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
    return gabriel(pts), pts


def _star():
    pts = uniform_points(seed=72, n=2000)
    return Graph(2000, [(0, i) for i in range(1, 2000)]), pts


def _clusters():
    rng = np.random.default_rng(73)
    dense = [c + 1e-3 * rng.random((50, 2)) for c in 0.1 + 0.8 * rng.random((16, 2))]
    pts = PointSet(np.vstack(dense + [rng.random((1200, 2))]))
    return gabriel(pts), pts


_RING = 2.0 * np.pi * np.arange(2000) / 2000

STRETCH_FAMILIES = {
    "gabriel-500": _uniform_family(gabriel, 500),
    "gabriel-2000": _uniform_family(gabriel, 2000),
    "rng-2000": _uniform_family(rng_graph, 2000),
    "yao2-2000": _uniform_family(lambda p: yao(p, ConeSpec(2)), 2000),
    "yao4-2000": _uniform_family(lambda p: yao(p, ConeSpec(4)), 2000),
    "yao8-2000": _uniform_family(lambda p: yao(p, ConeSpec(8)), 2000),
    "lattice-45x45": _lattice,
    "collinear-path": _path_family(np.column_stack([np.arange(2000.0), np.zeros(2000)])),
    "open-ring-path": _path_family(np.column_stack([np.cos(_RING), np.sin(_RING)])),
    "star": _star,
    "clusters": _clusters,
    "yao4-1e-300": _uniform_family(lambda p: yao(p, ConeSpec(4)), 1000, scale=1e-300),
    "yao4-1e155": _uniform_family(lambda p: yao(p, ConeSpec(4)), 1000, scale=1e155),
}


class TestStretch:
    def test_single_edge(self):
        pts = PointSet([(0.0, 0.0), (2.0, 1.0)])
        assert stretch_factor(Graph(2, [(0, 1)]), pts) == 1.0

    def test_collinear_path_has_no_detour(self):
        pts = PointSet([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        assert stretch_factor(Graph(3, [(0, 1), (1, 2)]), pts) == pytest.approx(1.0, rel=1e-12)

    def test_square_sides_detour_diagonal(self, square_corners):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        value, pair = stretch_details(g, square_corners)
        assert value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert pair == (0, 2)
        assert stretch_factor(g, square_corners) == value

    def test_disconnected_graph_reports_a_pair(self):
        pts = PointSet([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError) as exc:
            stretch_factor(g, pts)
        assert exc.value.pair == (0, 2)

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            stretch_factor(Graph(1), PointSet([(0.0, 0.0)]))

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            stretch_factor(Graph(3), PointSet([(0.0, 0.0), (1.0, 1.0)]))

    def test_blocked_rows_match_whole_matrix(self):
        # the worst pair is the first maximum of the whole ratio matrix
        pts = uniform_points(seed=69, n=700)
        g = gabriel(pts)
        assert stretch_details(g, pts) == whole_matrix_stretch(g, pts)

    @pytest.mark.parametrize("family", sorted(STRETCH_FAMILIES))
    def test_pruned_rows_match_whole_matrix(self, family):
        g, pts = STRETCH_FAMILIES[family]()
        assert stretch_details(g, pts) == whole_matrix_stretch(g, pts)

    def test_uniform_rows_are_skipped_or_limited(self, monkeypatch):
        # landmark bounds leave most rows of a uniform Gabriel graph
        # without a target, or with a limit short of the whole graph
        calls = []

        def spy(m, directed, indices, limit=np.inf):
            calls.append((np.size(indices), limit))
            return dijkstra(m, directed=directed, indices=indices, limit=limit)

        monkeypatch.setattr(experiment, "dijkstra", spy)
        pts = uniform_points(seed=70, n=2000)
        stretch_details(gabriel(pts), pts)
        whole = sum(k for k, limit in calls if limit == np.inf)
        limited = sum(k for k, limit in calls if limit < np.inf)
        assert limited > 0
        assert whole < 2000 // 4

    def test_overflowing_path_is_not_a_disconnection(self):
        # the star at vertex 1 is connected; the path from 0 to 2 and the
        # distance between them both exceed the double range
        pts = PointSet([(-1e308, 0.0), (0.0, 0.0), (1e308, 0.0), (0.0, 1e308)])
        g = Graph(4, [(1, 0), (1, 2), (1, 3)])
        with pytest.raises(ParameterError, match="overflows"):
            stretch_details(g, pts)

    def test_overflowing_graph_distance(self):
        # every Euclidean distance is finite, the path 0-1-2 is not
        pts = PointSet([(0.0, 0.0), (1.5e308, 0.0), (0.0, 1e-300)])
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ParameterError, match="graph distance overflows"):
            stretch_details(g, pts)

    def test_overflowing_ratio(self):
        # 0 and 1 sit 1e-300 apart, joined only through a point 1e300 away
        pts = PointSet([(0.0, 0.0), (1e-300, 0.0), (1e300, 0.0)])
        g = Graph(3, [(0, 2), (2, 1)])
        with pytest.raises(ParameterError, match="stretch overflows"):
            stretch_details(g, pts)

    def test_peak_memory_is_linear_in_n(self):
        # sources run in clusters of 24, whose arrays are 24 x n, so the
        # peak stays far below n x n; three n x n float64 arrays would be
        # 206 MiB
        n = 3000
        pts = uniform_points(seed=68, n=n)
        g = gabriel(pts)
        tracemalloc.start()
        try:
            stretch_details(g, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


# ---------------------------------------------------------------------------
# experiment configuration


class TestGraphKind:
    def test_build_each_kind(self):
        pts = sample_uniform(Region.unit_square(), 60, trial_generator(11, 0))
        assert isinstance(GraphKind("gabriel").build(pts), Graph)
        assert isinstance(GraphKind("rng").build(pts), Graph)
        assert isinstance(GraphKind("yao", p=6).build(pts), DiGraph)
        assert isinstance(GraphKind("udg", radius=0.2).build(pts), Graph)

    def test_intersection_build(self):
        pts = sample_uniform(Region.unit_square(), 80, trial_generator(12, 0))
        both = GraphKind(
            "intersection",
            parts=(GraphKind("gabriel"), GraphKind("udg", radius=2.0)),
        )
        # a radius beyond the square's diameter keeps every edge
        assert both.build(pts) == GraphKind("gabriel").build(pts)

    def test_describe(self):
        assert GraphKind("gabriel").describe() == {"kind": "gabriel"}
        assert GraphKind("yao", p=7, offset=0.3).describe() == {
            "kind": "yao",
            "p": 7,
            "offset": 0.3,
        }
        assert GraphKind("udg", radius=0.1).describe() == {
            "kind": "udg",
            "radius": 0.1,
        }
        nested = GraphKind(
            "intersection", parts=(GraphKind("rng"), GraphKind("udg", radius=1.0))
        ).describe()
        assert nested["kind"] == "intersection"
        assert [p["kind"] for p in nested["parts"]] == ["rng", "udg"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "unit-disk"},
            {"kind": "yao"},
            {"kind": "yao", "p": 1},
            {"kind": "gabriel", "p": 4},
            {"kind": "udg"},
            {"kind": "udg", "radius": -1.0},
            {"kind": "rng", "radius": 0.5},
            {"kind": "intersection"},
            {"kind": "intersection", "parts": (GraphKind("gabriel"),)},
            {"kind": "gabriel", "parts": (GraphKind("rng"), GraphKind("gabriel"))},
            {"kind": "gabriel", "offset": 0.3},
            {"kind": "yao", "p": 4, "offset": True},
            {"kind": "gabriel", "offset": False},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ParameterError):
            GraphKind(**kwargs)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_numpy_scalars_stored_as_python_numbers(self, int_type):
        yao = GraphKind("yao", p=int_type(8), offset=np.float32(0.5))
        assert yao == GraphKind("yao", p=8, offset=0.5)
        assert type(yao.p) is int and type(yao.offset) is float
        assert json.loads(json.dumps(yao.describe())) == {"kind": "yao", "p": 8, "offset": 0.5}
        udg = GraphKind("udg", radius=np.float32(0.25))
        assert type(udg.radius) is float and udg.radius == 0.25


def make_config(**overrides):
    base = dict(
        graph_kind=GraphKind("gabriel"),
        support=Region.unit_square(),
        n=40,
        trials=3,
        seed=17,
        measures=("max_degree", "edge_count"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_accepts_valid(self):
        cfg = make_config()
        assert cfg.workers == 1
        assert cfg.jewel_c == 1.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"graph_kind": "gabriel"},
            {"support": "unit-square"},
            {"n": 0},
            {"trials": 0},
            {"seed": -1},
            {"workers": 0},
            {"n": 2.0},
            {"measures": ()},
            {"measures": ("degree",)},
            {"measures": ("max_out_degree",)},
            {"measures": ("jewel_count",), "support": Region.rotated_square()},
            {
                "measures": ("staircase_count",),
                "support": Region.rect_union(L_SHAPE),
            },
            {"jewel_c": 0.0},
            {"jewel_c": "1"},
            {"staircase_c": -1.0},
            {"staircase_c": math.inf},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ParameterError):
            make_config(**overrides)

    @pytest.mark.parametrize("int_type", [np.int64, np.int32])
    def test_numpy_scalars_stored_as_python_numbers(self, int_type):
        cfg = make_config(
            n=int_type(40), trials=int_type(3), seed=int_type(17), workers=int_type(1),
            jewel_c=np.float32(0.5), staircase_c=int_type(2),
        )
        assert cfg == make_config(jewel_c=0.5, staircase_c=2.0)
        for name, t in [("n", int), ("trials", int), ("seed", int), ("workers", int),
                        ("jewel_c", float), ("staircase_c", float)]:
            assert type(getattr(cfg, name)) is t, name

    def test_census_and_out_degree_allowed_where_defined(self):
        make_config(measures=("jewel_count", "staircase_count"))
        make_config(graph_kind=GraphKind("yao", p=5), measures=("max_out_degree",))


# ---------------------------------------------------------------------------
# the driver


class TestRunTrials:
    def test_single_trial_matches_manual_build(self):
        cfg = make_config(trials=1, measures=("max_degree", "edge_count"))
        out = run_trials(cfg)
        pts = sample_uniform(cfg.support, cfg.n, trial_generator(cfg.seed, 0))
        g = gabriel(pts)
        assert out.trials[0].values == {
            "max_degree": max_degree(g),
            "edge_count": g.edge_count,
        }

    def test_summary_shape(self):
        cfg = make_config(trials=4, measures=("max_degree", "degree_histogram"))
        out = run_trials(cfg)
        assert isinstance(out, TrialSummary)
        assert out.config is cfg
        assert out.version == proxdeg.__version__
        assert [t.trial for t in out.trials] == [0, 1, 2, 3]
        assert all(isinstance(t, TrialResult) and t.n == cfg.n for t in out.trials)
        md = out.stats["max_degree"]
        assert len(md.raw) == 4
        assert md.min <= md.mean <= md.max
        assert md.sd is not None
        hist = out.stats["degree_histogram"]
        assert hist.mean is None and hist.sd is None
        assert len(hist.raw) == 4
        assert all(isinstance(h, tuple) for h in hist.raw)

    def test_single_trial_has_no_sd(self):
        out = run_trials(make_config(trials=1))
        assert out.stats["max_degree"].sd is None

    def test_deterministic(self):
        a = run_trials(make_config(trials=5))
        b = run_trials(make_config(trials=5))
        assert a.stats["edge_count"].raw == b.stats["edge_count"].raw

    def test_worker_count_does_not_change_results(self):
        a = run_trials(make_config(trials=4, workers=1))
        b = run_trials(make_config(trials=4, workers=2))
        assert a.stats["edge_count"].raw == b.stats["edge_count"].raw
        assert a.stats["max_degree"].raw == b.stats["max_degree"].raw

    def test_all_measures_over_yao(self):
        cfg = make_config(
            graph_kind=GraphKind("yao", p=6),
            n=64,
            trials=2,
            measures=("max_degree", "max_out_degree", "edge_count", "max_edge_length"),
        )
        out = run_trials(cfg)
        assert out.stats["max_out_degree"].max <= 6
        assert out.stats["max_edge_length"].min > 0.0

    def test_census_measures(self):
        cfg = make_config(n=64, trials=2, measures=("jewel_count", "staircase_count"))
        out = run_trials(cfg)
        for m in ("jewel_count", "staircase_count"):
            assert all(v >= 0 for v in out.stats[m].raw)

    def test_trial_error_carries_index(self):
        # a vanishing radius disconnects the threshold graph, so the
        # stretch measure must fail inside trial 0
        cfg = make_config(
            graph_kind=GraphKind("udg", radius=1e-9),
            trials=1,
            measures=("stretch",),
        )
        with pytest.raises(TrialError) as exc:
            run_trials(cfg)
        assert exc.value.trial == 0
        assert "trial 0" in str(exc.value)

    def test_trial_error_from_worker_pool(self):
        cfg = make_config(
            graph_kind=GraphKind("udg", radius=1e-9),
            trials=2,
            workers=2,
            measures=("stretch",),
        )
        with pytest.raises(TrialError):
            run_trials(cfg)

    def test_dead_worker_is_trial_error(self, monkeypatch):
        # a worker that exits mid-trial breaks the pool; the failure names
        # the first trial without a result
        monkeypatch.setattr(proxdeg.experiment, "_run_one", die_in_worker)
        with pytest.raises(TrialError) as exc:
            run_trials(make_config(trials=3, workers=2))
        assert exc.value.trial == 0
        assert "worker process died" in str(exc.value)

    def test_unpicklable_result_is_trial_error(self, monkeypatch):
        # the worker cannot send the result back; the pool's own exception
        # (an AttributeError or PicklingError) becomes a TrialError
        monkeypatch.setattr(proxdeg.experiment, "_run_one", unpicklable_result)
        with pytest.raises(TrialError) as exc:
            run_trials(make_config(trials=3, workers=2))
        assert exc.value.trial == 0
        assert "pickle" in str(exc.value)

    def test_trial_error_pickles(self):
        err = TrialError(3, "DisconnectedGraphError: no path")
        back = pickle.loads(pickle.dumps(err))
        assert back.trial == 3
        assert back.message == err.message
        assert str(back) == str(err)

    def test_rejects_non_config(self):
        with pytest.raises(ParameterError):
            run_trials({"n": 10})

"""Monte Carlo harness: sampling, per-trial measures, aggregation, and
the closed-form quantities the measured curves are compared against.

Randomness contract: trial t of an experiment with master seed s draws
from ``Philox`` keyed by ``SeedSequence(entropy=s, spawn_key=(t,))``.
Streams for different trials are independent by construction and a
trial can be replayed alone, in any order, or in any process layout,
and produce the same points.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from ._version import VERSION as _VERSION
from .errors import DisconnectedGraphError, ParameterError, TrialError
from .geom import RECT_UNION, UNIT_SQUARE, ConeSpec, PointSet, Region
from .graphs import (
    DiGraph,
    Graph,
    gabriel,
    intersect,
    rng_graph,
    unit_disk_graph,
    undirected_view,
    yao,
)
from .witness import count_jewels, count_staircases

KIND_GABRIEL = "gabriel"
KIND_RNG = "rng"
KIND_YAO = "yao"
KIND_UDG = "udg"
KIND_INTERSECTION = "intersection"

_KINDS = (KIND_GABRIEL, KIND_RNG, KIND_YAO, KIND_UDG, KIND_INTERSECTION)

MEASURES = (
    "max_degree",
    "max_out_degree",
    "edge_count",
    "max_edge_length",
    "degree_histogram",
    "stretch",
    "jewel_count",
    "staircase_count",
)

# census measures work straight off the point set
_POINT_MEASURES = frozenset({"jewel_count", "staircase_count"})


@dataclass(frozen=True)
class GraphKind:
    """Recipe for building one graph family over a point set."""

    kind: str
    p: int | None = None
    offset: float = 0.0
    radius: float | None = None
    parts: tuple["GraphKind", ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown graph kind {self.kind!r}")
        if self.kind == KIND_YAO:
            if self.p is None:
                raise ParameterError("yao graphs need a cone count p")
            ConeSpec(self.p, self.offset)
        elif self.p is not None:
            raise ParameterError(f"{self.kind} graphs take no cone count")
        if self.kind == KIND_UDG:
            if self.radius is None:
                raise ParameterError("udg graphs need a radius")
            r = self.radius
            if not isinstance(r, (int, float)) or isinstance(r, bool):
                raise ParameterError(f"radius must be a number, got {r!r}")
            if not (math.isfinite(r) and r > 0.0):
                raise ParameterError(f"radius must be positive and finite, got {r!r}")
        elif self.radius is not None:
            raise ParameterError(f"{self.kind} graphs take no radius")
        if self.kind == KIND_INTERSECTION:
            if len(self.parts) < 2:
                raise ParameterError("intersection needs at least two parts")
        elif self.parts:
            raise ParameterError(f"{self.kind} graphs take no parts")

    def build(self, points: PointSet):
        """Build the graph over ``points``; directed for yao, undirected
        otherwise (intersection collapses directed parts)."""
        if self.kind == KIND_GABRIEL:
            return gabriel(points)
        if self.kind == KIND_RNG:
            return rng_graph(points)
        if self.kind == KIND_YAO:
            return yao(points, ConeSpec(self.p, self.offset))
        if self.kind == KIND_UDG:
            return unit_disk_graph(points, self.radius)
        out = self.parts[0].build(points)
        for part in self.parts[1:]:
            out = intersect(out, part.build(points))
        return out

    def describe(self) -> dict:
        """JSON-friendly description for manifests."""
        d: dict = {"kind": self.kind}
        if self.kind == KIND_YAO:
            d["p"] = self.p
            d["offset"] = self.offset
        elif self.kind == KIND_UDG:
            d["radius"] = self.radius
        elif self.kind == KIND_INTERSECTION:
            d["parts"] = [part.describe() for part in self.parts]
        return d


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; everything a worker process
    needs travels in this one picklable object."""

    graph_kind: GraphKind
    support: Region
    n: int
    trials: int
    seed: int
    measures: tuple[str, ...] = ("max_degree",)
    workers: int = 1
    jewel_c: float = 1.0
    staircase_c: float = 1.0

    def __post_init__(self):
        if not isinstance(self.graph_kind, GraphKind):
            raise ParameterError("graph_kind must be a GraphKind")
        if not isinstance(self.support, Region):
            raise ParameterError("support must be a Region")
        for name, lo in (("n", 1), ("trials", 1), ("seed", 0), ("workers", 1)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < lo:
                raise ParameterError(f"{name} must be an int >= {lo}, got {v!r}")
        if not self.measures:
            raise ParameterError("at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                raise ParameterError(f"unknown measure {m!r}")
        if "max_out_degree" in self.measures and self.graph_kind.kind != KIND_YAO:
            raise ParameterError("max_out_degree needs a yao graph")
        census = {"jewel_count", "staircase_count"} & set(self.measures)
        if census and self.support.kind != UNIT_SQUARE:
            raise ParameterError("witness censuses need the unit square support")


@dataclass(frozen=True)
class TrialResult:
    """Measured values of one trial; histogram values are int tuples,
    everything else is scalar."""

    trial: int
    n: int
    values: dict = field(compare=False)


@dataclass(frozen=True)
class MeasureStats:
    """Aggregate of one measure across trials. Histograms do not average
    meaningfully, so their stats fields are None and only raw is set.
    sd is the sample standard deviation and None for a single trial."""

    mean: float | None
    sd: float | None
    min: float | None
    max: float | None
    raw: tuple = field(compare=False)


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated outcome of a whole experiment: config echo, one record
    per trial, per-measure statistics with the raw values, and the
    library version that produced them."""

    config: ExperimentConfig
    trials: tuple[TrialResult, ...] = field(compare=False)
    stats: dict = field(compare=False)
    version: str = _VERSION


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The random stream owned by one trial; see the module docstring."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative int, got {seed!r}")
    if not isinstance(trial, int) or isinstance(trial, bool) or trial < 0:
        raise ParameterError(f"trial must be a nonnegative int, got {trial!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def sample_uniform(region: Region, n: int, rng: np.random.Generator, meta=None) -> PointSet:
    """Draw n points uniformly from the region.

    The unit square samples directly; the rotated square rejects from
    its bounding box; a rectangle union picks a rectangle by area, then
    a point inside it.
    """
    if not isinstance(region, Region):
        raise ParameterError(f"expected Region, got {type(region).__name__}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"n must be a nonnegative int, got {n!r}")
    n = int(n)
    if region.kind == UNIT_SQUARE:
        pts = rng.random((n, 2))
    elif region.kind == RECT_UNION:
        areas = np.array([r.area for r in region.rects], dtype=np.float64)
        pick = rng.choice(len(region.rects), size=n, p=areas / areas.sum())
        frac = rng.random((n, 2))
        xmin = np.array([r.xmin for r in region.rects])[pick]
        xmax = np.array([r.xmax for r in region.rects])[pick]
        ymin = np.array([r.ymin for r in region.rects])[pick]
        ymax = np.array([r.ymax for r in region.rects])[pick]
        pts = np.column_stack([
            xmin + frac[:, 0] * (xmax - xmin),
            ymin + frac[:, 1] * (ymax - ymin),
        ])
    else:
        x0, y0, x1, y1 = region.bbox
        chunks = []
        have = 0
        while have < n:
            batch = 2 * (n - have) + 8
            q = rng.random((batch, 2))
            q[:, 0] = x0 + q[:, 0] * (x1 - x0)
            q[:, 1] = y0 + q[:, 1] * (y1 - y0)
            got = q[region.contains_mask(q)]
            chunks.append(got)
            have += len(got)
        pts = np.concatenate(chunks)[:n] if chunks else np.empty((0, 2))
    return PointSet(pts, meta=meta)


# ---------------------------------------------------------------------------
# Measures


def max_degree(graph) -> int:
    """Largest vertex degree of the undirected view."""
    g = undirected_view(graph)
    if g.n == 0:
        return 0
    return int(g.degrees().max())


def max_out_degree(graph: DiGraph) -> int:
    """Largest out-degree of a directed graph."""
    if not isinstance(graph, DiGraph):
        raise ParameterError("max_out_degree needs a directed graph")
    if graph.n == 0:
        return 0
    return int(graph.out_degrees().max())


def max_edge_length(graph, points) -> float:
    """Euclidean length of the longest edge, 0.0 for an edgeless graph."""
    pts = points if isinstance(points, PointSet) else PointSet(points)
    e = graph.edges
    if graph.n != pts.n:
        raise ParameterError(f"vertex counts differ: {graph.n} != {pts.n}")
    if len(e) == 0:
        return 0.0
    P = pts.coords
    return float(
        np.hypot(P[e[:, 0], 0] - P[e[:, 1], 0], P[e[:, 0], 1] - P[e[:, 1], 1]).max()
    )


def degree_histogram(graph) -> tuple:
    """Counts of vertices by undirected degree, index = degree."""
    g = undirected_view(graph)
    if g.n == 0:
        return ()
    return tuple(int(x) for x in np.bincount(g.degrees()))


def stretch_details(graph, points) -> tuple[float, tuple[int, int]]:
    """Worst ratio of graph distance to Euclidean distance over all
    vertex pairs, with the pair attaining it.

    Distances run over the undirected view with Euclidean edge weights.
    Raises DisconnectedGraphError, naming an unreachable pair, when the
    graph has more than one component. Memory is quadratic in n.
    """
    pts = points if isinstance(points, PointSet) else PointSet(points)
    g = undirected_view(graph)
    n = pts.n
    if g.n != n:
        raise ParameterError(f"vertex counts differ: {g.n} != {n}")
    if n < 2:
        raise ParameterError("stretch needs at least two points")
    P = pts.coords
    e = g.edges
    w = np.hypot(P[e[:, 0], 0] - P[e[:, 1], 0], P[e[:, 0], 1] - P[e[:, 1], 1])
    m = csr_matrix((w, (e[:, 0], e[:, 1])), shape=(n, n))
    ncomp, labels = connected_components(m, directed=False)
    if ncomp > 1:
        u = 0
        v = int(np.flatnonzero(labels != labels[0])[0])
        raise DisconnectedGraphError(u, v)
    D = shortest_path(m, directed=False)
    dx = P[:, 0][:, None] - P[:, 0][None, :]
    dy = P[:, 1][:, None] - P[:, 1][None, :]
    euc = np.hypot(dx, dy)
    np.fill_diagonal(euc, 1.0)
    ratio = D / euc
    np.fill_diagonal(ratio, 0.0)
    flat = int(np.argmax(ratio))
    u, v = divmod(flat, n)
    return float(ratio[u, v]), (int(u), int(v))


def stretch_factor(graph, points) -> float:
    """Worst graph-to-Euclidean distance ratio; see stretch_details."""
    return stretch_details(graph, points)[0]


def _measure_value(measure: str, config: ExperimentConfig, pts: PointSet, g):
    if measure == "max_degree":
        return max_degree(g)
    if measure == "max_out_degree":
        return max_out_degree(g)
    if measure == "edge_count":
        return int(g.edge_count)
    if measure == "max_edge_length":
        return max_edge_length(g, pts)
    if measure == "degree_histogram":
        return degree_histogram(g)
    if measure == "stretch":
        return stretch_factor(g, pts)
    if measure == "jewel_count":
        return count_jewels(pts, config.jewel_c, config.support)
    if measure == "staircase_count":
        return count_staircases(pts, config.staircase_c, config.support)
    raise ParameterError(f"unknown measure {measure!r}")


def _run_one(config: ExperimentConfig, trial: int) -> TrialResult:
    try:
        rng = trial_generator(config.seed, trial)
        pts = sample_uniform(
            config.support,
            config.n,
            rng,
            meta={"seed": config.seed, "trial": trial, "region": config.support.kind},
        )
        g = None
        if any(m not in _POINT_MEASURES for m in config.measures):
            g = config.graph_kind.build(pts)
        values = {m: _measure_value(m, config, pts, g) for m in config.measures}
        return TrialResult(trial=trial, n=config.n, values=values)
    except TrialError:
        raise
    except Exception as e:
        raise TrialError(trial, f"{type(e).__name__}: {e}") from e


def _aggregate(measures, results) -> dict:
    stats = {}
    for m in measures:
        raw = tuple(s.values[m] for s in results)
        if m == "degree_histogram":
            stats[m] = MeasureStats(None, None, None, None, raw)
        else:
            arr = np.asarray(raw, dtype=np.float64)
            sd = float(arr.std(ddof=1)) if len(arr) > 1 else None
            stats[m] = MeasureStats(
                float(arr.mean()), sd, float(arr.min()), float(arr.max()), raw
            )
    return stats


def run_trials(config: ExperimentConfig) -> TrialSummary:
    """Run every trial of the experiment and aggregate the measures.

    workers > 1 fans trials out to a process pool; trial ordering and
    results are identical either way because each trial owns its stream.
    A worker process that dies raises TrialError for the first trial
    whose result is missing.
    """
    if not isinstance(config, ExperimentConfig):
        raise ParameterError(f"expected ExperimentConfig, got {type(config).__name__}")
    if config.workers <= 1:
        results = [_run_one(config, t) for t in range(config.trials)]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as ex:
            futures = [ex.submit(_run_one, config, t) for t in range(config.trials)]
            results = []
            for t, f in enumerate(futures):
                try:
                    results.append(f.result())
                except BrokenProcessPool as e:
                    # trials before t finished; t is the first that did not
                    raise TrialError(t, f"worker process died: {e}") from e
    return TrialSummary(
        config=config,
        trials=tuple(results),
        stats=_aggregate(config.measures, results),
    )


# ---------------------------------------------------------------------------
# Closed forms


def theoretical_k(n, c: float = 1.0) -> float:
    """The predicted extreme-degree growth c * ln(n) / ln(ln(n)).

    Needs n >= 16 so the double logarithm is safely positive.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 16:
        raise ParameterError(f"n must be an int >= 16, got {n!r}")
    if not isinstance(c, (int, float)) or isinstance(c, bool):
        raise ParameterError(f"c must be a number, got {c!r}")
    c = float(c)
    if not (math.isfinite(c) and c >= 0.0):
        raise ParameterError(f"c must be nonnegative and finite, got {c!r}")
    return c * math.log(n) / math.log(math.log(n))


def chernoff_tail(mu: float, delta: float) -> float:
    """Multiplicative Chernoff bound exp(mu*(delta - (1+delta)*ln(1+delta)))
    on the probability that a sum with mean mu exceeds (1+delta)*mu."""
    if not isinstance(mu, (int, float)) or isinstance(mu, bool):
        raise ParameterError(f"mu must be a number, got {mu!r}")
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0.0):
        raise ParameterError(f"mu must be positive and finite, got {mu!r}")
    if not isinstance(delta, (int, float)) or isinstance(delta, bool):
        raise ParameterError(f"delta must be a number, got {delta!r}")
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ParameterError(f"delta must be nonnegative and finite, got {delta!r}")
    if delta == 0.0:
        return 1.0
    return math.exp(mu * (delta - (1.0 + delta) * math.log1p(delta)))


def harmonic(m) -> float:
    """m-th harmonic number, terms summed smallest first."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
        raise ParameterError(f"m must be a nonnegative int, got {m!r}")
    if m == 0:
        return 0.0
    return float((1.0 / np.arange(m, 0, -1, dtype=np.float64)).sum())

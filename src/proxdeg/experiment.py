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
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from ._version import VERSION as _VERSION
from .errors import (
    DisconnectedGraphError, ParameterError, TrialError, check_int, check_number, check_real,
)
from .geom import RECT_UNION, UNIT_SQUARE, ConeSpec, PointSet, Region, as_point_set
from .graphs import (
    _BLOCK,
    _EPS,
    DiGraph,
    gabriel,
    intersect,
    rng_graph,
    unit_disk_graph,
    undirected_view,
    yao,
)
from .witness import _census_support, count_jewels, count_staircases

KIND_GABRIEL = "gabriel"
KIND_RNG = "rng"
KIND_YAO = "yao"
KIND_UDG = "udg"
KIND_INTERSECTION = "intersection"

_KINDS = (KIND_GABRIEL, KIND_RNG, KIND_YAO, KIND_UDG, KIND_INTERSECTION)


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
        object.__setattr__(self, "offset", check_real("offset", self.offset))
        if self.kind == KIND_YAO:
            if self.p is None:
                raise ParameterError("yao graphs need a cone count p")
            object.__setattr__(self, "p", ConeSpec(self.p, self.offset).p)
        elif self.p is not None:
            raise ParameterError(f"{self.kind} graphs take no cone count")
        elif self.offset != 0.0:
            raise ParameterError(f"{self.kind} graphs take no cone offset")
        if self.kind == KIND_UDG:
            if self.radius is None:
                raise ParameterError("udg graphs need a radius")
            object.__setattr__(self, "radius", check_number("radius", self.radius))
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
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        if not self.measures:
            raise ParameterError("at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                raise ParameterError(f"unknown measure {m!r}")
        if "max_out_degree" in self.measures and self.graph_kind.kind != KIND_YAO:
            raise ParameterError("max_out_degree needs a yao graph")
        for name in ("jewel_c", "staircase_c"):
            object.__setattr__(self, name, check_number(name, getattr(self, name)))
        if _POINT_MEASURES & set(self.measures):
            _census_support(self.support)


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
    seed = check_int("seed", seed, 0)
    trial = check_int("trial", trial, 0)
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
    n = check_int("n", n, 0)
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
    return int(undirected_view(graph).degrees().max(initial=0))


def max_out_degree(graph: DiGraph) -> int:
    """Largest out-degree of a directed graph."""
    if not isinstance(graph, DiGraph):
        raise ParameterError("max_out_degree needs a directed graph")
    return int(graph.out_degrees().max(initial=0))


def max_edge_length(graph, points) -> float:
    """Euclidean length of the longest edge, 0.0 for an edgeless graph.
    Raises ParameterError when an edge's length overflows."""
    pts = as_point_set(points)
    e = graph.edges
    if graph.n != pts.n:
        raise ParameterError(f"vertex counts differ: {graph.n} != {pts.n}")
    if len(e) == 0:
        return 0.0
    P = pts.coords
    with np.errstate(over="ignore"):
        longest = float(np.hypot(P[e[:, 0], 0] - P[e[:, 1], 0], P[e[:, 0], 1] - P[e[:, 1], 1]).max())
    if longest == math.inf:
        raise ParameterError("an edge length overflows")
    return longest


def degree_histogram(graph) -> tuple:
    """Counts of vertices by undirected degree, index = degree."""
    return tuple(int(x) for x in np.bincount(undirected_view(graph).degrees()))


# sources per landmark cluster in stretch_details
_CLUSTER = 24
# the fixed cost of one Dijkstra call, in vertices settled: limited rows
# share a call while widening its limit settles fewer extra vertices
_CALL_COST = 300


def stretch_details(graph, points) -> tuple[float, tuple[int, int]]:
    """Worst ratio of graph distance to Euclidean distance over all
    vertex pairs, with the pair attaining it.

    Distances run over the undirected view with Euclidean edge weights,
    from source u to target v. Among equal ratios the pair is the first
    in row-major order, the smallest u * n + v. Raises
    DisconnectedGraphError, naming 0 and the first vertex outside 0's
    component, when the graph has more than one component, and
    ParameterError when a graph distance, a Euclidean distance or the
    stretch itself overflows the double range.

    Most rows are skipped or cut short, yet the result equals the ratio
    matrix's first maximum bit for bit:

    - Dijkstra's float distance D is the minimum, over walks, of the
      left-to-right float sum. fl(a + w) is monotone in a and at least a,
      so the run on the symmetric matrix, and a run cut off at a limit,
      return the same float for every target within the limit.
    - Sources go in clusters of ``_CLUSTER`` consecutive kd-tree points,
      each with a central landmark L whose row runs whole. Float error
      along at most n hops stays within delta = 8(n + 2) eps, so
      ub = (D[L, x] + D[L, v])(1 + delta), least over the landmarks of the
      cluster and its neighbours in tree order, is at least D[x, v].
    - D <= ub implies fl(D / euc) <= fl(ub / euc). With t the worst ratio
      so far, row x needs exact distances only at the targets where
      fl(ub / euc) >= t. A row without one is skipped; the others run
      with a limit just above their largest such ub, several rows to a
      call. A cluster-wide test, with ub's largest row term and
      euc(L, v) - max euc(L, x) below euc, first drops targets that no
      row of the cluster needs.

    Memory is linear in n: a cluster's arrays hold ``_CLUSTER`` rows.
    """
    pts = as_point_set(points)
    g = undirected_view(graph)
    n = pts.n
    if g.n != n:
        raise ParameterError(f"vertex counts differ: {g.n} != {n}")
    if n < 2:
        raise ParameterError("stretch needs at least two points")
    P = pts.coords
    a, b = g.edges.T
    with np.errstate(over="ignore"):
        w = np.hypot(P[a, 0] - P[b, 0], P[a, 1] - P[b, 1])
    m = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([a, b]), np.concatenate([b, a]))), shape=(n, n)
    )
    parts, label = connected_components(m, directed=False)
    if parts > 1:
        raise DisconnectedGraphError(0, int(np.argmax(label != label[0])))
    if _euclid_overflows(P):
        raise ParameterError("a Euclidean distance between two points overflows")
    worst = _Worst(n)
    # sums and ratios may round up to inf: an inf bound only keeps a
    # target, an inf distance or ratio raises
    with np.errstate(over="ignore"):
        _scan_clusters(m, P, worst)
    if worst.value == np.inf:
        raise ParameterError("the stretch overflows")
    u, v = divmod(worst.flat, n)
    return worst.value, (int(u), int(v))


def _euclid_overflows(P) -> bool:
    """Whether hypot(dx, dy) overflows for some pair. fl(max - min) bounds
    every |dx| and hypot is monotone, so only a bounding box whose
    diagonal nears the double range needs the pairwise scan."""
    with np.errstate(over="ignore"):
        if np.hypot(*(P.max(axis=0) - P.min(axis=0))) <= 2.0 ** 1023:
            return False
        B = max(1, _BLOCK // len(P))
        return any(
            np.isinf(np.hypot(P[lo:lo + B, 0, None] - P[:, 0], P[lo:lo + B, 1, None] - P[:, 1])).any()
            for lo in range(0, len(P), B)
        )


class _Worst:
    """The worst ratio found so far and its flat index u * n + v."""

    def __init__(self, n):
        self.n = n
        self.value = -1.0
        self.flat = 0

    def take(self, D, rows, cols, euc):
        """Fold in the ratios D / euc of sources ``rows`` at targets
        ``cols``; overwrites D."""
        r = np.divide(D, euc, out=D)
        j = r.argmax(axis=1)
        top = r[np.arange(len(rows)), j]
        hi = top.max()
        flat = int((rows * self.n + cols[j])[top == hi].min())
        if hi > self.value or (hi == self.value and flat < self.flat):
            self.value, self.flat = float(hi), flat


def _landmark(m, P, rows, worst):
    """The cluster's landmark L, the row nearest the centre of the rows'
    box in the max norm, with its whole Dijkstra row and Euclidean row;
    folds in L's ratios."""
    X = P[rows]
    mid = X.min(axis=0) / 2.0 + X.max(axis=0) / 2.0
    L = rows[int(np.argmin(np.abs(X - mid).max(axis=1)))]
    DL = dijkstra(m, directed=True, indices=L)
    if np.isinf(DL).any():
        raise ParameterError("a graph distance overflows")
    eL = np.hypot(P[L, 0] - P[:, 0], P[L, 1] - P[:, 1])
    eL[L] = 1.0
    worst.take(DL[None].copy(), np.array([L]), np.arange(len(P)), eL[None])
    eL[L] = 0.0
    return L, DL, eL


def _upper(Ds, src, dst, c):
    """ub[i, j] >= D[src[i], dst[j]]: the least path through a landmark
    with landmark row Dk in Ds, times the float margin c."""
    ub = np.add.outer(Ds[0][src], Ds[0][dst])
    for Dk in Ds[1:]:
        np.minimum(ub, np.add.outer(Dk[src], Dk[dst]), out=ub)
    ub *= c
    return ub


def _scan_clusters(m, P, worst):
    """Every row of the ratio matrix that can reach ``worst``; see
    stretch_details for why the others cannot."""
    n = len(P)
    c = 1.0 + 8.0 * (n + 2) * _EPS
    down, up = 1.0 - 16.0 * _EPS, 1.0 + 16.0 * _EPS
    order = cKDTree(P).indices
    clusters = [order[lo:lo + _CLUSTER] for lo in range(0, n, _CLUSTER)]
    marks = {}
    for ci, rows in enumerate(clusters):
        near = [cj for cj in (ci - 1, ci, ci + 1) if 0 <= cj < len(clusters)]
        for cj in near:
            if cj not in marks:
                marks[cj] = _landmark(m, P, clusters[cj], worst)
        marks.pop(ci - 2, None)
        L, DL, eL = marks[ci]
        Ds = [marks[cj][1] for cj in near]

        # targets some row may need: ub's row term at its largest, and
        # euc(x, v) >= euc(L, v) - max euc(L, x) less rounding; a target
        # whose lower bound is near the subnormal range is always kept
        hi = np.min([Dk + Dk[rows].max() for Dk in Ds], axis=0) * c
        low = (eL * down - eL[rows].max() * up) * down
        q = np.divide(hi, low, out=np.full(n, np.inf), where=low > 2.0 ** -900)
        cols = np.flatnonzero(q >= worst.value)
        if len(cols) == 0:
            continue
        X, Xc = P[rows], P[cols]
        euc = np.hypot(X[:, 0, None] - Xc[:, 0], X[:, 1, None] - Xc[:, 1])
        at = np.minimum(np.searchsorted(cols, rows), len(cols) - 1)
        own = cols[at] == rows
        euc[own, at[own]] = 1.0

        # each row's limit: its largest ub where fl(ub / euc) >= t; a row
        # needing the landmark's farthest vertex runs whole, unlimited
        lim = np.zeros(len(rows))
        far = int(np.argmax(DL))
        jf = np.searchsorted(cols, far)
        whole = np.zeros(len(rows), dtype=bool)
        if jf < len(cols) and cols[jf] == far:
            whole = (_upper(Ds, rows, [far], c)[:, 0] / euc[:, jf] >= worst.value) & (rows != far)
        lim[whole] = np.inf
        rest = np.flatnonzero(~whole & (rows != L))
        if len(rest):
            ub = _upper(Ds, rows[rest], cols, c)
            rb = ub / euc[rest]
            rb[own[rest], at[rest][own[rest]]] = 0.0
            np.copyto(ub, 0.0, where=rb < worst.value)
            lim[rest] = ub.max(axis=1)
        lim[rows == L] = 0.0

        # rows in order of limit; the next row joins the open call while
        # the vertices that widening it settles, counted on L's row, cost
        # less than a call
        todo = np.flatnonzero(lim > 0.0)
        todo = todo[np.argsort(lim[todo], kind="stable")]
        ball = np.searchsorted(np.sort(DL), lim[todo], side="right")
        start = 0
        for k in range(1, len(todo) + 1):
            if k < len(todo) and (k - start) * (ball[k] - ball[k - 1]) <= _CALL_COST:
                continue
            grp = todo[start:k]
            start = k
            top = lim[grp[-1]]
            D = dijkstra(m, directed=True, indices=rows[grp], limit=np.nextafter(top, np.inf))
            if len(cols) < n:
                D = D[:, cols]
            if top < np.inf:
                D[np.isinf(D)] = 0.0
            elif np.isinf(D).any():
                raise ParameterError("a graph distance overflows")
            worst.take(D, rows[grp], cols, euc[grp])


def stretch_factor(graph, points) -> float:
    """Worst graph-to-Euclidean distance ratio; see stretch_details."""
    return stretch_details(graph, points)[0]


# each measure's value from (config, points, graph); the keys, in this
# order, are the measure names the CLI offers
_MEASURE_FNS = {
    "max_degree": lambda cfg, pts, g: max_degree(g),
    "max_out_degree": lambda cfg, pts, g: max_out_degree(g),
    "edge_count": lambda cfg, pts, g: int(g.edge_count),
    "max_edge_length": lambda cfg, pts, g: max_edge_length(g, pts),
    "degree_histogram": lambda cfg, pts, g: degree_histogram(g),
    "stretch": lambda cfg, pts, g: stretch_factor(g, pts),
    "jewel_count": lambda cfg, pts, g: count_jewels(pts, cfg.jewel_c, cfg.support),
    "staircase_count": lambda cfg, pts, g: count_staircases(pts, cfg.staircase_c, cfg.support),
}

MEASURES = tuple(_MEASURE_FNS)

# census measures work straight off the point set
_POINT_MEASURES = frozenset({"jewel_count", "staircase_count"})


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
        values = {m: _MEASURE_FNS[m](config, pts, g) for m in config.measures}
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
    A worker process that dies, or any other failure of the pool, such as
    a result that fails to pickle, raises TrialError for the first trial
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
                # trials before t finished; t is the first that did not
                try:
                    results.append(f.result())
                except TrialError:
                    raise
                except BrokenProcessPool as e:
                    raise TrialError(t, f"worker process died: {e}") from e
                except Exception as e:
                    raise TrialError(t, f"{type(e).__name__}: {e}") from e
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
    n = check_int("n", n, 16)
    c = check_number("c", c, zero_ok=True)
    return c * math.log(n) / math.log(math.log(n))


def chernoff_tail(mu: float, delta: float) -> float:
    """Multiplicative Chernoff bound exp(mu*(delta - (1+delta)*ln(1+delta)))
    on the probability that a sum with mean mu exceeds (1+delta)*mu."""
    mu = check_number("mu", mu)
    delta = check_number("delta", delta, zero_ok=True)
    if delta == 0.0:
        return 1.0
    return math.exp(mu * (delta - (1.0 + delta) * math.log1p(delta)))


def harmonic(m) -> float:
    """m-th harmonic number, terms summed smallest first."""
    m = check_int("m", m, 0)
    if m == 0:
        return 0.0
    return float((1.0 / np.arange(m, 0, -1, dtype=np.float64)).sum())

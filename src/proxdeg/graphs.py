"""Proximity-graph builders over planar point sets.

Public builders: ``gabriel``, ``rng_graph``, ``yao`` and
``unit_disk_graph``, plus quadratic reference implementations
(``gabriel_naive``, ``rng_naive``) kept as oracles for tests.

The Gabriel and relative-neighborhood builders share one pipeline:
Qhull's Delaunay triangulation proposes candidate pairs, and
``_full_test`` keeps each pair whose open disk or lune holds no other
point under the raw float64 predicates from ``geom``. Results match the
quadratic references bit for bit once no edge is missing from the
candidates; a spare candidate only costs time. Both graphs use the same
candidates, as under raw-double predicates the lune graph is not always
inside the disk graph.

Completeness. In exact arithmetic the Gabriel graph lies inside the
Delaunay graph (Matula & Sokal 1980), which holds the relative
neighborhood graph (Toussaint 1980): a pair with an empty disk or lune
has an empty circle through it, so it is an edge of the triangulation or
a chord of a face of four or more cocircular points, and then a diameter
of that face, as a shorter chord has face points strictly inside its
disk. The raw predicates differ from exact ones only for points within
rounding of a region's boundary, which the incircle test counts as
cocircular: its allowance has a relative term and an absolute one, an
ulp of the largest coordinate, for the rounding of midpoints. The
candidates are:

1. every edge of the triangulation;
2. for adjacent triangles cocircular within the allowance: the other
   diagonal, and each vertex with every point near its antipode on
   either circumcircle, which finds the diameters of large cocircular
   sets without pairing all their points;
3. the pairs inside each hole, a connected set of triangles that are not
   Delaunay. Qhull works on lifted coordinates, so it drops points as
   coplanar and triangulates arbitrarily where features are below about
   1e-8 of the bounding box. Holes start at adjacent triangles that fail
   the incircle test, or pass it only up to rounding, and around the
   vertex nearest each dropped point, and grow across every neighbour
   whose circumcircle holds a point. A walk from a triangle whose circle
   holds a point towards that point crosses only such triangles until a
   pair fails the test, so every Delaunay edge Qhull missed joins two
   points of one hole. Its core points get their candidates from this
   construction run on them alone, at their own scale; every other point
   of the hole pairs with all of them.

Input too flat for Qhull is split into runs along its principal axis
(``_line_pairs``).

Range. The candidates come from the points scaled by the power of two
that brings the largest coordinate near 1. That scaling is exact, so
the geometry is unchanged, and the incircle terms of degree 4 cannot
overflow. The raw predicates run on the input itself and
follow the geometry only while squared distances stay in the normal
range. Below it they round to subnormals, so the allowance never drops
under 2**-500 input units and such close points fall into holes, which
pair them all. Above it they overflow: a pair whose squared length is
infinite has every other point with a finite distance as a witness, so
input spanning 2**510 or more takes every pair as a candidate; its
output can hold most pairs anyway.

The argument assumes that Qhull's output is a valid triangulation of
the points it keeps, with no overlapping triangles outside the holes;
differential tests against the references on adversarial layouts back
it.

Yao. ``yao`` takes one path at every size. A kd-tree on the points
scaled by a power of two gives each point its k nearest points, with
k = 4p + 16 and then 4k for the points left; those still left get an
exact scan of every point (``_yao_dense``). The winner of a cone is the
first minimum of the raw squared distance over neighbours sorted by
index, so ties go to the smaller index. A point is settled when each of
its cones is:

- a cone with a winner strictly inside the horizon H, the squared
  distance of the k-th neighbour shrunk by a relative 1e-12 for the
  rounding of both distances: every point not seen is farther;
- an empty cone whose part of the bounding box lies strictly inside H,
  so no point not seen can be in it. The test widens the cone by 1e-9
  rad on each side, far beyond the error of a float cone index, so a
  point the index puts in the cone lies in the widened cone. The
  farthest point of the widened cone inside the box is a vertex of
  their intersection: the exit of an edge ray from the box, or a box
  corner inside the cone, tested against a cone widened once more so
  that the rounding of its angle cannot drop it. That vertex's squared
  distance, times 1 + 1e-9, must be below H;
- any cone, once the search has seen every point.

The raw squared distances may overflow. Cone membership is kept apart
from them, so a cone whose points all lie at infinite distance sends
its arc to the smallest index, as the definition does. A horizon that
overflows, or lies near the subnormal range where relative error bounds
fail, is set to 0, and a vertex distance that overflows is inf; either
way nothing is certified, and the point gets the exact scan.

NumPy's arctan2 may differ from ``math.atan2`` in the last bit. Within
1e-12 p of a cone edge, in units of cones, the index comes from
``geom.cone_index`` itself, except on the axes and diagonals, where both
return the same rounded multiple of pi/4.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay, QhullError, cKDTree

from .errors import ParameterError
from .geom import TWO_PI, ConeSpec, PointSet, cone_index

GABRIEL = "gabriel"
RNG = "rng"

# two adjacent triangles count as cocircular when their float incircle
# value is below this fraction of its permanent
_COCIRCULAR_TOL = 1e-9

# radius of the antipode search, as a fraction of the circle's radius
_ANTIPODE_TOL = 1e-6

# ulps of the largest coordinate allowed for the rounding of a midpoint
_ULP_SLACK = 128.0

# smallest coordinate uncertainty, as a power of two in the input's units:
# below 2**-511 squared differences turn subnormal and round coarsely
_FLOOR_EXP = -500

# raw spans from this power of two on can overflow squared distances
_OVERFLOW_EXP = 510

_EPS = float(np.finfo(np.float64).eps)

# nearest points to a pair's midpoint fetched before its whole ball
_NEAREST = 8


def _canonical(n, pairs, what, undirected):
    """Validate a vertex count and an (m, 2) array of vertex pairs, and
    return both canonical: a read-only int64 array of distinct pairs in
    lexicographic order, each with u < v when ``undirected``."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"vertex count must be a nonnegative int, got {n!r}")
    n = int(n)
    e = np.asarray([] if pairs is None else pairs, dtype=np.int64)
    if e.size == 0:
        e = np.empty((0, 2), dtype=np.int64)
    elif e.ndim != 2 or e.shape[1] != 2:
        raise ParameterError(f"{what}s must be an (m, 2) array, got shape {e.shape}")
    else:
        if e.min() < 0 or e.max() >= n:
            raise ParameterError(f"{what} endpoint out of range")
        if (e[:, 0] == e[:, 1]).any():
            raise ParameterError("self loops are not allowed")
        if undirected:
            e = np.sort(e, axis=1)
        # rows sort in the order of their keys u * n + v
        key = np.sort(e[:, 0] * n + e[:, 1])
        key = key[np.concatenate([[True], key[1:] != key[:-1]])]
        e = np.column_stack([key // n, key % n])
    e.setflags(write=False)
    return n, e


class Graph:
    """Undirected simple graph on vertices ``0..n-1``.

    Edges are canonical: an (m, 2) int64 array with ``edges[:, 0] <
    edges[:, 1]``, lexicographically sorted and free of duplicates.
    """

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n, edges=None):
        self.n, self._edges = _canonical(n, edges, "edge", undirected=True)
        self._adj = None

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def edge_count(self) -> int:
        return int(len(self._edges))

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 array of length n."""
        deg = np.zeros(self.n, dtype=np.int64)
        if len(self._edges):
            deg += np.bincount(self._edges[:, 0], minlength=self.n)
            deg += np.bincount(self._edges[:, 1], minlength=self.n)
        return deg

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of vertex ``v``."""
        if not 0 <= v < self.n:
            raise ParameterError(f"vertex {v} out of range for n={self.n}")
        if self._adj is None:
            e = self._edges
            src = np.concatenate([e[:, 0], e[:, 1]])
            dst = np.concatenate([e[:, 1], e[:, 0]])
            order = np.lexsort((dst, src))
            src = src[order]
            indptr = np.searchsorted(src, np.arange(self.n + 1))
            self._adj = (indptr, dst[order])
        indptr, dst = self._adj
        return dst[indptr[v]:indptr[v + 1]]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._edges, other._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


class DiGraph:
    """Directed simple graph; arcs stored as a lexicographically sorted
    distinct (m, 2) int64 array of (tail, head) pairs.
    """

    __slots__ = ("n", "_arcs")

    def __init__(self, n, arcs=None):
        self.n, self._arcs = _canonical(n, arcs, "arc", undirected=False)

    @property
    def edges(self) -> np.ndarray:
        return self._arcs

    @property
    def edge_count(self) -> int:
        return int(len(self._arcs))

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if len(self._arcs):
            deg += np.bincount(self._arcs[:, 0], minlength=self.n)
        return deg

    def in_degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if len(self._arcs):
            deg += np.bincount(self._arcs[:, 1], minlength=self.n)
        return deg

    def undirected_view(self) -> Graph:
        """Underlying undirected graph; opposite arcs merge into one edge."""
        return Graph(self.n, self._arcs)

    def __eq__(self, other):
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._arcs, other._arcs))

    def __repr__(self):
        return f"DiGraph(n={self.n}, arcs={self.edge_count})"


def undirected_view(g) -> Graph:
    """Coerce a Graph or DiGraph to an undirected Graph."""
    if isinstance(g, Graph):
        return g
    if isinstance(g, DiGraph):
        return g.undirected_view()
    raise ParameterError(f"expected Graph or DiGraph, got {type(g).__name__}")


def intersect(a, b) -> Graph:
    """Edge intersection of two graphs on the same vertex set.

    Directed inputs are first collapsed to their undirected views.
    """
    ga = undirected_view(a)
    gb = undirected_view(b)
    if ga.n != gb.n:
        raise ParameterError(f"vertex counts differ: {ga.n} != {gb.n}")
    n = ga.n
    if n == 0 or ga.edge_count == 0 or gb.edge_count == 0:
        return Graph(n)
    ka = ga.edges[:, 0] * n + ga.edges[:, 1]
    kb = gb.edges[:, 0] * n + gb.edges[:, 1]
    kc = np.intersect1d(ka, kb, assume_unique=True)
    return Graph(n, np.column_stack([kc // n, kc % n]))


def _as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


# ---------------------------------------------------------------------------
# Gabriel / relative-neighborhood pipeline


def _ball_pairs(tree, rows, centres, radii):
    """(row, point) pairs for every point of ``tree`` within each ball."""
    lists = tree.query_ball_point(centres, radii)
    cnt = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    hits = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(cnt.sum()))
    return np.repeat(rows, cnt), hits


def _inside(P, wit, u, v, mid, duv2, kind):
    """Whether each point ``wit`` lies strictly inside the open region of
    the pair (u, v) in the same row; never for u and v themselves."""
    wx = P[wit, 0]
    wy = P[wit, 1]
    if kind == GABRIEL:
        ddx = wx - mid[:, 0]
        ddy = wy - mid[:, 1]
        inside = ddx * ddx + ddy * ddy < duv2 / 4.0
    else:
        dux = wx - P[u, 0]
        duy = wy - P[u, 1]
        dvx = wx - P[v, 0]
        dvy = wy - P[v, 1]
        inside = (dux * dux + duy * duy < duv2) & (dvx * dvx + dvy * dvy < duv2)
    return inside & (wit != u) & (wit != v)


def _full_test(P, Q, tree, u, v, kind, slack):
    """Exact emptiness test for candidate pairs. Returns a keep mask.

    ``Q`` is P scaled by a power of two and ``tree`` indexes it; the
    predicates run on P itself. The region lies inside a ball around the
    rounded midpoint the Gabriel predicate uses, widened by ``slack``:
    the lune's ball is centred off the exact midpoint, and subnormal
    squares round coarsely. A pair whose squared length overflows has
    its witnesses anywhere, so its ball holds every point. The nearest
    points to the midpoint settle most pairs: a witness among them kills
    the pair, and when the farthest of them lies outside the ball they
    are all the ball holds. The rest fetch their whole ball."""
    m = len(u)
    k = min(_NEAREST, len(P))
    out = np.zeros(m, dtype=bool)
    B = 32768
    for lo in range(0, m, B):
        uu = u[lo:lo + B]
        vv = v[lo:lo + B]
        mb = len(uu)
        mid = (P[uu] + P[vv]) / 2.0
        dx = P[vv, 0] - P[uu, 0]
        dy = P[vv, 1] - P[uu, 1]
        duv2 = dx * dx + dy * dy
        qmid = (Q[uu] + Q[vv]) / 2.0
        dq = Q[vv] - Q[uu]
        d = np.sqrt((dq * dq).sum(axis=1))
        r = (0.5 if kind == GABRIEL else math.sqrt(3.0) / 2.0) * d * (1.0 + 1e-9) + slack
        # |Q| <= 1, so this radius reaches every point
        r[~np.isfinite(duv2)] = 4.0
        dk, ik = tree.query(qmid, k=k)
        rp = np.repeat(np.arange(mb), k)
        dead = _inside(P, ik.reshape(-1), uu[rp], vv[rp], mid[rp], duv2[rp], kind)
        dead = dead.reshape(mb, k).any(axis=1)
        # with k == n the nearest points are all the points
        far = dk[:, -1] if k < len(P) else np.inf
        rows = np.flatnonzero(~dead & (far <= r))
        rp, wit = _ball_pairs(tree, rows, qmid[rows], r[rows])
        inside = _inside(P, wit, uu[rp], vv[rp], mid[rp], duv2[rp], kind)
        dead[rp[inside]] = True
        out[lo:lo + mb] = ~dead
    return out


def _ulp_slack(P, floor) -> float:
    """Absolute coordinate uncertainty that covers the rounding of a
    midpoint, with a wide safety factor, and at least ``floor``."""
    return max(_ULP_SLACK * _EPS * float(np.abs(P).max()), floor)


def _incircle(P, abc, d, slack):
    """Float incircle test of points ``d`` against triangles ``abc``.

    Returns (value, allowance, noisy): value > 0 when d lies inside the
    circumcircle; values within the allowance of zero count as
    cocircular. The allowance covers the relative tolerance and a
    coordinate uncertainty of ``slack``; ``noisy`` marks where the
    latter dominates."""
    D = P[d]
    ax, ay = (P[abc[:, 0]] - D).T
    bx, by = (P[abc[:, 1]] - D).T
    cx, cy = (P[abc[:, 2]] - D).T
    al = ax * ax + ay * ay
    bl = bx * bx + by * by
    cl = cx * cx + cy * cy
    det = al * (bx * cy - cx * by) + bl * (cx * ay - ax * cy) + cl * (ax * by - bx * ay)
    perm = (
        al * (np.abs(bx * cy) + np.abs(cx * by))
        + bl * (np.abs(cx * ay) + np.abs(ax * cy))
        + cl * (np.abs(ax * by) + np.abs(bx * ay))
    )
    orient = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    span = np.abs(np.column_stack([ax, ay, bx, by, cx, cy])).max(axis=1)
    rel = _COCIRCULAR_TOL * perm
    noise = slack * span ** 3
    return det * np.sign(orient), rel + noise, noise > rel


def _circumcircles(P, T):
    """Circumcentres of triangles T and upper bounds on their radii;
    neither is finite for a degenerate triangle."""
    A = P[T[:, 0]]
    b = P[T[:, 1]] - A
    c = P[T[:, 2]] - A
    bl = (b * b).sum(axis=1)
    cl = (c * c).sum(axis=1)
    cross = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.column_stack([c[:, 1] * bl - b[:, 1] * cl, b[:, 0] * cl - c[:, 0] * bl])
        off /= 2.0 * cross[:, None]
        r = np.hypot(off[:, 0], off[:, 1]) * (1.0 + 8.0 * _EPS * np.maximum(bl, cl) / np.abs(cross))
    return A + off, r


def _conflicts(P, tree, T, tris, dropped, slack):
    """(triangle, point, strict) for each point strictly inside the
    circumcircle of one of the triangles ``tris``, and each dropped point
    on it. The fetch ball around a vertex has twice the radius bound, so
    it covers the circumdisk without trusting the rounded centre."""
    _, r = _circumcircles(P, T[tris])
    ok = np.isfinite(r)
    ti, pt = _ball_pairs(tree, tris[ok], P[T[tris[ok], 0]], 2.0 * r[ok] * (1.0 + 1e-9) + slack)
    other = (T[ti] != pt[:, None]).all(axis=1)
    ti = ti[other]
    pt = pt[other]
    ins, tol, _ = _incircle(P, T[ti], pt, slack)
    keep = (ins > tol) | (dropped[pt] & (ins >= -tol))
    return ti[keep], pt[keep], ins[keep] > tol[keep]


def _hole_pairs(P, tree, T, nb, hole, dropped, slack, floor) -> np.ndarray:
    """Pairs inside the holes where Qhull's triangulation is not Delaunay.

    Holes grow from the seed triangles in ``hole`` across every neighbour
    in conflict with a point, so each ends up a connected set of
    triangles that holds every Delaunay edge Qhull missed there, with
    both its endpoints. The core points (the conflicting points and the
    vertices of strictly conflicting triangles) pair as this construction
    finds for them alone; every other hole point pairs with all of the
    hole's points."""
    n = len(P)
    m = len(T)
    found = []
    tris = np.flatnonzero(hole)
    while len(tris):
        ti, pt, strict = _conflicts(P, tree, T, tris, dropped, slack)
        found.append((ti, pt, strict))
        hole[ti] = True
        tris = np.setdiff1d(nb[ti].ravel(), np.flatnonzero(hole))
        tris = tris[tris >= 0]
    ti, pt, strict = (np.concatenate(x) for x in zip(*found))
    t, k = np.nonzero(nb >= 0)
    s = nb[t, k]
    both = hole[t] & hole[s]
    links = coo_matrix((np.ones(int(both.sum())), (t[both], s[both])), shape=(m, m))
    label = connected_components(links, directed=False)[1]
    core = np.zeros(n, dtype=bool)
    core[pt] = True
    core[T[ti[strict]].ravel()] = True
    ht = np.flatnonzero(hole)
    key = np.unique(
        np.concatenate([np.repeat(label[ht], 3), label[ti]]) * n
        + np.concatenate([T[ht].ravel(), pt])
    )
    labs = key // n
    out = []
    for members in np.split(key % n, np.flatnonzero(np.diff(labs)) + 1):
        inner = members[core[members]]
        a, b = np.meshgrid(members[~core[members]], members)
        out.append(np.column_stack([a.ravel(), b.ravel()]))
        if len(inner) == n:
            # nothing smaller to recurse on: Qhull resolves none of it
            out.append(np.column_stack(np.triu_indices(n, k=1)))
        elif len(inner) >= 2:
            out.append(inner[_candidate_pairs(P[inner], cKDTree(P[inner]), floor)])
    return np.concatenate(out)


def _line_pairs(P, slack):
    """Candidate pairs from the points' order along their principal axis.

    The sorted points split into runs wherever consecutive points are at
    least ``gap`` apart along the axis. A point of a run strictly between
    two others lies inside their diametral disk and lune by a margin above
    ``gap**2 - (2 * width)**2``, which covers the rounding of the raw
    predicates; so only pairs within one run or two adjacent runs remain."""
    n = len(P)
    c = P - P.mean(axis=0)
    axes = np.linalg.eigh(c.T @ c)[1]
    width = np.abs(c @ axes[:, 0]).max()
    s = c @ axes[:, 1]
    order = np.argsort(s, kind="stable")
    s = s[order]
    span = s[-1] - s[0]
    gap = 2.0 * width + math.sqrt(slack * (span + slack) + _ULP_SLACK * _EPS * span * span)
    run = np.concatenate([[0], np.cumsum(np.diff(s) >= gap)])
    cnt = np.searchsorted(run, run + 2) - np.arange(n) - 1
    i = np.repeat(np.arange(n), cnt)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return np.column_stack([order[i], order[j]])


def _candidate_pairs(P, tree, floor) -> np.ndarray:
    """Pairs (u, v), u != v, that include every Gabriel and every
    relative-neighborhood edge of P; see the module docstring. ``tree``
    indexes P, and ``floor`` bounds the coordinate uncertainty below."""
    n = len(P)
    slack = _ulp_slack(P, floor)
    try:
        tri = Delaunay(P - P.min(axis=0))
    except QhullError:
        return _line_pairs(P, slack)
    T = tri.simplices.astype(np.int64)
    if (T >= n).any():
        # Qhull's point at infinity leaks into the output of nearly flat input
        return _line_pairs(P, slack)
    nb = tri.neighbors.astype(np.int64)
    m = len(T)
    # every edge once: where the neighbour across it has a higher index
    t, k = np.nonzero((nb > np.arange(m)[:, None]) | (nb < 0))
    pairs = np.column_stack([T[t, (k + 1) % 3], T[t, (k + 2) % 3]])
    shared = nb[t, k] >= 0
    t = t[shared]
    k = k[shared]
    s = nb[t, k]
    opp = T[s, np.argmax(nb[s] == t[:, None], axis=1)]
    ins, tol, noisy = _incircle(P, T[t], opp, slack)
    extra = []
    cocircular = np.abs(ins) <= tol
    near = cocircular & ~noisy
    # a pair cocircular only up to rounding is treated as a hole
    bad = (ins > tol) | (cocircular & noisy)
    if near.any():
        # a cocircular quadrilateral's other diagonal, and the diameters of
        # larger cocircular sets
        tn = np.union1d(t[near], s[near])
        centre, r = _circumcircles(P, T[tn])
        anti = (2.0 * centre[:, None, :] - P[T[tn]]).reshape(-1, 2)
        rad = np.repeat(_ANTIPODE_TOL * r + slack, 3)
        ok = np.isfinite(anti).all(axis=1) & np.isfinite(rad)
        extra.append(np.column_stack([T[t[near], k[near]], opp[near]]))
        extra.append(np.column_stack(_ball_pairs(tree, T[tn].ravel()[ok], anti[ok], rad[ok])))
    hole = np.zeros(m, dtype=bool)
    hole[t[bad]] = True
    hole[s[bad]] = True
    dropped = np.ones(n, dtype=bool)
    dropped[T.ravel()] = False
    if dropped.any():
        # Qhull dropped these as coplanar; each conflicts with a triangle
        # at its nearest vertex
        vert = np.flatnonzero(~dropped)
        near_v = cKDTree(P[vert]).query(P[dropped])[1]
        hole |= np.isin(T, vert[near_v]).any(axis=1)
    if hole.any():
        extra.append(_hole_pairs(P, tree, T, nb, hole, dropped, slack, floor))
    if not extra:
        return pairs
    pairs = np.concatenate([pairs] + extra)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    key = np.unique(lo[lo != hi] * n + hi[lo != hi])
    return np.column_stack([key // n, key % n])


def _proximity_edges(points: PointSet, kind: str) -> np.ndarray:
    P = points.coords
    n = len(P)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    # scaling by a power of two is exact, so the geometry of Q is that of P,
    # but its incircle terms of degree 4 cannot overflow
    e = math.frexp(float(np.abs(P).max()))[1]
    Q = np.ldexp(P, -e)
    floor = math.ldexp(1.0, _FLOOR_EXP - e)
    tree = cKDTree(Q)
    with np.errstate(over="ignore"):
        if np.ptp(P, axis=0).max() >= 2.0 ** _OVERFLOW_EXP:
            # the raw squared distances overflow and stop following the
            # geometry, so every pair is a candidate
            cand = np.column_stack(np.triu_indices(n, k=1))
        else:
            cand = _candidate_pairs(Q, tree, floor)
        keep = _full_test(P, Q, tree, cand[:, 0], cand[:, 1], kind, _ulp_slack(Q, floor))
    return cand[keep]


def gabriel(points) -> Graph:
    """Gabriel graph: u ~ v iff the open disk with diameter uv contains
    no other point of the set."""
    pts = _as_point_set(points)
    return Graph(pts.n, _proximity_edges(pts, GABRIEL))


def rng_graph(points) -> Graph:
    """Relative-neighborhood graph: u ~ v iff no other point is strictly
    closer to both u and v than they are to each other."""
    pts = _as_point_set(points)
    return Graph(pts.n, _proximity_edges(pts, RNG))


def gabriel_naive(points) -> Graph:
    """Quadratic-scan Gabriel reference; same predicate expressions as
    the fast builder."""
    pts = _as_point_set(points)
    P = pts.coords
    n = len(P)
    edges = []
    for i in range(n - 1):
        V = P[i + 1:]
        mid = (P[i] + V) / 2.0
        rhs = ((V - P[i]) ** 2).sum(axis=1) / 4.0
        ddx = P[None, :, 0] - mid[:, None, 0]
        ddy = P[None, :, 1] - mid[:, None, 1]
        inside = ddx * ddx + ddy * ddy < rhs[:, None]
        inside[:, i] = False
        rows = np.arange(i + 1, n)
        inside[np.arange(len(V)), rows] = False
        for j in rows[~inside.any(axis=1)]:
            edges.append((i, int(j)))
    return Graph(n, np.asarray(edges, dtype=np.int64) if edges else None)


def rng_naive(points) -> Graph:
    """Quadratic-scan relative-neighborhood reference."""
    pts = _as_point_set(points)
    P = pts.coords
    n = len(P)
    dx = P[None, :, 0] - P[:, None, 0]
    dy = P[None, :, 1] - P[:, None, 1]
    d2 = dx * dx + dy * dy
    edges = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            d2ij = d2[i, j]
            inside = (d2[i] < d2ij) & (d2[j] < d2ij)
            inside[i] = False
            inside[j] = False
            if not inside.any():
                edges.append((i, j))
    return Graph(n, np.asarray(edges, dtype=np.int64) if edges else None)


# ---------------------------------------------------------------------------
# Yao graph


# row blocks and dense chunks hold about this many (row, point) pairs
_BLOCK = 2 ** 18

# cone edges are widened by this angle for the bounding box test
_WIDEN = 1e-9

# squared lengths below this are subnormal or close to it and lose their
# relative precision, so they settle nothing
_TINY = 2.0 ** -960


def _cone_nearest(P, rows, cols, spec: ConeSpec):
    """Per row and cone, the nearest of the row's ``cols`` in the cone and
    its squared distance; the head is -1 where the cone holds none.

    ``cols`` is an (m, k) array sorted along each row, or one sorted index
    array shared by every row, so the first minimum breaks ties toward the
    smaller index. The row itself lies in no cone. Cone membership is kept
    apart from the distance, which may overflow: when every point of a cone
    is at infinite distance, the first of them wins."""
    dx = P[cols, 0] - P[rows, 0][:, None]
    dy = P[cols, 1] - P[rows, 1][:, None]
    d2 = dx * dx + dy * dy
    a = np.arctan2(dy, dx) - spec.offset
    # a % TWO_PI for a in [-3*pi, pi], bit for bit: adding one or two
    # TWO_PI rounds once, as the float remainder does, at a tenth the cost
    a += ((a < 0.0).astype(np.float64) + (a < -TWO_PI)) * TWO_PI
    r = a / spec.theta
    cone = np.minimum(r.astype(np.int64), spec.p - 1)
    # NumPy's arctan2 may differ from math.atan2 in the last bit (it does on
    # CPUs with AVX-512), so near a cone edge take the index cone_index
    # gives; both return the rounded multiple of pi/4 on axes and diagonals
    near = np.flatnonzero(np.abs(r - np.rint(r)) <= 1e-12 * spec.p)
    x = dx.flat[near]
    y = dy.flat[near]
    for i in near[(x != 0.0) & (y != 0.0) & (np.abs(x) != np.abs(y))]:
        cone.flat[i] = cone_index((0.0, 0.0), (dx.flat[i], dy.flat[i]), spec) - 1
    cols = np.broadcast_to(cols, cone.shape)
    cone[cols == rows[:, None]] = -1
    m = len(rows)
    rl = np.arange(m)
    heads = np.full((m, spec.p), -1, dtype=np.int64)
    hd2 = np.full((m, spec.p), np.inf)
    for c in range(spec.p):
        inc = cone == c
        dc = np.where(inc, d2, np.inf)
        j = np.argmin(dc, axis=1)
        far = dc[rl, j] == np.inf
        j[far] = np.argmax(inc[far], axis=1)
        hit = inc[rl, j]
        heads[hit, c] = cols[rl[hit], j[hit]]
        hd2[hit, c] = d2[rl[hit], j[hit]]
    return heads, hd2


def _cone_reach(P, rows, spec: ConeSpec):
    """Squared distance from each row point to the farthest point of each
    cone, widened by ``_WIDEN``, within the points' bounding box.

    The farthest point of the clipped cone is a vertex: the exit of an edge
    ray from the box, or a box corner inside the cone. Corners are tested
    against a cone widened twice, so the rounding of their angles cannot
    drop one that matters. Overflow or a degenerate ray yields inf or nan,
    which certifies nothing."""
    lo = P.min(axis=0)
    hi = P.max(axis=0)
    u = P[rows]
    start = spec.offset + spec.theta * np.arange(spec.p) - _WIDEN
    ang = np.concatenate([start, start + spec.theta + 2.0 * _WIDEN])
    d = np.column_stack([np.cos(ang), np.sin(ang)])
    # exit parameter of every edge ray along each axis; the nearer one wins
    bound = np.where(d[None] > 0.0, hi, lo) - u[:, None, :]
    t = (bound / d[None]).min(axis=2)
    ends = (t * t).reshape(len(rows), 2, spec.p).max(axis=1)
    corners = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    v = corners[None] - u[:, None, :]
    cd2 = (v * v).sum(axis=2)
    ca = np.arctan2(v[..., 1], v[..., 0])
    inside = (ca[..., None] - start + _WIDEN) % TWO_PI <= spec.theta + 4.0 * _WIDEN
    return np.maximum(ends, np.where(inside, cd2[..., None], 0.0).max(axis=1))


def _as_arcs(rows, heads) -> np.ndarray:
    """(row, head) arcs for every cone that has a head."""
    has = heads >= 0
    return np.column_stack([np.repeat(rows, has.sum(axis=1)), heads[has]])


def _yao_dense(P, spec: ConeSpec, rows=None) -> np.ndarray:
    """Exact cone scan of ``rows`` (default: every point) against all
    points, in row chunks of about ``_BLOCK`` pairs."""
    n = len(P)
    cols = np.arange(n)
    rows = cols if rows is None else rows
    B = max(1, _BLOCK // n)
    out = [np.empty((0, 2), dtype=np.int64)]
    with np.errstate(over="ignore"):
        for lo in range(0, len(rows), B):
            r = rows[lo:lo + B]
            out.append(_as_arcs(r, _cone_nearest(P, r, cols, spec)[0]))
    return np.concatenate(out)


def _yao_knn(P, spec: ConeSpec) -> np.ndarray:
    """Staged nearest-neighbour search with an exact scan of the rest.

    A row is settled by its k nearest points when every cone is: a winner
    strictly inside the search horizon cannot be displaced by a point not
    seen, and an empty cone is empty when its part of the bounding box
    lies strictly inside the horizon (``_cone_reach``), or the search saw
    every point. Two stages run; the rows left get an exact scan."""
    n = len(P)
    # the tree indexes P scaled by a power of two, which is exact, so its
    # distances cannot overflow
    e = math.frexp(float(np.abs(P).max()))[1]
    Q = np.ldexp(P, -e)
    tree = cKDTree(Q)
    out = []
    pending = np.arange(n, dtype=np.int64)
    k = min(n - 1, 4 * spec.p + 16)
    for _ in range(2):
        left = []
        B = max(1, _BLOCK // (k + 1))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for lo in range(0, len(pending), B):
                rows = pending[lo:lo + B]
                dk, ik = tree.query(Q[rows], k=k + 1)
                heads, hd2 = _cone_nearest(P, rows, np.sort(ik, axis=1), spec)
                if k == n - 1:
                    out.append(_as_arcs(rows, heads))
                    continue
                # every point not seen is at least this far away; the margin
                # covers the rounding of both distances
                h = dk[:, -1] * (1.0 - 1e-12)
                H = np.ldexp(h, e) ** 2
                H[~((h * h >= _TINY) & (H >= _TINY) & (H < np.inf))] = 0.0
                empty = heads < 0
                need = empty.any(axis=1)
                reach = _cone_reach(P, rows[need], spec) * (1.0 + 1e-9)
                hd2[need] = np.where(empty[need], reach, hd2[need])
                done = (hd2 < H[:, None]).all(axis=1)
                out.append(_as_arcs(rows[done], heads[done]))
                left.append(rows[~done])
        pending = np.concatenate(left) if left else pending[:0]
        k = min(n - 1, 4 * k)
    out.append(_yao_dense(P, spec, pending))
    return np.concatenate(out)


def yao(points, spec: ConeSpec) -> DiGraph:
    """Directed Yao graph for the given cone partition: each point sends
    one arc to its nearest neighbor inside each cone, ties broken toward
    the smaller point index."""
    pts = _as_point_set(points)
    if not isinstance(spec, ConeSpec):
        raise ParameterError(f"expected ConeSpec, got {type(spec).__name__}")
    n = pts.n
    if n < 2:
        return DiGraph(n)
    return DiGraph(n, _yao_knn(pts.coords, spec))


def unit_disk_graph(points, radius) -> Graph:
    """u ~ v iff dist(u, v) <= radius, boundary included."""
    pts = _as_point_set(points)
    if not isinstance(radius, (int, float)) or isinstance(radius, bool):
        raise ParameterError(f"radius must be a number, got {radius!r}")
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ParameterError(f"radius must be positive and finite, got {radius!r}")
    tree = cKDTree(pts.coords)
    pairs = tree.query_pairs(radius * (1.0 + 1e-12), output_type="ndarray")
    if len(pairs):
        P = pts.coords
        d = np.hypot(
            P[pairs[:, 1], 0] - P[pairs[:, 0], 0],
            P[pairs[:, 1], 1] - P[pairs[:, 0], 1],
        )
        pairs = pairs[d <= radius]
    return Graph(pts.n, pairs)

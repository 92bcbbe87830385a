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
output can hold most pairs anyway. Such a pair is tested against every
point in bounded chunks rather than through a ball holding them all.

The argument assumes that Qhull's output is a valid triangulation of
the points it keeps, with no overlapping triangles outside the holes;
differential tests against the references on adversarial layouts back
it. It does not depend on the order of the input: Qhull runs on the
points in the kd-tree's leaf order, so that near points are near in
memory, and the order only changes choices the candidates cover anyway,
such as which diagonal of a cocircular quadrilateral it draws or which
point of a coplanar pair it drops.

Testing. Each candidate comes with two points to test first, the
vertices opposite its edge in the two adjacent triangles. In exact
arithmetic a Delaunay edge is a Gabriel edge exactly when neither lies
in its disk, that is, when neither angle opposite the edge is obtuse
(the fact behind Matula & Sokal's result), and most pairs that are not
relative-neighborhood edges have one in the lune. The test is the raw
predicate itself, and a real point that passes it is a witness, so a
pair it kills is no edge of the reference either: the kill needs no
allowance and no step of its own in the argument. Where a pair has no
opposite vertex (one side of a hull edge, the antipode, hole and line
pairs, and every pair when all pairs are candidates) one of its own ends
stands in, which the predicate never counts; the other diagonal of a
cocircular quadrilateral takes the shared edge's ends. The survivors
fetch their nearest points to the midpoint: three for Gabriel, where a
surviving edge's ends are the two nearest, so the third decides, and
four for the relative neighborhood graph, whose lune's ball holds more
points.

Certificate. ``gabriel`` keeps a shared edge of the triangulation with
no test at all, neither opposite vertex nor query, when the
triangulation proves its disk empty under the raw predicate. Below, e =
2**-53 is the unit roundoff, and lengths are in the scaled points Q,
whose geometry is the input's (a coordinate that turns subnormal moves
by at most 2**-1075, which the band below covers). Underflow adds an
absolute error of at most 2**-1075 to an operation; the least edge
length below makes that negligible against every allowance.

The global precondition, checked once per call: Qhull dropped no point;
the incircle value of every shared edge is below minus its allowance,
so no triangle is in a hole; for every shared edge uv, with opposite
vertices w and w', the float cross products (u - w) x (v - w) and (u -
w') x (v - w') have opposite signs and exceed 1e-12 L**2 in size, where
L is the longest of uw, vw, uw' and vw'; and every edge's squared length
is at least 2**-600. Then every shared edge is strictly locally Delaunay
in exact arithmetic:

- Each difference rounds once and each product and sum once more, so a
  dot or cross product of the edge is off by at most 4.1e L**2, far
  below 1e-12 L**2. The signs are exact, so w and w' lie on opposite
  sides of uv.
- ``_incircle`` multiplies the determinant by the sign of an
  orientation computed from differences to w'. Their span s is at most
  2L, so that orientation is off by at most 49e s**2 <= 196e L**2 from
  the triangle's, which is at least 1e-12 L**2 - 4.1e L**2 in size: the
  sign is the triangle's.
- The determinant is the expression of Shewchuk's fast incircle test,
  whose rounding is below (10 + 96e)e times the permanent (Shewchuk
  1997), far below the allowance's relative term, 1e-9 times it. With Q
  below 1 in size, no term exceeds 8, so underflow adds at most
  2**-1066; the span is at least the shortest edge over sqrt(2), so
  the allowance's absolute term, slack * span**3 >= 2**-46 * 2**-902,
  covers that.

So the value's sign is exact: w' lies strictly outside the circumcircle
of uvw. By the Delaunay lemma, a triangulation whose every shared edge
is locally Delaunay has no point inside any circumcircle, under this
module's assumption that Qhull's triangles tile the hull of the points,
each a vertex; the precondition checks that locally, at every edge.
Two facts follow, in exact arithmetic:

1. No point is nearer to a point u than u's shortest edge. Another point
   q lies in the hull, so the segment uq leaves u within the angle at u
   of some triangle uab. Along a ray from u in that angle, the
   circumdisk's chord is 2R sin t, t the angle to the tangent at u, and
   sin is concave, so the chord is at least min(|ua|, |ub|); q, not
   inside the disk, is at least that far.
2. Put uv's midpoint at 0, u and v at (-r, 0) and (r, 0), and w above.
   If the angle at w is acute, the circumcentre of uvw is (0, h) with h
   = r cot(w) > 0, and a point x = (a, b) with b >= 0 outside its open
   disk has a**2 + b**2 >= r**2 + 2bh. If also |x| < r + beta, then 2bh
   < 2r beta + beta**2, so b < b_max = beta (1 + beta / 2r) tan(w), and
   |x| >= r, so x lies within rho of u or v, where rho**2 = beta**2 + 2
   b_max**2: for a <= 0, |x - u|**2 = |x|**2 + r**2 - 2r|a| <= (|x| -
   r)**2 + 2b**2, as |a| >= |x| - b**2 / |x|. The same holds below uv
   with w'. With beta = 0, the open diametral disk holds no point: each
   half lies inside a circumdisk.

The raw predicate, with its rounded midpoint and duv2 / 4, holds for a
point x only within r + beta of the exact midpoint, beta = slack +
1e-12 |uv|. The midpoint rounds by at most sqrt(2) e times the largest
coordinate, below slack / 181. Each side of the comparison rounds by a
relative 4.01e at most, which widens the radius by a relative 4.01e at
most, below 1e-12 |uv| / r. Underflow moves the distance by at most
2**-535 input units, far below the 2**-500 floor of slack. Below a span
of 2**510, the only input that reaches a triangulation, no difference or
square overflows, and a midpoint that overflows makes the predicate
false. So a point other than u and v inside uv's disk, under the raw
predicate, lies within rho of u or v, with b_max taken for the larger of
tan(w) and tan(w'). By fact 1 there is none when u's and v's shortest
edges are longer than rho, and so none when the triangulation's shortest
edge is: one bound for every edge, with no pass over each point's edges.

A shared edge is certified when both angles are acute by a margin, each
dot product above 1e-12 L**2; the tangents are bounded above from the
float dot and cross products with that error; and the shortest edge,
squared, times 1 - 1e-9, exceeds rho**2 times 1 + 1e-9, margins that
cover the rounding of these bounds. Hull edges, hole, cocircular,
antipode and line pairs are never certified, nor is any pair where the
precondition fails. ``rng_graph`` certifies nothing: the lune does not
lie inside the two circumdisks.

Yao. ``yao`` takes one path at every size, visiting points in the
kd-tree's leaf order. The tree indexes the points scaled by a power of
two, Q, and two search stages give each point every point within some
distance of it in Q, its search radius. The first is a fixed-radius join
per group of the tree (defined below): the group takes the radius r at
which a disk holds k = 4p + 16 points at the group's density, its point
count over the area of its box, and a kd-tree over the group's points
pairs each with every point whose float distance is at most r. That
distance is off by a few ulps, so every point within r (1 - 1e-12) is
paired. The points the join leaves, and those of a group whose box has
no area, get their 4k nearest points, capped at n - 1, where the stage
sees every point and settles all. Every scan takes one winner rule: the least raw
squared distance in the cone, then the least index, which covers exact
ties and cones whose points all lie at infinite distance alike. Below
n - 1 a cone is settled by:

- a winner strictly inside the horizon H, the search radius (r, or the
  4k-th neighbour's distance) shrunk by a relative 1e-12 for the rounding
  of both distances, in input units and squared: every point not seen is
  farther;
- no point seen, and its part of the bounding box strictly inside H, so
  no point not seen can be in it. The test widens the cone by 1e-9 rad on
  each side, far beyond the error of a float cone index, so a point the
  index puts in the cone lies in the widened cone. The farthest point of
  the widened cone inside the box is a vertex of their intersection: the
  exit of an edge ray from the box, or a box corner inside the cone. A
  corner counts when the block scan's box test (below), given the corner
  as a box of its own, finds it meeting the widened cone. That vertex's
  squared distance, times 1 + 1e-9, must be below H.

A group's radius follows its mean density, so a group that spans a dense
cluster and the sparse points around it, or a far outlier, would pair
its points with most points: quadratic time and memory. A guard bounds
the join. Before it, one ball query counts for each block the points
within its box's half diagonal plus r of the box's centre, a ball that
holds every point within r of the block's points; a block whose count
exceeds 8k sends its points to the second stage, so the join pairs at
most 8kn points. The guard sets only the cost: a point it sends on is
settled by the next stage's horizon like any other.

A point with a cone left open after both stages scans only the blocks
that can hold that cone's winner. Blocks are the tree's largest subtrees
of at most 32 points, and groups its largest of at most max(sqrt(8n),
32), so that every block lies in a group. For a point u and a box
[lo, hi], float subtraction, squaring and addition are monotone, so
every point w of the box has each rounded difference w - u between
those of lo and hi, and its raw squared distance between the box's
lower bound, from the nearer ends (0 where u lies between),
and its far corner's distance. Both bounds are exact, with no margin. An
open cone's upper bound U is its search winner's raw squared distance
(inf if none), or the far corner's distance of a group or block lying
wholly inside the cone narrowed by 1e-9 rad, as every point there is in
the cone. A box misses the widened cone when its corners' rounded
differences lie strictly on the outer side of an edge line, or, for
p >= 3 where a cone is narrower than pi, behind the line normal to the
bisector; for p = 2 it misses one cone when it lies inside the other,
narrowed. Each test takes the greatest dot product over the corners,
with a margin of 1e-12 of the corner's size plus 2**-1000 for its
rounding, so a box that misses holds no point the index puts in the
cone. A group, and then a block of a kept group, is kept when its box
meets an open cone with lower bound <= U; each open cone's winner is
taken among the points of the kept blocks, and a settled cone keeps the
search's. The bound is <=, not <, because a point at distance U with a
smaller index wins the tie; the winner's block always passes.

A horizon that overflows, or lies near the subnormal range where
relative error bounds fail, is set to 0, and a vertex distance that
overflows is inf; either way nothing is certified, and the point goes on
to the next stage and then the block scan, where an infinite U or an
overflowing margin only keeps more blocks.

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

from .errors import ParameterError, check_int, check_number
from .geom import TWO_PI, ConeSpec, PointSet, as_point_set, cone_index

GABRIEL = "gabriel"
RNG = "rng"

# two adjacent triangles count as cocircular when their float incircle
# value is below this fraction of its permanent
_COCIRCULAR_TOL = 1e-9

# radius of the antipode search, as a fraction of the circle's radius
_ANTIPODE_TOL = 1e-6

# ulps of the largest coordinate allowed for the rounding of a midpoint
_ULP_SLACK = 128.0

# the certificate's relative allowance for rounding, far above the few ulps
# of each product it covers; its margin for the rounding of its own bounds;
# and the least squared edge length, against underflow (module docstring)
_CERT_REL = 1e-12
_CERT_MARGIN = 1e-9
_CERT_TINY = 2.0 ** -600

# smallest coordinate uncertainty, as a power of two in the input's units:
# below 2**-511 squared differences turn subnormal and round coarsely
_FLOOR_EXP = -500

# raw spans from this power of two on can overflow squared distances
_OVERFLOW_EXP = 510

_EPS = float(np.finfo(np.float64).eps)

# blocks and chunks of every chunked scan hold about this many
# (row, point) pairs
_BLOCK = 2 ** 18

# rows per chunk of the per-edge triangulation tests
_CHUNK = 2 ** 15

# nearest points to a pair's midpoint fetched before its whole ball. A
# Gabriel edge's ends are the two nearest, so the third decides; the
# lune's ball holds more points, and one more settles most RNG pairs
_NEAREST = {GABRIEL: 3, RNG: 4}


def _canonical(n, pairs, what, undirected):
    """Validate a vertex count and an (m, 2) array of vertex pairs, and
    return both canonical: a read-only int64 array of distinct pairs in
    lexicographic order, each with u < v when ``undirected``."""
    n = check_int("vertex count", n, 0)
    e = pairs
    if not (isinstance(e, np.ndarray) and e.dtype.kind in "iu"):
        e = np.asarray([] if e is None else e, dtype=object)
        # one value of each type stands for all; the range test checks values
        for x in {type(x): x for x in e.flat}.values():
            check_int(f"{what} endpoint", x, 0)
    try:
        e = np.asarray(e, dtype=np.int64)
    except OverflowError:
        raise ParameterError(f"{what} endpoint out of range") from None
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


class _PairGraph:
    """The body Graph and DiGraph share: a vertex count and a canonical
    pair array. ``_adj`` caches Graph's adjacency or DiGraph's undirected
    view; both classes are immutable."""

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n, edges=None):
        self.n, self._edges = _canonical(n, edges, self._WHAT, self._UNDIRECTED)
        self._adj = None

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def edge_count(self) -> int:
        return int(len(self._edges))

    def _count(self, col) -> np.ndarray:
        """Occurrences of each vertex in column ``col`` of the pairs."""
        return np.bincount(self._edges[:, col], minlength=self.n)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._edges, other._edges))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {self._WHAT}s={self.edge_count})"


class Graph(_PairGraph):
    """Undirected simple graph on vertices ``0..n-1``.

    Edges are canonical: an (m, 2) int64 array with ``edges[:, 0] <
    edges[:, 1]``, lexicographically sorted and free of duplicates.
    """

    __slots__ = ()

    _WHAT = "edge"
    _UNDIRECTED = True

    def degrees(self) -> np.ndarray:
        """Vertex degrees as an int64 array of length n."""
        return self._count(0) + self._count(1)

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


class DiGraph(_PairGraph):
    """Directed simple graph; arcs stored as a lexicographically sorted
    distinct (m, 2) int64 array of (tail, head) pairs.
    """

    __slots__ = ()

    _WHAT = "arc"
    _UNDIRECTED = False

    def out_degrees(self) -> np.ndarray:
        return self._count(0)

    def in_degrees(self) -> np.ndarray:
        return self._count(1)

    def undirected_view(self) -> Graph:
        """Underlying undirected graph; opposite arcs merge into one edge."""
        if self._adj is None:
            self._adj = Graph(self.n, self._edges)
        return self._adj


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
    ka = ga.edges[:, 0] * n + ga.edges[:, 1]
    kb = gb.edges[:, 0] * n + gb.edges[:, 1]
    return Graph(n, ga.edges[np.isin(ka, kb)])


# ---------------------------------------------------------------------------
# Gabriel / relative-neighborhood pipeline


def _ball_pairs(tree, rows, centres, radii, p=2.0):
    """(row, point) pairs for every point of ``tree`` within each
    Minkowski-``p`` ball, grouped by ball."""
    lists = tree.query_ball_point(centres, radii, p=p)
    cnt = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    hits = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(cnt.sum()))
    return np.repeat(rows, cnt), hits


def _inside(xy, wit, u, v, mid, duv2, kind):
    """Whether each point ``wit`` lies strictly inside the open region of
    the pair (u, v) in the same row, the arguments broadcast together;
    never for u and v themselves. ``xy`` is the points' coordinates and
    ``mid`` the pairs' rounded midpoints, both x first (``P.T``), as
    gathers from a coordinate's column beat indexing points by rows."""
    x, y = xy
    wx = x[wit]
    wy = y[wit]
    if kind == GABRIEL:
        ddx = wx - mid[0]
        ddy = wy - mid[1]
        inside = ddx * ddx + ddy * ddy < duv2 / 4.0
    else:
        dux = wx - x[u]
        duy = wy - y[u]
        dvx = wx - x[v]
        dvy = wy - y[v]
        inside = (dux * dux + duy * duy < duv2) & (dvx * dvx + dvy * dvy < duv2)
    return inside & (wit != u) & (wit != v)


def _placeholders(pairs):
    """Pairs (u, v) as candidates (u, v, u, u): no witness to try first."""
    return pairs[:, [0, 1, 0, 0]]


def _all_pairs(n):
    """Every pair of n points as candidates."""
    return _placeholders(np.column_stack(np.triu_indices(n, k=1)))


def _scan_all(xy, u, v, mid, duv2, kind):
    """Whether each pair's region holds a point, tested against every point
    in chunks of about ``_BLOCK`` (pair, point) tests; the arguments are
    ``_inside``'s."""
    n = len(xy[0])
    R = max(1, _BLOCK // n)
    wit = np.arange(n)
    dead = np.zeros(len(u), dtype=bool)
    for lo in range(0, len(u), R):
        c = slice(lo, lo + R)
        # a named mask, not one inlined into the next line, which measured
        # about 25% slower on 300 points times 1e155
        inside = _inside(xy, wit, u[c, None], v[c, None], mid[:, c, None], duv2[c, None], kind)
        dead[c] = inside.any(axis=1)
    return dead


def _full_test(P, Q, tree, cand, kind, slack, sure=None):
    """Exact emptiness test for candidates (u, v, a, b), where a and b are
    witnesses to try first: the vertices opposite the pair in the
    triangulation, or u as a placeholder. Returns a keep mask.

    Rows marked in ``sure`` (None for none) are certified Gabriel edges
    (``_certified``): they are kept untested, with no witness tried and no
    query. ``Q`` is P scaled by a power of two and ``tree`` indexes it; the
    predicates run on P itself. A pair with a or b inside its region is
    dead. Of the rest, the region lies inside a ball around the rounded
    midpoint the Gabriel predicate uses, widened by ``slack``: the lune's
    ball is centred off the exact midpoint, and subnormal squares round
    coarsely. The nearest points to the midpoint settle most pairs: a
    witness among them kills the pair, and when the farthest of them lies
    outside the ball they are all the ball holds. The rest fetch their
    whole ball, except pairs whose squared length overflows, which have
    their witnesses anywhere and are tested against every point."""
    m = len(cand)
    k = min(_NEAREST[kind], len(P))
    if sure is None:
        out = np.zeros(m, dtype=bool)
        todo = np.arange(m)
    else:
        out = sure.copy()
        todo = np.flatnonzero(~sure)
    x, y = xy = P.T
    qx, qy = Q.T
    B = _BLOCK // k
    for lo in range(0, len(todo), B):
        at = todo[lo:lo + B]
        c = cand[at]
        uu = c[:, 0]
        vv = c[:, 1]
        ux, uy, vx, vy = x[uu], y[uu], x[vv], y[vv]
        mid = np.stack([(ux + vx) / 2.0, (uy + vy) / 2.0])
        dx = vx - ux
        dy = vy - uy
        duv2 = dx * dx + dy * dy
        live = ~_inside(xy, c[:, 2:], uu[:, None], vv[:, None], mid[:, :, None], duv2[:, None], kind).any(axis=1)
        at = at[live]
        uu = uu[live]
        vv = vv[live]
        mid = mid[:, live]
        duv2 = duv2[live]
        ux, uy, vx, vy = qx[uu], qy[uu], qx[vv], qy[vv]
        qmid = np.column_stack([(ux + vx) / 2.0, (uy + vy) / 2.0])
        dx = vx - ux
        dy = vy - uy
        d = np.sqrt(dx * dx + dy * dy)
        r = (0.5 if kind == GABRIEL else math.sqrt(3.0) / 2.0) * d * (1.0 + 1e-9) + slack
        dk, ik = tree.query(qmid, k=k)
        dead = _inside(xy, ik, uu[:, None], vv[:, None], mid[:, :, None], duv2[:, None], kind).any(axis=1)
        # with k == n the nearest points are all the points
        far = dk[:, -1] if k < len(P) else np.inf
        wide = ~np.isfinite(duv2)
        rows = np.flatnonzero(~dead & ~wide & (far <= r))
        rp, wit = _ball_pairs(tree, rows, qmid[rows], r[rows])
        inside = _inside(xy, wit, uu[rp], vv[rp], mid[:, rp], duv2[rp], kind)
        dead[rp[inside]] = True
        rows = np.flatnonzero(~dead & wide)
        dead[rows] = _scan_all(xy, uu[rows], vv[rows], mid[:, rows], duv2[rows], kind)
        out[at] = ~dead
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
    latter dominates. Rows go in chunks of ``_CHUNK``, whose temporaries
    stay in cache."""
    m = len(d)
    x, y = P[:, 0], P[:, 1]
    value = np.empty(m)
    allowance = np.empty(m)
    noisy = np.empty(m, dtype=bool)
    for lo in range(0, m, _CHUNK):
        c = slice(lo, lo + _CHUNK)
        dx = x[d[c]]
        dy = y[d[c]]
        ax = x[abc[c, 0]] - dx
        ay = y[abc[c, 0]] - dy
        bx = x[abc[c, 1]] - dx
        by = y[abc[c, 1]] - dy
        cx = x[abc[c, 2]] - dx
        cy = y[abc[c, 2]] - dy
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
        span = np.maximum(
            np.maximum(np.abs(ax), np.abs(ay)),
            np.maximum(np.maximum(np.abs(bx), np.abs(by)), np.maximum(np.abs(cx), np.abs(cy))),
        )
        rel = _COCIRCULAR_TOL * perm
        noise = slack * span ** 3
        value[c] = det * np.sign(orient)
        allowance[c] = rel + noise
        noisy[c] = noise > rel
    return value, allowance, noisy


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
    """Candidates inside the holes where Qhull's triangulation is not
    Delaunay, as ``_candidate_pairs`` gives them.

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
        out.append(_placeholders(np.column_stack([a.ravel(), b.ravel()])))
        if len(inner) == n:
            # nothing smaller to recurse on: Qhull resolves none of it
            out.append(_all_pairs(n))
        elif len(inner) >= 2:
            out.append(inner[_candidate_pairs(P[inner], cKDTree(P[inner]), floor)[0]])
    return np.concatenate(out)


def _line_pairs(P, slack):
    """Candidates from the points' order along their principal axis.

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
    return _placeholders(np.column_stack([order[i], order[j]]))


def _certified(P, cand, shared, ins, tol, slack):
    """Which candidates are Gabriel edges of P with no test, by the
    certificate of the module docstring; all False unless its global
    precondition holds. ``cand`` holds every edge of a triangulation that
    kept every point once, as (u, v, w, w'), ``shared`` the rows of its
    shared edges and ``ins`` and ``tol`` their incircle values and
    allowances, with ``slack`` the allowance's coordinate uncertainty."""
    sure = np.zeros(len(cand), dtype=bool)
    if not (ins < -tol).all():
        return sure
    # gathers from the column views beat indexing P by rows
    x, y = P[:, 0], P[:, 1]
    dx = x[cand[:, 1]] - x[cand[:, 0]]
    dy = y[cand[:, 1]] - y[cand[:, 0]]
    len2 = dx * dx + dy * dy
    # no point is nearer to another than the shortest edge at either, so
    # none is nearer than the shortest edge of all
    near2 = len2.min()
    if near2 < _CERT_TINY:
        return sure
    near2 *= 1.0 - _CERT_MARGIN
    for lo in range(0, len(shared), _CHUNK):
        rows = shared[lo:lo + _CHUNK]
        ux = x[cand[rows, 0]]
        uy = y[cand[rows, 0]]
        vx = x[cand[rows, 1]]
        vy = y[cand[rows, 1]]
        sides = []
        for w in (cand[rows, 2], cand[rows, 3]):
            wx = x[w]
            wy = y[w]
            ax = ux - wx
            ay = uy - wy
            bx = vx - wx
            by = vy - wy
            sides.append((ax * bx + ay * by, ax * by - ay * bx, np.maximum(ax * ax + ay * ay, bx * bx + by * by)))
        (dot, cross, far), (dot_, cross_, far_) = sides
        # covers the rounding of every dot and cross product of the edge
        err = _CERT_REL * np.maximum(far, far_)
        if not ((np.abs(cross) > err) & (np.abs(cross_) > err) & ((cross < 0.0) != (cross_ < 0.0))).all():
            return np.zeros(len(cand), dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            acute = (dot > err) & (dot_ > err)
            tan = np.maximum((np.abs(cross) + err) / (dot - err), (np.abs(cross_) + err) / (dot_ - err))
            duv = np.sqrt(len2[rows])
            band = slack + _CERT_REL * duv
            high = band * (1.0 + band / duv) * tan
            reach2 = (band * band + 2.0 * high * high) * (1.0 + _CERT_MARGIN)
        sure[rows] = acute & (near2 > reach2)
    return sure


def _candidate_pairs(P, tree, floor, certify=False):
    """Candidates (u, v, a, b), u != v, whose pairs include every Gabriel
    and every relative-neighborhood edge of P; a and b are the vertices
    opposite the pair in the triangulation, or u where there is none. See
    the module docstring. ``tree`` indexes P, and ``floor`` bounds the
    coordinate uncertainty below.

    Returns the candidates and, when ``certify``, a mask of those that are
    Gabriel edges with no test (``_certified``), or None. Only a
    triangulation with no hole, so that the candidates are its edges each
    once, certifies any; the pairs of holes, including those of the
    recursion on a hole's core, which sees the core's points alone, and the
    cocircular, antipode and line pairs never are."""
    n = len(P)
    slack = _ulp_slack(P, floor)
    # points in the tree's leaf order are near in memory where near in space;
    # the edges and their tests below index them in that order
    order = tree.indices
    Po = P[order]
    try:
        tri = Delaunay(Po - P.min(axis=0))
    except QhullError:
        return _line_pairs(P, slack), None
    if (tri.simplices >= n).any():
        # Qhull's point at infinity leaks into the output of nearly flat input
        return _line_pairs(P, slack), None
    T = tri.simplices.astype(np.int64)
    nb = tri.neighbors.astype(np.int64)
    # Qhull's arrays hold about 130 bytes per point that nothing below uses
    del tri
    m = len(T)
    # every edge once: where the neighbour across it has a higher index
    t, k = np.nonzero((nb > np.arange(m)[:, None]) | (nb < 0))
    u = T[t, (k + 1) % 3]
    cand = np.column_stack([u, T[t, (k + 2) % 3], T[t, k], u])
    shared = np.flatnonzero(nb[t, k] >= 0)
    t = t[shared]
    k = k[shared]
    s = nb[t, k]
    cand[shared, 3] = T[s, np.argmax(nb[s] == t[:, None], axis=1)]
    ins, tol, noisy = _incircle(Po, T[t], cand[shared, 3], slack)
    sure = None
    if certify:
        kept = np.zeros(n, dtype=bool)
        kept[T.ravel()] = True
        if kept.all():
            sure = _certified(Po, cand, shared, ins, tol, slack)
    # the rest takes the points' own indices
    T = order[T]
    cand = order[cand]
    opp = cand[shared, 3]
    extra = []
    cocircular = np.abs(ins) <= tol
    near = cocircular & ~noisy
    # a pair cocircular only up to rounding is treated as a hole
    bad = (ins > tol) | (cocircular & noisy)
    if near.any():
        # a cocircular quadrilateral's other diagonal, opposite the shared
        # edge's ends, and the diameters of larger cocircular sets
        tn = np.union1d(t[near], s[near])
        centre, r = _circumcircles(P, T[tn])
        anti = (2.0 * centre[:, None, :] - P[T[tn]]).reshape(-1, 2)
        rad = np.repeat(_ANTIPODE_TOL * r + slack, 3)
        ok = np.isfinite(anti).all(axis=1) & np.isfinite(rad)
        extra.append(np.column_stack([T[t[near], k[near]], opp[near], cand[shared[near], :2]]))
        extra.append(_placeholders(np.column_stack(_ball_pairs(tree, T[tn].ravel()[ok], anti[ok], rad[ok]))))
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
        return cand, sure
    cand = np.concatenate([cand] + extra)
    lo = cand[:, :2].min(axis=1)
    hi = cand[:, :2].max(axis=1)
    # each pair once; the first copy, a triangulation edge's if there is one
    first = np.unique(lo * n + hi, return_index=True)[1]
    return cand[first[lo[first] != hi[first]]], None


def _scaled_tree(P):
    """(e, Q, tree): Q is P scaled by 2**-e, which brings the largest
    coordinate magnitude into [0.5, 1), and the kd-tree indexes Q. The
    scaling is exact, so Q has the geometry of P, but its distances
    cannot overflow."""
    e = math.frexp(float(np.abs(P).max()))[1]
    Q = np.ldexp(P, -e)
    return e, Q, cKDTree(Q)


def _proximity_edges(points: PointSet, kind: str) -> np.ndarray:
    P = points.coords
    n = len(P)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    # the incircle terms of degree 4 in Q cannot overflow
    e, Q, tree = _scaled_tree(P)
    floor = math.ldexp(1.0, _FLOOR_EXP - e)
    with np.errstate(over="ignore"):
        if np.ptp(P, axis=0).max() >= 2.0 ** _OVERFLOW_EXP:
            # the raw squared distances overflow and stop following the
            # geometry, so every pair is a candidate
            cand, sure = _all_pairs(n), None
        else:
            cand, sure = _candidate_pairs(Q, tree, floor, kind == GABRIEL)
        keep = _full_test(P, Q, tree, cand, kind, _ulp_slack(Q, floor), sure)
    return cand[keep, :2]


def gabriel(points) -> Graph:
    """Gabriel graph: u ~ v iff the open disk with diameter uv contains
    no other point of the set."""
    pts = as_point_set(points)
    return Graph(pts.n, _proximity_edges(pts, GABRIEL))


def rng_graph(points) -> Graph:
    """Relative-neighborhood graph: u ~ v iff no other point is strictly
    closer to both u and v than they are to each other."""
    pts = as_point_set(points)
    return Graph(pts.n, _proximity_edges(pts, RNG))


def _naive_pairs(n, inside) -> Graph:
    """The pairs (i, j), i < j < n, for which ``inside(i, j, w)`` holds for
    no point w but i and j: the references' double loop over pairs and
    points. ``inside`` takes index arrays that broadcast, pairs down and
    points across. Blocks of pairs visit the points in strided blocks (w =
    k, k + s, k + 2s, ...) and drop each pair at its first witness, which
    changes no result: every (pair, point) test a pair gets is the same,
    and a pair is kept only once every point has passed. A block spread
    over the whole index range holds a witness of most pairs."""
    iu, ju = np.triu_indices(n, k=1)
    # blocks of 2**14 pairs and about 64 points
    step = max(1, n // 64)
    keep = [np.arange(0)]
    for lo in range(0, len(iu), 2 ** 14):
        at = np.arange(lo, min(lo + 2 ** 14, len(iu)))
        for k in range(step):
            u = iu[at, None]
            v = ju[at, None]
            w = np.arange(k, n, step)
            hit = inside(u, v, w) & (w != u) & (w != v)
            at = at[~hit.any(axis=1)]
        keep.append(at)
    at = np.concatenate(keep)
    return Graph(n, np.column_stack([iu[at], ju[at]]))


def gabriel_naive(points) -> Graph:
    """Quadratic-scan Gabriel reference; same predicate expressions as
    the fast builder."""
    P = as_point_set(points).coords

    def inside(u, v, w):
        mid = (P[u] + P[v]) / 2.0
        rhs = ((P[v] - P[u]) ** 2).sum(axis=-1) / 4.0
        ddx = P[w, 0] - mid[..., 0]
        ddy = P[w, 1] - mid[..., 1]
        ddx *= ddx
        ddy *= ddy
        ddx += ddy
        return ddx < rhs

    with np.errstate(over="ignore"):
        return _naive_pairs(len(P), inside)


def rng_naive(points) -> Graph:
    """Quadratic-scan relative-neighborhood reference."""
    P = as_point_set(points).coords
    with np.errstate(over="ignore"):
        dx = P[None, :, 0] - P[:, None, 0]
        dy = P[None, :, 1] - P[:, None, 1]
        d2 = dx * dx + dy * dy

    def inside(u, v, w):
        duv = d2[u, v]
        return (d2[u, w] < duv) & (d2[v, w] < duv)

    return _naive_pairs(len(P), inside)


# ---------------------------------------------------------------------------
# Yao graph

# cone edges are widened or narrowed by this angle for the box tests
_WIDEN = 1e-9

# squared lengths below this are subnormal or close to it and lose their
# relative precision, so they settle nothing
_TINY = 2.0 ** -960

# most points in a block of the exact scan
_LEAF = 32

# most points a block's ball may hold in the first search stage, in units
# of the points it is sized for, before the block's rows skip it
_JOIN_LOAD = 8


def _cone_nearest(P, rows, slot, cols, spec: ConeSpec):
    """Per row and cone, the winner under the module's rule among the
    candidate pairs (``rows[slot]``, ``cols``) and its squared distance; the
    head is -1 where the cone holds none. The pairs may come in any order
    and repeat; a row paired with itself lies in no cone."""
    # gathers from the column views beat indexing P by (cols, 0)
    x, y = P[:, 0], P[:, 1]
    dx = x[cols] - x[rows][slot]
    dy = y[cols] - y[rows][slot]
    d2 = dx * dx + dy * dy
    r = np.arctan2(dy, dx)
    r -= spec.offset
    # r % TWO_PI for r in [-3*pi, pi], bit for bit: adding one or two
    # TWO_PI rounds once, as the float remainder does, at a tenth the cost
    r += ((r < 0.0).astype(np.float64) + (r < -TWO_PI)) * TWO_PI
    r /= spec.theta
    cone = r.astype(np.int64)
    np.minimum(cone, spec.p - 1, out=cone)
    # NumPy's arctan2 may differ from math.atan2 in the last bit (it does on
    # CPUs with AVX-512), so near a cone edge take the index cone_index
    # gives; both return the rounded multiple of pi/4 on axes and diagonals
    edge = np.rint(r)
    edge -= r
    near = np.flatnonzero(np.abs(edge, out=edge) <= 1e-12 * spec.p)
    x = dx[near]
    y = dy[near]
    for i in near[(x != 0.0) & (y != 0.0) & (np.abs(x) != np.abs(y))]:
        cone[i] = cone_index((0.0, 0.0), (dx[i], dy[i]), spec) - 1
    # one grouped minimum of the distance per (row, cone), then one of the
    # index over the points at that minimum
    m = len(rows)
    g = slot * spec.p + cone
    # the row itself goes to the spare group m * p
    g[cols == rows[slot]] = m * spec.p
    hd2 = np.full(m * spec.p + 1, np.inf)
    np.minimum.at(hd2, g, d2)
    at = d2 == hd2[g]
    heads = np.full(m * spec.p + 1, len(P))
    np.minimum.at(heads, g[at], cols[at])
    heads[heads == len(P)] = -1
    return heads[:-1].reshape(m, spec.p), hd2[:-1].reshape(m, spec.p)


def _cone_reach(P, rows, spec: ConeSpec, box):
    """Squared distance from each row point to the farthest point of each
    cone, widened by ``_WIDEN``, within the points' bounding box ``box``,
    rows lo_x, lo_y, hi_x, hi_y.

    The farthest point of the clipped cone is a vertex: the exit of an edge
    ray from the box, or a box corner that ``_box_cones``, taking the corner
    as a box of its own, finds meeting the widened cone. Overflow or a
    degenerate ray yields inf or nan, which certifies nothing."""
    u = P[rows].T
    start = spec.offset + spec.theta * np.arange(spec.p)
    ang = np.concatenate([start - _WIDEN, start + spec.theta + _WIDEN])
    d = np.stack([np.cos(ang), np.sin(ang)])[:, :, None]
    # exit parameter of every edge ray along each axis; the nearer one wins
    t = (np.where(d > 0.0, box[2:, None, None], box[:2, None, None]) - u[:, None, :]) / d
    t = np.minimum(t[0], t[1])
    ends = (t * t).reshape(2, spec.p, len(rows)).max(axis=0)
    x, y = box[[0, 2, 2, 0]], box[[1, 1, 3, 3]]
    meets, _, _, cd2 = _box_cones(u[:, None, :], np.array([x, y, x, y])[:, :, None], _cone_lines(spec))
    return np.maximum(ends, np.where(meets, cd2, 0.0).max(axis=1)).T


def _cone_lines(spec: ConeSpec):
    """Weights (5, 5p) that give, from a box's corner offsets (lo_x, lo_y,
    hi_x, hi_y) minus the row point and a margin, the greatest dot product
    over its corners, plus the margin, with the normal of each of 5p lines
    through the row point. Per cone, the lines are the edges of the widened
    cone and the bisector's normal line, each with the cone on its
    nonnegative side, then the edges of the narrowed cone, each with the
    narrowed cone on its negative side. The greatest dot product takes, per
    axis, the end the normal points to."""
    start = spec.offset + spec.theta * np.arange(spec.p)
    lo, hi = start - _WIDEN, start + spec.theta + _WIDEN
    nlo, nhi = start + _WIDEN, start + spec.theta - _WIDEN
    mid = start + 0.5 * spec.theta
    nx = np.concatenate([-np.sin(lo), np.sin(hi), np.cos(mid), np.sin(nlo), -np.sin(nhi)])
    ny = np.concatenate([np.cos(lo), -np.cos(hi), np.sin(mid), -np.cos(nlo), np.cos(nhi)])
    return np.stack([
        np.minimum(nx, 0.0), np.minimum(ny, 0.0), np.maximum(nx, 0.0), np.maximum(ny, 0.0), np.ones_like(nx),
    ])


def _box_cones(u, box, lines):
    """Row points ``u``, coordinates first, against boxes ``box``, rows
    lo_x, lo_y, hi_x, hi_y first, broadcast together: per cone first,
    whether the box meets the widened cone and whether it lies wholly
    inside the narrowed one; and the least and greatest raw squared
    distance from u to a point of the box."""
    v = box - np.concatenate([u, u])
    near = np.maximum(np.maximum(v[:2], -v[2:]), 0.0)
    far = np.maximum(-v[:2], v[2:])
    least = near[0] * near[0] + near[1] * near[1]
    most = far[0] * far[0] + far[1] * far[1]
    # past this margin for the rounding of the dot products, the whole box
    # lies strictly on a line's negative side
    tol = 1e-12 * (far[0] + far[1]) + 2.0 ** -1000
    w = np.concatenate([v, tol[None]]).reshape(5, tol.size)
    off = (lines.T @ w < 0.0).reshape(lines.shape[1:] + tol.shape)
    p = len(off) // 5
    inside = off[3 * p:4 * p] & off[4 * p:]
    if p == 2:
        # half-plane cones: a box misses one cone when it lies inside the other
        meets = ~inside[::-1]
    else:
        meets = ~(off[:p] | off[p:2 * p] | off[2 * p:3 * p])
    return meets, inside, least, most


def _leaf_cuts(P, tree):
    """The tree's leaf layout (first, stop, gfirst, gstop, box, gbox): block
    i, one of its largest subtrees of at most ``_LEAF`` points, holds the
    leaf-order points [first, stop)[i]; group g, one of its largest of at
    most max(sqrt(8n), ``_LEAF``) points, the blocks [gfirst, gstop)[g];
    ``box`` and ``gbox`` are their boxes in P, rows lo_x, lo_y, hi_x, hi_y.
    A row tests every group and the blocks of the few groups it keeps, so
    groups of about sqrt(n) points balance the two. A group is never
    smaller than a block, so every block lies in one; the tree's leaves
    hold at most 16 points, fewer than a block."""
    group = max(math.sqrt(8.0 * tree.n), _LEAF)
    blocks, groups = [], []
    stack = [(tree.tree, False)]
    while stack:
        node, grouped = stack.pop()
        if not grouped and node.children <= group:
            groups.append(len(blocks))
            grouped = True
        if node.children <= _LEAF or node.lesser is None:
            blocks.append(node.start_idx)
        else:
            stack += [(node.greater, grouped), (node.lesser, grouped)]
    first, gfirst = np.array(blocks), np.array(groups)
    Po = P[tree.indices]
    box = np.vstack([np.minimum.reduceat(Po, first).T, np.maximum.reduceat(Po, first).T])
    gbox = np.vstack([np.minimum.reduceat(box[:2], gfirst, axis=1), np.maximum.reduceat(box[2:], gfirst, axis=1)])
    return first, np.append(first[1:], tree.n), gfirst, np.append(gfirst[1:], len(first)), box, gbox


def _spread(slot, first, stop):
    """Each ``slot`` paired with every index of its range [first, stop)."""
    count = stop - first
    at = np.repeat(first - np.cumsum(count) + count, count)
    return np.repeat(slot, count), at + np.arange(len(at))


def _as_arcs(rows, heads) -> np.ndarray:
    """(row, head) arcs for every cone that has a head."""
    has = heads >= 0
    return np.column_stack([np.repeat(rows, has.sum(axis=1)), heads[has]])


def _yao_dense(P, spec: ConeSpec) -> np.ndarray:
    """Exact cone scan of every point against all points, in row chunks of
    about ``_BLOCK`` pairs: the reference the tests compare with."""
    n = len(P)
    cols = np.arange(n)
    B = max(1, _BLOCK // n)
    out = []
    with np.errstate(over="ignore"):
        for lo in range(0, n, B):
            r = cols[lo:lo + B]
            slot = np.repeat(np.arange(len(r)), n)
            out.append(_as_arcs(r, _cone_nearest(P, r, slot, np.tile(cols, len(r)), spec)[0]))
    return np.concatenate(out)


def _yao_blocks(P, spec: ConeSpec, tree, cuts, rows, heads, bound) -> np.ndarray:
    """Arcs of ``rows`` from the blocks of ``tree`` that can hold the
    winners of their open cones. ``cuts`` is the tree's ``_leaf_cuts``,
    ``heads`` the search's winners and ``bound`` their raw squared
    distances (inf where none), -inf in the cones the search settled, which
    keep their heads."""
    order = tree.indices
    first, stop, gfirst, gstop, box, gbox = cuts
    lines = _cone_lines(spec)
    out = []
    # rows per batch: the group test's 5p x 5 x (row, group) multiply-adds
    # stay within _BLOCK, where BLAS keeps to one thread (five times as many
    # rows doubled the scan's time on a 2-core host running another process)
    B = max(1, _BLOCK // (25 * spec.p * len(gfirst)))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(rows), B):
            r = rows[lo:lo + B]
            U = bound[lo:lo + B].T
            # groups, then the blocks of the groups that pass; a box wholly
            # inside a narrowed cone bounds its winner by its far corner
            meets, inside, least, most = _box_cones(P[r].T[:, :, None], gbox[:, None, :], lines)
            U = np.minimum(U, np.where(inside, most, np.inf).min(axis=2))
            slot, g = np.nonzero((meets & (least <= U[:, :, None])).any(axis=0))
            slot, b = _spread(slot, gfirst[g], gstop[g])
            meets, inside, least, most = _box_cones(P[r[slot]].T, box[:, b], lines)
            c, i = np.nonzero(inside)
            np.minimum.at(U, (c, slot[i]), most[i])
            keep = (meets & (least <= U[:, slot])).any(axis=0)
            slot, at = _spread(slot[keep], first[b[keep]], stop[b[keep]])
            h = _cone_nearest(P, r, slot, order[at], spec)[0]
            out.append(_as_arcs(r, np.where(bound[lo:lo + B] < 0.0, heads[lo:lo + B], h)))
    return np.concatenate(out)


def _settle(P, spec: ConeSpec, box, e, rows, slot, cols, seen):
    """Winners of ``rows`` among the pairs (``rows[slot]``, ``cols``), their
    squared distances and which cones they settle, when the pairs hold
    every point within distance ``seen`` of each row in the points scaled by
    2**-e. The horizon shrinks ``seen`` by a relative 1e-12, which covers
    the rounding of both distances; ``box`` is the points' bounding box."""
    heads, hd2 = _cone_nearest(P, rows, slot, cols, spec)
    h = seen * (1.0 - 1e-12)
    H = np.ldexp(h, e) ** 2
    H[~((h * h >= _TINY) & (H >= _TINY) & (H < np.inf))] = 0.0
    empty = heads < 0
    need = empty.any(axis=1)
    reach = hd2.copy()
    reach[need] = np.where(empty[need], _cone_reach(P, rows[need], spec, box) * (1.0 + 1e-9), hd2[need])
    return heads, hd2, reach < H[:, None]


def _yao_join(P, Q, e, spec: ConeSpec, tree, cuts, box, k):
    """First search stage: a fixed-radius join per group of ``cuts``.

    Group g takes the radius r at which a disk holds ``k`` points at the
    group's density, its point count over the area of its box in Q. Every
    point within r of a row is paired with it; one kd-tree over the group's
    rows finds them all. A block whose ball (its box's half diagonal plus
    r, around its centre) holds more than ``_JOIN_LOAD * k`` points leaves
    its rows out, as does a group with r zero, so the join pairs at most
    ``_JOIN_LOAD * k * n`` points. Returns the arcs of the rows it settles
    and the other rows, in leaf order."""
    n = len(P)
    order = tree.indices
    first, stop, gfirst, gstop, blocks, groups = cuts
    # ldexp is monotone, so these are the boxes of Q
    lo, hi = np.ldexp(blocks, -e).reshape(2, 2, -1)
    side = np.ldexp(groups[2:], -e) - np.ldexp(groups[:2], -e)
    radius = np.sqrt(k * side[0] * side[1] / (math.pi * (stop[gstop - 1] - first[gfirst])))
    group = np.repeat(np.arange(len(gfirst)), gstop - gfirst)
    r = radius[group]
    join = r > 0.0
    # the pair-count guard: a block's ball holds every point within r of
    # each of its rows
    half = 0.5 * np.hypot(hi[0, join] - lo[0, join], hi[1, join] - lo[1, join])
    load = tree.query_ball_point(0.5 * (lo[:, join] + hi[:, join]).T, half + r[join], return_length=True)
    join[join] = load <= _JOIN_LOAD * k
    group, at = _spread(group[join], first[join], stop[join])
    # one join per group, each over the group's rows in leaf order; the
    # pairs go to the cone scan in batches of about _BLOCK
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    stops = np.append(starts[1:], len(at))
    out = []
    done = np.zeros(n, dtype=bool)
    slots, cols, start, size = [], [], 0, 0
    for a, b in zip(starts, stops):
        pairs = cKDTree(Q[order[at[a:b]]]).sparse_distance_matrix(tree, radius[group[a]], output_type="ndarray")
        # copied out, so that each group's records are freed at once:
        # keeping a batch of them raised the peak resident size by 6-8%
        slots.append(pairs["i"] + (a - start))
        cols.append(pairs["j"].copy())
        size += len(pairs)
        if size < _BLOCK and b < len(at):
            continue
        pos = at[start:b]
        rows = order[pos]
        heads, _, settled = _settle(
            P, spec, box, e, rows, np.concatenate(slots), np.concatenate(cols), radius[group[start:b]]
        )
        ok = settled.all(axis=1)
        out.append(_as_arcs(rows[ok], heads[ok]))
        done[pos[ok]] = True
        slots, cols, start, size = [], [], b, 0
    return out, order[~done]


def _yao_knn(P, spec: ConeSpec) -> np.ndarray:
    """Staged search, then a scan of nearby blocks for the rows it leaves.

    Rows go in kd-tree leaf order. A cone is settled by the points a search
    stage sees when its winner lies strictly inside the stage's horizon, or
    when it has none and its part of the bounding box lies strictly inside
    the horizon (``_cone_reach``). The first stage is a fixed-radius join
    sized for k = 4p + 16 points per row (``_yao_join``); the rows it
    leaves query their 4k nearest points, capped at n - 1, where every row
    settles; the rows with a cone left open go to ``_yao_blocks``."""
    n = len(P)
    e, Q, tree = _scaled_tree(P)
    cuts = _leaf_cuts(P, tree)
    box = np.concatenate([P.min(axis=0), P.max(axis=0)])
    k = 4 * spec.p + 16
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out, pending = _yao_join(P, Q, e, spec, tree, cuts, box, k)
        k = min(4 * k, n - 1)
        left = [(pending[:0], np.empty((0, spec.p), dtype=np.int64), np.empty((0, spec.p)))]
        B = max(1, _BLOCK // (k + 1))
        for lo in range(0, len(pending), B):
            rows = pending[lo:lo + B]
            dk, ik = tree.query(Q[rows], k=k + 1)
            slot = np.repeat(np.arange(len(rows)), k + 1)
            heads, hd2, settled = _settle(P, spec, box, e, rows, slot, ik.ravel(), dk[:, -1])
            done = settled.all(axis=1) | (k == n - 1)
            out.append(_as_arcs(rows[done], heads[done]))
            left.append((rows[~done], heads[~done], np.where(settled, -np.inf, hd2)[~done]))
    pending, heads, bound = (np.concatenate(a) for a in zip(*left))
    if len(pending):
        out.append(_yao_blocks(P, spec, tree, cuts, pending, heads, bound))
    return np.concatenate(out)


def yao(points, spec: ConeSpec) -> DiGraph:
    """Directed Yao graph for the given cone partition: each point sends
    one arc to its nearest neighbor inside each cone, ties broken toward
    the smaller point index."""
    pts = as_point_set(points)
    if not isinstance(spec, ConeSpec):
        raise ParameterError(f"expected ConeSpec, got {type(spec).__name__}")
    n = pts.n
    if n < 2:
        return DiGraph(n)
    return DiGraph(n, _yao_knn(pts.coords, spec))


def unit_disk_graph(points, radius) -> Graph:
    """u ~ v iff dist(u, v) <= radius, boundary included."""
    pts = as_point_set(points)
    radius = check_number("radius", radius)
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

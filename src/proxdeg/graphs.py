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
neighborhood graph (Toussaint 1980): a pair uv with an empty disk or
lune has its diametral circle C empty, with no point strictly inside.
The raw predicates differ from exact ones only for points within
rounding of a region's boundary, which the incircle test counts as
cocircular: its allowance has a relative term and an absolute one, an
ulp of the largest coordinate, for the rounding of midpoints. Qhull
works on lifted coordinates, so it drops points as coplanar and
triangulates arbitrarily where features are below about 1e-8 of the
bounding box. The candidates are every edge of the triangulation and,
for each point it cannot vouch for, the pairs the cone search below
gives that point. A seed is a triangle next to a shared edge whose
incircle value is not below minus its allowance, one that fails the test
or passes it only up to rounding, or a triangle Qhull folded over, whose
float orientation is not counterclockwise beyond 1e-12 of its longer
side from its first vertex, squared: the test of its edges from its own
side can pass. The points searched are those Qhull dropped, the
vertices of seeds, and the points strictly inside a seed's
circumcircle, beyond the allowance; where Qhull fails, or leaks its
point at infinity on nearly flat input, every point. Every edge uv then
has an end searched, or is an edge of the triangulation:

- An edge with a dropped end is searched. Any other edge is an edge of
  the points Qhull kept too, which hold fewer witnesses.
- If uv is no edge of the triangulation, the segment uv leaves u
  through a triangle uab and crosses ab, and a and b are not strictly
  inside C. Inverting about u turns C into a line through the image of v
  with the images of a and b on u's side, and the circle of uab into the
  line through those two; the ray from u through v crosses that second
  line between them, before the first, so v lies strictly inside the
  circle of uab unless a and b both lie on C. If both do, the third
  vertex x of the triangle across ab lies on C, so that ab is cocircular
  and uab a seed, or outside it, so that v lies strictly inside the
  circle of abx, as the circles through a and b nest beyond ab. So u is
  a seed's vertex, or v lies strictly inside the circle of a triangle.
- A walk from a triangle whose circle holds v strictly towards v keeps v
  strictly inside the circle of each triangle it enters across an edge
  that passes the incircle test, as those circles nest beyond the edge.
  It ends in a triangle with v as a vertex, so it crosses an edge that
  does not pass, and v lies strictly inside the circle of the seed
  before it: v is searched.

Search. ``_search_pairs`` gives a searched point u every point v such
that uv can be an edge of either graph. It works in Q, the points scaled
below, with eight cones centred on the axes (``_SEARCH``) and Yao's cone
index, reach and horizon rules (below). Let beta = slack + 1e-12 L, L the
diagonal of Q's bounding box, at least the band of the certificate below
for every pair. If (w - u).(w - v) < -|uv| beta for a point w other than
u and v, then w lies within r - beta of uv's exact midpoint, r = |uv| /
2, as |w - m|**2 = (w - u).(w - v) + r**2; the raw disk predicate then
holds for w, by the rounding bounds the certificate derives, read the
other way, and so does the raw lune predicate, as |uw| and |vw| lie
below |uv| - beta, a gap the rounding of squared distances cannot
close. So w is a witness: it kills uv in both graphs.
``_kills`` tests that condition, with a margin for the rounding of its
dot product. A coordinate of Q that turns subnormal moves by at most
2**-1075, far inside beta.

Each step takes the row's k nearest points and one more, whose distance
gives the horizon H as for Yao, with k = 16, then 64, and so on; a step
that would take more than a quarter of the points pairs the row with
every point instead, with H infinite. Let w be the winner of a cone, its
nearest point seen, a = |uw|, and c the cosine of pi/4 + 2e-9, the
widest angle between two points a float cone index puts in one cone.
For v in the cone, (w - u).(w - v) <= a**2 - a|uv|c, so when ac > 2 beta
every point of the cone beyond D = a**2 / (ac - beta) is killed. The
cone is bounded once D**2, times 1 + 1e-9 for the rounding of D, lies
strictly inside H, and an empty cone once its reach within the bounding
box does, as for Yao; H infinite bounds every cone. A row whose every
cone is bounded keeps each point it has seen within D that neither its
cone's winner nor those of the two cones next to it kill; every other
point but u is killed. Where both ends of a pair are searched, each
keeps the pair or drops it with a witness at hand, so the pair is a
candidate only if both keep it, and it tries both winners first.

Range. The candidates come from the points scaled by the power of two
that brings the largest coordinate near 1. That scaling is exact, so
the geometry is unchanged, and the incircle terms of degree 4 cannot
overflow. The raw predicates run on the input itself and follow the
geometry only while squared distances stay in the normal range. Below
it they round to subnormals, so the allowance, and beta with it, never
drops under 2**-500 input units: on input spanning less than about
that, beta exceeds every distance, no winner bounds its cone or kills a
point, every searched point scans every point, and every pair is a
candidate. Above it they
overflow: a pair whose squared length is infinite has every other
point with a finite distance as a witness, so input spanning 2**510 or
more takes every pair as a candidate (``_all_pairs``) with no
triangulation; its output can hold most pairs anyway. Such a pair is
tested against every point in bounded chunks rather than through a
ball holding them all, as is a pair whose ball reaches the diagonal of
Q's bounding box: on input spanning less than 2**-500, the allowance's
floor makes every ball that wide. Scanning every point is always
correct, so that condition sets only the cost.

The argument assumes that Qhull's output is a valid triangulation of
the points it keeps, whose triangles tile their hull, away from the
triangles it folds; differential tests against the references on
adversarial layouts back it. It does not depend on the order of the
input: Qhull runs on the points in the kd-tree's leaf order, so that
near points are near in memory, and the order only changes choices the
candidates cover anyway, such as which diagonal of a cocircular
quadrilateral it draws or which point of a coplanar pair it drops.

Testing. Each candidate comes with two points to test first, the
vertices opposite its edge in the two adjacent triangles. In exact
arithmetic a Delaunay edge is a Gabriel edge exactly when neither lies
in its disk, that is, when neither angle opposite the edge is obtuse
(the fact behind Matula & Sokal's result), and most pairs that are not
relative-neighborhood edges have one in the lune. The test is the raw
predicate itself, and a real point that passes it is a witness, so a
pair it kills is no edge of the reference either: the kill needs no
allowance and no step of its own in the argument. Where a pair has no
opposite vertex (one side of a hull edge, and every pair when all pairs
are candidates) one of its own ends stands in, which the predicate never
counts; a pair from the search takes its cone winners. The survivors
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
so no triangle is a seed; for every shared edge uv, with opposite
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
cover the rounding of these bounds. Hull edges and pairs from the search
are never certified, nor is any pair where the precondition fails.

``rng_graph`` certifies nothing. Its lune does not lie inside the two
circumdisks in general, but each half, the lune's part on one side of
the edge, does lie inside the closed circumdisk on that side when the
angle opposite the edge on that side is below 60 degrees: every point of
the half sees the edge at 60 degrees or more, and the circumdisk holds
every point on that side that sees it at more than the opposite angle.
No rule uses this yet; its rounding argument is unwritten.

Yao. ``yao`` takes one path at every size, visiting points in the
kd-tree's leaf order. The tree indexes the points scaled by a power of
two, Q, and the search gives each point every point within some distance
of it in Q, its search radius. A group of the tree (defined below) takes
the radius r at which a disk holds k = 4p + 16 points at the group's
density, its point count over the area of its box. The first stage joins
each point at its group's r, and the second each point the first leaves
open at 2r, whose disk holds about the 4k points a nearest-point query
would take. A join pairs a point with every point whose float distance
is at most its radius, one kd-tree over a run of points of one group
against the tree; that distance is off by a few ulps, so every point
within the radius times 1 - 1e-12 is paired, and the radius is the
point's search radius. The points the guard (below) refuses pair with
their 4k nearest points instead, capped at n - 1, and their search
radius is the next nearest point's distance: inf where there is none,
as the query has then seen every point. Every scan takes one winner
rule: the least raw squared distance in the cone, then the least index,
which covers exact ties and cones whose points all lie at infinite
distance alike. Each stage settles a point's cones in one step; a cone
settled stays settled with its winner, a point whose every cone is
settled is done, and the others go on. A cone is settled by:

- a winner strictly inside the horizon H, the search radius shrunk by a
  relative 1e-12 for the rounding of both distances, in input units and
  squared: every point not seen is farther;
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
both joins. The points of a block in a stage share a radius; around the
centre of their box, the ball of the radius plus the box's half
diagonal holds every point within the radius of each of them, and the
ball of the radius minus the half diagonal only such points. A count of
the first ball passes the block's points where it holds at most 8k
points, a count of the second refuses them where it holds more, and
otherwise each point counts its own ball. So a far point's group, whose
radius spans most points, costs about two counts per block and not one
per point. A point whose ball holds more than 8k points, or whose
group's box has no area, is refused: it skips the joins and takes the
nearest-point query. So a join pairs at most 8k points per point,
twice what the query takes. A point refused at r is not tried at 2r,
whose ball holds its ball at r. On a set of at most 8k points the query
takes half the points or more, and its horizon settles points that a
ball of about 4k points leaves to the block scan, so there every point
the first stage leaves open takes the query. The guard sets only the
cost: a point it refuses is settled by the query's horizon like any
other.

A point with a cone left open after the search scans only the blocks
that can hold that cone's winner. Blocks are the tree's largest subtrees
of at most 32 points, and groups its largest of at most max(sqrt(8n),
32), or a leaf not yet in a group, so that every block lies in a group.
A leaf holds more than 16 points only where they are equal in Q, which
the tree cannot split: points far below the largest coordinate can flush
to one subnormal value, or to 0, when scaled. For a point u and a box
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

A box whose two rounded differences from u in y are both 0 lies on the
axis line through u, and takes another test. Subtraction is monotone, so
every point w of the box has its rounded dy between them, +0 or -0; and
x - y rounds to 0 only if x = y, so a point other than u has a nonzero
rounded dx, positive only if hi_x > u_x and negative only if lo_x < u_x.
Its direction, arctan2(+-0, dx), is exactly 0 or pi, so the box meets
only the cones ``_cones`` gives the directions (1, +-0) and (-1, +-0)
that it reaches, for both signs of zero. The same holds in x, with the
directions (+-0, 1) and (+-0, -1), exactly pi/2 and -pi/2. The bounding
box's reach inherits the rule through its corner test: a corner K on an
axis line through u counts only for the cones of that direction. No bound
is lost. If K lies in a widened cone that does not hold its direction,
u lies on the box's side along the axis, and the box's side that leaves
the axis at K runs inside the widened cone from K to its far corner or
to an edge ray's exit, a vertex that counts; distance from u grows along
that side away from K. A box with no extent across the axis holds only
points on the axis, in the axis cones.

A horizon that overflows, or lies near the subnormal range where
relative error bounds fail, is set to 0, and a vertex distance that
overflows is inf; either way nothing is certified, and the point goes on
to the next stage and then the block scan, where an infinite U or an
overflowing margin only keeps more blocks. The infinite horizon of a
stage that has seen every point stays, and settles every cone whose
winner or reach is finite.

NumPy's arctan2 may differ from ``math.atan2`` in the last bit. Within
1e-12 p of a cone edge, in units of cones, the index comes from
``geom.cone_index`` itself, except on the axes and diagonals, where both
return the same rounded multiple of pi/4.

Working set. Every kernel decides each row or pair on its own, so batch
sizes set only the cost. The pair kernels take batches of about
``_CHUNK`` = 2**15 (row, point) pairs: Yao's search stages, the steps of
the cone search, and ``_full_test``'s nearest points and scans of every
point. A join takes its points in runs within one group: at r the
group's points, at most max(sqrt(8n), 32), and at 2r at most ``_CHUNK``
// 4k of them, about ``_CHUNK`` pairs at the density 2r is sized for and
at most 2 ``_CHUNK`` under the guard. A batch takes runs until their
pairs reach ``_CHUNK``, so it passes ``_CHUNK`` by at most one run. The
per-edge triangulation tests, whose rows each hold a few dozen
temporaries, take chunks of ``_CHUNK // 8`` rows. Their temporaries then stay within a few MB at any
n, and the peak is set by arrays of a few words per point: the
triangulation, the candidates and the arcs. The block scan keeps batches
of ``_BLOCK`` = 2**18 pairs against its groups, as a smaller batch
shrinks to a few rows where there are many groups, and so do the exact
references.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree

from .errors import ParameterError, check_int, check_number
from .geom import TWO_PI, ConeSpec, PointSet, as_point_set, cone_index

GABRIEL = "gabriel"
RNG = "rng"

# two adjacent triangles count as cocircular when their float incircle
# value is below this fraction of its permanent
_COCIRCULAR_TOL = 1e-9

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

# (row, point) pairs per batch of a pair kernel; the per-edge triangulation
# tests, whose rows hold a few dozen temporaries each, take an eighth as
# many rows (module docstring, "Working set")
_CHUNK = 2 ** 15

# (row, point) pairs per batch of the block scan, whose rows a batch of
# _CHUNK pairs would cut to a few, and of the exact references
_BLOCK = 2 ** 18

# the cone search's cones, centred on the axes as the bounding box's
# edges are, and the nearest points of its first step
_SEARCH = ConeSpec(8, math.pi / 8.0)
_SEARCH_K = 16

# nearest points to a pair's midpoint fetched before its whole ball. A
# Gabriel edge's ends are the two nearest, so the third decides; the
# lune's ball holds more points, and one more settles most RNG pairs
_NEAREST = {GABRIEL: 3, RNG: 4}


def _canonical(n, pairs, what, undirected):
    """Validate a vertex count, at most 3,037,000,499, and an (m, 2) array
    of vertex pairs, and return both canonical: a read-only int64 array of
    distinct pairs in lexicographic order, each with u < v when
    ``undirected``."""
    n = check_int("vertex count", n, 0)
    # pairs key as u * n + v in int64, so n * n - 1 must fit
    if n * n > 2 ** 63:
        raise ParameterError(f"vertex count {n} over 3037000499: pair keys overflow int64")
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
        u, v = e[:, 0], e[:, 1]
        if (u == v).any():
            raise ParameterError("self loops are not allowed")
        # rows sort in the order of their keys u * n + v, built and sorted
        # in place; min(u, v) * n + max(u, v) is min(u, v) * (n - 1) + u + v
        if undirected:
            key = np.minimum(u, v)
            key *= n - 1
            key += u
        else:
            key = u * n
        key += v
        key.sort()
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            key = key[first]
        e = np.empty((len(key), 2), dtype=np.int64)
        np.divmod(key, n, out=(e[:, 0], e[:, 1]))
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


def _all_pairs(n):
    """Every pair (u, v) of n points as a candidate (u, v, u, u), with no
    witness to try first."""
    return np.column_stack(np.triu_indices(n, k=1))[:, [0, 1, 0, 0]]


def _scan_all(xy, u, v, mid, duv2, kind):
    """Whether each pair's region holds a point, tested against every point
    in chunks of about ``_CHUNK`` (pair, point) tests; the arguments are
    ``_inside``'s."""
    n = len(xy[0])
    R = max(1, _CHUNK // n)
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
    their witnesses anywhere, and pairs whose ball reaches the diagonal of
    Q's bounding box, and so every point: both are tested against every
    point."""
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
    diag = np.hypot(*np.ptp(Q, axis=0))
    B = _CHUNK // k
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
        wide = ~np.isfinite(duv2) | (r >= diag)
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

    Returns (value, allowance): value > 0 when d lies inside the
    circumcircle; values within the allowance of zero count as
    cocircular. The allowance covers the relative tolerance and a
    coordinate uncertainty of ``slack``. Rows go in chunks of ``_CHUNK //
    8``, whose temporaries stay in cache."""
    m = len(d)
    x, y = P[:, 0], P[:, 1]
    value = np.empty(m)
    allowance = np.empty(m)
    step = _CHUNK // 8
    for lo in range(0, m, step):
        c = slice(lo, lo + step)
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
        value[c] = det * np.sign(orient)
        allowance[c] = _COCIRCULAR_TOL * perm + slack * span ** 3
    return value, allowance


def _circumradii(P, T):
    """Upper bounds on the circumradii of triangles T, not finite for a
    degenerate triangle."""
    b = P[T[:, 1]] - P[T[:, 0]]
    c = P[T[:, 2]] - P[T[:, 0]]
    bl = (b * b).sum(axis=1)
    cl = (c * c).sum(axis=1)
    cross = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.hypot(c[:, 1] * bl - b[:, 1] * cl, b[:, 0] * cl - c[:, 0] * bl) / np.abs(2.0 * cross)
        return r * (1.0 + 8.0 * _EPS * np.maximum(bl, cl) / np.abs(cross))


def _folded(P, T):
    """Which triangles T of P are not counterclockwise beyond the rounding
    of their float orientation, in chunks of ``_CHUNK // 8``."""
    x, y = P[:, 0], P[:, 1]
    out = np.empty(len(T), dtype=bool)
    step = _CHUNK // 8
    for lo in range(0, len(T), step):
        t = T[lo:lo + step]
        bx = x[t[:, 1]] - x[t[:, 0]]
        by = y[t[:, 1]] - y[t[:, 0]]
        cx = x[t[:, 2]] - x[t[:, 0]]
        cy = y[t[:, 2]] - y[t[:, 0]]
        out[lo:lo + step] = bx * cy - by * cx <= _CERT_REL * np.maximum(bx * bx + by * by, cx * cx + cy * cy)
    return out


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
    step = _CHUNK // 8
    for lo in range(0, len(shared), step):
        rows = shared[lo:lo + step]
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


def _kills(P, u, v, w, margin):
    """Whether (w - u).(w - v) < -margin for each row, beyond the rounding
    of the float dot product: with ``margin`` |uv| times the band of the
    module docstring, w lies in the disk and the lune of (u, v) under the
    raw predicates."""
    x, y = P[:, 0], P[:, 1]
    ax = x[w] - x[u]
    ay = y[w] - y[u]
    bx = x[w] - x[v]
    by = y[w] - y[v]
    err = 1e-12 * (ax * ax + ay * ay + bx * bx + by * by)
    return ax * bx + ay * by + err < -margin * (1.0 + 1e-9)


def _search_pairs(P, tree, flagged, slack):
    """Candidates (u, v, a, b), each pair once, that include every Gabriel
    and relative-neighborhood edge of P with an end in ``flagged``, by the
    cone search of the module docstring; a and b are the winners of the
    cones each end finds the other in, or one of them twice. ``tree``
    indexes P, and ``slack`` is the coordinate uncertainty.

    Rows take the k = ``_SEARCH_K`` nearest points, then 4k, and so on
    until every cone of ``_SEARCH`` is bounded; a step that would take more
    than a quarter of the points scans them all instead, and settles
    every row."""
    n = len(P)
    box = np.concatenate([P.min(axis=0), P.max(axis=0)])
    band = slack + _CERT_REL * np.hypot(*np.ptp(P, axis=0))
    cos = math.cos(_SEARCH.theta + 2.0 * _WIDEN)
    rows = np.flatnonzero(flagged)
    out = []
    m = _SEARCH_K
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(rows):
            full = 4 * m > n
            B = max(1, _CHUNK // (n if full else m + 2))
            left = []
            for lo in range(0, len(rows), B):
                r = rows[lo:lo + B]
                if full:
                    slot = np.repeat(np.arange(len(r)), n)
                    cols = np.tile(np.arange(n), len(r))
                    H = np.full((len(r), 1), np.inf)
                else:
                    # the row, m nearest points and one for the horizon
                    dk, ik = tree.query(P[r], k=m + 2)
                    slot = np.repeat(np.arange(len(r)), m + 1)
                    cols = ik[:, :-1].ravel()
                    H = _horizon(dk[:, -1], 0)[:, None]
                heads, hd2, g, d2 = _cone_nearest(P, r, slot, cols, _SEARCH)
                # points beyond sqrt(bound) have their cone's winner in their
                # disk and lune; an empty cone is bounded by its reach
                a = np.sqrt(hd2)
                bound = np.where(a * cos > 2.0 * band, (a * a / (a * cos - band)) ** 2 * (1.0 + 1e-9), np.inf)
                empty = heads < 0
                limit = np.where(empty, np.inf, bound)
                need = empty.any(axis=1) & (H[:, 0] > 0.0) & (H[:, 0] < np.inf)
                limit[need] = np.where(empty[need], _cone_reach(P, r[need], _SEARCH, box) * (1.0 + 1e-9), limit[need])
                done = ((limit < H) | (H == np.inf)).all(axis=1)
                # a done row keeps the points no winner of their cone or the
                # two next to it kills; the row itself is group m * p
                at = np.flatnonzero(done[slot] & (g < bound.size))
                at = at[d2[at] <= bound.ravel()[g[at]]]
                for c in (0, 1, -1):
                    u = r[slot[at]]
                    w = heads[slot[at], (g[at] + c) % _SEARCH.p]
                    at = at[~_kills(P, u, cols[at], np.where(w < 0, u, w), np.sqrt(d2[at]) * band)]
                w = heads.ravel()[g[at]]
                out.append(np.column_stack([r[slot[at]], cols[at], w, w]))
                left.append(r[~done])
            rows = np.concatenate(left)
            m *= 4
    found = np.concatenate(out)
    # a pair found twice, once from each end, tries both winners first; a
    # pair that one of two flagged ends dropped has a witness there
    key = np.minimum(found[:, 0], found[:, 1]) * n + np.maximum(found[:, 0], found[:, 1])
    at = np.argsort(key, kind="stable")
    key = key[at]
    first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    two = np.diff(np.append(first, len(key))) == 2
    pairs = found[at[first]]
    pairs[two, 3] = found[at[first[two] + 1], 2]
    return pairs[two | ~flagged[pairs[:, 1]]]


def _candidate_pairs(P, tree, floor, certify=False):
    """Candidates (u, v, a, b), u != v, whose pairs include every Gabriel
    and every relative-neighborhood edge of P; a and b are witnesses to try
    first: the vertices opposite a triangulation edge, u where there is
    none, or the search's cone winners. See the module docstring. ``tree``
    indexes P, and ``floor`` bounds the coordinate uncertainty below.

    Returns the candidates and, when ``certify``, a mask of those that are
    Gabriel edges with no test (``_certified``), or None. Only a
    triangulation that vouches for every point, so that the candidates are
    its edges each once, certifies any."""
    n = len(P)
    slack = _ulp_slack(P, floor)
    # points in the tree's leaf order are near in memory where near in space;
    # the edges and their tests below index them in that order
    order = tree.indices
    Po = P[order]
    try:
        tri = Delaunay(Po - P.min(axis=0))
    except QhullError:
        tri = None
    # Qhull's point at infinity leaks into the output of nearly flat input
    if tri is None or (tri.simplices >= n).any():
        return _search_pairs(P, tree, np.ones(n, dtype=bool), slack), None
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
    ins, tol = _incircle(Po, T[t], cand[shared, 3], slack)
    # Qhull can fold a triangle over near its resolution, and the incircle
    # test of its edges from its own side then passes
    folded = np.flatnonzero(_folded(Po, T))
    sure = None
    if certify:
        kept = np.zeros(n, dtype=bool)
        kept[T.ravel()] = True
        if kept.all():
            sure = _certified(Po, cand, shared, ins, tol, slack)
    # the rest takes the points' own indices
    T = order[T]
    cand = order[cand]
    # the points the triangulation cannot vouch for; a ball of twice the
    # radius bound around a vertex holds the circumdisk
    flagged = np.ones(n, dtype=bool)
    flagged[T.ravel()] = False
    bad = ins >= -tol
    seeds = np.unique(np.concatenate([t[bad], s[bad], folded]))
    flagged[T[seeds].ravel()] = True
    free = np.flatnonzero(~flagged)
    if len(seeds) and len(free):
        r = _circumradii(P, T[seeds])
        ok = np.isfinite(r)
        ti, pt = _ball_pairs(cKDTree(P[free]), seeds[ok], P[T[seeds[ok], 0]], 2.0 * r[ok] * (1.0 + 1e-9) + slack)
        ins, tol = _incircle(P, T[ti], free[pt], slack)
        flagged[free[pt[ins > tol]]] = True
    if not flagged.any():
        return cand, sure
    cand = np.concatenate([cand, _search_pairs(P, tree, flagged, slack)])
    lo = cand[:, :2].min(axis=1)
    hi = cand[:, :2].max(axis=1)
    # each pair once; the first copy, a triangulation edge's if there is one
    first = np.unique(lo * n + hi, return_index=True)[1]
    return cand[first], None


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

# most points a join may pair with a row, in units of the k points the
# first stage's radius is sized for; the guard refuses a row whose ball
# holds more
_JOIN_LOAD = 8


def _cones(dx, dy, spec: ConeSpec):
    """The cone of each direction (dx, dy), numbered from 0: ``cone_index``
    less one, bit for bit."""
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
    return cone


def _cone_nearest(P, rows, slot, cols, spec: ConeSpec):
    """Per row and cone, the winner under the module's rule among the
    candidate pairs (``rows[slot]``, ``cols``) and its squared distance; the
    head is -1 where the cone holds none. The pairs may come in any order
    and repeat; a row paired with itself lies in no cone. Also returns each
    pair's group slot * p + cone, m * p for a row paired with itself, and
    raw squared distance."""
    # gathers from the column views beat indexing P by (cols, 0)
    x, y = P[:, 0], P[:, 1]
    dx = x[cols] - x[rows][slot]
    dy = y[cols] - y[rows][slot]
    d2 = dx * dx + dy * dy
    cone = _cones(dx, dy, spec)
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
    return heads[:-1].reshape(m, spec.p), hd2[:-1].reshape(m, spec.p), g, d2


def _cone_reach(P, rows, spec: ConeSpec, box):
    """Squared distance from each row point to the farthest point of each
    cone, widened by ``_WIDEN``, within the points' bounding box ``box``,
    rows lo_x, lo_y, hi_x, hi_y.

    The farthest point of the clipped cone is a vertex: the exit of an edge
    ray from the box, or a box corner that ``_box_cones``, taking the corner
    as a box of its own, finds meeting the widened cone. A corner on an axis
    line through the row point meets only the cones of that axis direction
    (module docstring). Overflow or a degenerate ray yields inf or nan,
    which certifies nothing."""
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
    """(weights, axes) for ``_box_cones``. The weights (5, 5p) give, from a
    box's corner offsets (lo_x, lo_y, hi_x, hi_y) minus the row point and a
    margin, the greatest dot product over its corners, plus the margin,
    with the normal of each of 5p lines through the row point. Per cone, the lines are the edges of the widened
    cone and the bisector's normal line, each with the cone on its
    nonnegative side, then the edges of the narrowed cone, each with the
    narrowed cone on its negative side. The greatest dot product takes, per
    axis, the end the normal points to. ``axes`` (p, 4) marks the cones of
    the directions +x, -x, +y and -y, as ``_cones`` gives them for either
    sign of the zero difference."""
    start = spec.offset + spec.theta * np.arange(spec.p)
    lo, hi = start - _WIDEN, start + spec.theta + _WIDEN
    nlo, nhi = start + _WIDEN, start + spec.theta - _WIDEN
    mid = start + 0.5 * spec.theta
    nx = np.concatenate([-np.sin(lo), np.sin(hi), np.cos(mid), np.sin(nlo), -np.sin(nhi)])
    ny = np.concatenate([np.cos(lo), -np.cos(hi), np.sin(mid), -np.cos(nlo), np.cos(nhi)])
    weights = np.stack([
        np.minimum(nx, 0.0), np.minimum(ny, 0.0), np.maximum(nx, 0.0), np.maximum(ny, 0.0), np.ones_like(nx),
    ])
    # the directions +x, -x, +y and -y, each with a difference of +0 and -0
    zero = [0.0, -0.0]
    dx = np.array([1.0, 1.0, -1.0, -1.0] + zero + zero)
    dy = np.array(zero + zero + [1.0, 1.0, -1.0, -1.0])
    axes = np.zeros((spec.p, 4), dtype=bool)
    axes[_cones(dx, dy, spec), np.repeat(np.arange(4), 2)] = True
    return weights, axes


def _box_cones(u, box, lines):
    """Row points ``u``, coordinates first, against boxes ``box``, rows
    lo_x, lo_y, hi_x, hi_y first, broadcast together: per cone first,
    whether the box meets the widened cone and whether it lies wholly
    inside the narrowed one; and the least and greatest raw squared
    distance from u to a point of the box. ``lines`` is ``_cone_lines``'s.
    A box on an axis line through u meets only the cones of the axis
    directions it reaches (module docstring)."""
    weights, axes = lines
    v = box - np.concatenate([u, u])
    near = np.maximum(np.maximum(v[:2], -v[2:]), 0.0)
    far = np.maximum(-v[:2], v[2:])
    least = near[0] * near[0] + near[1] * near[1]
    most = far[0] * far[0] + far[1] * far[1]
    # past this margin for the rounding of the dot products, the whole box
    # lies strictly on a line's negative side
    tol = 1e-12 * (far[0] + far[1]) + 2.0 ** -1000
    w = np.concatenate([v, tol[None]]).reshape(5, tol.size)
    off = (weights.T @ w < 0.0).reshape(weights.shape[1:] + tol.shape)
    p = len(off) // 5
    inside = off[3 * p:4 * p] & off[4 * p:]
    if p == 2:
        # half-plane cones: a box misses one cone when it lies inside the other
        meets = ~inside[::-1]
    else:
        meets = ~(off[:p] | off[p:2 * p] | off[2 * p:3 * p])
    # both rounded differences in y 0: every point of the box has dy = +0 or
    # -0, at direction +x or -x as its dx has the sign of hi_x - u_x or of
    # lo_x - u_x; likewise in x
    flat_y = (v[1] == 0.0) & (v[3] == 0.0)
    flat_x = (v[0] == 0.0) & (v[2] == 0.0)
    flat = flat_x | flat_y
    if flat.any():
        ways = np.stack([v[2] > 0.0, v[0] < 0.0, v[3] > 0.0, v[1] < 0.0])
        ways &= np.stack([flat_y, flat_y, flat_x, flat_x])
        meets[:, flat] = axes @ ways[:, flat]
    return meets, inside, least, most


def _leaf_cuts(P, tree):
    """The tree's leaf layout (first, stop, gfirst, gstop, box, gbox): block
    i, one of its largest subtrees of at most ``_LEAF`` points, holds the
    leaf-order points [first, stop)[i]; group g, one of its largest of at
    most max(sqrt(8n), ``_LEAF``) points, the blocks [gfirst, gstop)[g];
    ``box`` and ``gbox`` are their boxes in P, rows lo_x, lo_y, hi_x, hi_y.
    A row tests every group and the blocks of the few groups it keeps, so
    groups of about sqrt(n) points balance the two. A group is never
    smaller than a block, and a leaf not yet in a group starts one, so
    every block lies in one: a leaf holds at most 16 points, or more that
    are equal, which the tree cannot split."""
    group = max(math.sqrt(8.0 * tree.n), _LEAF)
    blocks, groups = [], []
    stack = [(tree.tree, False)]
    while stack:
        node, grouped = stack.pop()
        if not grouped and (node.children <= group or node.lesser is None):
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
    # rows doubled the scan's time on a 2-core host running another process),
    # as do the pairs of a row with its largest block, which exceeds _LEAF
    # points only where the tree holds a leaf of equal points
    B = max(1, _BLOCK // max(25 * spec.p * len(gfirst), (stop - first).max()))
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


def _horizon(seen, e):
    """The squared horizon H of search radii ``seen`` in the points scaled
    by 2**-e, inf where the search saw every point: ``seen`` shrunk by a
    relative 1e-12, which covers the rounding of both distances, in input
    units."""
    h = seen * (1.0 - 1e-12)
    H = np.ldexp(h, e) ** 2
    # a horizon that overflows or nears the subnormal range settles nothing;
    # an infinite one, where the pairs hold every point, stays
    H[~((h * h >= _TINY) & (H >= _TINY) & ((H < np.inf) | (h == np.inf)))] = 0.0
    return H


def _settle(P, spec: ConeSpec, box, e, pend, slot, cols, seen, out):
    """One search stage's step for the rows of the pending record ``pend``,
    (rows, heads, bound) as ``_yao_blocks`` reads it: their winners among the
    pairs (``rows[slot]``, ``cols``), which hold every point within distance
    ``seen`` of each row in the points scaled by 2**-e, inf where they hold
    every point, whose horizon ``_horizon`` gives; ``box`` is the points'
    bounding box. A cone an earlier stage settled (bound -inf) keeps its head; the
    first stage passes heads -1 and bound inf, as scalars. Appends the arcs
    of the rows whose every cone is settled to ``out`` and returns the
    record of the others, with bound -inf where a cone is settled and the
    winner's squared distance elsewhere."""
    rows, heads, bound = pend
    found, hd2 = _cone_nearest(P, rows, slot, cols, spec)[:2]
    H = _horizon(seen, e)
    before = bound < 0.0
    heads = np.where(before, heads, found)
    empty = found < 0
    # a horizon of 0 settles nothing
    need = (empty & ~before).any(axis=1) & (H > 0.0)
    reach = hd2.copy()
    reach[need] = np.where(empty[need], _cone_reach(P, rows[need], spec, box) * (1.0 + 1e-9), hd2[need])
    settled = before | (reach < H[:, None])
    done = settled.all(axis=1)
    out.append(_as_arcs(rows[done], heads[done]))
    return rows[~done], heads[~done], np.where(settled, -np.inf, hd2)[~done]


def _join_guard(tree, X, head, seen, cap):
    """Which rows, coordinates ``X`` (first) in leaf order, a join at radius
    ``seen`` can take: those whose ball holds at most ``cap`` points, where
    ``seen`` is positive. ``head`` holds the first row of each block's
    rows, which share a radius r. Around the centre of the box of a block's
    rows, the ball of radius r plus the box's half diagonal holds every
    point within r of each row, and the ball of r minus the half diagonal
    only such points. One count of the first passes the block's rows where
    it holds at most ``cap`` points, and one of the second refuses them
    where it holds more; the rows of a block neither settles count their
    own balls."""
    lo, hi = np.minimum.reduceat(X, head, axis=1), np.maximum.reduceat(X, head, axis=1)
    half = 0.5 * np.hypot(hi[0] - lo[0], hi[1] - lo[1])
    mid = (0.5 * (lo + hi)).T
    r = seen[head]
    live = np.flatnonzero(r > 0.0)
    load = np.full(len(head), cap + 1)
    load[live] = tree.query_ball_point(mid[live], half[live] + r[live], return_length=True)
    inner = np.flatnonzero((load > cap) & (r > half))
    ask = (load > cap) & (r > 0.0)
    ask[inner] = tree.query_ball_point(mid[inner], r[inner] - half[inner], return_length=True) <= cap
    sizes = np.diff(np.append(head, len(seen)))
    join = np.repeat(load <= cap, sizes)
    ask = np.repeat(ask, sizes)
    join[ask] = tree.query_ball_point(X[:, ask].T, seen[ask], return_length=True) <= cap
    return join


def _yao_join(P, Q, e, spec: ConeSpec, tree, box, pend, seen, cut, size, out):
    """A search stage of fixed-radius joins.

    The rows of the pending record ``pend``, in leaf order, pair with every
    point within their search radius ``seen`` in Q, which their group
    sets; ``cut`` holds the first row of each group but the first. The rows
    of one group go in runs of at most ``size``, and one kd-tree over a
    run's rows finds its pairs. A batch takes runs until their pairs, or
    their rows where a run has fewer pairs than rows, reach ``_CHUNK``, and
    goes through ``_settle``. Returns the pending record of the rows left
    open."""
    rows, heads, bound = pend
    left, slots, cols, at, pairs = [], [], [], 0, 0
    for a0, b0 in zip(chain([0], cut), chain(cut, [len(rows)])):
        for a in range(a0, b0, size):
            b = min(a + size, b0)
            found = cKDTree(Q[rows[a:b]]).sparse_distance_matrix(tree, seen[a], output_type="ndarray")
            # copied out, so that each run's records are freed at once:
            # keeping a batch of them raised the peak resident size by 6-8%
            slots.append(found["i"] + (a - at))
            cols.append(found["j"].copy())
            pairs += max(len(found), b - a)
            if pairs < _CHUNK and b < len(rows):
                continue
            batch = (rows[at:b], heads[at:b], bound[at:b])
            left.append(_settle(P, spec, box, e, batch, np.concatenate(slots), np.concatenate(cols), seen[at:b], out))
            slots, cols, at, pairs = [], [], b, 0
    return tuple(np.concatenate(a) for a in zip(*left)) if left else pend


def _yao_knn(P, spec: ConeSpec) -> np.ndarray:
    """Staged search, then a scan of nearby blocks for the rows it leaves.

    Rows go in kd-tree leaf order. A group's radius r is the one at which a
    disk holds k = 4p + 16 points at its density, its point count over the
    area of its box in Q. The first stage joins each row at r and the
    second each row the first leaves open at 2r (``_yao_join``), where
    ``_join_guard`` finds the row's ball holds at most ``_JOIN_LOAD * k``
    points, and the set holds more. The rows it refuses, among them those
    of groups with r zero, pair with their 4k nearest points, capped at
    n - 1, and take the next nearest point's distance as the horizon: inf
    where there is none, as the query has then seen every point. All three
    settle rows with ``_settle``; the rows with a cone left open go to
    ``_yao_blocks``."""
    e, Q, tree = _scaled_tree(P)
    cuts = _leaf_cuts(P, tree)
    first, stop, gfirst, gstop, _, groups = cuts
    order = tree.indices
    n = len(P)
    box = np.concatenate([P.min(axis=0), P.max(axis=0)])
    k = 4 * spec.p + 16
    cap = _JOIN_LOAD * k
    # each group's radius; ldexp is monotone, so the groups' boxes scaled
    # are those of Q
    side = np.ldexp(groups[2:], -e) - np.ldexp(groups[:2], -e)
    start = first[gfirst]
    count = stop[gstop - 1] - start
    radius = np.sqrt(k * side[0] * side[1] / (math.pi * count))
    out = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the first stage: every row, in leaf order, at its group's radius
        rows, seen, cut = order, np.repeat(radius, count), start[1:]
        join = _join_guard(tree, Q[order].T, first, seen, cap)
        skip = order[~join]
        left = [(skip, np.full((len(skip), spec.p), -1), np.full((len(skip), spec.p), np.inf))]
        # copied only where the guard refuses a row: copies of these n-sized
        # arrays, alive while the arcs pile up, left holes that raised the
        # peak resident size at 1e6 points by 2%
        if len(skip):
            rows, seen, cut = rows[join], seen[join], np.searchsorted(np.flatnonzero(join), cut)
        # no winner and no bound yet, as views of one value; runs of whole
        # groups, whose rows each expect about k pairs: runs of _CHUNK // k
        # rows raised the peak resident size at 1e6 points by 1%
        pend = (rows, np.broadcast_to(-1, (len(rows), spec.p)), np.broadcast_to(np.inf, (len(rows), spec.p)))
        rows, heads, bound = _yao_join(P, Q, e, spec, tree, box, pend, seen, cut, n, out)
        # the second stage: the rows left open, still in leaf order, at
        # twice the radius
        keep = np.zeros(n, dtype=bool)
        keep[rows] = True
        at = np.flatnonzero(keep[order])
        g = np.searchsorted(start, at, side="right") - 1
        seen = 2.0 * radius[g]
        head = np.flatnonzero(np.diff(np.searchsorted(first, at, side="right"), prepend=-1))
        # on at most cap points the query takes half of them or more, and its
        # horizon settles rows a ball of about 4k points leaves to the scan
        join = _join_guard(tree, Q[rows].T, head, seen, cap) & (n > cap)
        left.append((rows[~join], heads[~join], bound[~join]))
        pend = (rows[join], heads[join], bound[join])
        cut = np.flatnonzero(np.diff(g[join])) + 1
        rows, heads, bound = _yao_join(P, Q, e, spec, tree, box, pend, seen[join], cut, max(1, _CHUNK // (4 * k)), out)
        # the rows the guard refused
        m = min(4 * k, n - 1)
        B = max(1, _CHUNK // (m + 2))
        todo = [np.concatenate(a) for a in zip(*left)]
        left = [(rows, heads, bound)]
        for a in range(0, len(todo[0]), B):
            pend = [x[a:a + B] for x in todo]
            # the row, its m nearest points and one more, whose distance is
            # the horizon; a missing point has distance inf and index n
            dk, ik = tree.query(Q[pend[0]], k=m + 2)
            slot = np.repeat(np.arange(len(ik)), m + 1)
            left.append(_settle(P, spec, box, e, pend, slot, ik[:, :-1].ravel(), dk[:, -1], out))
        rows, heads, bound = (np.concatenate(a) for a in zip(*left))
    if len(rows):
        out.append(_yao_blocks(P, spec, tree, cuts, rows, heads, bound))
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

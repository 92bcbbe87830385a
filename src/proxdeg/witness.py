"""Detectors and generators for extreme-degree witness configurations.

Two local patterns are covered. A ring witness around a center point:
k satellite points in the annulus between radii r and R, one in each of
k angular regions cut from the circle, which forces the center to have
k disk-empty neighbors. A staircase witness: k points placed one per
step on a descending diagonal of squares next to a corner point, which
forces k cone-nearest neighbors. Census functions scan a point set for
every occurrence at the scale where theory predicts a constant count.

Membership conventions: annuli are open at the inner radius and closed
at the outer, step squares are closed, all comparisons run on squared
distances or raw coordinates without epsilon.

Census. Both censuses test the candidates clear of the square's edges
in the census metric: Euclidean for rings with radius R, L-infinity for
staircases with radius r. A witness has exactly k points besides its
centre within the radius under the raw test. A census gathers, for every
candidate, a superset of the points the raw test counts as (row, member)
pairs, applies the raw test to each pair (``_pearl_near``,
``_step_near``), keeps the rows of exactly k, and runs the exact core on
all of them at once (``_tiara_core``, ``_staircase_core``: the ring's
open inner radius, or each point's steps). ``is_tiara`` and
``is_staircase`` run the same raw test and core on one centre against
every point. The superset comes from one of two searches.

The join. ``cKDTree.query_pairs`` pairs the points within twice the join
radius of the candidates' box: radius * (1 + 1e-9) for rings, and that
times sqrt(2) (1 + 1e-9) for staircases, as the L2 ball of radius
sqrt(2) r holds the L-infinity ball of radius r. The kd-tree's distance
and the raw test's differ by a few ulps, far under 1e-9, so every point
the raw test counts is paired with its centre. The join pairs distinct
points only, and so leaves out the centre, as the raw test does by its
zero offset. The raw test runs on each pair once: the two orientations'
offsets differ only in sign. So the counts are the raw test's own, and
no margin enters beyond the join radius.

- The join runs tile by tile over a grid of square cells one join
  radius wide. A pair within the join radius lies in one cell or two
  adjacent ones: a point's cell index errs by under 1e-15 / w cells, far
  under the 1e-9 margin, at every n that fits in memory. So a tile joins
  the points of its cells and of the cells around them, and takes only
  the points of its own cells as rows.
- A cell's bound is the sum over its points of the points in the 3x3
  block of cells around it, the point included. The bounds sum to n plus
  at least the ordered pairs within the join radius, and a tile's bound
  bounds its rows' pairs. Tiles are rectangles of cells, halved along the
  longer side at the middle of the bound until each is at most
  2 ``_CHUNK`` (about ``_CHUNK`` pairs) or one cell. The sum is about
  13 n for rings and 36 n for staircases on uniform points, 36 n and 58 n
  on 16 clusters of 100 points in 1e-3 squares among 5,000 uniform
  points, and about the square of its size for a cluster within one cell.

The fallback. When the bounds sum to over ``_JOIN_CAP`` n, or one cell's
bound is over a tile's (about 256 points in one cell), the census takes
a search whose cost is linear in n at every layout:

- a kd-tree query of the k + 2 nearest points of each candidate, centre
  included, keeps a candidate only when its (k+1)-th nearest lies
  within radius * (1 + 1e-9) and its (k+2)-th beyond radius *
  (1 - 1e-9). The raw test and the kd-tree's distance differ by a few
  ulps, far under 1e-9: the centre and the k points the raw test
  counts are k + 1 points within the first bound, and a (k+2)-th point
  within the second would be a (k+1)-th point the raw test counts. So
  no witness is dropped. The query stops just past the first bound;
  points beyond it read as inf, as do the missing neighbours when
  k + 2 > n, and both pass the second test and fail the first.
- The raw test leaves out the centre by its zero offset, and so would
  leave out any point whose offset squares to zero; the kd-tree would
  not. No other point has a zero offset: a ``PointSet`` has no
  duplicates, and a candidate lies at least r inside the unit square,
  so another point differs from it by at least 2**-54 r in some
  coordinate, whose square is a normal double at every n that fits in
  memory.
- The survivors fetch their balls of radius * (1 + 1e-9), which hold
  every point the raw test counts, as (row, member) pairs.

A step is closed, so a point on a shared corner lies in two steps. The
step bounds i * (r/k) and r - i * (r/k) are monotone in i, so the steps
holding a point are the integers between two binary searches of them.
k points fill k steps once each exactly when each point lies in one
step and no two share it.

The ring test takes the regions of the k pearls, on rows that pass
every vectorized test, from ``pearl_region_index``, the one definition
of a region. A vectorized copy built on NumPy's ``arctan2`` would not
agree with it: on some CPUs (AVX-512 builds among them) ``arctan2``
differs from ``math.atan2`` in the last bit for a few percent of
directions, which moves a pearl within an ulp of a sector edge into the
next sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError, check_int, check_number
from .geom import TWO_PI, UNIT_SQUARE, PointSet, Region, as_point_set
from .graphs import _CHUNK, _ball_pairs


@dataclass(frozen=True)
class PearlSpec:
    """Geometry of the ring witness: k pearls in the annulus (r, R].

    The circle splits into 3k sectors of angle xi = 2*pi/(3k), numbered
    clockwise from the positive x axis. Consecutive sector pairs
    (3j-2, 3j-1) form region j and every third sector is a gap, so the
    k regions are separated. R = r/cos(xi) is the outer radius at which
    a pearl anywhere in a region still keeps the center among its two
    nearest ring neighbors.
    """

    k: int
    r: float

    def __post_init__(self):
        object.__setattr__(self, "k", check_int("pearl count k", self.k, 3))
        object.__setattr__(self, "r", check_number("inner radius r", self.r))

    @property
    def xi(self) -> float:
        return TWO_PI / (3 * self.k)

    @property
    def R(self) -> float:
        return self.r / math.cos(self.xi)


def pearl_region_index(center, w, spec: PearlSpec) -> int | None:
    """Region of ``w`` around ``center``: 1..k inside a region, else None.

    Membership needs both the annulus (strictly outside r, at most R) and
    a non-gap sector. Sectors are half-open clockwise, closed on the edge
    nearer the positive x axis.
    """
    dx = w[0] - center[0]
    dy = w[1] - center[1]
    if dx == 0.0 and dy == 0.0:
        raise ParameterError("w must differ from center")
    d2 = dx * dx + dy * dy
    if not (spec.r * spec.r < d2 <= spec.R * spec.R):
        return None
    clk = (-math.atan2(dy, dx)) % TWO_PI
    s = min(int(clk / spec.xi) + 1, 3 * spec.k)
    if s % 3 == 0:
        return None
    return s // 3 + 1


def _pearl_near(dx, dy, spec: PearlSpec) -> np.ndarray:
    """Which offsets (dx, dy) from a centre the ring counts: nonzero and
    within R."""
    d2 = dx * dx + dy * dy
    return (d2 > 0.0) & (d2 <= spec.R * spec.R)


def _tiara_core(dx, dy, spec: PearlSpec) -> np.ndarray:
    """Exact ring test of m centres, given the (m, k) offsets (dx, dy)
    from each centre to the k points ``_pearl_near`` counts around it."""
    ok = (dx * dx + dy * dy > spec.r * spec.r).all(axis=1)
    regions = set(range(1, spec.k + 1))
    for i in np.flatnonzero(ok):
        pearls = zip(dx[i].tolist(), dy[i].tolist())
        ok[i] = {pearl_region_index((0.0, 0.0), w, spec) for w in pearls} == regions
    return ok


def _detect(center, points, spec, near, core) -> bool:
    """``core``'s verdict on ``center``, given every point of the set."""
    dx, dy = (as_point_set(points).coords - np.array(center[:2], dtype=np.float64)).T
    keep = near(dx, dy, spec)
    return int(keep.sum()) == spec.k and bool(core(dx[None, keep], dy[None, keep], spec)[0])


def is_tiara(center, points, spec: PearlSpec) -> bool:
    """True iff the points of the set within distance R of ``center``
    (center itself excluded) are exactly one pearl per region, all
    strictly outside radius r."""
    return _detect(center, points, spec, _pearl_near, _tiara_core)


def make_tiara(spec: PearlSpec, center) -> PointSet:
    """Generate k pearls forming a ring witness around ``center``.

    Pearl j sits at radius (r + R)/2 on the boundary between the two
    sectors of region j; sector rounding on either side stays inside the
    region, so the construction is robust to the angle arithmetic.
    """
    i = np.arange(spec.k, dtype=np.float64)
    ang = -(3.0 * i + 1.0) * spec.xi
    rho = (spec.r + spec.R) / 2.0
    return PointSet(np.column_stack([
        center[0] + rho * np.cos(ang),
        center[1] + rho * np.sin(ang),
    ]))


@dataclass(frozen=True)
class StaircaseSpec:
    """Geometry of the staircase witness: the square of side r above and
    right of a corner point splits into a k-step descending diagonal of
    closed squares of side r/k."""

    k: int
    r: float

    def __post_init__(self):
        object.__setattr__(self, "k", check_int("step count k", self.k, 1))
        object.__setattr__(self, "r", check_number("side r", self.r))

    @property
    def step(self) -> float:
        return self.r / self.k


def _step_near(dx, dy, spec: StaircaseSpec) -> np.ndarray:
    """Which offsets (dx, dy) from a corner the staircase counts: nonzero
    and within L-infinity distance r."""
    return (np.maximum(np.abs(dx), np.abs(dy)) <= spec.r) & ((dx != 0.0) | (dy != 0.0))


def _staircase_core(dx, dy, spec: StaircaseSpec) -> np.ndarray:
    """Exact staircase test of m corners, given the (m, k) offsets
    (dx, dy) from each corner to the k points ``_step_near`` counts
    around it."""
    # step i holds b[i-1] <= dx <= b[i] and c[i-1] <= -dy <= c[i]; both
    # lists ascend, so the steps holding a point run from lo to hi
    b = np.arange(spec.k + 1, dtype=np.float64) * (spec.r / spec.k)
    c = -(spec.r - b)
    y = -dy
    lo = np.maximum(np.searchsorted(b[1:], dx, "left"), np.searchsorted(c[1:], y, "left")) + 1
    hi = np.minimum(np.searchsorted(b[:-1], dx, "right"), np.searchsorted(c[:-1], y, "right"))
    steps = np.sort(np.where(lo == hi, lo, 0), axis=1)
    return (steps == np.arange(1, spec.k + 1)).all(axis=1)


def is_staircase(center, points, spec: StaircaseSpec) -> bool:
    """True iff the points of the set within L-infinity distance r of
    ``center`` (center excluded) occupy the k steps exactly once each."""
    return _detect(center, points, spec, _step_near, _staircase_core)


def make_staircase(spec: StaircaseSpec, center) -> PointSet:
    """Generate k points, one at the center of each step square."""
    i = np.arange(1, spec.k + 1, dtype=np.float64)
    off = (2.0 * i - 1.0) * spec.r / (2.0 * spec.k)
    return PointSet(
        np.column_stack([center[0] + off, center[1] + (spec.r - off)])
    )


# ---------------------------------------------------------------------------
# Census scans

# the census join's guard: above this many ordered pairs per point in the
# bound of ``_join_grid``, a census takes the k + 2 nearest query instead
# (module docstring)
_JOIN_CAP = 128


def _witness_count(n: int, c: float, kmin: int) -> int:
    n = check_int("census size n", n, 16)
    c = check_number("scale constant c", c)
    return max(kmin, int(c * math.log(n) / math.log(math.log(n))))


def jewel_scale(n: int, c: float = 1.0) -> tuple[int, float]:
    """(k, r) used by the ring census at set size n: k grows like
    c*log(n)/log(log(n)) and r = 1/sqrt(n)."""
    return _witness_count(n, c, kmin=3), 1.0 / math.sqrt(n)


def staircase_scale(n: int, c: float = 1.0) -> tuple[int, float]:
    """(k, r) used by the staircase census at set size n: same k growth,
    r = sqrt(2/n)."""
    return _witness_count(n, c, kmin=1), math.sqrt(2.0 / n)


def _census_support(support: Region | None) -> Region:
    """Both census scans are defined on the unit square only; the scale
    formulas and the perimeter margins assume it."""
    if support is None:
        return Region.unit_square()
    if not isinstance(support, Region) or support.kind != UNIT_SQUARE:
        raise ParameterError(
            f"witness census supports the unit square only, got {support!r}"
        )
    return support


def _join_grid(x, y, w):
    """The cell of each point (x, y) in a grid of square cells of side
    ``w``, as cx * ny + cy, and each cell's bound, as an (nx, ny) array:
    the sum over its points of the points in the 3x3 block of cells
    around it, the point included. The bounds sum to the number of
    points plus at least the number of ordered pairs of distinct points
    within Euclidean distance ``w``."""
    cx = ((x - x.min()) / w).astype(np.int64)
    cy = ((y - y.min()) / w).astype(np.int64)
    ny = int(cy.max()) + 3
    cnt = np.bincount((cx + 1) * ny + cy + 1, minlength=(int(cx.max()) + 3) * ny).reshape(-1, ny)
    block = cnt[:-2] + cnt[1:-1] + cnt[2:]
    block = block[:, :-2] + block[:, 1:-1] + block[:, 2:]
    return cx * (ny - 2) + cy, cnt[1:-1, 1:-1] * block


def _tiles(bound, budget):
    """Rectangles [a, b) x [c, d) of cells that cover every cell of
    nonzero ``bound``, each of total bound at most ``budget`` or a single
    cell: halve the total along the longer side until it fits."""
    cum = np.zeros((bound.shape[0] + 1, bound.shape[1] + 1), dtype=np.int64)
    cum[1:, 1:] = bound.cumsum(axis=0).cumsum(axis=1)
    tiles = []
    todo = [(0, bound.shape[0], 0, bound.shape[1])]
    while todo:
        a, b, c, d = todo.pop()
        total = cum[b, d] - cum[a, d] - cum[b, c] + cum[a, c]
        if total == 0:
            continue
        if total <= budget or (b - a == 1 and d - c == 1):
            tiles.append((a, b, c, d))
        elif b - a >= d - c:
            # the bound of columns a .. m-1, for m = a+1 .. b-1
            part = cum[a + 1:b, d] - cum[a + 1:b, c] - cum[a, d] + cum[a, c]
            m = a + 1 + min(int(np.searchsorted(part, total / 2.0)), b - a - 2)
            todo += [(a, m, c, d), (m, b, c, d)]
        else:
            part = cum[b, c + 1:d] - cum[a, c + 1:d] - cum[b, c] + cum[a, c]
            m = c + 1 + min(int(np.searchsorted(part, total / 2.0)), d - c - 2)
            todo += [(a, b, c, m), (a, b, m, d)]
    return tiles


def _hits(x, y, row, mem, ok, spec, core) -> np.ndarray:
    """Rows at which ``core`` finds the witness ``spec``, among the rows
    where ``ok`` holds; (row, mem) lists the k points the witness counts
    around each of them, and no other pair. x and y are the points'
    coordinates."""
    order = np.argsort(row)
    row = row[order]
    mem = mem[order]
    at = np.flatnonzero(ok)
    shape = (len(at), spec.k)
    return at[core((x[mem] - x[row]).reshape(shape), (y[mem] - y[row]).reshape(shape), spec)]


def _census(P, cand, spec, near, core, radius, p) -> np.ndarray:
    """Indices in ``cand`` at which ``core`` finds the witness ``spec``
    within the Minkowski-``p`` ball of ``radius``: a self-join, tile by
    tile, of the points near the candidates, or, when its pair bound is
    over ``_JOIN_CAP`` n or one cell's over a tile's, a k + 2 nearest
    filter and a ball fetch (see the module docstring)."""
    n = len(P)
    if len(cand) == 0:
        return cand
    x, y = P.T.copy()
    ok = np.zeros(n, dtype=bool)
    ok[cand] = True
    reach = radius * (1.0 + 1e-9)
    # the L2 ball of radius sqrt(2) r holds the L-infinity ball of radius r
    join = reach if p == 2.0 else reach * math.sqrt(2.0) * (1.0 + 1e-9)
    # the points within twice the join radius of the candidates' box
    inside = np.ones(n, dtype=bool)
    for z in (x, y):
        zc = z[cand]
        inside &= (z >= zc.min() - 2.0 * join) & (z <= zc.max() + 2.0 * join)
    sub = np.flatnonzero(inside)
    cell, bound = _join_grid(x[sub], y[sub], join)
    # a tile's bound: about _CHUNK pairs
    budget = 2 * _CHUNK
    if bound.sum() > _JOIN_CAP * n or bound.max() > budget:
        tree = cKDTree(P, balanced_tree=False, compact_nodes=False)
        d = tree.query(P[cand], k=spec.k + 2, p=p, distance_upper_bound=reach * (1.0 + 1e-9))[0]
        rows = cand[(d[:, spec.k] <= reach) & (d[:, spec.k + 1] > radius * (1.0 - 1e-9))]
        row, mem = _ball_pairs(tree, rows, P[rows], reach, p)
        keep = near(x[mem] - x[row], y[mem] - y[row], spec)
        row = row[keep]
        mem = mem[keep]
        ok &= np.bincount(row, minlength=n) == spec.k
        keep = ok[row]
        return _hits(x, y, row[keep], mem[keep], ok, spec, core)
    # points in cell order, so that a tile's cells in one column are a run;
    # a tile joins its cells and the cells around them, and takes the
    # points of its own cells as rows
    nx, ny = bound.shape
    order = np.argsort(cell)
    sub = sub[order]
    cell = cell[order]
    start = np.searchsorted(cell, np.arange(nx * ny + 1))
    found = []
    for a, b, c, d in _tiles(bound, budget):
        lo = max(c - 1, 0)
        hi = min(d + 1, ny)
        at = np.concatenate([np.arange(start[u * ny + lo], start[u * ny + hi])
                             for u in range(max(a - 1, 0), min(b + 1, nx))])
        cu, cv = np.divmod(cell[at], ny)
        inner = (cu >= a) & (cu < b) & (cv >= c) & (cv < d)
        idx = sub[at]
        i, j = cKDTree(P[idx], balanced_tree=False, compact_nodes=False).query_pairs(
            join, output_type="ndarray").T
        xs = x[idx]
        ys = y[idx]
        keep = near(xs[j] - xs[i], ys[j] - ys[i], spec)
        i = i[keep]
        j = j[keep]
        inner &= ok[idx]
        inner &= np.bincount(i, minlength=len(idx)) + np.bincount(j, minlength=len(idx)) == spec.k
        # each pair once per orientation whose row holds a witness's count
        fwd = inner[i]
        rev = inner[j]
        row = np.concatenate([i[fwd], j[rev]])
        mem = np.concatenate([j[fwd], i[rev]])
        found.append(idx[_hits(xs, ys, row, mem, inner, spec, core)])
    return np.sort(np.concatenate(found))


def find_jewels(points, c: float = 1.0, support: Region | None = None) -> np.ndarray:
    """Indices of points whose neighborhood is a ring witness at the
    census scale. Candidates must clear the square's perimeter by 2r so
    the whole ring fits inside the support."""
    _census_support(support)
    pts = as_point_set(points)
    k, r = jewel_scale(pts.n, c)
    spec = PearlSpec(k, r)
    P = pts.coords
    x = P[:, 0]
    y = P[:, 1]
    clear = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
    cand = np.flatnonzero(clear >= 2.0 * r)
    return _census(P, cand, spec, _pearl_near, _tiara_core, spec.R, 2.0)


def count_jewels(points, c: float = 1.0, support: Region | None = None) -> int:
    """Number of ring witnesses in the set at the census scale."""
    return int(len(find_jewels(points, c, support)))


def find_staircases(points, c: float = 1.0, support: Region | None = None) -> np.ndarray:
    """Indices of points whose neighborhood is a staircase witness at the
    census scale. Candidates keep their full L-infinity ball inside the
    square."""
    _census_support(support)
    pts = as_point_set(points)
    k, r = staircase_scale(pts.n, c)
    spec = StaircaseSpec(k, r)
    P = pts.coords
    x = P[:, 0]
    y = P[:, 1]
    cand = np.flatnonzero((x >= r) & (x <= 1.0 - r) & (y >= r) & (y <= 1.0 - r))
    return _census(P, cand, spec, _step_near, _staircase_core, r, np.inf)


def count_staircases(points, c: float = 1.0, support: Region | None = None) -> int:
    """Number of staircase witnesses in the set at the census scale."""
    return int(len(find_staircases(points, c, support)))


# ---------------------------------------------------------------------------
# Coordinatewise extrema


def _count_maxima(P) -> int:
    """Maxima count of an (n, 2) array of distinct points, in one sorted
    pass."""
    order = np.argsort(-P[:, 0], kind="stable")
    xs = P[order, 0]
    ys = P[order, 1]
    # best[j] is the largest y among the first j points in decreasing x;
    # a point is beaten only from a column strictly to its right, so it
    # meets best at the first index of its own column of tied x
    best = np.concatenate([[-np.inf], np.maximum.accumulate(ys)])
    first = np.arange(len(xs))
    first[1:][xs[1:] == xs[:-1]] = 0
    np.maximum.accumulate(first, out=first)
    return int((ys >= best[first]).sum())


def count_maxima(points) -> int:
    """Number of points no other point beats strictly in both
    coordinates."""
    return _count_maxima(as_point_set(points).coords)


def count_minima(points) -> int:
    """Number of points no other point beats strictly downward in both
    coordinates."""
    return _count_maxima(-as_point_set(points).coords)

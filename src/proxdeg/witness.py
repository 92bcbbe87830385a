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

Census. Both censuses run one batched scan over the candidates clear
of the square's edges, in the census metric: Euclidean for rings with
radius R, L-infinity for staircases with radius r. A witness has
exactly k points besides its centre within the radius under the raw
test, so:

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
  every point the raw test counts, as one CSR of (row, member) pairs.
  ``_tiara_core`` and ``_staircase_core`` run on it vectorized, with
  the raw-double expressions of the definitions: the exact count per
  row by ``bincount``, then, on rows of exactly k, the ring's open inner
  radius or each point's steps. ``is_tiara`` and ``is_staircase`` run
  the same cores on one row holding every point.

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
from .graphs import _ball_pairs


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


def _exact_k(row, near, m, k):
    """Which of m rows have exactly k ``near`` members, and those members'
    positions as one line of k per such row; ``row`` lists each member's
    row in nondecreasing order."""
    ok = np.bincount(row[near], minlength=m) == k
    return ok, np.flatnonzero(near & ok[row]).reshape(-1, k)


def _tiara_core(D, row, m, spec: PearlSpec) -> np.ndarray:
    """Exact ring test of m centres, given offsets ``D[row == i]`` from
    centre i to any superset of the points within R of it."""
    d2 = D[:, 0] * D[:, 0] + D[:, 1] * D[:, 1]
    ok, at = _exact_k(row, (d2 > 0.0) & (d2 <= spec.R * spec.R), m, spec.k)
    rows = np.flatnonzero(ok)
    ok[rows] = (d2[at] > spec.r * spec.r).all(axis=1)
    regions = set(range(1, spec.k + 1))
    for i, pearls in zip(rows, at):
        if ok[i]:
            ok[i] = {pearl_region_index((0.0, 0.0), w, spec) for w in D[pearls].tolist()} == regions
    return ok


def is_tiara(center, points, spec: PearlSpec) -> bool:
    """True iff the points of the set within distance R of ``center``
    (center itself excluded) are exactly one pearl per region, all
    strictly outside radius r."""
    D = as_point_set(points).coords - np.array(center[:2], dtype=np.float64)
    return bool(_tiara_core(D, np.zeros(len(D), dtype=np.int64), 1, spec)[0])


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


def _staircase_core(D, row, m, spec: StaircaseSpec) -> np.ndarray:
    """Exact staircase test of m corners, given offsets ``D[row == i]``
    from corner i to any superset of the points within L-infinity
    distance r of it."""
    near = (np.abs(D).max(axis=1) <= spec.r) & (D != 0.0).any(axis=1)
    ok, at = _exact_k(row, near, m, spec.k)
    # step i holds b[i-1] <= dx <= b[i] and c[i-1] <= -dy <= c[i]; both
    # lists ascend, so the steps holding a point run from lo to hi
    b = np.arange(spec.k + 1, dtype=np.float64) * (spec.r / spec.k)
    c = -(spec.r - b)
    x = D[at, 0]
    y = -D[at, 1]
    lo = np.maximum(np.searchsorted(b[1:], x, "left"), np.searchsorted(c[1:], y, "left")) + 1
    hi = np.minimum(np.searchsorted(b[:-1], x, "right"), np.searchsorted(c[:-1], y, "right"))
    steps = np.sort(np.where(lo == hi, lo, 0), axis=1)
    ok[ok] = (steps == np.arange(1, spec.k + 1)).all(axis=1)
    return ok


def is_staircase(center, points, spec: StaircaseSpec) -> bool:
    """True iff the points of the set within L-infinity distance r of
    ``center`` (center excluded) occupy the k steps exactly once each."""
    D = as_point_set(points).coords - np.array(center[:2], dtype=np.float64)
    return bool(_staircase_core(D, np.zeros(len(D), dtype=np.int64), 1, spec)[0])


def make_staircase(spec: StaircaseSpec, center) -> PointSet:
    """Generate k points, one at the center of each step square."""
    i = np.arange(1, spec.k + 1, dtype=np.float64)
    off = (2.0 * i - 1.0) * spec.r / (2.0 * spec.k)
    return PointSet(
        np.column_stack([center[0] + off, center[1] + (spec.r - off)])
    )


# ---------------------------------------------------------------------------
# Census scans


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


def _census(P, cand, spec, core, radius, p) -> np.ndarray:
    """Indices in ``cand`` at which ``core`` finds the witness ``spec``
    within the Minkowski-``p`` ball of ``radius``: a k + 2 nearest filter,
    then one fetch and one ``core`` call on the survivors (see the module
    docstring)."""
    tree = cKDTree(P)
    reach = radius * (1.0 + 1e-9)
    d = tree.query(P[cand], k=spec.k + 2, p=p, distance_upper_bound=reach * (1.0 + 1e-9))[0]
    cand = cand[(d[:, spec.k] <= reach) & (d[:, spec.k + 1] > radius * (1.0 - 1e-9))]
    row, mem = _ball_pairs(tree, np.arange(len(cand)), P[cand], reach, p)
    return cand[core(P[mem] - P[cand[row]], row, len(cand), spec)]


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
    return _census(P, cand, spec, _tiara_core, spec.R, 2.0)


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
    return _census(P, cand, spec, _staircase_core, r, np.inf)


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

"""Planar geometry core: points, sampling regions, cones, and the exact
emptiness predicates behind the proximity-graph builders.

Conventions, fixed here once and relied on everywhere else:

* predicates compare squared distances on raw float64 values, no epsilon;
* the Gabriel disk and the lune are open sets, so boundary points do not
  block an edge;
* region membership is closed, boundary points belong to the region;
* cone indices are 1-based and each cone is half-open, closed on its
  lower (counterclockwise) edge.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import DuplicatePointError, ParameterError, check_int, check_real

TWO_PI = 2.0 * math.pi

# Half-diagonal of the unit square. The rotated square is the closed L1
# ball of this radius around (0.5, 0.5).
ROT_HALF_DIAG = math.sqrt(2.0) / 2.0

UNIT_SQUARE = "unit-square"
ROTATED_SQUARE = "rotated-square"
RECT_UNION = "rect-union"


class Point(namedtuple("Point", ("x", "y"))):
    """A planar point; coordinates are finite floats, checked on entry."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, check_real("x", x), check_real("y", y))


def dist(a, b) -> float:
    """Euclidean distance between points ``a`` and ``b``."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def sqdist(a, b) -> float:
    """Squared Euclidean distance; exact arithmetic for the comparisons here."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    return dx * dx + dy * dy


def in_gabriel_disk(w, u, v) -> bool:
    """True iff ``w`` lies strictly inside the open disk with diameter ``uv``.

    The test is ``sqdist(w, midpoint(u, v)) < sqdist(u, v) / 4`` on raw
    doubles; points exactly on the bounding circle are outside.
    """
    if u[0] == v[0] and u[1] == v[1]:
        raise ParameterError("u and v must be distinct")
    mx = (u[0] + v[0]) / 2.0
    my = (u[1] + v[1]) / 2.0
    dwx = w[0] - mx
    dwy = w[1] - my
    return dwx * dwx + dwy * dwy < sqdist(u, v) / 4.0


def in_lune(w, u, v) -> bool:
    """True iff ``w`` lies strictly inside the open lune of ``u`` and ``v``:
    the intersection of the open disks of radius ``|uv|`` centered at each.
    """
    if u[0] == v[0] and u[1] == v[1]:
        raise ParameterError("u and v must be distinct")
    d2 = sqdist(u, v)
    return sqdist(w, u) < d2 and sqdist(w, v) < d2


@dataclass(frozen=True)
class ConeSpec:
    """Partition of the directions around a point into ``p`` equal cones.

    Cone ``i`` (1-based) covers angles ``[offset + (i-1)*theta,
    offset + i*theta)`` measured counterclockwise from the positive x
    axis, with ``theta = 2*pi/p``.
    """

    p: int
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", check_int("cone count p", self.p, 2))
        object.__setattr__(self, "offset", check_real("offset", self.offset))
        if not 0.0 <= self.offset < TWO_PI:
            raise ParameterError(f"offset must lie in [0, 2*pi), got {self.offset!r}")

    @property
    def theta(self) -> float:
        return TWO_PI / self.p


def cone_index(u, w, spec: ConeSpec) -> int:
    """1-based index of the cone of ``spec`` around ``u`` containing ``w``.

    The angle of ``w - u`` is measured counterclockwise from the ray at
    ``spec.offset`` and reduced to [0, 2*pi); each cone is closed on its
    lower edge and open on its upper edge.
    """
    dx = w[0] - u[0]
    dy = w[1] - u[1]
    if dx == 0.0 and dy == 0.0:
        raise ParameterError("w must differ from u")
    a = (math.atan2(dy, dx) - spec.offset) % TWO_PI
    # A tiny negative angle can round up to exactly 2*pi under %; the min
    # keeps the index valid and on the correct (upper) side.
    return min(int(a / spec.theta) + 1, spec.p)


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle with positive area."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_real(f.name, getattr(self, f.name)))
        vals = (self.xmin, self.ymin, self.xmax, self.ymax)
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ParameterError(f"rectangle must have positive area, got {vals!r}")

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, p) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax


def _interiors_overlap(a: Rect, b: Rect) -> bool:
    return (
        a.xmin < b.xmax
        and b.xmin < a.xmax
        and a.ymin < b.ymax
        and b.ymin < a.ymax
    )


@dataclass(frozen=True)
class Region:
    """A point-sampling support: the unit square, the unit square rotated
    by pi/4 about its center, or a union of interior-disjoint rectangles.

    Membership is closed on all boundaries. Use the ``unit_square``,
    ``rotated_square`` and ``rect_union`` constructors.
    """

    kind: str
    rects: tuple[Rect, ...] = ()

    def __post_init__(self):
        if self.kind not in (UNIT_SQUARE, ROTATED_SQUARE, RECT_UNION):
            raise ParameterError(f"unknown region kind {self.kind!r}")
        if self.kind == RECT_UNION:
            if not self.rects:
                raise ParameterError("rect-union region needs at least one rectangle")
            for r in self.rects:
                if not isinstance(r, Rect):
                    raise ParameterError(f"rect-union elements must be Rect, got {r!r}")
            for i in range(len(self.rects)):
                for j in range(i + 1, len(self.rects)):
                    if _interiors_overlap(self.rects[i], self.rects[j]):
                        raise ParameterError(
                            f"rectangles {i} and {j} have overlapping interiors"
                        )
        elif self.rects:
            raise ParameterError(f"{self.kind} region takes no rectangles")

    @staticmethod
    def unit_square() -> "Region":
        return Region(UNIT_SQUARE)

    @staticmethod
    def rotated_square() -> "Region":
        return Region(ROTATED_SQUARE)

    @staticmethod
    def rect_union(rects) -> "Region":
        return Region(RECT_UNION, tuple(rects))

    @property
    def area(self) -> float:
        if self.kind == RECT_UNION:
            return float(sum(r.area for r in self.rects))
        return 1.0

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the region."""
        if self.kind == UNIT_SQUARE:
            return (0.0, 0.0, 1.0, 1.0)
        if self.kind == ROTATED_SQUARE:
            h = ROT_HALF_DIAG
            return (0.5 - h, 0.5 - h, 0.5 + h, 0.5 + h)
        return (
            min(r.xmin for r in self.rects),
            min(r.ymin for r in self.rects),
            max(r.xmax for r in self.rects),
            max(r.ymax for r in self.rects),
        )

    def contains(self, p) -> bool:
        """Closed membership test for a single point."""
        return bool(self.contains_mask([p])[0])

    def contains_mask(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized closed membership for an (n, 2) array."""
        pts = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        x = pts[:, 0]
        y = pts[:, 1]
        if self.kind == UNIT_SQUARE:
            return (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
        if self.kind == ROTATED_SQUARE:
            return np.abs(x - 0.5) + np.abs(y - 0.5) <= ROT_HALF_DIAG
        mask = np.zeros(len(pts), dtype=bool)
        for r in self.rects:
            mask |= (x >= r.xmin) & (x <= r.xmax) & (y >= r.ymin) & (y <= r.ymax)
        return mask


def contains(region: Region, p) -> bool:
    """Closed membership of point ``p`` in ``region``."""
    return region.contains(p)


class PointSet:
    """Immutable (n, 2) float64 array of pairwise-distinct planar points.

    ``meta`` carries provenance (generation seed, trial index, region) and
    is not part of equality.

    The graph builders keep geometry they derive from the points (a kd-tree,
    a triangulation's candidate pairs) in a private slot that starts empty,
    so that the graphs built on one set share it. Equality, pickling and
    copies neither compare nor carry it.
    """

    __slots__ = ("coords", "meta", "_derived")

    def __init__(self, coords, meta=None):
        numeric = isinstance(coords, np.ndarray) and coords.dtype.kind in "fiu"
        try:
            arr = np.array(coords, dtype=np.float64, copy=True)
            cells = None if numeric else np.asarray(coords, dtype=object)
        except (TypeError, ValueError) as e:
            raise ParameterError(f"coordinates must be numbers in (n, 2) rows: {e}") from None
        if cells is not None:
            # NumPy reads a bool or numeric text as a number; one value of
            # each type stands for all
            for x in {type(x): x for x in cells.flat}.values():
                check_real("coordinate", x)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ParameterError(f"expected an (n, 2) array, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise ParameterError("point coordinates must be finite")
        if len(arr) > 1:
            order = np.lexsort((arr[:, 1], arr[:, 0]))
            srt = arr[order]
            dup = (srt[1:] == srt[:-1]).all(axis=1)
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                i, j = sorted((int(order[k]), int(order[k + 1])))
                raise DuplicatePointError(
                    f"points {i} and {j} coincide at ({srt[k, 0]!r}, {srt[k, 1]!r})"
                )
        arr.setflags(write=False)
        self.coords = arr
        self.meta = dict(meta) if meta else {}
        self._derived = {}

    def __getstate__(self):
        return self.coords, self.meta

    def __setstate__(self, state):
        self.coords, self.meta = state
        # an unpickled or deep-copied array is writeable
        self.coords.setflags(write=False)
        self._derived = {}

    @property
    def n(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Point:
        return Point(*self.coords[i])

    def __iter__(self):
        for i in range(len(self.coords)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.coords.shape == other.coords.shape and bool(
            np.array_equal(self.coords, other.coords)
        )

    def __repr__(self) -> str:
        return f"PointSet(n={len(self.coords)})"


def as_point_set(points) -> PointSet:
    """``points`` itself if it is a PointSet, else a validated PointSet
    built from it."""
    return points if isinstance(points, PointSet) else PointSet(points)

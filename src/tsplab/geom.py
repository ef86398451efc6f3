"""Exact planar primitives on integer grid points.

Orientation and crossing predicates run in exact integer arithmetic, so
there are no tolerance questions. Distances and angles are binary64 and
feed only bounds and reports, never branch decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from operator import index
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import TooSmallError

# rows of point pairs the numpy set-up code builds at a time: each
# temporary holds at most 32 * n entries, 64 KiB at n = 256
_ROWS = 32

# relative window of np.arctan2 values within which instance_metrics lets
# math.atan2 decide epsilon
_ATAN2_WINDOW = 1e-9


class Point(NamedTuple):
    """Labeled planar point with integer grid coordinates."""

    id: int
    x: int
    y: int


@dataclass(frozen=True)
class InstanceMetrics:
    """Distance and angle summary of a point set.

    epsilon is the minimum angle formed at the middle point over all
    point triples; gamma and min_uncross_gain are the derived hardness
    factor and the guaranteed fitness gain of removing a crossing.
    """

    d_min: float
    d_max: float
    epsilon: float
    gamma: float
    min_uncross_gain: float


def _exact(p: Point) -> Point:
    """p with its coordinates as Python ints (through operator.index, as
    validate takes them), so products never wrap in a fixed-width type."""
    return Point(p.id, index(p.x), index(p.y))


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p).

    +1 for a left turn, -1 for a right turn, 0 for collinear points.
    Exact for any integer coordinates, numpy integers included.
    """
    return _orient(_exact(p), _exact(q), _exact(r))


def _orient(p: Point, q: Point, r: Point) -> int:
    """orient on points whose coordinates are Python ints."""
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def properly_cross(ax: int, ay: int, bx: int, by: int, cx: int, cy: int, dx: int, dy: int) -> bool:
    """True iff the open segments ab and cd, given by raw coordinates,
    cross at an interior point.

    Segments that share an endpoint do not properly intersect. Assumes
    no three of the involved points are collinear (a strict straddle
    test in both directions decides everything).
    """
    return next(_crossings_along(ax, ay, bx, by, (cx, dx), (cy, dy), (0, 1)), None) is not None


def segments_properly_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """properly_cross on Points."""
    return properly_cross(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)


def _crossings_along(ax: int, ay: int, bx: int, by: int, xs, ys, path) -> Iterator[int]:
    """Each p, lazily and in increasing order, at which the segment from
    point path[p] to point path[p + 1] properly crosses the segment ab;
    xs and ys hold the points' coordinates, indexed by the labels in path.
    The package's one crossing predicate, in polyline form.

    Two segments properly cross iff each one's end points lie strictly on
    opposite sides of the other's line. The side of each point of path
    (the sign of (b - a) x (p - a)) is computed once, and only a segment
    that straddles the line ab is tested the other way. Exact integer
    arithmetic: a shared end point or a collinear triple makes a side 0,
    and 0 never straddles.
    """
    abx = bx - ax
    aby = by - ay
    # side of (x, y): abx * (y - ay) - aby * (x - ax) = abx * y - aby * x - k
    k = abx * ay - aby * ax
    s = path[0]
    o1 = abx * ys[s] - aby * xs[s] - k
    for p, t in enumerate(path[1:]):
        o2 = abx * ys[t] - aby * xs[t] - k
        if o1 * o2 < 0:
            cx = xs[s]
            cy = ys[s]
            cdx = xs[t] - cx
            cdy = ys[t] - cy
            if (cdx * (ay - cy) - cdy * (ax - cx)) * (cdx * (by - cy) - cdy * (bx - cx)) < 0:
                yield p
        s = t
        o1 = o2


def convex_hull(points: Sequence[Point]) -> tuple[int, ...]:
    """Hull vertex labels in counterclockwise order.

    Monotone-chain sweep with exact orientation tests. The cycle starts
    at the lexicographically smallest point. Requires at least three
    points, none of them collinear triples. Coordinates are taken through
    operator.index once, so numpy integers sweep as Python ints.
    """
    if len(points) < 3:
        raise TooSmallError("convex hull needs at least 3 points")
    pts = sorted(map(_exact, points), key=lambda p: (p.x, p.y))
    lower: list[Point] = []
    for p in pts:
        while len(lower) > 1 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) > 1 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return tuple(p.id for p in hull)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance; the squared radicand is exact."""
    dx = p.x - q.x
    dy = p.y - q.y
    return math.sqrt(dx * dx + dy * dy)


def cos_ratio(epsilon: float) -> float:
    """cos(eps)/(1 - cos(eps)), via 1 - cos(eps) = 2 sin^2(eps/2).

    The half-angle form stays accurate for tiny angles, where the naive
    difference rounds to zero.
    """
    s = math.sin(epsilon / 2.0)
    return math.cos(epsilon) / (2.0 * s * s)


def gamma_of(d_min: float, d_max: float, epsilon: float) -> float:
    """Hardness factor (d_max/d_min - 1) * cos(eps) / (1 - cos(eps))."""
    return (d_max / d_min - 1.0) * cos_ratio(epsilon)


def min_uncross_gain_of(d_min: float, epsilon: float) -> float:
    """Lower bound 2*d_min*(1-cos(eps))/cos(eps) on the length saved by
    an inversion that removes a crossing."""
    return 2.0 * d_min / cos_ratio(epsilon)


def _reduced_direction(dx: int, dy: int) -> tuple[int, int]:
    """Nonzero (dx, dy) over its gcd, signed so that dx > 0 or dx == 0 < dy:
    two vectors are parallel iff their reduced directions are equal."""
    g = -math.gcd(dx, dy) if dx < 0 or (dx == 0 and dy < 0) else math.gcd(dx, dy)
    return dx // g, dy // g


def _exact_coords(xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
    """(2, n) array of xs and ys, each shifted by its minimum, on which
    the products of coordinate differences are exact.

    The array is int64 when both spans are below 2^30: every difference
    is then below 2^30 in magnitude, so every square, cross and dot
    product of two differences stays below 2^61, and sums of two of them
    below 2^62. Otherwise it is an object array of Python ints. This
    dtype is the only branch; the code that uses the array is the same
    for both.
    """
    x0, y0 = min(xs), min(ys)
    dtype = np.int64 if max(max(xs) - x0, max(ys) - y0) < 1 << 30 else object
    return np.array([[x - x0 for x in xs], [y - y0 for y in ys]], dtype)


def first_collinear_triple(coords: Sequence[tuple[int, int]]) -> tuple[int, int, int] | None:
    """Lexicographically first 0-based (i, j, k), i < j < k, of three collinear
    points, or None; the points must be distinct, with coordinates below
    2^52 in magnitude (validate's are below 2^31).

    O(n^2 log n), in numpy, _ROWS points at a time. Points j and k are
    collinear with i iff they have the same slope from i. Row i holds the
    float slopes dy/dx from point i to every other point, inf where
    dx == 0: the coordinate differences are exact in float64 and IEEE
    division is correctly rounded, so equal slopes give equal floats, though
    equal floats may also come from two slopes too close to tell apart.
    Each row is sorted and its neighbours compared. The first point of any
    collinear triple is the first whose row holds a true repeat, and a
    Python scan with exact integer directions (_first_partners) runs on
    each row with a repeat, in order, until one names i's partners.
    """
    n = len(coords)
    xy = np.array(coords, dtype=np.float64).T
    # 0/0 on the diagonal gives nan, which sorts last and equals nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(0, n - 2, _ROWS):
            d = xy[:, r : r + _ROWS, None] - xy[:, None, :]
            slope = d[1] / d[0]
            slope[slope == -np.inf] = np.inf
            slope.sort(axis=1)
            for row in np.flatnonzero((slope[:, 1:] == slope[:, :-1]).any(axis=1)).tolist():
                pair = _first_partners(coords, r + row)
                if pair is not None:
                    return (r + row, *pair)
    return None


def _first_partners(coords: Sequence[tuple[int, int]], i: int) -> tuple[int, int] | None:
    """Lexicographically first (j, k), i < j < k, with i, j and k collinear,
    or None. O(n): the points after i are grouped by their direction from i."""
    xi, yi = coords[i]
    first: dict[tuple[int, int], int] = {}
    best = None
    for j in range(i + 1, len(coords)):
        x, y = coords[j]
        a = first.setdefault(_reduced_direction(x - xi, y - yi), j)
        if a != j and (best is None or a < best[0]):
            best = (a, j)
    return best


def collinear_with_any(coords: Sequence[tuple[int, int]], cand: tuple[int, int]) -> bool:
    """True iff cand, not itself one of coords, is collinear with two of
    them: two lie in the same direction from cand. O(n)."""
    cx, cy = cand
    seen: set[tuple[int, int]] = set()
    for x, y in coords:
        d = _reduced_direction(x - cx, y - cy)
        if d in seen:
            return True
        seen.add(d)
    return False


@cmp_to_key
def _exact_angle_key(u: tuple[int, int], w: tuple[int, int]) -> int:
    """Exact order of directions by angle in (-pi, pi]: the half-plane
    first, then the sign of the cross product within it."""
    hu = u[1] > 0 or (u[1] == 0 and u[0] < 0)
    hw = w[1] > 0 or (w[1] == 0 and w[0] < 0)
    cross = u[0] * w[1] - u[1] * w[0]
    return hu - hw if hu != hw else (cross < 0) - (cross > 0)


def instance_metrics(points: Sequence[Point], distances: np.ndarray) -> InstanceMetrics:
    """d_min, d_max, the minimum angle, and derived factors of a validated
    point set (three or more distinct points, no three collinear) and its
    float64 (n, n) distance matrix, from which d_min and d_max are read.

    Each vertex sorts its directions to the other points by angle and
    measures only circular neighbours: any other pair spans two gaps or
    more, so the minimum is the same. O(n^2 log n), in numpy, _ROWS
    vertices at a time, on _exact_coords' integers.

    - np.arctan2 only presorts a row. Each adjacent pair is then checked
      exactly, by half-plane and the sign of its cross product, as
      _exact_angle_key orders directions; a row that fails is sorted
      again by _exact_angle_key. So floats never decide the order.
    - Each circular-neighbour pair's angle is atan2(|u x w|, u . w) of its
      exact products, each rounded once to float64, as math.atan2 rounds
      Python ints.
    - math.atan2 decides epsilon; np.arctan2 only preselects the pairs
      to hand it. Let theta_q be the exact angle of pair q's two floats,
      t_q math.atan2's value and a_q np.arctan2's, and suppose both are
      within a relative d of theta_q (libm's atan2 is within about 1 ulp;
      numpy's vector loops, AVX-512 ones included, within a few ulps; so
      d < 2^-48). For the pair p with the least t_p and any pair q:
          a_p <= (1+d) theta_p <= (1+d) t_p / (1-d) <= (1+d) t_q / (1-d)
              <= (1+d)^2 theta_q / (1-d) <= (1+d)^2 a_q / (1-d)^2,
      so a_p <= (1 + 5d) min_q a_q. A chunk keeps its pairs within a
      relative 1e-9 (_ATAN2_WINDOW) of the least np.arctan2 value so far,
      which is at least min_q a_q, so p is kept, far inside the window.
      Angles are positive, since no three points are collinear, so the
      window is never empty. epsilon is the least math.atan2 value of the
      kept pairs: the float the per-vertex scalar sweep took.
    """
    n = len(points)
    d_min = float(distances[np.triu_indices(n, 1)].min())
    d_max = float(distances.max())
    xy = _exact_coords([p.x for p in points], [p.y for p in points])
    after = np.arange(1, n)
    least = math.inf
    near: list[tuple[float, float]] = []  # (|u x w|, u . w) of pairs within the window
    for r in range(0, n, _ROWS):
        v = np.arange(r, min(r + _ROWS, n))[:, None]
        # (dx, dy) from each vertex v to the n - 1 points after it, cyclically
        d = xy[:, (v + after) % n] - xy[:, v]
        f = d.astype(np.float64)
        d = d[:, np.arange(len(v))[:, None], np.arctan2(f[1], f[0]).argsort(axis=1)]
        dx, dy = d
        upper = (dy > 0) | ((dy == 0) & (dx < 0))  # angle in (0, pi]
        hu, hw = upper[:, :-1], upper[:, 1:]
        cross = dx[:, :-1] * dy[:, 1:] - dy[:, :-1] * dx[:, 1:]
        ordered = ((hu < hw) | ((hu == hw) & (cross > 0))).all(axis=1)
        for row in np.flatnonzero(~ordered).tolist():
            d[:, row] = np.array(sorted(zip(*d[:, row].tolist()), key=_exact_angle_key), d.dtype).T
        ux, uy = d[:, :, after - 2]  # each direction's predecessor, circularly
        sines = np.abs(ux * dy - uy * dx).astype(np.float64)
        cosines = (ux * dx + uy * dy).astype(np.float64)
        theta = np.arctan2(sines, cosines)
        least = min(least, float(theta.min()))
        keep = theta <= least * (1.0 + _ATAN2_WINDOW)
        near.extend(zip(sines[keep].tolist(), cosines[keep].tolist()))
    epsilon = min(math.atan2(s, c) for s, c in near)
    return InstanceMetrics(
        d_min=d_min,
        d_max=d_max,
        epsilon=epsilon,
        gamma=gamma_of(d_min, d_max, epsilon),
        min_uncross_gain=min_uncross_gain_of(d_min, epsilon),
    )


def grid_angle_lower_bound(m: int) -> float:
    """Guaranteed minimum angle of any collinear-free point set on an
    m x m grid: arctan(1/(2(m-2)^2))."""
    if m < 3:
        raise ValueError(f"grid side must be >= 3, got {m}")
    # atan2, as instance_metrics measures each angle, keeps the two
    # bit-identical when the extremal slope pair occurs
    return math.atan2(1.0, 2.0 * (m - 2) ** 2)


def point_strictly_inside(hull_points: Sequence[Point], p: Point) -> bool:
    """True iff p lies strictly inside the CCW convex polygon; the
    coordinates must be Python ints."""
    h = len(hull_points)
    for i in range(h):
        if _orient(hull_points[i], hull_points[(i + 1) % h], p) <= 0:
            return False
    return True

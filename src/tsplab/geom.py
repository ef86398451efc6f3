"""Exact planar primitives on integer grid points.

Orientation and crossing predicates run in exact integer arithmetic, so
there are no tolerance questions. Distances and angles are binary64 and
feed only bounds and reports, never branch decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterator, NamedTuple, Sequence

from .errors import TooSmallError


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


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p).

    +1 for a left turn, -1 for a right turn, 0 for collinear points.
    Exact for all coordinates in the 32-bit signed range.
    """
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
    points, none of them collinear triples.
    """
    if len(points) < 3:
        raise TooSmallError("convex hull needs at least 3 points")
    pts = sorted(points, key=lambda p: (p.x, p.y))
    lower: list[Point] = []
    for p in pts:
        while len(lower) > 1 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) > 1 and orient(upper[-2], upper[-1], p) <= 0:
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


def first_collinear_triple(coords: Sequence[tuple[int, int]]) -> tuple[int, int, int] | None:
    """Lexicographically first 0-based (i, j, k), i < j < k, of three collinear
    points, or None; the points must be distinct. O(n^2): for each i in order,
    the points j > i are grouped by their direction from i."""
    n = len(coords)
    for i in range(n - 2):
        xi, yi = coords[i]
        first: dict[tuple[int, int], int] = {}
        best = None
        for j in range(i + 1, n):
            x, y = coords[j]
            a = first.setdefault(_reduced_direction(x - xi, y - yi), j)
            if a != j and (best is None or a < best[0]):
                best = (a, j)
        if best is not None:
            return (i, *best)
    return None


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


def instance_metrics(points: Sequence[Point], distances: Sequence[float]) -> InstanceMetrics:
    """d_min, d_max, the minimum angle, and derived factors of a validated
    point set (three or more distinct points, no three collinear) and its
    flat row-major distance matrix, from which d_min and d_max are read.

    Each vertex sorts its directions to the other points by angle (an
    atan2 pre-sort, then an exact integer sort, so floats never decide
    the order) and measures only circular neighbours: any other pair
    spans two gaps or more, so the minimum is the same. O(n^2 log n).
    """
    n = len(points)
    d_min = min(min(distances[i * n + i + 1 : (i + 1) * n]) for i in range(n - 1))
    d_max = max(distances)
    epsilon = math.inf
    atan2 = math.atan2
    for v, pv in enumerate(points):
        dirs = [(p.x - pv.x, p.y - pv.y) for p in points[:v] + points[v + 1 :]]
        dirs.sort(key=lambda d: atan2(d[1], d[0]))
        dirs.sort(key=_exact_angle_key)
        ux, uy = dirs[-1]
        for wx, wy in dirs:
            theta = atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
            if theta < epsilon:
                epsilon = theta
            ux, uy = wx, wy
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
    """True iff p lies strictly inside the CCW convex polygon."""
    h = len(hull_points)
    for i in range(h):
        if orient(hull_points[i], hull_points[(i + 1) % h], p) <= 0:
            return False
    return True

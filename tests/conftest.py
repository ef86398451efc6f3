"""Shared fixtures and independent test oracles.

The oracles here deliberately re-derive results through different code
paths than the library (half-plane hull test, Fraction-based crossing
predicate, full cycle enumeration) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from tsplab import Instance, InstanceMetrics, Point, validate
from tsplab.errors import CollinearTripleError, TooSmallError
from tsplab.geom import distance, gamma_of, min_uncross_gain_of
from tsplab.rng import Xoshiro256StarStar

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# one profile for every property test: the same examples on every run
# (derandomize also turns off the example database), and no per-example
# deadline, which a slow or shared machine would trip
settings.register_profile("tsplab", deadline=None, derandomize=True)
settings.load_profile("tsplab")


def cli_env() -> dict[str, str]:
    """Environment for ``python -m tsplab.cli`` child processes.

    Puts this tree's ``src`` first on PYTHONPATH as an absolute path, so
    a child started in another directory (a test's ``tmp_path``) imports
    the same package as the test process; entries already set are kept
    after it.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR)] + ([inherited] if inherited else []))
    return env


@pytest.fixture
def square() -> Instance:
    return validate([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def square_plus_center() -> Instance:
    return validate([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])


class ForcedRng:
    """Feeds prescribed draws to operators under test."""

    def __init__(self, uniforms=(), belows=()):
        self.uniforms = list(uniforms)
        self.belows = list(belows)

    def uniform(self) -> float:
        return self.uniforms.pop(0)

    def randbelow(self, bound: int) -> int:
        v = self.belows.pop(0)
        assert 0 <= v < bound, f"forced draw {v} out of range {bound}"
        return v


def brute_hull(points) -> set[int]:
    """Hull labels by the O(n^3) half-plane test: an ordered pair (p, q)
    is a hull edge iff every other point lies strictly to its left."""
    labels = set()
    for p, q in itertools.permutations(points, 2):
        if all(
            _cross_sign(p, q, r) > 0
            for r in points
            if r.id not in (p.id, q.id)
        ):
            labels.add(p.id)
            labels.add(q.id)
    return labels


def _cross_sign(p, q, r) -> int:
    v = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (v > 0) - (v < 0)


def frac_segments_cross(a, b, c, d) -> bool:
    """Proper-crossing predicate via exact rational intersection point.

    Solves for the intersection of the supporting lines with Fractions
    and checks it is interior to both segments.
    """
    r = (b.x - a.x, b.y - a.y)
    s = (d.x - c.x, d.y - c.y)
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        return False
    t = Fraction((c.x - a.x) * s[1] - (c.y - a.y) * s[0], denom)
    u = Fraction((c.x - a.x) * r[1] - (c.y - a.y) * r[0], denom)
    return 0 < t < 1 and 0 < u < 1


def cycle_edges(tour) -> frozenset[frozenset[int]]:
    n = len(tour)
    return frozenset(frozenset((tour[i], tour[(i + 1) % n])) for i in range(n))


def crossing_pairs_fractions(instance: Instance, tour) -> list[tuple[int, int]]:
    """1-based edge-position pairs (i, j), i < j, in lexicographic order,
    that cross by the Fraction predicate (fresh code path); edge i joins
    tour positions i and i+1, edge n closes the cycle."""
    n = instance.n
    pts = instance.points
    segs = [
        (pts[tour[i] - 1], pts[tour[(i + 1) % n] - 1])
        for i in range(n)
    ]
    return [
        (i + 1, j + 1)
        for (i, (a, b)), (j, (c, d)) in itertools.combinations(enumerate(segs), 2)
        if len({a.id, b.id, c.id, d.id}) == 4 and frac_segments_cross(a, b, c, d)
    ]


def crossing_count_fractions(instance: Instance, tour) -> int:
    """Crossing count with the Fraction predicate (fresh code path)."""
    return len(crossing_pairs_fractions(instance, tour))


def all_cycles(n: int):
    """Every distinct undirected Hamiltonian cycle: label 1 fixed first,
    reflections quotiented."""
    for rest in itertools.permutations(range(2, n + 1)):
        if rest[0] < rest[-1]:
            yield (1,) + rest


def slow_tour_length(instance: Instance, tour) -> float:
    """Length via per-edge sqrt, summed in tour order with fsum."""
    pts = instance.points
    n = len(tour)
    terms = []
    for i in range(n):
        p = pts[tour[i] - 1]
        q = pts[tour[(i + 1) % n] - 1]
        dx = p.x - q.x
        dy = p.y - q.y
        terms.append(math.sqrt(dx * dx + dy * dy))
    return math.fsum(terms)


def full_scan_local_optimum(instance: Instance, tour) -> bool:
    """2-opt local optimality by rebuilding every inversion neighbour and
    comparing slow_tour_length values with a strict <."""
    n = len(tour)
    base = slow_tour_length(instance, tour)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            neighbour = tour[: i - 1] + tour[i - 1 : j][::-1] + tour[j:]
            if slow_tour_length(instance, neighbour) < base:
                return False
    return True


def random_tour(n: int, rng: Xoshiro256StarStar) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def triple_scan_collinear(coords) -> tuple[int, int, int] | None:
    """First collinear 0-based (i, j, k), i < j < k, by scanning every
    triple in lexicographic order with one cross product each."""
    n = len(coords)
    for i in range(n):
        xi, yi = coords[i]
        for j in range(i + 1, n):
            dx = coords[j][0] - xi
            dy = coords[j][1] - yi
            for k in range(j + 1, n):
                if dx * (coords[k][1] - yi) - dy * (coords[k][0] - xi) == 0:
                    return (i, j, k)
    return None


def triple_scan_metrics(points) -> InstanceMetrics:
    """InstanceMetrics by measuring the angle at every vertex between
    every pair of other points (O(n^3) atan2 calls); a collinear triple
    raises CollinearTripleError at the first vertex that sees it."""
    n = len(points)
    if n < 3:
        raise TooSmallError("metrics need at least 3 points")
    dists = [distance(points[i], points[j]) for i in range(n) for j in range(i + 1, n)]
    d_min, d_max = min(dists), max(dists)
    epsilon = math.inf
    for v in range(n):
        pv = points[v]
        for i in range(n):
            if i == v:
                continue
            ux = points[i].x - pv.x
            uy = points[i].y - pv.y
            for j in range(i + 1, n):
                if j == v:
                    continue
                wx = points[j].x - pv.x
                wy = points[j].y - pv.y
                cross = ux * wy - uy * wx
                if cross == 0:
                    raise CollinearTripleError(points[i].id, pv.id, points[j].id)
                epsilon = min(epsilon, math.atan2(abs(cross), ux * wx + uy * wy))
    return InstanceMetrics(
        d_min=d_min,
        d_max=d_max,
        epsilon=epsilon,
        gamma=gamma_of(d_min, d_max, epsilon),
        min_uncross_gain=min_uncross_gain_of(d_min, epsilon),
    )

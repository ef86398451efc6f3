"""Shared fixtures and independent test oracles.

The oracles here deliberately re-derive results through different code
paths than the library (half-plane hull test, Fraction-based crossing
predicate, full cycle enumeration) so agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from tsplab import Instance, InstanceMetrics, Point, apply_inversion, apply_jump, canonical_form, tour_length, validate
from tsplab.errors import CollinearTripleError, TooSmallError
from tsplab.geom import distance, gamma_of, min_uncross_gain_of
from tsplab.oracle import OracleResult, _shortest, hull_order_tours
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


@functools.cache
def inversion_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every position pair (i, j), 1 <= i < j <= n, in lexicographic
    order: a uniform index into it is a uniform inversion."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def reference_mutation(tour, rng, mixed: bool):
    """One two-opt (or, with mixed, mixed) mutation of `tour`, drawn
    through rng.uniform and rng.randbelow and applied with apply_inversion
    and apply_jump: the frozen reference run_ea's `_child_pricer` must
    reproduce draw for draw.

    Mixed first draws a uniform r: inversions if r < 1/2, else jumps. The
    strength s + 1, s ~ Poisson(1), is the number of uniforms multiplied
    until the product drops below 1/e. Each move is then an unordered
    pair, indexed into inversion_pairs(n), or an ordered pair (i, j),
    i != j, indexed by (i - 1) * (n - 1) + (j - 1 if j < i else j - 2).
    """
    n = len(tour)
    inversions = rng.uniform() < 0.5 if mixed else True
    reps = 1
    prod = rng.uniform()
    while prod >= math.exp(-1.0):
        reps += 1
        prod *= rng.uniform()
    pairs = inversion_pairs(n)
    for _ in range(reps):
        if inversions:
            tour = apply_inversion(tour, *pairs[rng.randbelow(len(pairs))])
        else:
            i, r = divmod(rng.randbelow(n * (n - 1)), n - 1)
            tour = apply_jump(tour, i + 1, r + 1 if r < i else r + 2)
    return tour


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


_MASK64 = (1 << 64) - 1


def splitmix64_state(seed: int) -> list[int]:
    """The four xoshiro256 state words SplitMix64 expands `seed` into."""
    state = seed & _MASK64
    words = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        words.append(z ^ (z >> 31))
    return words


def scalar_xoshiro_stream(s0: int, s1: int, s2: int, s3: int):
    """xoshiro256** one word at a time with Python ints: the frozen
    reference the block-filled `Xoshiro256StarStar` must reproduce."""
    while True:
        x = (s1 * 5) & _MASK64
        yield (((x << 7 | x >> 57) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45 | s3 >> 19) & _MASK64


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


def reference_held_karp(instance: Instance) -> OracleResult:
    """Held-Karp as a scalar loop over masks in increasing order: for each
    end j of a mask, the first i (in increasing order) that strictly
    improves dp[mask ^ bit_j][i] + d(j, i) becomes the parent. The frozen
    reference the numpy layer-by-layer `held_karp_optimum` must match."""
    n = instance.n
    d = instance.distance_matrix
    free = n - 1  # node 0 is the fixed start; bit i means node i+1
    size = 1 << free
    inf = math.inf
    dp = [inf] * (size * free)
    parent = bytearray(size * free)
    for i in range(free):
        dp[(1 << i) * free + i] = d[i + 1]  # d[0*n + (i+1)]
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        base = mask * free
        rem = mask
        while rem:
            jbit = rem & -rem
            rem ^= jbit
            j = jbit.bit_length() - 1
            pm = mask ^ jbit
            pbase = pm * free
            col = (j + 1) * n
            best = inf
            bi = 0
            r2 = pm
            while r2:
                ibit = r2 & -r2
                r2 ^= ibit
                i = ibit.bit_length() - 1
                v = dp[pbase + i] + d[col + i + 1]
                if v < best:
                    best = v
                    bi = i
            dp[base + j] = best
            parent[base + j] = bi
    full = size - 1
    fbase = full * free
    best = inf
    bj = 0
    for j in range(free):
        v = dp[fbase + j] + d[(j + 1) * n]
        if v < best:
            best = v
            bj = j
    order = []
    mask = full
    j = bj
    while True:
        order.append(j + 1)
        pm = mask ^ (1 << j)
        if pm == 0:
            break
        j = parent[mask * free + j]
        mask = pm
    t = tuple([1] + [v + 1 for v in reversed(order)])
    return OracleResult(tour_length(instance, t), canonical_form(t), "held_karp")


def reference_brute(instance: Instance) -> OracleResult:
    """The shortest of all (n-1)!/2 distinct cycles, priced one by one with
    tour_length in pure Python: the frozen reference the insertion-built
    `brute_force_optimum` must match, independent of its block pricer."""
    return _shortest(instance, all_cycles(instance.n), "brute")


def reference_hull_order(instance: Instance) -> OracleResult:
    """The shortest hull-ordered interleaving by pricing every tour
    `hull_order_tours` yields with tour_length: the frozen reference the
    block-filtered `hull_order_optimum` must match."""
    return _shortest(instance, hull_order_tours(instance), "hull_order")

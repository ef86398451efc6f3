"""Permutations as Hamiltonian cycles: fitness, moves, predicates.

A tour is a tuple of 1-based labels; positions at the API surface are
1-based as well, and index arithmetic on the cycle is modulo n (position
0 means n). Fitness comparisons are exact binary64 comparisons with no
epsilon: tour_length sums edge lengths with math.fsum, so tours inducing
the same cycle get the identical value regardless of rotation or
reversal.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .geom import segments_properly_intersect
from .instance import Instance

Tour = tuple[int, ...]


def _check_tour(instance: Instance, tour: Sequence[int]) -> None:
    n = instance.n
    if len(tour) != n or sorted(tour) != list(range(1, n + 1)):
        raise ValueError("tour is not a permutation of 1..n")


def tour_length(instance: Instance, tour: Sequence[int]) -> float:
    """Total Euclidean length of the induced cycle.

    fsum makes the result independent of summation order, hence exactly
    invariant under rotation and reversal of the permutation.
    """
    _check_tour(instance, tour)
    d = instance.distance_matrix
    n = instance.n
    prev = tour[-1] - 1
    terms = []
    for label in tour:
        cur = label - 1
        terms.append(d[prev * n + cur])
        prev = cur
    return math.fsum(terms)


def apply_inversion(tour: Sequence[int], i: int, j: int) -> Tour:
    """Reverse positions i..j (1 <= i < j <= n).

    On the cycle this removes edges {x_{i-1}, x_i} and {x_j, x_{j+1}} and
    adds {x_{i-1}, x_j} and {x_i, x_{j+1}}; for (i, j) in
    {(1, n), (2, n), (1, n-1)} the induced cycle is unchanged.
    """
    n = len(tour)
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j})")
    lst = list(tour)
    lst[i - 1 : j] = lst[i - 1 : j][::-1]
    return tuple(lst)


def apply_jump(tour: Sequence[int], i: int, j: int) -> Tour:
    """Move the element at position i to position j, shifting the span."""
    n = len(tour)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"positions out of range: ({i}, {j})")
    if i == j:
        raise ValueError("jump needs two distinct positions")
    lst = list(tour)
    v = lst.pop(i - 1)
    lst.insert(j - 1, v)
    return tuple(lst)


def jump_as_inversions(i: int, j: int) -> list[tuple[int, int]]:
    """Inversion pairs whose composition (applied in order) equals jump(i, j).

    Adjacent positions need a single inversion; otherwise two chained
    inversions simulate the jump.
    """
    if i == j:
        raise ValueError("jump needs two distinct positions")
    if abs(i - j) == 1:
        return [(min(i, j), max(i, j))]
    if i < j:
        return [(i, j), (i, j - 1)]
    return [(j, i), (j + 1, i)]


def _crossings(instance: Instance, tour: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Edge-position pairs (i, j), i < j, whose segments properly cross,
    lazily in lexicographic order. Edge p joins tour positions p and p+1
    (edge n closes the cycle); edges sharing an endpoint never cross."""
    _check_tour(instance, tour)
    n = instance.n
    pts = instance.points
    segs = [(pts[tour[p] - 1], pts[tour[(p + 1) % n] - 1]) for p in range(n)]
    for a in range(n):
        sa, sb = segs[a]
        for b in range(a + 1, n):
            tc, td = segs[b]
            if segments_properly_intersect(sa, sb, tc, td):
                yield (a + 1, b + 1)


def crossing_pairs(instance: Instance, tour: Sequence[int]) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, of edge positions whose segments cross."""
    return list(_crossings(instance, tour))


def is_intersection_free(instance: Instance, tour: Sequence[int]) -> bool:
    """True iff no two tour edges properly cross (stops at the first)."""
    return next(_crossings(instance, tour), None) is None


def find_uncrossing_inversion(instance: Instance, tour: Sequence[int]) -> Optional[tuple[int, int]]:
    """An inversion removing one crossing, or None if none exists.

    Picks the lexicographically first crossing pair, which makes the
    choice deterministic. For crossing edge positions (p, q) the
    inversion is (p+1, q): it removes exactly those two edges, and the
    two replacement edges cannot cross each other.
    """
    first = next(_crossings(instance, tour), None)
    return None if first is None else (first[0] + 1, first[1])


def respects_hull_order(instance: Instance, tour: Sequence[int]) -> bool:
    """True iff the hull labels appear in the tour in hull cyclic order,
    up to rotation and reflection."""
    _check_tour(instance, tour)
    hull = instance.hull
    hull_set = set(hull)
    seq = tuple(v for v in tour if v in hull_set)
    h = len(hull)
    doubled = hull + hull
    for start in range(h):
        if doubled[start : start + h] == seq:
            return True
    rev = hull[::-1]
    doubled = rev + rev
    for start in range(h):
        if doubled[start : start + h] == seq:
            return True
    return False


def is_two_opt_local_optimum(instance: Instance, tour: Sequence[int]) -> bool:
    """True iff no inversion yields a strictly smaller tour_length.

    Strict comparison with no tolerance, on full recomputed lengths.
    """
    _check_tour(instance, tour)
    n = instance.n
    base = tour_length(instance, tour)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if tour_length(instance, apply_inversion(tour, i, j)) < base:
                return False
    return True


def canonical_form(tour: Sequence[int]) -> Tour:
    """Lexicographically smallest rotation/reflection starting at label 1.

    Two tours induce the same cycle iff their canonical forms are equal.
    """
    n = len(tour)
    lst = list(tour)
    pos = lst.index(1)
    fwd = tuple(lst[(pos + t) % n] for t in range(n))
    rev_lst = lst[::-1]
    pos = rev_lst.index(1)
    bwd = tuple(rev_lst[(pos + t) % n] for t in range(n))
    return min(fwd, bwd)

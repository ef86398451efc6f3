"""Permutations as Hamiltonian cycles: fitness, moves, predicates.

A tour is a tuple of 1-based labels; positions at the API surface are
1-based as well, and index arithmetic on the cycle is modulo n (position
0 means n). Fitness comparisons are exact binary64 comparisons with no
epsilon: tour_length sums edge lengths with math.fsum, so tours inducing
the same cycle get the identical value regardless of rotation or
reversal.

The private kernels _fsum_length, _crossings0 (every crossing pair,
lazily) and _segment_crossing (the first edge crossing one segment) take
a 0-based permutation, the search loops' own state, and the flat distance
matrix or the raw coordinates (Instance.coords); run_rls keeps its
crossing witness with the last two, which run geom's crossing kernel
(_crossings_along) along the cycle. They stay private, as does the
kernel: perfbench/tracer.py wraps each public function bound across
modules, which would make every kernel call of a traced scan a span.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .geom import _crossings_along
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
    return _fsum_length(instance.distance_matrix, instance.n, [v - 1 for v in tour])


def _fsum_length(d, n, perm) -> float:
    """tour_length of a 0-based permutation, d the flat distance matrix."""
    prev = perm[-1]
    terms = []
    for cur in perm:
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


def _crossings0(xs, ys, perm) -> Iterator[tuple[int, int]]:
    """0-based edge-position pairs (a, b), a < b, whose segments properly
    cross, lazily in lexicographic order. Edge p joins perm[p] and
    perm[p+1] (edge n-1 closes the cycle: perm[p+1-n] wraps); edges
    sharing an endpoint never cross. Row a runs the crossing kernel along
    the polyline of edges a+1, ..., n-1."""
    closed = perm + perm[:1]
    for a, (u, v) in enumerate(zip(perm, closed[1:])):
        for p in _crossings_along(xs[u], ys[u], xs[v], ys[v], xs, ys, closed[a + 1 :]):
            yield (a, a + 1 + p)


def _segment_crossing(xs, ys, perm, u: int, v: int) -> Optional[int]:
    """0-based position of the first edge of the cycle perm, in cycle
    order (edge n-1 closes it), whose segment properly crosses the
    segment between labels u and v; None if no edge does. One pass of the
    crossing kernel along the closed cycle, which stops at the first
    crossing; edges sharing an endpoint with uv, and uv itself if it is
    an edge, never cross it."""
    return next(_crossings_along(xs[u], ys[u], xs[v], ys[v], xs, ys, perm + perm[:1]), None)


def _crossings(instance: Instance, tour: Sequence[int]) -> Iterator[tuple[int, int]]:
    """_crossings0 of a checked 1-based tour."""
    _check_tour(instance, tour)
    xs, ys = instance.coords
    return _crossings0(xs, ys, [v - 1 for v in tour])


def crossing_pairs(instance: Instance, tour: Sequence[int]) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j, of edge positions whose segments cross,
    in lexicographic order. Edge p joins tour positions p and p+1 (edge n
    closes the cycle)."""
    return [(a + 1, b + 1) for a, b in _crossings(instance, tour)]


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
    return None if first is None else (first[0] + 2, first[1] + 1)


def respects_hull_order(instance: Instance, tour: Sequence[int]) -> bool:
    """True iff the hull labels appear in the tour in hull cyclic order,
    up to rotation and reflection."""
    _check_tour(instance, tour)
    hull = instance.hull
    hull_set = set(hull)
    seq = tuple(v for v in tour if v in hull_set)
    h = len(hull)
    for order in (hull, hull[::-1]):
        doubled = order + order
        for start in range(h):
            if doubled[start : start + h] == seq:
                return True
    return False


# removed < added * _SHRINK in floats proves the exact 4-edge delta of an
# inversion positive (see is_two_opt_local_optimum)
_SHRINK = 1.0 - 2.0**-48


def is_two_opt_local_optimum(instance: Instance, tour: Sequence[int]) -> bool:
    """True iff no inversion yields a strictly smaller tour_length.

    The answer is the one a strict comparison of full recomputed lengths
    gives (no tolerance), found in O(n^2) by scanning 4-edge deltas.

    Inversion (i, j) swaps the edges ab and ce (a = x_{i-1}, b = x_i,
    c = x_j, e = x_{j+1}) for ac and be. distance_matrix stores one value
    for both directions, so the neighbour's fsum terms are the base terms
    with d(a,b), d(c,e) replaced by d(a,c), d(b,e): the exact sums differ
    by delta = d(a,c) + d(b,e) - d(a,b) - d(c,e). fsum is correctly
    rounded, hence monotone, so the neighbour can be strictly shorter
    only if delta < 0. A pair is skipped when that is ruled out:

    - added = fl(d(a,c) + d(b,e)) and removed = fl(d(a,b) + d(c,e)) carry
      relative error <= 2^-53 each (non-negative terms), so
      removed < fl(added * (1 - 2^-48)) implies delta > 0;
    - else fsum of the four signed terms has the sign of delta (it is
      correctly rounded, and a nonzero sum of doubles is at least the
      smallest subnormal);
    - (1, n), (2, n) and (1, n-1) leave the cycle, hence the fsum,
      unchanged;
    - (1, j) removes and adds the edges (j+1, n) does, with the same
      stored values, so row 1 is left to those pairs.

    Any other pair is confirmed with the neighbour's full fsum and the
    strict <, and the scan goes on if the confirm fails.
    """
    _check_tour(instance, tour)
    n = instance.n
    d = instance.distance_matrix
    perm = [v - 1 for v in tour]
    succ = perm[1:] + perm[:1]
    # edge[k] joins perm[k] and perm[k+1]; edge[-1] closes the cycle
    edge = [d[u * n + v] for u, v in zip(perm, succ)]
    fsum = math.fsum
    base = fsum(edge)
    for i0 in range(1, n - 1):
        a_row = perm[i0 - 1] * n
        b_row = perm[i0] * n
        d_ab = edge[i0 - 1]
        # j0 = n-1 is (i, n); skip (2, n)
        stop = n - 1 if i0 == 1 else n
        for j0 in range(i0 + 1, stop):
            d_ac = d[a_row + perm[j0]]
            d_be = d[b_row + succ[j0]]
            d_ce = edge[j0]
            if d_ab + d_ce < (d_ac + d_be) * _SHRINK:
                continue
            if fsum((d_ac, d_be, -d_ab, -d_ce)) >= 0.0:
                continue
            terms = edge.copy()
            terms[i0 - 1] = d_ac
            terms[j0] = d_be
            if fsum(terms) < base:
                return False
    return True


def canonical_form(tour: Sequence[int]) -> Tour:
    """Lexicographically smallest rotation/reflection starting at label 1.

    Two tours induce the same cycle iff their canonical forms are equal.
    """
    t = tuple(tour)
    pos = t.index(1)
    fwd = t[pos:] + t[:pos]
    return min(fwd, fwd[:1] + fwd[:0:-1])

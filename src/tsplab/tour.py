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

The inversion neighbourhood is known here only. _position_table
enumerates its pairs once; _slice_table (the search loops' Python
slices), _reflection_table (how pair indices move under the three
cycle-preserving moves) and _tour_marks (the numpy prefilter over every
pair of a tour) read that enumeration, and is_two_opt_local_optimum
prefilters with the same margin, _SHRINK.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

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


# The prefilter margin. Let an inversion swap the edges ab and ce for ac
# and be, let u = 2^-53 and A = d_ac + d_be exactly. The four stored lengths
# are >= 0, so fl(d_ab + d_ce) < fl(fl(d_ac + d_be) * _SHRINK) puts the exact
# d_ab + d_ce below A(1+u)^2(1 - 2^-48)/(1-u), more than 0.9 * 2^-48 * A
# below A: the exact delta d_ac + d_be - d_ab - d_ce is > 0. Summing the four
# signed terms in any order errs by at most 3.01u(A + A) < 0.19 * 2^-48 * A,
# so every float delta of the pair is > 0 as well.
_SHRINK = 1.0 - 2.0**-48
# _tour_marks prices at most this many pairs at a time, and run_rls peeks
# at most this many words per round: either bounds its temporaries to a few
# hundred KiB
_BATCH_MAX = 2048


@functools.lru_cache(maxsize=1)
def _position_table(n: int) -> np.ndarray:
    """The inversion neighbourhood, enumerated once: every position pair
    (i, j), 1 <= i < j <= n, in lexicographic order, a uniform index into
    which is a uniform inversion. Column t holds, for the t-th pair, the
    0-based positions i - 2 and j - 1 of the end points a and c of the two
    edges it removes, ab and ce; b and e follow them on the cycle, and
    those edges are edge (i - 2) mod n and edge j - 1 (edge k joins
    positions k and k + 1).

    i - 2 is -1 for i = 1, which numpy reads as the last position, as
    Python does. So a pair (1, j), 2 <= j <= n-2, removes and adds the
    same edges as (j+1, n), with the same stored values: each such edge
    pair is listed twice. The three pairs with j - i >= n - 2, (1, n),
    (2, n) and (1, n-1), keep the cycle.

    At two int16 per pair (127 KiB at n = 256) it is small enough for
    lru_cache to hold the old table while it builds the new."""
    dtype = np.int16 if n < 1 << 15 else np.int32
    table = np.stack((
        np.repeat(np.arange(-1, n - 2, dtype=dtype), np.arange(n - 1, 0, -1)),
        np.concatenate([np.arange(i0 + 1, n, dtype=dtype) for i0 in range(n - 1)]),
    ))
    table.flags.writeable = False
    return table


_SLICES: dict[int, tuple[tuple[int, int, int], ...]] = {}


def _slice_table(n: int) -> tuple[tuple[int, int, int], ...]:
    """_position_table(n) as Python slices: pair (i, j) is (i - 1, j,
    j % n), and inverting it reverses lst[i - 1:j], between lst[i - 2] and
    lst[j % n].

    Only the last n's table is kept, so a process that runs many sizes
    holds one table, not one per size. The old table is dropped before
    the new one is built: functools.lru_cache(maxsize=1) evicts only after
    the call returns, so both tables would be alive at the peak."""
    table = _SLICES.get(n)
    if table is None:
        _SLICES.clear()
        positions = _position_table(n) + 1
        i, j = positions.tolist()
        table = _SLICES[n] = tuple(zip(i, j, (positions[1] % n).tolist()))
    return table


@functools.lru_cache(maxsize=1)
def _reflection_table(n: int) -> np.ndarray:
    """How pair indices move under the three cycle-preserving moves: row
    m is for the full reversal (m = 0), (2, n) (m = 1) and (1, n-1)
    (m = 2). Entry t of row m is a pair index, on the tour before move m,
    that removes the same two edges as pair t on the tour after it; for
    the three cycle-preserving pairs it is the full reversal's index.

    Each move reflects the cycle's edge positions: edge k of the new tour
    is edge (c - k) mod n of the old, with c = -2, -1 and -3. An edge pair
    listed twice (see _position_table) is named by its first index,
    (1, j), never by (j+1, n), so a mask read through the table must hold
    the same value at both."""
    positions = _position_table(n)
    npairs = positions.shape[1]
    dtype = np.int16 if npairs < 1 << 15 else np.int32
    k1, k2 = positions.astype(np.intp) % n  # the two edges each pair removes
    pairs = np.arange(npairs, dtype=dtype)
    # the index of each edge pair, in both orders: the rows i >= 2 first,
    # then the row i = 1 over them, so a pair listed twice keeps its first
    index = np.zeros((n, n), dtype)
    for rows in (slice(n - 1, None), slice(None, n - 1)):
        index[k1[rows], k2[rows]] = index[k2[rows], k1[rows]] = pairs[rows]
    table = np.stack([index[(c - k1) % n, (c - k2) % n] for c in (-2, -1, -3)])
    span = positions[1] - positions[0]  # j - i + 1
    table[:, span >= n - 1] = pairs[span == n]
    table.flags.writeable = False
    return table


def _tour_marks(instance: Instance, perm) -> np.ndarray:
    """Which pairs of _position_table(n) are candidates on the 0-based
    tour perm: a bool per pair, False where the prefilter
    fl(d_ab + d_ce) < fl(fl(d_ac + d_be) * _SHRINK) proves that every float
    delta of the inversion, in any order of its four terms, is > 0 (see
    _SHRINK). It is computed in slices of _BATCH_MAX pairs.

    Both sums are order-free, so a pair's mark depends only on the two
    edges it removes, not on the tour's orientation: the two indices of a
    pair listed twice get the same mark. The three cycle-preserving pairs
    are always marked: their two sums are equal, or the added one is 0.
    """
    dist = instance.distance_array
    positions = _position_table(instance.n)
    # per position: its label and its successor's, and the edge between them
    ends = np.empty((2, len(perm)), dtype=np.intp)
    ends[0] = perm  # one list to convert: a tuple of two converts at half the speed
    ends[1, :-1] = ends[0, 1:]
    ends[1, -1] = perm[0]
    edges = dist[ends[0], ends[1]]
    marks = []
    for lo in range(0, positions.shape[1], _BATCH_MAX):
        a, c = positions[:, lo : lo + _BATCH_MAX]
        ac, be = dist[ends.take(a, axis=1), ends.take(c, axis=1)]
        marks.append(edges.take(a) + edges.take(c) >= (ac + be) * _SHRINK)
    return np.concatenate(marks)


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

    - the prefilter with margin _SHRINK proves delta > 0;
    - else fsum of the four signed terms has the sign of delta (it is
      correctly rounded, and a nonzero sum of doubles is at least the
      smallest subnormal);
    - (1, n), (2, n) and (1, n-1) leave the cycle, hence the fsum,
      unchanged;
    - the pairs (1, j) are left to (j+1, n), which remove and add the
      same edges (see _position_table).

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

"""Exact ground truth at desk scale.

Three routes to the optimal tour (full cycle enumeration, bitmask
dynamic programming, and enumeration of hull-ordered interleavings)
plus exhaustive enumeration of crossing-free tours. All final values
come from the one shared tour_length routine, so equality checks across
oracles are exact: the oracles report the same optimum_value. Among
exactly tied tours, brute force and hull order return the smallest
canonical form; Held-Karp returns the one minimal tour its
first-minimal-member rule reconstructs, which may be another.

Brute force (labels 4..n inserted into the cycle (1, 2, 3)) and hull
order (inner labels inserted into the hull) build different sets
through one insertion builder and block pricer, so brute force's
independence comes from the tests' pure-Python reference_brute and
from Held-Karp in criterion 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import TooLargeError
from .instance import Instance
from .tour import Tour, apply_jump, canonical_form, is_intersection_free, respects_hull_order, tour_length

_BRUTE_MAX_N = 11
_HELD_KARP_MAX_N = 18
_INTERLEAVING_BUDGET = 10**6
# a float-summed length within this factor of a minimum may tie it exactly
_NEAR_TIE = 1.0 + 1e-9
# rows of partial cycles priced at once for the last inserted label
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class OracleResult:
    optimum_value: float
    optimum_tour: Tour  # canonical form
    method: str


def _shortest(instance: Instance, tours: Iterable[Tour], method: str) -> OracleResult:
    """The shortest of the tours by the shared tour_length; ties on the
    exact value break by canonical-form lexicographic order."""
    best_value = math.inf
    best_tour: Optional[Tour] = None
    for t in tours:
        length = tour_length(instance, t)
        if length < best_value:
            best_value = length
            best_tour = canonical_form(t)
        elif length == best_value:
            cand = canonical_form(t)
            if cand < best_tour:
                best_tour = cand
    return OracleResult(best_value, best_tour, method)


def brute_force_optimum(instance: Instance) -> OracleResult:
    """Exhaustive scan over all (n-1)!/2 distinct cycles (n <= 11), by insertion into (1, 2, 3)."""
    n = instance.n
    if n > _BRUTE_MAX_N:
        raise TooLargeError(f"brute force accepts n <= {_BRUTE_MAX_N}, got {n}")
    return _insertion_optimum(instance, (1, 2, 3), range(4, n + 1), "brute")


def held_karp_optimum(instance: Instance) -> OracleResult:
    """Bitmask dynamic program over subsets (n <= 18).

    Node 0 is the fixed start; bit i of a mask stands for node i+1, and
    dp[mask, j] is the shortest path from node 0 through the mask's nodes
    ending at node j+1. The table is filled one popcount layer at a time:
    for each end node j, every mask of the layer that holds j takes
    dp[mask ^ bit_j] + dist[j+1, 1:] and its argmin. Columns outside
    mask ^ bit_j are inf, so argmin picks the first minimal member, and
    each candidate is the same float sum of the same two operands as in
    a scalar loop over masks in increasing order with a strict < rule.

    The reported value is the shared tour_length of the reconstructed
    tour, not the DP accumulator. Among exactly tied tours it is the one
    the first-minimal-member rule reaches, which need not be the smallest
    canonical form the other oracles return (generate_grid(9, 5, 15) is
    one such instance). The DP compares float path sums, so that its tour
    is exactly minimal is checked against the other oracles by the tests,
    not proven.
    """
    n = instance.n
    if n > _HELD_KARP_MAX_N:
        raise TooLargeError(f"held-karp accepts n <= {_HELD_KARP_MAX_N}, got {n}")
    dist = instance.distance_array
    free = n - 1
    size = 1 << free
    dp = np.full((size, free), np.inf)
    parent = np.zeros((size, free), dtype=np.int8)
    ends = np.arange(free)
    dp[1 << ends, ends] = dist[0, 1:]
    masks = np.arange(size)
    popcount = np.zeros(size, dtype=np.int8)
    for i in range(free):
        popcount += (masks >> i) & 1
    for layer in range(2, free + 1):
        in_layer = masks[popcount == layer]
        for j in range(free):
            sub = in_layer[(in_layer >> j) & 1 == 1]
            cand = dp[sub ^ (1 << j)] + dist[j + 1, 1:]
            best = cand.argmin(axis=1)
            dp[sub, j] = cand[np.arange(len(sub)), best]
            parent[sub, j] = best
    mask = size - 1
    j = int((dp[mask] + dist[1:, 0]).argmin())
    order = []
    while True:
        order.append(j + 1)
        pm = mask ^ (1 << j)
        if pm == 0:
            break
        j = int(parent[mask, j])
        mask = pm
    t = tuple([1] + [v + 1 for v in reversed(order)])
    return OracleResult(tour_length(instance, t), canonical_form(t), "held_karp")


def interleaving_count(instance: Instance) -> int:
    """The paper's bound C(n, k) * k! on the number of hull-ordered tours."""
    n = instance.n
    k = instance.inner_count
    return math.comb(n, k) * math.factorial(k)


def hull_order_count(instance: Instance) -> int:
    """The number of tours hull_order_tours yields, h(h+1)...(h+k-1): the
    i-th inserted inner point has h + i - 1 places."""
    h = len(instance.hull)
    return math.prod(range(h, h + instance.inner_count))


def hull_order_tours(instance: Instance) -> Iterator[Tour]:
    """All tours with hull labels in hull cyclic order.

    Inner points are inserted one at a time after any existing element
    of the growing sequence, so each distinct hull-ordered cycle appears
    exactly once (with the hull's own orientation and start).
    """
    hull = list(instance.hull)
    inner = list(instance.inner_labels)

    def rec(seq: list[int], idx: int) -> Iterator[Tour]:
        if idx == len(inner):
            yield tuple(seq)
            return
        p = inner[idx]
        for pos in range(1, len(seq) + 1):
            yield from rec(seq[:pos] + [p] + seq[pos:], idx + 1)

    yield from rec(hull, 0)


def _insertion_costs(rows: np.ndarray, p: int, dist: np.ndarray) -> np.ndarray:
    """Length change of putting p after each position of each cyclic row.

    Entry (r, c) replaces the edge (rows[r, c], rows[r, c+1]), wrapping
    at the end, by the two edges through p.
    """
    after = np.roll(rows, -1, axis=1)
    return dist[rows, p] + dist[p, after] - dist[rows, after]


def _check_hull_order_budget(instance: Instance) -> None:
    """TooLargeError, before anything is built, if hull_order_count is over budget."""
    count = hull_order_count(instance)
    if count > _INTERLEAVING_BUDGET:
        raise TooLargeError(f"hull-order enumeration budget exceeded: h(h+1)...(h+k-1) = {count} tours")


def _insertion_optimum(instance: Instance, base: Sequence[int], inserted: Iterable[int], method: str) -> OracleResult:
    """Minimum-length tour among the cycles built from the 1-based base
    cycle by inserting the labels in order, each after any element of
    the growing cycle (each such cycle arises exactly once).

    The cycles with all labels but the last inserted are built as
    0-based label rows, in hull_order_tours' order, each with a float
    length: the base cycle's sum plus one insertion cost
    d[a,p] + d[p,b] - d[a,b] per inserted label. The last label's
    insertions are priced as a rows x positions matrix, _BLOCK_ROWS rows
    at a time, keeping the entries within _NEAR_TIE of the block's
    minimum and then of the minimum over all blocks. Only those tours
    reach _shortest, which picks the result by the exact fsum length and
    canonical form, as over the full enumeration.

    Why no exactly minimal tour is dropped: every edge of a tour of
    length L is at most L/2, and each partial tour is no longer than the
    full one up to rounding, so each of the b-1 additions summing a base
    cycle of b labels and the three operations per insertion is off by
    at most 2^-53 L. The float length is within about (b + 3(n-b)) 2^-53
    relative of the exact sum of the tour's distances, and two tours
    whose fsum lengths are equal differ in that sum by at most one unit
    in the last place. For any n the budgets admit that is far inside
    1e-9, so a tour with the minimal fsum length lies within _NEAR_TIE
    of every minimum it is filtered against.
    """
    inserted = [v - 1 for v in inserted]
    if not inserted:
        return _shortest(instance, [tuple(base)], method)
    dist = instance.distance_array
    rows = (np.array([base]) - 1).astype(np.min_scalar_type(instance.n - 1))
    lengths = dist[rows, np.roll(rows, -1, axis=1)].sum(axis=1)
    for p in inserted[:-1]:
        width = rows.shape[1]
        # the row for an insertion after column cut: row[:cut+1] + [p] + row[cut+1:]
        slot = np.arange(width + 1)
        cut = np.arange(width)[:, None]
        gather = np.where(slot <= cut, slot, np.where(slot == cut + 1, width, slot - 1))
        ext = np.hstack([rows, np.full((len(rows), 1), p, dtype=rows.dtype)])
        lengths = (lengths[:, None] + _insertion_costs(rows, p, dist)).reshape(-1)
        rows = ext[:, gather].reshape(-1, width + 1)
    p = inserted[-1]
    kept_rows, kept_cols, kept_lengths = [], [], []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        totals = lengths[start : start + _BLOCK_ROWS, None] + _insertion_costs(block, p, dist)
        r, c = np.nonzero(totals <= totals.min() * _NEAR_TIE)
        kept_rows.append(r + start)
        kept_cols.append(c)
        kept_lengths.append(totals[r, c])
    r = np.concatenate(kept_rows)
    c = np.concatenate(kept_cols)
    kept = np.concatenate(kept_lengths)
    near = kept <= kept.min() * _NEAR_TIE
    survivors = []
    for i, col in zip(r[near].tolist(), c[near].tolist()):
        seq = [v + 1 for v in rows[i].tolist()]
        seq.insert(col + 1, p + 1)
        survivors.append(tuple(seq))
    return _shortest(instance, survivors, method)


def hull_order_optimum(instance: Instance) -> OracleResult:
    """Minimum-length tour among hull-ordered interleavings.

    Crossing-free tours keep hull order, and the optimum is crossing
    free, so this superset always contains it. Budget-limited by
    hull_order_count <= 1e6, checked before anything is built.
    """
    _check_hull_order_budget(instance)
    return _insertion_optimum(instance, instance.hull, instance.inner_labels, "hull_order")


def enumerate_intersection_free(instance: Instance) -> list[Tour]:
    """All distinct crossing-free tours, in canonical form, sorted.

    Candidates are the hull-ordered interleavings (every crossing-free
    tour is one); each is filtered by the exact crossing scan.
    """
    _check_hull_order_budget(instance)
    found = set()
    for t in hull_order_tours(instance):
        if is_intersection_free(instance, t):
            found.add(canonical_form(t))
    return sorted(found)


def jumps_to_optimum(instance: Instance, tour: Sequence[int], target: Sequence[int]) -> list[tuple[int, int]]:
    """Jump sequence (at most one per inner point) carrying a hull-ordered
    tour onto the target cycle.

    The target is re-expressed with its hull labels in the same linear
    order as the input tour; each inner point then jumps directly behind
    its predecessor in that aligned sequence. Raises ValueError if either
    tour breaks hull order.
    """
    if not respects_hull_order(instance, tour):
        raise ValueError("tour does not respect hull order")
    if not respects_hull_order(instance, target):
        raise ValueError("target does not respect hull order")
    n = instance.n
    hull_set = set(instance.hull)
    pattern = [v for v in tour if v in hull_set]

    # anchor the alignment at the tour's first hull label so every inner
    # point has a predecessor in the aligned sequence
    aligned: Optional[list[int]] = None
    for seq in (list(target), list(target)[::-1]):
        r = seq.index(pattern[0])
        rot = seq[r:] + seq[:r]
        if [v for v in rot if v in hull_set] == pattern:
            aligned = rot
            break
    assert aligned is not None  # both respect hull order, so a match exists

    pred = {aligned[p]: aligned[p - 1] for p in range(1, n)}
    cur = list(tour)
    jumps: list[tuple[int, int]] = []
    for v in aligned:
        if v in hull_set:
            continue
        ip = cur.index(v)
        iq = cur.index(pred[v])
        if ip == iq + 1:
            continue
        j = iq + 2 if iq < ip else iq + 1
        jumps.append((ip + 1, j))
        cur = list(apply_jump(cur, ip + 1, j))
    assert cur == aligned
    return jumps

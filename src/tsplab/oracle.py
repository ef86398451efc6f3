"""Exact ground truth at desk scale.

Three independent routes to the optimal tour (full cycle enumeration,
bitmask dynamic programming, and enumeration of hull-ordered
interleavings) plus exhaustive enumeration of crossing-free tours. All
final values come from the one shared tour_length routine, so equality
checks across oracles are exact.
"""

from __future__ import annotations

import itertools
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


@dataclass(frozen=True)
class OracleResult:
    optimum_value: float
    optimum_tour: Tour  # canonical form
    method: str


_perm_cache: dict[int, np.ndarray] = {}


def _perm_array(f: int) -> np.ndarray:
    """All permutations of range(f) as an int8 array, cached."""
    arr = _perm_cache.get(f)
    if arr is None:
        arr = np.array(list(itertools.permutations(range(f))), dtype=np.int8)
        _perm_cache[f] = arr
    return arr


def _evaluate_blocks(instance: Instance) -> Iterator[np.ndarray]:
    """Yield blocks of candidate optimal tours (0-based label rows).

    Scans every distinct cycle: label 1 is fixed first and reflections
    are quotiented by requiring the second label to sort below the last.
    Each yielded block holds the rows within relative 1e-9 of the block
    minimum; the caller re-evaluates them exactly.
    """
    n = instance.n
    f = n - 1
    dist = np.array(instance.distance_matrix).reshape(n, n)

    rest = np.arange(1, n, dtype=np.int8)
    if f <= 9:
        first_choices = [None]
    else:
        first_choices = list(range(f))

    for choice in first_choices:
        if choice is None:
            block = rest[_perm_array(f)]
        else:
            others = np.delete(rest, choice)
            sub = others[_perm_array(f - 1)]
            head = np.full((sub.shape[0], 1), rest[choice], dtype=np.int8)
            block = np.hstack([head, sub])
        block = block[block[:, 0] < block[:, -1]]
        if block.shape[0] == 0:
            continue
        full = np.hstack([np.zeros((block.shape[0], 1), dtype=np.int8), block])
        lengths = dist[full[:, :-1], full[:, 1:]].sum(axis=1) + dist[full[:, -1], full[:, 0]]
        keep = lengths <= lengths.min() * (1.0 + 1e-9)
        yield full[keep]


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
    """Exhaustive scan over all (n-1)!/2 distinct cycles (n <= 11)."""
    n = instance.n
    if n > _BRUTE_MAX_N:
        raise TooLargeError(f"brute force accepts n <= {_BRUTE_MAX_N}, got {n}")
    rows = (tuple(int(v) + 1 for v in row) for block in _evaluate_blocks(instance) for row in block)
    return _shortest(instance, rows, "brute")


def held_karp_optimum(instance: Instance) -> OracleResult:
    """Bitmask dynamic program over subsets (n <= 18).

    The reported value is the shared tour_length of the reconstructed
    tour, not the DP accumulator.
    """
    n = instance.n
    if n > _HELD_KARP_MAX_N:
        raise TooLargeError(f"held-karp accepts n <= {_HELD_KARP_MAX_N}, got {n}")
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


def interleaving_count(instance: Instance) -> int:
    """The C(n, k) * k! budget bound for hull-ordered tours."""
    n = instance.n
    k = instance.inner_count
    return math.comb(n, k) * math.factorial(k)


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


def hull_order_optimum(instance: Instance) -> OracleResult:
    """Minimum-length tour among hull-ordered interleavings.

    Crossing-free tours keep hull order, and the optimum is crossing
    free, so this superset always contains it. Budget-limited by
    C(n, k) * k! <= 1e6.
    """
    if interleaving_count(instance) > _INTERLEAVING_BUDGET:
        raise TooLargeError(
            f"hull-order enumeration budget exceeded: C(n,k)*k! = {interleaving_count(instance)}"
        )
    return _shortest(instance, hull_order_tours(instance), "hull_order")


def enumerate_intersection_free(instance: Instance) -> list[Tour]:
    """All distinct crossing-free tours, in canonical form, sorted.

    Candidates are the hull-ordered interleavings (every crossing-free
    tour is one); each is filtered by the exact crossing scan.
    """
    n = instance.n
    if n > 10 and interleaving_count(instance) > _INTERLEAVING_BUDGET:
        raise TooLargeError(
            f"enumeration budget exceeded: C(n,k)*k! = {interleaving_count(instance)}"
        )
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

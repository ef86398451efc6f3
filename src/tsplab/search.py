"""Randomized search heuristics on tours.

Implements the single-tour hill climber (RLS) that accepts any inversion
not increasing fitness, and the (mu+lambda) EA with elitist selection and
either Poisson-strength inversion mutation or a mixed inversion/jump
mutation. Both operators are defined once, by their draws, in
_child_pricer; run_ea mutates through it and mutation_statistics samples
it. A run is a sequential Markov chain driven by one seeded generator;
identical (instance, parameters, seed) reproduce the trajectory bit for
bit. run_rls prices its steps from words it peeks from the generator,
in one loop with one copy of the acceptance rule: once a cycle has stood
a while, it marks in numpy, once per cycle, which pairs of the tour are
candidates (_tour_marks), and prices only the words that pick one.

Trajectory accounting: each executed step/generation is classified by
the best-so-far tour before the step -- alpha if the tour has crossing
edges, beta if it is crossing-free but not optimal. The run stops as
soon as the best-so-far tour matches a supplied optimum value, so
generations always equals alpha_steps + beta_steps; a tour shorter than
that value raises ValueError where it is compared. Neither loop counts
crossings: each keeps a crossing witness (see _witness) and updates it
from the edges that changed, by one rule (_update_witness). run_rls
diffs its tour before and after an accepted inversion that changes the
cycle; run_ea diffs each new best tour against the last one it
classified, whatever parent the new best came from. A move or a new best
that keeps the cycle costs no geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .instance import Instance
from .rng import _INV_2_53, Xoshiro256StarStar
from .tour import Tour, _crossings0, _fsum_length, _segment_crossing, tour_length
from .tour import _SHRINK, is_two_opt_local_optimum

_INV_E = float.fromhex("0x1.78b56362cef38p-2")  # 1/e correctly rounded, with no libm call
# the incremental float length is re-derived from scratch this often to
# bound its drift; the crossing witness is exact and needs none
_REVALIDATE_EVERY = 1 << 16
# run_rls marks a cycle's candidate pairs once it has stood this many
# steps, or npairs // 8 if more, and then prices only the words that pick
# one: marking prices every pair of the tour, so a cycle that changes
# sooner is cheaper priced word by word (npairs // 4 ran rls-grid-local's
# n = 128 runs about 1.06x slower). A round peeks at most _BATCH_MAX
# words, which bounds its temporaries to a few hundred KiB.
_BATCH_AFTER = 64
_BATCH_MAX = 2048
# relative slack when comparing a recomputed length against the optimum
_OPT_REL_TOL = 1e-12
# wider trigger band for the cheap incremental comparison; full
# recomputation decides
_OPT_TRIGGER = 1e-9


@dataclass(frozen=True)
class MutationSpec:
    """Which mutation operator a run uses; its strength is 1 + Poisson(1)."""

    kind: str = "two_opt"  # "two_opt" | "mixed"

    def __post_init__(self):
        if self.kind not in ("two_opt", "mixed"):
            raise ValueError(f"unknown mutation kind {self.kind!r}")


@dataclass(frozen=True)
class EAConfig:
    mu: int = 1
    lam: int = 1
    mutation: MutationSpec = field(default_factory=MutationSpec)
    max_generations: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if self.mu < 1 or self.lam < 1:
            raise ValueError("mu and lambda must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass
class Trajectory:
    """Per-run record of a search run."""

    generations: int
    reached_optimum: bool
    reached_local_optimum: Optional[bool]
    fitness_evals: int
    alpha_steps: int
    beta_steps: int
    final_tour: Tour
    final_length: float
    best_fitness_series: Optional[list[float]] = None


_SLICES: dict[int, tuple[tuple[int, int, int], ...]] = {}


def _slice_table(n: int) -> tuple[tuple[int, int, int], ...]:
    """Every position pair (i, j), 1 <= i < j <= n, in lexicographic order,
    as the 0-based slice (i - 1, j, j % n): inverting the pair reverses
    lst[i - 1:j], between lst[i - 2] and lst[j % n]. A uniform index into
    it is a uniform inversion.

    Only the last n's table is kept, so a process that runs many sizes
    holds one table, not one per size. The old table is dropped before
    the new one is built: functools.lru_cache(maxsize=1) evicts only after
    the call returns, so both tables would be alive at the peak."""
    table = _SLICES.get(n)
    if table is None:
        _SLICES.clear()
        table = _SLICES[n] = tuple((i0, j, j % n) for i0 in range(n - 1) for j in range(i0 + 2, n + 1))
    return table


@functools.lru_cache(maxsize=1)
def _position_table(n: int) -> np.ndarray:
    """_slice_table(n) as tour positions, for numpy: column t holds, for
    the t-th pair, the positions i0 - 1 and j0 - 1 of the end points a
    and c of the two removed edges; b and e follow them on the cycle.
    i0 - 1 is -1 for i0 = 0, which numpy reads as the last position, as
    Python does. At two int16 per pair (127 KiB at n = 256) it is small
    enough for lru_cache to hold the old table while it builds the new."""
    dtype = np.int16 if n < 1 << 15 else np.int32
    table = np.stack((
        np.repeat(np.arange(-1, n - 2, dtype=dtype), np.arange(n - 1, 0, -1)),
        np.concatenate([np.arange(i0 + 1, n, dtype=dtype) for i0 in range(n - 1)]),
    ))
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=1)
def _reflection_table(n: int) -> np.ndarray:
    """How pair indices move under the three cycle-preserving moves: row
    m is for the full reversal (m = 0), (2, n) (m = 1) and (1, n-1)
    (m = 2). Entry t of row m is a pair index, on the tour before move m,
    that removes the same two edges as pair t on the tour after it; for
    the three cycle-preserving pairs it is the full reversal's index.

    Each move reflects the cycle's edge positions: edge k of the new tour
    is edge (c - k) mod n of the old, with c = -2, -1 and -3. An edge
    pair {k1 < k2} has the index of (k1 + 2, k2 + 1) in 1-based positions,
    or of (1, k1 + 1) when k2 = n - 1; a pair with edge n - 1 has a second
    index, (k1 + 2, n), which the table never names, so a mask read
    through it must hold both indices of such a pair."""
    npairs = n * (n - 1) // 2
    dtype = np.int16 if npairs < 1 << 15 else np.int32
    k1, k2 = _position_table(n).astype(np.int32) % n
    rows = []
    for c in (-2, -1, -3):
        e1 = (c - k1) % n
        e2 = (c - k2) % n
        lo = np.minimum(e1, e2)
        hi = np.maximum(e1, e2)
        wrap = hi == n - 1
        i0 = np.where(wrap, 0, lo + 1)
        j0 = np.where(wrap, lo + 1, hi + 1)
        old = i0 * (n - 1) - i0 * (i0 - 1) // 2 + j0 - i0 - 2
        old[[n - 2, 2 * n - 4, n - 3]] = n - 2  # (1, n), (2, n), (1, n-1)
        rows.append(old.astype(dtype))
    table = np.stack(rows)
    table.flags.writeable = False
    return table


def _tour_marks(instance: Instance, perm) -> np.ndarray:
    """Which pairs of _slice_table(n) are candidates on the 0-based tour
    perm: a bool per pair, False where is_two_opt_local_optimum's
    prefilter, fl(d_ab + d_ce) < fl(fl(d_ac + d_be) * _SHRINK), proves the
    inversion rejected. It is computed in slices of _BATCH_MAX pairs, so
    that its temporaries are a round's.

    Both sums are order-free, so a pair's mark depends only on the two
    edges it removes, not on the tour's orientation, and the two indices
    of a pair with edge n - 1 (see _reflection_table) get the same mark.
    An unmarked pair has a float delta > 0 in every order of its four
    terms: with u = 2^-53 and A = d_ac + d_be, the prefilter puts the
    exact d_ab + d_ce below A(1+u)^2(1 - 2^-48)/(1-u), more than
    0.9 * 2^-48 * A below A, and summing the four signed terms in any
    order errs by at most 3.01u(A + A) < 0.19 * 2^-48 * A. The three
    cycle-preserving pairs are always marked: their two sums are equal,
    or the added one is 0.
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


def _check_optimum(optimum_value: Optional[float]) -> None:
    if optimum_value is not None and not (math.isfinite(optimum_value) and optimum_value > 0):
        raise ValueError(f"optimum_value must be finite and > 0, got {optimum_value!r}")


def _below_optimum(optimum_value: float, length: float) -> ValueError:
    return ValueError(f"optimum_value {optimum_value!r} is above a tour of length {length!r}")


def _random_perm0(n: int, rng: Xoshiro256StarStar) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _witness(xs, ys, perm, added, rescan: bool) -> Optional[tuple[int, int]]:
    """Crossing witness of perm: the first (u, v) in added that an edge of
    perm crosses, with the first such edge; else, with rescan, perm's
    first crossing pair; else None.

    A witness is two edges of a tour that properly cross, each keyed by
    its labels u, v as 2^u + 2^v (not by its position, which moves), or
    None iff the tour is crossing-free. Let T be a tour with a known
    witness and perm any tour T' on the same points, with the edges in
    added gained and some edges of T lost. Whether two segments cross
    depends on their end points only, so:

    - two edges of T' that are also edges of T cross in T' iff they
      crossed in T;
    - hence, if T was crossing-free, every crossing of T' involves an
      added edge, and one pass over the cycle per added edge
      (_segment_crossing) decides: call with rescan False;
    - if both edges of T's witness are edges of T', they still cross and
      stay a witness (_update_witness keeps it without a call);
    - if a witness edge was lost and no added edge is crossed, a crossing
      of T' can only be between two kept edges: call with rescan True,
      which stops at the first crossing.

    Nothing requires T' to be one move from T, so the rule holds for any
    edge diff: run_rls's inversions (two edges out, two in) and run_ea's
    new best tours, which may descend from any parent. An empty diff (the
    same cycle: run_rls's full reversal, (2, n) and (1, n-1), or run_ea's
    tied child of one) keeps the witness, and neither loop calls this for
    it.
    """
    n = len(perm)
    for u, v in added:
        p = _segment_crossing(xs, ys, perm, u, v)
        if p is not None:
            return (1 << u | 1 << v, 1 << perm[p] | 1 << perm[p + 1 - n])
    first = next(_crossings0(xs, ys, perm), None) if rescan else None
    if first is None:
        return None
    p, q = first
    return (1 << perm[p] | 1 << perm[p + 1 - n], 1 << perm[q] | 1 << perm[q + 1 - n])


def _update_witness(xs, ys, perm, witness, removed, added) -> Optional[tuple[int, int]]:
    """perm's crossing witness, given the witness of a tour that perm
    differs from by losing the edges keyed in removed and gaining the
    label pairs in added (see _witness for the argument): the old witness
    if neither of its edges was removed, else _witness, rescanning only
    when there was a witness."""
    if witness is not None and witness[0] not in removed and witness[1] not in removed:
        return witness
    return _witness(xs, ys, perm, added, witness is not None)


def _edge_keys(perm) -> set[int]:
    """The keys 2^u + 2^v of the cycle perm's edges."""
    return {1 << u | 1 << v for u, v in zip(perm, perm[1:] + perm[:1])}


def run_rls(
    instance: Instance,
    budget: int,
    seed: int,
    optimum_value: Optional[float] = None,
    record_series: bool = False,
) -> Trajectory:
    """Randomized local search from a uniform random permutation.

    Each step draws an unordered position pair and accepts the inversion
    iff the fitness does not increase (ties accepted). With an optimum
    value supplied the run stops once the tour matches it; otherwise it
    runs until the budget or until a full neighborhood scan (every n^2
    accepted steps) certifies a 2-opt local optimum.

    One loop makes every step, in rounds of at most _BATCH_MAX words
    peeked from the generator, never past the budget or the next
    revalidation. A word >= the rejection limit is sampled away, as
    randbelow would; any other picks the pair word % npairs. While the
    cycle is younger than max(_BATCH_AFTER, npairs // 8) steps every word
    is priced; once it has stood that long, _tour_marks marks its
    candidate pairs, once, and only the words that pick one are priced.
    An accepted step is made where it falls:

    - the full reversal, (2, n) and (1, n-1) keep the cycle, and its
      marks follow the moved tour through _reflection_table;
    - any other accepted step makes a new cycle and drops the marks;
    - the optimum check, or the every-n^2 certification, follows each
      accepted step but the full reversal.

    This is the trajectory of drawing one word per step, bit for bit:

    - every priced word runs the one acceptance rule, on the same stored
      doubles in the same order; an unmarked pair has a delta > 0 in
      every term order (_tour_marks), so leaving it unpriced rejects it;
    - between accepted steps the tour and cur_len do not change, so the
      alpha count and the series samples follow in closed form;
    - the generator then skips the words the round used, through
      next_u64 where its class overrides that, so a draw-counting
      override counts the same draws;
    - a round ends at the step on which a revalidation falls due, and the
      revalidation follows it.

    Alpha/beta accounting reads a crossing witness (see _witness). An
    accepted inversion that swaps the edges ab and ce for the new edges
    ac and be keeps it exact through _update_witness:

    - no witness edge is ab or ce: both are still tour edges that cross;
    - the tour was crossing-free: a new crossing involves ac or be, and
      one pass over the cycle for each (_segment_crossing) decides;
    - a witness edge was removed: the same check, and if neither added
      edge is crossed, a rescan that stops at the first crossing.

    The full reversal, (2, n) and (1, n-1) remove and re-add the same
    edges, so the witness stands and no geometry runs.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    _check_optimum(optimum_value)
    n = instance.n
    rng = Xoshiro256StarStar(seed)
    perm = _random_perm0(n, rng)
    d = instance.distance_matrix
    xs, ys = instance.coords

    pairs = _slice_table(n)
    npairs = len(pairs)
    limit = (1 << 64) - (1 << 64) % npairs

    cur_len = _fsum_length(d, n, perm)
    witness = _witness(xs, ys, perm, (), True)
    has_cross = 0 if witness is None else 1

    opt_hi = None if optimum_value is None else optimum_value * (1.0 + _OPT_TRIGGER)
    opt_tol = None if optimum_value is None else optimum_value * _OPT_REL_TOL
    certify_every = n * n

    gens = alpha = accepted = 0
    certified_local = False
    series: Optional[list[float]] = [] if record_series else None
    stride = max(1, budget // 1024) if record_series else 0
    revalidate_at = _REVALIDATE_EVERY
    batch_after = max(_BATCH_AFTER, npairs // 8)
    # the cycle's candidate marks, once it has stood batch_after steps: from
    # the step count marks_at on
    marks = None
    marks_at = batch_after

    def _confirm_optimum() -> bool:
        length = _fsum_length(d, n, perm)
        if length - optimum_value < -opt_tol:
            raise _below_optimum(optimum_value, length)
        return length - optimum_value <= opt_tol

    stop = reached_optimum = opt_hi is not None and cur_len <= opt_hi and _confirm_optimum()
    while not stop and gens < budget:
        k = min(_BATCH_MAX, budget - gens, revalidate_at - gens)
        words = rng.peek(k)
        kept = None
        if words.max() >= limit:  # each word is over with probability < npairs / 2^64
            kept = np.flatnonzero(words < limit)
            words = words[kept]
        picks = words % npairs
        base = gens  # word t makes step base + t + 1
        end = len(picks)
        h = 0  # the next word to price
        while h < end:
            if marks is None and base + h >= marks_at:
                marks = _tour_marks(instance, perm)
            young = marks is None
            # only the words priced become Python ints
            if young:
                # an accepted step only moves marks_at later: the pass goes on
                young_end = min(end, marks_at - base)
                todo = enumerate(picks[h:young_end].tolist(), h)
                h = young_end
            else:
                idx = marks.take(picks[h:]).nonzero()[0] + h
                todo = zip(idx.tolist(), picks.take(idx).tolist())
                h = end
            for t, pick in todo:
                i0, j0, jmod = pairs[pick]
                if j0 - i0 == n:
                    # full reversal: same cycle, fitness tie, always accepted
                    perm.reverse()
                    delta = 0.0
                else:
                    a = perm[i0 - 1]
                    b = perm[i0]
                    c = perm[j0 - 1]
                    e = perm[jmod]
                    delta = d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e]
                    if delta > 0.0:
                        continue
                    perm[i0:j0] = perm[i0:j0][::-1]
                step = base + t + 1
                alpha += has_cross * (step - gens)
                if series is not None:
                    series.extend([cur_len] * (step // stride - gens // stride))
                gens = step
                cur_len += delta
                accepted += 1
                if j0 - i0 < n - 1:  # not (1, n), (2, n) or (1, n-1): a new cycle
                    witness = _update_witness(
                        xs, ys, perm, witness, (1 << a | 1 << b, 1 << c | 1 << e), ((a, c), (b, e))
                    )
                    has_cross = 0 if witness is None else 1
                    marks = None
                    marks_at = step + batch_after
                elif marks is not None:
                    marks = marks.take(_reflection_table(n)[0 if j0 - i0 == n else 1 if i0 else 2])
                if j0 - i0 < n:
                    if opt_hi is not None:
                        stop = reached_optimum = cur_len <= opt_hi and _confirm_optimum()
                    elif accepted % certify_every == 0:
                        stop = certified_local = is_two_opt_local_optimum(instance, tuple(v + 1 for v in perm))
                    if stop:
                        h = end = t + 1
                        break
                if not young:
                    # the marks moved or were dropped: the words left read them anew
                    h = t + 1
                    break
        step = base + end
        alpha += has_cross * (step - gens)
        if series is not None:
            series.extend([cur_len] * (step // stride - gens // stride))
        gens = step
        # a sampled-away word belongs to the step after it: one the round
        # ends on is used only when the round made no step
        rng.skip(end if kept is None else int(kept[end - 1]) + 1 if end else k)
        if not stop and gens >= revalidate_at:
            revalidate_at += _REVALIDATE_EVERY
            cur_len = _fsum_length(d, n, perm)
            stop = reached_optimum = opt_hi is not None and cur_len <= opt_hi and _confirm_optimum()

    final = tuple(v + 1 for v in perm)
    return Trajectory(
        generations=gens,
        reached_optimum=reached_optimum,
        reached_local_optimum=certified_local or is_two_opt_local_optimum(instance, final),
        fitness_evals=1 + gens,
        alpha_steps=alpha,
        beta_steps=gens - alpha,
        final_tour=final,
        final_length=tour_length(instance, final),
        best_fitness_series=series,
    )


def _ea_margin_unit(d, n: int) -> float:
    """Per-move bound on |est - fsum(child)| for run_ea's delta prefilter.

    Let u = 2^-53, M the largest stored distance and L = n*M, which bounds
    the exact sum S of the n stored edge values of any tour. distance_matrix
    stores one value for both directions, so a move's exact delta (the sum
    of the stored values of its added edges minus those of its removed
    edges) is the exact change of S. A child made by s moves from a parent
    of fitness F = fsum(parent) = round(S_0) is priced as

        e_0 = F,  e_k = fl(e_{k-1} + fl-delta_k),  est = e_s.

    - |F - S_0| <= u*L (fsum is correctly rounded).
    - A move's delta is 4 (inversion) or 6 (jump) stored values, each at
      most M, summed left to right: its error is at most
      gamma_5 * 6M < 31uM =: E.
    - Each addition rounds by at most u*|e_{k-1} + fl-delta_k|
      <= u*(L + err_{k-1} + E), since the exact intermediate sum S_k is the
      S of the tour after k moves. By induction err_k <= u*L + k*c with
      c = E + 2uL, as long as u*L + k*c + E <= L, which holds for every
      s <= 2^48 (n >= 3); each move costs at least one RNG draw, so no run
      comes near.
    - fsum(child) = round(S_s) is within u*L of S_s.

    So |est - fsum(child)| <= 2uL + s*c < uM(2n + s(2n+31)). A child is
    rejected when est > fl(worst + fl(s * unit)) with
    unit = fl(2^-50 * M * (n + 8)), about 8uM(n + 8). Each of the three
    roundings loses a relative u, the sum's at most u*worst <= u(1+u)L,
    so the right side stays above worst + uM(2n + s(2n+31)) for s >= 1:
    a rejected child has fsum(child) > worst and could not have entered
    the population.
    """
    return 2.0**-50 * max(d) * (n + 8)


def _child_pricer(d, n: int, mixed: bool, next_u64):
    """run_ea's mutation with its fitness estimate: the one definition of
    both mutation operators.

    The returned price(tour, fitness) mutates a copy of the 0-based tour.
    Its draws, in this order, define the operator:

    1. mixed only: a uniform r; the moves are inversions if r < 1/2, else
       jumps (two_opt always inverts);
    2. the strength 1 + Poisson(1): multiply uniforms until the product
       drops below 1/e; the number of uniforms is the number of moves;
    3. per move, a uniform index by rejection (no modulo bias): for an
       inversion, into _slice_table(n); for a jump, into the ordered
       0-based pairs (p, q), p != q, as p * (n - 1) + (q if q < p else
       q - 1), which moves the element at position p to position q.

    A uniform is (next_u64() >> 11) * 2^-53. price returns (est, reps,
    child): child is the mutated list, reps its number of moves, and
    est = fitness plus the float delta of each move (4 terms per
    inversion, 6 per jump; the full reversal keeps the cycle and adds
    nothing). _ea_margin_unit bounds |est - fsum(child)|.
    """
    two64 = 1 << 64
    pairs = _slice_table(n)
    npairs = len(pairs)
    pair_limit = two64 - two64 % npairs
    njumps = n * (n - 1)
    jump_limit = two64 - two64 % njumps
    last = n - 1

    def price(tour, est):
        lst = list(tour)
        inversions = (next_u64() >> 11) * _INV_2_53 < 0.5 if mixed else True
        reps = 1
        prod = (next_u64() >> 11) * _INV_2_53
        while prod >= _INV_E:
            reps += 1
            prod *= (next_u64() >> 11) * _INV_2_53
        if inversions:
            for _ in range(reps):
                u = next_u64()
                while u >= pair_limit:
                    u = next_u64()
                i0, j0, jmod = pairs[u % npairs]
                if i0 == 0 and j0 == n:
                    lst.reverse()
                    continue
                a = lst[i0 - 1]
                b = lst[i0]
                c = lst[j0 - 1]
                e = lst[jmod]
                est += d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e]
                lst[i0:j0] = lst[i0:j0][::-1]
        else:
            for _ in range(reps):
                u = next_u64()
                while u >= jump_limit:
                    u = next_u64()
                p, r = divmod(u % njumps, last)
                q = r if r < p else r + 1
                # v leaves its neighbours lft, rgt and enters between x, y
                lft = lst[p - 1]
                rgt = lst[p - last]
                v = lst.pop(p)
                x = lst[q - 1]
                y = lst[q - last]
                lst.insert(q, v)
                est += (
                    d[lft * n + rgt] + d[x * n + v] + d[v * n + y]
                    - d[lft * n + v] - d[v * n + rgt] - d[x * n + y]
                )
        return est, reps, lst

    return price


def run_ea(
    instance: Instance,
    config: EAConfig,
    optimum_value: Optional[float] = None,
    record_series: bool = False,
) -> Trajectory:
    """(mu+lambda) EA with elitist truncation selection.

    Each generation draws every offspring's parent uniformly at random
    from the population, mutates it, and keeps the mu best of parents
    plus offspring. Fitness ties prefer offspring over parents, then
    lower creation index. The run stops at the budget, or as soon as the
    population best matches a supplied optimum value.

    A child is priced first by its parent's fitness plus the float deltas
    of its moves (_child_pricer). It can only survive if its exact fitness
    is <= the worst parent's, so a child whose estimate exceeds that by
    more than the proven error bound of _ea_margin_unit is dropped without
    an exact length; every other child gets the exact fsum and the exact
    sort, so the trajectory is the one full evaluation of every child
    gives.

    Alpha/beta accounting keeps a crossing witness (see _witness) for the
    last best tour it classified, with that tour's edge keys. A new best
    tuple gets its keys in O(n): equal keys are the same cycle (a tied
    child of a cycle-preserving move, which ties prefer) and keep the
    phase with no geometry; otherwise _update_witness gets the diff --
    the classified tour's edges the new best lacks, and the new best's
    edges it lacked.
    """
    _check_optimum(optimum_value)
    n = instance.n
    mu = config.mu
    lam = config.lam
    budget = config.max_generations
    rng = Xoshiro256StarStar(config.seed)
    d = instance.distance_matrix
    xs, ys = instance.coords
    unit = _ea_margin_unit(d, n)
    next_u64 = rng.next_u64
    mu_limit = (1 << 64) - (1 << 64) % mu

    # individuals: (fitness, parent_flag, creation_index, 0-based tour);
    # creation indices are unique, so tuples sort by (fitness, flag, index)
    pop = []
    for idx in range(mu):
        perm = _random_perm0(n, rng)
        pop.append((_fsum_length(d, n, perm), 1, idx, tuple(perm)))
    pop.sort()
    next_idx = mu
    price = _child_pricer(d, n, config.mutation.kind == "mixed", next_u64)

    opt_tol = None if optimum_value is None else optimum_value * _OPT_REL_TOL

    gens = alpha = 0
    reached_optimum = False
    series: Optional[list[float]] = [] if record_series else None
    stride = max(1, budget // 4096) if record_series else 0

    # the last classified best tour, its edge keys and its witness
    cls_tour = pop[0][3]
    cls_keys = _edge_keys(cls_tour)
    witness = _witness(xs, ys, cls_tour, (), True)
    has_cross = 0 if witness is None else 1

    while True:
        best = pop[0]
        if opt_tol is not None and best[0] - optimum_value <= opt_tol:
            if best[0] - optimum_value < -opt_tol:
                raise _below_optimum(optimum_value, best[0])
            reached_optimum = True
            break
        if gens >= budget:
            break
        if best[3] is not cls_tour:
            cls_tour = best[3]
            keys = _edge_keys(cls_tour)
            if keys != cls_keys:
                added = [(k.bit_length() - 1, (k & -k).bit_length() - 1) for k in keys - cls_keys]
                witness = _update_witness(xs, ys, cls_tour, witness, cls_keys - keys, added)
                has_cross = 0 if witness is None else 1
                cls_keys = keys
        alpha += has_cross
        gens += 1
        if series is not None and gens % stride == 0:
            series.append(best[0])

        worst = pop[-1][0]
        offspring = []
        for _ in range(lam):
            if mu > 1:
                u = next_u64()
                while u >= mu_limit:
                    u = next_u64()
                parent = pop[u % mu]
            else:
                parent = pop[0]
            est, reps, lst = price(parent[3], parent[0])
            if est <= worst + reps * unit:
                offspring.append((_fsum_length(d, n, lst), 0, next_idx, tuple(lst)))
            next_idx += 1
        if offspring:
            pop = [(f, 1, idx, t) for f, _, idx, t in sorted(pop + offspring)[:mu]]
        else:
            pop.sort()  # no child to merge; still puts tied survivors back in creation order

    best = pop[0]
    return Trajectory(
        generations=gens,
        reached_optimum=reached_optimum,
        reached_local_optimum=None,
        fitness_evals=mu + lam * gens,
        alpha_steps=alpha,
        beta_steps=gens - alpha,
        final_tour=tuple(v + 1 for v in best[3]),
        final_length=best[0],
        best_fitness_series=series,
    )


def mutation_statistics(n: int, samples: int, seed: int) -> dict:
    """Empirical statistics of run_ea's mutation against their closed forms.

    Draws `samples` two-opt children and then `samples` mixed children
    through _child_pricer, on one generator seeded with `seed`, each from
    the identity tour of n points on a zero distance matrix. Reports the
    strength distribution, the mixed branch frequency (read from the
    first raw draw of each mixed call), and a chi-square uniformity test
    over the pair chosen by single-inversion children: such a child
    differs from the identity exactly from its first to its last
    inverted position, so it names its pair.
    """
    if n < 3:
        raise ValueError(f"mutation statistics need n >= 3 points, got {n}")
    if samples < 10**5:
        raise ValueError("need at least 1e5 samples for stable statistics")
    from scipy.stats import chi2

    rng = Xoshiro256StarStar(seed)
    next_u64 = rng.next_u64
    zero = [0.0] * (n * n)
    identity = range(n)
    index = {(i0, j0): k for k, (i0, j0, _) in enumerate(_slice_table(n))}
    npairs = len(index)

    count_one = 0
    count_two = 0
    count_four = 0
    pair_counts = [0] * npairs
    price = _child_pricer(zero, n, False, next_u64)
    for _ in range(samples):
        _, reps, child = price(identity, 0.0)
        if reps == 1:
            count_one += 1
            moved = [k for k in identity if child[k] != k]
            pair_counts[index[moved[0], moved[-1] + 1]] += 1
        elif reps == 2:
            count_two += 1
        elif reps == 4:
            count_four += 1

    draws: list[int] = []

    def recording() -> int:
        u = next_u64()
        draws.append(u)
        return u

    price = _child_pricer(zero, n, True, recording)
    branch_inversion = 0
    for _ in range(samples):
        price(identity, 0.0)
        branch_inversion += (draws[0] >> 11) * _INV_2_53 < 0.5
        draws.clear()

    expected = count_one / npairs
    chi_stat = math.fsum((c - expected) ** 2 / expected for c in pair_counts)
    df = npairs - 1
    p_value = float(chi2.sf(chi_stat, df))

    e = math.e
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "p_one_inversion": count_one / samples,
        "p_one_inversion_target": 1.0 / e,
        "p_two_inversions": count_two / samples,
        "p_two_inversions_target": 1.0 / e,  # 1/(e*(2k-1)!) at k=1
        "p_four_inversions": count_four / samples,
        "p_four_inversions_target": 1.0 / (e * 6.0),  # k=2
        "mixed_inversion_branch": branch_inversion / samples,
        "mixed_inversion_branch_target": 0.5,
        "chi_square_stat": chi_stat,
        "chi_square_df": df,
        "chi_square_pvalue": p_value,
        "single_inversion_samples": count_one,
    }

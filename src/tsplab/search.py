"""Randomized search heuristics on tours.

Implements the single-tour hill climber (RLS) that accepts any inversion
not increasing fitness, and the (mu+lambda) EA with elitist selection and
either Poisson-strength inversion mutation or a mixed inversion/jump
mutation. A run is a sequential Markov chain driven by one seeded
generator; identical (instance, parameters, seed) reproduce the
trajectory bit for bit.

Trajectory accounting: each executed step/generation is classified by
the best-so-far tour before the step -- alpha if the tour has crossing
edges, beta if it is crossing-free but not optimal. The run stops as
soon as the best-so-far tour matches a supplied optimum value, so
generations always equals alpha_steps + beta_steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .instance import Instance
from .rng import _INV_2_53, Xoshiro256StarStar
from .tour import Tour, _crossings0, _fsum_length, _segment_crossing, tour_length
from .tour import is_intersection_free, is_two_opt_local_optimum

_INV_E = math.exp(-1.0)
# the incremental float length is re-derived from scratch this often to
# bound its drift; the crossing witness is exact and needs none
_REVALIDATE_EVERY = 1 << 16
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


def poisson_plus_one(rng: Xoshiro256StarStar) -> int:
    """1 + a Poisson(1) draw, by the multiplicative method: multiply
    uniforms until the product drops below e^-1."""
    s = 0
    prod = rng.uniform()
    while prod >= _INV_E:
        s += 1
        prod *= rng.uniform()
    return s + 1


_pair_tables: dict[int, tuple[tuple[int, int], ...]] = {}


def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered position pairs (i, j), 1 <= i < j <= n."""
    table = _pair_tables.get(n)
    if table is None:
        table = tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        _pair_tables[n] = table
    return table


def _slice_table(n: int) -> tuple[tuple[int, int, int], ...]:
    """_pair_table(n) as 0-based slices (i - 1, j, j % n): inverting the
    pair reverses lst[i - 1:j], between lst[i - 2] and lst[j % n]. Built
    per run, not from the cached _pair_table: a cache would keep the
    tables of every n a process has run."""
    return tuple((i0, j, j % n) for i0 in range(n - 1) for j in range(i0 + 2, n + 1))


def draw_inversion_pair(n: int, rng: Xoshiro256StarStar) -> tuple[int, int]:
    """Uniform unordered pair out of the n(n-1)/2 with i < j."""
    table = _pair_table(n)
    return table[rng.randbelow(len(table))]


def draw_jump_pair(n: int, rng: Xoshiro256StarStar) -> tuple[int, int]:
    """Uniform ordered pair (i, j), i != j, out of n(n-1)."""
    idx = rng.randbelow(n * (n - 1))
    i = idx // (n - 1)
    r = idx % (n - 1)
    j = r if r < i else r + 1
    return (i + 1, j + 1)


def plan_two_opt(n: int, rng: Xoshiro256StarStar) -> list[tuple[int, int]]:
    """The inversion pairs one two-opt mutation call will apply."""
    reps = poisson_plus_one(rng)
    return [draw_inversion_pair(n, rng) for _ in range(reps)]


def plan_mixed(n: int, rng: Xoshiro256StarStar) -> tuple[str, list[tuple[int, int]]]:
    """Branch and move list of one mixed mutation call.

    Draws the branch variable first, then the strength, matching the
    operator definition.
    """
    r = rng.uniform()
    reps = poisson_plus_one(rng)
    if r < 0.5:
        return ("inversion", [draw_inversion_pair(n, rng) for _ in range(reps)])
    return ("jump", [draw_jump_pair(n, rng) for _ in range(reps)])


def _apply_inversions(lst: list[int], moves: list[tuple[int, int]]) -> None:
    for i, j in moves:
        lst[i - 1 : j] = lst[i - 1 : j][::-1]


def _apply_jumps(lst: list[int], moves: list[tuple[int, int]]) -> None:
    for i, j in moves:
        v = lst.pop(i - 1)
        lst.insert(j - 1, v)


def two_opt_mutation(tour: Sequence[int], rng: Xoshiro256StarStar) -> Tour:
    """Apply s+1 uniform random inversions, s ~ Poisson(1)."""
    lst = list(tour)
    _apply_inversions(lst, plan_two_opt(len(lst), rng))
    return tuple(lst)


def mixed_mutation(tour: Sequence[int], rng: Xoshiro256StarStar) -> Tour:
    """With probability 1/2 apply s+1 random inversions, else s+1 random
    jumps, s ~ Poisson(1)."""
    lst = list(tour)
    kind, moves = plan_mixed(len(lst), rng)
    if kind == "inversion":
        _apply_inversions(lst, moves)
    else:
        _apply_jumps(lst, moves)
    return tuple(lst)


def classify_state(instance: Instance, tour: Sequence[int], optimum_value: Optional[float] = None) -> str:
    """'optimal' if the length matches a supplied optimum (recomputed,
    relative slack 1e-12), else 'alpha' if the tour has crossing edges,
    else 'beta'."""
    if optimum_value is not None:
        length = tour_length(instance, tour)
        if abs(length - optimum_value) <= optimum_value * _OPT_REL_TOL:
            return "optimal"
    if is_intersection_free(instance, tour):
        return "beta"
    return "alpha"


def _random_perm0(n: int, rng: Xoshiro256StarStar) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _witness(xs, ys, perm, added, rescan: bool) -> Optional[tuple[int, int]]:
    """Crossing witness of perm (see run_rls): the first (u, v) in added
    that an edge of perm crosses, with the first such edge; else, with
    rescan, perm's first crossing pair; else None."""
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

    Alpha/beta accounting reads a crossing witness: two tour edges that
    properly cross, each keyed by its labels u, v as 2^u + 2^v (not by its
    position, which inversions move), or None iff the tour is
    crossing-free. An accepted inversion that swaps the edges ab and ce
    for ac and be keeps it exact:

    - no witness edge is ab or ce: both are still tour edges that cross;
    - the tour was crossing-free: a new crossing involves ac or be, and
      one pass over the cycle for each (_segment_crossing) decides;
    - a witness edge was removed (also by the cycle-preserving (2, n) and
      (1, n-1)): the same check, and if neither added edge is crossed, a
      rescan that stops at the first crossing.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = instance.n
    rng = Xoshiro256StarStar(seed)
    perm = _random_perm0(n, rng)
    d = instance.distance_matrix
    xs, ys = instance.coords

    pairs = _slice_table(n)
    npairs = len(pairs)
    limit = (1 << 64) - (1 << 64) % npairs
    next_u64 = rng.next_u64

    cur_len = _fsum_length(d, n, perm)
    witness = _witness(xs, ys, perm, (), True)
    has_cross = 0 if witness is None else 1

    opt_hi = None if optimum_value is None else optimum_value * (1.0 + _OPT_TRIGGER)
    opt_tol = None if optimum_value is None else optimum_value * _OPT_REL_TOL
    certify_every = n * n

    gens = alpha = accepted = 0
    reached_optimum = False
    certified_local = False
    series: Optional[list[float]] = [] if record_series else None
    stride = max(1, budget // 1024) if record_series else 0
    revalidate_at = _REVALIDATE_EVERY

    def _confirm_optimum() -> bool:
        return abs(_fsum_length(d, n, perm) - optimum_value) <= opt_tol

    if opt_hi is not None and cur_len <= opt_hi and _confirm_optimum():
        reached_optimum = True
    else:
        while gens < budget:
            alpha += has_cross
            gens += 1
            if series is not None and gens % stride == 0:
                series.append(cur_len)

            u = next_u64()
            while u >= limit:
                u = next_u64()
            i0, j0, jmod = pairs[u % npairs]

            if i0 == 0 and j0 == n:
                # full reversal: same cycle, fitness tie, always accepted
                perm.reverse()
                accepted += 1
            else:
                a = perm[i0 - 1]
                b = perm[i0]
                c = perm[j0 - 1]
                e = perm[jmod]
                delta = d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e]
                if delta <= 0.0:
                    perm[i0:j0] = perm[i0:j0][::-1]
                    if witness is None or (1 << a | 1 << b) in witness or (1 << c | 1 << e) in witness:
                        witness = _witness(xs, ys, perm, ((a, c), (b, e)), witness is not None)
                    has_cross = 0 if witness is None else 1
                    cur_len += delta
                    accepted += 1
                    if opt_hi is not None:
                        if cur_len <= opt_hi and _confirm_optimum():
                            reached_optimum = True
                            break
                    elif accepted % certify_every == 0:
                        if is_two_opt_local_optimum(instance, tuple(v + 1 for v in perm)):
                            certified_local = True
                            break

            if gens >= revalidate_at:
                revalidate_at += _REVALIDATE_EVERY
                cur_len = _fsum_length(d, n, perm)
                if opt_hi is not None and cur_len <= opt_hi and _confirm_optimum():
                    reached_optimum = True
                    break

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
    """run_ea's mutation with its fitness estimate.

    The returned price(tour, fitness) mutates a copy of the 0-based tour
    with the draws of plan_two_opt / plan_mixed, inlined in their order
    (mixed branch uniform, Poisson strength, pairs), and returns
    (est, reps, child): child is the mutated list, reps its number of
    moves, and est = fitness plus the float delta of each move (4 terms
    per inversion, 6 per jump; the full reversal keeps the cycle and adds
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
    """
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

    gens = 0
    alpha = 0
    beta = 0
    reached_optimum = False
    series: Optional[list[float]] = [] if record_series else None
    stride = max(1, budget // 4096) if record_series else 0

    cls_tour: Optional[Tour] = None
    cls_alpha = 0

    while True:
        best = pop[0]
        if opt_tol is not None and abs(best[0] - optimum_value) <= opt_tol:
            reached_optimum = True
            break
        if gens >= budget:
            break
        if best[3] is not cls_tour:
            cls_tour = best[3]
            cls_alpha = 0 if next(_crossings0(xs, ys, cls_tour), None) is None else 1
        alpha += cls_alpha
        beta += 1 - cls_alpha
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
        merged = pop + offspring
        merged.sort()
        pop = [(f, 1, idx, t) for f, _, idx, t in merged[:mu]]

    best = pop[0]
    return Trajectory(
        generations=gens,
        reached_optimum=reached_optimum,
        reached_local_optimum=None,
        fitness_evals=mu + lam * gens,
        alpha_steps=alpha,
        beta_steps=beta,
        final_tour=tuple(v + 1 for v in best[3]),
        final_length=best[0],
        best_fitness_series=series,
    )


def mutation_statistics(n: int, samples: int, seed: int) -> dict:
    """Empirical mutation-draw statistics against their closed forms.

    Simulates the internal draws of `samples` two-opt mutations and
    `samples` mixed mutations on n-point tours and reports the strength
    distribution, the mixed branch frequency, and a chi-square uniformity
    test over the pair chosen by single-inversion mutations.
    """
    if samples < 10**5:
        raise ValueError("need at least 1e5 samples for stable statistics")
    from scipy.stats import chi2

    rng = Xoshiro256StarStar(seed)
    npairs = n * (n - 1) // 2
    table = _pair_table(n)
    index = {pair: i for i, pair in enumerate(table)}

    count_one = 0
    count_two = 0
    count_four = 0
    pair_counts = [0] * npairs
    for _ in range(samples):
        moves = plan_two_opt(n, rng)
        reps = len(moves)
        if reps == 1:
            count_one += 1
            pair_counts[index[moves[0]]] += 1
        elif reps == 2:
            count_two += 1
        elif reps == 4:
            count_four += 1

    branch_inversion = sum(plan_mixed(n, rng)[0] == "inversion" for _ in range(samples))

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

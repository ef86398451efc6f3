"""Differential tests: naive re-implementations of both search loops,
recomputing everything from scratch each step, must reproduce the
optimized runners' trajectories exactly (same draws, same accounting,
same stopping step). This pins the incremental fitness and crossing
bookkeeping to ground truth.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsplab import (
    EAConfig,
    MutationSpec,
    apply_inversion,
    crossing_pairs,
    generate_convex,
    generate_grid,
    generate_with_inner,
    is_two_opt_local_optimum,
    mixed_mutation,
    run_ea,
    run_rls,
    tour_length,
    two_opt_mutation,
    validate,
)
from tsplab.oracle import held_karp_optimum, hull_order_optimum
from tsplab.rng import Xoshiro256StarStar
from tsplab.search import Trajectory, _pair_table


def reference_rls(instance, budget, seed, optimum_value=None):
    n = instance.n
    d = instance.distance_matrix
    rng = Xoshiro256StarStar(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    tour = tuple(v + 1 for v in perm)
    pairs = _pair_table(n)
    rel = None if optimum_value is None else optimum_value * 1e-12

    def optimal(t):
        return rel is not None and abs(tour_length(instance, t) - optimum_value) <= rel

    gens = alpha = accepted = 0
    reached = False
    certified = False
    if not optimal(tour):
        while gens < budget:
            alpha += 1 if crossing_pairs(instance, tour) else 0
            gens += 1
            i, j = pairs[rng.randbelow(len(pairs))]
            if (i, j) == (1, n):
                tour = tour[::-1]
                accepted += 1
                continue
            a = tour[i - 2]
            b = tour[i - 1]
            c = tour[j - 1]
            e = tour[j % n]
            delta = (
                d[(a - 1) * n + (c - 1)]
                + d[(b - 1) * n + (e - 1)]
                - d[(a - 1) * n + (b - 1)]
                - d[(c - 1) * n + (e - 1)]
            )
            if delta <= 0.0:
                tour = apply_inversion(tour, i, j)
                accepted += 1
                if optimum_value is not None:
                    if optimal(tour):
                        reached = True
                        break
                elif accepted % (n * n) == 0 and is_two_opt_local_optimum(instance, tour):
                    certified = True
                    break
    else:
        reached = True
    return Trajectory(
        generations=gens,
        reached_optimum=reached,
        reached_local_optimum=certified or is_two_opt_local_optimum(instance, tour),
        fitness_evals=1 + gens,
        alpha_steps=alpha,
        beta_steps=gens - alpha,
        final_tour=tour,
        final_length=tour_length(instance, tour),
    )


def reference_ea(instance, config, optimum_value=None):
    n = instance.n
    rng = Xoshiro256StarStar(config.seed)
    mutate = two_opt_mutation if config.mutation.kind == "two_opt" else mixed_mutation
    pop = []
    for idx in range(config.mu):
        perm = list(range(n))
        rng.shuffle(perm)
        t = tuple(v + 1 for v in perm)
        pop.append((tour_length(instance, t), 1, idx, t))
    pop.sort(key=lambda ind: ind[:3])
    next_idx = config.mu
    rel = None if optimum_value is None else optimum_value * 1e-12

    gens = alpha = 0
    reached = False
    while True:
        best = pop[0]
        if rel is not None and abs(best[0] - optimum_value) <= rel:
            reached = True
            break
        if gens >= config.max_generations:
            break
        alpha += 1 if crossing_pairs(instance, best[3]) else 0
        gens += 1
        offspring = []
        for _ in range(config.lam):
            parent = pop[rng.randbelow(config.mu)]
            child = mutate(parent[3], rng)
            offspring.append((tour_length(instance, child), 0, next_idx, child))
            next_idx += 1
        merged = sorted(pop + offspring, key=lambda ind: ind[:3])
        pop = [(f, 1, i, t) for f, _, i, t in merged[: config.mu]]
    best = pop[0]
    return Trajectory(
        generations=gens,
        reached_optimum=reached,
        reached_local_optimum=None,
        fitness_evals=config.mu + config.lam * gens,
        alpha_steps=alpha,
        beta_steps=gens - alpha,
        final_tour=best[3],
        final_length=best[0],
    )


@pytest.mark.parametrize(
    "make,budget,with_opt",
    [
        (lambda: generate_grid(7, 64, 201), 2000, False),
        (lambda: generate_grid(9, 64, 203), 3000, False),
        (lambda: generate_convex(8, 128, 205), 3000, True),
        (lambda: generate_with_inner(6, 2, 256, 207), 2500, True),
        (lambda: generate_grid(5, 32, 209), 1500, True),
    ],
)
def test_rls_matches_reference(make, budget, with_opt):
    inst = make()
    opt = held_karp_optimum(inst).optimum_value if with_opt else None
    for seed in (1, 2, 3):
        fast = run_rls(inst, budget, seed, optimum_value=opt)
        slow = reference_rls(inst, budget, seed, optimum_value=opt)
        assert fast == slow


def test_rls_matches_reference_past_revalidation():
    # long enough to cross the 2^16-step revalidation boundary
    inst = generate_grid(6, 64, 211)
    fast = run_rls(inst, 70000, 9)
    slow = reference_rls(inst, 70000, 9)
    assert fast == slow


@pytest.mark.parametrize("mu,lam,kind", [(1, 1, "two_opt"), (3, 5, "mixed"), (2, 2, "two_opt")])
def test_ea_matches_reference(mu, lam, kind):
    inst = generate_with_inner(6, 2, 256, 213)
    opt = held_karp_optimum(inst).optimum_value
    for seed in (4, 5):
        cfg = EAConfig(mu=mu, lam=lam, mutation=MutationSpec(kind), max_generations=1200, seed=seed)
        fast = run_ea(inst, cfg, optimum_value=opt)
        slow = reference_ea(inst, cfg, optimum_value=opt)
        assert fast == slow


def test_ea_matches_reference_without_optimum():
    inst = generate_convex(7, 128, 215)
    cfg = EAConfig(mu=2, lam=3, mutation=MutationSpec("mixed"), max_generations=800, seed=6)
    assert run_ea(inst, cfg) == reference_ea(inst, cfg)


def _general_position(candidates, n):
    """The first n candidates that add no duplicate and no collinear triple."""
    pts = []
    for c in candidates:
        if c in pts:
            continue
        pairs = itertools.combinations(pts, 2)
        if any((b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]) for a, b in pairs):
            continue
        pts.append(c)
        if len(pts) == n:
            break
    return pts


@st.composite
def _instances(draw):
    """n = 5..14 points in general position; small grids (m <= 8) make
    equal distances, hence exact fitness ties, common."""
    n = draw(st.integers(5, 14))
    m = draw(st.sampled_from([5, 6, 7, 8, 1024]))
    coord = st.integers(0, m - 1)
    pts = _general_position(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=6 * n)), n)
    assume(len(pts) >= 5)
    return validate(pts, grid_size=m)


@settings(max_examples=150)
@given(
    inst=_instances(),
    mu=st.integers(1, 4),
    lam=st.integers(1, 4),
    kind=st.sampled_from(["two_opt", "mixed"]),
    with_opt=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_ea_matches_reference_on_random_instances(inst, mu, lam, kind, with_opt, seed):
    opt = held_karp_optimum(inst).optimum_value if with_opt else None
    cfg = EAConfig(mu=mu, lam=lam, mutation=MutationSpec(kind), max_generations=150, seed=seed)
    assert run_ea(inst, cfg, optimum_value=opt) == reference_ea(inst, cfg, optimum_value=opt)


@settings(max_examples=100)
@given(inst=_instances(), with_opt=st.booleans(), seed=st.integers(0, 2**64 - 1))
def test_rls_matches_reference_on_random_instances(inst, with_opt, seed):
    opt = held_karp_optimum(inst).optimum_value if with_opt else None
    assert run_rls(inst, 400, seed, optimum_value=opt) == reference_rls(inst, 400, seed, optimum_value=opt)

"""Differential tests: naive re-implementations of both search loops,
recomputing everything from scratch each step, must reproduce the
optimized runners' trajectories exactly (same draws, same accounting,
same stopping step). This pins the incremental fitness and crossing
bookkeeping to ground truth. The EA reference mutates with conftest's
frozen reference_mutation, so run_ea's operator (_child_pricer) is held
to an independent copy of the draw order.
"""

import hashlib
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
    run_ea,
    run_rls,
    tour_length,
    validate,
)
from tsplab.oracle import held_karp_optimum, hull_order_optimum
from tsplab.rng import Xoshiro256StarStar
import tsplab.search
from tsplab.search import _REVALIDATE_EVERY, Trajectory

from conftest import cycle_edges, inversion_pairs, reference_mutation


def reference_rls(instance, budget, seed, optimum_value=None):
    n = instance.n
    d = instance.distance_matrix
    rng = Xoshiro256StarStar(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    tour = tuple(v + 1 for v in perm)
    pairs = inversion_pairs(n)
    rel = None if optimum_value is None else optimum_value * 1e-12

    def optimal(t):
        return rel is not None and abs(tour_length(instance, t) - optimum_value) <= rel

    gens = alpha = accepted = 0
    reached = False
    certified = False
    # crossing_pairs from scratch, once per tour the walk reaches: a
    # rejected step keeps the very same tuple
    checked = crossed = None
    if not optimal(tour):
        while gens < budget:
            if tour is not checked:
                checked, crossed = tour, bool(crossing_pairs(instance, tour))
            alpha += 1 if crossed else 0
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
    mixed = config.mutation.kind == "mixed"
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
            child = reference_mutation(parent[3], rng, mixed)
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


def batches(monkeypatch, run):
    """run()'s result and its batches, in order: ("scan", steps, ()) for a
    priced batch, ("walk", steps, taken) for a batch on a long-standing
    cycle, with taken the (word index, delta) of each move it took."""
    made = []
    make = tsplab.search._stretch_scanner

    def counting_scanner(instance):
        scan, walk = make(instance)

        def counted_scan(*args):
            result = scan(*args)
            made.append(("scan", result[0], ()))
            return result

        def counted_walk(*args):
            result = walk(*args)
            made.append(("walk", result[0], result[2]))
            return result

        return counted_scan, counted_walk

    with monkeypatch.context() as m:
        m.setattr(tsplab.search, "_stretch_scanner", counting_scanner)
        result = run()
    return result, made


def batched_steps(monkeypatch, run):
    """run()'s result and the number of steps its batches made."""
    result, made = batches(monkeypatch, run)
    return result, sum(steps for _, steps, _ in made)


@pytest.mark.parametrize(
    "n,budget,instance_seed", [(32, 20000, 221), (32, 30000, 222), (64, 25000, 223), (64, 30000, 224)]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rls_matches_reference_on_idle_runs(monkeypatch, n, budget, instance_seed, seed):
    # no optimum: past the first local optimum nearly every step is
    # rejected, so most steps are priced in batches
    inst = generate_grid(n, 1024, instance_seed)
    fast, priced = batched_steps(monkeypatch, lambda: run_rls(inst, budget, seed))
    assert fast == reference_rls(inst, budget, seed)
    assert fast.generations == budget and priced > budget // 2


def test_rls_batches_match_reference_past_revalidation(monkeypatch):
    budget = _REVALIDATE_EVERY + 5000
    inst = generate_grid(32, 1024, 219)
    draws = [0]

    class Counting(Xoshiro256StarStar):
        __slots__ = ()

        def next_u64(self):
            draws[0] += 1
            return Xoshiro256StarStar.next_u64(self)

    fsum = tsplab.search._fsum_length
    recomputed = []  # draws made when run_rls recomputes its length

    def spy(d, n, perm):
        recomputed.append(draws[0])
        return fsum(d, n, perm)

    monkeypatch.setattr(tsplab.search, "Xoshiro256StarStar", Counting)
    monkeypatch.setattr(tsplab.search, "_fsum_length", spy)
    fast, priced = batched_steps(monkeypatch, lambda: run_rls(inst, budget, 4))
    assert fast == reference_rls(inst, budget, 4)
    assert priced > budget // 2
    # after the shuffle, and after exactly _REVALIDATE_EVERY steps of one
    # draw each (no word of this run is sampled away)
    assert recomputed == [inst.n - 1, inst.n - 1 + _REVALIDATE_EVERY]


@pytest.mark.parametrize(
    "make,seed",
    [
        (lambda: generate_grid(16, 64, 3), 5),
        (lambda: generate_grid(16, 64, 3), 8),
        (lambda: generate_with_inner(11, 3, 1024, 4), 7),
        (lambda: generate_with_inner(11, 3, 1024, 4), 12),
        (lambda: generate_with_inner(11, 3, 1024, 5), 37),
    ],
)
def test_rls_reaches_optimum_after_a_batched_stretch(monkeypatch, make, seed):
    inst = make()
    opt = held_karp_optimum(inst).optimum_value
    fast, priced = batched_steps(monkeypatch, lambda: run_rls(inst, 20000, seed, optimum_value=opt))
    assert fast == reference_rls(inst, 20000, seed, optimum_value=opt)
    assert fast.reached_optimum and priced > 0
    # the cycle stood for the 128 steps before the one that reached the
    # optimum, so a batch found that step
    g = fast.generations
    before = [run_rls(inst, budget, seed, optimum_value=opt) for budget in (g - 129, g - 1)]
    assert not before[1].reached_optimum
    assert cycle_edges(before[0].final_tour) == cycle_edges(before[1].final_tour)


def test_rls_series_unchanged():
    # SHA-256 of the series these runs recorded before rejected stretches
    # were priced in batches
    inst = generate_with_inner(11, 3, 1024, 4)
    opt = held_karp_optimum(inst).optimum_value
    runs = [
        (generate_grid(64, 1024, 5), 25000, 1, None),
        (generate_grid(64, 1024, 5), 25000, 2, None),
        (generate_grid(32, 1024, 7), 70000, 3, None),
        (inst, 20000, 7, opt),
    ]
    h = hashlib.sha256()
    for instance, budget, seed, optimum in runs:
        traj = run_rls(instance, budget, seed, optimum_value=optimum, record_series=True)
        h.update(repr(traj.best_fitness_series).encode())
    assert h.hexdigest() == "23eb5dab4d9a84d2d67241dafaa2dace8152b09e485533ab96c46499c0fc4064"


@pytest.mark.parametrize("n,seed", [(6, 1), (6, 3), (7, 1), (7, 2), (8, 2), (8, 3), (9, 1), (9, 3)])
def test_rls_certifies_on_a_cycle_preserving_step_a_walk_met(monkeypatch, n, seed):
    # no optimum: the every-n^2 certification falls on a (2, n) or
    # (1, n-1), which the walk that met it leaves to the scalar loop
    inst = generate_grid(n, 64, 1)
    fast, made = batches(monkeypatch, lambda: run_rls(inst, 20000, seed))
    assert fast == reference_rls(inst, 20000, seed)
    assert fast.generations < 20000 and fast.reached_local_optimum
    assert any(kind == "walk" and taken for kind, _, taken in made)
    # the run's last batch was a walk, stopped just before the last step,
    # which kept the cycle but moved the tour
    kind, steps, _ = made[-1]
    assert kind == "walk"
    before = run_rls(inst, fast.generations - 1, seed).final_tour
    assert cycle_edges(before) == cycle_edges(fast.final_tour) and before != fast.final_tour
    assert run_rls(inst, fast.generations - 1, seed) == reference_rls(inst, fast.generations - 1, seed)


@pytest.mark.parametrize(
    "n,m,instance_seed,seed,moves_length",
    [(8, 64, 1, 1, False), (9, 64, 3, 2, False), (10, 64, 5, 3, False), (12, 64, 1, 1, False), (5, 1024, 25, 3, True)],
)
def test_rls_walks_move_the_length_of_a_parked_run(monkeypatch, n, m, instance_seed, seed, moves_length):
    # a Held-Karp optimum the run never reaches: it parks at a local
    # optimum, where walks take (2, n) and (1, n-1) with float deltas
    # below 0, which cur_len, the series and the optimum checks see
    inst = generate_grid(n, m, instance_seed)
    opt = held_karp_optimum(inst).optimum_value
    fast, made = batches(monkeypatch, lambda: run_rls(inst, 5000, seed, optimum_value=opt, record_series=True))
    series, fast.best_fitness_series = fast.best_fitness_series, None
    assert fast == reference_rls(inst, 5000, seed, optimum_value=opt)
    assert not fast.reached_optimum and fast.generations == 5000
    assert any(delta != 0.0 for kind, _, taken in made for _, delta in taken)
    with monkeypatch.context() as m:
        m.setattr(tsplab.search, "_BATCH_AFTER", 5001)  # no batch at all
        scalar = run_rls(inst, 5000, seed, optimum_value=opt, record_series=True)
    assert scalar.best_fitness_series == series
    if moves_length:
        # a delta of half an ulp of cur_len, rounded to even, moves it
        assert any(0 < x - y < 1e-9 * x for x, y in zip(series, series[1:]))


@pytest.mark.parametrize(
    "n,m,instance_seed,seed,scale",
    [(11, 6, 2, 3, 1), (9, 7, 8, 2, 1), (10, 6, 9, 1, 1), (9, 7, 2, 2, (2**32 - 2) // 6)],
    ids=["6x6-a", "7x7", "6x6-b", "7x7-wide"],
)
def test_rls_walks_match_reference_with_candidates(monkeypatch, n, m, instance_seed, seed, scale):
    # tie-heavy grids: walks meet cycles with marked pairs besides the
    # three cycle-preserving ones, and run the scalar rule on them
    grid = generate_grid(n, m, instance_seed)
    inst = validate([((p.x - 3) * scale, (p.y - 3) * scale) for p in grid.points]) if scale > 1 else grid
    marked = []
    marks = tsplab.search._candidate_marks

    def counting(instance, perm):
        result = marks(instance, perm)
        marked.append(int(result.sum()) - 3)
        return result

    monkeypatch.setattr(tsplab.search, "_candidate_marks", counting)
    fast, made = batches(monkeypatch, lambda: run_rls(inst, 8000, seed))
    assert fast == reference_rls(inst, 8000, seed)
    assert max(marked) > 0 and any(kind == "walk" for kind, _, _ in made)


def test_rls_series_unchanged_on_walked_runs():
    # SHA-256 of the series these runs recorded before batches walked
    # long-standing cycles: idle runs, a parked run with a Held-Karp
    # optimum, and a tie-heavy grid
    parked = generate_grid(9, 64, 3)
    runs = [
        (generate_grid(12, 64, 7), 20000, 2, None),
        (generate_grid(12, 64, 6), 20000, 2, None),
        (parked, 5000, 2, held_karp_optimum(parked).optimum_value),
        (generate_grid(11, 6, 2), 8000, 3, None),
    ]
    h = hashlib.sha256()
    for instance, budget, seed, optimum in runs:
        traj = run_rls(instance, budget, seed, optimum_value=optimum, record_series=True)
        h.update(repr(traj.best_fitness_series).encode())
    assert h.hexdigest() == "b7920b49ae05e317381125f4ddf98094afe79e031775d697aef7a6be6869df9e"


@pytest.mark.parametrize("mu,lam,kind", [(1, 1, "two_opt"), (3, 5, "mixed"), (2, 2, "two_opt")])
def test_ea_matches_reference(mu, lam, kind):
    inst = generate_with_inner(6, 2, 256, 213)
    opt = held_karp_optimum(inst).optimum_value
    for seed in (4, 5):
        cfg = EAConfig(mu=mu, lam=lam, mutation=MutationSpec(kind), max_generations=1200, seed=seed)
        fast = run_ea(inst, cfg, optimum_value=opt)
        slow = reference_ea(inst, cfg, optimum_value=opt)
        assert fast == slow


def test_ea_matches_reference_on_a_tie_heavy_grid():
    # a 7 x 7 grid makes equal edge lengths, hence different cycles of
    # equal fitness, common; with mu > 1 the best can move between them
    inst = generate_grid(11, 7, 217)
    hk = held_karp_optimum(inst).optimum_value
    for seed, kind, opt in itertools.product((7, 8, 9), ("two_opt", "mixed"), (hk, None)):
        cfg = EAConfig(mu=3, lam=4, mutation=MutationSpec(kind), max_generations=800, seed=seed)
        assert run_ea(inst, cfg, optimum_value=opt) == reference_ea(inst, cfg, optimum_value=opt)


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

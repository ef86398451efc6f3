"""Differential tests: naive re-implementations of both search loops,
recomputing everything from scratch each step, must reproduce the
optimized runners' trajectories exactly (same draws, same accounting,
same stopping step). This pins the incremental fitness and crossing
bookkeeping to ground truth. The EA reference mutates with conftest's
frozen reference_mutation, so run_ea's operator (_child_pricer) is held
to an independent copy of the draw order.
"""

import dataclasses
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

from conftest import inversion_pairs, reference_mutation


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


def counting_generator(patch):
    """Make run_rls draw through a subclass that counts its draws, the way
    a tracing wrapper does: overriding next_u64 and delegating. Returns
    the counter, [draws]."""
    draws = [0]

    class Counting(Xoshiro256StarStar):
        __slots__ = ()

        def next_u64(self):
            draws[0] += 1
            return Xoshiro256StarStar.next_u64(self)

    patch.setattr(tsplab.search, "Xoshiro256StarStar", Counting)
    return draws


def reference_steps(instance, steps, seed):
    """The first `steps` steps of run_rls(instance, _, seed), replayed by
    the reference rule (draws as in reference_rls): per step, the 1-based
    (i, j) it picked, its float delta (0.0 for the full reversal; the
    step is accepted iff delta <= 0.0) and the tour after it."""
    n = instance.n
    d = instance.distance_matrix
    rng = Xoshiro256StarStar(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    tour = tuple(perm)
    pairs = inversion_pairs(n)
    made = []
    for _ in range(steps):
        i, j = pairs[rng.randbelow(len(pairs))]
        a, b, c, e = tour[i - 2], tour[i - 1], tour[j - 1], tour[j % n]
        delta = 0.0 if (i, j) == (1, n) else d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e]
        if delta <= 0.0:
            tour = apply_inversion(tour, i, j)
        made.append((i, j, delta, tuple(v + 1 for v in tour)))
    return made


def marks_threshold(n):
    """The steps a cycle stands before run_rls marks it."""
    return max(tsplab.search._BATCH_AFTER, n * (n - 1) // 2 // 8)


def check_marking(monkeypatch, instance, budget, seed, optimum_value=None, batch_max=None, draws=None):
    """run_rls(instance, budget, seed, optimum_value), with a series,
    checked against reference_rls, and where it marked checked against
    the reference replay (reference_steps).

    A cycle made at step c (0 for the start) that stands threshold =
    max(_BATCH_AFTER, npairs // 8) steps, with a step after them, is
    marked once by _tour_marks: on the tour after step p = c + threshold,
    in the round that makes step p + 1, which starts at most batch_max
    (default _BATCH_MAX) steps before it, counted in draws (so no word of
    the run may be sampled away). Its steps p + 1 .. end, up to the one
    that changes it or the run's last, are priced from the marks, which
    follow each accepted full reversal, (2, n) and (1, n-1) among them
    through one _reflection_table row. `draws` is the counter of a
    counting_generator already in place, if any.

    Returns the run, its steps (reference_steps) and the (round start, p,
    end) of each marking."""
    n = instance.n
    threshold = marks_threshold(n)
    calls = []
    reflected = [0]
    marks = tsplab.search._tour_marks
    table = tsplab.search._reflection_table

    def marking(instance, perm):
        calls.append((draws[0] - (n - 1), tuple(v + 1 for v in perm)))
        return marks(instance, perm)

    def reflecting(n):
        reflected[0] += 1
        return table(n)

    with monkeypatch.context() as m:
        if draws is None:
            draws = counting_generator(m)
        if batch_max is not None:
            m.setattr(tsplab.search, "_BATCH_MAX", batch_max)
        m.setattr(tsplab.search, "_tour_marks", marking)
        m.setattr(tsplab.search, "_reflection_table", reflecting)
        fast = run_rls(instance, budget, seed, optimum_value=optimum_value, record_series=True)
    assert dataclasses.replace(fast, best_fitness_series=None) == reference_rls(instance, budget, seed, optimum_value)
    assert draws[0] == n - 1 + fast.generations
    made = reference_steps(instance, fast.generations, seed)
    spans = []
    start = 0
    for s, (i, j, delta, _) in enumerate(made, 1):
        if s == len(made) or delta <= 0.0 and j - i < n - 2:
            if s > start + threshold:
                spans.append((start + threshold, s))
            start = s
    assert [tour for _, tour in calls] == [made[p - 1][3] for p, _ in spans]
    marked = [(first, p, end) for (first, _), (p, end) in zip(calls, spans)]
    assert all(first <= p < first + (batch_max or tsplab.search._BATCH_MAX) for first, p, _ in marked)
    assert reflected[0] == len(cycle_kept(n, marked_steps(made, marked)))
    return fast, made, marked


def marked_steps(made, marked):
    """The steps of `made` that check_marking's `marked` prices from marks."""
    return [made[s - 1] for _, p, end in marked for s in range(p + 1, end + 1)]


def steps_on_marks(marked):
    """How many steps check_marking's `marked` prices from marks."""
    return sum(end - p for _, p, end in marked)


def cycle_kept(n, made):
    """The (i, j) of the accepted full reversals, (2, n) and (1, n-1) in
    the steps `made`, and their deltas."""
    return [((i, j), delta) for i, j, delta, _ in made if j - i >= n - 2 and delta <= 0.0]


@pytest.mark.parametrize(
    "n,budget,instance_seed", [(32, 20000, 221), (32, 30000, 222), (64, 25000, 223), (64, 30000, 224)]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rls_matches_reference_on_idle_runs(monkeypatch, n, budget, instance_seed, seed):
    # no optimum: past the first local optimum nearly every step is
    # rejected, so most steps are priced from the cycle's marks
    inst = generate_grid(n, 1024, instance_seed)
    fast, _, marked = check_marking(monkeypatch, inst, budget, seed)
    assert fast.generations == budget and steps_on_marks(marked) > budget // 2


def test_rls_batches_match_reference_past_revalidation(monkeypatch):
    budget = _REVALIDATE_EVERY + 5000
    inst = generate_grid(32, 1024, 219)
    draws = counting_generator(monkeypatch)
    fsum = tsplab.search._fsum_length
    recomputed = []  # draws made when run_rls recomputes its length

    def spy(d, n, perm):
        recomputed.append(draws[0])
        return fsum(d, n, perm)

    monkeypatch.setattr(tsplab.search, "_fsum_length", spy)
    fast, _, marked = check_marking(monkeypatch, inst, budget, 4, draws=draws)
    assert steps_on_marks(marked) > budget // 2
    # after the shuffle, and after exactly _REVALIDATE_EVERY steps of one
    # draw each
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
    fast, _, marked = check_marking(monkeypatch, inst, 20000, seed, optimum_value=opt)
    # the step that reached the optimum was priced from its cycle's marks
    assert fast.reached_optimum and marked[-1][2] == fast.generations


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
    # (1, n-1), which kept the cycle but moved the tour, priced from the
    # cycle's marks
    inst = generate_grid(n, 64, 1)
    fast, made, marked = check_marking(monkeypatch, inst, 20000, seed)
    assert fast.generations < 20000 and fast.reached_local_optimum
    assert cycle_kept(n, made[-1:]) and made[-1][:2] != (1, n)
    assert marked[-1][2] == fast.generations
    assert run_rls(inst, fast.generations - 1, seed) == reference_rls(inst, fast.generations - 1, seed)


@pytest.mark.parametrize(
    "n,m,instance_seed,seed,moves_length",
    [(8, 64, 1, 1, False), (9, 64, 3, 2, False), (10, 64, 5, 3, False), (12, 64, 1, 1, False), (5, 1024, 25, 3, True)],
)
def test_rls_walks_move_the_length_of_a_parked_run(monkeypatch, n, m, instance_seed, seed, moves_length):
    # a Held-Karp optimum the run never reaches: it parks at a local
    # optimum, where it takes (2, n) and (1, n-1) with float deltas below
    # 0 on marked cycles, which cur_len, the series and the optimum
    # checks see
    inst = generate_grid(n, m, instance_seed)
    opt = held_karp_optimum(inst).optimum_value
    fast, made, marked = check_marking(monkeypatch, inst, 5000, seed, optimum_value=opt)
    assert not fast.reached_optimum and fast.generations == 5000
    assert any(delta < 0.0 for _, delta in cycle_kept(n, marked_steps(made, marked)))
    with monkeypatch.context() as m:
        m.setattr(tsplab.search, "_BATCH_AFTER", 5001)  # no marks at all
        unmarked = run_rls(inst, 5000, seed, optimum_value=opt, record_series=True)
    assert unmarked == fast
    if moves_length:
        # a delta of half an ulp of cur_len, rounded to even, moves it
        series = fast.best_fitness_series
        assert any(0 < x - y < 1e-9 * x for x, y in zip(series, series[1:]))


@pytest.mark.parametrize(
    "n,m,instance_seed,seed,scale",
    [(11, 6, 2, 3, 1), (9, 7, 8, 2, 1), (10, 6, 9, 1, 1), (9, 7, 2, 2, (2**32 - 2) // 6)],
    ids=["6x6-a", "7x7", "6x6-b", "7x7-wide"],
)
def test_rls_walks_match_reference_with_candidates(monkeypatch, n, m, instance_seed, seed, scale):
    # tie-heavy grids: marked cycles with candidates besides the three
    # cycle-preserving pairs, which the scalar rule prices
    grid = generate_grid(n, m, instance_seed)
    inst = validate([((p.x - 3) * scale, (p.y - 3) * scale) for p in grid.points]) if scale > 1 else grid
    candidates = []
    marks = tsplab.search._tour_marks

    def counting(instance, perm):
        result = marks(instance, perm)
        candidates.append(int(result.sum()) - 3)
        return result

    monkeypatch.setattr(tsplab.search, "_tour_marks", counting)
    fast, _, marked = check_marking(monkeypatch, inst, 8000, seed)
    assert max(candidates) > 0 and marked


@pytest.mark.parametrize("instance_seed,seed", [(5, 2), (18, 2), (19, 2)])
def test_rls_young_batches_take_cycle_preserving_moves(monkeypatch, instance_seed, seed):
    # n = 24: the full reversal and an accepted (2, n) or (1, n-1) on a
    # marked cycle, whose marks follow them through _reflection_table
    inst = generate_grid(24, 1024, instance_seed)
    n = inst.n
    fast, made, marked = check_marking(monkeypatch, inst, 20000, seed)
    moves = {move for move, _ in cycle_kept(n, marked_steps(made, marked))}
    assert (1, n) in moves and moves & {(2, n), (1, n - 1)}


def parked_below(h, k, instance_seed):
    """An instance with h hull and k inner points, and a value 1e-11
    below its optimum: a run given that value reaches the optimal cycle
    and never stops on it, and each (2, n) or (1, n-1) it accepts there
    runs the optimum check."""
    inst = generate_with_inner(h, k, 1024, instance_seed)
    return inst, hull_order_optimum(inst).optimum_value * (1 - 1e-11)


@pytest.mark.parametrize("h,k,instance_seed,seed", [(20, 4, 1, 2), (20, 4, 9, 2), (21, 3, 10, 1), (21, 3, 14, 3)])
def test_rls_young_batch_stops_before_an_optimum_check(monkeypatch, h, k, instance_seed, seed):
    # the optimum check runs, through a full length, after each accepted
    # step but the full reversal whose tour is within the trigger band:
    # here every (2, n) and (1, n-1) on the optimal cycle, marked or not
    inst, value = parked_below(h, k, instance_seed)
    n = inst.n
    summed = []
    fsum = tsplab.search._fsum_length

    def spy(d, n, perm):
        summed.append(tuple(v + 1 for v in perm))
        return fsum(d, n, perm)

    monkeypatch.setattr(tsplab.search, "_fsum_length", spy)
    fast, made, marked = check_marking(monkeypatch, inst, 20000, seed, optimum_value=value)
    assert not fast.reached_optimum and fast.final_length == pytest.approx(value, rel=1e-10)
    opt_hi = value * (1 + tsplab.search._OPT_TRIGGER)
    checked = [t for i, j, delta, t in made if delta <= 0.0 and (i, j) != (1, n) and tour_length(inst, t) <= opt_hi]
    assert summed[1:] == checked
    assert {(2, n), (1, n - 1)} & {move for move, _ in cycle_kept(n, marked_steps(made, marked))}


@pytest.mark.parametrize("n,budget,instance_seed,seed", [(24, 20000, 5, 2), (48, 20000, 221, 3), (64, 25000, 223, 1)])
def test_rls_batches_start_once_the_cycle_has_stood_the_threshold(monkeypatch, n, budget, instance_seed, seed):
    # one-word rounds: each cycle is marked exactly once it has stood
    # max(_BATCH_AFTER, npairs // 8) steps (check_marking), in the round
    # that starts there
    inst = generate_grid(n, 1024, instance_seed)
    fast, _, marked = check_marking(monkeypatch, inst, budget, seed, batch_max=1)
    assert len(marked) > 3


@pytest.mark.parametrize("n,budget,instance_seed,seed", [(24, 20000, 5, 2), (48, 20000, 221, 3)])
def test_rls_round_crosses_from_unmarked_to_marked(monkeypatch, n, budget, instance_seed, seed):
    # a cycle reaches the threshold inside a round: the round prices its
    # first words one by one, marks the tour, and prices the rest from
    # the marks
    inst = generate_grid(n, 1024, instance_seed)
    fast, _, marked = check_marking(monkeypatch, inst, budget, seed)
    assert any(first < p for first, p, _ in marked)


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

import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsplab.search
from tsplab import (
    EAConfig,
    MutationSpec,
    canonical_form,
    classify_state,
    find_uncrossing_inversion,
    generate_convex,
    generate_grid,
    generate_with_inner,
    is_intersection_free,
    apply_inversion,
    apply_jump,
    mixed_mutation,
    poisson_plus_one,
    run_ea,
    run_rls,
    tour_length,
    two_opt_mutation,
    validate,
)
from tsplab.errors import CollinearTripleError, DuplicatePointError
from tsplab.oracle import enumerate_intersection_free, held_karp_optimum, hull_order_optimum
from tsplab.rng import Xoshiro256StarStar
from tsplab.search import _child_pricer, _ea_margin_unit, _pair_table, draw_inversion_pair, draw_jump_pair, plan_mixed, plan_two_opt

import test_search_reference
from conftest import ForcedRng, random_tour
from test_search_reference import reference_rls


class TestPoissonPlusOne:
    def test_point_probabilities(self):
        rng = Xoshiro256StarStar(71)
        samples = 200000
        counts = {}
        total = 0
        for _ in range(samples):
            v = poisson_plus_one(rng)
            counts[v] = counts.get(v, 0) + 1
            total += v
        # P[1] = P[2] = 1/e, P[4] = 1/(6e); wide bounds at this sample size
        assert counts[1] / samples == pytest.approx(math.exp(-1), abs=0.01)
        assert counts[2] / samples == pytest.approx(math.exp(-1), abs=0.01)
        assert counts[4] / samples == pytest.approx(1 / (6 * math.e), abs=0.01)
        assert total / samples == pytest.approx(2.0, abs=0.02)

    def test_always_at_least_one(self):
        rng = Xoshiro256StarStar(73)
        assert all(poisson_plus_one(rng) >= 1 for _ in range(10000))


class TestPairDraws:
    def test_inversion_pair_uniformity(self):
        n = 6
        npairs = n * (n - 1) // 2
        rng = Xoshiro256StarStar(77)
        samples = 150000
        counts = {}
        for _ in range(samples):
            p = draw_inversion_pair(n, rng)
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == npairs
        expected = samples / npairs
        sigma = math.sqrt(samples * (1 / npairs) * (1 - 1 / npairs))
        for pair, c in counts.items():
            assert 1 <= pair[0] < pair[1] <= n
            assert abs(c - expected) < 4.5 * sigma, pair

    def test_jump_pair_uniformity(self):
        n = 5
        rng = Xoshiro256StarStar(79)
        samples = 100000
        counts = {}
        for _ in range(samples):
            p = draw_jump_pair(n, rng)
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == n * (n - 1)
        expected = samples / (n * (n - 1))
        assert all(abs(c - expected) < 6 * math.sqrt(expected) for c in counts.values())
        assert all(i != j and 1 <= i <= n and 1 <= j <= n for (i, j) in counts)


class TestTwoOptMutation:
    def test_forced_single_inversion(self):
        # uniform 0.1 < 1/e forces s = 0; pair index 5 is (2, 4) for n=5
        rng = ForcedRng(uniforms=[0.1], belows=[5])
        assert two_opt_mutation((1, 2, 3, 4, 5), rng) == (1, 4, 3, 2, 5)

    def test_closure_under_mutation(self):
        rng = Xoshiro256StarStar(83)
        t = tuple(range(1, 11))
        for _ in range(200000):
            t = two_opt_mutation(t, rng)
            if len(t) != 10:
                pytest.fail("length changed")
        assert sorted(t) == list(range(1, 11))

    def test_single_inversion_fraction(self):
        rng = Xoshiro256StarStar(87)
        samples = 200000
        ones = sum(1 for _ in range(samples) if len(plan_two_opt(6, rng)) == 1)
        assert ones / samples == pytest.approx(math.exp(-1), abs=0.01)


class TestMixedMutation:
    def test_branch_frequency(self):
        rng = Xoshiro256StarStar(89)
        samples = 200000
        inv = sum(1 for _ in range(samples) if plan_mixed(6, rng)[0] == "inversion")
        assert inv / samples == pytest.approx(0.5, abs=0.01)

    def test_forced_jump(self):
        # r = 0.7 >= 1/2 takes the jump branch; uniform 0.1 forces s = 0;
        # ordered-pair index 6 decodes to (2, 4) for n = 5
        rng = ForcedRng(uniforms=[0.7, 0.1], belows=[6])
        assert mixed_mutation((1, 2, 3, 4, 5), rng) == (1, 3, 4, 2, 5)

    def test_forced_inversion_branch(self):
        rng = ForcedRng(uniforms=[0.2, 0.1], belows=[5])
        assert mixed_mutation((1, 2, 3, 4, 5), rng) == (1, 4, 3, 2, 5)

    def test_closure(self):
        rng = Xoshiro256StarStar(93)
        t = tuple(range(1, 11))
        for _ in range(100000):
            t = mixed_mutation(t, rng)
        assert sorted(t) == list(range(1, 11))


class TestRunRLS:
    def test_adversarial_square_start(self, square):
        # seed 1 shuffles the initial tour to (3,1,4,2): the crossed cycle
        rng = Xoshiro256StarStar(1)
        perm = list(range(4))
        rng.shuffle(perm)
        assert canonical_form(tuple(v + 1 for v in perm)) == canonical_form((1, 3, 2, 4))
        traj = run_rls(square, 10000, seed=1, optimum_value=4.0)
        assert traj.reached_optimum
        assert traj.generations >= 1
        assert traj.final_length == 4.0

    def test_convex_instance_reaches_hull_tour(self):
        inst = generate_convex(8, 128, 3)
        traj = run_rls(inst, 200000, seed=11)
        assert traj.reached_local_optimum
        assert is_intersection_free(inst, traj.final_tour)
        hull_res = hull_order_optimum(inst)
        assert canonical_form(traj.final_tour) == hull_res.optimum_tour

    def test_accounting_identities(self):
        inst = generate_grid(9, 64, 97)
        traj = run_rls(inst, 5000, seed=4)
        assert traj.fitness_evals == 1 + traj.generations
        assert traj.alpha_steps + traj.beta_steps == traj.generations

    def test_deterministic(self):
        inst = generate_grid(9, 64, 97)
        a = run_rls(inst, 3000, seed=5)
        b = run_rls(inst, 3000, seed=5)
        assert a == b

    def test_series_recorded_and_non_increasing(self):
        inst = generate_grid(10, 64, 99)
        traj = run_rls(inst, 1000, seed=6, record_series=True)
        s = traj.best_fitness_series
        assert s and all(s[i + 1] <= s[i] + 1e-9 for i in range(len(s) - 1))

    def test_budget_respected_without_oracle(self):
        # a tiny budget cannot be exceeded
        inst = generate_grid(8, 64, 101)
        traj = run_rls(inst, 50, seed=7)
        assert traj.generations <= 50

    def test_supplied_optimum_stops_early(self):
        inst = generate_convex(8, 128, 3)
        opt = hull_order_optimum(inst).optimum_value
        traj = run_rls(inst, 10**6, seed=11, optimum_value=opt)
        assert traj.reached_optimum
        assert abs(traj.final_length - opt) <= opt * 1e-12


class TestRunEA:
    def test_square_one_plus_one(self, square):
        cfg = EAConfig(mu=1, lam=1, mutation=MutationSpec("two_opt"), max_generations=10**4, seed=5)
        traj = run_ea(square, cfg, optimum_value=4.0, record_series=True)
        assert traj.reached_optimum
        s = traj.best_fitness_series
        assert all(s[i + 1] <= s[i] for i in range(len(s) - 1))

    def test_mu4_lambda8_reaches_exact_optimum(self):
        inst = generate_with_inner(7, 1, 256, 9)
        opt = held_karp_optimum(inst).optimum_value
        cfg = EAConfig(mu=4, lam=8, mutation=MutationSpec("two_opt"), max_generations=2 * 10**5, seed=2)
        traj = run_ea(inst, cfg, optimum_value=opt)
        assert traj.reached_optimum
        assert abs(traj.final_length - opt) <= opt * 1e-9
        assert traj.fitness_evals == 4 + 8 * traj.generations

    def test_elitism_never_regresses(self):
        inst = generate_grid(10, 64, 103)
        cfg = EAConfig(mu=3, lam=5, mutation=MutationSpec("mixed"), max_generations=2000, seed=8)
        traj = run_ea(inst, cfg, record_series=True)
        s = traj.best_fitness_series
        assert len(s) == traj.generations
        assert all(s[i + 1] <= s[i] for i in range(len(s) - 1))

    def test_deterministic(self):
        inst = generate_grid(9, 64, 97)
        cfg = EAConfig(mu=2, lam=3, mutation=MutationSpec("mixed"), max_generations=500, seed=12)
        assert run_ea(inst, cfg) == run_ea(inst, cfg)

    def test_accounting(self):
        inst = generate_grid(9, 64, 97)
        cfg = EAConfig(mu=2, lam=3, mutation=MutationSpec("two_opt"), max_generations=400, seed=13)
        traj = run_ea(inst, cfg)
        assert traj.fitness_evals == 2 + 3 * traj.generations
        assert traj.alpha_steps + traj.beta_steps == traj.generations
        assert traj.reached_local_optimum is None

    def test_never_beats_exact_optimum(self):
        inst = generate_grid(16, 64, 9)
        opt = held_karp_optimum(inst).optimum_value
        for seed in range(3):
            cfg = EAConfig(mu=1, lam=1, mutation=MutationSpec("two_opt"), max_generations=3000, seed=seed)
            traj = run_ea(inst, cfg, optimum_value=opt)
            assert traj.final_length >= opt * (1 - 1e-12)


class ScriptedRng(Xoshiro256StarStar):
    """Returns the raw draws in `script` (a class attribute set per test)."""

    script: list[int] = []

    def __init__(self, seed):
        super().__init__(seed)
        self._draws = iter(self.script)

    def next_u64(self):
        v = next(self._draws, None)
        assert v is not None, "script exhausted"
        return v


def identity_shuffle(n):
    """Draws that make Fisher-Yates leave range(n) as it is."""
    return list(range(n - 1, 0, -1))


def uniform_draw(r):
    return int(r * 2**53) << 11


def strength(reps):
    """Uniforms whose running product first drops below 1/e at the reps-th."""
    return [uniform_draw(0.999)] * (reps - 1) + [0]


def inversion_draw(n, i, j):
    return _pair_table(n).index((i, j))


def jump_draw(n, i, j):
    return (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


def child_draws(n, kind, moves):
    """Raw draws of one child: ("inversion" | "jump", [(i, j), ...])."""
    branch, pairs = moves
    out = [] if kind == "two_opt" else [uniform_draw(0.25 if branch == "inversion" else 0.75)]
    out += strength(len(pairs))
    draw = inversion_draw if branch == "inversion" else jump_draw
    return out + [draw(n, i, j) for i, j in pairs]


def apply_moves(tour, moves):
    branch, pairs = moves
    apply = apply_inversion if branch == "inversion" else apply_jump
    for i, j in pairs:
        tour = apply(tour, i, j)
    return tour


def price_child(inst, kind, moves, tour):
    """_child_pricer on the raw draws of one child of `tour` (1-based):
    (est, reps, child), every draw used."""
    draws = iter(child_draws(inst.n, kind, moves))
    price = _child_pricer(inst.distance_matrix, inst.n, kind == "mixed", lambda: next(draws))
    est, reps, lst = price(tuple(v - 1 for v in tour), tour_length(inst, tour))
    assert next(draws, None) is None, "draws left over"
    return est, reps, tuple(v + 1 for v in lst)


def run_scripted(monkeypatch, instance, cfg, script):
    """run_ea on scripted raw draws."""
    monkeypatch.setattr(ScriptedRng, "script", script)
    monkeypatch.setattr(tsplab.search, "Xoshiro256StarStar", ScriptedRng)
    return run_ea(instance, cfg)


class TestEAChildPricing:
    """run_ea prices a child as parent fitness plus move deltas; the
    estimate must stay within the proven margin of the exact length."""

    N = 9

    def one_child(self, monkeypatch, kind, moves):
        inst = generate_grid(self.N, 1024, 31)
        n = inst.n
        parent = tuple(range(1, n + 1))
        est, reps, child = price_child(inst, kind, moves, parent)
        assert child == apply_moves(parent, moves)
        assert reps == len(moves[1])
        exact = tour_length(inst, child)
        worst = tour_length(inst, parent)
        assert abs(est - exact) <= reps * _ea_margin_unit(inst.distance_matrix, n)
        # run_ea on the same draws: ties prefer the offspring
        cfg = EAConfig(mutation=MutationSpec(kind), max_generations=1)
        traj = run_scripted(monkeypatch, inst, cfg, identity_shuffle(n) + child_draws(n, kind, moves))
        assert traj.final_tour == (child if exact <= worst else parent)
        return est, exact, worst

    @pytest.mark.parametrize("j", [1, 2, N - 1])
    def test_jump_from_last_position(self, monkeypatch, j):
        self.one_child(monkeypatch, "mixed", ("jump", [(self.N, j)]))

    @pytest.mark.parametrize("i", [2, 5, N])
    def test_jump_to_first_position(self, monkeypatch, i):
        self.one_child(monkeypatch, "mixed", ("jump", [(i, 1)]))

    @pytest.mark.parametrize("i", [1, 4, N - 1])
    def test_jump_to_last_position(self, monkeypatch, i):
        self.one_child(monkeypatch, "mixed", ("jump", [(i, self.N)]))

    @pytest.mark.parametrize("pair", [(1, N), (1, N - 1), (2, N)])
    @pytest.mark.parametrize("kind", ["two_opt", "mixed"])
    def test_cycle_preserving_inversions_tie_and_survive(self, monkeypatch, pair, kind):
        est, exact, worst = self.one_child(monkeypatch, kind, ("inversion", [pair]))
        assert exact == worst
        if pair == (1, self.N):
            assert est == worst

    def test_jumps_between_neighbours(self, monkeypatch):
        # (n, 1) and (1, n) move an element across the closing edge, which
        # keeps the cycle; (3, 4) and (4, 3) swap two neighbours
        for pair in [(self.N, 1), (1, self.N), (3, 4), (4, 3)]:
            _, exact, worst = self.one_child(monkeypatch, "mixed", ("jump", [pair]))
            if pair in ((self.N, 1), (1, self.N)):
                assert exact == worst

    def test_multi_move_children(self, monkeypatch):
        n = self.N
        self.one_child(monkeypatch, "two_opt", ("inversion", [(1, n), (2, n), (1, n - 1), (3, 7), (1, 2)]))
        self.one_child(monkeypatch, "mixed", ("jump", [(n, 1), (1, n), (n, n - 1), (2, 1), (5, 2)]))

    def test_no_survivor_resorts_tied_population(self, monkeypatch):
        # generation 1: the child of (1, n-1) ties its parent and enters ahead
        # of it (offspring first), so the population is (child, parent) with
        # equal fitness and creation indices 2 > 0. Generation 2: no child
        # survives; the population must still come out sorted, parent first.
        inst = generate_grid(self.N, 1024, 31)
        n = inst.n
        parent = tuple(range(1, n + 1))
        tied = apply_inversion(parent, 1, n - 1)
        worse = max(_pair_table(n), key=lambda p: tour_length(inst, apply_inversion(tied, *p)))
        est, _, _ = price_child(inst, "two_opt", ("inversion", [worse]), tied)
        assert est > tour_length(inst, parent) + _ea_margin_unit(inst.distance_matrix, n)  # priced out
        script = identity_shuffle(n) * 2
        script += [0] + child_draws(n, "two_opt", ("inversion", [(1, n - 1)]))
        script += [0] + child_draws(n, "two_opt", ("inversion", [worse]))
        one = run_scripted(monkeypatch, inst, EAConfig(mu=2, lam=1, max_generations=1), script)
        assert one.final_tour == tied
        two = run_scripted(monkeypatch, inst, EAConfig(mu=2, lam=1, max_generations=2), script)
        assert two.final_tour == parent

    @settings(max_examples=300)
    @given(data=st.data())
    def test_estimate_within_margin(self, data):
        coord = st.integers(-(2**31 - 1), 2**31 - 1)
        pts = data.draw(st.lists(st.tuples(coord, coord), min_size=5, max_size=12, unique=True))
        try:
            inst = validate(pts)
        except (CollinearTripleError, DuplicatePointError):
            assume(False)
        n = inst.n
        tour = tuple(data.draw(st.permutations(range(1, n + 1))))
        kind = data.draw(st.sampled_from(["two_opt", "mixed"]))
        branch = "inversion" if kind == "two_opt" else data.draw(st.sampled_from(["inversion", "jump"]))
        pos = st.integers(1, n)
        if branch == "inversion":
            pair = st.tuples(pos, pos).filter(lambda p: p[0] < p[1])
        else:
            pair = st.tuples(pos, pos).filter(lambda p: p[0] != p[1])
        moves = (branch, data.draw(st.lists(pair, min_size=1, max_size=12)))
        est, reps, child = price_child(inst, kind, moves, tour)
        assert child == apply_moves(tour, moves)
        assert reps == len(moves[1])
        assert abs(est - tour_length(inst, child)) <= reps * _ea_margin_unit(inst.distance_matrix, n)


def accepted_inversions(instance, steps, seed):
    """(tour before, tour after) of each accepted inversion but the full
    reversal in the first `steps` steps of run_rls(instance, _, seed),
    replayed by the reference rule (draws as in reference_rls)."""
    n = instance.n
    d = instance.distance_matrix
    rng = Xoshiro256StarStar(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    tour = tuple(v + 1 for v in perm)
    pairs = _pair_table(n)
    for _ in range(steps):
        i, j = pairs[rng.randbelow(len(pairs))]
        if (i, j) == (1, n):
            tour = tour[::-1]
            continue
        a, b, c, e = (v - 1 for v in (tour[i - 2], tour[i - 1], tour[j - 1], tour[j % n]))
        if d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e] <= 0.0:
            after = apply_inversion(tour, i, j)
            yield tour, after
            tour = after


def spy_witness_kernels(monkeypatch):
    """Record each call of run_rls's crossing kernels as (name, tour)."""
    calls = []
    for name in ("_crossings0", "_segment_crossing"):
        kernel = getattr(tsplab.search, name)

        def spy(xs, ys, perm, *args, name=name, kernel=kernel):
            calls.append((name, tuple(v + 1 for v in perm)))
            return kernel(xs, ys, perm, *args)

        monkeypatch.setattr(tsplab.search, name, spy)
    return calls


class TestRlsCrossingWitness:
    """run_rls tracks only whether the tour has a crossing, by a witness
    pair of crossing edges; its alpha/beta split must stay the reference
    loop's through each way the witness is updated."""

    @pytest.mark.parametrize(
        "n,m,instance_seed,budget",
        [(24, 64, 5, 3000), (32, 1024, 7, 4000), (40, 48, 9, 5000)],
    )
    def test_matches_reference_through_every_path(self, monkeypatch, n, m, instance_seed, budget):
        inst = generate_grid(n, m, instance_seed)
        paths = Counter()
        for seed in (1, 2):
            calls = spy_witness_kernels(monkeypatch)
            traj = run_rls(inst, budget, seed)
            monkeypatch.undo()
            assert traj == reference_rls(inst, budget, seed)
            assert calls.pop(0)[0] == "_crossings0"  # the start's scan
            for before, after in accepted_inversions(inst, traj.generations, seed):
                made = []
                while calls and calls[0][1] == after:
                    made.append(calls.pop(0)[0])
                if is_intersection_free(inst, before):
                    # only an added edge can cross: checked, no rescan
                    assert made and set(made) == {"_segment_crossing"}
                    paths["added edges on a crossing-free tour"] += 1
                elif not made:
                    paths["witness kept"] += 1
                elif "_crossings0" in made:
                    assert made[-1] == "_crossings0" and made.count("_crossings0") == 1
                    paths["rescan after the witness was removed"] += 1
            assert calls == []
        assert paths["witness kept"] > paths["rescan after the witness was removed"] > 0
        assert paths["added edges on a crossing-free tour"] > 0

    # identity tours whose first crossing pair has an edge that the
    # cycle-preserving inversion removes and re-adds (its float delta is 0)
    @pytest.mark.parametrize(
        "points,pair",
        [
            ([(5, 2), (4, 7), (3, 2), (6, 5), (1, 6), (1, 5)], (2, 6)),
            ([(2, 2), (6, 0), (0, 1), (4, 4), (7, 0), (1, 7)], (1, 5)),
        ],
    )
    def test_cycle_preserving_move_on_a_witness_edge(self, monkeypatch, points, pair):
        inst = validate(points)
        n = inst.n
        tour = apply_inversion(tuple(range(1, n + 1)), *pair)
        uncross = []
        while (move := find_uncrossing_inversion(inst, tour)) is not None:
            uncross.append(move)
            tour = apply_inversion(tour, *move)
        # a last full reversal, a beta step
        moves = [pair] + uncross + [(1, n)]
        monkeypatch.setattr(ScriptedRng, "script", identity_shuffle(n) + [inversion_draw(n, i, j) for i, j in moves])
        monkeypatch.setattr(test_search_reference, "Xoshiro256StarStar", ScriptedRng)
        slow = reference_rls(inst, len(moves), 0)
        monkeypatch.setattr(tsplab.search, "Xoshiro256StarStar", ScriptedRng)
        calls = spy_witness_kernels(monkeypatch)
        fast = run_rls(inst, len(moves), 0)
        assert fast == slow
        assert (fast.alpha_steps, fast.beta_steps) == (1 + len(uncross), 1)
        assert fast.final_tour == tour[::-1]
        # the move was accepted and re-derived the witness
        assert calls[1] == ("_segment_crossing", apply_inversion(tuple(range(1, n + 1)), *pair))


class TestClassifyState:
    def test_optimal(self):
        inst = generate_convex(6, 64, 3)
        res = hull_order_optimum(inst)
        assert classify_state(inst, res.optimum_tour, res.optimum_value) == "optimal"

    def test_alpha(self, square):
        assert classify_state(square, (1, 3, 2, 4)) == "alpha"

    def test_beta_from_enumeration(self):
        inst = generate_with_inner(6, 1, 256, 15)
        res = hull_order_optimum(inst)
        tours = enumerate_intersection_free(inst)
        non_optimal = [t for t in tours if tour_length(inst, t) > res.optimum_value]
        assert non_optimal, "expected a crossing-free non-optimal tour"
        assert classify_state(inst, non_optimal[0], res.optimum_value) == "beta"


class TestMutationSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            MutationSpec("three_opt")

    def test_ea_config_checked(self):
        with pytest.raises(ValueError):
            EAConfig(mu=0)

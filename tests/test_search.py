import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tsplab.search
from tsplab import (
    EAConfig,
    MutationSpec,
    canonical_form,
    find_uncrossing_inversion,
    generate_convex,
    generate_grid,
    generate_with_inner,
    is_intersection_free,
    is_two_opt_local_optimum,
    apply_inversion,
    apply_jump,
    crossing_pairs,
    run_ea,
    run_rls,
    tour_length,
    validate,
)
from tsplab.errors import CollinearTripleError, DuplicatePointError, GenerationExhaustedError
from tsplab.oracle import held_karp_optimum, hull_order_optimum
from tsplab.rng import Xoshiro256StarStar
from tsplab.search import (
    _INV_E,
    _SHRINK,
    _child_pricer,
    _ea_margin_unit,
    _reflection_table,
    _tour_marks,
)

import test_search_reference
from conftest import ForcedRng, cycle_edges, inversion_pairs, reference_mutation
from test_search_reference import (
    check_marking,
    marks_threshold,
    reference_ea,
    reference_rls,
    reference_steps,
    steps_on_marks,
)


class TestPoissonPlusOne:
    """run_ea's strength: 1 + Poisson(1) moves per child."""

    def test_point_probabilities(self):
        samples = 200000
        children = pricer_children(6, "two_opt", samples, Xoshiro256StarStar(71).next_u64)
        counts = Counter(reps for reps, _ in children)
        # P[1] = P[2] = 1/e, P[4] = 1/(6e); wide bounds at this sample size
        assert counts[1] / samples == pytest.approx(math.exp(-1), abs=0.01)
        assert counts[2] / samples == pytest.approx(math.exp(-1), abs=0.01)
        assert counts[4] / samples == pytest.approx(1 / (6 * math.e), abs=0.01)
        assert sum(r * c for r, c in counts.items()) / samples == pytest.approx(2.0, abs=0.02)

    def test_threshold_is_inverse_e_correctly_rounded(self):
        # the Poisson threshold is a literal, so no libm's exp decides a draw
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(200):
            assert abs(mpmath.mpf(_INV_E) - mpmath.exp(-1)) < mpmath.mpf(math.ulp(_INV_E)) / 2

    def test_always_at_least_one(self):
        for kind in ("two_opt", "mixed"):
            children = pricer_children(6, kind, 10000, Xoshiro256StarStar(73).next_u64)
            assert all(reps >= 1 for reps, _ in children)


class TestPairDraws:
    """One move's pair, decoded by the pricer, is uniform: each child of
    the identity comes up as often as the pairs apply_inversion or
    apply_jump map to it."""

    def test_inversion_pair_uniformity(self):
        n = 6
        npairs = n * (n - 1) // 2
        samples = 150000
        counts = Counter(child for _, child in one_move_children(n, "two_opt", samples, 77))
        assert set(counts) == {apply_inversion(range(1, n + 1), i, j) for i, j in inversion_pairs(n)}
        expected = samples / npairs
        sigma = math.sqrt(samples * (1 / npairs) * (1 - 1 / npairs))
        for child, c in counts.items():
            assert abs(c - expected) < 4.5 * sigma, child

    def test_jump_pair_uniformity(self):
        n = 5
        samples = 100000
        counts = Counter(child for _, child in one_move_children(n, "mixed", samples, 79, branch="jump"))
        # neighbours swap by either of two jumps
        start = range(1, n + 1)
        ways = Counter(apply_jump(start, i, j) for i in start for j in start if i != j)
        assert set(counts) == set(ways)
        for child, c in counts.items():
            expected = samples * ways[child] / (n * (n - 1))
            assert abs(c - expected) < 6 * math.sqrt(expected), child


class TestTwoOptMutation:
    def test_forced_single_inversion(self):
        # uniform 0.1 < 1/e forces s = 0; pair index 5 is (2, 4) for n=5
        rng = ForcedRng(uniforms=[0.1], belows=[5])
        assert reference_mutation((1, 2, 3, 4, 5), rng, False) == (1, 4, 3, 2, 5)

    def test_closure_under_mutation(self):
        next_u64 = Xoshiro256StarStar(83).next_u64
        price = _child_pricer([0.0] * 100, 10, False, next_u64)
        t = list(range(10))
        for _ in range(200000):
            t = price(t, 0.0)[2]
            if len(t) != 10:
                pytest.fail("length changed")
        assert sorted(t) == list(range(10))

    def test_single_inversion_fraction(self):
        samples = 200000
        children = pricer_children(6, "two_opt", samples, Xoshiro256StarStar(87).next_u64)
        ones = sum(1 for reps, _ in children if reps == 1)
        assert ones / samples == pytest.approx(math.exp(-1), abs=0.01)


class TestMixedMutation:
    def test_branch_frequency(self):
        # a one-move child follows its branch uniform: an inversion of the
        # identity below 1/2, a jump from 1/2 on
        n = 6
        samples = 200000
        start = range(1, n + 1)
        inverted = {apply_inversion(start, i, j) for i, j in inversion_pairs(n)}
        jumped = {apply_jump(start, i, j) for i in start for j in start if i != j}
        inv = 0
        for r, child in one_move_children(n, "mixed", samples, 89):
            assert child in (inverted if r < 0.5 else jumped)
            inv += r < 0.5
        assert inv / samples == pytest.approx(0.5, abs=0.01)

    def test_forced_jump(self):
        # r = 0.7 >= 1/2 takes the jump branch; uniform 0.1 forces s = 0;
        # ordered-pair index 6 decodes to (2, 4) for n = 5
        rng = ForcedRng(uniforms=[0.7, 0.1], belows=[6])
        assert reference_mutation((1, 2, 3, 4, 5), rng, True) == (1, 3, 4, 2, 5)

    def test_forced_inversion_branch(self):
        rng = ForcedRng(uniforms=[0.2, 0.1], belows=[5])
        assert reference_mutation((1, 2, 3, 4, 5), rng, True) == (1, 4, 3, 2, 5)

    def test_closure(self):
        next_u64 = Xoshiro256StarStar(93).next_u64
        price = _child_pricer([0.0] * 100, 10, True, next_u64)
        t = list(range(10))
        for _ in range(100000):
            t = price(t, 0.0)[2]
        assert sorted(t) == list(range(10))


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

    def test_optimum_above_a_found_tour_raises(self, square):
        # every tour of the unit square is shorter than 5.0, the start included
        with pytest.raises(ValueError, match=r"optimum_value 5\.0 is above a tour of length 4\.8284271247461"):
            run_rls(square, 100, seed=1, optimum_value=5.0)
        inst = generate_grid(8, 64, 1)  # optimum 134.9922578862372
        with pytest.raises(ValueError, match=r"optimum_value 142\.5 is above a tour of length 142\.382120125503"):
            run_rls(inst, 2000, seed=3, optimum_value=142.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -5.0])
    def test_optimum_must_be_finite_and_positive(self, square, bad):
        # abs(x - inf) <= inf * 1e-12 holds for every x: inf would count as reached at once
        with pytest.raises(ValueError, match="optimum_value must be finite and > 0"):
            run_rls(square, 100, seed=1, optimum_value=bad)


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

    def test_optimum_above_a_found_tour_raises(self, square):
        cfg = EAConfig(mu=1, lam=1, max_generations=100, seed=1)
        with pytest.raises(ValueError, match=r"optimum_value 5\.0 is above a tour of length"):
            run_ea(square, cfg, optimum_value=5.0)
        inst = generate_grid(8, 64, 1)  # optimum 134.9922578862372
        cfg = EAConfig(mu=1, lam=1, mutation=MutationSpec("two_opt"), max_generations=2000, seed=3)
        with pytest.raises(ValueError, match=r"optimum_value 142\.5 is above a tour of length 142\.382120125503"):
            run_ea(inst, cfg, optimum_value=142.5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -5.0])
    def test_optimum_must_be_finite_and_positive(self, square, bad):
        cfg = EAConfig(mu=1, lam=1, max_generations=100, seed=1)
        with pytest.raises(ValueError, match="optimum_value must be finite and > 0"):
            run_ea(square, cfg, optimum_value=bad)


class ScriptedRng(Xoshiro256StarStar):
    """Returns the raw draws in `script` (a class attribute set per test),
    through next_u64 and peek alike; `at` counts the draws made."""

    script: list[int] = []

    def __init__(self, seed):
        super().__init__(seed)
        self.at = 0

    def next_u64(self):
        assert self.at < len(self.script), "script exhausted"
        self.at += 1
        return self.script[self.at - 1]

    def peek(self, k):
        assert self.at + k <= len(self.script), "script exhausted"
        return np.array(self.script[self.at : self.at + k], dtype=np.uint64)


def identity_shuffle(n):
    """Draws that make Fisher-Yates leave range(n) as it is."""
    return list(range(n - 1, 0, -1))


def uniform_draw(r):
    return int(r * 2**53) << 11


def strength(reps):
    """Uniforms whose running product first drops below 1/e at the reps-th."""
    return [uniform_draw(0.999)] * (reps - 1) + [0]


def inversion_draw(n, i, j):
    return inversion_pairs(n).index((i, j))


def jump_draw(n, i, j):
    return (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


def child_draws(n, kind, moves):
    """Raw draws of one child: ("inversion" | "jump", [(i, j), ...])."""
    branch, pairs = moves
    out = [] if kind == "two_opt" else [uniform_draw(0.25 if branch == "inversion" else 0.75)]
    out += strength(len(pairs))
    draw = inversion_draw if branch == "inversion" else jump_draw
    return out + [draw(n, i, j) for i, j in pairs]


def pricer_children(n, kind, samples, next_u64):
    """(reps, child) of `samples` _child_pricer calls on the identity tour
    of n points and a zero distance matrix, child 1-based."""
    price = _child_pricer([0.0] * (n * n), n, kind == "mixed", next_u64)
    for _ in range(samples):
        _, reps, child = price(range(n), 0.0)
        yield reps, tuple(v + 1 for v in child)


def one_move_children(n, kind, samples, seed, branch=None):
    """(r, child) of `samples` one-move children of the identity tour:
    pricer_children on xoshiro256** raw draws seeded with `seed`, with each
    child's strength draw forced to one move. For mixed, r is the branch
    uniform, drawn from the stream or, if `branch` is given, forced to it;
    for two_opt, r is None."""
    raw = iter(Xoshiro256StarStar(seed).next_u64, None)
    stream = iter(())
    children = pricer_children(n, kind, samples, lambda: next(stream))
    for _ in range(samples):
        if kind == "two_opt":
            head = []
        elif branch is None:
            head = [next(raw)]
        else:
            head = [uniform_draw(0.25 if branch == "inversion" else 0.75)]
        stream = itertools.chain(head, strength(1), raw)
        _, child = next(children)
        yield (head[0] >> 11) * 2.0**-53 if head else None, child


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
        worse = max(inversion_pairs(n), key=lambda p: tour_length(inst, apply_inversion(tied, *p)))
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


def scalar_accepts(instance, perm, i, j):
    """run_rls's scalar rule for the inversion (i, j) of the 0-based perm."""
    n = instance.n
    if (i, j) == (1, n):
        return True
    d = instance.distance_matrix
    a, b, c, e = perm[i - 2], perm[i - 1], perm[j - 1], perm[j % n]
    return d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e] <= 0.0


def rejection_limit(n):
    return 2**64 - 2**64 % (n * (n - 1) // 2)


# scales the 7 x 7 grid's coordinates 0..6, about its centre, to within
# one of +-(2^31 - 1)
WIDE_SCALE = (2**32 - 2) // 6


def scaled(inst, scale):
    """inst's points scaled by `scale` about the centre of a 7 x 7 grid:
    every length is `scale` times the old one, so equal lengths stay equal."""
    return validate([((p.x - 3) * scale, (p.y - 3) * scale) for p in inst.points])


def wide_instance(n, seed):
    """n distinct points uniform over the whole 32-bit coordinate range."""
    rng = Xoshiro256StarStar(seed)
    bound = 2**31 - 1
    points = []
    while len(points) < n:
        p = (rng.randbelow(2 * bound + 1) - bound, rng.randbelow(2 * bound + 1) - bound)
        if p not in points:
            points.append(p)
    return validate(points)


def local_optimum(inst, seed):
    """The 0-based final tour of a 3000-step run_rls: a 2-opt local
    optimum on the small instances used here."""
    return [v - 1 for v in run_rls(inst, 3000, seed).final_tour]


def shuffle_draws(perm):
    """Draws that make Fisher-Yates shuffle range(n) into the 0-based perm."""
    items = list(range(len(perm)))
    draws = []
    for i in range(len(perm) - 1, 0, -1):
        j = items.index(perm[i])
        draws.append(j)
        items[i], items[j] = items[j], items[i]
    return draws


def scripted_rls(monkeypatch, inst, perm, values, optimum_value=None):
    """run_rls from the 0-based perm on the raw words `values` (a
    ScriptedRng), for as many steps as they hold words below the
    rejection limit: it must be reference_rls's run on the same words,
    and draw as many of them. Returns the run and the number of words of
    `values` it drew."""
    n = inst.n
    made = []

    class Recorded(ScriptedRng):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(ScriptedRng, "script", shuffle_draws(perm) + list(values))
    budget = sum(v < rejection_limit(n) for v in values)
    runs = []
    for module, run in ((test_search_reference, reference_rls), (tsplab.search, run_rls)):
        with monkeypatch.context() as m:
            m.setattr(module, "Xoshiro256StarStar", Recorded)
            runs.append(run(inst, budget, 0, optimum_value))
    assert runs[0] == runs[1] and made[0].at == made[1].at
    return runs[1], made[1].at - (n - 1)


def rejected_words(inst, *perms):
    """The pair indices that the scalar rule rejects on every 0-based tour
    in perms."""
    return [
        t for t, (i, j) in enumerate(inversion_pairs(inst.n)) if not any(scalar_accepts(inst, p, i, j) for p in perms)
    ]


def standing(inst, *perms):
    """marks_threshold(n) words that the scalar rule rejects on every tour
    in perms: a cycle that has stood them is marked."""
    threshold = marks_threshold(inst.n)
    return (rejected_words(inst, *perms) * threshold)[:threshold]


def cycle_preserving_draws(n):
    return [inversion_draw(n, 1, n), inversion_draw(n, 2, n), inversion_draw(n, 1, n - 1)]


class TestStretchScanner:
    """run_rls on a few scripted words, on a young cycle and on a marked
    one (after `standing` words): the same run and the same draws as
    reference_rls on the same words. A marked cycle prices only the words
    that pick a marked pair; the full reversal, (2, n) and (1, n-1) carry
    its marks, and any other accepted step drops them."""

    def test_words_over_the_limit_are_no_steps(self, monkeypatch):
        inst = generate_grid(10, 64, 5)
        n = inst.n
        perm = local_optimum(inst, 1)
        r, s = rejected_words(inst, perm, perm[::-1])[:2]
        rev = inversion_draw(n, 1, n)
        limit = rejection_limit(n)
        npairs = n * (n - 1) // 2
        for head in ([], standing(inst, perm)):

            def run(*values):
                fast, drawn = scripted_rls(monkeypatch, inst, perm, head + list(values))
                return fast.generations - len(head), drawn - len(head)

            # (steps, words drawn): a sampled-away word is part of the step
            # after it, so words after the last step are not drawn
            assert run(limit, r, limit + 1, s, 2**64 - 1, rev, r) == (4, 7)
            assert run(r, limit, s, limit) == (2, 3)
            assert run(limit, rev, limit) == (1, 2)
            # rounds of one word, each over the limit
            assert run(r, limit, limit, s) == (2, 4)
            # a word picks its pair modulo the pair count
            fast, _ = scripted_rls(monkeypatch, inst, perm, head + [r + 7 * npairs, rev + 5 * npairs, s])
            assert fast.final_tour == tuple(v + 1 for v in perm[::-1])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_full_reversal_always_hits(self, monkeypatch, seed):
        # the full reversal keeps the cycle, so a marked cycle's marks
        # follow it, and every pair picked after it reads them
        inst = generate_grid(12, 32, seed)
        n = inst.n
        rev = inversion_draw(n, 1, n)
        shuffled = list(range(n))
        Xoshiro256StarStar(seed).shuffle(shuffled)
        for perm in (local_optimum(inst, seed), list(range(n)), shuffled):
            for head in ([], standing(inst, perm)):
                for reps in (1, 3):
                    fast, _ = scripted_rls(monkeypatch, inst, perm, head + [rev] * reps)
                    assert fast.final_tour == tuple(v + 1 for v in perm[::-1])
                scripted_rls(monkeypatch, inst, perm, head + [rev] + list(range(n * (n - 1) // 2)))

    def test_exact_zero_delta_is_accepted(self, monkeypatch):
        # a, b, c, e at the corners of a unit square: inverting (2, 4) of
        # (a, b, x, c, e) swaps ab, ce for ac, be, all of length 1
        inst = validate([(0, 0), (1, 0), (0, 1), (1, 1), (3, 7)])
        perm = [0, 1, 4, 2, 3]
        d = inst.distance_matrix
        assert d[0 * 5 + 2] + d[1 * 5 + 3] - d[0 * 5 + 1] - d[2 * 5 + 3] == 0.0
        zero = inversion_draw(5, 2, 4)
        rejected = rejected_words(inst, perm)
        for head in ([], standing(inst, perm)):
            fast, _ = scripted_rls(monkeypatch, inst, perm, head + [zero])
            assert fast.final_tour == (1, 3, 5, 2, 4)
            fast, drawn = scripted_rls(monkeypatch, inst, perm, head + [*rejected, zero, *rejected])
            assert (fast.generations, drawn) == (len(head) + 2 * len(rejected) + 1,) * 2

    @pytest.mark.parametrize("instance_seed,scale", [(1, 1), (2, 1), (217, 1), (1, WIDE_SCALE)], ids=["1", "2", "217", "wide"])
    def test_agrees_with_scalar_rule_on_every_pair_of_a_tie_heavy_grid(self, monkeypatch, instance_seed, scale):
        # a 7 x 7 grid makes equal edge lengths, so deltas that cancel to
        # 0.0 or round around it are common; scaled to the 32-bit range it
        # keeps its ties, and its squared lengths pass 2^53
        inst = scaled(generate_grid(11, 7, instance_seed), scale)
        n = inst.n
        d = inst.distance_matrix
        pairs = inversion_pairs(n)
        rng = Xoshiro256StarStar(instance_seed)
        perms = [local_optimum(inst, seed) for seed in (1, 2)]
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
        ties = 0
        for perm in perms:
            tour = tuple(v + 1 for v in perm)
            for head in ([], standing(inst, perm)):
                for t, (i, j) in enumerate(pairs):
                    fast, _ = scripted_rls(monkeypatch, inst, perm, head + [t])
                    assert fast.final_tour == (apply_inversion(tour, i, j) if scalar_accepts(inst, perm, i, j) else tour)
                order = list(range(len(pairs)))
                rng.shuffle(order)
                scripted_rls(monkeypatch, inst, perm, head + order)
            for i, j in pairs:
                if (i, j) != (1, n):
                    a, b, c, e = perm[i - 2], perm[i - 1], perm[j - 1], perm[j % n]
                    ties += d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e] == 0.0
        assert ties > 0

    @pytest.mark.parametrize("instance_seed", [1, 2, 3])
    def test_wide_coordinates_are_batched(self, monkeypatch, instance_seed):
        inst = wide_instance(24, instance_seed)
        assert max(max(map(abs, xs)) for xs in inst.coords) > 2**31 - 2**28
        result, _, marked = check_marking(monkeypatch, inst, 8000, instance_seed)
        assert steps_on_marks(marked) > result.generations // 2


class TestWalk:
    """run_rls on many scripted words, young and marked cycles in turn,
    against reference_rls on the same words."""

    def test_words_over_the_limit_are_no_steps(self, monkeypatch):
        inst = generate_grid(10, 64, 5)
        n = inst.n
        perm = local_optimum(inst, 1)
        r, s = rejected_words(inst, perm, perm[::-1])[:2]
        rev = inversion_draw(n, 1, n)
        limit = rejection_limit(n)
        shuffled = list(range(n))
        Xoshiro256StarStar(5).shuffle(shuffled)
        improving = next(
            t for t, (i, j) in enumerate(inversion_pairs(n)) if j - i < n - 2 and scalar_accepts(inst, shuffled, i, j)
        )
        for head in ([], standing(inst, perm)):

            def run(*values, perm=perm):
                fast, drawn = scripted_rls(monkeypatch, inst, perm, head + list(values))
                return fast.generations - len(head), drawn - len(head)

            assert run(limit, r, limit + 1, rev, 2**64 - 1, s) == (3, 6)
            assert run(r, limit, 2**64 - 1) == (1, 1)
            assert run(limit, 2**64 - 1, limit, r) == (1, 4)
        # a word over the limit just before a step that changes the cycle
        r = rejected_words(inst, shuffled)[0]
        for head in ([], standing(inst, shuffled)):
            assert run(r, limit, improving, r, perm=shuffled) == (3, 4)

    @pytest.mark.parametrize("instance_seed,scale", [(1, 1), (2, 1), (217, 1), (1, WIDE_SCALE)], ids=["1", "2", "217", "wide"])
    def test_agrees_with_scalar_rule_on_a_tie_heavy_grid(self, monkeypatch, instance_seed, scale):
        inst = scaled(generate_grid(11, 7, instance_seed), scale)
        n = inst.n
        rng = Xoshiro256StarStar(instance_seed)
        npairs = n * (n - 1) // 2
        tours = [local_optimum(inst, seed) for seed in (1, 2, 3)]
        for _ in range(3):
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            tours.append(shuffled)
        cps = cycle_preserving_draws(n)
        for perm in tours:
            marked = standing(inst, perm)
            for _ in range(30):
                # many cycle-preserving words, so that marked cycles move
                # their marks often, and a few words over the limit
                values = [cps[rng.randbelow(3)] if rng.randbelow(4) == 0 else rng.randbelow(npairs) for _ in range(300)]
                values[rng.randbelow(300)] = rejection_limit(n) + rng.randbelow(2**64 - rejection_limit(n))
                for head in ([], marked):
                    scripted_rls(monkeypatch, inst, perm, head + values)

    def test_stops_before_the_certification_and_the_optimum_check(self, monkeypatch):
        # the certification and the optimum check run after an accepted
        # (2, n) or (1, n-1) priced from the marks, as after any accepted
        # step but the full reversal
        inst = generate_grid(11, 7, 2)
        n = inst.n
        rev = inversion_draw(n, 1, n)
        limit = rejection_limit(n)
        summed = [0]
        fsum = tsplab.search._fsum_length

        def spy(d, n, perm):
            summed[0] += 1
            return fsum(d, n, perm)

        monkeypatch.setattr(tsplab.search, "_fsum_length", spy)
        checked = Counter()
        for seed in range(1, 9):
            perm = local_optimum(inst, seed)
            assert is_two_opt_local_optimum(inst, tuple(v + 1 for v in perm))
            head = standing(inst, perm)
            for draw, (i, j) in zip(cycle_preserving_draws(n)[1:], [(2, n), (1, n - 1)]):
                if not scalar_accepts(inst, perm, i, j):
                    continue
                # the move after n^2 - 1 full reversals (an even number at
                # n = 11) is the n^2-th accepted step, whose certification
                # stops the run before the word over the limit after it is
                # drawn; after n^2 - 3 it is not
                for reversals, stops in ((n * n - 1, True), (n * n - 3, False)):
                    values = [rev] * reversals + head + [draw, limit, head[0]]
                    fast, drawn = scripted_rls(monkeypatch, inst, perm, values)
                    moved = reversals + len(head) + 1
                    assert (fast.generations, drawn) == ((moved, moved) if stops else (moved + 1, moved + 2))
                # with a value just below the tour's length, the optimum
                # check sums the tour after the move: once more than at the
                # start, which sums it twice
                value = tour_length(inst, tuple(v + 1 for v in perm)) * (1 - 1e-11)
                for tail, sums in (([draw, head[0]], 3), ([head[0]], 2)):
                    summed[0] = 0
                    fast, _ = scripted_rls(monkeypatch, inst, perm, head + tail, optimum_value=value)
                    assert not fast.reached_optimum and summed[0] == sums
                checked[i, j] += 1
        assert checked[2, n] > 0 and checked[1, n - 1] > 0


def all_orders(terms):
    """The left-to-right float sums of `terms` in every order."""
    for order in itertools.permutations(terms):
        total = 0.0
        for t in order:
            total += t
        yield total


# a, b, c, e with |ac| + |be| = |ab| + |ce| exactly, every length a multiple
# of sqrt(2), no three collinear: scaled up, the stored lengths round so
# that d_ab + d_ce < d_ac + d_be in floats, within 2^-48 of a tie
SURD_TIES = [
    ((0, 0), (-6, -6), (-7, -1), (-9, -3)),
    ((0, 0), (2, 2), (-7, -1), (-1, 5)),
    ((0, 0), (-3, 3), (-6, -6), (-5, 1)),
]


@st.composite
def tie_heavy_tours(draw):
    """(instance, 0-based tour): a 7 x 7 grid, as it is or scaled to within
    one of +-(2^31 - 1), or a scaled SURD_TIES quadruple."""
    if draw(st.booleans()):
        try:
            inst = generate_grid(draw(st.integers(5, 10)), 7, draw(st.integers(0, 2**32 - 1)))
        except GenerationExhaustedError:
            assume(False)
        inst = scaled(inst, draw(st.sampled_from([1, WIDE_SCALE])))
    else:
        points = draw(st.sampled_from(SURD_TIES))
        scale = draw(st.integers(1, (2**31 - 1) // 9))
        inst = validate([(x * scale, y * scale) for x, y in points])
    return inst, draw(st.permutations(range(inst.n)))


class TestCandidateMarks:
    """run_rls prices only the marked pairs of a marked cycle: every other
    pair must be rejected by the scalar rule on every tour of the cycle."""

    @pytest.mark.parametrize("n", [5, 11, 70, 200])
    def test_picked_pairs_get_the_tour_marks(self, n):
        # the whole tour is marked in slices of _BATCH_MAX pairs, several at
        # n = 70 and 200; a picked pair's mark is the prefilter on its four
        # stored lengths
        inst = generate_grid(n, 1024, n)
        d = inst.distance_matrix
        pairs = inversion_pairs(n)
        rng = Xoshiro256StarStar(n)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            marks = _tour_marks(inst, perm)
            assert marks.shape == (len(pairs),) and marks.sum() >= 3
            for t in [rng.randbelow(len(pairs)) for _ in range(500)]:
                i, j = pairs[t]
                a, b, c, e = perm[i - 2], perm[i - 1], perm[j - 1], perm[j % n]
                assert marks[t] == (d[a * n + b] + d[c * n + e] >= (d[a * n + c] + d[b * n + e]) * _SHRINK)

    @settings(max_examples=300)
    @given(tie_heavy_tours())
    # at this scale the stored lengths give d_ab + d_ce < d_ac + d_be in
    # floats, and 0.0 in some order of the four terms
    @example((validate([(x * 87474181, y * 87474181) for x, y in SURD_TIES[0]]), [0, 1, 2, 3]))
    def test_unmarked_pairs_are_rejected_in_every_term_order(self, tour):
        inst, perm = tour
        n = inst.n
        d = inst.distance_matrix
        marks = _tour_marks(inst, perm)
        pairs = inversion_pairs(n)
        assert len(marks) == len(pairs)
        for t, (i, j) in enumerate(pairs):
            a, b, c, e = perm[i - 2], perm[i - 1], perm[j - 1], perm[j % n]
            if j - i >= n - 2:
                assert marks[t]  # (1, n), (2, n) and (1, n-1)
            elif not marks[t]:
                assert min(all_orders((d[a * n + c], d[b * n + e], -d[a * n + b], -d[c * n + e]))) > 0.0
        # a pair with edge n - 1 is listed twice, as (1, x + 1) and
        # (x + 2, n); both carry its mark
        for x in range(1, n - 2):
            assert marks[pairs.index((1, x + 1))] == marks[pairs.index((x + 2, n))]

    @pytest.mark.parametrize("instance_seed,scale", [(1, 1), (217, 1), (1, WIDE_SCALE)], ids=["1", "217", "wide"])
    def test_reflections_carry_the_marks(self, instance_seed, scale):
        inst = scaled(generate_grid(11, 7, instance_seed), scale)
        n = inst.n
        rng = Xoshiro256StarStar(instance_seed)
        table = _reflection_table(n)
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            marks = _tour_marks(inst, perm)
            for row, (i, j) in enumerate([(1, n), (2, n), (1, n - 1)]):
                moved = list(apply_inversion(tuple(perm), i, j))
                assert (_tour_marks(inst, moved) == marks[table[row]]).all()


def accepted_inversions(instance, steps, seed):
    """(tour before, tour after) of each accepted inversion but the full
    reversal in the first `steps` steps of run_rls(instance, _, seed),
    replayed by reference_steps."""
    perm = list(range(instance.n))
    Xoshiro256StarStar(seed).shuffle(perm)
    before = tuple(v + 1 for v in perm)
    for i, j, delta, after in reference_steps(instance, steps, seed):
        if delta <= 0.0 and (i, j) != (1, instance.n):
            yield before, after
        before = after


def spy_witness_kernels(monkeypatch):
    """Record each call of the search loops' crossing kernels as (name, tour)."""
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
                if cycle_edges(after) == cycle_edges(before):
                    # (2, n) or (1, n-1): the same edges, the same witness
                    assert made == []
                    paths["cycle kept"] += 1
                elif is_intersection_free(inst, before):
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
        assert paths["added edges on a crossing-free tour"] > 0 and paths["cycle kept"] > 0

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
        # the move was accepted and kept the witness: it ran no kernel
        assert calls[0] == ("_crossings0", tuple(range(1, n + 1)))
        assert all(t != apply_inversion(tuple(range(1, n + 1)), *pair) for _, t in calls)


def compressed(tours):
    """tours with runs of equal consecutive tours merged into one."""
    return [t for k, t in enumerate(tours) if k == 0 or t != tours[k - 1]]


class TestEaCrossingWitness:
    """run_ea classifies each new best tour by its edge diff against the
    last tour it classified; its alpha/beta split must stay the reference
    loop's through each way the witness is updated. mu > 1, so a new best
    need not descend from the old one."""

    @pytest.mark.parametrize(
        "n,m,instance_seed,mu,lam,kind,budget",
        [(12, 8, 1, 3, 4, "two_opt", 1500), (14, 16, 2, 3, 4, "mixed", 1500), (20, 32, 4, 3, 5, "mixed", 2000)],
    )
    def test_matches_reference_through_every_path(self, monkeypatch, n, m, instance_seed, mu, lam, kind, budget):
        inst = generate_grid(n, m, instance_seed)
        paths = Counter()
        for seed in (1, 2):
            cfg = EAConfig(mu=mu, lam=lam, mutation=MutationSpec(kind), max_generations=budget, seed=seed)

            # the reference classifies the best tour of every generation
            bests = []

            def record_best(instance, tour):
                bests.append(tour)
                return crossing_pairs(instance, tour)

            monkeypatch.setattr(test_search_reference, "crossing_pairs", record_best)
            slow = reference_ea(inst, cfg)
            monkeypatch.undo()
            # run_ea takes the edge keys of each best tuple it classifies
            # once; the kernel calls that follow belong to that tour
            calls = spy_witness_kernels(monkeypatch)
            edge_keys = tsplab.search._edge_keys

            def record_classified(perm):
                calls.append(("new best", tuple(v + 1 for v in perm)))
                return edge_keys(perm)

            monkeypatch.setattr(tsplab.search, "_edge_keys", record_classified)
            fast = run_ea(inst, cfg)
            monkeypatch.undo()
            assert fast == slow
            assert calls[:2] == [("new best", bests[0]), ("_crossings0", bests[0])]  # the start's scan
            classified = []
            for name, tour in calls:
                if name == "new best":
                    classified.append((tour, []))
                else:
                    assert tour == classified[-1][0]
                    classified[-1][1].append(name)
            assert compressed([t for t, _ in classified]) == compressed(bests)
            for (before, _), (after, made) in zip(classified, classified[1:]):
                added = len(cycle_edges(after) - cycle_edges(before))
                if added == 0:
                    assert made == []
                    if before != after:
                        paths["same cycle"] += 1
                elif is_intersection_free(inst, before):
                    # only an added edge can cross: checked, no rescan
                    checked = made.count("_segment_crossing")
                    assert made == ["_segment_crossing"] * checked and 1 <= checked <= added
                    assert checked == added or not is_intersection_free(inst, after)
                    paths["added edges on a crossing-free tour"] += 1
                elif not made:
                    paths["witness kept"] += 1
                elif "_crossings0" in made:
                    assert made == ["_segment_crossing"] * added + ["_crossings0"]
                    paths["rescan after the witness was removed"] += 1
                else:
                    assert set(made) == {"_segment_crossing"} and not is_intersection_free(inst, after)
        assert set(paths) >= {
            "same cycle",
            "witness kept",
            "added edges on a crossing-free tour",
            "rescan after the witness was removed",
        }


class TestMutationSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            MutationSpec("three_opt")

    def test_ea_config_checked(self):
        with pytest.raises(ValueError):
            EAConfig(mu=0)

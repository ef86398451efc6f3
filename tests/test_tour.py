import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    apply_inversion,
    apply_jump,
    canonical_form,
    crossing_pairs,
    find_uncrossing_inversion,
    generate_grid,
    generate_convex,
    generate_with_inner,
    is_intersection_free,
    is_two_opt_local_optimum,
    jump_as_inversions,
    respects_hull_order,
    run_rls,
    tour_length,
    validate,
)
from tsplab.oracle import brute_force_optimum, enumerate_intersection_free
from tsplab.rng import Xoshiro256StarStar

from conftest import (
    crossing_count_fractions,
    cycle_edges,
    full_scan_local_optimum,
    random_tour,
    slow_tour_length,
)

# (n, m): m = 1024 grids with n <= 40, and small tie-heavy grids (many
# equal distances) with n <= m, which the generator always fills
_grid_sizes = st.one_of(
    st.tuples(st.integers(3, 40), st.just(1024)),
    st.integers(5, 16).flatmap(lambda m: st.tuples(st.integers(3, m), st.just(m))),
)


class TestTourLength:
    def test_unit_square_hull_order(self, square):
        assert tour_length(square, (1, 2, 3, 4)) == 4.0

    def test_unit_square_crossed(self, square):
        expected = 2.0 + 2.0 * math.sqrt(2.0)
        assert tour_length(square, (1, 3, 2, 4)) == pytest.approx(expected, abs=1e-12)

    def test_reversal_and_rotation_invariance_exact(self):
        inst = generate_grid(9, 64, 41)
        rng = Xoshiro256StarStar(5)
        for _ in range(50):
            t = random_tour(9, rng)
            base = tour_length(inst, t)
            assert tour_length(inst, t[::-1]) == base
            assert tour_length(inst, t[3:] + t[:3]) == base

    def test_matches_independent_summation(self):
        inst = generate_grid(8, 32, 43)
        rng = Xoshiro256StarStar(6)
        for _ in range(20):
            t = random_tour(8, rng)
            assert tour_length(inst, t) == slow_tour_length(inst, t)

    def test_rejects_non_permutation(self, square):
        with pytest.raises(ValueError):
            tour_length(square, (1, 2, 3, 3))


class TestApplyInversion:
    def test_basic(self):
        assert apply_inversion((1, 2, 3, 4, 5), 2, 4) == (1, 4, 3, 2, 5)

    def test_full_reversal_keeps_cycle(self):
        t = (1, 2, 3, 4, 5)
        r = apply_inversion(t, 1, 5)
        assert r == (5, 4, 3, 2, 1)
        assert cycle_edges(r) == cycle_edges(t)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            apply_inversion((1, 2, 3), 2, 2)
        with pytest.raises(ValueError):
            apply_inversion((1, 2, 3), 0, 2)

    def test_involution(self):
        rng = Xoshiro256StarStar(9)
        for _ in range(100):
            t = random_tour(8, rng)
            i = 1 + rng.randbelow(7)
            j = i + 1 + rng.randbelow(8 - i)
            assert apply_inversion(apply_inversion(t, i, j), i, j) == t

    def test_edge_level_effect(self):
        # the new cycle differs by exactly the two predicted edge swaps,
        # or not at all for the three no-effect index pairs
        n = 8
        rng = Xoshiro256StarStar(13)
        for _ in range(10):
            t = random_tour(n, rng)
            old = cycle_edges(t)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    new = cycle_edges(apply_inversion(t, i, j))
                    if (i, j) in ((1, n), (2, n), (1, n - 1)):
                        assert new == old
                        continue
                    removed = old - new
                    added = new - old
                    xi_1 = t[(i - 2) % n]
                    xi, xj = t[i - 1], t[j - 1]
                    xj1 = t[j % n]
                    assert removed == {frozenset((xi_1, xi)), frozenset((xj, xj1))}
                    assert added == {frozenset((xi_1, xj)), frozenset((xi, xj1))}


class TestApplyJump:
    def test_forward(self):
        assert apply_jump((1, 2, 3, 4, 5), 2, 4) == (1, 3, 4, 2, 5)

    def test_backward(self):
        assert apply_jump((1, 2, 3, 4, 5), 4, 2) == (1, 4, 2, 3, 5)

    def test_adjacent_jumps_have_same_effect(self):
        rng = Xoshiro256StarStar(15)
        for _ in range(30):
            t = random_tour(7, rng)
            for i in range(1, 7):
                assert apply_jump(t, i, i + 1) == apply_jump(t, i + 1, i)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            apply_jump((1, 2, 3), 2, 2)


class TestJumpAsInversions:
    def test_adjacent_is_single_inversion(self):
        assert jump_as_inversions(2, 3) == [(2, 3)]
        assert jump_as_inversions(3, 2) == [(2, 3)]

    def test_forward_case(self):
        t = (1, 2, 3, 4, 5)
        seq = jump_as_inversions(2, 4)
        assert seq == [(2, 4), (2, 3)]
        x = t
        for i, j in seq:
            x = apply_inversion(x, i, j)
        assert x == apply_jump(t, 2, 4) == (1, 3, 4, 2, 5)

    def test_exhaustive_equality_n6(self):
        rng = Xoshiro256StarStar(21)
        t = random_tour(6, rng)
        for i in range(1, 7):
            for j in range(1, 7):
                if i == j:
                    continue
                x = t
                for a, b in jump_as_inversions(i, j):
                    x = apply_inversion(x, a, b)
                assert x == apply_jump(t, i, j), (i, j)

    def test_equal_positions_rejected(self):
        with pytest.raises(ValueError):
            jump_as_inversions(3, 3)


class TestCrossings:
    def test_convex_hull_order_is_free(self):
        inst = generate_convex(5, 64, 2)
        assert crossing_pairs(inst, inst.hull) == []
        assert is_intersection_free(inst, inst.hull)

    def test_crossed_square(self, square):
        pairs = crossing_pairs(square, (1, 3, 2, 4))
        assert len(pairs) == 1
        assert not is_intersection_free(square, (1, 3, 2, 4))

    def test_count_matches_rational_rescan(self):
        inst = generate_grid(9, 64, 47)
        rng = Xoshiro256StarStar(31)
        for _ in range(40):
            t = random_tour(9, rng)
            assert len(crossing_pairs(inst, t)) == crossing_count_fractions(inst, t)

    def test_optimum_is_crossing_free(self):
        inst = generate_with_inner(6, 2, 256, 33)
        res = brute_force_optimum(inst)
        assert is_intersection_free(inst, res.optimum_tour)


class TestFindUncrossing:
    def test_crossed_square_yields_hull_tour(self, square):
        move = find_uncrossing_inversion(square, (1, 3, 2, 4))
        assert move is not None
        fixed = apply_inversion((1, 3, 2, 4), *move)
        assert canonical_form(fixed) == (1, 2, 3, 4)

    def test_none_on_crossing_free(self, square):
        assert find_uncrossing_inversion(square, (1, 2, 3, 4)) is None

    def test_improvement_exceeds_uncross_gain(self):
        # smaller copy of the acceptance-scale check
        inst = generate_grid(10, 64, 51)
        gain = inst.metrics.min_uncross_gain
        rng = Xoshiro256StarStar(37)
        tried = 0
        while tried < 100:
            t = random_tour(10, rng)
            move = find_uncrossing_inversion(inst, t)
            if move is None:
                continue
            tried += 1
            before = len(crossing_pairs(inst, t))
            y = apply_inversion(t, *move)
            assert tour_length(inst, t) - tour_length(inst, y) > gain
            # the move removed the targeted crossing pair and its two new
            # edges do not cross each other
            old_edges = cycle_edges(t)
            new_edges = cycle_edges(y)
            added = list(new_edges - old_edges)
            assert len(added) == 2
            pts = {p.id: p for p in inst.points}
            from tsplab import segments_properly_intersect

            (a, b), (c, d) = [tuple(e) for e in added]
            assert not segments_properly_intersect(pts[a], pts[b], pts[c], pts[d])
            assert len(crossing_pairs(inst, y)) <= before + 100  # sanity only


class TestHullOrder:
    def test_convex_hull_tour(self):
        inst = generate_convex(6, 64, 3)
        assert respects_hull_order(inst, inst.hull)
        assert respects_hull_order(inst, inst.hull[::-1])
        rotated = inst.hull[2:] + inst.hull[:2]
        assert respects_hull_order(inst, rotated)

    def test_swapped_hull_labels(self):
        inst = generate_convex(5, 64, 4)
        t = list(inst.hull)
        t[1], t[3] = t[3], t[1]
        assert not respects_hull_order(inst, tuple(t))

    def test_enumerated_crossing_free_tours_respect_hull_order(self):
        for seed in (61, 62):
            inst = generate_with_inner(6, 2, 256, seed)
            for t in enumerate_intersection_free(inst):
                assert respects_hull_order(inst, t)


class TestLocalOptimum:
    def test_global_optimum_is_local(self):
        inst = generate_grid(8, 32, 71)
        res = brute_force_optimum(inst)
        assert is_two_opt_local_optimum(inst, res.optimum_tour)

    def test_crossed_square_is_not(self, square):
        assert not is_two_opt_local_optimum(square, (1, 3, 2, 4))

    def test_against_independent_scan(self):
        inst = generate_grid(8, 64, 73)
        rng = Xoshiro256StarStar(41)
        for _ in range(60):
            t = random_tour(8, rng)
            assert is_two_opt_local_optimum(inst, t) == full_scan_local_optimum(inst, t)
        res = brute_force_optimum(inst)
        t = res.optimum_tour
        assert is_two_opt_local_optimum(inst, t) == full_scan_local_optimum(inst, t)

    @pytest.mark.parametrize("size,local", [(2**24, False), (2**26, True)])
    def test_tiny_negative_delta(self, size, local):
        # q = label 2 sits between p1 and p3, which are equally far from
        # p2 = (0, 0), with |q p3|^2 = |q p1|^2 - 2: moving q next to p3
        # (inversion (2, 3)) is the one move with a negative delta, about
        # -sqrt(2)/size. At 2^24 that is 0.82 * 2^-48 of the added edge
        # lengths, and it shortens the fsum length; at 2^26 it is an ulp
        # or two of the edge lengths, both tours round to the same fsum
        # length, and the tour is a local optimum
        inst = validate([(size, 1), (size // 2 - 1, size // 2), (0, 0), (-1, size), (size - 1, size + 1)])
        t = (1, 2, 3, 4, 5)
        d = inst.distance_matrix
        assert math.fsum((d[0 * 5 + 2], d[1 * 5 + 3], -d[0 * 5 + 1], -d[2 * 5 + 3])) < 0
        assert (tour_length(inst, apply_inversion(t, 2, 3)) < tour_length(inst, t)) is not local
        assert full_scan_local_optimum(inst, t) is local
        assert is_two_opt_local_optimum(inst, t) is local

    @settings(max_examples=300)
    @given(_grid_sizes, st.integers(0, 2**32 - 1), st.sampled_from(["random", "rls_end", "one_off"]), st.data())
    def test_matches_full_scan(self, size, seed, kind, data):
        # RLS end tours are mostly local optima, where the delta scan
        # runs over every pair; one inversion away they mostly are not
        n, m = size
        inst = generate_grid(n, m, seed)
        if kind == "random":
            t = random_tour(n, Xoshiro256StarStar(seed))
        else:
            t = run_rls(inst, 20 * n * n, seed).final_tour
            if kind == "one_off":
                i = data.draw(st.integers(1, n - 1))
                t = apply_inversion(t, i, data.draw(st.integers(i + 1, n)))
        assert is_two_opt_local_optimum(inst, t) == full_scan_local_optimum(inst, t)

    def test_local_optima_are_crossing_free(self):
        # consequence of the uncrossing improvement on collinear-free sets
        for seed in (81, 82):
            inst = generate_with_inner(5, 2, 256, seed)
            n = inst.n
            for t in map(lambda r: (1,) + r, itertools.permutations(range(2, n + 1))):
                if is_two_opt_local_optimum(inst, t):
                    assert is_intersection_free(inst, t)


class TestImprovingNeighborsOfCrossingFreeTours:
    def test_new_edge_pair_never_crosses_itself(self):
        # an improving inversion's two replacement edges cannot cross
        # each other (the quadrangle inequality would contradict the
        # improvement); verified exhaustively
        from tsplab import segments_properly_intersect
        from conftest import cycle_edges

        for seed in (91, 92):
            inst = generate_with_inner(6, 2, 256, seed)
            pts = {p.id: p for p in inst.points}
            n = inst.n
            for t in enumerate_intersection_free(inst):
                base = tour_length(inst, t)
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        y = apply_inversion(t, i, j)
                        if tour_length(inst, y) < base:
                            added = list(cycle_edges(y) - cycle_edges(t))
                            if len(added) == 2:
                                (a, b), (c, d) = [tuple(e) for e in added]
                                assert not segments_properly_intersect(
                                    pts[a], pts[b], pts[c], pts[d]
                                )

    def test_known_counterexample_new_edge_can_cross_old_edge(self):
        # a strictly improving inversion on a crossing-free tour CAN
        # reintroduce a crossing between a new edge and an untouched
        # edge, so crossing-freeness is not closed under improving
        # inversions; this pins the concrete witness
        inst = generate_with_inner(6, 2, 256, 91)
        t = (1, 2, 3, 4, 5, 6, 8, 7)
        assert is_intersection_free(inst, t)
        y = apply_inversion(t, 1, 3)
        assert tour_length(inst, y) < tour_length(inst, t)
        assert not is_intersection_free(inst, y)
        assert crossing_pairs(inst, y) == [(3, 6)]
        # the same witness through the independent Fraction predicate
        assert crossing_count_fractions(inst, t) == 0
        assert crossing_count_fractions(inst, y) == 1


class TestCanonicalForm:
    def test_rotation(self):
        assert canonical_form((3, 1, 2)) == (1, 2, 3)

    def test_reflection(self):
        assert canonical_form((1, 3, 2)) == canonical_form((1, 2, 3)) == (1, 2, 3)

    def test_random_symmetry_property(self):
        rng = Xoshiro256StarStar(51)
        for _ in range(100):
            t = random_tour(7, rng)
            r = rng.randbelow(7)
            sym = t[r:] + t[:r]
            if rng.randbelow(2):
                sym = sym[::-1]
            assert canonical_form(sym) == canonical_form(t)

    def test_distinct_cycles_differ(self):
        assert canonical_form((1, 2, 3, 4)) != canonical_form((1, 3, 2, 4))

    def test_length_preserved(self):
        inst = generate_grid(7, 32, 53)
        rng = Xoshiro256StarStar(57)
        for _ in range(20):
            t = random_tour(7, rng)
            assert tour_length(inst, canonical_form(t)) == tour_length(inst, t)

import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tsplab import (
    Point,
    apply_inversion,
    apply_jump,
    canonical_form,
    generate_convex,
    generate_grid,
    generate_with_inner,
    is_intersection_free,
    jump_as_inversions,
    respects_hull_order,
    tour_length,
    validate,
)
from tsplab import oracle
from tsplab.errors import TooLargeError
from tsplab.experiment import strongest_oracle
from tsplab.oracle import (
    brute_force_optimum,
    enumerate_intersection_free,
    held_karp_optimum,
    hull_order_count,
    hull_order_optimum,
    hull_order_tours,
    interleaving_count,
    jumps_to_optimum,
)

from conftest import (
    _cross_sign,
    all_cycles,
    crossing_count_fractions,
    reference_brute,
    reference_held_karp,
    reference_hull_order,
)

_COORD_MAX = 2**31 - 1
# the slowest reference pricing a property example may ask for
_REFERENCE_TOURS = 40_000


def _keep_no_three_in_line(cands, n):
    """The first n (x, y) candidates, in order, that are new and collinear
    with no pair already kept."""
    kept = []
    for x, y in cands:
        p = Point(0, x, y)
        if p in kept or any(_cross_sign(a, b, p) == 0 for a, b in itertools.combinations(kept, 2)):
            continue
        kept.append(p)
        if len(kept) == n:
            break
    return [(p.x, p.y) for p in kept]


@st.composite
def tie_heavy_grid(draw, max_n):
    """Up to max_n points of a 4x4 to 8x8 grid, no three in line: many
    equal distances, so many exactly tied tours."""
    m = draw(st.integers(4, 8))
    n = draw(st.sampled_from(range(max_n, 3, -1)))
    order = draw(st.permutations(range(m * m)))
    return _keep_no_three_in_line([divmod(c, m) for c in order], n)


@st.composite
def wide_points(draw, max_n):
    """Points with coordinates up to +-(2^31 - 1): a tie-heavy grid
    scaled and shifted to the edge of the range, or points drawn from the
    whole range."""
    if draw(st.booleans()):
        base = draw(tie_heavy_grid(max_n))
        scale = (_COORD_MAX // 7) >> draw(st.integers(0, 28))  # at least 1
        slack = 2 * _COORD_MAX - 7 * scale
        ox = -_COORD_MAX + draw(st.integers(0, slack))
        oy = -_COORD_MAX + draw(st.integers(0, slack))
        sign = draw(st.sampled_from([1, -1]))
        return [(sign * (ox + scale * x), sign * (oy + scale * y)) for x, y in base]
    coord = st.integers(-_COORD_MAX, _COORD_MAX)
    cands = draw(st.lists(st.tuples(coord, coord), min_size=4, max_size=max_n))
    kept = _keep_no_three_in_line(cands, max_n)
    assume(len(kept) >= 4)
    return kept


@st.composite
def inner_instance(draw):
    """generate_with_inner with h = 3..12 and k = 0..5, k lowered until
    the enumeration holds at most _REFERENCE_TOURS tours."""
    h = draw(st.sampled_from(range(12, 2, -1)))
    k = draw(st.sampled_from(range(5, -1, -1)))
    while math.prod(range(h, h + k)) > _REFERENCE_TOURS:
        k -= 1
    m = 8 * h + draw(st.integers(0, 64))
    return generate_with_inner(h, k, m, draw(st.integers(0, 2**32)))


def _assert_hull_order_matches_reference(inst):
    if hull_order_count(inst) > oracle._INTERLEAVING_BUDGET:
        with pytest.raises(TooLargeError):
            hull_order_optimum(inst)
    else:
        assert hull_order_optimum(inst) == reference_hull_order(inst)


class TestBruteForce:
    def test_unit_square(self, square):
        res = brute_force_optimum(square)
        assert res.optimum_value == 4.0
        assert res.optimum_tour == (1, 2, 3, 4)
        assert res.method == "brute"

    def test_convex_instances_yield_hull_tour(self):
        for n, seed in ((5, 1), (7, 2), (9, 3)):
            inst = generate_convex(n, 128, seed)
            res = brute_force_optimum(inst)
            assert res.optimum_tour == canonical_form(inst.hull)

    def test_too_large(self):
        inst = generate_grid(12, 64, 1)
        with pytest.raises(TooLargeError):
            brute_force_optimum(inst)

    def test_matches_exhaustive_python_enumeration(self):
        # independent oracle: walk every distinct cycle in pure python
        inst = generate_grid(7, 32, 19)
        best = min(all_cycles(7), key=lambda t: tour_length(inst, t))
        res = brute_force_optimum(inst)
        assert res.optimum_value == tour_length(inst, best)
        assert res.optimum_tour == canonical_form(best)


class TestHeldKarp:
    def test_unit_square(self, square):
        assert held_karp_optimum(square).optimum_value == 4.0

    def test_agrees_with_brute_force_exactly(self):
        for seed in range(25):
            n = 5 + seed % 6  # 5..10
            inst = generate_grid(n, 64, 500 + seed)
            b = brute_force_optimum(inst)
            hk = held_karp_optimum(inst)
            assert hk.optimum_value == b.optimum_value
            assert tour_length(inst, hk.optimum_tour) == b.optimum_value

    def test_reconstructed_tour_has_reported_length(self):
        inst = generate_grid(13, 64, 29)
        res = held_karp_optimum(inst)
        assert tour_length(inst, res.optimum_tour) == res.optimum_value

    def test_too_large(self):
        inst = generate_grid(19, 64, 2)
        with pytest.raises(TooLargeError):
            held_karp_optimum(inst)

    @pytest.mark.parametrize("args", [(9, 5, 15), (9, 5, 26), (10, 6, 10)])
    def test_exact_ties_may_end_on_another_tour(self, args):
        # brute force and hull order break exact ties by canonical form;
        # Held-Karp's first-minimal-member rule reconstructs another
        # tour of the very same length
        inst = generate_grid(*args)
        b = brute_force_optimum(inst)
        ho = hull_order_optimum(inst)
        hk = held_karp_optimum(inst)
        assert b == dataclasses.replace(ho, method="brute")
        assert hk.optimum_value == b.optimum_value
        assert hk.optimum_tour != b.optimum_tour
        assert tour_length(inst, hk.optimum_tour) == b.optimum_value


class TestStrongestOracle:
    """strongest_oracle runs Held-Karp only where hull order would build
    more tours than a fifth of Held-Karp's (n-1)^2 2^(n-1) additions."""

    @staticmethod
    def _check(inst):
        n = inst.n
        res = strongest_oracle(inst)
        if n <= 16 and hull_order_count(inst) > (n - 1) ** 2 * 2 ** (n - 1) / 5:
            assert res.method == "held_karp"
        else:
            assert res.method == "hull_order"
        assert res.optimum_value == held_karp_optimum(inst).optimum_value

    @settings(max_examples=40)
    @given(tie_heavy_grid(13))
    def test_value_of_held_karp_on_tie_heavy_grids(self, coords):
        self._check(validate(coords))

    @settings(max_examples=40)
    @given(inner_instance())
    def test_value_of_held_karp_on_inner_instances(self, inst):
        assume(inst.n <= 16)
        self._check(inst)

    # above the budget (None): tests/test_cli.py::TestExperimentParts
    @pytest.mark.parametrize(
        "generate, args, method",
        [
            (generate_with_inner, (9, 3, 256, 180003), "hull_order"),  # 990 tours against 0.2 * 11^2 * 2^11
            # configs/grid_rls.cfg's n = 12 cell: h = 5, k = 7, 1,663,200 tours
            (generate_grid, (12, 64, 301009), "held_karp"),
            # n = 15, 240,240 tours: over 14 * 2^14, under 0.2 * 14^2 * 2^14 = 642,252.8
            (generate_with_inner, (10, 5, 144, 7), "hull_order"),
        ],
    )
    def test_method_follows_the_work_counts(self, generate, args, method):
        assert strongest_oracle(generate(*args)).method == method


class TestAgainstFrozenReferences:
    """The numpy oracles return the very OracleResult (value, canonical
    tour, method) of the scalar loops frozen in conftest."""

    @settings(max_examples=40)
    @given(tie_heavy_grid(12))
    def test_held_karp_tie_heavy_grids(self, coords):
        inst = validate(coords)
        assert held_karp_optimum(inst) == reference_held_karp(inst)

    @settings(max_examples=40)
    @given(tie_heavy_grid(10), st.sampled_from([1, 3, 4096]))
    # exact ties whose float-summed lengths differ in the last bits, so
    # a block keeping only its float minimum loses the canonical tour
    @example([(2, 2), (3, 2), (0, 0), (2, 3), (3, 6), (6, 1), (1, 5)], 4096)
    @example([(7, 7), (0, 0), (3, 7), (4, 5), (6, 2), (5, 6), (6, 4), (0, 4), (4, 2), (7, 1)], 4096)
    @example([(0, 3), (5, 0), (0, 5), (5, 5), (4, 3), (3, 0), (4, 4), (3, 4)], 4096)
    def test_hull_order_tie_heavy_grids(self, coords, block_rows):
        with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
            _assert_hull_order_matches_reference(validate(coords))

    @settings(max_examples=40)
    @given(tie_heavy_grid(8), st.sampled_from([1, 3, 4096]))
    # the pinned ties of test_hull_order_tie_heavy_grids
    @example([(2, 2), (3, 2), (0, 0), (2, 3), (3, 6), (6, 1), (1, 5)], 4096)
    @example([(7, 7), (0, 0), (3, 7), (4, 5), (6, 2), (5, 6), (6, 4), (0, 4), (4, 2), (7, 1)], 4096)
    @example([(0, 3), (5, 0), (0, 5), (5, 5), (4, 3), (3, 0), (4, 4), (3, 4)], 4096)
    def test_brute_tie_heavy_grids(self, coords, block_rows):
        inst = validate(coords)
        with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
            assert brute_force_optimum(inst) == reference_brute(inst)

    @settings(max_examples=40)
    @given(wide_points(8))
    def test_brute_at_the_32_bit_edge(self, coords):
        inst = validate(coords)
        assert brute_force_optimum(inst) == reference_brute(inst)

    @settings(max_examples=40)
    @given(inner_instance(), st.sampled_from([2, 4096]))
    def test_inner_instances(self, inst, block_rows):
        with mock.patch.object(oracle, "_BLOCK_ROWS", block_rows):
            _assert_hull_order_matches_reference(inst)
        if inst.n <= 12:
            assert held_karp_optimum(inst) == reference_held_karp(inst)

    @settings(max_examples=40)
    @given(wide_points(10))
    def test_coordinates_at_the_32_bit_edge(self, coords):
        inst = validate(coords)
        assert held_karp_optimum(inst) == reference_held_karp(inst)
        _assert_hull_order_matches_reference(inst)

    def test_largest_benchmark_shape(self):
        # (12, 5) spans eight blocks of rows at the default block size
        inst = generate_with_inner(12, 5, 1024, 3)
        assert hull_order_optimum(inst) == reference_hull_order(inst)

    def test_budget_counts_the_tours_built(self):
        # (13, 5) builds 13 * 14 * ... * 17 = 742,560 tours, within the
        # budget, although the paper's bound C(18, 5) * 5! is 1,028,160
        inst = generate_with_inner(13, 5, 1024, 3)
        assert hull_order_count(inst) == 742_560 < oracle._INTERLEAVING_BUDGET < interleaving_count(inst)
        expected = reference_hull_order(inst)
        assert hull_order_optimum(inst) == expected
        assert strongest_oracle(inst) == expected

    @pytest.mark.parametrize("block_rows", [1, 7, 4096])
    def test_only_near_optimal_tours_are_confirmed(self, monkeypatch, block_rows):
        # the exact tour_length confirms go to tours within the float
        # window of the global minimum, not to every block's best
        inst = generate_with_inner(10, 3, 1024, 11)
        opt = hull_order_optimum(inst).optimum_value
        near = sum(
            tour_length(inst, t) <= opt * (1 + 2e-9) for t in hull_order_tours(inst)
        )
        calls = []

        def counting(instance, tour):
            calls.append(tour)
            return tour_length(instance, tour)

        expected = reference_hull_order(inst)
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(oracle, "tour_length", counting)
        assert hull_order_optimum(inst) == expected
        assert 1 <= len(calls) <= near


class TestOracleMemory:
    def test_held_karp_n18_peak(self):
        inst = generate_with_inner(15, 3, 1024, 5)
        assert inst.n == 18
        inst.distance_matrix  # built before the measurement
        tracemalloc.start()
        try:
            res = held_karp_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert res.optimum_value == hull_order_optimum(inst).optimum_value

    def test_brute_force_n11_peak(self):
        inst = generate_grid(11, 64, 3)
        inst.distance_matrix  # built before the measurement
        tracemalloc.start()
        try:
            res = brute_force_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert res.optimum_value == held_karp_optimum(inst).optimum_value

    def test_hull_order_budget_checked_before_any_array(self):
        inst = generate_with_inner(5, 9, 512, 31)
        tracemalloc.start()
        try:
            with pytest.raises(TooLargeError):
                hull_order_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestHullOrderTours:
    def test_count_matches_insertion_formula(self):
        inst = generate_with_inner(5, 2, 256, 17)
        # inserting k points one at a time after any element gives
        # h(h+1)...(h+k-1) sequences
        tours = list(hull_order_tours(inst))
        assert len(tours) == 5 * 6 == hull_order_count(inst)
        assert len(set(tours)) == len(tours)
        assert all(respects_hull_order(inst, t) for t in tours)

    def test_convex_single_tour(self):
        inst = generate_convex(6, 64, 5)
        assert list(hull_order_tours(inst)) == [inst.hull]


class TestHullOrderOptimum:
    def test_convex_returns_hull(self):
        inst = generate_convex(7, 64, 6)
        res = hull_order_optimum(inst)
        assert res.optimum_tour == canonical_form(inst.hull)

    def test_agrees_with_held_karp_n10_k2(self):
        inst = generate_with_inner(8, 2, 256, 23)
        assert inst.n == 10 and inst.inner_count == 2
        a = hull_order_optimum(inst)
        b = held_karp_optimum(inst)
        assert a.optimum_value == b.optimum_value
        assert tour_length(inst, a.optimum_tour) == tour_length(inst, b.optimum_tour)

    def test_agrees_with_held_karp_n14_beyond_brute(self):
        inst = generate_with_inner(12, 2, 256, 27)
        assert inst.n == 14
        a = hull_order_optimum(inst)
        b = held_karp_optimum(inst)
        assert a.optimum_value == b.optimum_value

    def test_budget_exceeded(self):
        inst = generate_with_inner(5, 9, 512, 31)
        assert interleaving_count(inst) > 10**6
        with pytest.raises(TooLargeError):
            hull_order_optimum(inst)


class TestEnumerateIntersectionFree:
    def test_convex_has_exactly_one(self):
        inst = generate_convex(5, 64, 7)
        tours = enumerate_intersection_free(inst)
        assert tours == [canonical_form(inst.hull)]

    def test_matches_full_cycle_space_enumeration(self):
        # independent oracle: filter the whole cycle space with the
        # rational-arithmetic predicate
        for maker, args in (
            (validate, ([(0, 0), (4, 0), (2, 4), (2, 1)],)),  # triangle + inner, n=4 k=1
            (validate, ([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)],)),  # square + center
            (generate_with_inner, (6, 2, 256, 33)),
        ):
            inst = maker(*args)
            n = inst.n
            expected = sorted(
                canonical_form(t)
                for t in all_cycles(n)
                if crossing_count_fractions(inst, t) == 0
            )
            assert enumerate_intersection_free(inst) == expected
            assert len(expected) <= interleaving_count(inst)

    def test_all_respect_hull_order(self):
        inst = generate_with_inner(6, 2, 256, 35)
        for t in enumerate_intersection_free(inst):
            assert respects_hull_order(inst, t)

    def test_count_bound(self):
        for seed in (41, 42, 43):
            inst = generate_with_inner(6, 2, 256, seed)
            tours = enumerate_intersection_free(inst)
            assert len(tours) <= interleaving_count(inst)


class TestCrossOracleAgreement:
    def test_three_way_equality(self):
        for seed in range(8):
            inst = generate_grid(9, 64, 700 + seed)
            values = {
                brute_force_optimum(inst).optimum_value,
                held_karp_optimum(inst).optimum_value,
                hull_order_optimum(inst).optimum_value,
            }
            assert len(values) == 1

    def test_optimum_is_crossing_free_and_hull_ordered(self):
        for seed in (51, 52):
            inst = generate_grid(9, 64, seed)
            res = held_karp_optimum(inst)
            assert is_intersection_free(inst, res.optimum_tour)
            assert respects_hull_order(inst, res.optimum_tour)


class TestJumpsToOptimum:
    def test_at_most_k_jumps_reach_optimum(self):
        for seed in (61, 62, 63):
            inst = generate_with_inner(6, 2, 256, seed)
            k = inst.inner_count
            target = hull_order_optimum(inst).optimum_tour
            for t in enumerate_intersection_free(inst):
                jumps = jumps_to_optimum(inst, t, target)
                assert len(jumps) <= k
                x = t
                for i, j in jumps:
                    x = apply_jump(x, i, j)
                assert canonical_form(x) == target

    def test_expansion_to_at_most_2k_inversions(self):
        inst = generate_with_inner(7, 2, 256, 67)
        k = inst.inner_count
        target = hull_order_optimum(inst).optimum_tour
        for t in enumerate_intersection_free(inst):
            jumps = jumps_to_optimum(inst, t, target)
            x = t
            moves = 0
            for i, j in jumps:
                for a, b in jump_as_inversions(i, j):
                    x = apply_inversion(x, a, b)
                    moves += 1
            assert moves <= 2 * k
            assert canonical_form(x) == target

    def test_zero_jumps_for_convex(self):
        inst = generate_convex(6, 64, 9)
        target = hull_order_optimum(inst).optimum_tour
        assert jumps_to_optimum(inst, inst.hull, target) == []

    def test_rejects_hull_breaking_tour(self):
        inst = generate_convex(6, 64, 9)
        t = list(inst.hull)
        t[1], t[3] = t[3], t[1]
        with pytest.raises(ValueError):
            jumps_to_optimum(inst, tuple(t), inst.hull)

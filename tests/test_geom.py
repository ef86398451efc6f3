import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplab import (
    Point,
    convex_hull,
    gamma_of,
    generate_grid,
    grid_angle_lower_bound,
    instance_metrics,
    orient,
    segments_properly_intersect,
)
from tsplab.errors import CollinearTripleError, DuplicatePointError, TooSmallError
from tsplab.geom import first_collinear_triple
from tsplab.rng import Xoshiro256StarStar

from conftest import brute_hull, frac_segments_cross, triple_scan_collinear, triple_scan_metrics


def P(x, y, pid=0):
    return Point(pid, x, y)


class TestOrient:
    def test_left_turn(self):
        assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_collinear(self):
        assert orient(P(0, 0), P(1, 0), P(2, 0)) == 0

    def test_right_turn(self):
        assert orient(P(0, 0), P(0, 1), P(1, 1)) == -1

    def test_antisymmetric_in_last_two_args(self):
        rng = Xoshiro256StarStar(17)
        for _ in range(500):
            pts = [P(rng.randbelow(2001) - 1000, rng.randbelow(2001) - 1000) for _ in range(3)]
            assert orient(pts[0], pts[1], pts[2]) == -orient(pts[0], pts[2], pts[1])

    def test_exact_at_32bit_extremes(self):
        big = 2**31 - 1
        # barely-left turn that float arithmetic would misjudge
        assert orient(P(-big, -big), P(big, big - 1), P(big, big)) == 1
        assert orient(P(-big, -big), P(0, 0), P(big, big)) == 0


class TestProperIntersection:
    def test_square_diagonals_cross(self):
        assert segments_properly_intersect(P(0, 0), P(2, 2), P(0, 2), P(2, 0))

    def test_disjoint_segments(self):
        assert not segments_properly_intersect(P(0, 0), P(1, 1), P(2, 0), P(3, 1))

    def test_shared_endpoint_is_not_proper(self):
        assert not segments_properly_intersect(P(0, 0), P(1, 1), P(1, 1), P(2, 0))

    def test_symmetry(self):
        rng = Xoshiro256StarStar(23)
        for _ in range(300):
            a, b, c, d = [P(rng.randbelow(50), rng.randbelow(50), i) for i in range(4)]
            r = segments_properly_intersect(a, b, c, d)
            assert r == segments_properly_intersect(c, d, a, b)
            assert r == segments_properly_intersect(b, a, c, d)
            assert r == segments_properly_intersect(a, b, d, c)

    def test_at_most_one_matching_crosses(self):
        # of the three perfect matchings of four points, at most one
        # crosses, and a crossing pair's replacements never cross
        rng = Xoshiro256StarStar(29)
        checked = 0
        while checked < 200:
            inst_pts = []
            taken = set()
            while len(inst_pts) < 4:
                cand = (rng.randbelow(64), rng.randbelow(64))
                if cand in taken:
                    continue
                taken.add(cand)
                inst_pts.append(P(cand[0], cand[1], len(inst_pts) + 1))
            if any(
                orient(u, v, w) == 0 for u, v, w in itertools.combinations(inst_pts, 3)
            ):
                continue
            checked += 1
            a, b, c, d = inst_pts
            matchings = [
                segments_properly_intersect(a, b, c, d),
                segments_properly_intersect(a, c, b, d),
                segments_properly_intersect(a, d, b, c),
            ]
            assert sum(matchings) <= 1

    def test_agrees_with_rational_predicate(self):
        rng = Xoshiro256StarStar(31)
        for _ in range(500):
            a, b, c, d = [P(rng.randbelow(40), rng.randbelow(40), i) for i in range(4)]
            if len({(p.x, p.y) for p in (a, b, c, d)}) < 4:
                continue
            assert segments_properly_intersect(a, b, c, d) == frac_segments_cross(a, b, c, d)


class TestConvexHull:
    def test_square_ccw_from_lex_smallest(self):
        pts = [P(0, 0, 1), P(2, 0, 2), P(2, 2, 3), P(0, 2, 4)]
        assert convex_hull(pts) == (1, 2, 3, 4)

    def test_interior_point_excluded(self):
        pts = [P(0, 0, 1), P(4, 0, 2), P(4, 4, 3), P(0, 4, 4), P(2, 1, 5)]
        assert convex_hull(pts) == (1, 2, 3, 4)

    def test_too_few_points(self):
        with pytest.raises(TooSmallError):
            convex_hull([P(0, 0, 1), P(1, 1, 2)])

    def test_against_half_plane_oracle(self):
        for seed in range(20):
            inst = generate_grid(7, 16, 1000 + seed)
            assert set(convex_hull(inst.points)) == brute_hull(inst.points)

    def test_against_half_plane_oracle_larger(self):
        for seed in range(15):
            inst = generate_grid(12, 64, 2000 + seed)
            hull = convex_hull(inst.points)
            assert set(hull) == brute_hull(inst.points)
            # counterclockwise: every consecutive triple turns left
            pts = {p.id: p for p in inst.points}
            h = len(hull)
            for i in range(h):
                assert orient(pts[hull[i]], pts[hull[(i + 1) % h]], pts[hull[(i + 2) % h]]) == 1


class TestInstanceMetrics:
    def test_triangle_epsilon_matches_per_triple_oracle(self):
        pts = [P(0, 0, 1), P(2, 0, 2), P(1, 2, 3)]
        m = instance_metrics(pts)
        # independent per-triple angle computation via acos of the dot product
        angles = []
        for u, v, w in itertools.permutations(pts, 3):
            ax, ay = u.x - v.x, u.y - v.y
            bx, by = w.x - v.x, w.y - v.y
            dot = ax * bx + ay * by
            na = math.hypot(ax, ay)
            nb = math.hypot(bx, by)
            angles.append(math.acos(dot / (na * nb)))
        assert m.epsilon == pytest.approx(min(angles), abs=1e-12)

    def test_unit_square(self):
        pts = [P(0, 0, 1), P(1, 0, 2), P(1, 1, 3), P(0, 1, 4)]
        m = instance_metrics(pts)
        assert m.d_min == 1.0
        assert m.d_max == math.sqrt(2.0)
        assert m.epsilon == pytest.approx(math.pi / 4, abs=1e-15)

    def test_gamma_arithmetic(self):
        # eps = pi/3: cos = 1/2, so gamma = (2/1 - 1) * (1/2) / (1/2) = 1
        assert gamma_of(1.0, 2.0, math.pi / 3) == pytest.approx(1.0, abs=1e-12)

    def test_min_uncross_gain_positive(self):
        for seed in range(5):
            inst = generate_grid(8, 32, 3000 + seed)
            assert inst.metrics.min_uncross_gain > 0.0

    def test_collinear_triple_rejected(self):
        with pytest.raises(CollinearTripleError):
            instance_metrics([P(0, 0, 1), P(1, 1, 2), P(2, 2, 3), P(0, 2, 4)])

    def test_duplicate_point_rejected(self):
        with pytest.raises(DuplicatePointError) as err:
            instance_metrics([P(0, 0, 1), P(3, 1, 2), P(0, 0, 3), P(1, 3, 4)])
        assert err.value.labels == (1, 3)


_MAX_COORD = 2**31 - 1


def _point_sets(coord):
    return st.lists(st.tuples(coord, coord), min_size=3, max_size=12, unique=True)


# small grids hold many collinear triples; the scaled ones put them at
# large coordinates, where directions need their gcd reduction
_coord_sets = st.one_of(
    _point_sets(st.integers(0, 4)),
    _point_sets(st.integers(-20, 20)),
    _point_sets(st.integers(-_MAX_COORD, _MAX_COORD)),
    st.builds(
        lambda cs, scale, ox, oy: [(ox + scale * x, oy + scale * y) for x, y in cs],
        _point_sets(st.integers(0, 5)),
        st.integers(1, 2**28),
        st.integers(-(2**29), 2**29),
        st.integers(-(2**29), 2**29),
    ),
)


class TestAgainstTripleScans:
    """The O(n^2) collinearity check and the angular sweep against the
    O(n^3) triple scans in conftest."""

    @settings(max_examples=400, deadline=None)
    @given(_coord_sets)
    def test_first_collinear_triple(self, coords):
        assert first_collinear_triple(coords) == triple_scan_collinear(coords)

    def test_directions_atan2_cannot_order(self):
        # three directions from the origin with one float atan2 value
        # (cross products 1); ordered by atan2 alone, the smallest gap
        # is not measured and epsilon comes out over twice too large
        coords = [(0, 0), (597592487, 543017063), (229206983, 208274544), (826799470, 751291607), (-79, -8)]
        assert len({math.atan2(y, x) for x, y in coords[1:4]}) == 1
        pts = [P(x, y, i + 1) for i, (x, y) in enumerate(coords)]
        assert instance_metrics(pts) == triple_scan_metrics(pts)

    @settings(max_examples=400, deadline=None)
    @given(_coord_sets)
    def test_instance_metrics_bit_identical(self, coords):
        pts = [P(x, y, i + 1) for i, (x, y) in enumerate(coords)]
        try:
            expected = triple_scan_metrics(pts)
        except CollinearTripleError as exc:
            with pytest.raises(CollinearTripleError) as err:
                instance_metrics(pts)
            assert err.value.labels == exc.labels
        else:
            # dataclass equality compares all five fields with ==
            assert instance_metrics(pts) == expected


class TestGridAngleBound:
    def test_closed_form_small_m(self):
        assert grid_angle_lower_bound(3) == pytest.approx(0.46365, abs=1e-5)
        assert grid_angle_lower_bound(3) == pytest.approx(math.atan(1 / 2), abs=1e-15)
        assert grid_angle_lower_bound(4) == pytest.approx(0.12435, abs=1e-5)
        assert grid_angle_lower_bound(4) == pytest.approx(math.atan(1 / 8), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            grid_angle_lower_bound(2)

    def test_generated_instances_respect_bound(self):
        # small sample here; the acceptance suite runs 1000 instances
        for seed in range(30):
            m = (8, 32, 128)[seed % 3]
            inst = generate_grid(8, m, 4000 + seed)
            assert inst.metrics.epsilon >= grid_angle_lower_bound(m)

    def test_minimum_slope_difference_closed_form(self):
        # exhaustive check of the closed form for small m: the minimum
        # positive value of (ad-cb)/(bd+ac) over slope pairs a/b, c/d
        # with entries in 0..m-1 equals 1/(2(m-2)^2) for m >= 4. At m=3
        # the true minimum is 1/3 (slopes 1/1 vs 1/2), smaller than the
        # closed form's 1/2, so the m=3 value is not a certified bound.
        from fractions import Fraction

        def brute_min(m):
            best = None
            for a, b, c, d in itertools.product(range(m), repeat=4):
                if b == 0 or d == 0:
                    continue
                num = a * d - c * b
                if num <= 0:
                    continue
                v = Fraction(num, b * d + a * c)
                if best is None or v < best:
                    best = v
            return best

        for m in (4, 5, 6, 7):
            assert brute_min(m) == Fraction(1, 2 * (m - 2) ** 2)
        assert brute_min(3) == Fraction(1, 3)

    def test_cos_ratio_stable_for_tiny_angles(self):
        eps = grid_angle_lower_bound(10000)
        from tsplab.geom import cos_ratio

        assert math.cos(eps) == 1.0  # the naive difference would divide by zero
        assert cos_ratio(eps) == pytest.approx(2.0 / eps**2, rel=1e-6)

    def test_cos_ratio_bounded_by_m4(self):
        # cos(eps)/(1-cos(eps)) at the grid bound grows like m^4: the
        # ratio against m^4 is monotone and stays under 8
        from tsplab.geom import cos_ratio

        prev = 0.0
        for m in [3, 4, 5, 8, 16, 64, 256, 1024, 10000]:
            ratio = cos_ratio(grid_angle_lower_bound(m)) / m**4
            assert prev <= ratio <= 8.0
            prev = ratio

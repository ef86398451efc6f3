import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsplab import (
    Point,
    convex_hull,
    gamma_of,
    generate_convex,
    generate_grid,
    generate_with_inner,
    grid_angle_lower_bound,
    orient,
    segments_properly_intersect,
    validate,
)
from tsplab.errors import CollinearTripleError, TooSmallError
from tsplab import geom
from tsplab.geom import distance, first_collinear_triple, properly_cross
from tsplab.rng import Xoshiro256StarStar

from conftest import brute_hull, frac_segments_cross, triple_scan_collinear, triple_scan_metrics


def P(x, y, pid=0):
    return Point(pid, x, y)


# three corners at the 32-bit edge and one point inside: with int64
# coordinates the orientation products overflow
_WRAPPING_CORNERS = [(-(2**31) + 1, -(2**31) + 1), (2**31 - 1, -(2**31) + 2), (0, 2**31 - 1), (5, 3)]


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

    def test_numpy_coordinates_give_the_python_int_signs(self):
        # int64 cross products wrap at these coordinates; pytest turns the
        # overflow warning into an error, so this also checks none is raised
        pts = [P(*c) for c in _WRAPPING_CORNERS]
        wide = [P(np.int64(x), np.int64(y)) for x, y in _WRAPPING_CORNERS]
        for i, j, k in itertools.permutations(range(4), 3):
            assert orient(wide[i], wide[j], wide[k]) == orient(pts[i], pts[j], pts[k])


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

    def test_numpy_coordinates_give_the_python_int_hull(self):
        pts = [P(x, y, i) for i, (x, y) in enumerate(_WRAPPING_CORNERS, start=1)]
        wide = [P(np.int64(x), np.int64(y), i) for i, (x, y) in enumerate(_WRAPPING_CORNERS, start=1)]
        assert convex_hull(wide) == convex_hull(pts) == (1, 2, 3)

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
        m = validate(pts).metrics
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
        m = validate(pts).metrics
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


_HALF = 2**30


@st.composite
def _four_points(draw):
    """Coordinates of a, b, c, d anywhere in +-(2^31 - 1), or within one
    unit of a common line (some exactly on it); sometimes c or d is an
    endpoint of ab."""
    ox, oy = draw(st.integers(-_HALF, _HALF)), draw(st.integers(-_HALF, _HALF))
    vx, vy = draw(st.integers(-(2**15), 2**15)), draw(st.integers(-(2**15), 2**15))
    near_line = draw(st.booleans())
    pts = []
    for _ in range(4):
        if near_line:
            t = draw(st.integers(-(2**14), 2**14))
            pts.append((ox + t * vx + draw(st.integers(-1, 1)), oy + t * vy + draw(st.integers(-1, 1))))
        else:
            pts.append((draw(st.integers(-_MAX_COORD, _MAX_COORD)), draw(st.integers(-_MAX_COORD, _MAX_COORD))))
    if draw(st.booleans()):
        i, j = draw(st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 1)]))
        pts[i] = pts[j]
    return pts


class TestProperlyCrossAgainstFractions:
    @settings(max_examples=1000)
    @given(_four_points())
    def test_matches_rational_intersection(self, pts):
        a, b, c, d = (P(x, y) for x, y in pts)
        assert properly_cross(*(v for xy in pts for v in xy)) == frac_segments_cross(a, b, c, d)


class TestAgainstTripleScans:
    """The O(n^2) collinearity check and the angular sweep against the
    O(n^3) triple scans in conftest."""

    @settings(max_examples=400)
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
        assert validate(pts).metrics == triple_scan_metrics(pts)

    @settings(max_examples=400)
    @given(_coord_sets)
    def test_instance_metrics_bit_identical(self, coords):
        pts = [P(x, y, i + 1) for i, (x, y) in enumerate(coords)]
        try:
            expected = triple_scan_metrics(pts)
        except CollinearTripleError as exc:
            # validate names the lexicographically first triple in label order
            with pytest.raises(CollinearTripleError) as err:
                validate(pts)
            assert err.value.labels == tuple(sorted(exc.labels))
        else:
            # dataclass equality compares all five fields with ==
            assert validate(pts).metrics == expected

    @pytest.mark.parametrize("n", [3, 8, 20, 40])
    @pytest.mark.parametrize(
        "generate",
        [
            lambda n, seed: generate_grid(n, 64, seed),
            lambda n, seed: generate_convex(n, 8 * n, seed),
            lambda n, seed: generate_with_inner(n - n // 4, n // 4, 256, seed),
        ],
        ids=["grid", "convex", "inner"],
    )
    def test_generated_instances_bit_identical(self, generate, n):
        # generators return validated instances; their metrics read
        # d_min and d_max from the distance matrix, the oracle measures
        # every pair itself
        for seed in range(3):
            inst = generate(n, 7000 + seed)
            assert inst.metrics == triple_scan_metrics(inst.points)


# coordinate spans on either side of the int64 limit of the numpy set-up
# code (geom._exact_coords), up to the widest one validate accepts
_SPANS = [2**30 - 2, 2**30 - 1, 2**30, 2**30 + 1, 2**32 - 2]


@st.composite
def _spanning_sets(draw):
    """(span, coords): 3 to 12 distinct points inside +-(2^31 - 1) whose x
    coordinates span exactly span; the y span is at most that."""
    span = draw(st.sampled_from(_SPANS))
    lo = draw(st.integers(-_MAX_COORD, _MAX_COORD - span))
    c = st.integers(lo, lo + span)
    rest = draw(st.lists(st.tuples(c, c), min_size=1, max_size=10))
    coords = list(dict.fromkeys([(lo, draw(c)), (lo + span, draw(c)), *rest]))
    assume(len(coords) >= 3)
    return span, coords


def _labelled(coords):
    return [P(x, y, i + 1) for i, (x, y) in enumerate(coords)]


def _assert_set_up_bit_identical(coords):
    """The first collinear triple, and validate's error, or for a
    collinear-free set the metrics and every distance, equal the conftest
    triple scans and distance()."""
    triple = triple_scan_collinear(coords)
    assert first_collinear_triple(coords) == triple
    pts = _labelled(coords)
    if triple is not None:
        with pytest.raises(CollinearTripleError) as err:
            validate(pts)
        assert err.value.labels == tuple(i + 1 for i in triple)
        return
    inst = validate(pts)
    assert inst.metrics == triple_scan_metrics(pts)
    assert inst.distance_matrix == tuple(distance(p, q) for p in pts for q in pts)


class TestNumpySetUp:
    """The numpy distance matrix, collinearity check and angular sweep
    against the scalar references, on both integer types, across chunks
    of _ROWS points, and where floats cannot decide."""

    @settings(max_examples=200)
    @given(_spanning_sets())
    def test_both_integer_types(self, case):
        span, coords = case
        xs, ys = zip(*coords)
        assert geom._exact_coords(xs, ys).dtype == (np.int64 if span < 2**30 else object)
        _assert_set_up_bit_identical(coords)

    def test_32_bit_edge(self):
        _assert_set_up_bit_identical(_WRAPPING_CORNERS)
        _assert_set_up_bit_identical(
            [(-_MAX_COORD, -_MAX_COORD), (_MAX_COORD, -_MAX_COORD + 1), (1, _MAX_COORD)]
        )

    @pytest.mark.parametrize("n", [3, geom._ROWS, geom._ROWS + 1])
    def test_chunk_edges(self, n):
        for seed in range(3):
            _assert_set_up_bit_identical([(p.x, p.y) for p in generate_grid(n, 1024, 7100 + seed).points])

    def test_collinear_triple_in_a_later_chunk(self):
        # the only collinear triple starts at 0-based point 32, the first
        # point of the second chunk: 34 grid points and the mirror image
        # of point 32 in point 33
        coords = [(p.x, p.y) for p in generate_grid(34, 4096, 7200).points]
        (x0, y0), (x1, y1) = coords[32:]
        coords.append((2 * x1 - x0, 2 * y1 - y0))
        assert triple_scan_collinear(coords) == (32, 33, 34)
        _assert_set_up_bit_identical(coords)

    def test_equal_float_slopes_that_are_not_collinear(self):
        # from point 0 two directions with cross product -1 have the same
        # float slope, so row 0 has a repeat the exact scan must clear
        a, b, c, d = 2**31 - 1, 2**31 - 2, 2**31 - 2, 2**31 - 3
        assert b / a == d / c and a * d - b * c == -1
        fooled = [(0, 0), (a, b), (c, d)]
        _assert_set_up_bit_identical(fooled)
        coords = [*fooled, (5, 100), (6, 200), (7, 300)]
        assert triple_scan_collinear(coords) == (3, 4, 5)
        _assert_set_up_bit_identical(coords)

    def test_rows_the_presort_misorders_are_repaired(self, monkeypatch):
        # test_directions_atan2_cannot_order's five points after 32 points
        # of a small grid far away: the vertices with the three directions
        # that share one atan2 value sit in the second chunk
        far = [(p.x - 2**31 + 1, p.y + 2**30) for p in generate_grid(32, 64, 7300).points]
        tied = [(0, 0), (597592487, 543017063), (229206983, 208274544), (826799470, 751291607), (-79, -8)]
        calls = []
        key = geom._exact_angle_key

        def counting(d):
            calls.append(d)
            return key(d)

        monkeypatch.setattr(geom, "_exact_angle_key", counting)
        _assert_set_up_bit_identical(far + tied)
        assert calls


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

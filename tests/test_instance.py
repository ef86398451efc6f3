import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import tsplab.instance
from tsplab import (
    Point,
    convex_hull,
    generate_convex,
    generate_grid,
    generate_with_inner,
    grid_angle_lower_bound,
    orient,
    read_instance,
    read_tour,
    validate,
    write_instance,
    write_tour,
)
from tsplab.errors import (
    CollinearTripleError,
    DuplicatePointError,
    GenerationExhaustedError,
    ParseError,
    TooSmallError,
)

from tsplab.instance import RETRY_BUDGET, Instance
from tsplab.rng import Xoshiro256StarStar

from conftest import brute_hull


def count_generator_work(monkeypatch, gen, *args):
    """gen(*args) with its raw draws and collinearity checks counted:
    (instance or the GenerationExhaustedError raised, draws, checks)."""
    counts = {"draws": 0, "checks": 0}
    check = tsplab.instance.collinear_with_any

    class Counting(Xoshiro256StarStar):
        def next_u64(self):
            counts["draws"] += 1
            return Xoshiro256StarStar.next_u64(self)

    def counted_check(coords, cand):
        counts["checks"] += 1
        return check(coords, cand)

    with monkeypatch.context() as mp:
        mp.setattr(tsplab.instance, "Xoshiro256StarStar", Counting)
        mp.setattr(tsplab.instance, "collinear_with_any", counted_check)
        try:
            result = gen(*args)
        except GenerationExhaustedError as exc:
            result = exc
    return result, counts["draws"], counts["checks"]


class TestValidate:
    def test_square(self):
        inst = validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert inst.n == 4
        assert inst.inner_count == 0
        assert inst.hull == (1, 2, 3, 4)

    def test_collinear_triple(self):
        with pytest.raises(CollinearTripleError) as err:
            validate([(0, 0), (1, 1), (2, 2), (0, 2)])
        assert err.value.labels == (1, 2, 3)

    def test_interior_point(self):
        inst = validate([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
        assert inst.inner_count == 1
        assert inst.inner_labels == (5,)

    def test_duplicate(self):
        with pytest.raises(DuplicatePointError) as err:
            validate([(0, 0), (3, 1), (0, 0), (1, 3)])
        assert err.value.labels == (1, 3)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            validate([(0, 0), (1, 0)])

    def test_grid_range_enforced(self):
        with pytest.raises(ValueError):
            validate([(0, 0), (5, 1), (1, 5)], grid_size=4)

    def test_coordinate_magnitude_enforced(self):
        with pytest.raises(ValueError):
            validate([(0, 0), (2**31, 1), (1, 3)])

    def test_points_input_relabeled(self):
        inst = validate([Point(9, 0, 0), Point(9, 2, 0), Point(9, 1, 2)])
        assert [p.id for p in inst.points] == [1, 2, 3]

    def test_point_takes_labels_1_to_n_only(self):
        inst = validate([(0, 0), (2, 0), (1, 2)])
        assert [inst.point(label) for label in (1, 3)] == [inst.points[0], inst.points[2]]
        for label in (0, -1, -3, 4):
            with pytest.raises(ValueError, match=f"got {label}"):
                inst.point(label)

    # near the corners of the 32-bit range: orientation products pass
    # 2^63, so int64 arithmetic would wrap
    EDGE_POINTS = [(-(2**31) + 1, -(2**31) + 1), (2**31 - 1, -(2**31) + 2), (0, 2**31 - 1), (5, 3)]

    def test_numpy_integer_coordinates_are_python_ints(self):
        exact = validate(self.EDGE_POINTS)
        as_int64 = validate([tuple(np.int64(v) for v in p) for p in self.EDGE_POINTS])
        assert exact.hull == as_int64.hull == (1, 2, 3)
        assert all(type(v) is int for p in as_int64.points for v in p)
        assert as_int64.metrics == exact.metrics
        assert as_int64.distance_matrix == exact.distance_matrix
        assert validate([Point(1, np.int32(3), np.int16(0)), (0, 0), (1, 2)]).hull == validate([(3, 0), (0, 0), (1, 2)]).hull

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_non_integer_coordinate_named(self, bad):
        with pytest.raises(ValueError, match="point 2: coordinate"):
            validate([(0, 0), (bad, 5), (1, 3)])
        with pytest.raises(ValueError, match="point 3: coordinate"):
            validate([(0, 0), (2, 5), (1, bad)])


@pytest.mark.parametrize(
    "generate,sizes", [(generate_grid, (5,)), (generate_convex, (5,)), (generate_with_inner, (5, 2))], ids=["grid", "convex", "inner"]
)
def test_grid_side_above_2_31_rejected_before_any_draw(monkeypatch, generate, sizes):
    def no_draws(seed):
        raise AssertionError("drew before checking m")

    monkeypatch.setattr(tsplab.instance, "Xoshiro256StarStar", no_draws)
    for m in (2**31 + 1, 2**32, 10**23):
        with pytest.raises(ValueError, match=f"m={m}"):
            generate(*sizes, m, 1)


class TestGenerateGrid:
    def test_deterministic(self):
        a = generate_grid(10, 100, 1)
        b = generate_grid(10, 100, 1)
        assert a == b
        assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]

    def test_pigeonhole_exhaustion(self):
        with pytest.raises(GenerationExhaustedError):
            generate_grid(10, 3, 1)

    @pytest.mark.parametrize("n,m,seed", [(10, 3, 1), (7, 3, 2), (10, 5, 1), (20, 8, 3)])
    def test_full_grid_fails_far_below_the_budget(self, monkeypatch, n, m, seed):
        # once no free cell is admissible, m^2 more rejected candidates
        # (two draws each) and one scan end the run
        result, draws, _ = count_generator_work(monkeypatch, generate_grid, n, m, seed)
        assert isinstance(result, GenerationExhaustedError)
        assert "no free cell is admissible" in str(result)
        assert draws < RETRY_BUDGET // 1000

    # instances whose generation scans the free cells, finds one admissible
    # and draws on; coordinates as the generator gave them before the scan
    @pytest.mark.parametrize(
        "n,m,seed,coords",
        [
            (8, 5, 0, [(0, 2), (3, 2), (2, 3), (4, 3), (3, 4), (2, 0), (0, 4), (4, 0)]),
            (9, 5, 15, [(2, 2), (1, 0), (4, 1), (3, 0), (0, 4), (2, 4), (1, 1), (0, 2), (4, 3)]),
            (12, 7, 17, [(1, 3), (6, 4), (5, 1), (5, 2), (2, 2), (0, 3), (6, 5), (2, 1), (4, 6), (1, 6), (0, 0), (4, 5)]),
        ],
    )
    def test_scan_with_an_admissible_cell_keeps_drawing(self, monkeypatch, n, m, seed, coords):
        inst, draws, checks = count_generator_work(monkeypatch, generate_grid, n, m, seed)
        assert [(p.x, p.y) for p in inst.points] == coords
        # every candidate is checked at most once, so extra checks are a scan
        assert checks > draws // 2

    def test_output_valid_and_angle_bounded(self):
        inst = generate_grid(20, 64, 7)
        revalidated = validate([(p.x, p.y) for p in inst.points], grid_size=64)
        assert revalidated == inst
        assert inst.metrics.epsilon >= grid_angle_lower_bound(64)

    def test_coordinates_in_grid(self):
        inst = generate_grid(12, 16, 3)
        assert all(0 <= p.x < 16 and 0 <= p.y < 16 for p in inst.points)


class TestGenerateConvex:
    def test_all_points_on_hull(self):
        inst = generate_convex(8, 128, 3)
        assert inst.inner_count == 0
        # recompute the hull directly rather than trusting the instance
        assert set(convex_hull(inst.points)) == set(range(1, 9))

    def test_triangle(self):
        inst = generate_convex(3, 32, 0)
        assert inst.n == 3
        assert inst.inner_count == 0

    def test_deterministic(self):
        assert generate_convex(6, 64, 11) == generate_convex(6, 64, 11)

    def test_headroom_enforced(self):
        with pytest.raises(ValueError):
            generate_convex(10, 64, 0)


class TestGenerateWithInner:
    def test_counts(self):
        inst = generate_with_inner(6, 2, 256, 5)
        assert inst.n == 8
        assert len(inst.hull) == 6
        assert inst.inner_count == 2
        assert set(convex_hull(inst.points)) == set(inst.hull)

    def test_k_zero_matches_convex_family(self):
        inst = generate_with_inner(5, 0, 128, 2)
        assert inst.inner_count == 0

    def test_inner_points_strictly_inside(self):
        inst = generate_with_inner(7, 3, 256, 9)
        hull_pts = [inst.point(lbl) for lbl in inst.hull]
        h = len(hull_pts)
        for lbl in inst.inner_labels:
            p = inst.point(lbl)
            # hull winds strictly around p: every hull edge sees it left
            assert all(
                orient(hull_pts[i], hull_pts[(i + 1) % h], p) == 1 for i in range(h)
            )

    @pytest.mark.parametrize("h,k", [(3, 0), (5, 2), (8, 4), (12, 3), (9, 1)])
    def test_exact_hull_and_inner_counts(self, h, k):
        inst = generate_with_inner(h, k, 8 * h + 64, seed=h * 100 + k)
        assert len(inst.hull) == h
        assert inst.inner_count == k

    def test_hull_matches_half_plane_oracle(self):
        inst = generate_with_inner(6, 3, 256, 21)
        assert set(inst.hull) == brute_hull(inst.points)

    @pytest.mark.parametrize("h,k,m,seed", [(3, 30, 24, 1), (4, 40, 32, 1)])
    def test_full_interior_fails_far_below_the_budget(self, monkeypatch, h, k, m, seed):
        # the interior fills after about 500 and 1300 candidates (two raw
        # draws each); m^2 more rejected candidates and one scan end the run
        result, draws, _ = count_generator_work(monkeypatch, generate_with_inner, h, k, m, seed)
        assert isinstance(result, GenerationExhaustedError)
        assert "no free cell is admissible" in str(result)
        assert draws < RETRY_BUDGET // 100


class TestPinnedOutput:
    """Generator output and epsilon pinned by value: a change to the
    rejection checks that moves one RNG draw changes the coordinates."""

    @pytest.mark.parametrize(
        "gen,args,coords_sha256,epsilon_repr",
        [
            (generate_grid, (64, 1024, 1), "8ccb381941fd4cc6bd05d2c0a03c842a28a20fec6872af99a591e739d174096b", "7.046918370926515e-05"),
            (generate_grid, (64, 1024, 2), "f9d5bf4c523ddbb3e1d9dbf2bc53a581ce2880a0634176977994b73823c2cee1", "1.5298356190433734e-05"),
            (generate_grid, (128, 1024, 1), "f3cf6495451ad090336174b23eb17b8620cee899a9207fae92c592816821ea70", "2.0475984741267554e-06"),
            (generate_grid, (128, 1024, 2), "4e9ae099858ca35364d5ff96b422f8925a9376f8c6956eb9f04124a4780b92c1", "4.3869077125943074e-06"),
            (generate_grid, (256, 1024, 1), "f2adfd2074ab2b48b90098312194ac566cce141b5ce5ed1352fb0efe048eb0a8", "1.3245331351824018e-06"),
            (generate_grid, (256, 1024, 2), "f23060902632e5007a4169dd09bd5a0860bcb6d97668b7f6c0f3e7ef6817feb3", "2.891477082144589e-06"),
            (generate_with_inner, (9, 3, 256, 1), "cc6192eeca6f521e2333237a78bd67acbbd2b3c76b1e285e71bc07b5687503db", "0.006566616564056038"),
            (generate_with_inner, (9, 3, 256, 2), "5037b3e188058cce4a19db03638aedcd15174e9980e484c543ead5e01fcd1681", "0.00735280866669081"),
            (generate_convex, (32, 512, 1), "f674dabee32fcc070e83e65f298287092c110f470044af7ac6723b5b07590779", "0.07500354651707766"),
            (generate_convex, (32, 512, 2), "c6c7e58afeb581a795fcb8811d3e32da45235361ce92999170d4c30165eb6821", "0.07604355927911707"),
        ],
    )
    def test_coordinates_and_epsilon(self, gen, args, coords_sha256, epsilon_repr):
        inst = gen(*args)
        text = "".join(f"{p.x} {p.y}\n" for p in inst.points)
        assert hashlib.sha256(text.encode()).hexdigest() == coords_sha256
        assert repr(inst.metrics.epsilon) == epsilon_repr


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        inst = generate_grid(9, 32, 13)
        path = tmp_path / "a.tsp"
        write_instance(inst, path)
        again = read_instance(path)
        assert again == inst
        assert again.grid_size == 32

    def test_free_form_round_trip(self, tmp_path):
        inst = validate([(0, 0), (7, 1), (3, 9)])
        path = tmp_path / "free.tsp"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsp"
        path.write_text("3 0\n0 0\n1 0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_instance(path)

    def test_collinear_file(self, tmp_path):
        path = tmp_path / "col.tsp"
        path.write_text("3 0\n0 0\n1 1\n2 2\n", encoding="utf-8")
        with pytest.raises(CollinearTripleError):
            read_instance(path)

    def test_out_of_range_coordinate(self, tmp_path):
        path = tmp_path / "range.tsp"
        path.write_text("3 4\n0 0\n9 1\n1 3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_instance(path)

    def test_coordinate_beyond_32_bits_free_form(self, tmp_path):
        path = tmp_path / "big.tsp"
        path.write_text(f"3 0\n0 0\n{2**31} 1\n1 3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            read_instance(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "row.tsp"
        path.write_text("3 0\n0 0\n1\n2 2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_instance(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 0\n0 0\n1 0\n0 1\n\n", "^line 5: blank line$"),
            ("3 0\n0 0\n\n1 0\n0 1\n", "^line 3: blank line$"),
            ("3 0\n0 0\n  \n1 0\n\n", "^expected 3 coordinate rows, found 2$"),
        ],
    )
    def test_blank_line_named(self, tmp_path, text, message):
        path = tmp_path / "blank.tsp"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            read_instance(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("٣ 0\n0 0\n1 0\n0 1\n", "^line 1: non-integer header"),
            ("3 0\n0 0\n1_0 0\n0 1\n", "^line 3: non-integer coordinate"),
            ("3 0\n0 0\n1 0\n0 ５\n", "^line 4: non-integer coordinate"),
            ("3 0\n0 0\n1 0\n0 1.0\n", "^line 4: non-integer coordinate"),
            (f"3 0\n0 0\n1 0\n0 {'9' * 5000}\n", "^line 4: non-integer coordinate"),
        ],
    )
    def test_non_ascii_integer_rejected(self, tmp_path, text, message):
        path = tmp_path / "digits.tsp"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            read_instance(path)

    def test_signs_and_leading_zeros_accepted(self, tmp_path):
        path = tmp_path / "signs.tsp"
        path.write_text("+3 00\n-1 0\n+1 0\n00 1\n", encoding="utf-8")
        assert read_instance(path) == validate([(-1, 0), (1, 0), (0, 1)])

    def test_trailing_content_rejected(self, tmp_path):
        path = tmp_path / "trail.tsp"
        path.write_text("3 0\n0 0\n1 0\n0 1\nextra 1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_instance(path)


class TestTourFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.tour"
        write_tour((3, 1, 4, 2, 5), path)
        assert read_tour(path) == (3, 1, 4, 2, 5)

    def test_not_a_permutation(self, tmp_path):
        path = tmp_path / "t.tour"
        path.write_text("1 2 2 4\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_tour(path)

    @pytest.mark.parametrize("bad", ["٣", "３", "1_0", "+-2", "2.0"])
    def test_non_ascii_label_rejected(self, tmp_path, bad):
        path = tmp_path / "t.tour"
        path.write_text(f"1 2\n{bad} 4\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 2: non-integer label"):
            read_tour(path)

    def test_multi_line_tour(self, tmp_path):
        path = tmp_path / "t.tour"
        path.write_text("3 1\n\n+4\t2\n", encoding="utf-8")
        assert read_tour(path) == (3, 1, 4, 2)


class TestMetrics:
    def test_calls_the_instance_metrics_bound_at_call_time(self, monkeypatch):
        # the benchmark times metrics by rebinding tsplab.instance.instance_metrics
        inst = generate_grid(6, 32, 1)
        calls = []

        def spy(points, distances):
            calls.append((points, distances))
            return "spied"

        monkeypatch.setattr(tsplab.instance, "instance_metrics", spy)
        assert inst.metrics == "spied"
        assert len(calls) == 1
        assert calls[0][0] is inst.points and calls[0][1] is inst.distance_array


class TestDistanceMatrix:
    def test_symmetric_and_exact(self):
        inst = generate_grid(8, 32, 5)
        n = inst.n
        d = inst.distance_matrix
        for i in range(n):
            assert d[i * n + i] == 0.0
            for j in range(n):
                assert d[i * n + j] == d[j * n + i]
                p, q = inst.points[i], inst.points[j]
                assert d[i * n + j] == math.sqrt((p.x - q.x) ** 2 + (p.y - q.y) ** 2)

    @pytest.mark.parametrize("points", [
        [(0, 0), (3, 0), (0, 4), (5, 7)],
        [(-(2**31 - 1), 5), (2**31 - 1, -(2**31 - 1)), (7, 2**31 - 1), (2**31 - 2, 2**31 - 3)],
    ])
    def test_distance_array_is_the_matrix_read_only(self, points):
        inst = validate(points)
        n = inst.n
        arr = inst.distance_array
        assert arr.dtype == np.float64 and arr.shape == (n, n)
        assert arr.tolist() == [list(inst.distance_matrix[i * n:(i + 1) * n]) for i in range(n)]
        assert inst.distance_array is arr
        with pytest.raises(ValueError):
            arr[0, 1] = 1.0
        with pytest.raises(ValueError):
            arr.ravel()[1] = 1.0


class TestSetUpMemory:
    def test_transient_peaks_at_n_256(self):
        # the numpy set-up builds _ROWS rows of pairs at a time: about
        # 0.6 MiB above what the matrix keeps and 1.0 MiB for the metrics,
        # where whole n x n temporaries took about 10 MiB; the matrix keeps
        # its array, the tuple and one float per unordered pair (1.75 MiB)
        inst = generate_grid(256, 1024, 5)
        fresh = Instance(inst.points, inst.grid_size, inst.hull)
        mib = 2**20
        tracemalloc.start()
        try:
            fresh.distance_matrix
            kept, peak = tracemalloc.get_traced_memory()
            assert kept < 1.8 * mib and peak - kept < 1.5 * mib
            tracemalloc.reset_peak()
            fresh.metrics
            after, peak = tracemalloc.get_traced_memory()
            assert peak - after < 1.5 * mib
        finally:
            tracemalloc.stop()

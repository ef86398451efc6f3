import functools
import gc
import itertools
import subprocess
import sys
import weakref

import numpy as np
import pytest
import test_search_reference
from conftest import cli_env, counting_class, scalar_xoshiro_stream, splitmix64_state
from hypothesis import given, settings
from hypothesis import strategies as st
from test_search_reference import reference_ea, reference_rls

import tsplab.search
from tsplab import generate_grid, generate_with_inner, run_ea, run_rls
from tsplab.oracle import held_karp_optimum
from tsplab.rng import _BLOCK, _FIRST_PIECE, Xoshiro256StarStar


def test_known_state_outputs():
    # by-hand evaluation of the update rule from state (1, 2, 3, 4)
    rng = Xoshiro256StarStar.from_state(1, 2, 3, 4)
    assert rng.next_u64() == 11520
    assert rng.next_u64() == 0
    assert rng.next_u64() == 1509978240


def test_determinism_and_outputs_64bit():
    a = Xoshiro256StarStar(12345)
    b = Xoshiro256StarStar(12345)
    seq_a = [a.next_u64() for _ in range(100)]
    seq_b = [b.next_u64() for _ in range(100)]
    assert seq_a == seq_b
    assert all(0 <= v < 2**64 for v in seq_a)
    assert Xoshiro256StarStar(12346).next_u64() != seq_a[0]


def test_randbelow_range_and_coverage():
    rng = Xoshiro256StarStar(7)
    counts = [0] * 10
    for _ in range(20000):
        counts[rng.randbelow(10)] += 1
    assert all(1700 <= c <= 2300 for c in counts)


def test_randbelow_one_consumes_nothing():
    rng = Xoshiro256StarStar(7)
    first = Xoshiro256StarStar(7).next_u64()
    assert rng.randbelow(1) == 0
    assert rng.next_u64() == first


def test_randbelow_rejects_bad_bound():
    rng = Xoshiro256StarStar(0)
    with pytest.raises(ValueError):
        rng.randbelow(0)
    # above 2^64 the rejection limit would be 0, and no draw would pass
    for bound in (2**64 + 1, 10**23):
        with pytest.raises(ValueError):
            rng.randbelow(bound)
    assert rng.randbelow(2**64) == Xoshiro256StarStar(0).next_u64()


def test_seed_with_a_zero_state_word():
    # 2^64 - gamma: SplitMix64's first state is 0, so its first word is 0;
    # the other three are not, and the generator starts from those words
    seed = 7046029254386353131
    words = splitmix64_state(seed)
    assert words[0] == 0 and all(words[1:])
    rng, same = Xoshiro256StarStar(seed), Xoshiro256StarStar.from_state(*words)
    assert [rng.next_u64() for _ in range(600)] == [same.next_u64() for _ in range(600)]


def test_uniform_in_unit_interval():
    rng = Xoshiro256StarStar(99)
    vals = [rng.uniform() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.45 < sum(vals) / len(vals) < 0.55


def test_shuffle_is_permutation_and_deterministic():
    rng = Xoshiro256StarStar(3)
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    again = list(range(20))
    Xoshiro256StarStar(3).shuffle(again)
    assert items == again


def take(stream, count):
    return list(itertools.islice(stream, count))


# the stream positions where a fresh generator starts a new block or piece
BOUNDARIES = [_FIRST_PIECE, _BLOCK, 2 * _BLOCK, 3 * _BLOCK]


def words_of(state: int) -> list[int]:
    """The 256-bit `state` as four words; bit b is bit b % 64 of word b // 64."""
    return [(state >> (64 * w)) & ((1 << 64) - 1) for w in range(4)]


class TestBlockStream:
    """The block-filled stream equals the scalar reference word for word."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_seeded_stream_across_block_boundaries(self, seed):
        count = 3 * _BLOCK + 5
        rng = Xoshiro256StarStar(seed)
        got = [rng.next_u64() for _ in range(count)]
        assert got == take(scalar_xoshiro_stream(*splitmix64_state(seed)), count)

    @pytest.mark.parametrize("bit", [0, 1, 63, 64, 100, 127, 128, 191, 192, 254, 255])
    @pytest.mark.parametrize("popcount", [1, 255])
    def test_hand_set_states(self, bit, popcount):
        state = 1 << bit if popcount == 1 else (1 << 256) - 1 - (1 << bit)
        words = words_of(state)
        rng = Xoshiro256StarStar.from_state(*words)
        count = 2 * _BLOCK + 1
        assert [rng.next_u64() for _ in range(count)] == take(scalar_xoshiro_stream(*words), count)

    @settings(max_examples=200)
    @given(state=st.integers(1, 2**256 - 1))
    def test_random_states(self, state):
        words = words_of(state)
        rng = Xoshiro256StarStar.from_state(*words)
        count = _BLOCK + 3
        assert [rng.next_u64() for _ in range(count)] == take(scalar_xoshiro_stream(*words), count)

    def test_randbelow_one_consumes_nothing_at_block_boundary(self):
        for boundary in BOUNDARIES:
            rng = Xoshiro256StarStar(7)
            expected = take(scalar_xoshiro_stream(*splitmix64_state(7)), boundary + 1)
            assert [rng.next_u64() for _ in range(boundary)] == expected[:boundary]
            assert rng.randbelow(1) == 0
            assert rng.next_u64() == expected[boundary]

    def test_first_block_comes_in_two_pieces(self):
        assert BOUNDARIES[:2] == [256, _BLOCK]

    @pytest.mark.parametrize(
        "words", [(0, 0, 0, 0), (2**64, 0, 0, 0), (1, -1, 0, 0)], ids=["zero", "too-large", "negative"]
    )
    def test_from_state_rejects(self, words):
        with pytest.raises(ValueError):
            Xoshiro256StarStar.from_state(*words)


class TestOverrideContract:
    """An overriding subclass sees every draw of the library and keeps its
    trajectories."""

    def test_methods_draw_through_next_u64(self):
        counter = [0]
        rng = counting_class(counter)(3)
        plain = Xoshiro256StarStar(3)
        assert rng.randbelow(66) == plain.randbelow(66)
        assert counter == [1]
        assert rng.uniform() == plain.uniform()
        assert counter == [2]
        items, again = list(range(10)), list(range(10))
        rng.shuffle(items)
        plain.shuffle(again)
        assert items == again
        assert counter[0] == 2 + 9
        assert rng.next_u64() == plain.next_u64()

    def test_shuffle_rejects_words_as_randbelow_does(self):
        # six items draw for the bounds 6, 5, 4, 3, 2. The limit 2^64 - 2^64 % 6
        # is 2^64 - 4 and that of 5 is 2^64 - 1, so their first words are drawn
        # again; 4 divides 2^64, so 2^64 - 1 is a word bound 4 takes. The
        # picks are 13 % 6, 21 % 5, top % 4, 34 % 3, 55 % 2 = 1, 1, 3, 1, 1
        top = 2**64 - 1
        words = [top - 1, 13, top, 21, top, 34, 55]

        class Scripted(Xoshiro256StarStar):
            def __init__(self):
                super().__init__(0)
                self.at = 0

            def next_u64(self):
                self.at += 1
                return words[self.at - 1]

        rng, by_randbelow = Scripted(), Scripted()
        items, again = list(range(6)), list(range(6))
        rng.shuffle(items)
        for i in range(5, 0, -1):
            j = by_randbelow.randbelow(i + 1)
            again[i], again[j] = again[j], again[i]
        assert items == again == [0, 2, 4, 3, 5, 1]
        assert rng.at == by_randbelow.at == len(words)

    def counted(self, monkeypatch, module, run):
        counter = [0]
        with monkeypatch.context() as m:
            m.setattr(module, "Xoshiro256StarStar", counting_class(counter))
            result = run()
        return result, counter[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rls_draw_count(self, monkeypatch, seed):
        inst = generate_grid(8, 64, 301)
        fast, fast_draws = self.counted(monkeypatch, tsplab.search, lambda: run_rls(inst, 1500, seed))
        slow, slow_draws = self.counted(
            monkeypatch, test_search_reference, lambda: reference_rls(inst, 1500, seed)
        )
        assert fast == slow == run_rls(inst, 1500, seed)
        assert fast_draws == slow_draws >= fast.generations + inst.n - 1

    def marked_run(self, monkeypatch, inst, budget, seed, optimum_value=None):
        """check_marking's run, whose draw count (n - 1 + generations, which
        check_marking counts through counting_class) must be reference_rls's."""
        result = test_search_reference.check_marking(monkeypatch, inst, budget, seed, optimum_value)
        _, slow_draws = self.counted(
            monkeypatch, test_search_reference, lambda: reference_rls(inst, budget, seed, optimum_value)
        )
        assert slow_draws == inst.n - 1 + result[0].generations
        return result

    def test_rls_draw_count_on_a_batched_run(self, monkeypatch):
        inst = generate_grid(64, 1024, 305)
        _, _, marked = self.marked_run(monkeypatch, inst, 25000, 6)
        assert test_search_reference.steps_on_marks(marked) > 12500

    def test_rls_draw_count_on_a_walked_run(self, monkeypatch):
        # an idle n = 12 run: nearly every step is priced from marks, and
        # many of them take the full reversal, (2, n) and (1, n-1)
        inst = generate_grid(12, 64, 7)
        fast, made, marked = self.marked_run(monkeypatch, inst, 20000, 2)
        assert test_search_reference.steps_on_marks(marked) > fast.generations // 2
        kept = test_search_reference.cycle_kept(inst.n, test_search_reference.marked_steps(made, marked))
        assert len(kept) > 100

    def test_rls_draw_count_on_young_batches(self, monkeypatch):
        # n = 24, parked on the optimal cycle by a value just below the
        # optimum: marked stretches take moves that keep the cycle, and
        # the optimum check runs on the (2, n) and (1, n-1) among them
        inst, value = test_search_reference.parked_below(20, 4, 1)
        n = inst.n
        _, made, marked = self.marked_run(monkeypatch, inst, 20000, 2, optimum_value=value)
        moves = {move for move, _ in test_search_reference.cycle_kept(n, test_search_reference.marked_steps(made, marked))}
        assert (1, n) in moves and moves & {(2, n), (1, n - 1)}

    @pytest.mark.parametrize("mu,lam,kind", [(1, 1, "two_opt"), (1, 1, "mixed"), (4, 8, "mixed")])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_ea_draw_count(self, monkeypatch, mu, lam, kind, seed):
        inst = generate_with_inner(7, 2, 256, 303)
        opt = held_karp_optimum(inst).optimum_value
        ea = dict(budget=300, seed=seed, mu=mu, lam=lam, mutation=kind, optimum_value=opt)
        fast, fast_draws = self.counted(monkeypatch, tsplab.search, lambda: run_ea(inst, **ea))
        slow, slow_draws = self.counted(monkeypatch, test_search_reference, lambda: reference_ea(inst, **ea))
        assert fast == slow == run_ea(inst, **ea)
        assert fast_draws == slow_draws > fast.generations * lam


# skip counts around the first block's two pieces and the block size
SKIP_COUNTS = [0, 255, 256, 257, 508, 509, 2048, 5000]


@functools.cache
def interleaved_stream() -> list[int]:
    """Enough words of seed 31 for any of test_skip_interleaved's op lists."""
    return take(scalar_xoshiro_stream(*splitmix64_state(31)), 16000)


class TestPeekAndSkip:
    @pytest.mark.parametrize("consumed", [0, 1, 63, 64, 255, 256, 507, 508, 900])
    @pytest.mark.parametrize("count", [0, 1, 65, 700])
    def test_peek_is_the_next_words_and_consumes_nothing(self, consumed, count):
        expected = take(scalar_xoshiro_stream(*splitmix64_state(11)), consumed + count + 1)
        rng = Xoshiro256StarStar(11)
        for _ in range(consumed):
            rng.next_u64()
        words = rng.peek(count)
        assert words.dtype == np.uint64 and words.shape == (count,)
        assert words.tolist() == expected[consumed:consumed + count]
        assert rng.peek(count).tolist() == words.tolist()
        assert [rng.next_u64() for _ in range(count + 1)] == expected[consumed:]

    @pytest.mark.parametrize("consumed,count", [(0, 0), (0, 64), (10, 500), (60, 1000)])
    def test_skip_consumes_exactly(self, consumed, count):
        expected = take(scalar_xoshiro_stream(*splitmix64_state(13)), consumed + count + 2)
        rng = Xoshiro256StarStar(13)
        rng.skip(consumed)
        rng.peek(count + 1)
        rng.skip(count)
        assert [rng.next_u64(), rng.next_u64()] == expected[consumed + count:]

    @pytest.mark.parametrize("count", SKIP_COUNTS)
    def test_fresh_skip_by_block(self, count):
        expected = take(scalar_xoshiro_stream(*splitmix64_state(23)), count + 600)
        rng = Xoshiro256StarStar(23)
        rng.skip(count)
        # a skip by block hands no block to the draw chain
        assert rng._source.now is None
        assert rng.peek(3).tolist() == expected[count:count + 3]
        assert [rng.next_u64() for _ in range(600)] == expected[count:]

    @pytest.mark.parametrize("consumed", [0, 10, 300, 508])
    @pytest.mark.parametrize("count", [255, 256, 600, 1016, 1300, 3000])
    def test_skip_into_and_past_peeked_blocks(self, consumed, count):
        # from a fresh generator, peek(700) computes the blocks up to word
        # 1016 ahead: the skips end inside, at the end of and past them
        expected = take(scalar_xoshiro_stream(*splitmix64_state(29)), consumed + count + 600)
        rng = Xoshiro256StarStar(29)
        for _ in range(consumed):
            rng.next_u64()
        rng.peek(700)
        rng.skip(count)
        assert rng.peek(5).tolist() == expected[consumed + count:consumed + count + 5]
        assert [rng.next_u64() for _ in range(600)] == expected[consumed + count:]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["skip", "next_u64", "randbelow", "peek"]),
                st.sampled_from([0, 1, 2, 3, 255, 256, 257, 508, 509, 700, 1300]),
            ),
            max_size=12,
        )
    )
    def test_skip_interleaved(self, ops):
        expected = interleaved_stream()
        rng = Xoshiro256StarStar(31)
        pos = 0
        for op, k in ops:
            if op == "skip":
                rng.skip(k)
                pos += k
            elif op == "next_u64":
                for _ in range(k % 300):
                    assert rng.next_u64() == expected[pos]
                    pos += 1
            elif op == "randbelow":
                bound = k + 2
                limit = 2**64 - 2**64 % bound
                while expected[pos] >= limit:
                    pos += 1
                assert rng.randbelow(bound) == expected[pos] % bound
                pos += 1
            else:
                assert rng.peek(k).tolist() == expected[pos:pos + k]
        assert rng.next_u64() == expected[pos]

    @pytest.mark.parametrize("consumed", [0, 1])
    def test_negative_counts_rejected(self, consumed):
        rng = Xoshiro256StarStar(19)
        rng.skip(consumed)
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            rng.peek(-1)
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            rng.skip(-1)
        assert rng.next_u64() == Xoshiro256StarStar(19).peek(consumed + 1)[-1]

    def test_counting_override_counts_what_skip_consumes(self):
        for count in [250, *SKIP_COUNTS]:
            counter = [0]
            rng = counting_class(counter)(17)
            plain = Xoshiro256StarStar(17)
            assert rng.peek(300).tolist() == plain.peek(300).tolist()
            assert counter == [0]
            rng.skip(count)
            assert counter == [count]
            plain.skip(count)
            assert rng.next_u64() == plain.next_u64()
            assert counter == [count + 1]


class TestMemory:
    def test_dropped_generator_freed_without_gc(self):
        # a block generator holding the Xoshiro256StarStar object would
        # form a cycle that only a full collection frees
        class Weak(Xoshiro256StarStar):
            pass

        gc.disable()
        try:
            rng = Weak(5)
            rng.next_u64()
            ref = weakref.ref(rng)
            del rng
            assert ref() is None
        finally:
            gc.enable()

    def test_peeked_generator_freed_without_gc(self):
        class Weak(Xoshiro256StarStar):
            pass

        gc.disable()
        try:
            rng = Weak(5)
            rng.peek(700)
            rng.skip(100)
            # a skip by block, past the blocks peeked and into two more
            rng.skip(1900)
            rng.next_u64()
            ref = weakref.ref(rng)
            del rng
            assert ref() is None
        finally:
            gc.enable()

    def test_import_builds_no_table(self):
        code = (
            "import tsplab, tsplab.rng as r; r.Xoshiro256StarStar(1); "
            "print(r._table.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.strip() == "0"

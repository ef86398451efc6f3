"""Deterministic random number generation.

The generator is xoshiro256** (Blackman/Vigna) seeded through SplitMix64.
Both algorithms are frozen here: a given 64-bit seed yields the identical
stream in every release and on every platform. Integer sampling uses
rejection, never plain modulo, so draws are exactly uniform. Floats come
from the top 53 bits and are only used where a real-valued threshold is
part of an operator's definition.

Block generation. The stream is the one a word-at-a-time loop gives, but
it is produced `_BLOCK` outputs at a time in numpy. xoshiro256's state
transition A is linear over GF(2) on the 256 state bits (only XOR, shift
and rotate), the fact its jump functions rest on (Blackman and Vigna,
"Scrambled Linear Pseudorandom Number Generators", ACM TOMS 47(4), 2021).
So the state t steps after a state S is the XOR, over the set bits b of
S, of the state t steps after the basis state e_b. One table, built once
per process on the first draw by stepping the 256 basis states as numpy
uint64 lanes, holds in row b what a block needs of bit b:

- columns t < `_BLOCK`: word 1 of A^t e_b. XOR-reducing the rows of the
  set bits gives word 1 of every state in the block, and the output
  scrambler `rotl(5 * s1, 7) * 9 mod 2^64` is applied to all of them in
  uint64;
- the last four columns: the four words of A^`_BLOCK` e_b, so the same
  reduction gives the state after the block.

`_BLOCK` = 508 makes the table 256 rows of 512 words, 1 MiB. A block
costs one gather-and-reduce over the rows of the set bits (about 128)
and one `tolist`, a small part of what 508 big-int steps cost, and
numpy is imported by the package anyway. A generator's first block is
computed in two pieces, words 0-255 and then the rest, each from its own
column range of the same rows: a generator that makes at most 256 draws
(an instance generator, a short run) reads half the rows' bytes, and a
longer one pays one more gather-and-reduce call, but no more bytes.

Each generator's blocks come from a generator function that holds only
the four state words, never the `Xoshiro256StarStar` object: a reference
back to it would make a cycle, and every dropped generator would keep
its block alive until a full garbage collection. An instance draws
through the C-level `__next__` of `itertools.chain.from_iterable` over
one list iterator per block. `next_u64` is a class-level descriptor that
hands out that `__next__` on an instance, so `rng.next_u64()` runs no
Python frame, and that stays callable on the class, so
`Xoshiro256StarStar.next_u64(self)` works in a subclass that overrides
the method (a draw-counting wrapper, say). `randbelow`, `uniform`,
`shuffle` and `skip` draw through `self.next_u64`, so such an override
sees every draw.

Peeking. `peek(k)` returns the next k words, as a uint64 array, without
consuming them. A `_Source` keeps the block the draw chain reads, with
its list iterator, whose length hint says how many of its words are
left; `peek` reads those, and computes the blocks after it ahead, which
the chain then takes in turn. A draw still costs one C-level call and
nothing more. A caller can price words in numpy, then consume exactly
the ones it used through `skip`. `peek` bypasses `next_u64`, so an
override of `next_u64` may observe draws but must not alter them: `peek`
would still show the unaltered words.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
_INV_2_53 = 2.0 ** -53

_BLOCK = 508
# a generator's first block is computed in two pieces, of this many words
# and of the rest
_FIRST_PIECE = 256
# state words as little-endian uint64, so that their bytes unpack to bit
# b = 64 * word + bit on every platform
_U64 = np.dtype("<u8")


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


@functools.cache
def _table() -> np.ndarray:
    """The (256, `_BLOCK` + 4) table of the module docstring."""
    lanes = np.zeros((4, 256), dtype=_U64)
    for b in range(256):
        lanes[b // 64, b] = 1 << (b % 64)
    # s0..s3 are views: every step below updates `lanes` in place
    s0, s1, s2, s3 = lanes
    table = np.empty((256, _BLOCK + 4), dtype=_U64)
    for t in range(_BLOCK):
        table[:, t] = s1
        shifted = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= shifted
        s3[:] = _rotl(s3, 45)
    table[:, _BLOCK:] = lanes.T
    return table


def _scramble(x: np.ndarray) -> np.ndarray:
    """The outputs whose word 1 is x (x is updated in place)."""
    x *= np.uint64(5)
    x = _rotl(x, 7)
    x *= np.uint64(9)
    return x


def _set_bits(state: np.ndarray) -> np.ndarray:
    """Row mask of the set bits of the four words `state`."""
    return np.unpackbits(state.view(np.uint8), bitorder="little").view(bool)


def _blocks(state: np.ndarray):
    """Successive output blocks from the four words `state`, as uint64
    arrays; the first block in two pieces (see the module docstring)."""
    table = _table()
    bits = _set_bits(state)
    yield _scramble(np.bitwise_xor.reduce(table[bits, :_FIRST_PIECE], axis=0))
    words = np.bitwise_xor.reduce(table[bits, _FIRST_PIECE:], axis=0)
    while True:
        state = words[-4:]
        yield _scramble(words[:-4])
        words = np.bitwise_xor.reduce(table[_set_bits(state)], axis=0)


class _Source:
    """A generator's blocks, for its draw chain and for `peek`.

    `feed` gives the chain one list iterator per block, taking the blocks
    `peek` computed ahead first; `now` and `now_words` are the block the
    chain reads and its list iterator, whose length hint is the number
    of its words not yet drawn. It holds no reference to the generator
    object (see the module docstring)."""

    __slots__ = ("blocks", "ahead", "now", "now_words")

    def __init__(self, state: np.ndarray):
        self.blocks = _blocks(state)
        self.ahead: collections.deque = collections.deque()
        self.now = None
        self.now_words = iter(())

    def feed(self):
        ahead, blocks = self.ahead, self.blocks
        while True:
            self.now = block = ahead.popleft() if ahead else next(blocks)
            self.now_words = words = iter(block.tolist())
            yield words

    def peek(self, k: int) -> np.ndarray:
        left = operator.length_hint(self.now_words)
        parts = [self.now[len(self.now) - left:]] if left else []
        have, i = left, 0
        while have < k:
            if i == len(self.ahead):
                self.ahead.append(next(self.blocks))
            parts.append(self.ahead[i])
            have += len(self.ahead[i])
            i += 1
        return np.concatenate(parts)[:k] if parts else np.empty(0, dtype=_U64)


class _Draw(property):
    """`next_u64`: the instance's C-level draw; callable on the class."""

    def __call__(self, rng: "Xoshiro256StarStar") -> int:
        return rng._next()


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 seed expansion."""

    __slots__ = ("_next", "_source")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            words.append(z ^ (z >> 31))
        if not any(words):
            # xoshiro requires a nonzero state; unreachable for SplitMix64
            # expansions of real seeds, kept as a guard
            words[0] = 1
        self._start(words)

    @classmethod
    def from_state(cls, s0: int, s1: int, s2: int, s3: int) -> "Xoshiro256StarStar":
        """A generator whose next output is computed from state (s0, s1, s2, s3)."""
        words = [s0, s1, s2, s3]
        if not all(0 <= w <= _MASK64 for w in words):
            raise ValueError(f"state words must lie in [0, 2^64), got {words}")
        if not any(words):
            raise ValueError("the all-zero state is not a xoshiro256 state")
        rng = cls.__new__(cls)
        rng._start(words)
        return rng

    def _start(self, words: list[int]) -> None:
        self._source = _Source(np.array(words, dtype=_U64))
        self._next = itertools.chain.from_iterable(self._source.feed()).__next__

    next_u64 = _Draw(operator.attrgetter("_next"), doc="Next raw 64-bit output.")

    def peek(self, k: int) -> np.ndarray:
        """The next k raw outputs as a uint64 array, without consuming them."""
        if k < 0:
            raise ValueError(f"count must be >= 0, got {k}")
        return self._source.peek(k)

    def skip(self, m: int) -> None:
        """Consume the next m raw outputs, each through `self.next_u64`."""
        if m < 0:
            raise ValueError(f"count must be >= 0, got {m}")
        collections.deque(itertools.islice(iter(self.next_u64, None), m), 0)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection (no modulo bias).

        bound == 1 returns 0 without consuming a draw.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        limit = _TWO64 - (_TWO64 % bound)
        u = self.next_u64()
        while u >= limit:
            u = self.next_u64()
        return u % bound

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        randbelow = self.randbelow
        for i in range(len(items) - 1, 0, -1):
            j = randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

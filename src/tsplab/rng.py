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
numpy is imported by the package anyway.

Each generator's blocks come from a generator function that holds only
the four state words, never the `Xoshiro256StarStar` object: a reference
back to it would make a cycle, and every dropped generator would keep
its block alive until a full garbage collection. An instance draws
through the C-level `__next__` of `itertools.chain.from_iterable` over
its blocks. `next_u64` is a class-level descriptor that hands out that
`__next__` on an instance, so `rng.next_u64()` runs no Python frame, and
that stays callable on the class, so `Xoshiro256StarStar.next_u64(self)`
works in a subclass that overrides the method (a draw-counting wrapper,
say). `randbelow`, `uniform` and `shuffle` draw through
`self.next_u64`, so such an override sees every draw.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
_INV_2_53 = 2.0 ** -53

_BLOCK = 508
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


def _blocks(state: np.ndarray):
    """Successive output blocks (lists of ints) from the four words `state`."""
    table = _table()
    five, nine = np.uint64(5), np.uint64(9)
    while True:
        bits = np.unpackbits(state.view(np.uint8), bitorder="little").view(bool)
        words = np.bitwise_xor.reduce(table[bits], axis=0)
        state = words[_BLOCK:]
        x = words[:_BLOCK]
        x *= five
        x = _rotl(x, 7)
        x *= nine
        yield x.tolist()


class _Draw(property):
    """`next_u64`: the instance's C-level draw; callable on the class."""

    def __call__(self, rng: "Xoshiro256StarStar") -> int:
        return rng._next()


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 seed expansion."""

    __slots__ = ("_next",)

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
        blocks = _blocks(np.array(words, dtype=_U64))
        self._next = itertools.chain.from_iterable(blocks).__next__

    next_u64 = _Draw(operator.attrgetter("_next"), doc="Next raw 64-bit output.")

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

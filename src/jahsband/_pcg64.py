"""numpy's ``SeedSequence`` and ``default_rng(seed)`` for scalar draws, bit
for bit in plain Python: the package's one PCG64, which the search (without
numpy) and the importance forest draw from. NEP 19 lets
numpy change a ``Generator`` stream between releases; this is the stream of
numpy 1.17 on (O'Neill's seed_seq_fe, PCG64 with XSL-RR output, Lemire's
bounded integers, Floyd's choice without replacement), and the tests pin
every draw against numpy's own."""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import index
from typing import Iterator, Sequence

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_DRAW = (0x8B51F9DD, 0x58F38DED)  # the output hash's constant and multiplier


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """A SeedSequence hash's constants: call k xors c[k], multiplies by c[k + 1]."""
    return list(accumulate(repeat(mult, n), lambda c, m: c * m & _MASK32, initial=init))


def _mix_plan(n_words: int) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """SeedSequence's pool hashes for ``n_words`` >= 4 entropy words: the
    constants of the 4 that fill the pool, then (src, dst, xor constant,
    multiplier) of each that mixes word src into pool word dst: every pool
    word into every other, then each later entropy word into all."""
    a = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * n_words)
    pairs = [(src, dst) for src in range(n_words) for dst in range(4) if dst != src]
    return a[:5], [(src, dst, a[k], a[k + 1]) for k, (src, dst) in enumerate(pairs, 4)]


_POOL_PLAN, _DRAW_TABLE = _mix_plan(4), _hash_constants(*_DRAW, 8)


def seed_words(entropy: int | Sequence[int], n: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n, np.uint64)`` as ints, for an
    int >= 0 or a sequence of them: their 32-bit words, low first, hashed
    into a pool of 4, mixed, then drawn from the pool in turn."""
    words: list[int] = []
    for value in map(index, (entropy,) if hasattr(entropy, "__index__") else entropy):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    words += [0] * (4 - len(words))  # a short entropy hashes zeros into the pool
    a, steps = _POOL_PLAN if len(words) == 4 else _mix_plan(len(words))
    pool = []
    for k in range(4):
        v = (words[k] ^ a[k]) * a[k + 1] & _MASK32
        pool.append(v ^ v >> 16)
    pool += words[4:]  # later words are mixed in as they are, never changed
    for src, dst, c, m in steps:
        v = (pool[src] ^ c) * m & _MASK32
        x = 0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16) & _MASK32
        pool[dst] = x ^ x >> 16
    b = _DRAW_TABLE if n <= 4 else _hash_constants(*_DRAW, 2 * n)
    out = []
    for k in range(0, 2 * n, 2):  # two 32-bit draws, little-endian, per word
        lo = (pool[k % 4] ^ b[k]) * b[k + 1] & _MASK32
        hi = (pool[k % 4 + 1] ^ b[k + 1]) * b[k + 2] & _MASK32
        out.append((lo ^ lo >> 16) | (hi ^ hi >> 16) << 32)
    return out


def pcg64_state(seed: int | Sequence[int]) -> tuple[int, int]:
    """(state, increment) of ``np.random.PCG64(seed)`` once seeded."""
    w0, w1, w2, w3 = seed_words(seed, 4)
    inc = (w2 << 64 | w3) << 1 | 1
    return ((w0 << 64 | w1) + inc) * PCG_MULT + inc & _MASK128, inc


def _words(state: int, inc: int, mult: int = PCG_MULT, m64: int = _MASK64,
           m128: int = _MASK128, twice: int = (1 << 64) + 1) -> Iterator[int]:
    """PCG64's raw words: step the LCG, then xor the state's halves and
    rotate right by its top 6 bits (a shift of the word written twice)."""
    while True:
        state = state * mult + inc & m128
        hi = state >> 64
        yield ((hi ^ state) & m64) * twice >> (hi >> 58) & m64


class PCG64:
    """``np.random.default_rng(seed)``'s ``random()``, ``integers()``,
    ``uniform()`` and ``choice(replace=False)``, each value and the stream's
    position as numpy's. A 32-bit draw takes a word's low half and keeps its
    high half for the next one, as numpy's PCG64 does; ``random()`` and
    64-bit draws take whole words."""

    __slots__ = ("_next", "_half")

    def __init__(self, seed: int | Sequence[int]) -> None:
        self._next = _words(*pcg64_state(seed)).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._next() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """``Generator.uniform(low, high)``: ``low + (high - low) * random()``,
        without numpy's argument checks."""
        return low + (high - low) * self.random()

    def _next32(self) -> int:
        half = self._half
        if half is None:
            word = self._next()
            self._half = word >> 32
            return word & _MASK32
        self._half = None
        return half

    def _below(self, n: int, wide: bool = False) -> int:
        """A draw under n >= 2: Lemire's multiply-shift on a 32-bit draw, or
        on a word if ``wide``, redrawn while the product's low bits are under
        2**bits % n (numpy tests against n first; 2**bits % n is below n, so
        the draws are the same). n == 2**bits is one plain draw."""
        if wide:
            bits, draw, mask = 64, self._next, _MASK64
        else:
            bits, draw, mask = 32, self._next32, _MASK32
        m = draw() * n
        if m & mask < n:
            threshold = (mask + 1 - n) % n
            while m & mask < threshold:
                m = draw() * n
        return m >> bits

    def integers(self, low: int, high: int | None = None) -> int:
        """``Generator.integers(low, high)`` in int64, or ``(0, low)``:
        :meth:`_below` on a 32-bit draw, or on a word for a range past
        2**32; a range of 1 draws nothing."""
        if high is None:
            low, high = 0, low
        n = high - low
        if n < 1 or low < -1 << 63 or high > 1 << 63:
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got {low}, {high}")
        return low + self._below(n, n > 1 << 32) if n > 1 else low

    def choice(self, d: int, k: int) -> list[int]:
        """``Generator.choice(d, size=k, replace=False)``, k <= d <= 10000:
        Floyd's selection (j on a repeat), then a Fisher-Yates shuffle."""
        below, picked = self._below, []
        for j in range(d - k, d):
            v = below(j + 1) if j else 0
            picked.append(j if v in picked else v)
        for i in range(k - 1, 0, -1):
            j = below(i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return picked


def stream(seed):
    """A :class:`PCG64` of an int seed; anything else is the stream itself,
    so a numpy ``Generator`` draws as before."""
    return PCG64(seed) if hasattr(seed, "__index__") else seed

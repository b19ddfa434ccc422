"""Frozen reference for the forest's draws.

A verbatim copy of ``jahsband.analysis._Draws`` from before draws were
taken in bulk: every bounded draw takes one 32-bit half at a time from an
iterator of Python ints, and every ``choice`` runs Floyd's selection and
the shuffle draw by draw. The tests compare the batched ``_Draws`` with
this module's :class:`Draws` on the same halves, call by call, so a draw
taken from the wrong half, or a batch that consumes a half the sequential
calls would not, shows up.
"""

from __future__ import annotations

from typing import Iterator

_MASK32 = 0xFFFFFFFF


class Draws:
    """``integers(n, size)`` and ``choice(d, k)`` of numpy's ``Generator``
    on a stream of 32-bit halves, one half at a time."""

    def __init__(self, halves: Iterator[int]) -> None:
        self._next32 = halves.__next__

    def _retry(self, m: int, n: int) -> int:
        threshold = (_MASK32 + 1 - n) % n
        while m & _MASK32 < threshold:
            m = self._next32() * n
        return m

    def integers(self, n: int, size: int) -> list[int]:
        if n == 1:
            return [0] * size
        next32, drawn = self._next32, []
        for _ in range(size):
            m = next32() * n
            drawn.append((m if m & _MASK32 >= n else self._retry(m, n)) >> 32)
        return drawn

    def choice(self, d: int, k: int) -> list[int]:
        next32, picked = self._next32, []
        for j in range(d - k, d):
            v = 0
            if j:
                m = next32() * (j + 1)
                v = (m if m & _MASK32 > j else self._retry(m, j + 1)) >> 32
            picked.append(j if v in picked else v)
        for i in range(k - 1, 0, -1):
            m = next32() * (i + 1)
            j = (m if m & _MASK32 > i else self._retry(m, i + 1)) >> 32
            picked[i], picked[j] = picked[j], picked[i]
        return picked

"""Deterministic work sharding for the multiprocess layer.

:func:`split_shards` cuts a sequence into at most ``n`` contiguous
chunks whose concatenation is the original sequence, so a caller that
merges shard results in shard order reproduces the serial iteration
order exactly, for *any* shard count.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def split_shards(items: Sequence[T], n: int) -> list[list[T]]:
    """Cut ``items`` into at most ``n`` contiguous, near-even shards.

    Empty shards are never produced; fewer than ``n`` shards come back
    when there are fewer items than shards.  ``concat(split_shards(x, n))
    == list(x)`` for every ``n >= 1``.
    """
    if n < 1:
        raise ValueError("shard count must be >= 1")
    total = len(items)
    if total == 0:
        return []
    n = min(n, total)
    base, remainder = divmod(total, n)
    shards: list[list[T]] = []
    start = 0
    for index in range(n):
        size = base + (1 if index < remainder else 0)
        shards.append(list(items[start:start + size]))
        start += size
    return shards


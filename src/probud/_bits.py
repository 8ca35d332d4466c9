"""Bitmask helpers shared by the exact subset-enumeration routines."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def mask_of(indices: Iterable[int]) -> int:
    """Encode a set of item indices as a bitmask."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MaskWeights(dict):
    """Total cost of item subsets encoded as bitmasks, looked up as
    ``weights[mask]``.

    Each mask's sum is taken over its set bits in ascending order on first
    use and memoized, so the table grows with the masks actually asked
    for rather than with 2^m.
    """

    def __init__(self, costs: Sequence[float]):
        super().__init__()
        self._costs = tuple(costs)

    def __missing__(self, mask: int) -> float:
        weight = self[mask] = sum(self._costs[i] for i in bits(mask))
        return weight

"""Bitmask helpers shared by the exact subset-enumeration routines.

Subset totals are summed in ascending item order here, as in
``Instance.weight``, so the same items always give the same float.
"""

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


def subsets_within(costs: Sequence[float], bound: float) -> Iterator[tuple[int, float]]:
    """Every item subset costing at most ``bound`` (non-negative), as
    ``(mask, total)``, in lexicographic order of the sorted index tuples.

    A preorder walk from an explicit stack, extending each subset only by
    items above its largest; no 2^m table is built.  Costs must be
    positive: a rounded sum then never shrinks as items are added, so a
    branch is pruned exactly when its next item passes the bound.
    """
    m = len(costs)
    stack = [(0, 0.0, 0)]
    while stack:
        mask, total, start = stack.pop()
        yield mask, total
        for k in range(m - 1, start - 1, -1):  # pushed last to first, so popped in order
            extended = total + costs[k]
            if extended <= bound:
                stack.append((mask | 1 << k, extended, k + 1))


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

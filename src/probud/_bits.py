"""Bitmask helpers and the ordered feasible-subset walk.

:func:`subsets_within` serves the callers that need every feasible
subset in lexicographic order, or need to know which ones are
exhaustive: budget enumeration, ``certify``, ``verify-implications``
and the CLI's ``enumerate`` all read its ``(mask, total, exhaustive)``
triples, and it decides exhaustiveness in one comparison per subset.
Tables of subsets whose order does not matter (the constructive BPJR-L
rule's bundles and subset sums, the knapsack's halves) are doubled item
by item where they are built.  Subset totals are summed in ascending
item order here, as in ``Instance.weight`` and in those doublings, so
the same items always give the same float.
"""

from __future__ import annotations

from math import inf
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


def subsets_within(costs: Sequence[float], bound: float) -> Iterator[tuple[int, float, bool]]:
    """Every item subset costing at most ``bound`` (non-negative), as
    ``(mask, total, exhaustive)``, in lexicographic order of their sorted
    index tuples; ``exhaustive`` is set iff no further item fits.  Its
    consumers are enumeration, ``certify``, ``verify-implications`` and
    the CLI, which rely on that order and on the exhaustiveness test.

    A preorder walk from an explicit stack, extending each subset only by
    the items above its largest, from ``mask.bit_length()`` on; no 2^m
    table is built.  Costs must be positive: a rounded sum then never
    shrinks as items are added, so a branch is pruned exactly when its
    next item passes the bound.

    Each stack entry also carries the lightest ascending-order total of
    the subset plus one item *skipped* so far (below its largest, not in
    it).  The items outside a subset are those skipped and those above its
    largest, and one of the latter fits iff the subset pushes a child.  So
    a subset is exhaustive, as ``model.is_exhaustive`` judges it, iff it
    pushes no child and that lightest total passes the bound.  A child
    taking item ``k`` adds it last to every such total, and rounded sums
    are monotone, so its lightest is ``min(lightest, total +
    cheapest_newly_skipped) + cost[k]``.
    """
    m = len(costs)
    # below[s][k]: the cheapest of items s..k-1, which a subset whose
    # children start at s skips when it takes k
    below = [[min(costs[s:k], default=inf) for k in range(m)] for s in range(m + 1)]
    # children are pushed last to first, so that they pop in order
    descending = [range(m - 1, s - 1, -1) for s in range(m + 1)]
    stack = [(0, 0.0, inf)]
    pop, push = stack.pop, stack.append
    while stack:
        mask, total, lightest = pop()
        depth = len(stack)
        start = mask.bit_length()
        row = below[start]
        for k in descending[start]:
            extended = total + costs[k]
            if extended <= bound:
                near = total + row[k]
                push((mask | 1 << k, extended, (near if near < lightest else lightest) + costs[k]))
        yield mask, total, len(stack) == depth and not lightest <= bound


class MaskWeights(dict):
    """Total cost of item subsets encoded as bitmasks, looked up as
    ``weights[mask]``.

    Each mask's sum is taken from ``0.0`` over its set bits in ascending
    order, as in ``Instance.weight``, on first use and memoized, so the
    table grows with the masks actually asked for rather than with 2^m.
    """

    def __init__(self, costs: Sequence[float]):
        super().__init__()
        self._costs = tuple(costs)

    def __missing__(self, mask: int) -> float:
        weight = self[mask] = sum((self._costs[i] for i in bits(mask)), 0.0)
        return weight

"""Bitmask helpers and the ordered feasible-subset walk.

The walk of :func:`feasible_blocks` serves the callers that need every
feasible subset in lexicographic order, or need to know which ones are
exhaustive.  It splits the items in two, as a meet-in-the-middle does:
subsets of the *head* are walked one at a time, and each is joined with
every subset of the *tail*, its *block*.  A block is read off one table
of the tail subsets' own sums, sorted once per call: the tail subsets
that fit are those before the position where the head subset's room
cuts the table, so head subsets of different totals share a block.  The
CLI's ``enumerate`` reads the blocks; budget enumeration, ``certify``
and ``verify-implications`` read the same walk with no tail, one
``(mask, total, exhaustive)`` per subset (:func:`subsets_within`).
Tables of subsets whose order does not matter (the constructive BPJR-L
rule's bundles and subset sums, the knapsack's halves) are doubled item
by item where they are built.  Subset totals are added left to right in
ascending item order here, as in ``Instance.weight`` and in those
doublings, so the same items always give the same float; the sorted
table only decides which totals need that fold (:func:`fold_cut`).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache, reduce
from itertools import accumulate, compress
from math import inf
from operator import add, itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

#: The most and the fewest items the walk's tail takes, so that a block
#: has 7 to 255 entries: a smaller one costs more to set up than walking
#: its entries one at a time.
_TAIL_CAP = 8
_TAIL_FLOOR = 3


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


@cache
def _lex_masks(h: int) -> tuple[int, ...]:
    """The nonempty subsets of ``range(h)`` as masks, in lexicographic
    order of their sorted index tuples: each ``{j}`` followed by ``{j}``
    joined with every subset of the items above ``j``."""
    return tuple(
        mask
        for j in range(h)
        for mask in (1 << j, *(1 << j | rest << j + 1 for rest in _lex_masks(h - j - 1)))
    )


@cache
def _grows(h: int) -> tuple[tuple[int, int], ...]:
    """For each item ``y`` of ``range(h)``, the shift that moves byte
    ``r | 1 << y`` of a little-endian flag int to byte ``r``, and the
    flags of the masks ``r`` without ``y``."""
    return tuple(
        (8 << y, int.from_bytes(bytes(not r >> y & 1 for r in range(1 << h)), "little"))
        for y in range(h)
    )


def _tail_start(costs: Sequence[float], bound: float) -> int:
    """The first item of the walk's tail: the tail is the longest suffix
    of at most ``_TAIL_CAP`` items whose ascending-order sum is at most
    ``bound``, so that the empty head subset's block is complete, and is
    empty if that suffix has fewer than ``_TAIL_FLOOR`` items."""
    m = start = len(costs)
    while start and m - start < _TAIL_CAP and reduce(add, costs[start - 1:], 0.0) <= bound:
        start -= 1
    return start if m - start >= _TAIL_FLOOR else m


def fold_cut(sums: Sequence[float], total: float, bound: float, span: float) -> tuple[int, int]:
    """Positions ``lo <= hi`` in ``sums`` such that the fold of ``T`` from
    ``total`` fits ``bound`` for every ``T`` before ``lo`` and for none from
    ``hi`` on.  ``sums`` are the own sums ``s_T`` of subsets ``T`` of at most
    13 positive terms, each their left fold from ``0.0``, in ascending order,
    and ``span`` is ``bound + S`` for the fold ``S`` of all the terms.  The
    subset walk's tail (at most ``_TAIL_CAP`` items) and the knapsack's
    right half (at most 13 of 25 items) cut their sums here.

    The cut compares ``s_T`` with ``bound - t`` less or plus the margin ``M
    = 2^-44 (t + bound + S)``, for the total ``t``.  It is safe (barring
    underflow).  With ``u = 2^-53``, a left fold of ``j <= 13`` positive
    terms after its start is within ``γ_j < 13.01u`` times the exact sum of
    that sum (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., section 4.2).  So ``fold(t, T)`` is within ``13.01u (t + Σ_T)`` of
    the exact ``t + Σ_T``, and ``s_T``, whose first step is exact, within
    ``12.01u Σ_T`` of ``Σ_T``, where ``Σ_T < 1.001 S``: together, ``|fold(t,
    T) - (t + s_T)| < 2^-48 (t + S)``.  For ``0 <= t <= bound``, the two
    thresholds ``fl(fl(bound - t) ∓ M)``, with ``M`` itself within a
    relative ``2u``, lie within ``2.01u·bound + 3.01u·M`` of ``bound - t ∓
    M``.  So ``s_T`` at or below the lower one gives ``fold(t, T) < bound -
    (1 - 3.01u) M + 2.01u·bound + 2^-48 (t + S) < bound``, and above the
    upper one gives ``fold(t, T) > bound``.  A total past the bound fits
    nothing, not even the empty ``T``: that also covers an infinite total.
    An infinite bound, which the margin cannot be taken from, fits every
    ``T``.
    """
    if total > bound:
        return 0, 0
    if bound == inf:
        return len(sums), len(sums)
    room, margin = bound - total, (total + span) * 2.0 ** -44
    return bisect_right(sums, room - margin), bisect_right(sums, room + margin)


class _Tail:
    """The tail template, from which each block is computed: the tail
    items, the nonempty tail subsets ``T`` as relative masks ``r`` (bit
    ``j`` is the ``j``-th tail item) in lex order, and each ``T``'s own
    sum ``s_T``, folded from ``0.0`` and sorted once per call, the tail's
    half-list in Horowitz and Sahni's meet in the middle (JACM 1974).  A
    block is held by relative mask, as one flag byte per entry, so that
    it is combined and read in lex order by calls that loop in C.

    A block keeps the ``T`` whose fold from its head subset's total ``t``
    fits the bound, and that fold is within a margin of ``t + s_T``
    (:func:`fold_cut`).  So the ``T`` that fit are those before a *position*
    in the sorted sums, but for the few inside the margin, which are
    folded exactly.  Each block method takes the head subset's total and
    the lightest total of it plus one head item outside it, and keeps
    every block it cuts at the bound by the positions that decide it, so
    that head subsets of different totals share it.
    """

    def __init__(self, costs: Sequence[float], bound: float):
        self.costs, self.bound = [float(c) for c in costs], bound
        self.cheapest = min(self.costs, default=inf)
        self.lex, self.grows = _lex_masks(len(costs)), _grows(len(costs))
        # a nonempty tail has at least two items, so this returns a tuple
        self.in_lex = itemgetter(*self.lex) if self.lex else None
        sums = [0.0]
        for c in self.costs:
            sums += [s + c for s in sums]
        # order[p] is the relative mask at position p of the sorted sums,
        # and prefixes[p] flags the masks before it, one byte per mask
        self.order = sorted(range(len(sums)), key=sums.__getitem__)
        self.sums = [sums[r] for r in self.order]
        self.prefixes = list(accumulate((1 << 8 * r for r in self.order), or_, initial=0))
        self.span = bound + sums[-1]
        self.by_position: dict = {}

    def fold(self, total: float) -> float:
        """``total`` plus every tail item: the heaviest entry of a block."""
        return reduce(add, self.costs, total)

    def _cut(self, total: float) -> tuple[int, int]:
        """Positions ``lo <= hi`` in the sorted sums such that every ``T``
        before ``lo`` fits ``total`` and none from ``hi`` on (:func:`fold_cut`)."""
        return fold_cut(self.sums, total, self.bound, self.span)

    def _fits(self, total: float, lo: int, hi: int) -> int:
        """Whether ``total + T`` fits, as one flag byte per relative mask
        of a little-endian int, from ``total``'s cut: the ``T`` between
        ``lo`` and ``hi`` are folded exactly, in ascending item order."""
        flags, costs = self.prefixes[lo], self.costs
        for r in self.order[lo:hi]:
            flags |= (reduce(add, map(costs.__getitem__, bits(r)), total) <= self.bound) << 8 * r
        return flags

    def _read(self, flags: int) -> list[int]:
        """The relative masks whose flag is set, in lex order."""
        return list(compress(self.lex, self.in_lex(flags.to_bytes(1 << len(self.costs), "little"))))

    def fitting(self, total: float, lightest: float) -> Sequence[int]:
        """The nonempty ``T`` with ``total + T`` feasible, in lex order."""
        if self.fold(total) <= self.bound:
            return self.lex
        lo, hi = self._cut(total)
        kept = self.by_position.get(lo) if lo == hi else None
        if kept is None:
            kept = self._read(self._fits(total, lo, hi))
            if lo == hi:
                self.by_position[lo] = kept
        return kept

    def exhaustive(self, total: float, lightest: float) -> Sequence[int]:
        """The nonempty ``T`` with ``total + T`` feasible and exhaustive,
        in lex order: those that fit, that fit with no further tail item
        (no ``r | 1 << y`` fits), and that fit with no head item.  The
        head subset plus one head item outside it totals at least
        ``lightest``, so with ``T`` at least ``lightest + T``: rounded sums
        are monotone in either operand.  So no ``T`` is exhaustive if
        ``lightest`` plus the whole tail fits, and only the whole tail is
        if it fits ``total``; otherwise the ``T`` that fit ``lightest``
        are a second flag table, cut as the first."""
        bound = self.bound
        if self.fold(lightest) <= bound:
            return ()
        if self.fold(total) <= bound:
            return ((1 << len(self.costs)) - 1,)
        lo, hi = self._cut(total)
        light_lo, light_hi = self._cut(lightest)
        shared = lo == hi and light_lo == light_hi
        kept = self.by_position.get((lo, light_lo)) if shared else None
        if kept is None:
            fit, grown = self._fits(total, lo, hi), 0
            for shift, without in self.grows:
                grown |= fit >> shift & without
            kept = self._read(fit & ~grown & ~self._fits(lightest, light_lo, light_hi))
            if shared:
                self.by_position[lo, light_lo] = kept
        return kept


def feasible_blocks(costs: Sequence[float], bound: float, exhaustive_only: bool) -> tuple[int, Iterator[tuple]]:
    """Every item subset costing at most ``bound`` (non-negative), in
    lexicographic order of their sorted index tuples, as head subsets and
    blocks; with ``exhaustive_only``, blocks keep only the exhaustive
    subsets.  Returns the first tail item and the walk.  Costs must be
    positive: a rounded sum then never shrinks as items are added, so a
    branch is pruned exactly when its next item passes the bound.

    The *tail* is the last few items (:func:`_tail_start`), the *head*
    the rest.  In lexicographic preorder, the subtree of a head subset
    ``B`` is ``B`` itself, then the subtrees of its head children, then
    ``B`` joined with every nonempty tail subset ``T`` in lex order of
    ``T``: ``B``'s *block*.  So the walk is a preorder over the head
    subsets from an explicit stack, extending each only by the head items
    above its largest, from ``mask.bit_length()`` on.  When it pops ``B``
    it yields ``(mask, total, exhaustive)`` and pushes a block marker
    under ``B``'s children; when the marker pops it yields ``(mask,
    kept)``, the relative masks of the tail subsets ``T`` that the block
    keeps (:meth:`_Tail.fitting`, :meth:`_Tail.exhaustive`).  No marker
    is pushed when even the cheapest tail item passes the bound.  No 2^m
    table is built.

    Each stack entry also carries the lightest ascending-order total of
    the subset plus one item *skipped* so far (below its largest, not in
    it).  The items outside a head subset are those skipped and those
    above its largest, and one of the latter fits iff the subset pushes a
    child or a marker.  So a head subset is exhaustive, as
    ``model.is_exhaustive`` judges it, iff it pushes nothing and that
    lightest total passes the bound.  A child taking item ``k`` adds it
    last to every such total, and rounded sums are monotone in either
    operand, so its lightest is ``min(lightest, total +
    cheapest_newly_skipped) + cost[k]``.  A marker carries ``min(lightest,
    total + cheapest_head_item_from_start)`` instead: the lightest total
    of ``B`` plus any head item outside it, which decides whether a head
    item fits with a block entry.
    """
    start = _tail_start(costs, bound)
    tail = _Tail(costs[start:], bound)
    return start, _walk(costs, bound, start, tail.cheapest, tail.exhaustive if exhaustive_only else tail.fitting)


def subsets_within(costs: Sequence[float], bound: float) -> Iterator[tuple[int, float, bool]]:
    """Every feasible subset as ``(mask, total, exhaustive)``, in
    lexicographic order of their sorted index tuples; ``exhaustive`` is
    set iff no further item fits.  Its consumers are enumeration,
    ``certify`` and ``verify-implications``, which rely on that order and
    on the exhaustiveness test.

    The walk of :func:`feasible_blocks` with no tail: every subset
    leaves this view as its own tuple either way, and a view that
    flattened the blocks ran 15-40% slower than the head walk alone on
    16-18 items.
    """
    return _walk(costs, bound, len(costs), inf, None)


def _walk(costs, bound, start, cheapest_tail, block):
    """The walk of :func:`feasible_blocks` over the head items
    ``costs[:start]``; ``block`` computes a block from its head subset's
    total and lightest total, and is never called when ``cheapest_tail``
    is ``inf``."""
    # below[s][k]: the cheapest of the head items s..k-1, which a subset
    # whose children start at s skips when it takes k; below[s][start] is
    # the cheapest head item that its block's entries leave out
    below = [[inf] * s + list(accumulate(costs[s:start], min, initial=inf)) for s in range(start + 1)]
    # children are pushed last to first, so that they pop in order
    descending = [range(start - 1, s - 1, -1) for s in range(start + 1)]
    stack = [(0, 0.0, inf, False)]
    pop, push = stack.pop, stack.append
    while stack:
        mask, total, lightest, marker = pop()
        if marker:
            yield mask, block(total, lightest)
            continue
        depth = len(stack)
        first = mask.bit_length()
        row = below[first]
        if total + cheapest_tail <= bound:
            near = total + row[start]
            push((mask, total, near if near < lightest else lightest, True))
        for k in descending[first]:
            extended = total + costs[k]
            if extended <= bound:
                near = total + row[k]
                push((mask | 1 << k, extended, (near if near < lightest else lightest) + costs[k], False))
        yield mask, total, len(stack) == depth and not lightest <= bound


class MaskFold(dict):
    """A fold over the costs of item subsets encoded as bitmasks, looked
    up as ``memo[mask]``: ``op`` applied left to right from ``start`` over
    the mask's set bits in ascending order, on first use and memoized, so
    the table grows with the masks actually asked for rather than with
    2^m.  ``add`` from ``0.0`` gives the weight of ``Instance.weight``;
    ``min`` from ``inf`` gives the cheapest item's cost.

    A mask's fold is ``op`` of its fold without its top bit and that
    bit's cost, so a miss starts from the longest memoized mask that is
    the missed one less some top bits, and memoizes each mask on the way
    up: masks that share low bits share their folds' prefixes.
    """

    def __init__(self, costs: Sequence[float], op: Callable[[float, float], float], start: float):
        super().__init__()
        self._costs, self._op, self._start = tuple(costs), op, start

    def __missing__(self, mask: int) -> float:
        low, tops = mask, []
        while low and low not in self:
            top = low.bit_length() - 1
            tops.append(top)
            low ^= 1 << top
        folded = self[low] if low else self._start
        for top in reversed(tops):
            low |= 1 << top
            folded = self[low] = self._op(folded, self._costs[top])
        return folded

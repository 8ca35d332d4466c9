"""Checkers for the ten proportionality axioms.

Each checker returns an :class:`AxiomReport`: a verdict plus, on
violation, an :class:`AxiomWitness` naming the under-represented voter
group, the entitlement level it reaches, and the bundle that proves the
deficit.  All ten axioms read one violation stream,
``_GroupTable._violations``: polynomial for the BJR families, an exact
sweep over all cohesive voter groups for the BPJR families, which is
exponential and therefore gated by hard size caps (``MAX_EXACT_VOTERS``
voters, ``MAX_EXACT_BUNDLE_ITEMS`` items per common-item set).

The stream reads a group table built once per public call from the
instance and profile alone: memoized subset weights, one knapsack cache,
and the cohesive groups collapsed to one entry per distinct (common
items, union, size) with the lexicographically first voter tuple of
that size.  All groups of one entry share level, representation and
deficit, so no verdict or witness changes, and memory grows with the
entries, not the groups.  The table reads a selection as an ``(item
mask, total)`` pair: :func:`check_axiom`, :func:`evaluate_axioms` and
``verify_implications`` admit a caller's ``Budget`` once, and the other
oracle calls feed in the feasible-subset walk's pairs.  A verdict stops
at the first violation and reads just the largest size of each (common
items, union) class, since every violation test is monotone in group
size.

Every item set, the knapsack's bundles included, weighs the ascending
left fold of its costs, as ``Instance.weight`` gives it, and a bundle
fits iff that fold does.  Two exact shortcuts cut the BPJR families'
work per budget.  A group's share, its knapsack cap and that cap's
ceiling ``fit_bound(cap)``, and whether it claims level 1 at all, depend
on its size and the denominator alone, so :func:`_sizes` tabulates them
once per denominator, and every sweep, bound and up-front refusal reads
them there; a group table holds the tables of its two latest
denominators, enough for the limit and one budget's total.  A profile
with no voters has no group, and every check of it holds before any
share is formed.  No bundle that :func:`_max_bundle_over` returns
passes the ceiling, and ``falls_short`` is monotone in the weight it
compares with, so an entry whose represented weight is not short of the
ceiling is not short of the knapsack's weight either, and BPJR skips its
knapsack.  A :class:`probud._bits.MaskFold` memoizes subset weights, and
another each mask's cheapest item cost that Local-BPJR tests.

:func:`check_axiom` sweeps only the voter subsets below which a
violation of its one selection can still lie
(:meth:`_GroupTable.pruned_groups`), and finds the same violations.  A
per-voter bound marks the items a violating group can have in common:
each voter's represented weight bounds that of every group holding the
voter, and a group sharing an item lies among its approvers.  A subset
whose common items include none of these owed items, or whose
represented weight already covers what the family can ask of it, is not
expanded, and where no item is owed no group is built.  The bound sorts
each item's approvers once per selection, so it serves a single
selection only: verdicts (:func:`evaluate_axioms`, ``certify``,
``verify-implications``), ``replay_witnesses`` and BPJR's refusal of
oversized common items read the full sweep, shared among selections.

Errors, in this order: an invalid profile raises ``InvalidProfile``; a
budget that is infeasible, names an unknown item or carries a
``total_cost`` other than its items' cost raises ``InvalidBudget``.
``TooLargeForExact`` is raised for more than ``MAX_EXACT_VOTERS`` voters,
and when a group whose bundles the check must maximize has more than
``MAX_EXACT_BUNDLE_ITEMS`` common items: for BPJR a group reaching level
1, for Local-BPJR any group.  This holds whether or not another group
already violates the axiom; with a zero denominator or no voters
nothing is owed and nothing is raised.

Entitlement conventions, shared by every checker:

* the level ``ell`` ranges over the real interval from 1 up to the
  variant's denominator (the limit for "l", the realized spend for "w");
* a group of ``k`` voters can claim levels up to ``k * denominator / n``;
* cost normalization holds the cheapest item within ``TOL`` of 1
  (``model.is_unit``), so a nonempty common-item set weighs at least
  ``1 - TOL``, not always 1.

Violation conditions are piecewise-constant in ``ell`` between achievable
bundle weights, so the sweeps evaluate only critical levels.  Checkers are
pure functions; verdicts are deterministic, and the reported witness is
the maximum-deficit violation with the lexicographically smallest voter
group.  Stream order alone settles ties: a report keeps the first violation
whose deficit beats the best so far by more than ``TOL``, and BJR, where
every deficit is one unit, streams in (voter tuple, item) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial, reduce
from operator import add
from typing import Callable, Iterator, Mapping, Sequence

from ._bits import MaskFold, bits, fold_cut, mask_of
from .errors import InvalidBudget, InvalidChoice, InvalidCost, InvalidLimit, TooLargeForExact
from .model import (
    ALL_AXIOMS,
    AXIOM_VARIANTS,
    TOL,
    AxiomId,
    Budget,
    Instance,
    Profile,
    _beyond_float,
    _check_cost,
    _require_profile,
    falls_short,
    fit_bound,
    fits,
    is_feasible,
    is_unit,
    reaches,
)

#: Hard cap on voters for the exponential (subset-sweep) checkers.
MAX_EXACT_VOTERS = 22
#: Hard cap on the number of items fed to the exact bundle maximizer.
MAX_EXACT_BUNDLE_ITEMS = 25

POLYNOMIAL = "polynomial"
BRUTE_FORCE = "bruteForce"

_BJR_FAMILIES = ("bjr", "strong-bjr")


@dataclass(frozen=True)
class AxiomWitness:
    """Evidence that a voter group is under-represented.

    ``voters`` is the group, ``level`` the entitlement level it reaches,
    ``common_items`` the items every member approves, ``witness_bundle``
    the bundle proving the deficit, and the two weights are the sides of
    the violated inequality (represented strictly below required).
    """

    voters: frozenset[int]
    level: float
    common_items: frozenset[int]
    witness_bundle: frozenset[int]
    represented_weight: float
    required_weight: float


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of one axiom check; carries a witness iff violated."""

    axiom: AxiomId
    satisfied: bool
    witness: AxiomWitness | None
    method: str


def max_bundle(costs: Mapping, cap: float) -> tuple[float, frozenset]:
    """Heaviest sub-bundle of ``costs`` that fits under ``cap``, plus one
    bundle achieving it.

    A bundle's weight is the left fold of its costs from ``0.0`` in the
    order of ``costs``' keys, as ``Instance.weight`` folds in item order,
    and the bundle fits iff that weight :func:`fits` under ``cap``; the
    weight returned is the chosen bundle's.  Exact via half-set
    enumeration, hence at most ``MAX_EXACT_BUNDLE_ITEMS`` items.  The
    empty bundle always fits, so the result is 0 when no single item
    does.  Each cost must be positive and finite, as for
    :func:`normalize` (else ``InvalidCost``); ``cap`` may be any number in
    float range but NaN, ``inf`` included (else ``InvalidLimit``).
    ``costs`` that is not a mapping raises ``InvalidCost``.
    """
    if not isinstance(costs, Mapping):
        raise InvalidCost(f"costs must be a mapping of keys to costs, got a {type(costs).__name__}")
    for key, c in costs.items():
        _check_cost(key, c)
    if isinstance(cap, bool) or not isinstance(cap, (int, float)) or _beyond_float(cap) or math.isnan(cap):
        raise InvalidLimit("cap must be a number in float range, not NaN")
    keys = list(costs)
    if len(keys) > MAX_EXACT_BUNDLE_ITEMS:
        raise TooLargeForExact(
            f"bundle maximizer supports at most {MAX_EXACT_BUNDLE_ITEMS} items, got {len(keys)}"
        )
    weight, mask = _max_bundle_over([costs[k] for k in keys], (1 << len(keys)) - 1, cap)
    return weight, frozenset(keys[i] for i in bits(mask))


def max_bundle_weight(costs: Mapping, cap: float) -> float:
    """Weight of the heaviest sub-bundle of ``costs`` fitting under ``cap``."""
    return max_bundle(costs, cap)[0]


def _subset_pairs(costs: Sequence[float], items: Sequence[int], bound: float) -> list[tuple[float, int]]:
    # the (ascending fold, item mask) pairs of the subsets of items that fit
    # under bound (costs are positive, so a subset fits iff all its prefixes
    # do), in the order an unbounded doubling would list them
    out = [(0.0, 0)]
    for i in items:
        cost, bit = costs[i], 1 << i
        out += [(s + cost, m | bit) for s, m in out if s + cost <= bound]
    return out


def _max_bundle_over(costs: Sequence[float], mask: int, cap: float) -> tuple[float, int]:
    """The heaviest bundle of the items in ``mask``, of costs ``costs[i]``,
    that fits ``cap``, as ``(weight, bundle mask)``, where a bundle's weight
    is the left fold of its costs from ``0.0`` in ascending item order, as
    ``Instance.weight`` forms it, and it fits iff that fold does.

    Horowitz and Sahni's meet in the middle (JACM 1974): the items split in
    a left and a right half, and a left subset, of fold ``s``, starts its
    bundles' fold and cuts the right subsets' sorted own sums at
    ``fit_bound(cap) - s`` (:func:`fold_cut`).  The right subsets before
    the cut's margin fit, those past it do not, and those inside it are
    folded exactly; the highest that fits joins ``s``.  A bundle must
    outweigh the best so far by more than 1e-12 to replace it.
    """
    bound = fit_bound(cap)
    if bound < 0:
        return 0.0, 0
    items = list(bits(mask))
    left, right = items[:len(items) // 2], items[len(items) // 2:]
    pairs = sorted(_subset_pairs(costs, right, bound))
    sums, span = [r for r, _ in pairs], bound + reduce(add, map(costs.__getitem__, right), 0.0)
    best_weight, best_mask = 0.0, 0
    for s, m in _subset_pairs(costs, left, bound):
        lo, hi = fold_cut(sums, s, bound, span)
        # pairs[0] is the empty subset, whose fold s fits: the scan stops at
        # 0 or above if lo is 0, else at lo - 1 at the latest, which fits
        for i in range(hi - 1, lo - 2, -1):
            weight = reduce(add, map(costs.__getitem__, bits(pairs[i][1])), s)
            if i < lo or weight <= bound:
                break
        if weight > best_weight + 1e-12:
            best_weight, best_mask = weight, m | pairs[i][1]
    return best_weight, best_mask


def _cohesive_groups(
    masks: Sequence[int], descend: Callable[[int, int], bool] | None = None
) -> list[tuple[tuple[int, ...], int, int]]:
    """The voter subsets whose ballots share at least one item, collapsed
    to one ``(voters, common_mask, union_mask)`` entry per distinct
    (common mask, union mask, size).

    Subsets are visited in lexicographic preorder from an explicit stack,
    so each entry keeps the lexicographically first voter tuple of its
    key and the entries come out in that order.  Two kinds of subtree
    are pruned, both exactly: one rooted at an empty intersection (adding
    voters only shrinks it), and one rooted at a subset ``S`` whose key an
    earlier subset ``T`` already had.  For any voters ``R`` added to ``S``,
    the set ``T | (R - T)`` plus ``|R & T|`` voters of ``S - T`` has the
    key of ``S | R`` and comes earlier, so no key's first subset lies in
    a pruned subtree.

    A third kind is the caller's: a subset whose ``descend(common,
    union)`` is false is recorded but not expanded.  Where a false
    predicate stays false for every superset, as for those of
    :meth:`_GroupTable.pruned_groups`, every subset whose predicate is
    true is reached as in the full sweep, by the same path and after the
    same subsets of true predicate, so each key of true predicate keeps
    its first voter tuple and its place in the order; a key of false
    predicate may keep a later tuple, or none.
    """
    n = len(masks)
    later = [[(k, masks[k]) for k in range(n - 1, j, -1)] for j in range(n)]
    first: dict[tuple[int, int, int], tuple[int, ...]] = {}
    stack = [((j,), masks[j], masks[j]) for j in range(n - 1, -1, -1) if masks[j]]
    while stack:
        voters, common, union = stack.pop()
        key = (common, union, len(voters))
        if key in first:
            continue
        first[key] = voters
        if descend is not None and not descend(common, union):
            continue
        for k, mask in later[voters[-1]]:  # pushed last to first, so popped in order
            shared = common & mask
            if shared:
                stack.append((voters + (k,), shared, union | mask))
    return [(voters, common, union) for (common, union, _), voters in first.items()]


def _require_axiom(axiom: AxiomId) -> None:
    if not isinstance(axiom, AxiomId):
        raise InvalidChoice(f"expected an AxiomId, got a {type(axiom).__name__}; AxiomId.parse reads axiom id text")


def _selection(inst: Instance, budget: Budget) -> tuple[int, float]:
    """Admit a caller's budget once, at the public boundary: it must be
    valid and feasible, else ``InvalidBudget``.  Returns the selection as
    the group table reads it, ``(item mask, total cost)``."""
    if not is_feasible(inst, budget):
        raise InvalidBudget("axiom checks expect a feasible budget")
    return mask_of(budget.selected), budget.total_cost


def _sizes(n: int, denom: float) -> tuple[tuple[float, float, float, bool], ...]:
    """What a group of ``k`` of ``n`` voters is owed at the denominator
    ``denom``, for each ``k`` from 0 to ``n``: ``(share, cap, ceiling,
    claims)``.  ``share = k * denom / n`` bounds its levels, ``cap =
    min(share, denom)`` is its BPJR knapsack cap and ``ceiling =
    fit_bound(cap)`` bounds every knapsack weight under that cap.

    ``claims`` tells whether the group reaches level 1, that is whether
    its top level ``min(share, W)``, with ``W`` the weight of its common
    items, is not short of 1.  That depends on ``k`` alone: a nonempty
    common set weighs at least the cheapest cost, which ``Instance`` holds
    within ``TOL`` of 1 (``model.is_unit``, where ``c - 1.0`` is exact), so
    ``W`` never falls short of 1.
    """
    out = []
    for k in range(n + 1):
        share = k * denom / n
        cap = min(share, denom)
        out.append((share, cap, fit_bound(cap), not falls_short(share, 1.0)))
    return tuple(out)


class _GroupTable:
    """Everything the checkers need from ``(inst, profile)`` alone, built
    once per public call and shared by every selection it checks: approver
    masks, memoized subset weights and cheapest item costs, one knapsack
    cache keyed by (item mask, cap), the :func:`_sizes` tables of the two
    latest denominators, and on first use the voters' ballot masks, the
    cohesive groups of :func:`_cohesive_groups` and their largest-size
    classes.  None of these reads a selection, so any number of reads may
    interleave.  It keeps no profile and reads a selection as an admitted
    ``(item mask, total)`` pair (:func:`_selection`).
    """

    def __init__(self, inst: Instance, profile: Profile) -> None:
        self.approvers = _require_profile(inst, profile)
        self.inst = inst
        self.n = profile.num_voters
        self.weights = MaskFold(inst.cost, add, 0.0)
        self.cheapest = MaskFold(inst.cost, min, math.inf)
        # heaviest(mask, cap): the knapsack over the items in mask, memoized
        self.heaviest = cache(partial(_max_bundle_over, inst.cost))
        # sizes(denom): the _sizes table of a denominator, memoized for the
        # two latest, so that a limit and a total can alternate
        self.sizes = lru_cache(maxsize=2)(partial(_sizes, self.n))

    @cached_property
    def ballots(self) -> list[int]:
        """Each voter's ballot as an item mask, read off the approver masks
        in one pass over their set bits."""
        ballots = [0] * self.n
        for c, voters in enumerate(self.approvers):
            item = 1 << c
            for v in bits(voters):
                ballots[v] |= item
        return ballots

    @cached_property
    def groups(self) -> list[tuple[tuple[int, ...], int, int]]:
        """One entry per (common, union, size), in voter-tuple order."""
        return _cohesive_groups(self.ballots)

    @cached_property
    def classes(self) -> list[tuple[tuple[int, ...], int, int]]:
        """The largest-size entry of each (common, union) class.

        At fixed common items and union, every violation test is easier
        to meet for a larger group (its level, cap and threshold rise
        with size), so a class has a violating entry iff its largest
        entry violates.
        """
        largest: dict[tuple[int, int], tuple[tuple[int, ...], int, int]] = {}
        for entry in self.groups:
            held = largest.get(entry[1:])
            if held is None or len(entry[0]) > len(held[0]):
                largest[entry[1:]] = entry
        return list(largest.values())

    @cached_property
    def _oversized(self) -> list[int]:
        # sizes of the entries whose common items are too many for the knapsack
        if self.inst.num_items <= MAX_EXACT_BUNDLE_ITEMS:
            return []
        return [len(voters) for voters, common, _ in self.groups
                if common.bit_count() > MAX_EXACT_BUNDLE_ITEMS]

    @cached_property
    def _wide_ballot(self) -> bool:
        # some entry has too many common items for the knapsack: a lone
        # voter is an entry, and every entry's common items lie in each
        # member's ballot, so no sweep is needed
        return self.inst.num_items > MAX_EXACT_BUNDLE_ITEMS and any(
            ballot.bit_count() > MAX_EXACT_BUNDLE_ITEMS for ballot in self.ballots
        )

    def owed(self, selected: int, family: str, denom: float) -> int:
        """The mask of the items that a violating entry of a BPJR-family
        report on the one selection ``selected``, at denominator ``denom >
        TOL``, can have in common: every such entry's common items are
        owed, so with no item owed the selection satisfies the axiom.

        A voter's represented weight ``r = weights[ballot & selected]`` is
        at most that of any group holding the voter: a fold of positive
        costs only grows as items join it.  A group of ``k`` voters that
        shares item ``c`` lies among ``c``'s approvers, so its represented
        weight is at least the ``k``-th smallest ``r`` among them.  Its
        level and cap are at most its share ``k * denom / n``, read off the
        same :func:`_sizes` table as the sweep's, its room is at most
        ``share - r``, and each of its common items costs at least the
        cheapest item.  ``falls_short`` and ``fits`` are monotone, so no
        group sharing ``c`` violates Strong-BPJR unless some such ``r``
        falls short of its share, BPJR unless one falls short of its
        cap's ceiling, which no knapsack weight passes, and Local-BPJR
        unless the cheapest item fits in some ``share - r``; ``c`` is owed
        iff one does.  This costs a sort of each item's approvers, so it
        serves a single selection.
        """
        sizes, weights = self.sizes(denom), self.weights
        per_voter = [weights[ballot & selected] for ballot in self.ballots]
        cheapest = min(self.inst.cost)
        owed = 0
        for c, approvers in enumerate(self.approvers):
            for k, r in enumerate(sorted(per_voter[v] for v in bits(approvers)), 1):
                share, _, ceiling, _ = sizes[k]
                if family == "strong-bpjr":
                    short = falls_short(r, share)
                elif family == "bpjr":
                    short = falls_short(r, ceiling)
                else:
                    short = fits(cheapest, share - r)
                if short:
                    owed |= 1 << c
                    break
        return owed

    def pruned_groups(self, selected: int, family: str, denom: float) -> list[tuple[tuple[int, ...], int, int]]:
        """The entries of :attr:`groups` that a BPJR-family report on the
        one selection ``selected`` at denominator ``denom > TOL`` can find
        violating, each with its voter tuple and in its order, from a sweep
        that expands a voter subset only where its ``descend(common,
        union)`` leaves room for a violation at the subset or above it.
        With no item :meth:`owed`, no group is built.  Otherwise a subset
        descends iff its common items meet the owed items and its family's
        test descends.  With ``rep = weights[union & selected]`` and ``W =
        weights[common]``:

        * Strong-BPJR and BPJR descend iff ``rep`` falls short of ``W``: an
          entry's level is at most ``W``, and so is the knapsack's weight,
          the ascending fold of a subset of the common items.  Each step of
          a fold is monotone in its running total, and a step that adds a
          positive cost does not lower it, so a subset's fold is at most
          its superset's.
        * Local-BPJR descends iff ``union & selected`` is a strict subset
          of ``common``: the stream skips an entry whose represented items
          leave ``common`` or cover it.

        Adding a voter shrinks ``common`` and grows ``union``, an ascending
        fold of positive costs does not fall as items join it, and
        rounding and ``falls_short`` are monotone.  So each predicate that
        is false for a subset is false for its supersets, and is false
        for no violating entry: :func:`_cohesive_groups` then keeps every
        violating entry as the full sweep does.  The predicates read the
        selection, so these entries serve one report, and only
        :func:`check_axiom` reads them; every other caller reads
        :attr:`groups` or :attr:`classes`.
        """
        owed, weights = self.owed(selected, family, denom), self.weights
        if not owed:
            return []
        if family != "local-bpjr":
            def descend(common: int, union: int) -> bool:
                return common & owed != 0 and falls_short(weights[union & selected], weights[common])
        else:
            def descend(common: int, union: int) -> bool:
                represented = union & selected
                return common & owed != 0 and represented & ~common == 0 and represented != common
        return _cohesive_groups(self.ballots, descend)

    def report(self, selection: tuple[int, float], axiom: AxiomId, pruned: bool = False) -> AxiomReport:
        """The checker's report, witness included, for one selection.  With
        ``pruned``, the BPJR families read the :meth:`pruned_groups` of this
        selection rather than :attr:`groups`: the same violations, from a
        sweep that serves this selection alone."""
        self._admit(axiom)
        # Violations come in increasing voter-tuple order, each holding the
        # smallest tuple of the groups that share its deficit, so keeping the
        # first that beats the best by more than TOL gives a tie to the
        # smaller tuple, as a sweep over every group would.
        best = None
        for violation in self._violations(selection, axiom, False, pruned):
            if best is None or not fits(violation[0], best[0]):
                best = violation
        method = POLYNOMIAL if axiom.family in _BJR_FAMILIES else BRUTE_FORCE
        if best is None:
            return AxiomReport(axiom, True, None, method)
        _, voters, (level, common, bundle, represented, required) = best
        witness = AxiomWitness(
            voters=frozenset(voters),
            level=level,
            common_items=frozenset(bits(common)),
            witness_bundle=frozenset(bits(bundle)),
            represented_weight=represented,
            required_weight=required,
        )
        return AxiomReport(axiom, False, witness, method)

    def holds(self, selection: tuple[int, float], axiom: AxiomId) -> bool:
        """The verdict alone: stops at the first violation."""
        self._admit(axiom)
        return next(self._violations(selection, axiom, True), None) is None

    def verdicts(self, selection: tuple[int, float]) -> tuple[bool, ...]:
        """:meth:`holds` for all ten axioms, as a tuple in ``ALL_AXIOMS``
        order, so that a caller reads them by position rather than by
        hashing an ``AxiomId``."""
        return tuple(self.holds(selection, axiom) for axiom in ALL_AXIOMS)

    def _admit(self, axiom: AxiomId) -> None:
        _require_axiom(axiom)
        if axiom.family not in _BJR_FAMILIES and self.n > MAX_EXACT_VOTERS:
            raise TooLargeForExact(
                f"exact subset sweep supports at most {MAX_EXACT_VOTERS} voters, got {self.n}"
            )

    def _refuse(self, family: str, sizes: tuple) -> None:
        """Raise ``TooLargeForExact`` where a full BPJR-family sweep would
        hand the knapsack too many common items: those of every BPJR group
        whose size claims level 1 in ``sizes``, the :func:`_sizes` table of
        the check's denominator, and of every Local-BPJR group.  Called up
        front, so that a verdict that stops early, or a certified one,
        raises exactly as a full sweep does.  Strong-BPJR runs no
        knapsack, so its groups are not read here, and Local-BPJR, which
        counts every group, reads the ballots alone."""
        if family == "local-bpjr":
            oversized = self._wide_ballot
        else:
            oversized = family == "bpjr" and any(sizes[size][3] for size in self._oversized)
        if oversized:
            raise TooLargeForExact(f"common-item set exceeds {MAX_EXACT_BUNDLE_ITEMS} items")

    def _violations(
        self, selection: tuple[int, float], axiom: AxiomId, verdict_only: bool, pruned: bool = False
    ) -> Iterator[tuple]:
        """The one source of violations for all ten axioms, as ``(deficit,
        voters, (level, common, bundle, represented, required))`` with masks
        for the item sets.  BJR yields each item's wholly unrepresented
        approvers, sorted by (voter tuple, item), before any group is read;
        the BPJR families yield violating entries in entry order, of
        :attr:`classes` for a verdict, and for a witness of :attr:`groups`,
        or with ``pruned`` of the :meth:`pruned_groups` of this selection.
        """
        inst, n, weights = self.inst, self.n, self.weights
        family = axiom.family
        selected, total = selection
        denom = inst.limit if axiom.variant == "l" else total
        if denom <= TOL or not n:
            return  # no voters, or no group's entitlement reaches one unit

        if family in _BJR_FAMILIES:
            represented = 0
            for c in bits(selected):
                represented |= self.approvers[c]
            qualifying = []
            for c, voters in enumerate(self.approvers):
                if family == "bjr" and not is_unit(inst.cost[c]):
                    continue  # plain BJR owes only unit-cost items
                group = voters & ~represented
                if group and reaches(group.bit_count(), n, denom, 1.0):
                    qualifying.append((tuple(bits(group)), c, group))
            for voters, item, group in sorted(qualifying):
                # the items whose approvers include the whole group
                common = mask_of(c for c, approvers in enumerate(self.approvers) if not group & ~approvers)
                yield 1.0, voters, (1.0, common, 1 << item, 0.0, 1.0)
            return

        sizes = self.sizes(denom)
        self._refuse(family, sizes)
        if verdict_only:
            entries = self.classes
        else:
            entries = self.pruned_groups(selected, family, denom) if pruned else self.groups
        if family == "strong-bpjr":
            # the claimable levels form an interval; test its top, min(share,
            # weights[common]): rounding is monotone, so a weight falls short
            # of the smaller of two needs iff it falls short of both
            for voters, common, union in entries:
                share, _, _, claims = sizes[len(voters)]
                represented = weights[union & selected]
                if claims and falls_short(represented, share) and falls_short(represented, weights[common]):
                    level = min(share, weights[common])
                    yield level - represented, voters, (level, common, common, represented, level)
        elif family == "bpjr":
            # the bundle maximizer is monotone in the cap; test the top level
            for voters, common, union in entries:
                share, cap, ceiling, claims = sizes[len(voters)]
                if not claims:
                    continue
                represented = weights[union & selected]
                # falls_short is monotone in its second argument and the
                # knapsack's weight fits the cap: an entry that covers the
                # ceiling cannot fall short of any threshold
                if not falls_short(represented, ceiling):
                    continue
                threshold, bundle = self.heaviest(common, cap)
                if falls_short(represented, threshold):
                    level = min(share, weights[common])
                    yield threshold - represented, voters, (level, common, bundle, represented, threshold)
        else:
            cheapest = self.cheapest
            for voters, common, union in entries:
                represented_mask = union & selected
                if represented_mask & ~common:
                    continue  # no bundle of common items can strictly contain it
                rest = common & ~represented_mask
                if not rest:
                    continue
                represented = weights[represented_mask]
                # tested as the knapsack tests it, so a group that passes
                # always gets a nonempty extension
                room = sizes[len(voters)][0] - represented
                if not fits(cheapest[rest], room):
                    continue
                extension, extra = self.heaviest(rest, room)
                level = represented + extension
                yield extension, voters, (level, common, represented_mask | extra, represented, level)


def check_bjr_poly(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> AxiomReport:
    """Polynomial test of the BJR or Strong-BJR axiom (either variant).

    A violation is a group of wholly unrepresented voters, at least
    ``n / denominator`` strong, sharing a candidate item: any item for the
    strong family (normalization leaves every item costing at least the
    cheapest, which is one unit within ``TOL``, as ``model.is_unit``
    tests), a unit-cost item by that test for plain BJR.
    """
    if not isinstance(axiom, AxiomId) or axiom.family not in _BJR_FAMILIES:
        raise InvalidChoice(f"check_bjr_poly handles {_BJR_FAMILIES}, got {axiom!r}")
    return check_axiom(inst, profile, budget, axiom)


def check_strong_bpjr(inst: Instance, profile: Profile, budget: Budget, variant: str = "l") -> AxiomReport:
    """Exact check of Strong-BPJR: every cohesive group whose size grants
    it level ``ell`` must see at least ``ell`` units of weight on items it
    collectively approves.

    For a fixed group the claimable levels form an interval, so it
    suffices to test the top one: ``min(size * denom / n, weight of the
    common items)``.
    """
    return check_axiom(inst, profile, budget, AxiomId("strong-bpjr", variant))


def check_bpjr(inst: Instance, profile: Profile, budget: Budget, variant: str = "l") -> AxiomReport:
    """Exact check of BPJR: a cohesive group is owed the heaviest bundle
    of its common items that fits its entitlement cap.

    The cap is ``size * limit / n`` for the "l" variant and
    ``min(size * spend / n, spend)`` for the "w" variant, where bundles
    are capped by the level itself and the threshold is maximized over
    claimable levels; the bundle maximizer is monotone in the cap, so
    only the top level needs evaluating.
    """
    return check_axiom(inst, profile, budget, AxiomId("bpjr", variant))


def check_local_bpjr(
    inst: Instance,
    profile: Profile,
    budget: Budget,
    variant: str = "l",
) -> AxiomReport:
    """Exact check of Local-BPJR: no cohesive group may have its realized
    representation strictly extendable to a bundle maximizer within its
    entitlement.

    At a critical level ``ell`` (an achievable bundle weight) the
    maximizers are exactly the bundles of weight ``ell``, so a violation
    exists iff the group's representation, restricted to its common
    items, can be extended by at least one more common item without
    exceeding the group's level cap.
    """
    return check_axiom(inst, profile, budget, AxiomId("local-bpjr", variant))


def check_axiom(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> AxiomReport:
    """The report of any of the ten axioms, which every ``check_*``
    function returns: the profile is checked first, then the budget is
    admitted, then the size caps apply.  A BPJR-family report reads only
    the :meth:`_GroupTable.pruned_groups` of its one budget, and none at
    all where no item is owed."""
    return _GroupTable(inst, profile).report(_selection(inst, budget), axiom, pruned=True)


def evaluate_axioms(inst: Instance, profile: Profile, budget: Budget) -> dict[AxiomId, bool]:
    """Satisfaction verdicts for all ten axioms at once, in ``ALL_AXIOMS``
    order.

    Equivalent to calling :func:`check_axiom` per axiom, errors included:
    it raises ``TooLargeForExact`` exactly when one of the six BPJR-family
    checks would, even where another group already settled the verdict.
    The budget is admitted once, and all ten verdicts read the violation
    stream of one group table built for this call: each stops at its
    first violation, and no witness is built.
    :func:`probud.oracle.verify_implications` shares one table across all
    its budgets instead.
    """
    return dict(zip(ALL_AXIOMS, _GroupTable(inst, profile).verdicts(_selection(inst, budget))))


def _implication_edges() -> tuple[tuple[AxiomId, AxiomId], ...]:
    edges: list[tuple[AxiomId, AxiomId]] = []
    for v in AXIOM_VARIANTS:
        a = lambda family: AxiomId(family, v)  # noqa: E731
        edges += [
            (a("strong-bpjr"), a("bpjr")),
            (a("bpjr"), a("local-bpjr")),
            (a("local-bpjr"), a("bjr")),
            (a("strong-bpjr"), a("strong-bjr")),
            (a("strong-bjr"), a("bjr")),
        ]
    for family in ("strong-bpjr", "bpjr", "local-bpjr", "strong-bjr", "bjr"):
        edges.append((AxiomId(family, "l"), AxiomId(family, "w")))
    return tuple(edges)


#: Direct implication edges between axioms (stronger, weaker).
IMPLICATION_EDGES: tuple[tuple[AxiomId, AxiomId], ...] = _implication_edges()


def _transitive_closure() -> dict[AxiomId, frozenset[AxiomId]]:
    reach = {a: {a} for a in ALL_AXIOMS}
    changed = True
    while changed:
        changed = False
        for stronger, weaker in IMPLICATION_EDGES:
            add = reach[weaker] - reach[stronger]
            if add:
                reach[stronger] |= add
                changed = True
    return {a: frozenset(r) for a, r in reach.items()}


_IMPLIES: dict[AxiomId, frozenset[AxiomId]] = _transitive_closure()


def implied_by(a: AxiomId, b: AxiomId) -> bool:
    """True iff satisfying ``b`` always entails satisfying ``a``
    (transitively closed, reflexive).  Either argument not an
    :class:`AxiomId` raises ``InvalidChoice``."""
    _require_axiom(a)
    _require_axiom(b)
    return a in _IMPLIES[b]


def recheck_witness(inst: Instance, profile: Profile, budget: Budget, report: AxiomReport) -> bool:
    """Re-verify a violation witness from scratch against the definition.

    Recomputes the group's common items, union, and representation from
    the ballots and re-evaluates the violated inequality; used to make
    every returned witness independently checkable.  Inputs are admitted
    as :func:`check_axiom` admits them: an invalid profile raises
    ``InvalidProfile``, then an invalid or infeasible budget
    ``InvalidBudget``, then a report that is not an :class:`AxiomReport`
    or whose ``axiom`` is not an :class:`AxiomId` ``InvalidChoice``.  A
    witness naming a voter or an item that is not a non-``bool`` ``int``
    in range belongs to no group of this instance, and gives False.
    """
    _require_profile(inst, profile)
    _selection(inst, budget)
    if not isinstance(report, AxiomReport):
        raise InvalidChoice(f"expected an AxiomReport, got a {type(report).__name__}")
    _require_axiom(report.axiom)
    return _recheck_witness(inst, profile, budget, report)


def _recheck_witness(inst: Instance, profile: Profile, budget: Budget, report: AxiomReport) -> bool:
    """:func:`recheck_witness` on a checked profile and an admitted budget."""
    witness = report.witness
    if report.satisfied or witness is None:
        return False
    if not (_indices_within(witness.voters, profile.num_voters)
            and _indices_within(witness.common_items, inst.num_items)
            and _indices_within(witness.witness_bundle, inst.num_items)):
        return False
    voters = sorted(witness.voters)
    if not voters:
        return False
    n = profile.num_voters
    axiom = report.axiom
    denom = inst.limit if axiom.variant == "l" else budget.total_cost
    if denom <= TOL:
        return False
    common = frozenset.intersection(*(profile.ballots[i] for i in voters))
    union = frozenset.union(*(profile.ballots[i] for i in voters))
    represented = inst.weight(union & budget.selected)
    if abs(represented - witness.represented_weight) > TOL:
        return False
    if witness.common_items != common:
        return False
    if not reaches(len(voters), n, denom, witness.level):
        return False
    bundle = witness.witness_bundle
    if not bundle <= common:
        return False

    if axiom.family in _BJR_FAMILIES:
        if union & budget.selected or len(bundle) != 1:
            return False
        (item,) = bundle
        if axiom.family == "bjr" and not is_unit(inst.cost[item]):
            return False
        return reaches(len(voters), n, denom, 1.0)
    if axiom.family == "strong-bpjr":
        level = witness.level
        return (
            not falls_short(level, 1.0)
            and not falls_short(inst.weight(common), level)
            and falls_short(represented, level)
        )
    if axiom.family == "bpjr":
        cap = len(voters) * denom / n
        bundle_weight = inst.weight(bundle)
        return (
            abs(bundle_weight - witness.required_weight) <= TOL
            and fits(bundle_weight, min(cap, denom))
            and not falls_short(bundle_weight, 1.0)
            and falls_short(represented, bundle_weight)
        )
    # local-bpjr: the bundle must be a strict superset of the realized
    # representation and a maximizer at its own weight level
    represented_items = union & budget.selected
    if not represented_items < bundle:
        return False
    level = witness.level
    if abs(inst.weight(bundle) - level) > TOL:
        return False
    if falls_short(level, 1.0):
        return False
    backing = {i: inst.cost[i] for i in common}
    return not falls_short(inst.weight(bundle), max_bundle_weight(backing, level))


def _indices_within(indices, size: int) -> bool:
    """True iff every index is a non-``bool`` ``int`` in ``range(size)``."""
    return all(not isinstance(i, bool) and isinstance(i, int) and 0 <= i < size for i in indices)

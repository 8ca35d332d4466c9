"""Checkers for the ten proportionality axioms.

Each checker returns an :class:`AxiomReport`: a verdict plus, on
violation, an :class:`AxiomWitness` naming the under-represented voter
group, the entitlement level it reaches, and the bundle that proves the
deficit.  The BJR families admit a polynomial test; the BPJR families are
checked by an exact sweep over all cohesive voter groups, which is
exponential and therefore gated by hard size caps (``MAX_EXACT_VOTERS``
voters, ``MAX_EXACT_BUNDLE_ITEMS`` items per common-item set).

The sweep reads a group table that depends on the instance and profile
only, never on the budget.  It is built once per public call and holds
memoized subset weights, one knapsack cache, and the cohesive groups
collapsed to one entry per distinct (common items, union, size), each
keeping the lexicographically first voter tuple of that size.  All
groups of one entry have the same level, representation and deficit, so
no verdict or witness changes, and memory is bounded by the number of
distinct entries, not of groups.  A single check builds the table for
its one budget; ``certify_existence``, ``verify_implications`` and
``replay_witnesses`` in :mod:`probud.oracle` build it once and reuse it,
weights and knapsack results included, for every budget they check.
Verdict-only callers (those and :func:`evaluate_axioms`) read just the
largest size of each (common items, union) class, since every violation
test is monotone in group size, and stop at the first violation.

Errors: a budget that is infeasible, names an unknown item or carries a
``total_cost`` other than its items' cost raises ``InvalidBudget``.
``TooLargeForExact`` is raised for more than ``MAX_EXACT_VOTERS`` voters,
and when a group whose bundles the check must maximize has more than
``MAX_EXACT_BUNDLE_ITEMS`` common items: for BPJR a group reaching level
1, for Local-BPJR any group.  This holds whether or not another group
already violates the axiom; with a zero denominator nothing is owed and
nothing is raised.

Entitlement conventions, shared by every checker:

* the level ``ell`` ranges over the real interval from 1 up to the
  variant's denominator (the limit for "l", the realized spend for "w");
* a group of ``k`` voters can claim levels up to ``k * denominator / n``;
* after cost normalization every item costs at least 1, so a nonempty
  common-item set always weighs at least 1.

Violation conditions are piecewise-constant in ``ell`` between achievable
bundle weights, so the sweeps evaluate only critical levels.  Checkers are
pure functions; verdicts are deterministic, and the reported witness is
the maximum-deficit violation with the lexicographically smallest voter
group.  Entry order alone settles ties: the sweep keeps the first violation
whose deficit beats the best so far by more than ``TOL``, and BJR, where
every deficit is one unit, takes the smallest (voter tuple, item) pair.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from ._bits import MaskWeights, bits, mask_of
from .errors import InvalidBudget, TooLargeForExact
from .model import (
    ALL_AXIOMS,
    AXIOM_VARIANTS,
    TOL,
    AxiomId,
    Budget,
    Instance,
    Profile,
    _require_profile,
    is_feasible,
)

#: Hard cap on voters for the exponential (subset-sweep) checkers.
MAX_EXACT_VOTERS = 22
#: Hard cap on the number of items fed to the exact bundle maximizer.
MAX_EXACT_BUNDLE_ITEMS = 25

POLYNOMIAL = "polynomial"
BRUTE_FORCE = "bruteForce"

_BJR_FAMILIES = ("bjr", "strong-bjr")
_BRUTE_FAMILIES = ("strong-bpjr", "bpjr", "local-bpjr")


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

    Exact via half-set enumeration, hence at most
    ``MAX_EXACT_BUNDLE_ITEMS`` items.  The empty bundle always fits, so
    the result is 0 when no single item does.
    """
    keys = list(costs)
    if len(keys) > MAX_EXACT_BUNDLE_ITEMS:
        raise TooLargeForExact(
            f"bundle maximizer supports at most {MAX_EXACT_BUNDLE_ITEMS} items, got {len(keys)}"
        )
    values = [costs[k] for k in keys]
    weight, mask = _max_bundle_over(values, range(len(keys)), cap)
    return weight, frozenset(keys[i] for i in bits(mask))


def max_bundle_weight(costs: Mapping, cap: float) -> float:
    """Weight of the heaviest sub-bundle of ``costs`` fitting under ``cap``."""
    return max_bundle(costs, cap)[0]


def _subset_pairs(values: Sequence[float], positions: Sequence[int]) -> list[tuple[float, int]]:
    # all (sum, bitmask-over-positions) pairs of one half
    out = [(0.0, 0)]
    for value, pos in zip(values, positions):
        bit = 1 << pos
        out.extend([(s + value, m | bit) for s, m in out])
    return out


def _max_bundle_over(values: Sequence[float], positions: Sequence[int], cap: float) -> tuple[float, int]:
    bound = cap + TOL
    if bound < 0 or not values:
        return 0.0, 0
    half = len(values) // 2
    left = _subset_pairs(values[:half], positions[:half])
    right = _subset_pairs(values[half:], positions[half:])
    right.sort()
    right_sums = [s for s, _ in right]
    best_weight, best_mask = 0.0, 0
    for s, m in left:
        if s > bound:
            continue
        i = bisect_right(right_sums, bound - s) - 1
        if i < 0:
            continue
        total = s + right_sums[i]
        if total > best_weight + 1e-12:
            best_weight, best_mask = total, m | right[i][1]
    return best_weight, best_mask


def _cohesive_groups(masks: Sequence[int]) -> list[tuple[tuple[int, ...], int, int]]:
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
        for k, mask in later[voters[-1]]:  # pushed last to first, so popped in order
            shared = common & mask
            if shared:
                stack.append((voters + (k,), shared, union | mask))
    return [(voters, common, union) for (common, union, _), voters in first.items()]


class _GroupTable:
    """Everything the checkers need from ``(inst, profile)`` alone.

    Built once per public call and shared by every budget that call
    checks: each item's approver mask, memoized subset weights, one
    knapsack cache keyed by (item mask, cap), and, on first use, the
    cohesive groups of :func:`_cohesive_groups` and their largest-size
    classes.  Nothing in it outlives the call.
    """

    def __init__(self, inst: Instance, profile: Profile) -> None:
        self.approvers = _require_profile(inst, profile)
        self.inst = inst
        self.profile = profile
        self.n = profile.num_voters
        self.weights = MaskWeights(inst.cost)
        self._bundles: dict[tuple[int, float], tuple[float, int]] = {}

    @cached_property
    def groups(self) -> list[tuple[tuple[int, ...], int, int]]:
        """One entry per (common, union, size), in voter-tuple order."""
        # each voter's ballot as an item mask, read off the approver masks
        return _cohesive_groups([mask_of(c for c, voters in enumerate(self.approvers) if voters >> v & 1)
                                 for v in range(self.n)])

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

    def heaviest(self, mask: int, cap: float) -> tuple[float, int]:
        """Heaviest sub-bundle of the items in ``mask`` fitting under
        ``cap``, as ``(weight, bundle_mask)``."""
        key = (mask, cap)
        hit = self._bundles.get(key)
        if hit is None:
            positions = list(bits(mask))
            hit = _max_bundle_over([self.inst.cost[i] for i in positions], positions, cap)
            self._bundles[key] = hit
        return hit

    def report(self, budget: Budget, axiom: AxiomId) -> AxiomReport:
        """The checker's report, witness included, for one budget."""
        self._admit(budget, axiom)
        if axiom.family in _BJR_FAMILIES:
            return self._bjr_report(budget, axiom)
        # Entries come in increasing voter-tuple order, each holding the
        # smallest tuple of the groups that share its deficit, so keeping
        # the first violation that beats the best by more than TOL gives a
        # tie to the smaller tuple, as a sweep over every group would.
        best = None
        for violation in self._violations(budget, axiom, False):
            if best is None or violation[0] > best[0] + TOL:
                best = violation
        if best is None:
            return AxiomReport(axiom, True, None, BRUTE_FORCE)
        _, voters, (level, common, bundle, represented, required) = best
        witness = AxiomWitness(
            voters=frozenset(voters),
            level=level,
            common_items=frozenset(bits(common)),
            witness_bundle=frozenset(bits(bundle)),
            represented_weight=represented,
            required_weight=required,
        )
        return AxiomReport(axiom, False, witness, BRUTE_FORCE)

    def holds(self, budget: Budget, axiom: AxiomId) -> bool:
        """The verdict alone: stops at the first violating class."""
        self._admit(budget, axiom)
        if axiom.family in _BJR_FAMILIES:
            return self._bjr_report(budget, axiom).satisfied
        return next(self._violations(budget, axiom, True), None) is None

    def verdicts(self, budget: Budget) -> dict[AxiomId, bool]:
        """:meth:`holds` for all ten axioms, in ``ALL_AXIOMS`` order."""
        return {axiom: self.holds(budget, axiom) for axiom in ALL_AXIOMS}

    def _admit(self, budget: Budget, axiom: AxiomId) -> None:
        if not is_feasible(self.inst, budget):
            raise InvalidBudget("axiom checks expect a feasible budget")
        if axiom.family in _BRUTE_FAMILIES and self.n > MAX_EXACT_VOTERS:
            raise TooLargeForExact(
                f"exact subset sweep supports at most {MAX_EXACT_VOTERS} voters, got {self.n}"
            )

    def _bjr_report(self, budget: Budget, axiom: AxiomId) -> AxiomReport:
        """:func:`check_bjr_poly` on a budget already admitted."""
        inst, n = self.inst, self.n
        denom = inst.limit if axiom.variant == "l" else budget.total_cost
        if denom <= TOL:
            return AxiomReport(axiom, True, None, POLYNOMIAL)

        represented = 0
        for c in budget.selected:
            represented |= self.approvers[c]
        qualifying = []
        for c, voters in enumerate(self.approvers):
            if axiom.family == "bjr" and abs(inst.cost[c] - 1.0) > TOL:
                continue  # plain BJR owes only unit-cost items
            group = voters & ~represented
            if group and group.bit_count() >= n / denom - TOL:
                qualifying.append((tuple(bits(group)), c))
        if not qualifying:
            return AxiomReport(axiom, True, None, POLYNOMIAL)

        # every deficit is one unit: the smallest voter tuple, then item, wins
        voters, item = min(qualifying)
        common = frozenset.intersection(*(self.profile.ballots[i] for i in voters))
        witness = AxiomWitness(
            voters=frozenset(voters),
            level=1.0,
            common_items=common,
            witness_bundle=frozenset((item,)),
            represented_weight=0.0,
            required_weight=1.0,
        )
        return AxiomReport(axiom, False, witness, POLYNOMIAL)

    def _violations(self, budget: Budget, axiom: AxiomId, verdict_only: bool) -> Iterator[tuple]:
        """The violating entries of one BPJR-family axiom, in entry order,
        as ``(deficit, voters, (level, common, bundle, represented,
        required))`` with masks for the item sets.

        Runs over every entry for a witness and over :attr:`classes` for
        a verdict.
        """
        inst, n, weights = self.inst, self.n, self.weights
        family = axiom.family
        denom = inst.limit if axiom.variant == "l" else budget.total_cost
        if denom <= TOL:
            return  # no group's entitlement reaches one unit
        # A full sweep hands the knapsack the common items of every BPJR
        # group reaching level 1 and of every Local-BPJR group; refuse up
        # front, so a verdict that stops early raises exactly as it does.
        for size in self._oversized:
            if family == "local-bpjr" or (family == "bpjr" and size * denom / n >= 1.0 - TOL):
                raise TooLargeForExact(f"common-item set exceeds {MAX_EXACT_BUNDLE_ITEMS} items")
        groups = self.classes if verdict_only else self.groups
        selected = mask_of(budget.selected)

        if family == "strong-bpjr":
            # the claimable levels form an interval; test its top
            for voters, common, union in groups:
                level = min(len(voters) * denom / n, weights[common])
                if level < 1.0 - TOL:
                    continue
                represented = weights[union & selected]
                if represented < level - TOL:
                    yield level - represented, voters, (level, common, common, represented, level)
        elif family == "bpjr":
            # the bundle maximizer is monotone in the cap; test the top level
            for voters, common, union in groups:
                share = len(voters) * denom / n
                level = min(share, weights[common])
                if level < 1.0 - TOL:
                    continue
                threshold, bundle = self.heaviest(common, min(share, denom))
                if threshold <= TOL:
                    continue
                represented = weights[union & selected]
                if represented < threshold - TOL:
                    yield threshold - represented, voters, (level, common, bundle, represented, threshold)
        else:
            for voters, common, union in groups:
                represented_mask = union & selected
                if represented_mask & ~common:
                    continue  # no bundle of common items can strictly contain it
                rest = common & ~represented_mask
                if not rest:
                    continue
                cap = len(voters) * denom / n
                represented = weights[represented_mask]
                cheapest = min(inst.cost[i] for i in bits(rest))
                if represented + cheapest > cap + TOL:
                    continue
                extension, extra = self.heaviest(rest, cap - represented)
                level = represented + extension
                yield extension, voters, (level, common, represented_mask | extra, represented, level)


def check_bjr_poly(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> AxiomReport:
    """Polynomial test of the BJR or Strong-BJR axiom (either variant).

    A violation is a group of wholly unrepresented voters, at least
    ``n / denominator`` strong, sharing a candidate item: any item for the
    strong family (normalization makes every shared item weigh at least
    one unit), an item of cost exactly 1 for plain BJR.
    """
    if axiom.family not in _BJR_FAMILIES:
        raise ValueError(f"check_bjr_poly handles {_BJR_FAMILIES}, got {axiom.family!r}")
    return _GroupTable(inst, profile).report(budget, axiom)


def check_strong_bpjr(inst: Instance, profile: Profile, budget: Budget, variant: str = "l") -> AxiomReport:
    """Exact check of Strong-BPJR: every cohesive group whose size grants
    it level ``ell`` must see at least ``ell`` units of weight on items it
    collectively approves.

    For a fixed group the claimable levels form an interval, so it
    suffices to test the top one: ``min(size * denom / n, weight of the
    common items)``.
    """
    return _GroupTable(inst, profile).report(budget, AxiomId("strong-bpjr", variant))


def check_bpjr(inst: Instance, profile: Profile, budget: Budget, variant: str = "l") -> AxiomReport:
    """Exact check of BPJR: a cohesive group is owed the heaviest bundle
    of its common items that fits its entitlement cap.

    The cap is ``size * limit / n`` for the "l" variant and
    ``min(size * spend / n, spend)`` for the "w" variant, where bundles
    are capped by the level itself and the threshold is maximized over
    claimable levels; the bundle maximizer is monotone in the cap, so
    only the top level needs evaluating.
    """
    return _GroupTable(inst, profile).report(budget, AxiomId("bpjr", variant))


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
    return _GroupTable(inst, profile).report(budget, AxiomId("local-bpjr", variant))


def check_axiom(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> AxiomReport:
    """Dispatch to the appropriate checker for ``axiom``."""
    return _GroupTable(inst, profile).report(budget, axiom)


def evaluate_axioms(inst: Instance, profile: Profile, budget: Budget) -> dict[AxiomId, bool]:
    """Satisfaction verdicts for all ten axioms at once, in ``ALL_AXIOMS``
    order.

    Equivalent to calling :func:`check_axiom` per axiom, errors included:
    it raises ``TooLargeForExact`` exactly when one of the six BPJR-family
    checks would, even where another group already settled the verdict.
    The six share one group table built for this call; each verdict reads
    only the largest group of every (common items, union) class and stops
    at its first violation, and no witness is built.
    :func:`probud.oracle.verify_implications` shares one table across all
    its budgets instead.
    """
    return _GroupTable(inst, profile).verdicts(budget)


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
    (transitively closed, reflexive)."""
    return a in _IMPLIES[b]


def recheck_witness(inst: Instance, profile: Profile, budget: Budget, report: AxiomReport) -> bool:
    """Re-verify a violation witness from scratch against the definition.

    Recomputes the group's common items, union, and representation from
    the ballots and re-evaluates the violated inequality; used to make
    every returned witness independently checkable.
    """
    witness = report.witness
    if report.satisfied or witness is None:
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
    if len(voters) < witness.level * n / denom - TOL:
        return False
    bundle = witness.witness_bundle
    if not bundle <= common:
        return False

    if axiom.family in _BJR_FAMILIES:
        if represented > TOL or len(bundle) != 1:
            return False
        (item,) = bundle
        if axiom.family == "bjr" and abs(inst.cost[item] - 1.0) > TOL:
            return False
        return len(voters) >= n / denom - TOL
    if axiom.family == "strong-bpjr":
        level = witness.level
        return (
            level >= 1.0 - TOL
            and inst.weight(common) >= level - TOL
            and represented < level - TOL
        )
    if axiom.family == "bpjr":
        cap = len(voters) * denom / n
        bundle_weight = inst.weight(bundle)
        return (
            abs(bundle_weight - witness.required_weight) <= TOL
            and bundle_weight <= min(cap, denom) + TOL
            and bundle_weight >= 1.0 - TOL
            and represented < bundle_weight - TOL
        )
    # local-bpjr: the bundle must be a strict superset of the realized
    # representation and a maximizer at its own weight level
    represented_items = union & budget.selected
    if not represented_items < bundle:
        return False
    level = witness.level
    if abs(inst.weight(bundle) - level) > TOL:
        return False
    if level > len(voters) * denom / n + TOL or level < 1.0 - TOL:
        return False
    backing = {i: inst.cost[i] for i in common}
    return inst.weight(bundle) >= max_bundle_weight(backing, level) - TOL

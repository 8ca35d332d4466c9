"""Core data model: instances, approval profiles, budgets, and axiom ids.

Costs are normalized so the cheapest item costs exactly one unit; every
proportionality threshold in this package is stated in those units, which
keeps verdicts invariant under rescaling of the currency.  All numeric
comparisons use the single absolute tolerance ``TOL``.

Every type here is immutable after construction and safe to share across
threads; the module-level operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidBudget, InvalidCost, InvalidLimit, InvalidProfile

#: Absolute tolerance for every cost/limit comparison in the package.
TOL = 1e-9

AXIOM_FAMILIES = ("strong-bjr", "bjr", "strong-bpjr", "bpjr", "local-bpjr")
AXIOM_VARIANTS = ("l", "w")


@dataclass(frozen=True)
class Instance:
    """A set of items with normalized costs plus a spending limit.

    Items are addressed by dense indices ``0..m-1``; ``names`` holds the
    display names in the same order.  ``cost[i]`` is the normalized cost
    of item ``i`` (the minimum over all items is 1) and ``limit`` is the
    normalized spending limit.  Use :func:`normalize` to build an
    instance from raw, un-normalized costs.
    """

    names: tuple[str, ...]
    cost: tuple[float, ...]
    limit: float

    def __post_init__(self) -> None:
        if not self.names:
            raise InvalidCost("an instance needs at least one item")
        if len(self.names) != len(self.cost):
            raise InvalidCost("names and costs differ in length")
        for name, c in zip(self.names, self.cost):
            _check_cost(name, c)
        if abs(min(self.cost) - 1.0) > TOL:
            raise InvalidCost("costs are not normalized: the cheapest item must cost 1")
        if not math.isfinite(sum(self.cost)):
            raise InvalidCost("the total cost of all items overflows to infinity")
        _check_limit(self.limit)

    @property
    def num_items(self) -> int:
        return len(self.names)

    def weight(self, items: Iterable[int]) -> float:
        """Total cost of the given item indices, summed in ascending index
        order, so the same items always give the same float."""
        return sum(self.cost[i] for i in sorted(items))


@dataclass(frozen=True)
class Profile:
    """One approval ballot (a set of item indices) per voter.

    Voters are addressed by dense indices ``0..n-1``.  Empty ballots are
    allowed and the voters still count toward group-size thresholds.
    """

    ballots: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, ballots: Iterable[Iterable[int]]) -> "Profile":
        return cls(tuple(frozenset(b) for b in ballots))

    @property
    def num_voters(self) -> int:
        return len(self.ballots)


@dataclass(frozen=True)
class Budget:
    """A selected set of item indices together with its total cost.

    The feasibility tests and the axiom checkers reject a budget whose
    ``total_cost`` differs from the cost of its items (``InvalidBudget``);
    :meth:`of` computes it.
    """

    selected: frozenset[int]
    total_cost: float

    @classmethod
    def of(cls, inst: Instance, items: Iterable[int]) -> "Budget":
        """Build a budget over ``inst``, validating the item indices."""
        selected = frozenset(items)
        _require_items(inst, selected)
        return cls(selected, inst.weight(selected))


@dataclass(frozen=True, order=True)
class AxiomId:
    """One of the ten proportionality axioms: a family plus a variant.

    The variant selects the entitlement denominator: ``"l"`` measures
    group entitlements against the spending limit, ``"w"`` against the
    realized total cost of the budget under test.
    """

    family: str
    variant: str

    def __post_init__(self) -> None:
        if self.family not in AXIOM_FAMILIES:
            raise ValueError(f"unknown axiom family {self.family!r}")
        if self.variant not in AXIOM_VARIANTS:
            raise ValueError(f"unknown axiom variant {self.variant!r}")

    def __str__(self) -> str:
        return f"{self.family}-{self.variant}"

    @classmethod
    def parse(cls, text: str) -> "AxiomId":
        family, sep, variant = text.strip().lower().rpartition("-")
        if not sep:
            raise ValueError(f"cannot parse axiom id {text!r}")
        return cls(family, variant)


#: The ten axioms, in a fixed deterministic order.
ALL_AXIOMS: tuple[AxiomId, ...] = tuple(
    AxiomId(f, v) for f in AXIOM_FAMILIES for v in AXIOM_VARIANTS
)


def normalize(raw_costs, raw_limit: float) -> Instance:
    """Build an instance by dividing all costs and the limit by the
    cheapest raw cost.

    ``raw_costs`` is a mapping from item name to positive raw cost, or an
    iterable of ``(name, cost)`` pairs; item order is preserved.
    """
    if isinstance(raw_costs, Mapping):
        pairs = list(raw_costs.items())
    else:
        pairs = list(raw_costs)
    if not pairs:
        raise InvalidCost("an instance needs at least one item")
    for name, c in pairs:
        _check_cost(name, c)
    _check_limit(raw_limit)
    scale = min(c for _, c in pairs)
    names = tuple(name for name, _ in pairs)
    cost = tuple(c / scale for _, c in pairs)
    # Instance rejects a cost or limit that the division overflows to inf
    return Instance(names, cost, raw_limit / scale)


def _check_cost(name: str, c: float) -> None:
    if not math.isfinite(c):
        raise InvalidCost(f"item {name!r} has non-finite cost {c}")
    if not c > 0:
        raise InvalidCost(f"item {name!r} has non-positive cost {c}")


def _check_limit(limit: float) -> None:
    if not math.isfinite(limit):
        raise InvalidLimit(f"limit must be finite, got {limit}")
    if limit < 0:
        raise InvalidLimit(f"limit must be non-negative, got {limit}")


def is_feasible(inst: Instance, budget: Budget) -> bool:
    """True iff the budget's total cost stays within the limit."""
    _require_budget(inst, budget)
    return budget.total_cost <= inst.limit + TOL


def is_exhaustive(inst: Instance, budget: Budget) -> bool:
    """True iff no further item can be added without exceeding the limit.

    The budget must be feasible.
    """
    if not is_feasible(inst, budget):
        raise InvalidBudget("exhaustiveness is only defined for feasible budgets")
    total = budget.total_cost
    for c in range(inst.num_items):
        if c not in budget.selected and total + inst.cost[c] <= inst.limit + TOL:
            return False
    return True


def _require_items(inst: Instance, items: Iterable[int]) -> None:
    for i in items:
        if isinstance(i, bool) or not isinstance(i, int):
            raise InvalidBudget(f"item index {i!r} is not an integer")
        if not 0 <= i < inst.num_items:
            raise InvalidBudget(f"item index {i} out of range")


def _require_budget(inst: Instance, budget: Budget) -> None:
    _require_items(inst, budget.selected)
    # every "w" entitlement is measured against total_cost; a caller's
    # total summed in another order may differ by rounding, relative to size
    weight = inst.weight(budget.selected)
    if not abs(budget.total_cost - weight) <= TOL * max(1.0, weight):  # NaN fails too
        raise InvalidBudget(
            f"budget total cost {budget.total_cost} disagrees with its items' cost {weight}"
        )


def _require_profile(inst: Instance, profile: Profile) -> list[int]:
    """Check every ballot against ``inst``; return each item's approving
    voters as a bitmask (bit ``v`` for voter ``v``), the one approver view
    that the rules and checkers read after checking once per public call."""
    m = inst.num_items
    approvers = [0] * m
    for voter, ballot in enumerate(profile.ballots):
        for i in ballot:
            if isinstance(i, bool) or not isinstance(i, int):
                raise InvalidProfile(f"voter {voter} approves non-integer item index {i!r}")
            if not 0 <= i < m:
                raise InvalidProfile(f"voter {voter} approves unknown item index {i}")
            approvers[i] |= 1 << voter
    return approvers

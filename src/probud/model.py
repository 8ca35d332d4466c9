"""Core data model: instances, approval profiles, budgets, and axiom ids.

Costs are normalized so the cheapest item costs exactly one unit; every
proportionality threshold in this package is stated in those units, which
keeps verdicts invariant under rescaling of the currency.  All numeric
comparisons use the single absolute tolerance ``TOL``, and each tolerance
test is stated once, here, in weight units: :func:`fits` (an amount within
a bound, with :func:`fit_bound` the largest amount that fits),
:func:`reaches` (a group claims a level), :func:`falls_short` (a weight
below another) and :func:`is_unit` (a cost of one unit).  The rules, the
checkers, ``recheck_witness``, the subset walk's bound and the instance
generator call them.

Every type here is immutable after construction and safe to share across
threads; the module-level operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping

from .errors import InvalidBudget, InvalidChoice, InvalidCost, InvalidLimit, InvalidProfile

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
        if len(self.names) != len(_iterable(self.cost, InvalidCost, "the costs")):
            raise InvalidCost("names and costs differ in length")
        for name, c in zip(self.names, self.cost):
            _check_cost(name, c)
        if not is_unit(min(self.cost)):
            raise InvalidCost("costs are not normalized: the cheapest item must cost 1")
        if not math.isfinite(reduce(add, self.cost, 0.0)):
            raise InvalidCost("the total cost of all items overflows to infinity")
        _check_limit(self.limit)

    @property
    def num_items(self) -> int:
        return len(self.names)

    def weight(self, items: Iterable[int]) -> float:
        """Total cost of the given item indices, added left to right from
        ``0.0`` in ascending index order, so the same items always give
        the same float and no items give ``0.0``."""
        return reduce(add, map(self.cost.__getitem__, sorted(items)), 0.0)


@dataclass(frozen=True)
class Profile:
    """One approval ballot (a set of item indices) per voter.

    Voters are addressed by dense indices ``0..n-1``.  Empty ballots are
    allowed and the voters still count toward group-size thresholds.
    """

    ballots: tuple[frozenset[int], ...]

    @classmethod
    def of(cls, ballots: Iterable[Iterable[int]]) -> "Profile":
        ballots = _iterable(ballots, InvalidProfile, "the ballots")
        return cls(tuple(
            frozenset(_iterable(b, InvalidProfile, f"voter {v}'s ballot")) for v, b in enumerate(ballots)
        ))

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
        selected = frozenset(_iterable(items, InvalidBudget, "a budget's items"))
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
            raise InvalidChoice(f"unknown axiom family {self.family!r}")
        if self.variant not in AXIOM_VARIANTS:
            raise InvalidChoice(f"unknown axiom variant {self.variant!r}")

    def __str__(self) -> str:
        return f"{self.family}-{self.variant}"

    @classmethod
    def parse(cls, text: str) -> "AxiomId":
        if not isinstance(text, str):
            raise InvalidChoice(f"expected axiom id text, got a {type(text).__name__}")
        family, sep, variant = text.strip().lower().rpartition("-")
        if not sep:
            raise InvalidChoice(f"cannot parse axiom id {text!r}")
        return cls(family, variant)


#: The ten axioms, in a fixed deterministic order.
ALL_AXIOMS: tuple[AxiomId, ...] = tuple(
    AxiomId(f, v) for f in AXIOM_FAMILIES for v in AXIOM_VARIANTS
)


def normalize(raw_costs, raw_limit: float) -> Instance:
    """Build an instance by dividing all costs and the limit by the
    cheapest raw cost.

    ``raw_costs`` is a mapping from item name to positive raw cost, or an
    iterable of ``(name, cost)`` pairs (tuples or lists); item order is
    preserved.
    """
    if isinstance(raw_costs, Mapping):
        pairs = list(raw_costs.items())
    else:
        pairs = list(_iterable(raw_costs, InvalidCost, "the raw costs"))
    if not pairs:
        raise InvalidCost("an instance needs at least one item")
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise InvalidCost(f"raw cost {k} is not a (name, cost) pair")
    for name, c in pairs:
        _check_cost(name, c)
    _check_limit(raw_limit)
    scale = min(c for _, c in pairs)
    # from lists, not generators: CPython resizes a tuple built from a
    # generator, and once freed it stays on the free list of its new size
    # until a full collection, so a process parsing many instances piles
    # them up
    names = tuple([name for name, _ in pairs])
    cost = tuple([c / scale for _, c in pairs])
    # a tiny cheapest cost can overflow a quotient to inf: name the raw values
    for (name, c), q in zip(pairs, cost):
        if not math.isfinite(q):
            raise InvalidCost(
                f"item {name!r} has cost {c}, which divided by the cheapest cost {scale} is not finite"
            )
    limit = raw_limit / scale
    if not math.isfinite(limit):
        raise InvalidLimit(f"limit {raw_limit} divided by the cheapest cost {scale} is not finite")
    return Instance(names, cost, limit)


def _beyond_float(x: int | float) -> bool:
    """True for an ``int`` too large in magnitude to convert to a float,
    which ``math.isfinite`` and float arithmetic reject with a raw
    ``OverflowError``.  Error messages do not print such an ``int``:
    ``str`` refuses one of more than 4300 digits."""
    try:
        float(x)
    except OverflowError:
        return True
    return False


def _check_cost(name: str, c: float) -> None:
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise InvalidCost(f"item {name!r} has cost {c!r}, which is not a number")
    if _beyond_float(c):
        raise InvalidCost(f"item {name!r} has an integer cost too large for a finite float")
    if not math.isfinite(c):
        raise InvalidCost(f"item {name!r} has non-finite cost {c}")
    if not c > 0:
        raise InvalidCost(f"item {name!r} has non-positive cost {c}")


def _check_limit(limit: float) -> None:
    if isinstance(limit, bool) or not isinstance(limit, (int, float)):
        raise InvalidLimit(f"limit must be a number, got {limit!r}")
    if _beyond_float(limit):
        raise InvalidLimit("limit is an integer too large for a finite float")
    if not math.isfinite(limit):
        raise InvalidLimit(f"limit must be finite, got {limit}")
    if limit < 0:
        raise InvalidLimit(f"limit must be non-negative, got {limit}")


def fit_bound(bound: float) -> float:
    """The largest amount that :func:`fits` under ``bound``, for a loop
    that compares many amounts with one bound."""
    return bound + TOL


def fits(amount: float, bound: float) -> bool:
    """True iff ``amount`` is at most ``bound``, within ``TOL``.  The amount
    of an item set is ``reduce(add, costs, 0.0)`` over its costs in
    ascending index order, as ``Instance.weight``, ``MaskFold`` and the
    subset walk give it, so one set always gets one verdict.  It is not the
    builtin ``sum``: from Python 3.12 on that compensates float rounding,
    and can round a total one ulp away from the fold."""
    return amount <= fit_bound(bound)


def reaches(size: int, n: int, denom: float, level: float) -> bool:
    """True iff a group of ``size`` of ``n`` voters claims ``level``
    against the denominator ``denom``: ``level`` is at most its share
    ``size * denom / n``, within ``TOL``, in weight units."""
    return fits(level, size * denom / n)


def falls_short(have: float, need: float) -> bool:
    """True iff the weight ``have`` is below ``need`` by more than ``TOL``."""
    return have < need - TOL


def is_unit(cost: float) -> bool:
    """True iff ``cost`` is one normalized unit, within ``TOL``."""
    return abs(cost - 1.0) <= TOL


def is_feasible(inst: Instance, budget: Budget) -> bool:
    """True iff the budget's total cost :func:`fits` under the limit."""
    _require_budget(inst, budget)
    return fits(budget.total_cost, inst.limit)


def is_exhaustive(inst: Instance, budget: Budget) -> bool:
    """True iff no further item can be added without exceeding the limit.

    The budget must be feasible.
    """
    if not is_feasible(inst, budget):
        raise InvalidBudget("exhaustiveness is only defined for feasible budgets")
    for c in range(inst.num_items):
        if c not in budget.selected and fits(inst.weight(budget.selected | {c}), inst.limit):
            return False
    return True


def _iterable(values, error: type[Exception], what: str):
    """``values``, if it can be iterated; else ``error``, so that a public
    argument of the wrong type, such as ``None``, raises a package error
    rather than a raw ``TypeError``."""
    try:
        iter(values)
    except TypeError:
        raise error(f"{what} must be iterable, got {type(values).__name__}") from None
    return values


def _require_instance(inst: Instance) -> None:
    if not isinstance(inst, Instance):
        raise InvalidChoice(f"expected an Instance, got a {type(inst).__name__}")


def _require_items(inst: Instance, items: Iterable[int]) -> None:
    _require_instance(inst)
    for i in _iterable(items, InvalidBudget, "a budget's items"):
        if isinstance(i, bool) or not isinstance(i, int):
            raise InvalidBudget(f"item index {i!r} is not an integer")
        if not 0 <= i < inst.num_items:
            raise InvalidBudget(f"item index {i} out of range")


def _require_budget(inst: Instance, budget: Budget) -> None:
    if not isinstance(budget, Budget):
        raise InvalidBudget(f"expected a Budget, got a {type(budget).__name__}")
    _require_items(inst, budget.selected)
    total = budget.total_cost
    if isinstance(total, bool) or not isinstance(total, (int, float)) or _beyond_float(total):
        raise InvalidBudget("budget total cost is not a number in float range")
    # every "w" entitlement is measured against total_cost; a caller's
    # total summed in another order may differ by rounding, relative to size
    weight = inst.weight(budget.selected)
    if not abs(total - weight) <= TOL * max(1.0, weight):  # NaN fails too
        raise InvalidBudget(f"budget total cost {total} disagrees with its items' cost {weight}")


def _require_profile(inst: Instance, profile: Profile) -> list[int]:
    """Check every ballot against ``inst``; return each item's approving
    voters as a bitmask (bit ``v`` for voter ``v``), the one approver view
    that the rules and checkers read after checking once per public call."""
    _require_instance(inst)
    if not isinstance(profile, Profile):
        raise InvalidProfile(f"expected a Profile, got a {type(profile).__name__}")
    m = inst.num_items
    approvers = [0] * m
    for voter, ballot in enumerate(_iterable(profile.ballots, InvalidProfile, "the ballots")):
        for i in _iterable(ballot, InvalidProfile, f"voter {voter}'s ballot"):
            if isinstance(i, bool) or not isinstance(i, int):
                raise InvalidProfile(f"voter {voter} approves non-integer item index {i!r}")
            if not 0 <= i < m:
                raise InvalidProfile(f"voter {voter} approves unknown item index {i}")
            approvers[i] |= 1 << voter
    return approvers

"""Budgeting procedures: greedy BJR-L, constructive BPJR-L, and the
sequential min-max-load rule.

The sequential rule repeatedly adds the affordable approved item whose
inclusion allows the smallest possible maximum per-voter cost load, where
the cost of every selected item is spread over its approvers and already
assigned loads may be redistributed.  The spread kernel
(:func:`min_max_load`) finds that optimum exactly by Dinkelbach iteration
on a flow from the selected items into ballot types (voters whose ballots
agree on the selected items form one type): each flow either carries
every cost at the current load cap or yields, from its min cut, an item
set whose cost-per-approver ratio is the next cap.  It usually needs one
flow.  The last set found is returned as the certificate ``tight``.

Ballot types are voter bitmasks cut from the approver masks of
:func:`probud.model._require_profile`: adding an item splits every type
by the item's approvers and adds its approvers outside every type
(:func:`_split`), and no ballot is scanned.  :func:`gpseq` carries its
selection's types from step to step and splits them once more for each
candidate.  The flow is held on the bipartite graph of items and types
itself: what each item carries on each of its types, each item's
uncarried cost and each type's room under the cap.  The graph is built in
one pass that also starts the flow, every item putting what fits of its
cost straight onto its types; then each round one breadth-first search
from the items with uncarried cost, crossing back from a type to the
items that carry flow on it, finds a path to a type with room.  A
Dinkelbach step raises every type's room in place and augments the flow
it already has, which stays feasible because the cap only grows.  A run
maps types back to voters once: its spread is read from the flow of its
last pick.

All rules are deterministic: ties among items are broken by an explicit
policy (index order by default), and exhaustive fills always proceed
cheapest-first, then by index.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from ._bits import MaskFold, bits
from .errors import InvalidBudget, InvalidChoice, InvalidProfile, NoApprover, TooLargeForExact
from .model import (TOL, Budget, Instance, Profile, _iterable, _require_items, _require_profile,
                    falls_short, fit_bound, fits, is_unit)

#: Recognized tie-breaking policies for the sequential rule.
TIE_POLICIES = ("lex", "cheapest", "most-approved")

#: Hard cap on items for the constructive BPJR-L procedure.  It lists and
#: sorts the sum of every feasible bundle, so time and memory grow with
#: their number (at most 2**m); desk scale in practice is m <~ 20.
MAX_CONSTRUCT_ITEMS = 25


@dataclass(frozen=True)
class LoadAssignment:
    """A spread of selected items' costs over approving voters.

    ``spread`` maps ``(item, voter)`` to the share of the item's cost the
    voter carries (zero entries omitted); ``voter_load[i]`` is voter i's
    total share and ``max_load`` the optimal maximum load (a voter's load
    may exceed it by float rounding only).  ``tight`` is
    the certificate: an item set S with cost(S) / |N(S)| = ``max_load``,
    where N(S) is the set of voters approving some item of S, so no
    spread can do better.  It is empty for an empty selection.
    """

    spread: Mapping[tuple[int, int], float]
    voter_load: tuple[float, ...]
    max_load: float
    tight: frozenset[int]


@dataclass(frozen=True)
class SequentialStep:
    """One iteration of the sequential rule: every affordable approved
    candidate with its optimal max load, the tie set, and the pick."""

    chosen: int
    loads: Mapping[int, float]
    tie_set: frozenset[int]


@dataclass(frozen=True)
class RuleTrace:
    """Full record of a sequential run.

    ``filled`` lists unapproved items appended by the opt-in
    post-processing pass; replaying ``steps`` then ``filled`` reproduces
    ``final_budget``.  ``final_assignment`` is always a
    :class:`LoadAssignment`: it spreads the approved part of the selection
    (fill items have no approvers to carry them), and is the empty spread
    when no step was taken.
    """

    steps: tuple[SequentialStep, ...]
    filled: tuple[int, ...]
    final_budget: Budget
    final_assignment: LoadAssignment


#: Flow, room or uncarried cost at or below which the flow counts it as none.
_FLOW_EPS = 1e-13


def _max_flow(
    near: list[list[int]],
    users: list[list[int]],
    flow: list[list[float]],
    left: list[float],
    room: list[float],
) -> list[int]:
    """Augment the flow from items into ballot types until it is maximum,
    one shortest augmenting path a round.

    Item ``i`` sends over the types ``near[i]``, and ``users[t]`` lists the
    items adjacent to type ``t``; ``flow[i][t]`` is what item ``i`` carries
    on type ``t``, ``left[i]`` its uncarried cost and ``room[t]`` type
    ``t``'s spare capacity.  Each round, a breadth-first search starts from
    the items with uncarried cost, goes from an item to its types and from
    a type back to the items that carry flow on it, and stops at the first
    type with room; the path's amount then moves along the path.  Returns
    the items the last search reached, which found no path: the source
    side of a minimum cut.
    """
    while True:
        reached = [i for i, rest in enumerate(left) if rest > _FLOW_EPS]
        back = [-2] * len(near)  # the type an item was reached through, -1 at a start
        for i in reached:
            back[i] = -1
        came = [-1] * len(room)  # the item a type was reached from
        end = -1
        for i in reached:
            for t in near[i]:
                if came[t] >= 0:
                    continue
                came[t] = i
                if room[t] > _FLOW_EPS:
                    end = t
                    break
                for j in users[t]:
                    if back[j] == -2 and flow[j][t] > _FLOW_EPS:
                        back[j] = t
                        reached.append(j)
            if end >= 0:
                break
        if end < 0:
            return reached
        # the path, walked back from its end: type t was reached from item
        # came[t], which was reached back along its flow on type back[came[t]]
        # or, at back -1, is the start
        amount = room[end]
        t = end
        while t >= 0:
            i = came[t]
            t = back[i]
            amount = min(amount, flow[i][t] if t >= 0 else left[i])
        room[end] -= amount
        t = end
        while t >= 0:
            i = came[t]
            flow[i][t] += amount
            t = back[i]
            if t >= 0:
                flow[i][t] -= amount
        left[i] -= amount


def _split(types: list[int], mask: int) -> list[int]:
    """The ballot types of a selection extended by one item, as voter
    bitmasks: each of the selection's ``types`` split by the item's
    approver ``mask``, then the item's approvers outside every type."""
    refined = []
    fresh = mask
    for voters in types:
        inside = voters & mask
        if inside:
            fresh ^= inside
            refined.append(inside)
            if inside != voters:
                refined.append(voters ^ inside)
        else:
            refined.append(voters)
    if fresh:
        refined.append(fresh)
    return refined


def min_max_load(inst: Instance, profile: Profile, selected: Iterable[int]) -> LoadAssignment:
    """Spread the selected items' costs over their approvers so that the
    maximum per-voter load is minimal.

    The optimum is the Hall ratio: the largest cost(S) / |N(S)| over item
    sets S, where N(S) is the set of voters approving some item of S.
    Voters whose ballots agree on the selected items form one ballot
    type; each item sends its cost over its approval edges into types,
    and a type takes at most its size times the load cap λ.  Dinkelbach
    iteration starts λ at the larger of the whole selection's and the best
    single item's ratio; each maximum flow either carries every cost, so λ
    is optimal, or the items its last search still reaches, the min-cut
    source side, are a set S of strictly larger ratio, which becomes the
    next λ.
    ``max_load`` is therefore an exact ratio cost(S)/|N(S)|, and S is
    returned as ``tight``.  The spread comes from the last flow, each
    type's share split equally among its voters.  It is one optimal
    spread, not a fixed one: where several spreads reach ``max_load``,
    which of them comes out depends on how the flow was found.
    """
    approvers = _require_profile(inst, profile)
    chosen = frozenset(_iterable(selected, InvalidBudget, "the selected items"))
    _require_items(inst, chosen)
    items = sorted(chosen)
    types: list[int] = []
    for c in items:
        if not approvers[c]:
            raise NoApprover(f"item {inst.names[c]!r} has no approving voter")
        types = _split(types, approvers[c])
    network = _optimal_load(inst, approvers, items, types) if items else _NO_NETWORK
    return _load_assignment(items, types, profile.num_voters, network)


#: The network of the empty selection, as :func:`_optimal_load` returns one:
#: it carries nothing, so its spread is the empty one.
_NO_NETWORK = (0.0, frozenset(), (), ())


def _load_assignment(
    items: list[int], types: list[int], num_voters: int, network: tuple
) -> LoadAssignment:
    """The spread carried by the flow of ``network``, as
    :func:`_optimal_load` returns it for ``items`` and ``types``: each
    type's share of an item split equally among the type's voters."""
    max_load, tight, near, flow = network
    spread: dict[tuple[int, int], float] = {}
    voter_load = [0.0] * num_voters
    for i, c in enumerate(items):
        for t in near[i]:
            voters = types[t]
            share = flow[i][t] / voters.bit_count()
            if share > 1e-15:
                for v in bits(voters):
                    spread[(c, v)] = share
                    voter_load[v] += share
    return LoadAssignment(spread, tuple(voter_load), max_load, tight)


def _optimal_load(
    inst: Instance, approvers: Sequence[int], items: list[int], types: list[int]
) -> tuple[float, frozenset[int], list[list[int]], list[list[float]]]:
    """The optimal max load of ``items`` (ascending, each approved by some
    voter) and its ``tight`` set, found by Dinkelbach iteration (see
    :func:`min_max_load`) on one flow from the items into ``types``, the
    items' ballot types as voter bitmasks.

    Returns ``(max_load, tight, near, flow)``: ``near[i]`` lists, ascending,
    the types of the approvers of ``items[i]``, and ``flow[i][t]`` is what
    that item carries on type ``t`` in the last maximum flow.

    The graph is built in one pass that also starts the flow: each item
    sends as much of its cost as still fits straight into each of its
    types, and :func:`_max_flow` augments from there, rerouting those
    shares where it must.  The min-cut source side of a maximum flow does
    not depend on which maximum flow it is, so neither do the Dinkelbach
    steps.
    """
    cost = inst.cost
    best, tight = _hall_ratio(inst, approvers, items), frozenset(items)
    for c in items:
        single = cost[c] / approvers[c].bit_count()
        if single > best:
            best, tight = single, frozenset((c,))

    size = [voters.bit_count() for voters in types]
    room = [s * best for s in size]
    near: list[list[int]] = []
    users: list[list[int]] = [[] for _ in types]
    flow: list[list[float]] = []
    left: list[float] = []
    for i, c in enumerate(items):
        mask = approvers[c]
        mine = [t for t, voters in enumerate(types) if voters & mask]
        carried = [0.0] * len(types)
        rest = cost[c]
        for t in mine:
            users[t].append(i)
            push = room[t] if room[t] < rest else rest
            if push > 0.0:
                room[t] -= push
                carried[t] = push
                rest -= push
        near.append(mine)
        flow.append(carried)
        left.append(rest)

    load_cap = best
    bump = 0.0
    while True:
        # the min-cut source side holds an item exactly when the flow leaves
        # more than the flow tolerance of some item's cost uncarried
        reached = [items[i] for i in _max_flow(near, users, flow, left, room)]
        if not reached:
            return best, tight, near, flow
        improved = _hall_ratio(inst, approvers, reached)
        if improved > best:
            best, tight, load_cap = improved, frozenset(reached), max(load_cap, improved)
        else:
            # Float noise: some cost is uncarried, yet the cut gives no set
            # of larger ratio.  Raise the cap in doubling steps until the
            # flow carries every cost; ``best`` keeps the largest ratio found.
            bump = 2.0 * bump if bump else load_cap * 2.0**-50
            load_cap += bump
        # the cap only grows, so the flow found so far stays feasible: give
        # each type its room under the new cap and augment from there
        for t, s in enumerate(size):
            room[t] = s * load_cap - reduce(add, [flow[i][t] for i in users[t]], 0.0)


def _hall_ratio(inst: Instance, approvers: Sequence[int], items: list[int]) -> float:
    """cost(items) / |N(items)|, where N(items) is the set of voters
    approving some of the ``items`` (ascending)."""
    helpers = 0
    for c in items:
        helpers |= approvers[c]
    return inst.weight(items) / helpers.bit_count()


def _tie_key(policy: str, inst: Instance, approvers: Sequence[int]):
    if policy == "lex":
        return lambda c: c
    if policy == "cheapest":
        return lambda c: (inst.cost[c], c)
    if policy == "most-approved":
        return lambda c: (-approvers[c].bit_count(), c)
    raise InvalidChoice(f"unknown tie policy {policy!r}; expected one of {TIE_POLICIES}")


def gpseq(
    inst: Instance,
    profile: Profile,
    tie: str = "lex",
    fill_unapproved: bool = False,
) -> tuple[Budget, RuleTrace]:
    """Sequential min-max-load rule.

    While some approved item still fits, evaluate every affordable
    approved candidate by the optimal max load of the selection extended
    with it, and add a load-minimal candidate (ties resolved by
    ``tie``).  With ``fill_unapproved``, a post-processing pass then adds
    items nobody approves, cheapest first, while they fit.
    """
    approvers = _require_profile(inst, profile)
    if profile.num_voters == 0:
        raise InvalidProfile("the sequential rule needs at least one voter")
    key = _tie_key(tie, inst, approvers)

    selected: set[int] = set()
    types: list[int] = []  # the selection's ballot types, as voter bitmasks
    steps: list[SequentialStep] = []
    picked = _NO_NETWORK
    while True:
        candidates = [
            c
            for c in range(inst.num_items)
            if c not in selected
            and approvers[c]
            and fits(inst.weight(selected | {c}), inst.limit)
        ]
        if not candidates:
            break
        networks = {
            c: _optimal_load(inst, approvers, sorted(selected | {c}), _split(types, approvers[c]))
            for c in candidates
        }
        loads = {c: network[0] for c, network in networks.items()}
        smallest = min(loads.values())
        tie_set = frozenset(c for c in candidates if fits(loads[c], smallest))
        chosen = min(tie_set, key=key)
        steps.append(SequentialStep(chosen, loads, tie_set))
        selected.add(chosen)
        types = _split(types, approvers[chosen])
        picked = networks[chosen]

    # the last pick's network is the whole selection's, its flow a spread
    assignment = _load_assignment(sorted(selected), types, profile.num_voters, picked)
    unapproved = [c for c in range(inst.num_items) if not approvers[c]]
    filled = _fill(inst, selected, unapproved) if fill_unapproved else []

    budget = Budget.of(inst, selected)
    trace = RuleTrace(tuple(steps), tuple(filled), budget, assignment)
    return budget, trace


def _fill(inst: Instance, selected: set[int], items: Iterable[int]) -> list[int]:
    """Add to ``selected`` each of ``items`` that still fits, cheapest first
    then by index; return those added in order."""
    added = []
    for c in sorted(items, key=lambda c: (inst.cost[c], c)):
        if c not in selected and fits(inst.weight(selected | {c}), inst.limit):
            selected.add(c)
            added.append(c)
    return added


def greedy_bjr_l(inst: Instance, profile: Profile) -> Budget:
    """Greedy polynomial rule producing an exhaustive budget that
    satisfies BJR-L.

    If the unit-cost items do not all fit, repeatedly add the unit-cost
    item approved by the most not-yet-represented voters, retiring
    represented voters, until the selection reaches the rounded limit.
    Then fill to exhaustiveness with the shared cheapest-first fill,
    which takes every unit-cost item first when they all fit.
    """
    approvers = _require_profile(inst, profile)
    if profile.num_voters == 0:
        raise InvalidProfile("greedy_bjr_l needs at least one voter")
    unit_items = [c for c in range(inst.num_items) if is_unit(inst.cost[c])]
    selected: set[int] = set()
    if not fits(inst.weight(unit_items), inst.limit):
        remaining = (1 << profile.num_voters) - 1
        pool = set(unit_items)
        target = math.floor(fit_bound(inst.limit))
        while falls_short(inst.weight(selected), target) and pool:
            best = min(pool, key=lambda c: (-(approvers[c] & remaining).bit_count(), c))
            if not fits(inst.weight(selected | {best}), inst.limit):
                break
            selected.add(best)
            pool.remove(best)
            remaining &= ~approvers[best]
    _fill(inst, selected, range(inst.num_items))
    return Budget.of(inst, selected)


def bpjr_construct(inst: Instance, profile: Profile) -> Budget:
    """Constructive procedure for an exhaustive BPJR-L budget.

    Walk achievable bundle weights downward.  At each level, the options
    are the unselected bundles of exactly that weight that still fit the
    limit and whose supporters among still-unserved voters meet the
    level's group-size threshold; take their ``min`` by (most support,
    fewest items, smallest index tuple) and retire its supporters, until
    no option is left.  Then fill to exhaustiveness cheapest first.

    The bundles and their supporters are built once, by doubling the table
    of bundles that fit item by item, so no infeasible bundle is offered;
    the doubling drops every bundle whose supporters are too few for any
    level its weight can reach, and with it every bundle built from it.
    The levels chain every feasible weight, those of dropped bundles too,
    so they come from a doubling of the subset sums alone, kept sorted as
    they are doubled.  Only the levels near a kept bundle's weight are
    visited, and only those are chained, from the nearest sum below them
    that is a level whatever the sums before it: the first level, or a sum
    more than ``TOL`` above the one before it.  Exponential in the
    number of items (hard cap ``MAX_CONSTRUCT_ITEMS``): the sums are still
    2^m at worst.
    """
    approvers = _require_profile(inst, profile)
    if profile.num_voters == 0:
        raise InvalidProfile("bpjr_construct needs at least one voter")
    m = inst.num_items
    if m > MAX_CONSTRUCT_ITEMS:
        raise TooLargeForExact(
            f"bundle construction supports at most {MAX_CONSTRUCT_ITEMS} items, got {m}"
        )
    n = profile.num_voters
    limit = fit_bound(inst.limit)

    # Every feasible weight, doubled item by item: a subset's items join in
    # ascending index order, so its weight is the float Instance.weight
    # gives.  Sorted after each step: rounding is monotone, so the copies
    # with the item added are ascending too, and the sort merges two runs.
    sums = [0.0]
    for cost in inst.cost:
        sums += [s + cost for s in sums if s + cost <= limit]
        sums.sort()
    start = bisect_left(sums, 1.0 - TOL)

    # The bundles that may qualify, with their supporters, doubled alike.
    # A bundle in a level's window weighs at most level + TOL, rounded, so
    # its weight less 2 TOL is at most the level: with fewer supporters than
    # that weight's threshold it meets no level's threshold, nor does any
    # bundle built from it (heavier, with fewer supporters), and the
    # doubling drops it.  The empty bundle stays, below every level.
    # axioms._subset_pairs doubles alike but carries no supporters, so the
    # two are kept apart rather than made to branch on their caller.
    bundles = [(0.0, 0, (1 << n) - 1)]  # (weight, mask, supporters)
    for c, (cost, voters) in enumerate(zip(inst.cost, approvers)):
        bit = 1 << c
        bundles += [
            (w + cost, mask | bit, sup & voters)
            for w, mask, sup in bundles
            if w + cost <= limit
            and (sup & voters).bit_count() >= (w + cost - 2 * TOL) * n / inst.limit - TOL
        ]
    bundles.sort()
    weights = [w for w, _, _ in bundles]
    # The levels whose window may hold a kept bundle: a window spans TOL
    # either side of its level, so the level lies within 2 TOL of the
    # weight.  The levels chain the sums from sums[start] on, each the first
    # sum more than TOL above the last level, so a sum more than TOL above
    # the sum before it is always a level: the chain near a weight is
    # walked from the last such sum below it, or from sums[start].
    visit: set[float] = set()
    for w in weights:
        low, high = w - 2 * TOL, w + 2 * TOL
        j = max(bisect_left(sums, low), start)
        while start < j < len(sums) and sums[j] - sums[j - 1] <= TOL:
            j -= 1
        while j < len(sums) and sums[j] <= high:
            level = sums[j]
            if level >= low:
                visit.add(level)
            j = bisect_right(sums, TOL, j, key=lambda x: x - level)

    active = (1 << n) - 1  # voters not yet served, as a bitmask
    selected_mask = 0
    cost_of = MaskFold(inst.cost, add, 0.0)
    for level in sorted(visit, reverse=True):
        window = bundles[bisect_left(weights, level - TOL):bisect_right(weights, level + TOL)]
        threshold = level * n / inst.limit - TOL
        while cost_of[selected_mask] + level <= limit:
            options = []
            for _, mask, supporters in window:
                support = (active & supporters).bit_count()
                # a level's weights may sit a tolerance above it
                if (not mask & selected_mask and fits(cost_of[selected_mask | mask], inst.limit)
                        and support >= threshold):
                    options.append(((-support, mask.bit_count(), tuple(bits(mask))), mask, supporters))
            if not options:
                break
            _, mask, supporters = min(options)
            selected_mask |= mask
            active &= ~supporters

    selected = set(bits(selected_mask))
    _fill(inst, selected, range(inst.num_items))
    return Budget.of(inst, selected)

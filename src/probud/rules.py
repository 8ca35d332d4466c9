"""Budgeting procedures: greedy BJR-L, constructive BPJR-L, and the
sequential min-max-load rule.

The sequential rule repeatedly adds the affordable approved item whose
inclusion allows the smallest possible maximum per-voter cost load, where
the cost of every selected item is spread over its approvers and already
assigned loads may be redistributed.  The spread kernel
(:func:`min_max_load`) finds that optimum exactly by Dinkelbach iteration
on a max-flow network over ballot types (voters whose ballots agree on
the selected items share one node): each flow either carries every cost
at the current load cap or yields, from its min cut, an item set whose
cost-per-approver ratio is the next cap.  It usually needs one flow.  The
last set found is returned as the certificate ``tight``.

All rules are deterministic: ties among items are broken by an explicit
policy (index order by default), and exhaustive fills always proceed
cheapest-first, then by index.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ._bits import bits, mask_of, subsets_within
from .errors import InvalidBudget, InvalidProfile, NoApprover, TooLargeForExact
from .model import TOL, Budget, Instance, Profile, _require_profile

#: Recognized tie-breaking policies for the sequential rule.
TIE_POLICIES = ("lex", "cheapest", "most-approved")

#: Hard cap on items for the constructive BPJR-L procedure.  It lists and
#: sorts every feasible bundle, so time and memory grow with their number
#: (at most 2**m); desk scale in practice is m <~ 20.
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
    ``final_budget``.  ``final_assignment`` spreads the approved part of
    the selection (fill items have no approvers to carry them).
    """

    steps: tuple[SequentialStep, ...]
    filled: tuple[int, ...]
    final_budget: Budget
    final_assignment: LoadAssignment | None


class _Dinic:
    """Max flow on a tiny graph with float capacities.

    After :meth:`max_flow`, ``level[v] >= 0`` exactly for the nodes
    reachable from the source in the residual graph: the source side of
    a minimum cut.
    """

    EPS = 1e-13

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.to: list[int] = []
        self.cap: list[float] = []
        self.head: list[list[int]] = [[] for _ in range(num_nodes)]
        self.level: list[int] = []

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0.0)
        self.head[v].append(idx + 1)
        return idx

    def max_flow(self, source: int, sink: int) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.num_nodes
            level[source] = 0
            queue = [source]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > self.EPS and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            self.level = level
            if level[sink] < 0:
                return flow
            it = [0] * self.num_nodes

            def augment(u: int, pushed: float) -> float:
                if u == sink:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > self.EPS and level[v] == level[u] + 1:
                        d = augment(v, min(pushed, self.cap[e]))
                        if d > self.EPS:
                            self.cap[e] -= d
                            self.cap[e ^ 1] += d
                            return d
                    it[u] += 1
                return 0.0

            while True:
                pushed = augment(source, math.inf)
                if pushed <= self.EPS:
                    break
                flow += pushed


def min_max_load(inst: Instance, profile: Profile, selected: Iterable[int]) -> LoadAssignment:
    """Spread the selected items' costs over their approvers so that the
    maximum per-voter load is minimal.

    The optimum is the Hall ratio: the largest cost(S) / |N(S)| over item
    sets S, where N(S) is the set of voters approving some item of S.
    Voters whose ballots agree on the selected items form one ballot
    type; the network runs from a source through items (capacity = item
    cost) and approval edges into types (capacity = type size times the
    load cap λ).  Dinkelbach iteration starts λ at the larger of the
    whole selection's and the best single item's ratio; each max-flow
    either carries every cost, so λ is optimal, or its min-cut source
    side is a set S of strictly larger ratio, which becomes the next λ.
    ``max_load`` is therefore an exact ratio cost(S)/|N(S)|, and S is
    returned as ``tight``.  The spread comes from the last flow, each
    type's share split equally among its voters.
    """
    _require_profile(inst, profile)
    items = sorted(set(selected))
    for c in items:
        if not 0 <= c < inst.num_items:
            raise InvalidBudget(f"item index {c} out of range")
    n = profile.num_voters
    chosen = frozenset(items)
    # ballot types: voters grouped by their ballot restricted to the selection
    types: dict[frozenset[int], list[int]] = {}
    for i, ballot in enumerate(profile.ballots):
        key = ballot & chosen
        if key:
            types.setdefault(key, []).append(i)
    members = list(types.values())
    approver_types = {c: [t for t, key in enumerate(types) if c in key] for c in items}
    for c in items:
        if not approver_types[c]:
            raise NoApprover(f"item {inst.names[c]!r} has no approving voter")
    if not items:
        return LoadAssignment({}, (0.0,) * n, 0.0, frozenset())

    size = [len(group) for group in members]

    def ratio(subset: frozenset[int]) -> float:
        reached_types = {t for c in subset for t in approver_types[c]}
        return inst.weight(subset) / sum(size[t] for t in reached_types)

    total = inst.weight(items)
    best, tight = total / sum(size), chosen
    for single in (frozenset((c,)) for c in items):
        value = ratio(single)
        if value > best:
            best, tight = value, single

    # node layout: 0 source, 1..k items, k+1..k+len(members) types, last sink
    k = len(items)
    sink = 1 + k + len(members)
    cap = best
    bump = 0.0
    while True:
        net = _Dinic(sink + 1)
        edge_ids: dict[tuple[int, int], int] = {}
        for pos, c in enumerate(items):
            net.add_edge(0, 1 + pos, inst.cost[c])
            for t in approver_types[c]:
                edge_ids[(c, t)] = net.add_edge(1 + pos, 1 + k + t, math.inf)
        for t in range(len(members)):
            net.add_edge(1 + k + t, sink, size[t] * cap)
        net.max_flow(0, sink)
        # the min-cut source side holds an item exactly when the flow leaves
        # more than the flow tolerance of some item's cost uncarried
        reached = frozenset(c for pos, c in enumerate(items) if net.level[1 + pos] >= 0)
        if not reached:
            break
        improved = ratio(reached)
        if improved > best:
            best, tight, cap = improved, reached, max(cap, improved)
        else:
            # Float noise: some cost is uncarried, yet the cut gives no set
            # of larger ratio.  Raise the cap in doubling steps until the
            # flow carries every cost; ``best`` keeps the largest ratio found.
            bump = 2.0 * bump if bump else cap * 2.0**-50
            cap += bump

    spread: dict[tuple[int, int], float] = {}
    voter_load = [0.0] * n
    for (c, t), e in edge_ids.items():
        share = net.cap[e ^ 1] / size[t]
        if share > 1e-15:
            for v in members[t]:
                spread[(c, v)] = share
                voter_load[v] += share
    return LoadAssignment(spread, tuple(voter_load), best, tight)


def _tie_key(policy: str, inst: Instance, approval_count: Sequence[int]):
    if policy == "lex":
        return lambda c: c
    if policy == "cheapest":
        return lambda c: (inst.cost[c], c)
    if policy == "most-approved":
        return lambda c: (-approval_count[c], c)
    raise ValueError(f"unknown tie policy {policy!r}; expected one of {TIE_POLICIES}")


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
    _require_profile(inst, profile)
    if profile.num_voters == 0:
        raise InvalidProfile("the sequential rule needs at least one voter")
    approval_count = [0] * inst.num_items
    for ballot in profile.ballots:
        for c in ballot:
            approval_count[c] += 1
    key = _tie_key(tie, inst, approval_count)

    selected: set[int] = set()
    total = 0.0
    steps: list[SequentialStep] = []
    while True:
        candidates = [
            c
            for c in range(inst.num_items)
            if c not in selected
            and approval_count[c] > 0
            and total + inst.cost[c] <= inst.limit + TOL
        ]
        if not candidates:
            break
        loads = {
            c: min_max_load(inst, profile, selected | {c}).max_load for c in candidates
        }
        smallest = min(loads.values())
        tie_set = frozenset(c for c in candidates if loads[c] <= smallest + TOL)
        chosen = min(tie_set, key=key)
        steps.append(SequentialStep(chosen, loads, tie_set))
        selected.add(chosen)
        total += inst.cost[chosen]

    assignment = min_max_load(inst, profile, selected)
    unapproved = [c for c in range(inst.num_items) if approval_count[c] == 0]
    filled = _fill(inst, selected, total, unapproved) if fill_unapproved else []

    budget = Budget.of(inst, selected)
    trace = RuleTrace(tuple(steps), tuple(filled), budget, assignment)
    return budget, trace


def _fill(inst: Instance, selected: set[int], total: float, items: Iterable[int]) -> list[int]:
    """Add to ``selected``, whose cost is ``total``, each of ``items`` that
    still fits, cheapest first then by index; return those added in order."""
    added = []
    for c in sorted(items, key=lambda c: (inst.cost[c], c)):
        if c not in selected and total + inst.cost[c] <= inst.limit + TOL:
            selected.add(c)
            added.append(c)
            total += inst.cost[c]
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
    _require_profile(inst, profile)
    if profile.num_voters == 0:
        raise InvalidProfile("greedy_bjr_l needs at least one voter")
    unit_items = [c for c in range(inst.num_items) if abs(inst.cost[c] - 1.0) <= TOL]
    selected: set[int] = set()
    total = 0.0
    if inst.weight(unit_items) > inst.limit + TOL:
        remaining = set(range(profile.num_voters))
        pool = set(unit_items)
        target = math.floor(inst.limit + TOL)
        while total < target - TOL and pool:
            best = min(
                pool,
                key=lambda c: (-sum(1 for i in remaining if c in profile.ballots[i]), c),
            )
            if total + inst.cost[best] > inst.limit + TOL:
                break
            selected.add(best)
            total += inst.cost[best]
            pool.remove(best)
            remaining -= {i for i in remaining if best in profile.ballots[i]}
    _fill(inst, selected, total, range(inst.num_items))
    return Budget.of(inst, selected)


def bpjr_construct(inst: Instance, profile: Profile) -> Budget:
    """Constructive procedure for an exhaustive BPJR-L budget.

    Walk achievable bundle weights downward.  At each level, among the
    not-yet-selected bundles of exactly that weight that still fit the
    limit, take a bundle with maximal support among still-unserved voters
    whenever that support meets the level's group-size threshold,
    retiring the supporters; repeat at the same level until no bundle
    qualifies, then descend.  Finally fill to exhaustiveness with the
    shared cheapest-first fill.  The bundles come from one walk over the
    feasible subsets (:func:`probud._bits.subsets_within`), so an
    infeasible bundle is never offered.  Exponential in the number of
    items (hard cap ``MAX_CONSTRUCT_ITEMS``).
    """
    _require_profile(inst, profile)
    if profile.num_voters == 0:
        raise InvalidProfile("bpjr_construct needs at least one voter")
    m = inst.num_items
    if m > MAX_CONSTRUCT_ITEMS:
        raise TooLargeForExact(
            f"bundle construction supports at most {MAX_CONSTRUCT_ITEMS} items, got {m}"
        )
    n = profile.num_voters

    pairs = sorted((w, mask) for _, mask, w in subsets_within(inst.cost, inst.limit + TOL))
    weights = [w for w, _ in pairs]

    levels: list[float] = []
    for w in weights:
        if w >= 1.0 - TOL and (not levels or w - levels[-1] > TOL):
            levels.append(w)
    levels.reverse()

    ballot_masks = [mask_of(ballot) for ballot in profile.ballots]
    active = set(range(n))
    selected_mask = 0
    total = 0.0
    for level in levels:
        lo = bisect_left(weights, level - TOL)
        hi = bisect_right(weights, level + TOL)
        threshold = level * n / inst.limit - TOL
        while total + level <= inst.limit + TOL:
            best_key = None
            for idx in range(lo, hi):
                w, mask = pairs[idx]
                # a level's weights may sit a tolerance above it
                if mask & selected_mask or total + w > inst.limit + TOL:
                    continue
                support = sum(1 for i in active if mask & ~ballot_masks[i] == 0)
                if support < threshold:
                    continue
                key = (-support, mask.bit_count(), tuple(bits(mask)))
                if best_key is None or key < best_key:
                    best_key, best_weight, best_mask = key, w, mask
            if best_key is None:
                break
            selected_mask |= best_mask
            total += best_weight
            active = {i for i in active if best_mask & ~ballot_masks[i] != 0}

    selected = set(bits(selected_mask))
    _fill(inst, selected, total, range(inst.num_items))
    return Budget.of(inst, selected)

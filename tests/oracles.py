"""Independent reference implementations used as test oracles.

Everything here is deliberately written along different routes than the
library: plain itertools subset enumeration, Fraction arithmetic for the
unit-cost references, a Hall-type cut bound and an LP for the load
kernel.  Slow but definition-literal; use on tiny inputs only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from probud.axioms import BRUTE_FORCE, POLYNOMIAL, AxiomReport, AxiomWitness, max_bundle
from probud.model import TOL, AxiomId, Budget, Instance, Profile


def powerset(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def count_feasible(costs, limit, exhaustive_only=False):
    """Recursive include/exclude counter of feasible budgets."""
    m = len(costs)

    def rec(i, total):
        if i == m:
            if exhaustive_only and any(
                total + costs[c] <= limit + TOL for c in range(m) if not chosen[c]
            ):
                return 0
            return 1
        chosen[i] = False
        count = rec(i + 1, total)
        if total + costs[i] <= limit + TOL:
            chosen[i] = True
            count += rec(i + 1, total + costs[i])
            chosen[i] = False
        return count

    chosen = [False] * m
    return rec(0, 0.0)


def _levels(upper, criticals, grid_points=40):
    """A dense grid over [1, upper] plus the given critical points."""
    if upper < 1.0 - TOL:
        return []
    points = {1.0, upper}
    for k in range(1, grid_points):
        points.add(1.0 + (upper - 1.0) * k / grid_points)
    for c in criticals:
        if 1.0 - TOL <= c <= upper + TOL:
            points.add(min(max(c, 1.0), upper))
    return sorted(points)


def literal_axiom_satisfied(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> bool:
    """Definition-literal check of any of the ten axioms.

    Enumerates voter subsets with itertools, bundles with powerset, and
    levels over a dense grid augmented with every critical value.
    """
    n = profile.num_voters
    if n == 0:
        return True
    denom = inst.limit if axiom.variant == "l" else budget.total_cost
    if denom <= TOL:
        return True
    selected = set(budget.selected)
    family = axiom.family

    for size in range(1, n + 1):
        for group in itertools.combinations(range(n), size):
            ballots = [set(profile.ballots[i]) for i in group]
            inter = set.intersection(*ballots)
            union = set.union(*ballots)
            represented = inst.weight(union & selected)
            inter_weight = inst.weight(inter)
            share = size * denom / n

            if family == "strong-bjr":
                if size >= n / denom - TOL and inter_weight >= 1.0 - TOL and represented <= TOL:
                    return False
            elif family == "bjr":
                if (
                    size >= n / denom - TOL
                    and represented <= TOL
                    and any(abs(inst.cost[c] - 1.0) <= TOL for c in inter)
                ):
                    return False
            elif family == "strong-bpjr":
                for level in _levels(denom, [share, inter_weight, min(share, inter_weight)]):
                    if (
                        size >= level * n / denom - TOL
                        and inter_weight >= level - TOL
                        and represented < level - TOL
                    ):
                        return False
            elif family == "bpjr":
                bundle_weights = [inst.weight(b) for b in powerset(inter)]
                if axiom.variant == "l":
                    cap = size * inst.limit / n
                    threshold = max((w for w in bundle_weights if w <= cap + TOL), default=0.0)
                    for level in _levels(denom, [share, inter_weight, min(share, inter_weight)]):
                        if (
                            size >= level * n / denom - TOL
                            and inter_weight >= level - TOL
                            and represented < threshold - TOL
                        ):
                            return False
                else:
                    for level in _levels(denom, bundle_weights + [share, inter_weight]):
                        if size < level * n / denom - TOL or inter_weight < level - TOL:
                            continue
                        threshold = max((w for w in bundle_weights if w <= level + TOL), default=0.0)
                        if represented < threshold - TOL:
                            return False
            else:  # local-bpjr
                realized = union & selected
                bundles = [(inst.weight(b), set(b)) for b in powerset(inter)]
                for level in _levels(denom, [w for w, _ in bundles] + [share]):
                    if size < level * n / denom - TOL:
                        continue
                    eligible = [(w, b) for w, b in bundles if w <= level + TOL]
                    best = max(w for w, _ in eligible)
                    maximizers = [b for w, b in eligible if w >= best - TOL]
                    if any(realized < b for b in maximizers):
                        return False
    return True


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _voter_groups(masks):
    """All voter subsets whose ballots share an item, in lexicographic
    preorder, as (voters, intersection mask, union mask)."""
    n = len(masks)

    def extend(voters, start, inter, union):
        for j in range(start, n):
            inter2 = inter & masks[j]
            if inter2:
                group = voters + (j,)
                yield group, inter2, union | masks[j]
                yield from extend(group, j + 1, inter2, union | masks[j])

    yield from extend((), 0, -1, 0)


class _Best:
    """Maximum deficit; ties within TOL go to the lexicographically
    smallest voter tuple, then the smallest bundle."""

    def __init__(self):
        self.key = None

    def offer(self, deficit, voters, bundle, payload):
        if self.key is not None:
            best_deficit, best_voters, best_bundle, _ = self.key
            if deficit < best_deficit - TOL:
                return
            if deficit <= best_deficit + TOL and (voters, bundle) >= (best_voters, best_bundle):
                return
        self.key = (deficit, voters, bundle, payload)


def reference_bpjr_report(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> AxiomReport:
    """The BPJR-family checkers as a sweep over every cohesive voter group,
    one group at a time, with no table or collapsing: the maximum-deficit
    violation with the lexicographically smallest voter tuple is the
    witness.  Item-set weights sum costs in ascending item order."""
    n = profile.num_voters
    denom = inst.limit if axiom.variant == "l" else budget.total_cost
    if denom <= TOL or n == 0:
        return AxiomReport(axiom, True, None, BRUTE_FORCE)

    def weigh(mask):
        return sum(inst.cost[i] for i in _bits(mask))

    def knap(mask, cap):
        weight, bundle = max_bundle({i: inst.cost[i] for i in _bits(mask)}, cap)
        return weight, sum(1 << i for i in bundle)

    masks = [sum(1 << i for i in ballot) for ballot in profile.ballots]
    selected = sum(1 << i for i in budget.selected)
    best = _Best()
    for voters, inter, union in _voter_groups(masks):
        share = len(voters) * denom / n
        represented_mask = union & selected
        represented = weigh(represented_mask)
        if axiom.family == "strong-bpjr":
            level = min(share, weigh(inter))
            if level >= 1.0 - TOL and represented < level - TOL:
                best.offer(level - represented, voters, tuple(_bits(inter)),
                           (level, inter, inter, represented, level))
        elif axiom.family == "bpjr":
            level = min(share, weigh(inter))
            if level < 1.0 - TOL:
                continue
            threshold, bundle = knap(inter, min(share, denom))
            if threshold > TOL and represented < threshold - TOL:
                best.offer(threshold - represented, voters, tuple(_bits(bundle)),
                           (level, inter, bundle, represented, threshold))
        else:
            rest = inter & ~represented_mask
            if represented_mask & ~inter or not rest:
                continue
            if represented + min(inst.cost[i] for i in _bits(rest)) > share + TOL:
                continue
            extension, extra = knap(rest, share - represented)
            level = represented + extension
            best.offer(extension, voters, tuple(_bits(represented_mask | extra)),
                       (level, inter, represented_mask | extra, represented, level))
    if best.key is None:
        return AxiomReport(axiom, True, None, BRUTE_FORCE)
    _, voters, _, (level, inter, bundle, represented, required) = best.key
    witness = AxiomWitness(
        voters=frozenset(voters),
        level=level,
        common_items=frozenset(_bits(inter)),
        witness_bundle=frozenset(_bits(bundle)),
        represented_weight=represented,
        required_weight=required,
    )
    return AxiomReport(axiom, False, witness, BRUTE_FORCE)


def reference_bjr_report(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> AxiomReport:
    """The BJR and Strong-BJR checkers as stated: for each candidate item
    (any item for Strong-BJR, an item of cost 1 for BJR), its approvers
    who approve nothing selected violate the axiom when there is at least
    one of them and at least n / denominator in all.  The witness is the
    smallest such voter tuple, then the smallest item."""
    n = profile.num_voters
    denom = inst.limit if axiom.variant == "l" else budget.total_cost
    if denom <= TOL or n == 0:
        return AxiomReport(axiom, True, None, POLYNOMIAL)
    violations = []
    for item in range(inst.num_items):
        if axiom.family == "bjr" and abs(inst.cost[item] - 1.0) > TOL:
            continue
        group = tuple(
            i for i in range(n)
            if item in profile.ballots[i] and profile.ballots[i].isdisjoint(budget.selected)
        )
        if group and len(group) >= n / denom - TOL:
            violations.append((group, item))
    if not violations:
        return AxiomReport(axiom, True, None, POLYNOMIAL)
    voters, item = min(violations)
    witness = AxiomWitness(
        voters=frozenset(voters),
        level=1.0,
        common_items=frozenset.intersection(*(profile.ballots[i] for i in voters)),
        witness_bundle=frozenset({item}),
        represented_weight=0.0,
        required_weight=1.0,
    )
    return AxiomReport(axiom, False, witness, POLYNOMIAL)


def reference_bpjr_construct(inst: Instance, profile: Profile) -> Budget:
    """The constructive BPJR-L procedure over itertools subsets.

    The levels are the feasible bundle weights of at least 1, a weight
    within TOL of the last level kept merged into it, taken from the top
    down.  At each level, while the level still fits, take the disjoint
    fitting bundle within TOL of it that the most still-active voters
    approve entirely, ties to fewer items, then the smaller sorted index
    tuple; it needs at least level * n / limit - TOL supporters, who are
    then retired.  A cheapest-first fill comes last.  Bundle weights sum
    costs in ascending item order."""
    m, n, limit = inst.num_items, profile.num_voters, inst.limit
    bundles = []
    for size in range(1, m + 1):
        for items in itertools.combinations(range(m), size):
            weight = sum(inst.cost[i] for i in items)
            if weight <= limit + TOL:
                bundles.append((weight, items))
    levels = []
    for weight in sorted(w for w, _ in bundles):
        if weight >= 1.0 - TOL and (not levels or weight - levels[-1] > TOL):
            levels.append(weight)

    selected, total = set(), 0.0
    active = set(range(n))
    for level in reversed(levels):
        threshold = level * n / limit - TOL
        while total + level <= limit + TOL:
            options = []
            for weight, items in bundles:
                if not level - TOL <= weight <= level + TOL:
                    continue
                if selected.intersection(items) or total + weight > limit + TOL:
                    continue
                supporters = {i for i in active if profile.ballots[i].issuperset(items)}
                if len(supporters) >= threshold:
                    options.append(((-len(supporters), len(items), items), weight, supporters))
            if not options:
                break
            (_, _, items), weight, supporters = min(options)
            selected.update(items)
            total += weight
            active -= supporters

    for c in sorted(range(m), key=lambda c: (inst.cost[c], c)):
        if c not in selected and total + inst.cost[c] <= limit + TOL:
            selected.add(c)
            total += inst.cost[c]
    return Budget.of(inst, selected)


def brute_bjr_satisfied(inst: Instance, profile: Profile, budget: Budget, axiom: AxiomId) -> bool:
    """Direct subset sweep of the BJR / Strong-BJR definitions."""
    assert axiom.family in ("bjr", "strong-bjr")
    return literal_axiom_satisfied(inst, profile, budget, axiom)


def jr_satisfied(ballots, committee, k, m) -> bool:
    """Committee-voting justified representation, exact integer arithmetic."""
    n = len(ballots)
    committee = set(committee)
    unrepresented = [i for i in range(n) if not (set(ballots[i]) & committee)]
    for c in range(m):
        group = [i for i in unrepresented if c in ballots[i]]
        if group and Fraction(len(group)) >= Fraction(n, k):
            return False
    return True


def pjr_satisfied(ballots, committee, k) -> bool:
    """Proportional justified representation with levels ranging over the
    real interval [1, k]: a group of size s can claim any level up to
    min(s*k/n, |common items|).  Exact rational arithmetic."""
    n = len(ballots)
    committee = set(committee)
    for size in range(1, n + 1):
        for group in itertools.combinations(range(n), size):
            sets = [set(ballots[i]) for i in group]
            inter = set.intersection(*sets)
            if not inter:
                continue
            top = min(Fraction(size * k, n), Fraction(len(inter)))
            if top < 1:
                continue
            represented = len(set.union(*sets) & committee)
            if Fraction(represented) < top:
                return False
    return True


def pjr_satisfied_integer(ballots, committee, k) -> bool:
    """Proportional justified representation with integer levels 1..k (the
    form under which sequential spread-minimizing rules are guaranteed)."""
    n = len(ballots)
    committee = set(committee)
    for size in range(1, n + 1):
        for group in itertools.combinations(range(n), size):
            sets = [set(ballots[i]) for i in group]
            inter = set.intersection(*sets)
            if not inter:
                continue
            top = min(int(Fraction(size * k, n)), len(inter))
            if top < 1:
                continue
            represented = len(set.union(*sets) & committee)
            if represented < top:
                return False
    return True


def load_cut_bound(inst: Instance, profile: Profile, selected) -> float:
    """Exact optimal max load via exhaustive subset enumeration: the
    heaviest item subset relative to its combined approver count."""
    items = sorted(selected)
    approvers = {
        c: {i for i, b in enumerate(profile.ballots) if c in b} for c in items
    }
    best = 0.0
    for r in range(1, len(items) + 1):
        for subset in itertools.combinations(items, r):
            helpers = set().union(*(approvers[c] for c in subset))
            best = max(best, inst.weight(subset) / len(helpers))
    return best


def load_lp(inst: Instance, profile: Profile, selected) -> float:
    """Optimal max load by solving the spread constraints as an LP."""
    from scipy.optimize import linprog

    items = sorted(selected)
    variables = []  # (item, voter)
    for c in items:
        for i, ballot in enumerate(profile.ballots):
            if c in ballot:
                variables.append((c, i))
    num_x = len(variables)
    n = profile.num_voters

    # minimize s subject to: per item, shares sum to its cost; per voter,
    # total share minus s stays nonpositive
    objective = [0.0] * num_x + [1.0]
    a_eq, b_eq = [], []
    for c in items:
        row = [1.0 if vc == c else 0.0 for vc, _ in variables] + [0.0]
        a_eq.append(row)
        b_eq.append(inst.cost[c])
    a_ub, b_ub = [], []
    for voter in range(n):
        row = [1.0 if vi == voter else 0.0 for _, vi in variables] + [-1.0]
        a_ub.append(row)
        b_ub.append(0.0)
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * (num_x + 1),
        method="highs",
    )
    assert result.success, result.message
    return result.x[-1]

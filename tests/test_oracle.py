import builtins
import math
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, strategies as st

from probud._bits import MaskFold, _lex_masks, _Tail, feasible_blocks, subsets_within
from probud.errors import TooLargeForExact
from probud.harness import GenSpec, generate
from probud.model import TOL, AxiomId, Budget, Instance, fit_bound, is_exhaustive, is_feasible, normalize
from probud.oracle import (
    certify_existence,
    enumerate_feasible,
    replay_witnesses,
    verify_implications,
)
from probud.rules import gpseq

from oracles import count_feasible, powerset
from suites import BOUNDARY_SEEDS, BPJR_AXIOMS, boundary_instance, fitting_instance, suite_instance, unit_instance


def test_enumerate_exhaustive_on_example_one(ex1):
    _, inst, _ = ex1
    budgets = enumerate_feasible(inst, exhaustive_only=True)
    assert [sorted(b.selected) for b in budgets] == [[0, 2], [1, 2]]


def test_enumerate_zero_limit():
    inst = normalize({"a": 1.0, "b": 2.0}, 0.0)
    budgets = enumerate_feasible(inst)
    assert [sorted(b.selected) for b in budgets] == [[]]


def test_enumerate_unit_costs_full_set_is_only_exhaustive():
    inst = Instance(("a", "b", "c"), (1.0, 1.0, 1.0), 3.0)
    budgets = enumerate_feasible(inst, exhaustive_only=True)
    assert [sorted(b.selected) for b in budgets] == [[0, 1, 2]]


def test_enumerate_exhaustive_at_the_bound():
    inst = Instance(("a", "b", "c"), (1.0, 1.0, 1.0), 2.0 - TOL)
    assert inst.limit + TOL == 2.0  # so {c} plus the skipped a lands exactly on the bound
    budgets = enumerate_feasible(inst, exhaustive_only=True)
    assert [sorted(b.selected) for b in budgets] == [[0, 1], [0, 2], [1, 2]]


@st.composite
def _instances_on_the_bound(draw):
    """Instances of up to 13 items, so that the walk's tail is often
    split off, whose bound ``limit + TOL`` is often exactly the total of
    some subset."""
    costs = draw(st.lists(
        st.one_of(st.sampled_from((1.0, 1.25, 1.5, 2.0, 3.0)), st.floats(1.0, 4.0)),
        max_size=12,
    ))
    costs.insert(draw(st.integers(0, len(costs))), 1.0)
    subset = draw(st.sets(st.sampled_from(range(len(costs)))))
    total = reduce(add, (costs[i] for i in sorted(subset)), 0.0)
    limit = draw(st.one_of(st.just(max(total - TOL, 0.0)), st.floats(0.0, sum(costs))))
    return Instance(tuple(f"c{j}" for j in range(len(costs))), tuple(costs), limit)


@given(_instances_on_the_bound())
def test_exhaustive_enumeration_agrees_with_is_exhaustive(inst):
    feasible = enumerate_feasible(inst)
    assert enumerate_feasible(inst, exhaustive_only=True) == [
        budget for budget in feasible if is_exhaustive(inst, budget)
    ]


def _assert_the_blocks_flatten_to_the_feasible_subsets(inst):
    # the CLI's enumerate reads the walk as head subsets and blocks of tail
    # subsets; joined back, they are the flat view's subsets, in its order
    walk = list(subsets_within(inst.cost, fit_bound(inst.limit)))
    for exhaustive_only in (False, True):
        start, steps = feasible_blocks(inst.cost, fit_bound(inst.limit), exhaustive_only)
        masks = []
        for step in steps:
            if len(step) == 3:
                masks += [step[0]] if step[2] or not exhaustive_only else []
            else:
                masks += [step[0] | r << start for r in step[1]]
        assert masks == [mask for mask, _, exhaustive in walk if exhaustive or not exhaustive_only]


@given(_instances_on_the_bound())
def test_the_walks_blocks_flatten_to_the_feasible_subsets(inst):
    _assert_the_blocks_flatten_to_the_feasible_subsets(inst)


def _doubled_blocks(costs, bound, total, lightest):
    """A block as the walk computed it before its sorted table of tail
    sums: every ``total + T`` doubled item by item from ``total``.  Returns
    the ``T`` that fit, and those that fit with no further tail item and
    not with ``lightest``, in lex order."""

    def fit(start):
        sums = [start]
        for c in costs:
            sums += [s + c for s in sums]
        return [s <= bound for s in sums]

    fits, light = fit(total), fit(lightest)
    fitting = [r for r in _lex_masks(len(costs)) if fits[r]]
    exhaustive = [
        r for r in fitting
        if not light[r] and not any(fits[r | 1 << y] for y in range(len(costs)) if not r >> y & 1)
    ]
    return fitting, exhaustive


def test_tail_blocks_equal_the_doubled_blocks_near_the_bound(monkeypatch):
    # a block is read off one sorted table of tail sums, cut at the bound
    # less the head total within a margin, and only the tail subsets inside
    # the margin are folded: bounds and totals that put some total + T 0-3
    # ulps or TOL off the bound must still give the doubled blocks
    near_cuts = []
    cut = _Tail._cut

    def spy(tail, total):
        lo, hi = cut(tail, total)
        near_cuts.append(lo < hi)
        return lo, hi

    monkeypatch.setattr(_Tail, "_cut", spy)
    rng = random.Random(21)

    def nudged(x):
        if rng.random() < 0.3:
            return x + rng.choice((-TOL, TOL))
        toward = rng.choice((math.inf, -math.inf))
        for _ in range(rng.randint(0, 3)):
            x = math.nextafter(x, toward)
        return x

    for _ in range(200):
        costs = [
            rng.choice((float(rng.randint(1, 4)), rng.uniform(1.0, 10.0), 10 ** rng.uniform(0.0, 6.0)))
            for _ in range(rng.randint(3, 8))
        ]
        sums = [0.0]
        for c in costs:
            sums += [s + c for s in sums]
        head = reduce(add, [10 ** rng.uniform(0.0, 6.0) for _ in range(rng.randint(0, 3))], 0.0)
        bound = max(nudged(head + rng.choice(sums)), 0.0)
        tail = _Tail(costs, bound)
        for _ in range(12):
            total = max(nudged(bound - rng.choice(sums)), 0.0)
            edge = nudged(bound - rng.choice(sums))
            lightest = max(total, rng.choice((math.inf, edge, total + rng.choice(costs))))
            blocks = list(tail.fitting(total, lightest)), list(tail.exhaustive(total, lightest))
            assert blocks == _doubled_blocks(costs, bound, total, lightest), (costs, bound, total, lightest)
    assert any(near_cuts) and not all(near_cuts)


@pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
def test_a_total_and_a_position_of_equal_value_keep_their_own_blocks(order):
    # five unit items before a tail of costs 1, 2 and 4, under a limit of 7:
    # head total 3.0 cuts the sorted tail sums at position 5 and head total
    # 5.0 at position 3, so a memo keyed by totals as well as positions
    # would hand a total the block of the position that equals it
    inst = Instance(tuple(f"c{j}" for j in range(8)), (1.0,) * 6 + (2.0, 4.0), 7.0)
    bound = fit_bound(inst.limit)
    assert feasible_blocks(inst.cost, bound, False)[0] == 5
    costs = list(inst.cost[5:])
    tail = _Tail(costs, bound)
    for total in [1.0, 2.0, 3.0, 4.0, 5.0][::order]:
        assert list(tail.fitting(total, math.inf)) == _doubled_blocks(costs, bound, total, math.inf)[0]
    assert list(tail.fitting(3.0, math.inf)) != tail.by_position[3]
    _assert_the_blocks_flatten_to_the_feasible_subsets(inst)


def test_a_uniform_instance_builds_at_most_one_fitting_block_per_position(monkeypatch):
    # 16 uniform costs split off a 5-item tail under more than 1,000
    # blocks, nearly all of distinct head totals: blocks are shared by the
    # position at which the sorted tail sums are cut, so at most 2^5 are built
    inst, _ = generate(GenSpec(num_items=16, num_voters=4, cost_model="uniform", limit_fraction=0.4, seed=3))
    builds = []
    fits = _Tail._fits

    def counted(tail, total, lo, hi):
        builds.append(total)
        return fits(tail, total, lo, hi)

    monkeypatch.setattr(_Tail, "_fits", counted)
    start, steps = feasible_blocks(inst.cost, fit_bound(inst.limit), False)
    blocks = sum(len(step) == 2 for step in steps)
    assert inst.num_items - start == 5 and blocks > 1000
    assert 0 < len(builds) <= 2 ** 5


@pytest.mark.parametrize("op, start", [(add, 0.0), (min, math.inf)], ids=["add", "min"])
def test_a_mask_fold_equals_a_fresh_fold_in_any_query_order(op, start):
    # a miss extends the longest memoized mask that is it less some top
    # bits, so the order of the queries decides which prefixes it reuses
    rng = random.Random(17)
    for _ in range(40):
        costs = [rng.uniform(1.0, 5.0) for _ in range(rng.randint(1, 14))]
        memo = MaskFold(costs, op, start)
        masks = [rng.getrandbits(len(costs)) for _ in range(60)]
        for mask in masks + rng.sample(masks, len(masks)):
            assert memo[mask] == reduce(op, (costs[i] for i in range(len(costs)) if mask >> i & 1), start)


def test_exhaustive_budgets_at_tolerance_boundaries_admit_no_further_item():
    # the walk tests each skipped item on the ascending-order total of the
    # budget with it, the float that Budget.of and is_feasible read, not on
    # the budget's total plus its cost
    for seed in BOUNDARY_SEEDS:
        inst, _, _ = boundary_instance(seed)
        admit_none = [
            budget for budget in enumerate_feasible(inst)
            if not any(is_feasible(inst, Budget.of(inst, budget.selected | {c}))
                       for c in range(inst.num_items) if c not in budget.selected)
        ]
        assert enumerate_feasible(inst, exhaustive_only=True) == admit_none, f"seed {seed}"


def test_enumerate_is_sorted_lexicographically(ex2):
    _, inst, _ = ex2
    budgets = enumerate_feasible(inst)
    keys = [tuple(sorted(b.selected)) for b in budgets]
    assert keys == sorted(keys)


def test_enumerate_counts_match_recursive_generator():
    for seed in range(40):
        inst, _ = suite_instance(seed)
        bound = inst.limit + TOL
        totals = [
            (subset, reduce(add, (inst.cost[i] for i in subset), 0.0)) for subset in powerset(range(inst.num_items))
        ]
        feasible = sorted((subset, total) for subset, total in totals if total <= bound)
        for exhaustive_only in (False, True):
            budgets = enumerate_feasible(inst, exhaustive_only=exhaustive_only)
            expected = [
                (subset, total)
                for subset, total in feasible
                if not exhaustive_only
                or all(c in subset or total + inst.cost[c] > bound for c in range(inst.num_items))
            ]
            got = [(tuple(sorted(b.selected)), b.total_cost) for b in budgets]
            assert got == expected, f"seed {seed} exhaustive={exhaustive_only}"
            counted = count_feasible(inst.cost, inst.limit, exhaustive_only=exhaustive_only)
            assert len(budgets) == counted, f"seed {seed} exhaustive={exhaustive_only}"


_builtin_sum = sum


def _compensated_sum(values, start=0):
    """The builtin ``sum`` as CPython 3.12 and later compute it over floats,
    with Neumaier's compensated summation; any other input goes to the
    builtin."""
    values = list(values)
    if not values or type(start) not in (int, float) or not all(type(x) is float for x in values):
        return _builtin_sum(values, start)
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.mark.parametrize("summation", [_builtin_sum, _compensated_sum], ids=["builtin", "compensated"])
def test_enumerated_budgets_equal_budget_of_their_items(monkeypatch, summation):
    # the walk's totals and Budget.of's agree whichever float sum the
    # interpreter's builtin is, since neither calls it
    monkeypatch.setattr(builtins, "sum", summation)
    large, _ = generate(
        GenSpec(num_items=16, num_voters=1, cost_model="uniform", limit_fraction=0.3, seed=3)
    )
    instances = [suite_instance(seed)[0] for seed in range(200)] + [large]
    for inst in instances:
        for budget in enumerate_feasible(inst):
            assert budget == Budget.of(inst, budget.selected), sorted(budget.selected)


def test_enumerate_item_cap():
    inst = Instance(tuple(f"c{j}" for j in range(21)), (1.0,) * 21, 3.0)
    with pytest.raises(TooLargeForExact):
        enumerate_feasible(inst)


def test_certify_nonexistence_on_example_one(ex1):
    _, inst, profile = ex1
    for family in ("strong-bjr", "strong-bpjr"):
        report = certify_existence(inst, profile, AxiomId(family, "l"))
        assert not report.exists
        assert report.satisfying_budgets == ()
        assert report.total_feasible == 6
    assert replay_witnesses(inst, profile, AxiomId("strong-bjr", "l"))
    assert replay_witnesses(inst, profile, AxiomId("strong-bpjr", "l"))


def test_certify_bpjr_exhaustive_exists_on_example_one(ex1):
    _, inst, profile = ex1
    report = certify_existence(inst, profile, AxiomId("bpjr", "l"), exhaustive_only=True)
    assert report.exists


def test_certified_satisfiers_repass_their_checker():
    from probud.axioms import check_axiom

    for seed in range(10):
        inst, profile = suite_instance(seed, max_voters=6, max_items=5)
        for axiom in (AxiomId("bpjr", "l"), AxiomId("local-bpjr", "w")):
            report = certify_existence(inst, profile, axiom)
            assert report.exists == bool(report.satisfying_budgets)
            for budget in report.satisfying_budgets:
                assert check_axiom(inst, profile, budget, axiom).satisfied


def test_certify_empty_budget_always_satisfies_w_variants(ex1):
    _, inst, profile = ex1
    report = certify_existence(inst, profile, AxiomId("bjr", "w"))
    assert report.exists
    assert any(not b.selected for b in report.satisfying_budgets)


def test_verify_implications_on_example_two(ex2):
    _, inst, profile = ex2
    budgets = enumerate_feasible(inst)
    assert verify_implications(inst, profile, budgets) == []


def test_example_two_satisfaction_pattern_is_lattice_consistent(ex2):
    # the sequential rule's output keeps local-bpjr-l while failing
    # bpjr-w; there is no lattice edge between those two
    from probud.axioms import evaluate_axioms
    from probud.model import Budget

    _, inst, profile = ex2
    verdicts = evaluate_axioms(inst, profile, Budget.of(inst, [1, 2]))
    assert verdicts[AxiomId("local-bpjr", "l")] is True
    assert verdicts[AxiomId("bpjr", "w")] is False


def test_implications_hold_at_tolerance_boundaries():
    # the BJR checks state a group's reach in the weight units of the BPJR
    # family, so no edge breaks where the two used to round apart; a
    # budget over the limit by less than TOL is left out, as its "l" and
    # "w" variants measure against denominators on either side of it
    for seed in BOUNDARY_SEEDS:
        inst, profile, budget = boundary_instance(seed)
        if budget.total_cost <= inst.limit:
            assert verify_implications(inst, profile, [budget]) == [], f"seed {seed}"


def test_implications_hold_on_small_random_suite():
    for seed in range(25):
        inst, profile = suite_instance(seed, max_voters=6, max_items=5)
        budgets = enumerate_feasible(inst)
        assert verify_implications(inst, profile, budgets) == [], f"seed {seed}"


def test_l_and_w_variants_coincide_when_spend_equals_limit():
    from probud.axioms import check_axiom

    for seed in range(20):
        inst, profile, k = unit_instance(seed, max_voters=6, max_items=5)
        full = [b for b in enumerate_feasible(inst) if abs(b.total_cost - inst.limit) < 1e-9]
        for budget in full[:5]:
            for family in ("strong-bjr", "bjr", "strong-bpjr", "bpjr", "local-bpjr"):
                left = check_axiom(inst, profile, budget, AxiomId(family, "l")).satisfied
                right = check_axiom(inst, profile, budget, AxiomId(family, "w")).satisfied
                assert left == right, f"seed {seed} family {family}"


def test_gpseq_output_listed_among_local_bpjr_satisfiers():
    for seed in range(15):
        inst, profile = suite_instance(seed, max_voters=8, max_items=6)
        budget, _ = gpseq(inst, profile)
        report = certify_existence(inst, profile, AxiomId("local-bpjr", "l"))
        assert budget in report.satisfying_budgets, f"seed {seed}"


def _bloc_instances(count):
    rng = random.Random(4711)
    for seed in range(count):
        yield fitting_instance(
            num_items=rng.randint(4, 8),
            num_voters=rng.randint(4, 12),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model="groups",
            group_count=rng.randint(2, 4),
            group_overlap=rng.uniform(0.0, 0.3),
            limit_fraction=rng.uniform(0.25, 0.7),
            seed=seed,
        )


def test_certify_and_verify_build_the_group_table_once(monkeypatch):
    import probud.axioms

    builds = []
    sweep = probud.axioms._cohesive_groups
    monkeypatch.setattr(probud.axioms, "_cohesive_groups", lambda masks: builds.append(1) or sweep(masks))
    inst, profile = next(_bloc_instances(1))
    budgets = enumerate_feasible(inst)
    assert len(budgets) > 5
    for axiom in BPJR_AXIOMS:
        builds.clear()
        certify_existence(inst, profile, axiom)
        assert len(builds) == 1, axiom
    builds.clear()
    verify_implications(inst, profile, budgets)
    assert len(builds) == 1
    builds.clear()
    replay_witnesses(inst, profile, AxiomId("strong-bpjr", "l"))
    assert len(builds) == 1


def test_each_caller_budget_is_admitted_once(monkeypatch):
    # the group table reads admitted (mask, total) selections: a caller's
    # budget is checked once however many axioms read it, and the
    # enumerated budgets of certify and replay are never re-checked
    import probud.axioms
    from probud.axioms import check_axiom, evaluate_axioms

    admitted = []
    feasible = probud.axioms.is_feasible

    def counted(inst, budget):
        admitted.append(budget)
        return feasible(inst, budget)

    monkeypatch.setattr(probud.axioms, "is_feasible", counted)
    inst, profile = next(_bloc_instances(1))
    budgets = enumerate_feasible(inst)[:4]
    assert len(budgets) == 4
    evaluate_axioms(inst, profile, budgets[1])
    assert admitted == budgets[1:2]
    admitted.clear()
    verify_implications(inst, profile, budgets)
    assert admitted == budgets
    admitted.clear()
    check_axiom(inst, profile, budgets[2], AxiomId("bpjr", "w"))
    assert admitted == budgets[2:3]
    admitted.clear()
    for axiom in (AxiomId("bjr", "l"), AxiomId("local-bpjr", "w")):
        certify_existence(inst, profile, axiom)
        replay_witnesses(inst, profile, axiom)
    assert admitted == []


def test_certified_satisfiers_equal_a_per_budget_filter():
    # the "w" knapsack caps follow each budget's spend, so a table cache
    # keyed without the cap would show up as a wrong satisfier here
    from probud.axioms import check_axiom

    for inst, profile in _bloc_instances(12):
        for exhaustive_only in (False, True):
            budgets = enumerate_feasible(inst, exhaustive_only)
            for axiom in BPJR_AXIOMS:
                report = certify_existence(inst, profile, axiom, exhaustive_only)
                expected = tuple(b for b in budgets if check_axiom(inst, profile, b, axiom).satisfied)
                assert report.satisfying_budgets == expected, (axiom, exhaustive_only)


def test_certify_bpjr_w_runs_a_knapsack_only_where_a_group_can_fall_short(monkeypatch):
    # a BPJR group whose represented weight covers the ceiling of its
    # knapsack cap (one float step past cap + TOL) cannot fall short of the
    # knapsack's weight, so no knapsack is run for it
    import probud.axioms
    from oracles import _bits, _voter_groups

    calls = []
    knapsack = probud.axioms._max_bundle_over
    monkeypatch.setattr(probud.axioms, "_max_bundle_over", lambda *args: calls.append(1) or knapsack(*args))
    inst, profile = generate(GenSpec(num_items=10, num_voters=14, cost_model="uniform", ballot_model="groups",
                                     group_count=3, group_overlap=0.2, limit_fraction=0.4, seed=0))
    certify_existence(inst, profile, AxiomId("bpjr", "w"), exhaustive_only=True)

    def weigh(mask):
        return reduce(add, (inst.cost[i] for i in _bits(mask)), 0.0)

    largest = {}
    for voters, common, union in _voter_groups([sum(1 << i for i in b) for b in profile.ballots]):
        largest[common, union] = max(largest.get((common, union), 0), len(voters))
    n = profile.num_voters
    claimed = short = 0
    for budget in enumerate_feasible(inst, exhaustive_only=True):
        denom = budget.total_cost
        selected = sum(1 << i for i in budget.selected)
        for (common, union), size in largest.items():
            share = size * denom / n
            if min(share, weigh(common)) < 1.0 - TOL:
                continue
            claimed += 1
            ceiling = math.nextafter(min(share, denom) + TOL, math.inf)
            short += weigh(union & selected) < ceiling - TOL
    assert 0 < len(calls) <= short < claimed

import dataclasses
import math
import random
from functools import partial, reduce
from operator import add

import pytest
from hypothesis import given, strategies as st

from probud.axioms import (
    IMPLICATION_EDGES,
    MAX_EXACT_BUNDLE_ITEMS,
    MAX_EXACT_VOTERS,
    check_axiom,
    check_bjr_poly,
    check_bpjr,
    check_local_bpjr,
    check_strong_bpjr,
    evaluate_axioms,
    implied_by,
    max_bundle,
    max_bundle_weight,
    recheck_witness,
)
from probud.errors import (
    InvalidBudget,
    InvalidChoice,
    InvalidCost,
    InvalidLimit,
    InvalidProfile,
    InvalidSpec,
    ParseError,
    ProbudError,
    TooLargeForExact,
)
from probud.harness import GenSpec, generate, parse_instance
from probud.model import (
    ALL_AXIOMS,
    TOL,
    AxiomId,
    Budget,
    Instance,
    Profile,
    fit_bound,
    fits,
    is_feasible,
    is_unit,
    normalize,
)
from probud.oracle import certify_existence, enumerate_feasible, replay_witnesses, verify_implications
from probud.rules import bpjr_construct, gpseq, greedy_bjr_l, min_max_load

from oracles import (
    brute_bjr_satisfied,
    jr_satisfied,
    literal_axiom_satisfied,
    pjr_satisfied,
    reference_bjr_report,
    reference_bpjr_report,
)
from suites import (
    BJR_AXIOMS,
    BOUNDARY_SEEDS,
    BPJR_AXIOMS,
    boundary_instance,
    fitting_instance,
    random_feasible_budget,
    suite_instance,
    unit_instance,
)


# ---------------------------------------------------------------- knapsack


def test_max_bundle_weight_examples():
    assert max_bundle_weight({"a": 2.0, "b": 1.5}, 2.0) == pytest.approx(2.0)
    assert max_bundle_weight({"c2": 2.0}, 1.5) == 0.0
    costs = {"x": 1.0, "y": 2.5, "z": 4.0}
    assert max_bundle_weight(costs, 100.0) == pytest.approx(7.5)


def test_max_bundle_returns_a_witness_bundle():
    weight, bundle = max_bundle({"a": 2.0, "b": 1.5}, 2.0)
    assert weight == pytest.approx(2.0)
    assert bundle == frozenset({"a"})


def test_max_bundle_weight_caps_input_size():
    costs = {f"i{k}": 1.0 for k in range(26)}
    with pytest.raises(TooLargeForExact):
        max_bundle_weight(costs, 3.0)


def test_max_bundle_weight_matches_exhaustive_search():
    from oracles import powerset

    rng = random.Random(3)
    for _ in range(60):
        size = rng.randint(0, 8)
        costs = {k: rng.uniform(0.5, 4.0) for k in range(size)}
        cap = rng.uniform(0.0, 10.0)
        expected = max(
            (sum(costs[k] for k in b) for b in powerset(costs) if sum(costs[k] for k in b) <= cap + TOL),
            default=0.0,
        )
        assert max_bundle_weight(costs, cap) == pytest.approx(expected, abs=1e-9)


@given(
    st.lists(st.floats(min_value=0.1, max_value=20.0), max_size=10),
    st.floats(min_value=0.0, max_value=120.0),
)
def test_max_bundle_fits_cap_and_is_achieved(costs, cap):
    table = dict(enumerate(costs))
    weight, bundle = max_bundle(table, cap)
    assert weight <= cap + TOL
    assert weight == pytest.approx(sum(table[k] for k in bundle), abs=1e-9)
    assert max_bundle_weight(table, cap + 1.0) >= weight - TOL
    if cap >= sum(costs):
        assert weight == pytest.approx(sum(costs), abs=1e-9)


@pytest.mark.parametrize("costs, cap, weight, bundle", [
    ({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, 2.0, 2.0, {"c", "d"}),
    ({"a": 2.0, "b": 1.0, "c": 1.0, "d": 2.0, "e": 1.0}, 3.0, 3.0, {"d", "e"}),
    ({k: 1.5 for k in "abcdef"}, 4.5, 4.5, {"d", "e", "f"}),
    ({"a": 1.0, "b": 2.0, "c": 3.0, "d": 1.0, "e": 2.0, "f": 3.0}, 4.0, 4.0, {"d", "f"}),
    ({"a": 3.0, "b": 3.0, "c": 1.0}, 3.5, 3.0, {"b"}),
    ({"a": 1.0}, 0.5, 0.0, set()),
    ({}, 3.0, 0.0, set()),
    ({"a": 1.0, "b": 2.0}, -1.0, 0.0, set()),
    ({"a": 1.0, "b": 2.0, "c": 2.0}, math.inf, 5.0, {"a", "b", "c"}),
], ids=["four-ones", "twos-and-ones", "six-halves", "pairs", "left-item-ties-right", "nothing-fits",
        "empty", "negative-cap", "infinite-cap"])
def test_max_bundle_keeps_its_choice_among_equally_heavy_bundles(costs, cap, weight, bundle):
    # the left half's subsets are read in doubling order, each paired with
    # the heaviest right half that fits, and a tie keeps the first pair
    assert max_bundle(costs, cap) == (weight, frozenset(bundle))


def _near_boundary_knapsacks(count):
    # 2-8 items of unit, uniform or wide costs under keys in shuffled order,
    # and a cap at some subset's fold less TOL, moved by up to three ulps
    # either way: fit_bound(cap) then sits within a few ulps of that fold
    from oracles import powerset

    rng = random.Random(25)
    for _ in range(count):
        keys = [f"k{j}" for j in range(rng.randint(2, 8))]
        rng.shuffle(keys)
        costs = {k: rng.choice((1.0, rng.uniform(1.0, 4.0), 10 ** rng.uniform(0.0, 3.0))) for k in keys}
        subset = rng.choice([b for b in powerset(keys) if b])
        cap = reduce(add, (costs[k] for k in subset), 0.0) - TOL
        for _ in range(rng.randint(0, 3)):
            cap = math.nextafter(cap, rng.choice((math.inf, -math.inf)))
        yield costs, cap


def test_max_bundle_returns_the_fold_of_the_heaviest_bundle_that_fits_near_its_bound():
    # a bundle weighs the fold of its costs in the mapping's order, and
    # fits iff that fold does: the returned weight must be that fold, fit,
    # and be the heaviest of the bundles that fit, within the knapsack's
    # 1e-12 tie rule (weights stay under 8192, where an ulp is below 1e-12)
    from oracles import powerset

    def fold(costs, bundle):
        return reduce(add, (c for k, c in costs.items() if k in bundle), 0.0)

    for costs, cap in _near_boundary_knapsacks(2000):
        weight, bundle = max_bundle(costs, cap)
        assert weight == fold(costs, bundle), (costs, cap)
        assert fits(weight, cap), (costs, cap)
        heaviest = max(w for w in map(partial(fold, costs), powerset(costs)) if fits(w, cap))
        assert heaviest <= weight + 1e-12, (costs, cap)


def test_a_bpjr_l_witness_weighs_its_bundle_as_the_definition_does():
    # the pair sum c0 + (c2 + c3) of the bundle {0, 2, 3} is fit_bound of
    # the four voters' cap, the limit, and its fold in item order passes it
    # by one ulp: the bundle does not fit, and the witness rests on another
    costs = (1.777569496995039, 3.090503145327413, 3.8912990909315117, 1.0, 2.1715518377914207, 1.0)
    inst = Instance(tuple(f"c{j}" for j in range(6)), costs, 6.66886858692655)
    profile = Profile.of([{0, 1, 2, 3, 4}] + [set(range(6))] * 3)
    budget = Budget.of(inst, [0, 5])
    assert costs[0] + (costs[2] + costs[3]) == fit_bound(inst.limit) < inst.weight({0, 2, 3})
    report = check_axiom(inst, profile, budget, AxiomId("bpjr", "l"))
    assert not report.satisfied
    assert report.witness.required_weight == inst.weight(report.witness.witness_bundle)
    assert recheck_witness(inst, profile, budget, report)


# ---------------------------------------------------------- polynomial BJR


def test_strong_bjr_violation_on_example_one(ex1):
    _, inst, profile = ex1
    budget = Budget.of(inst, [0, 2])  # c1 and c3
    report = check_bjr_poly(inst, profile, budget, AxiomId("strong-bjr", "l"))
    assert not report.satisfied
    assert report.method == "polynomial"
    assert report.witness.voters == frozenset({2, 3})
    assert report.witness.witness_bundle == frozenset({1})
    assert report.witness.required_weight == 1.0
    assert report.witness.represented_weight == 0.0


def test_plain_bjr_satisfied_on_example_one(ex1):
    # voters 3 and 4 share no item of cost exactly one
    _, inst, profile = ex1
    budget = Budget.of(inst, [0, 2])
    assert check_bjr_poly(inst, profile, budget, AxiomId("bjr", "l")).satisfied


def test_bjr_poly_rejects_other_families(ex1):
    _, inst, profile = ex1
    with pytest.raises(ValueError):
        check_bjr_poly(inst, profile, Budget.of(inst, []), AxiomId("bpjr", "l"))


def test_bjr_poly_rejects_other_families_with_a_package_error(ex1):
    _, inst, profile = ex1
    with pytest.raises(ProbudError):
        check_bjr_poly(inst, profile, Budget.of(inst, []), AxiomId("bpjr", "l"))


def test_bjr_w_trivial_for_empty_budget(ex1):
    _, inst, profile = ex1
    empty = Budget.of(inst, [])
    for family in ("bjr", "strong-bjr"):
        assert check_bjr_poly(inst, profile, empty, AxiomId(family, "w")).satisfied


def test_strong_bjr_matches_jr_on_unit_costs():
    for seed in range(60):
        inst, profile, k = unit_instance(seed, max_voters=8, max_items=6)
        rng = random.Random(seed + 10_000)
        budget = random_feasible_budget(inst, rng)
        got = check_bjr_poly(inst, profile, budget, AxiomId("strong-bjr", "l")).satisfied
        expected = jr_satisfied(profile.ballots, budget.selected, k, inst.num_items)
        assert got == expected, f"seed {seed}"


def test_bjr_poly_agrees_with_brute_subset_sweep():
    rng = random.Random(99)
    for seed in range(120):
        inst, profile = suite_instance(seed, max_voters=7, max_items=5)
        budget = random_feasible_budget(inst, rng)
        for family in ("bjr", "strong-bjr"):
            for variant in ("l", "w"):
                axiom = AxiomId(family, variant)
                got = check_bjr_poly(inst, profile, budget, axiom).satisfied
                expected = brute_bjr_satisfied(inst, profile, budget, axiom)
                assert got == expected, f"seed {seed} axiom {axiom}"


def test_bjr_reports_match_the_definition_literal_reference():
    rng = random.Random(4242)
    violations = 0
    for seed in range(150):
        inst, profile = suite_instance(seed)
        for budget in (Budget.of(inst, []), random_feasible_budget(inst, rng)):
            for axiom in BJR_AXIOMS:
                report = check_axiom(inst, profile, budget, axiom)
                assert report == reference_bjr_report(inst, profile, budget, axiom), (
                    f"seed {seed} {axiom} on {sorted(budget.selected)}"
                )
                violations += not report.satisfied
    assert violations > 250


def test_bjr_witness_is_the_smallest_voter_tuple():
    # the unrepresented approvers of a are (1, 2), of b (0, 1), of c (1, 3):
    # the witness is b's group, neither the first item's nor the last's
    inst = Instance(("a", "b", "c", "d"), (1.0, 1.0, 1.0, 2.0), 2.0)
    profile = Profile.of([{1}, {0, 1, 2}, {0}, {2}])
    budget = Budget.of(inst, {3})
    for axiom in BJR_AXIOMS:
        report = check_axiom(inst, profile, budget, axiom)
        assert report.witness.voters == frozenset({0, 1}), axiom
        assert report.witness.witness_bundle == frozenset({1}), axiom
        assert report == reference_bjr_report(inst, profile, budget, axiom)


def test_bjr_reports_past_the_exact_caps_match_the_reference_without_a_group_sweep(monkeypatch):
    # 40 voters and 30 items pass both exact caps, so the BJR test must run
    # before the voter cap, the oversized-common-items guard and the group
    # sweep; the stand-in sweep records a call and returns no groups
    import probud.axioms

    sweeps = []
    monkeypatch.setattr(probud.axioms, "_cohesive_groups", lambda masks: sweeps.append(len(masks)) or [])
    rng = random.Random(2)
    m, n = 30, 40
    cost = (1.0,) + tuple(rng.choice((1.0, 1.5, 2.0, 3.0)) for _ in range(m - 1))
    inst = Instance(tuple(f"c{i}" for i in range(m)), cost, 0.5 * sum(cost))
    profile = Profile.of([{c for c in range(m) if rng.random() < 0.15} for _ in range(n)])
    assert n > MAX_EXACT_VOTERS and m > MAX_EXACT_BUNDLE_ITEMS
    budgets = [Budget.of(inst, [])] + [random_feasible_budget(inst, rng) for _ in range(19)]
    verdicts = {axiom: set() for axiom in BJR_AXIOMS}
    for budget in budgets:
        for axiom in BJR_AXIOMS:
            report = check_axiom(inst, profile, budget, axiom)
            assert report == reference_bjr_report(inst, profile, budget, axiom), (axiom, sorted(budget.selected))
            verdicts[axiom].add(report.satisfied)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts
    assert sweeps == []


# ------------------------------------------------------------- strong BPJR


def test_strong_bpjr_violated_on_every_feasible_budget_of_example_one(ex1):
    from probud.oracle import enumerate_feasible

    _, inst, profile = ex1
    for budget in enumerate_feasible(inst):
        report = check_strong_bpjr(inst, profile, budget, "l")
        assert not report.satisfied
        assert recheck_witness(inst, profile, budget, report)


def test_strong_bpjr_satisfied_when_fully_represented():
    inst = normalize({"a": 1.0}, 1.0)
    profile = Profile.of([{0}])
    budget = Budget.of(inst, [0])
    assert check_strong_bpjr(inst, profile, budget, "l").satisfied
    assert check_strong_bpjr(inst, profile, budget, "w").satisfied


def _exact_cover_instance():
    # six triples over six voters, each voter in exactly three of them;
    # the first two triples partition the voters
    triples = [
        {0, 1, 2},
        {3, 4, 5},
        {0, 3, 4},
        {1, 4, 5},
        {2, 3, 5},
        {0, 1, 2},
    ]
    inst = normalize({f"s{j}": 3.0 for j in range(6)}, 6.0)
    ballots = [frozenset(j for j, t in enumerate(triples) if i in t) for i in range(6)]
    return inst, Profile(tuple(ballots))


def test_strong_bpjr_holds_for_an_exact_cover():
    inst, profile = _exact_cover_instance()
    cover = Budget.of(inst, [0, 1])
    assert check_strong_bpjr(inst, profile, cover, "l").satisfied
    assert check_bjr_poly(inst, profile, cover, AxiomId("strong-bjr", "l")).satisfied


def test_strong_bpjr_voter_cap():
    inst = normalize({"a": 1.0}, 1.0)
    profile = Profile.of([{0}] * 23)
    with pytest.raises(TooLargeForExact):
        check_strong_bpjr(inst, profile, Budget.of(inst, [0]), "l")


# -------------------------------------------------------------------- BPJR


def test_bpjr_w_counterexample_on_example_two(ex2):
    _, inst, profile = ex2
    budget = Budget.of(inst, [1, 2])  # b and c
    report = check_bpjr(inst, profile, budget, "w")
    assert not report.satisfied
    w = report.witness
    assert w.voters == frozenset({0, 1, 2, 3})
    assert w.level == pytest.approx(2.0)
    assert w.required_weight == pytest.approx(2.0)
    assert w.represented_weight == pytest.approx(1.5)
    assert w.witness_bundle == frozenset({0})  # the bundle {a}
    assert recheck_witness(inst, profile, budget, report)


def test_bpjr_l_holds_for_both_tiebreak_outcomes(ex3):
    _, inst, profile = ex3
    for selection in ([0], [1]):
        budget = Budget.of(inst, selection)
        assert check_bpjr(inst, profile, budget, "l").satisfied


def test_bpjr_trivial_when_no_bundle_fits():
    # the single voter's cap is one unit but their only item costs two,
    # so the threshold is zero and cannot be undercut
    inst = Instance(("x", "y"), (2.0, 1.0), 1.0)
    profile = Profile.of([{0}])
    assert check_bpjr(inst, profile, Budget.of(inst, []), "l").satisfied


def test_bpjr_empty_budget_example_one(ex1):
    # on example one even the empty budget passes BPJR-L: every cohesive
    # group's cap stays below its cheapest shared bundle
    _, inst, profile = ex1
    assert check_bpjr(inst, profile, Budget.of(inst, []), "l").satisfied


def _one_voter_bpjr_l(costs, limit, selected):
    # one voter approving every item, so the knapsack sees all of them
    inst = Instance(tuple(f"c{j}" for j in range(len(costs))), tuple(costs), limit)
    return inst, Profile.of([set(range(len(costs)))]), Budget.of(inst, selected)


def _near_limit_pair():
    # x + y fits the limit 2.0 within TOL and outweighs z by more than TOL,
    # though z itself lies within TOL of the cap 2.0
    return _one_voter_bpjr_l((1.0, 1.0 + 0.5e-9, 1.9999999992), 2.0, {2})


def _equal_bound_pair():
    # the knapsack's pair sum 1.0 + b equals fit_bound(3.0) exactly, and the
    # represented weight is the float just below fit_bound(3.0) - TOL
    cap = 3.0
    b = fit_bound(cap) - 1.0
    represented = math.nextafter(fit_bound(cap) - TOL, 0.0)
    assert 1.0 + b == fit_bound(cap)
    assert math.nextafter(fit_bound(cap), 0.0) - TOL == represented
    return _one_voter_bpjr_l((1.0, b, represented), cap, {2})


def _past_bound_pair():
    # a left-half sum s and a right-half sum r with fl(s + r) one float
    # step past fit_bound(cap): the bundle {s, r} weighs s + r, its
    # ascending fold, so it does not fit, and no bundle that fits weighs
    # more than fit_bound(cap), which the represented weight covers
    cap, s, r = 3.312879023962449, 1.278208278670604, 2.0346707462918454
    assert s + r == math.nextafter(fit_bound(cap), math.inf)
    return _one_voter_bpjr_l((1.0, s, r, fit_bound(cap) - TOL), cap, {3})


@pytest.mark.parametrize("case, required, represented", [
    (_near_limit_pair, 2.0000000005, 1.9999999992),
    (_equal_bound_pair, 3.000000001, 2.9999999999999996),
    (_past_bound_pair, None, None),
], ids=["near-limit", "pair-sum-at-fit-bound", "pair-sum-past-fit-bound"])
def test_the_bpjr_exit_skips_no_knapsack_that_can_violate(case, required, represented):
    # The BPJR sweep skips the knapsack of a group whose represented weight
    # does not fall short of the cap's ceiling, fit_bound(cap).  Each
    # group's represented weight covers a lower would-be ceiling: the cap
    # in the first two cases, the float just below fit_bound(cap) in the
    # second.  The knapsack returns more, so only a ceiling at or above its
    # largest result finds the violation.  In the third case the
    # represented weight covers fit_bound(cap) itself, and BPJR-L holds, as
    # the definition says: the bundle whose pair sum passes fit_bound(cap)
    # does not fit.
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    inst, profile, budget = case()
    axiom = AxiomId("bpjr", "l")
    report = check_axiom(inst, profile, budget, axiom)
    assert report.satisfied == (required is None)
    assert report == reference_bpjr_report(inst, profile, budget, axiom)
    assert report == _GroupTable(inst, profile).report((mask_of(budget.selected), budget.total_cost), axiom)
    assert report.satisfied == literal_axiom_satisfied(inst, profile, budget, axiom)
    if required is not None:
        assert report.witness.required_weight == required
        assert report.witness.represented_weight == represented
        assert recheck_witness(inst, profile, budget, report)
    assert evaluate_axioms(inst, profile, budget)[axiom] == report.satisfied
    assert (budget in certify_existence(inst, profile, axiom).satisfying_budgets) == report.satisfied


# -------------------------------------------------------------- local BPJR


def test_local_bpjr_satisfied_on_sequential_output(ex2):
    _, inst, profile = ex2
    budget = Budget.of(inst, [1, 2])
    assert check_local_bpjr(inst, profile, budget, "l").satisfied


def test_local_bpjr_flags_extendable_empty_representation():
    inst = normalize({"x": 1.0}, 1.0)
    profile = Profile.of([{0}, {0}, {0}])
    report = check_local_bpjr(inst, profile, Budget.of(inst, []), "l")
    assert not report.satisfied
    assert report.witness.voters == frozenset({0, 1, 2})
    assert report.witness.witness_bundle == frozenset({0})
    assert recheck_witness(inst, profile, Budget.of(inst, []), report)


def test_local_bpjr_vacuous_for_empty_ballots():
    inst = normalize({"x": 1.0}, 1.0)
    profile = Profile.of([set()])
    assert check_local_bpjr(inst, profile, Budget.of(inst, []), "l").satisfied


def test_local_bpjr_w_trivial_for_zero_spend():
    # the same empty budget that fails the limit-based variant passes the
    # spend-based one, whose denominator vanishes
    inst = normalize({"x": 1.0}, 1.0)
    profile = Profile.of([{0}, {0}, {0}])
    empty = Budget.of(inst, [])
    assert not check_local_bpjr(inst, profile, empty, "l").satisfied
    assert check_local_bpjr(inst, profile, empty, "w").satisfied


@pytest.mark.parametrize("a, b, limit", [
    (2.0491584405483367, 2.3786293230030124, 4.427787762551349),
    (1.4818135330961524, 3.074310553871894, 4.556124085968046),
    (4.740549544257821, 2.0686144064533107, 6.809163949711131),
])
def test_local_bpjr_reports_no_violation_without_a_deficit(a, b, limit):
    # b fits above a only within TOL of the limit.  The fit must be decided
    # as the knapsack decides it: a group that passes the pre-check but gets
    # no extension would be reported with a zero deficit and a witness
    # bundle equal to its representation, which cannot recheck.
    inst = normalize({"A": a, "B": b, "C": 1.0}, limit)
    profile = Profile.of([{0, 1}])
    budget = Budget.of(inst, [0])
    report = check_local_bpjr(inst, profile, budget, "l")
    assert report == reference_bpjr_report(inst, profile, budget, AxiomId("local-bpjr", "l"))
    if not report.satisfied:
        assert report.witness.witness_bundle > {0}
        assert recheck_witness(inst, profile, budget, report)


# ------------------------------------------------------- implication lattice


def test_implied_by_examples():
    assert implied_by(AxiomId("bjr", "w"), AxiomId("strong-bpjr", "l"))
    for axiom in ALL_AXIOMS:
        assert implied_by(axiom, axiom)
    assert not implied_by(AxiomId("strong-bpjr", "l"), AxiomId("bjr", "w"))


def test_implication_edge_count_and_direction():
    assert len(IMPLICATION_EDGES) == 15
    for stronger, weaker in IMPLICATION_EDGES:
        assert implied_by(weaker, stronger)
        assert not implied_by(stronger, weaker) or stronger == weaker


def test_no_implication_between_local_and_strong_bjr():
    assert not implied_by(AxiomId("strong-bjr", "l"), AxiomId("local-bpjr", "l"))
    assert not implied_by(AxiomId("local-bpjr", "l"), AxiomId("strong-bjr", "l"))


# -------------------------------------------------- cross-validation sweeps


def test_checkers_match_literal_definitions():
    rng = random.Random(2)
    for seed in range(150):
        inst, profile = suite_instance(seed, max_voters=6, max_items=5)
        budget = random_feasible_budget(inst, rng)
        for axiom in ALL_AXIOMS:
            got = check_axiom(inst, profile, budget, axiom).satisfied
            expected = literal_axiom_satisfied(inst, profile, budget, axiom)
            assert got == expected, f"seed {seed} axiom {axiom}"


def test_strong_bpjr_matches_real_level_pjr_on_unit_costs():
    for seed in range(60):
        inst, profile, k = unit_instance(seed, max_voters=8, max_items=6)
        rng = random.Random(seed + 20_000)
        budget = random_feasible_budget(inst, rng)
        got = check_strong_bpjr(inst, profile, budget, "l").satisfied
        expected = pjr_satisfied(profile.ballots, budget.selected, k)
        assert got == expected, f"seed {seed}"


def test_evaluate_axioms_matches_individual_checkers():
    rng = random.Random(31337)
    for seed in range(60):
        inst, profile = suite_instance(seed, max_voters=8, max_items=6)
        budget = random_feasible_budget(inst, rng)
        bulk = evaluate_axioms(inst, profile, budget)
        for axiom in ALL_AXIOMS:
            assert bulk[axiom] == check_axiom(inst, profile, budget, axiom).satisfied, (
                f"seed {seed} axiom {axiom}"
            )


def test_witnesses_revalidate_from_scratch():
    rng = random.Random(77)
    checked = 0
    for seed in range(80):
        inst, profile = suite_instance(seed, max_voters=8, max_items=6)
        budget = random_feasible_budget(inst, rng)
        for axiom in ALL_AXIOMS:
            report = check_axiom(inst, profile, budget, axiom)
            if not report.satisfied:
                assert recheck_witness(inst, profile, budget, report), (
                    f"seed {seed} axiom {axiom}"
                )
                checked += 1
    assert checked > 50  # the sweep actually exercised violations


def test_witnesses_at_tolerance_boundaries_revalidate():
    # the checkers and recheck_witness state each tolerance test through
    # the same model predicates, so they cannot round apart on a limit
    # that sits within TOL or a few ulps of a subset's sum
    for seed in BOUNDARY_SEEDS:
        inst, profile, budget = boundary_instance(seed)
        for axiom in ALL_AXIOMS:
            report = check_axiom(inst, profile, budget, axiom)
            assert report.satisfied or recheck_witness(inst, profile, budget, report), (
                f"seed {seed} axiom {axiom}"
            )


def test_bpjr_witnesses_at_tolerance_boundaries_weigh_their_bundles_as_the_definition_does():
    # a BPJR witness's required weight is the knapsack's weight of its
    # bundle, which must be the bundle's Instance.weight, and every
    # BPJR-family witness must pass recheck_witness
    violations = 0
    for seed in BOUNDARY_SEEDS:
        inst, profile, budget = boundary_instance(seed)
        for axiom in BPJR_AXIOMS:
            report = check_axiom(inst, profile, budget, axiom)
            if report.satisfied:
                continue
            if axiom.family == "bpjr":
                violations += 1
                assert report.witness.required_weight == inst.weight(report.witness.witness_bundle), seed
            assert recheck_witness(inst, profile, budget, report), f"seed {seed} axiom {axiom}"
    assert violations > 900, violations


def test_a_local_bpjr_l_level_within_tolerance_above_the_share_revalidates():
    # the three voters' share is the limit, c1's cost less TOL and one ulp;
    # the level c1 lies within TOL above it, so the group claims it, and a
    # size test in voter units (3 < 3.0000000002) used to refuse it
    inst = Instance(("c0", "c1", "c2"), (1.0, 2.4781061557151407, 3.2373050208605387), 2.4781061547151406)
    profile = Profile.of([{0, 1, 2}] * 3)
    budget = Budget.of(inst, [])
    report = check_axiom(inst, profile, budget, AxiomId("local-bpjr", "l"))
    assert not report.satisfied
    assert report.witness.level == 2.4781061557151407
    assert report.witness.witness_bundle == {1}
    assert recheck_witness(inst, profile, budget, report)


# Instances of the tamper table, as (raw costs, raw limit, ballots).
_EX1 = ({"c1": 2, "c2": 2, "c3": 1}, 3, [{0}, {0}, {1}, {1}])  # fixtures/ex1.pb
_LOCAL = ({"x": 1}, 1, [{0}] * 3)
# a limit just under 10 leaves the bundle {a, b} of weight 10 within one
# tolerance of the lone voter's cap but over it
_NEAR_CAP = ({"a": 1, "b": 9}, 10 - 5e-9, [{0, 1}])


@pytest.mark.parametrize(
    "instance, selection, axiom, report_changes, witness_changes",
    [
        (_EX1, [0, 2], "strong-bjr-l", {"satisfied": True}, {}),
        (_EX1, [0, 2], "strong-bjr-l", {"witness": None}, {}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"voters": frozenset({2, -1})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"voters": frozenset({2, 3, 7})}),
        (_EX1, [], "strong-bjr-l", {}, {"voters": frozenset({False, 1})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"witness_bundle": frozenset({1.0})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"common_items": frozenset({1.0})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"witness_bundle": frozenset({1, 3})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"voters": frozenset()}),
        (_EX1, [], "strong-bjr-l", {"axiom": AxiomId("strong-bjr", "w")}, {}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"represented_weight": 1.0}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"common_items": frozenset({0})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"level": 3.0}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"witness_bundle": frozenset({0})}),
        (_EX1, [0, 2], "strong-bjr-l", {}, {"witness_bundle": frozenset()}),
        (_EX1, [0, 2], "strong-bjr-l", {"axiom": AxiomId("bjr", "l")}, {}),
        (_LOCAL, [], "local-bpjr-l", {}, {"witness_bundle": frozenset()}),
        (_LOCAL, [], "local-bpjr-l", {}, {"level": 0.5}),
        (_NEAR_CAP, [], "local-bpjr-l", {}, {"witness_bundle": frozenset({0, 1}), "level": 10.0}),
    ],
    ids=["satisfied", "no-witness", "negative-voter", "voter-out-of-range", "bool-voter",
         "float-bundle-item", "float-common-item", "bundle-item-out-of-range", "no-voters",
         "zero-spend", "represented-weight", "common-items", "level-above-group",
         "bundle-outside-common", "bjr-bundle-size", "bjr-unit-cost", "local-not-extending",
         "local-bundle-weight", "local-level-above-cap"],
)
def test_a_tampered_witness_does_not_revalidate(instance, selection, axiom, report_changes, witness_changes):
    # each case takes one of recheck_witness's False branches; a voter or
    # item that is not an int in range used to revalidate or raise
    # IndexError unless another test caught it
    costs, limit, ballots = instance
    inst, profile = normalize(costs, limit), Profile.of(ballots)
    budget = Budget.of(inst, selection)
    report = check_axiom(inst, profile, budget, AxiomId.parse(axiom))
    assert recheck_witness(inst, profile, budget, report)
    tampered = dataclasses.replace(report, witness=dataclasses.replace(report.witness, **witness_changes))
    tampered = dataclasses.replace(tampered, **report_changes)
    assert not recheck_witness(inst, profile, budget, tampered)


@pytest.mark.parametrize("call, error", [
    (lambda inst, profile: check_axiom(inst, profile, Budget.of(inst, [0]), "bjr-l"), InvalidChoice),
    (lambda inst, profile: check_bjr_poly(inst, profile, Budget.of(inst, [0]), "bjr-l"), InvalidChoice),
    (lambda inst, profile: certify_existence(inst, profile, "bjr-l"), InvalidChoice),
    (lambda inst, profile: replay_witnesses(inst, profile, "bjr-l"), InvalidChoice),
    (lambda inst, profile: max_bundle_weight({"a": 1.0}, math.nan), InvalidLimit),
    (lambda inst, profile: max_bundle_weight({"a": 1.0}, "3"), InvalidLimit),
    (lambda inst, profile: max_bundle_weight({"a": 1.0}, 10**400), InvalidLimit),
    (lambda inst, profile: max_bundle_weight({"a": -5.0, "b": 3.0}, 2), InvalidCost),
    (lambda inst, profile: max_bundle_weight({"a": 0.0}, 2), InvalidCost),
    (lambda inst, profile: max_bundle_weight({"a": math.inf}, 2), InvalidCost),
    (lambda inst, profile: max_bundle_weight({"a": "x"}, 1), InvalidCost),
    (lambda inst, profile: is_feasible(inst, Budget(frozenset({0}), "x")), InvalidBudget),
    (lambda inst, profile: is_feasible(inst, Budget(frozenset({2}), True)), InvalidBudget),
    (lambda inst, profile: is_feasible(inst, Budget(frozenset({0}), 10**400)), InvalidBudget),
], ids=["check_axiom-text", "check_bjr_poly-text", "certify_existence-text", "replay_witnesses-text",
        "nan-cap", "text-cap", "huge-int-cap", "negative-cost", "zero-cost", "infinite-cost",
        "text-cost", "text-total", "bool-total", "huge-int-total"])
def test_malformed_public_arguments_raise_package_errors(ex1, call, error):
    # each used to raise a raw AttributeError, TypeError or OverflowError,
    # or to answer: a NaN cap, a non-positive or infinite cost and a bool
    # total were read as numbers
    _, inst, profile = ex1
    with pytest.raises(error):
        call(inst, profile)


def _recheck_with_text_axiom(inst, profile):
    budget = Budget.of(inst, [0, 2])  # {c1, c3} violates Strong-BJR-L
    report = check_axiom(inst, profile, budget, AxiomId.parse("strong-bjr-l"))
    return recheck_witness(inst, profile, budget, dataclasses.replace(report, axiom="strong-bjr-l"))


@pytest.mark.parametrize("call, error", [
    (lambda inst, profile: is_feasible(inst, Budget(None, 1.0)), InvalidBudget),
    (lambda inst, profile: Budget.of(inst, None), InvalidBudget),
    (lambda inst, profile: check_axiom(inst, Profile(None), Budget.of(inst, [0]), ALL_AXIOMS[0]), InvalidProfile),
    (lambda inst, profile: check_axiom(inst, Profile((None,)), Budget.of(inst, [0]), ALL_AXIOMS[0]), InvalidProfile),
    (lambda inst, profile: min_max_load(inst, profile, None), InvalidBudget),
    (_recheck_with_text_axiom, InvalidChoice),
    (lambda inst, profile: check_axiom(inst, None, Budget.of(inst, [0]), ALL_AXIOMS[0]), InvalidProfile),
    (lambda inst, profile: check_axiom(inst, profile, None, ALL_AXIOMS[0]), InvalidBudget),
    (lambda inst, profile: is_feasible(inst, None), InvalidBudget),
    (lambda inst, profile: gpseq(inst, None), InvalidProfile),
    (lambda inst, profile: min_max_load(inst, None, [0]), InvalidProfile),
    (lambda inst, profile: bpjr_construct(inst, None), InvalidProfile),
    (lambda inst, profile: recheck_witness(inst, profile, Budget.of(inst, [0]), None), InvalidChoice),
    (lambda inst, profile: gpseq(None, profile), InvalidChoice),
    (lambda inst, profile: greedy_bjr_l(None, profile), InvalidChoice),
    (lambda inst, profile: enumerate_feasible(None), InvalidChoice),
    (lambda inst, profile: certify_existence(None, profile, ALL_AXIOMS[0]), InvalidChoice),
    (lambda inst, profile: verify_implications(inst, profile, None), InvalidBudget),
    (lambda inst, profile: normalize(None, 1), InvalidCost),
    (lambda inst, profile: normalize([None], 1), InvalidCost),
    (lambda inst, profile: normalize([("a", 1, 2)], 1), InvalidCost),
    (lambda inst, profile: Profile.of(None), InvalidProfile),
    (lambda inst, profile: Profile.of([None]), InvalidProfile),
    (lambda inst, profile: max_bundle(None, 1), InvalidCost),
    (lambda inst, profile: Instance(("a",), None, 1.0), InvalidCost),
    (lambda inst, profile: AxiomId.parse(None), InvalidChoice),
    (lambda inst, profile: implied_by(None, None), InvalidChoice),
    (lambda inst, profile: parse_instance(None), ParseError),
    (lambda inst, profile: GenSpec.from_dict(None), InvalidSpec),
], ids=["is_feasible-none-items", "budget-of-none", "check_axiom-none-ballots", "check_axiom-none-ballot",
        "min_max_load-none-selection", "recheck_witness-text-axiom", "check_axiom-none-profile",
        "check_axiom-none-budget", "is_feasible-none-budget", "gpseq-none-profile", "min_max_load-none-profile",
        "bpjr_construct-none-profile", "recheck_witness-none-report", "gpseq-none-instance",
        "greedy_bjr_l-none-instance", "enumerate_feasible-none-instance", "certify_existence-none-instance",
        "verify_implications-none-budgets", "normalize-none", "normalize-none-pair", "normalize-three-tuple",
        "profile-of-none", "profile-of-none-ballot", "max_bundle-none", "instance-none-costs",
        "axiom-parse-none", "implied_by-none", "parse_instance-none", "gen_spec-from-dict-none"])
def test_arguments_of_the_wrong_type_raise_package_errors(ex1, call, error):
    # each used to raise a raw TypeError, ValueError, KeyError or
    # AttributeError: for the report's axiom given as text, or for a None
    # profile, budget, report, instance, cost table, axiom or file text
    _, inst, profile = ex1
    with pytest.raises(error):
        call(inst, profile)


def test_recheck_witness_admits_the_profile_then_the_budget(ex1):
    _, inst, profile = ex1
    budget = Budget.of(inst, [0, 2])
    report = check_axiom(inst, profile, budget, AxiomId("strong-bjr", "l"))
    wrong_total = Budget(frozenset({0, 2}), 0.0)
    with pytest.raises(InvalidBudget):
        recheck_witness(inst, profile, wrong_total, report)
    with pytest.raises(InvalidBudget):
        recheck_witness(inst, profile, Budget.of(inst, [0, 1]), report)  # infeasible
    with pytest.raises(InvalidProfile):
        recheck_witness(inst, Profile.of([{0}, {5}]), wrong_total, report)


@pytest.mark.parametrize("call", [
    lambda inst, profile, budget: check_axiom(inst, profile, budget, AxiomId("bpjr", "l")),
    lambda inst, profile, budget: evaluate_axioms(inst, profile, budget),
    lambda inst, profile, budget: verify_implications(inst, profile, [budget]),
], ids=["check_axiom", "evaluate_axioms", "verify_implications"])
def test_an_over_limit_budget_is_rejected(ex1, call):
    _, inst, profile = ex1
    with pytest.raises(InvalidBudget, match="feasible"):
        call(inst, profile, Budget.of(inst, [0, 1]))  # 2 + 2 > 3


def _reference_cases():
    """Bloc instances with duplicate ballots on every exhaustive budget,
    then impartial instances on seeded random budgets."""
    rng = random.Random(808)
    for seed in range(30):
        inst, profile = fitting_instance(
            num_items=rng.randint(3, 7),
            num_voters=rng.randint(4, 10),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model="groups",
            group_count=rng.randint(1, 3),
            group_overlap=rng.uniform(0.0, 0.3),
            limit_fraction=rng.uniform(0.3, 0.8),
            seed=seed,
        )
        for budget in enumerate_feasible(inst, exhaustive_only=True):
            yield inst, profile, budget
    for seed in range(60):
        inst, profile = fitting_instance(
            num_items=rng.randint(3, 8),
            num_voters=rng.randint(2, 10),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model="impartial",
            approval_prob=rng.uniform(0.2, 0.7),
            limit_fraction=rng.uniform(0.3, 0.8),
            seed=seed,
        )
        for _ in range(3):
            yield inst, profile, random_feasible_budget(inst, rng)


def test_bpjr_family_reports_match_voter_level_reference():
    duplicates = violations = 0
    for inst, profile, budget in _reference_cases():
        duplicates += len(set(profile.ballots)) < profile.num_voters
        for axiom in BPJR_AXIOMS:
            report = check_axiom(inst, profile, budget, axiom)
            assert report == reference_bpjr_report(inst, profile, budget, axiom), (
                f"{axiom} on {sorted(budget.selected)}"
            )
            violations += not report.satisfied
    assert duplicates > 100  # budgets of profiles whose groups collapse
    assert violations > 300


def test_bpjr_family_reports_match_the_reference_at_tolerance_boundaries():
    # the BPJR exit and the per-size shares, caps and claims round as the
    # reference's one-group-at-a-time sweep does where limits sit on subset
    # sums
    violations = 0
    for seed in BOUNDARY_SEEDS:
        inst, profile, budget = boundary_instance(seed)
        for axiom in BPJR_AXIOMS:
            report = check_axiom(inst, profile, budget, axiom)
            assert report == reference_bpjr_report(inst, profile, budget, axiom), f"seed {seed} axiom {axiom}"
            violations += not report.satisfied
    assert violations > 3000


def test_certified_checks_equal_the_uncertified_report_at_tolerance_boundaries():
    # check_axiom builds no group where a per-voter bound leaves no item
    # owed; the full sweep's report must be the same, and the reference
    # must find no violation wherever no item is owed
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    certified = {axiom: 0 for axiom in BPJR_AXIOMS}
    for seed in BOUNDARY_SEEDS:
        inst, profile, budget = boundary_instance(seed)
        selection = (mask_of(budget.selected), budget.total_cost)
        for axiom in BPJR_AXIOMS:
            report = _GroupTable(inst, profile).report(selection, axiom)
            assert check_axiom(inst, profile, budget, axiom) == report, f"seed {seed} axiom {axiom}"
            denom = inst.limit if axiom.variant == "l" else budget.total_cost
            if denom > TOL and not _GroupTable(inst, profile).owed(selection[0], axiom.family, denom):
                assert reference_bpjr_report(inst, profile, budget, axiom).satisfied, f"seed {seed} axiom {axiom}"
                certified[axiom] += 1
    assert min(certified.values()) > 100, certified


def _exact_cell_instances(count):
    # GenSpec instances shaped like the benchmark's single-budget check
    # cells: 10-20 voters, 8-16 items, impartial and bloc ballots
    rng = random.Random(23)
    for seed in range(count):
        m, n = rng.randint(8, 16), rng.randint(10, 20)
        ballots = rng.choice(("impartial", "groups"))
        yield fitting_instance(
            rng.uniform(0.25, 0.7),
            num_items=m,
            num_voters=n,
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model=ballots,
            approval_prob=rng.uniform(0.2, 0.35),
            group_count=rng.randint(2, 4),
            group_overlap=rng.uniform(0.0, 0.3),
            seed=seed,
        )


def test_a_pruned_check_reports_as_the_full_sweep_on_exact_cell_instances():
    # check_axiom sweeps only the subtrees that can hold a violation for
    # its one budget; the report must equal the table's full-sweep report,
    # counting the checks that leave some item owed and so build groups
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    rng = random.Random(5)
    pruned = violated = 0
    for inst, profile in _exact_cell_instances(250):
        for _ in range(3):
            budget = random_feasible_budget(inst, rng)
            selection = (mask_of(budget.selected), budget.total_cost)
            table = _GroupTable(inst, profile)
            for axiom in BPJR_AXIOMS:
                report = table.report(selection, axiom)
                assert check_axiom(inst, profile, budget, axiom) == report, (axiom, sorted(budget.selected))
                denom = inst.limit if axiom.variant == "l" else budget.total_cost
                pruned += table.owed(selection[0], axiom.family, denom) != 0
                violated += not report.satisfied
    assert pruned > 1500 and violated > 500, (pruned, violated)


def test_bpjr_holds_where_the_represented_weight_lies_ulps_under_the_common_weight():
    # The bundle {a, b, c} weighs its ascending fold (a + b) + c, one ulp
    # below the pair sum a + (b + c), and the represented weight of the
    # pair (0, 1) and of all three voters lies between the two less TOL.
    # The pair's cap is too small to claim the bundle, all three voters'
    # is not, but their represented weight is not short of the bundle's
    # weight by more than TOL: BPJR-L holds, as the definition says, and a
    # knapsack that weighed the bundle as a + (b + c) would call it violated.
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    a, b, c = 1.0, 5.401, 1.812
    inst = Instance(("a", "b", "c", "x"), (a, b, c, 1.811999999), (a + b) + c)
    profile = Profile.of([{0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2}])
    budget = Budget.of(inst, [0, 1, 3])
    assert (a + b) + c < a + (b + c)
    assert (a + b) + c - TOL <= budget.total_cost < a + (b + c) - TOL
    axiom = AxiomId("bpjr", "l")
    report = check_axiom(inst, profile, budget, axiom)
    assert report.satisfied
    assert report == reference_bpjr_report(inst, profile, budget, axiom)
    selection = (mask_of(budget.selected), budget.total_cost)
    assert report == _GroupTable(inst, profile).report(selection, axiom)
    assert literal_axiom_satisfied(inst, profile, budget, axiom)
    assert check_axiom(inst, profile, budget, AxiomId("strong-bpjr", "l")).satisfied


def test_a_sweep_that_always_descends_is_the_full_sweep():
    from probud.axioms import _GroupTable, _cohesive_groups

    for seed in range(150):
        inst, profile = suite_instance(seed, max_voters=12)
        masks = _GroupTable(inst, profile).ballots
        assert _cohesive_groups(masks, lambda common, union: True) == _cohesive_groups(masks)


def test_a_pruned_sweep_records_but_does_not_expand_a_subset_it_stops_at():
    # ballots {0, 1, 2}, {0, 3}, {0, 1}, {0, 2}, expanded only while two
    # items are common: (0, 1) is kept but not expanded, so (0, 1, 2) and
    # (0, 1, 2, 3) go; (0, 1, 3) and (1, 2, 3) share the key of (0, 1, 2)
    # and are gone either way
    from probud.axioms import _cohesive_groups

    masks = [0b0111, 0b1001, 0b0011, 0b0101]
    kept = [(0,), (0, 1), (0, 2), (0, 2, 3), (0, 3), (1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]
    full = _cohesive_groups(masks)
    assert [voters for voters, _, _ in full] == kept[:2] + [(0, 1, 2), (0, 1, 2, 3)] + kept[2:]
    pruned = _cohesive_groups(masks, lambda common, union: common.bit_count() > 1)
    assert [voters for voters, _, _ in pruned] == kept
    assert all(entry in full for entry in pruned)


def test_the_local_bpjr_sweep_stops_where_represented_items_leave_or_cover_the_common_items():
    # a, b, c at unit cost, {a} selected; ballots {a}, {a, b}, {a, b},
    # {b, c}, {b}.  Under a limit of 5 every item is owed (one voter's
    # share, 1, leaves room for an item beside b's or c's unrepresented
    # approvers, two voters' share beside a's), so only the family's test
    # stops a branch.  Voter 0 is represented on all of its common items,
    # so (0, 1) and (0, 1, 2) go; (1, 2, 3) and (1, 3) are represented on
    # a, outside their common items, so (1, 2, 3, 4) goes.  (1, 3, 4)
    # shares the key of (1, 2, 3), and (2,) that of (1,).
    from probud.axioms import _GroupTable

    inst = Instance(("a", "b", "c"), (1.0, 1.0, 1.0), 5.0)
    table = _GroupTable(inst, Profile.of([{0}, {0, 1}, {0, 1}, {1, 2}, {1}]))
    assert [voters for voters, _, _ in table.groups] == [
        (0,), (0, 1), (0, 1, 2), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), (1, 2, 4), (1, 3), (1, 4), (3,), (3, 4), (4,)
    ]
    assert table.owed(0b001, "local-bpjr", inst.limit) == 0b111
    assert [voters for voters, _, _ in table.pruned_groups(0b001, "local-bpjr", inst.limit)] == [
        (0,), (1,), (1, 2), (1, 2, 3), (1, 2, 4), (1, 3), (1, 4), (3,), (3, 4), (4,)
    ]


@pytest.mark.parametrize("family", ["strong-bpjr", "bpjr", "local-bpjr"])
def test_a_sweep_stops_at_common_items_that_are_not_owed(family):
    # a costs 3, b, c and d cost 1, limit 4, {b, c} selected; ballots {a,
    # b}, {a, c}, {d} three times, and five empty ones, so k voters' share
    # is 0.4k.  Voters 0 and 1 are represented by weight 1 each, which
    # covers the share of one or two of them: a, b and c are not owed.  d's
    # three unrepresented approvers are owed 1.2, so d is owed.  Voter 0 is
    # represented by 1 of its common weight 4, on b alone of its common
    # items a and b, so each family's own test would expand it to (0, 1);
    # the owed items stop it.  The d bloc is expanded, and (2, 3, 4),
    # represented by nothing, violates each family.
    from probud.axioms import _GroupTable

    inst = Instance(("a", "b", "c", "d"), (3.0, 1.0, 1.0, 1.0), 4.0)
    profile = Profile.of([{0, 1}, {0, 2}, {3}, {3}, {3}] + [set()] * 5)
    budget = Budget.of(inst, [1, 2])
    table = _GroupTable(inst, profile)
    assert [voters for voters, _, _ in table.groups] == [(0,), (0, 1), (1,), (2,), (2, 3), (2, 3, 4)]
    assert table.owed(0b0110, family, inst.limit) == 0b1000
    assert [voters for voters, _, _ in table.pruned_groups(0b0110, family, inst.limit)] == [
        (0,), (1,), (2,), (2, 3), (2, 3, 4)
    ]
    axiom = AxiomId(family, "l")
    report = check_axiom(inst, profile, budget, axiom)
    assert report == table.report((0b0110, budget.total_cost), axiom)
    assert report == reference_bpjr_report(inst, profile, budget, axiom)
    assert report.witness.voters == frozenset({2, 3, 4})


def test_the_pruned_sweeps_keep_fewer_entries_on_an_exact_cell_instance():
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    inst, profile = next(_exact_cell_instances(1))
    budget = random_feasible_budget(inst, random.Random(1))
    table = _GroupTable(inst, profile)
    for family in ("strong-bpjr", "bpjr", "local-bpjr"):
        pruned = table.pruned_groups(mask_of(budget.selected), family, inst.limit)
        assert len(pruned) < len(table.groups), family


def test_ballot_masks_equal_the_per_voter_construction():
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    for seed in range(200):
        inst, profile = suite_instance(seed)
        table = _GroupTable(inst, profile)
        approvers = table.approvers
        assert table.ballots == [
            mask_of(c for c, voters in enumerate(approvers) if voters >> v & 1) for v in range(profile.num_voters)
        ], f"seed {seed}"


def _fully_represented():
    # four voters approve the selected pair a, b; a fifth approves nothing,
    # so no group's share reaches the weight 2 that represents it
    inst = Instance(("a", "b", "c"), (1.0, 1.0, 1.0), 2.0)
    return inst, Profile.of([{0, 1}] * 4 + [set()]), Budget.of(inst, [0, 1])


def _wide_fully_represented():
    # voters 1 and 2 share 26 selected items, one more than the knapsack
    # takes; voter 0 approves nothing
    inst = Instance(tuple(f"c{j}" for j in range(28)), (1.0,) * 28, 26.0)
    profile = Profile((frozenset(), frozenset(range(26)), frozenset(range(26))))
    return inst, profile, Budget.of(inst, range(26))


def test_a_certified_check_builds_no_groups(monkeypatch):
    import probud.axioms

    def no_sweep(masks):
        raise AssertionError("the cohesive groups were built")

    inst, profile, budget = _fully_represented()
    monkeypatch.setattr(probud.axioms, "_cohesive_groups", no_sweep)
    for axiom in BPJR_AXIOMS:
        assert check_axiom(inst, profile, budget, axiom) == probud.axioms.AxiomReport(
            axiom, True, None, probud.axioms.BRUTE_FORCE
        )
    with pytest.raises(AssertionError, match="groups were built"):
        evaluate_axioms(inst, profile, budget)  # verdicts take no certificate
    # past 25 items too, where only BPJR and Local-BPJR refuse wide groups
    inst, profile, budget = _wide_fully_represented()
    for variant in ("l", "w"):
        assert check_axiom(inst, profile, budget, AxiomId("strong-bpjr", variant)).satisfied


@pytest.mark.parametrize("family", ["strong-bpjr", "bpjr", "local-bpjr"])
@pytest.mark.parametrize("variant", ["l", "w"])
def test_a_certifiable_check_is_admitted_as_before(family, variant):
    # the certificate would settle each of these, yet the voter cap, the
    # axiom's type and the oversized common items are refused first
    inst = Instance(("a", "b", "c"), (1.0, 1.0, 1.0), 2.0)
    crowd = Profile.of([{0, 1}] * (MAX_EXACT_VOTERS + 8))
    with pytest.raises(TooLargeForExact, match="voters"):
        check_axiom(inst, crowd, Budget.of(inst, [0, 1]), AxiomId(family, variant))
    inst, profile, budget = _fully_represented()
    with pytest.raises(InvalidChoice):
        check_axiom(inst, profile, budget, f"{family}-{variant}")
    wide, profile, budget = _wide_fully_represented()
    if family == "strong-bpjr":
        assert check_axiom(wide, profile, budget, AxiomId(family, variant)).satisfied
    else:
        with pytest.raises(TooLargeForExact, match="common-item set"):
            check_axiom(wide, profile, budget, AxiomId(family, variant))


@pytest.mark.parametrize("variant", ["l", "w"])
def test_local_bpjr_refuses_a_wide_ballot_without_a_sweep(monkeypatch, variant):
    # 26 unit items, three voters approving all of them and one empty
    # ballot: a lone voter's common items are its ballot, so Local-BPJR
    # refuses from the ballots alone, while BPJR, which counts only the
    # groups reaching level 1, still reads the sweep's group sizes
    import probud.axioms

    sweeps = []

    def counted(masks):
        sweeps.append(masks)
        return sweep(masks)

    sweep = probud.axioms._cohesive_groups
    monkeypatch.setattr(probud.axioms, "_cohesive_groups", counted)
    m = MAX_EXACT_BUNDLE_ITEMS + 1
    inst = Instance(tuple(f"c{j}" for j in range(m)), (1.0,) * m, float(m))
    profile = Profile((frozenset(),) + (frozenset(range(m)),) * 3)
    budget = Budget.of(inst, range(m))
    for family, calls in (("local-bpjr", 0), ("bpjr", 1)):
        sweeps.clear()
        with pytest.raises(TooLargeForExact, match=f"common-item set exceeds {MAX_EXACT_BUNDLE_ITEMS} items"):
            check_axiom(inst, profile, budget, AxiomId(family, variant))
        assert len(sweeps) == calls, family


def test_the_local_bpjr_certificate_reads_the_cheapest_cost():
    # Normalization leaves the cheapest cost within TOL of 1, here below it:
    # the item fits the lone voter's room though a cost of 1.0 would not
    inst = Instance(("a",), (1.0 - 0.5 * TOL,), 1.0 - 1.2 * TOL)
    profile = Profile.of([{0}])
    budget = Budget.of(inst, [])
    axiom = AxiomId("local-bpjr", "l")
    report = check_axiom(inst, profile, budget, axiom)
    assert not report.satisfied
    assert report == reference_bpjr_report(inst, profile, budget, axiom)
    assert recheck_witness(inst, profile, budget, report)


def test_a_shared_group_table_answers_as_fresh_calls_in_any_budget_order():
    # one table memoizes the per-size shares of its two latest denominators;
    # fed every feasible budget in shuffled order, so that "w" totals
    # interleave, fall out of the memo and come back, it must answer as a
    # fresh call each time
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    rng = random.Random(2024)
    returns = 0
    for seed in range(60):
        inst, profile = suite_instance(seed)
        table = _GroupTable(inst, profile)
        budgets = enumerate_feasible(inst)
        rng.shuffle(budgets)
        seen = set()
        for previous, budget in zip([None] + budgets, budgets):
            total = budget.total_cost
            returns += total in seen and total != previous.total_cost
            seen.add(total)
            selection = (mask_of(budget.selected), total)
            verdicts = dict(zip(ALL_AXIOMS, table.verdicts(selection)))
            assert verdicts == evaluate_axioms(inst, profile, budget), f"seed {seed}"
            for axiom in BPJR_AXIOMS:
                assert table.report(selection, axiom) == check_axiom(inst, profile, budget, axiom), (
                    f"seed {seed} {axiom} on {sorted(budget.selected)}"
                )
    assert returns > 400, returns


def _verdict_cases():
    for seed in range(60):
        yield f"suite seed {seed}", *suite_instance(seed)
    for seed in BOUNDARY_SEEDS:
        yield f"boundary seed {seed}", *boundary_instance(seed)[:2]


def _first_verdict_disagreement():
    """The first feasible budget, on one shared group table per instance
    fed every budget in shuffled order, where ``verdicts`` or ``holds``
    disagrees with the checker's report; None if none does.  Returns the
    number of budgets read as well."""
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    rng = random.Random(2028)
    budgets_read = 0
    for where, inst, profile in _verdict_cases():
        table = _GroupTable(inst, profile)
        budgets = enumerate_feasible(inst)
        rng.shuffle(budgets)
        for budget in budgets:
            budgets_read += 1
            selection = (mask_of(budget.selected), budget.total_cost)
            expected = tuple(check_axiom(inst, profile, budget, axiom).satisfied for axiom in ALL_AXIOMS)
            got = (table.verdicts(selection), tuple(table.holds(selection, axiom) for axiom in ALL_AXIOMS))
            if got != (expected, expected):
                return f"{where} on {sorted(budget.selected)}: {got} against {expected}", budgets_read
    return None, budgets_read


def test_verdicts_of_a_shared_table_are_the_checkers_verdicts():
    # verdicts and holds read the claim antichains of each denominator from
    # its second selection on, and the classes before that; on every
    # feasible budget, in shuffled order, each must be the checker's
    # verdict, which reads the report's violation stream
    disagreement, budgets_read = _first_verdict_disagreement()
    assert disagreement is None, disagreement
    assert budgets_read > 30_000, budgets_read


def _antichain_by(dominates):
    """An antichain builder for the dominance relation ``dominates(a,
    b)``, keeping the first of equal claims, whatever order it is fed."""
    def build(claims):
        kept = []
        for claim in claims:
            if not any(dominates(held, claim) for held in kept):
                kept = [held for held in kept if not dominates(claim, held)] + [claim]
        return kept
    return build


def _dominates(a, b):
    """Claim ``a = (union, need)`` may stand in for claim ``b``."""
    return a[0] & ~b[0] == 0 and a[1] >= b[1]


def test_claim_antichain_keeps_the_claims_no_other_dominates():
    # on random claims with few items and few needs, so that unions nest
    # and needs tie, the antichain is the set the definition gives
    from probud.axioms import _antichain

    rng = random.Random(7)
    for _ in range(2000):
        claims = [(rng.randrange(1, 32), rng.choice((0.5, 1.0, 1.5, 2.0))) for _ in range(rng.randint(0, 12))]
        kept = _antichain(claims)
        assert len(kept) == len(set(kept))
        assert set(kept) == set(_antichain_by(_dominates)(claims)), claims


@pytest.mark.parametrize("dominates", [
    lambda a, b: b[0] & ~a[0] == 0 and a[1] >= b[1],
    lambda a, b: a[0] & ~b[0] == 0 and a[1] <= b[1],
], ids=["subset-reversed", "need-reversed"])
def test_a_wrong_claim_dominance_changes_a_verdict(monkeypatch, dominates):
    # a claim may stand in for another only when its union is inside the
    # other's and its need is not below it; the verdict test above must
    # notice either half of that rule turned around
    from probud import axioms

    monkeypatch.setattr(axioms, "_antichain", _antichain_by(dominates))
    assert _first_verdict_disagreement()[0] is not None


def _read_in_turn(*streams):
    """Each stream's items, read one item of each stream in turn."""
    reads = [[] for _ in streams]
    pending = list(zip(reads, streams))
    while pending:
        for read, stream in list(pending):
            item = next(stream, None)
            if item is None:
                pending.remove((read, stream))
            else:
                read.append(item)
    return reads


def test_violation_streams_of_one_table_may_interleave():
    # two reads of one table's Strong-BPJR or BPJR violations, each on its
    # own selection, must each yield what a read of a fresh table yields,
    # with the limit or two totals shared; and verdicts read in turn on a
    # shared table, where the second selection at a denominator builds its
    # antichains, must be the checker's verdicts
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    axioms = [a for a in BPJR_AXIOMS if a.family != "local-bpjr"]
    streams = violations = verdicts = held = 0
    for seed in range(40):
        inst, profile = suite_instance(seed)
        budgets = enumerate_feasible(inst)
        selections = [(mask_of(b.selected), b.total_cost) for b in budgets]
        for axiom in axioms:
            alone = [list(_GroupTable(inst, profile)._violations(s, axiom)) for s in selections]
            for i in range(len(selections) - 1):
                table = _GroupTable(inst, profile)
                both = _read_in_turn(*(table._violations(s, axiom) for s in selections[i:i + 2]))
                assert both == alone[i:i + 2], f"seed {seed} {axiom} budget {i}"
                streams += 2
                violations += len(both[0]) + len(both[1])
            satisfied = [check_axiom(inst, profile, b, axiom).satisfied for b in budgets]
            for i in range(len(selections) - 1):
                table = _GroupTable(inst, profile)
                for j in (i, i + 1, i, i + 1):
                    assert table.holds(selections[j], axiom) == satisfied[j], f"seed {seed} {axiom} budget {j}"
                    verdicts += 1
                    held += satisfied[j]
    assert streams > 3000 and violations > 10_000, (streams, violations)
    assert verdicts == 2 * streams and 0.2 < held / verdicts < 0.8, (verdicts, held)


def _denominator_of(share, k, n):
    """A denominator ``d`` whose share ``k * d / n`` is ``share``, stepped
    one ulp at a time from ``n * share / k``."""
    d = n * share / k
    for _ in range(8):
        got = k * d / n
        if got == share:
            return d
        d = math.nextafter(d, math.inf if got < share else -math.inf)
    raise AssertionError(f"no denominator gives share {share!r} to {k} of {n} voters")


def test_a_group_claims_by_its_size_alone_at_the_tolerance_boundary():
    # The cheapest cost is the smallest float that is_unit accepts, so a
    # common-item set of that item alone weighs as little as any can, and
    # a group of k voters sharing it has its share k * d / n at 1 - TOL or
    # one ulp either side, where d is both the limit and the spend of the
    # budget {c1}.  The claim test reads the share alone, the reference
    # reads min(share, common weight): they must agree on every budget.
    cheapest = 1.0 - TOL
    while is_unit(math.nextafter(cheapest, 0.0)):
        cheapest = math.nextafter(cheapest, 0.0)
    while not is_unit(cheapest):
        cheapest = math.nextafter(cheapest, 2.0)
    edge = 1.0 - TOL
    claimed = unclaimed = 0
    for share in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)):
        for k, n in ((1, 2), (1, 4), (2, 4), (3, 4), (4, 7)):
            d = _denominator_of(share, k, n)
            inst = Instance(("c0", "c1"), (cheapest, d), d)
            # the k voters share c0 alone; the rest approve c1, both items or
            # none
            for rest in ({1}, {0, 1}, set()):
                profile = Profile.of([{0}] * k + [rest] * (n - k))
                for budget in enumerate_feasible(inst):
                    verdicts = evaluate_axioms(inst, profile, budget)
                    for axiom in BPJR_AXIOMS:
                        if axiom.family == "local-bpjr":
                            continue
                        report = check_axiom(inst, profile, budget, axiom)
                        where = f"share {share!r}, {k} of {n}, rest {rest}, {axiom} on {sorted(budget.selected)}"
                        assert report == reference_bpjr_report(inst, profile, budget, axiom), where
                        assert verdicts[axiom] == report.satisfied, where
            # alone and unrepresented on the empty budget, the k voters are
            # owed level 1 exactly where their share is not short of it
            report = check_axiom(inst, profile, Budget.of(inst, []), AxiomId("strong-bpjr", "l"))
            if share < edge:
                assert report.satisfied
                unclaimed += 1
            else:
                assert report.witness.voters == frozenset(range(k))
                claimed += 1
            # with one item more in common than the knapsack takes, BPJR-L
            # refuses up front exactly where the sweep would hand the k
            # voters to it: where Strong-BPJR-L finds them owed level 1
            many = MAX_EXACT_BUNDLE_ITEMS + 1
            wide = Instance(tuple(f"c{j}" for j in range(many)), (cheapest,) + (1.0,) * (many - 1), d)
            wide_profile = Profile.of([range(many)] * k + [set()] * (n - k))
            empty = Budget.of(wide, [])
            strong = check_axiom(wide, wide_profile, empty, AxiomId("strong-bpjr", "l"))
            assert strong.satisfied == (share < edge)
            if strong.satisfied:
                assert check_axiom(wide, wide_profile, empty, AxiomId("bpjr", "l")).satisfied
            else:
                assert strong.witness.voters == frozenset(range(k))
                with pytest.raises(TooLargeForExact):
                    check_axiom(wide, wide_profile, empty, AxiomId("bpjr", "l"))
    assert (claimed, unclaimed) == (10, 5)


def test_a_shared_group_table_holds_at_most_two_denominators():
    # a uniform-cost instance has nearly as many budget totals as feasible
    # budgets; the table reads each in both variants and keeps two tables
    # of shares, the limit's and the latest total's
    from probud._bits import mask_of
    from probud.axioms import _GroupTable

    inst, profile = generate(GenSpec(num_items=9, num_voters=6, cost_model="uniform", cost_high=3.0,
                                     limit_fraction=0.5, seed=11))
    table = _GroupTable(inst, profile)
    budgets = enumerate_feasible(inst)
    held = 0
    for budget in budgets:
        selection = (mask_of(budget.selected), budget.total_cost)
        table.verdicts(selection)
        table.report(selection, AxiomId("local-bpjr", "w"))
        held = max(held, table.sizes.cache_info().currsize)
    assert len({b.total_cost for b in budgets}) > 100
    assert held == 2


def _wide_common_instance(limit):
    # voters 1 and 2 share 26 items, one more than the bundle maximizer takes
    inst = Instance(tuple(f"c{j}" for j in range(28)), (1.0,) * 28, float(limit))
    wide = frozenset(range(1, 27))
    return inst, Profile((frozenset({0}), wide, wide))


@pytest.mark.parametrize("limit, items, expected", [
    (3, [1, 2, 3], "bpjr-l bpjr-w local-bpjr-l local-bpjr-w"),
    (3, [], "bpjr-l local-bpjr-l"),  # no spend: the "w" entitlements vanish
    (1, [0], "local-bpjr-l local-bpjr-w"),  # two of three voters stay below level 1
    (1, [], "local-bpjr-l"),
    (0, [], ""),
])
def test_evaluate_axioms_raises_exactly_when_a_checker_does(limit, items, expected):
    # BPJR needs the knapsack of the wide common set only once the group
    # reaches level 1, Local-BPJR for every group.  In the first case
    # voter 0 alone violates every BPJR family before the wide groups
    # come up, so a sweep that stopped at its first violation would miss
    # them.  A non-raising call lists its verdicts in ALL_AXIOMS order.
    inst, profile = _wide_common_instance(limit)
    budget = Budget.of(inst, items)
    raised = []
    for axiom in ALL_AXIOMS:
        try:
            check_axiom(inst, profile, budget, axiom)
        except TooLargeForExact:
            raised.append(str(axiom))
    assert raised == expected.split()
    if raised:
        with pytest.raises(TooLargeForExact):
            evaluate_axioms(inst, profile, budget)
    else:
        assert list(evaluate_axioms(inst, profile, budget)) == list(ALL_AXIOMS)


def test_check_axiom_rejects_a_budget_whose_total_disagrees_with_its_items():
    # a total of 0 would make every "w" check vacuously satisfied
    inst = Instance(("a", "b"), (1.0, 1.0), 2.0)
    profile = Profile.of([{1}, {1}])
    for variant in ("l", "w"):
        for family in ("strong-bpjr", "bpjr", "local-bpjr"):
            axiom = AxiomId(family, variant)
            assert not check_axiom(inst, profile, Budget.of(inst, {0}), axiom).satisfied
            with pytest.raises(InvalidBudget):
                check_axiom(inst, profile, Budget(frozenset({0}), 0.0), axiom)


def test_every_axiom_holds_for_a_profile_with_no_voters():
    # an instance file may list no ballots; with no voter there is no group
    # to owe anything, so no check may form a share k * d / n
    inst, profile = parse_instance(
        "[meta]\nname = empty\nm = 3\nn = 0\nlimit = 3\n"
        "[items]\nc1, c1, 2\nc2, c2, 2\nc3, c3, 1\n[ballots]\n"
    )
    assert profile == Profile(())
    budgets = enumerate_feasible(inst)
    assert len(budgets) == 6
    for budget in budgets:
        assert all(evaluate_axioms(inst, profile, budget).values())
        for axiom in ALL_AXIOMS:
            assert check_axiom(inst, profile, budget, axiom).satisfied, f"{axiom} on {sorted(budget.selected)}"
    for axiom in ALL_AXIOMS:
        assert len(certify_existence(inst, profile, axiom).satisfying_budgets) == 6
    assert verify_implications(inst, profile, budgets) == []

import random

import pytest
from hypothesis import given, strategies as st

from probud.axioms import (
    IMPLICATION_EDGES,
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
from probud.errors import InvalidBudget, TooLargeForExact
from probud.model import ALL_AXIOMS, TOL, AxiomId, Budget, Instance, Profile, normalize
from probud.oracle import enumerate_feasible

from oracles import (
    brute_bjr_satisfied,
    jr_satisfied,
    literal_axiom_satisfied,
    pjr_satisfied,
    reference_bjr_report,
    reference_bpjr_report,
)
from suites import BJR_AXIOMS, BPJR_AXIOMS, fitting_instance, random_feasible_budget, suite_instance, unit_instance


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

import random

import pytest

from probud.axioms import check_bjr_poly, check_bpjr, check_local_bpjr, evaluate_axioms
from probud.errors import InvalidProfile, NoApprover
from probud.harness import GenSpec, generate, generate_file
from probud.model import TOL, AxiomId, Budget, Instance, Profile, is_exhaustive, is_feasible, normalize
from probud.oracle import enumerate_feasible
from probud.rules import bpjr_construct, gpseq, greedy_bjr_l, min_max_load

from oracles import load_cut_bound, load_lp, reference_bpjr_construct
from suites import suite_instance


# ----------------------------------------------------------- load kernel


def test_min_max_load_single_item_even_split(ex2):
    _, inst, profile = ex2
    assignment = min_max_load(inst, profile, [1])  # item b over four approvers
    assert assignment.max_load == pytest.approx(0.375, abs=1e-6)
    assert sum(assignment.voter_load) == pytest.approx(1.5, abs=1e-9)


def test_min_max_load_two_groups(ex2):
    _, inst, profile = ex2
    assignment = min_max_load(inst, profile, [1, 2])
    assert assignment.max_load == pytest.approx(0.75, abs=1e-6)
    # item c is carried by voters 5 and 6 alone
    assert assignment.spread[(2, 4)] + assignment.spread[(2, 5)] == pytest.approx(1.5, abs=1e-9)


def test_min_max_load_forced_assignment():
    inst = normalize({"x": 1.0}, 1.0)
    profile = Profile.of([{0}])
    assignment = min_max_load(inst, profile, [0])
    assert assignment.max_load == pytest.approx(1.0, abs=1e-9)
    assert assignment.spread == {(0, 0): 1.0}


def test_min_max_load_requires_approvers():
    inst = normalize({"x": 1.0, "y": 1.0}, 2.0)
    profile = Profile.of([{0}])
    with pytest.raises(NoApprover):
        min_max_load(inst, profile, [0, 1])


def test_min_max_load_empty_selection(ex2):
    _, inst, profile = ex2
    assignment = min_max_load(inst, profile, [])
    assert assignment.max_load == 0.0
    assert assignment.spread == {}
    assert assignment.tight == frozenset()


def test_min_max_load_spread_invariants():
    rng = random.Random(8)
    for seed in range(40):
        inst, profile = suite_instance(seed, max_voters=6, max_items=5)
        approved = [
            c
            for c in range(inst.num_items)
            if any(c in ballot for ballot in profile.ballots)
        ]
        if not approved:
            continue
        selected = rng.sample(approved, rng.randint(1, len(approved)))
        assignment = min_max_load(inst, profile, selected)
        per_item = {c: 0.0 for c in selected}
        for (c, v), share in assignment.spread.items():
            assert share >= 0.0
            assert c in profile.ballots[v]
            per_item[c] += share
        for c in selected:
            assert per_item[c] == pytest.approx(inst.cost[c], abs=1e-9)
        assert assignment.max_load == pytest.approx(max(assignment.voter_load), abs=1e-9)


def _hall_ratio(inst, profile, items):
    helpers = {i for i, ballot in enumerate(profile.ballots) if ballot & set(items)}
    return inst.weight(items) / len(helpers)


def _approved_sample(inst, profile, rng):
    approved = [
        c
        for c in range(inst.num_items)
        if any(c in ballot for ballot in profile.ballots)
    ]
    return rng.sample(approved, rng.randint(1, len(approved))) if approved else []


def _check_kernel_against_oracles(inst, profile, selected):
    assignment = min_max_load(inst, profile, selected)
    got = assignment.max_load
    assert got == pytest.approx(load_cut_bound(inst, profile, selected), abs=1e-6)
    assert got == pytest.approx(load_lp(inst, profile, selected), abs=1e-6)
    # the tight set certifies the optimum: its Hall ratio is the load
    assert assignment.tight and assignment.tight <= set(selected)
    assert _hall_ratio(inst, profile, assignment.tight) == pytest.approx(got, abs=TOL)
    return assignment


def test_min_max_load_matches_cut_bound_and_lp():
    rng = random.Random(21)
    for seed in range(30):
        inst, profile = suite_instance(seed, max_voters=4, max_items=4)
        selected = _approved_sample(inst, profile, rng)
        if selected:
            _check_kernel_against_oracles(inst, profile, selected)


def _group_instances(count):
    """Bloc-ballot instances up to m=8, n=12: many voters share a ballot."""
    rng = random.Random(55)
    for seed in range(count):
        spec = GenSpec(
            num_items=rng.randint(3, 8),
            num_voters=rng.randint(4, 12),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model="groups",
            group_count=rng.randint(1, 3),
            group_overlap=rng.uniform(0.0, 0.3),
            limit_fraction=0.6,
            seed=seed,
        )
        yield generate(spec)


def test_min_max_load_on_duplicate_ballots_matches_cut_bound_and_lp():
    rng = random.Random(34)
    merged = 0
    for inst, profile in _group_instances(40):
        selected = _approved_sample(inst, profile, rng)
        restricted = [ballot & set(selected) for ballot in profile.ballots]
        merged += len({b for b in restricted if b}) < sum(1 for b in restricted if b)
        assignment = _check_kernel_against_oracles(inst, profile, selected)
        assert assignment.max_load == pytest.approx(max(assignment.voter_load), abs=1e-9)
        for c in selected:
            carried = sum(share for (item, _), share in assignment.spread.items() if item == c)
            assert carried == pytest.approx(inst.cost[c], abs=1e-9)
    assert merged >= 30  # the cases really exercise shared ballot types


def test_min_max_load_finishes_and_carries_every_cost_on_wide_cost_ranges():
    # Costs of 1 next to 1e6 or 1e8 make flows end a rounding error short
    # of some cost, often with no set of larger ratio to move to; the
    # kernel must still finish, carry every cost and stay optimal.
    rng = random.Random(61)
    for _ in range(200):
        m = rng.randint(3, 8)
        dear = rng.choice((1e6, 1e8))
        cost = (1.0,) + tuple(rng.choice((1.0, rng.uniform(dear / 2, dear * 2))) for _ in range(m - 1))
        inst = Instance(tuple(f"c{j}" for j in range(m)), cost, sum(cost))
        blocs = [frozenset(c for c in range(m) if rng.random() < 0.5) for _ in range(3)]
        profile = Profile(tuple(rng.choice(blocs) | {rng.randrange(m)} for _ in range(rng.randint(3, 12))))
        selected = _approved_sample(inst, profile, rng)
        assignment = min_max_load(inst, profile, selected)
        assert assignment.max_load == pytest.approx(load_cut_bound(inst, profile, selected), rel=1e-12)
        assert _hall_ratio(inst, profile, assignment.tight) == pytest.approx(assignment.max_load, rel=1e-12)
        assert max(assignment.voter_load) == pytest.approx(assignment.max_load, rel=1e-12)
        for c in selected:
            carried = sum(share for (item, _), share in assignment.spread.items() if item == c)
            assert carried == pytest.approx(inst.cost[c], rel=1e-12)


# ------------------------------------------------------- sequential rule


def test_gpseq_golden_run_on_example_two(ex2):
    _, inst, profile = ex2
    budget, trace = gpseq(inst, profile, tie="lex")
    assert sorted(budget.selected) == [1, 2]  # b then c
    assert budget.total_cost == pytest.approx(3.0, abs=1e-9)
    assert [step.chosen for step in trace.steps] == [1, 2]
    loads = [step.loads[step.chosen] for step in trace.steps]
    assert loads[0] == pytest.approx(0.375, abs=1e-6)
    assert loads[1] == pytest.approx(0.75, abs=1e-6)


def test_gpseq_tiebreak_policies(ex3):
    _, inst, profile = ex3
    cheap, _ = gpseq(inst, profile, tie="cheapest")
    assert sorted(cheap.selected) == [0]
    popular, _ = gpseq(inst, profile, tie="most-approved")
    assert sorted(popular.selected) == [1]
    # both singleton loads tie at one half
    _, trace = gpseq(inst, profile, tie="lex")
    assert trace.steps[0].tie_set == frozenset({0, 1})
    assert trace.steps[0].loads[0] == pytest.approx(0.5, abs=1e-6)
    assert trace.steps[0].loads[1] == pytest.approx(0.5, abs=1e-6)


def test_gpseq_checks_its_profile_once(monkeypatch, ex2):
    import probud.rules

    checks = []
    require = probud.rules._require_profile
    monkeypatch.setattr(
        probud.rules, "_require_profile", lambda inst, profile: checks.append(1) or require(inst, profile)
    )
    _, inst, profile = ex2
    for tie in ("lex", "most-approved"):
        checks.clear()
        _, trace = gpseq(inst, profile, tie=tie, fill_unapproved=True)
        assert len(trace.steps) == 2
        assert len(checks) == 1, tie


def test_gpseq_rejects_empty_profile(ex1):
    _, inst, _ = ex1
    with pytest.raises(InvalidProfile):
        gpseq(inst, Profile(()))


def test_gpseq_output_feasible_and_approved_exhaustive():
    for seed in range(60):
        inst, profile = suite_instance(seed)
        budget, trace = gpseq(inst, profile)
        assert is_feasible(inst, budget)
        # no affordable approved item is left out
        for c in range(inst.num_items):
            if c in budget.selected:
                continue
            approved = any(c in ballot for ballot in profile.ballots)
            assert not (
                approved and budget.total_cost + inst.cost[c] <= inst.limit + 1e-9
            )
        assert trace.final_budget == budget


def test_gpseq_fill_unapproved():
    inst = Instance(("a", "b"), (1.0, 1.0), 2.0)
    profile = Profile.of([{0}])
    bare, _ = gpseq(inst, profile)
    assert sorted(bare.selected) == [0]
    filled, trace = gpseq(inst, profile, fill_unapproved=True)
    assert sorted(filled.selected) == [0, 1]
    assert trace.filled == (1,)
    assert is_exhaustive(inst, filled)


def test_gpseq_trace_replays_to_final_budget():
    for seed in range(30):
        inst, profile = suite_instance(seed)
        budget, trace = gpseq(inst, profile, fill_unapproved=(seed % 2 == 0))
        replayed = {step.chosen for step in trace.steps} | set(trace.filled)
        assert replayed == set(budget.selected)


def test_gpseq_deterministic():
    for seed in range(20):
        inst, profile = suite_instance(seed)
        first = gpseq(inst, profile, tie="cheapest")
        second = gpseq(inst, profile, tie="cheapest")
        assert first == second


def test_gpseq_satisfies_local_bpjr_for_every_tie_policy():
    for seed in range(60):
        inst, profile = suite_instance(seed, max_voters=12, max_items=8)
        for tie in ("lex", "cheapest", "most-approved"):
            budget, _ = gpseq(inst, profile, tie=tie)
            assert check_local_bpjr(inst, profile, budget, "l").satisfied, (
                f"seed {seed} tie {tie}"
            )


def test_gpseq_bpjr_w_counterexample_stands(ex2):
    _, inst, profile = ex2
    budget, _ = gpseq(inst, profile)
    assert not check_bpjr(inst, profile, budget, "w").satisfied


def test_gpseq_guarantee_is_integer_level_not_real_level():
    # two voters share {c, d}; index order makes the rule resolve the
    # second-step tie toward the outsider's item, leaving the pair with
    # one of the 4/3 units a real-interval level would grant them
    from oracles import pjr_satisfied, pjr_satisfied_integer

    inst = Instance(("a", "c", "d"), (1.0, 1.0, 1.0), 2.0)
    profile = Profile.of([{1, 2}, {1, 2}, {0}])
    budget, _ = gpseq(inst, profile)
    assert sorted(budget.selected) == [0, 1]
    assert pjr_satisfied_integer(profile.ballots, budget.selected, 2)
    assert not pjr_satisfied(profile.ballots, budget.selected, 2)
    assert check_local_bpjr(inst, profile, budget, "l").satisfied


def _raw_instances(count):
    rng = random.Random(73)
    for seed in range(count):
        spec = GenSpec(
            num_items=rng.randint(3, 9),
            num_voters=rng.randint(2, 14),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_low=rng.uniform(0.5, 3.0),
            cost_high=rng.uniform(3.5, 12.0),
            ballot_model=rng.choice(("impartial", "groups")),
            approval_prob=rng.uniform(0.2, 0.7),
            group_count=rng.randint(1, 3),
            limit_fraction=rng.uniform(0.3, 0.8),
            seed=seed,
        )
        yield generate_file(spec)


def _assert_same_run(first, second):
    (budget_a, trace_a), (budget_b, trace_b) = first, second
    assert budget_a.selected == budget_b.selected
    assert budget_a.total_cost == pytest.approx(budget_b.total_cost, abs=TOL)
    assert [s.chosen for s in trace_a.steps] == [s.chosen for s in trace_b.steps]
    assert [s.tie_set for s in trace_a.steps] == [s.tie_set for s in trace_b.steps]
    for step_a, step_b in zip(trace_a.steps, trace_b.steps):
        assert step_a.loads.keys() == step_b.loads.keys()
        for c in step_a.loads:
            assert step_a.loads[c] == pytest.approx(step_b.loads[c], abs=TOL)
    assert trace_a.final_assignment.max_load == pytest.approx(
        trace_b.final_assignment.max_load, abs=TOL
    )


def _rescaled(f):
    return normalize([(name, 7.3 * c) for name, c in zip(f.item_names, f.raw_costs)], 7.3 * f.raw_limit)


def test_gpseq_invariant_under_currency_rescaling():
    for f in _raw_instances(40):
        inst, profile = f.to_model()
        scaled = _rescaled(f)
        for tie in ("lex", "cheapest", "most-approved"):
            _assert_same_run(gpseq(inst, profile, tie=tie), gpseq(scaled, profile, tie=tie))


def test_gpseq_invariant_under_voter_permutation():
    rng = random.Random(91)
    for f in _raw_instances(40):
        inst, profile = f.to_model()
        ballots = list(profile.ballots)
        rng.shuffle(ballots)
        shuffled = Profile(tuple(ballots))
        for tie in ("lex", "cheapest", "most-approved"):
            _assert_same_run(gpseq(inst, profile, tie=tie), gpseq(inst, shuffled, tie=tie))


def _transformed_pairs():
    """Each ``_raw_instances`` model next to its x7.3 currency rescaling
    and next to a voter permutation of it."""
    rng = random.Random(97)
    for seed, f in enumerate(_raw_instances(40)):
        inst, profile = f.to_model()
        ballots = list(profile.ballots)
        rng.shuffle(ballots)
        yield f"seed {seed} rescaled", (inst, profile), (_rescaled(f), profile)
        yield f"seed {seed} permuted", (inst, profile), (inst, Profile(tuple(ballots)))


def test_greedy_and_construct_invariant_under_rescaling_and_voter_permutation():
    for case, original, transformed in _transformed_pairs():
        for rule in (greedy_bjr_l, bpjr_construct):
            assert rule(*original).selected == rule(*transformed).selected, (case, rule.__name__)


def test_enumeration_invariant_under_currency_rescaling():
    for seed, f in enumerate(_raw_instances(40)):
        inst, _ = f.to_model()
        for exhaustive_only in (False, True):
            original = [b.selected for b in enumerate_feasible(inst, exhaustive_only)]
            scaled = [b.selected for b in enumerate_feasible(_rescaled(f), exhaustive_only)]
            assert original == scaled, (seed, exhaustive_only)


def test_axiom_verdicts_invariant_under_rescaling_and_voter_permutation():
    rng = random.Random(53)
    for case, (inst, profile), (other_inst, other_profile) in _transformed_pairs():
        feasible = enumerate_feasible(inst)
        budgets = [greedy_bjr_l(inst, profile), bpjr_construct(inst, profile), gpseq(inst, profile)[0]]
        budgets += rng.sample(feasible, min(5, len(feasible)))
        for budget in budgets:
            other_budget = Budget.of(other_inst, budget.selected)
            assert evaluate_axioms(inst, profile, budget) == evaluate_axioms(
                other_inst, other_profile, other_budget
            ), (case, sorted(budget.selected))


# ------------------------------------------------------------ greedy rule


def test_greedy_bjr_on_example_one(ex1):
    _, inst, profile = ex1
    budget = greedy_bjr_l(inst, profile)
    assert sorted(budget.selected) == [0, 2]  # c3 forced, then cheapest fill
    assert is_exhaustive(inst, budget)
    assert check_bjr_poly(inst, profile, budget, AxiomId("bjr", "l")).satisfied


def test_greedy_bjr_single_item():
    inst = normalize({"x": 1.0}, 5.0)
    profile = Profile.of([{0}, {0}, {0}])
    budget = greedy_bjr_l(inst, profile)
    assert sorted(budget.selected) == [0]
    assert is_exhaustive(inst, budget)


def test_greedy_bjr_properties_on_random_suite():
    for seed in range(80):
        inst, profile = suite_instance(seed)
        budget = greedy_bjr_l(inst, profile)
        assert is_feasible(inst, budget)
        assert is_exhaustive(inst, budget)
        assert check_bjr_poly(inst, profile, budget, AxiomId("bjr", "l")).satisfied, (
            f"seed {seed}"
        )


def test_greedy_bjr_scarce_units_picks_most_approved():
    # more unit items than the limit allows: the rule must cover greedily
    inst = Instance(("u1", "u2", "u3"), (1.0, 1.0, 1.0), 2.0)
    profile = Profile.of([{0}, {0}, {1}, {2}])
    budget = greedy_bjr_l(inst, profile)
    assert 0 in budget.selected  # u1 has the most unrepresented approvers
    assert len(budget.selected) == 2


def test_rules_stay_feasible_with_within_tolerance_unit_costs():
    # items that are unit-cost only within tolerance must not let the
    # accumulated surplus push a rule past the limit
    eps = 9e-10
    costs = (1.0,) + (1.0 + eps,) * 4
    inst = Instance(tuple(f"u{j}" for j in range(5)), costs, 5.0)
    profile = Profile.of([{i} for i in range(5)])
    for budget in (greedy_bjr_l(inst, profile), bpjr_construct(inst, profile)):
        assert is_feasible(inst, budget)


# ------------------------------------------------------ constructive rule


def test_bpjr_construct_on_example_one(ex1):
    _, inst, profile = ex1
    budget = bpjr_construct(inst, profile)
    assert sorted(budget.selected) == [0, 2]
    assert check_bpjr(inst, profile, budget, "l").satisfied


def test_bpjr_construct_single_voter_partition_shape():
    inst = normalize({"x1": 1.0, "x2": 2.0, "x3": 3.0}, 3.0)
    profile = Profile.of([{0, 1, 2}])
    budget = bpjr_construct(inst, profile)
    assert sorted(budget.selected) == [2]  # the weight-3 bundle with fewest items
    assert budget.total_cost == pytest.approx(3.0)


def test_bpjr_construct_empty_approvals_fill_only():
    inst = normalize({"x": 1.0, "y": 2.0}, 3.0)
    profile = Profile.of([set(), set()])
    budget = bpjr_construct(inst, profile)
    assert sorted(budget.selected) == [0, 1]
    assert is_exhaustive(inst, budget)


def test_bpjr_construct_properties_on_random_suite():
    for seed in range(80):
        inst, profile = suite_instance(seed)
        budget = bpjr_construct(inst, profile)
        assert is_feasible(inst, budget)
        assert is_exhaustive(inst, budget)
        assert check_bpjr(inst, profile, budget, "l").satisfied, f"seed {seed}"


def test_bpjr_construct_matches_the_definition_literal_reference():
    for seed in range(120):
        inst, profile = suite_instance(seed, max_items=8)
        assert bpjr_construct(inst, profile) == reference_bpjr_construct(inst, profile), f"seed {seed}"


@pytest.mark.parametrize(
    "names, costs, limit, ballots, expected",
    [
        # {a, d} weighs 3 + 1.5e-9, past limit + TOL, yet lies within TOL of
        # the top level 3 + 0.8e-9 and has the smallest index tuple there;
        # it must not keep the feasible {a, c} from being taken
        (("a", "d", "c", "b"), (1.0, 2 + 1.5e-9, 2 + 0.8e-9, 2 - 0.5e-9), 3.0,
         [{0, 1, 2, 3}] * 3, [0, 2]),
        # after {p}, the level 2 + 0.6e-9 also holds {y} at 2 + 1.4e-9, which
        # fits alone but not next to {p}; it must not keep {x} from being taken
        (("p", "y", "x", "z"), (3.0, 2 + 1.4e-9, 2 + 0.6e-9, 1.0), 5.0,
         [{0}] * 3 + [{1, 2}] * 2, [0, 2]),
    ],
    ids=["over-limit", "over-remainder"],
)
def test_bpjr_construct_takes_only_bundles_that_fit(names, costs, limit, ballots, expected):
    inst = Instance(names, costs, limit)
    profile = Profile.of(ballots)
    budget = bpjr_construct(inst, profile)
    assert sorted(budget.selected) == expected
    assert is_feasible(inst, budget)
    assert check_bpjr(inst, profile, budget, "l").satisfied

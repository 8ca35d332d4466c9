import random

import pytest

from probud.axioms import check_bjr_poly, check_bpjr, check_local_bpjr, evaluate_axioms
from probud.errors import InvalidProfile, NoApprover, ProbudError, TooLargeForExact
from probud.harness import GenSpec, generate, generate_file
from probud.model import TOL, AxiomId, Budget, Instance, Profile, is_exhaustive, is_feasible, normalize
from probud.oracle import certify_existence, enumerate_feasible
from probud.rules import TIE_POLICIES, bpjr_construct, gpseq, greedy_bjr_l, min_max_load

from oracles import load_cut_bound, load_lp, reference_bpjr_construct
from suites import BOUNDARY_SEEDS, boundary_instance, fitting_instance, suite_instance


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


def _wide_cost_instances(rng, count):
    """Instances with costs of 1 next to 1e6 or 1e8, drawn from ``rng``,
    with a limit that admits every item."""
    for _ in range(count):
        m = rng.randint(3, 8)
        dear = rng.choice((1e6, 1e8))
        cost = (1.0,) + tuple(rng.choice((1.0, rng.uniform(dear / 2, dear * 2))) for _ in range(m - 1))
        inst = Instance(tuple(f"c{j}" for j in range(m)), cost, sum(cost))
        blocs = [frozenset(c for c in range(m) if rng.random() < 0.5) for _ in range(3)]
        yield inst, Profile(tuple(rng.choice(blocs) | {rng.randrange(m)} for _ in range(rng.randint(3, 12))))


def test_min_max_load_finishes_and_carries_every_cost_on_wide_cost_ranges():
    # Costs of 1 next to 1e6 or 1e8 make flows end a rounding error short
    # of some cost, often with no set of larger ratio to move to; the
    # kernel must still finish, carry every cost and stay optimal.
    rng = random.Random(61)
    for inst, profile in _wide_cost_instances(rng, 200):
        selected = _approved_sample(inst, profile, rng)
        assignment = min_max_load(inst, profile, selected)
        assert assignment.max_load == pytest.approx(load_cut_bound(inst, profile, selected), rel=1e-12)
        assert _hall_ratio(inst, profile, assignment.tight) == pytest.approx(assignment.max_load, rel=1e-12)
        assert max(assignment.voter_load) == pytest.approx(assignment.max_load, rel=1e-12)
        for c in selected:
            carried = sum(share for (item, _), share in assignment.spread.items() if item == c)
            assert carried == pytest.approx(inst.cost[c], rel=1e-12)


def test_min_max_load_reroutes_a_cost_its_network_started_on_a_direct_path():
    # The flow starts by putting each item's cost straight onto its types,
    # in type order: a fills voter 0's type, so b, approved by voter 0
    # alone, is carried only once a's share moves back off that type and
    # onto voter 1's.
    inst = Instance(("a", "b"), (1.0, 1.0), 2.0)
    profile = Profile.of([{0, 1}, {0}])
    assignment = min_max_load(inst, profile, [0, 1])
    assert assignment.max_load == 1.0
    assert assignment.tight == frozenset({0, 1})
    for c in (0, 1):
        carried = sum(share for (item, _), share in assignment.spread.items() if item == c)
        assert carried == pytest.approx(inst.cost[c], abs=1e-12)
    assert assignment.spread == {(0, 1): 1.0, (1, 0): 1.0}


def test_min_max_load_reroutes_along_three_back_edges():
    # Every voter is a type of its own.  The direct shares put a on v0, b
    # on v3 and d on v2, leaving c, approved by v0 alone, uncarried and
    # only v1 with room: c's path takes v0 from a, a takes v3 from b, b
    # takes v2 from d, and d moves onto v1.  Each voter carrying exactly
    # one item is the only spread that reaches the optimum of 1.
    inst = Instance(("a", "b", "c", "d"), (1.0,) * 4, 4.0)
    profile = Profile.of([{0, 1, 2}, {3}, {1, 3}, {0, 1, 3}])
    assignment = min_max_load(inst, profile, range(4))
    assert assignment.max_load == 1.0
    assert assignment.tight == frozenset(range(4))
    assert assignment.spread == {(0, 3): 1.0, (1, 2): 1.0, (2, 0): 1.0, (3, 1): 1.0}


def _relabel_items(inst, profile, perm):
    """The instance and profile with item ``c`` renamed to ``perm[c]``:
    names, costs and ballots moved together."""
    names, cost = [None] * inst.num_items, [None] * inst.num_items
    for c, image in enumerate(perm):
        names[image], cost[image] = inst.names[c], inst.cost[c]
    ballots = tuple(frozenset(perm[c] for c in ballot) for ballot in profile.ballots)
    return Instance(tuple(names), tuple(cost), inst.limit), Profile(ballots)


def test_min_max_load_invariant_under_item_permutation():
    rng = random.Random(83)
    for seed in range(60):
        inst, profile = suite_instance(seed, max_voters=12, max_items=8)
        selected = _approved_sample(inst, profile, rng)
        if not selected:
            continue
        perm = list(range(inst.num_items))
        rng.shuffle(perm)
        relabeled, shuffled = _relabel_items(inst, profile, perm)
        original = min_max_load(inst, profile, selected)
        moved = min_max_load(relabeled, shuffled, [perm[c] for c in selected])
        assert moved.max_load == pytest.approx(original.max_load, rel=1e-12), seed
        back = [c for c in selected if perm[c] in moved.tight]
        assert len(back) == len(moved.tight)
        assert _hall_ratio(inst, profile, back) == pytest.approx(original.max_load, rel=1e-12), seed
        for c in selected:
            carried = sum(share for (item, _), share in moved.spread.items() if item == perm[c])
            assert carried == pytest.approx(inst.cost[c], rel=1e-12), (seed, c)


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


def test_gpseq_step_loads_equal_the_cut_bound_of_each_extension():
    wide = _wide_cost_instances(random.Random(67), 30)
    cases = [(f"suite {seed}", suite_instance(seed, max_voters=12, max_items=7)) for seed in range(40)]
    cases += [(f"groups {k}", case) for k, case in enumerate(_group_instances(30))]
    cases += [(f"wide {k}", case) for k, case in enumerate(wide)]
    for case, (inst, profile) in cases:
        for tie in ("lex", "cheapest", "most-approved"):
            _, trace = gpseq(inst, profile, tie=tie)
            before = set()
            for step in trace.steps:
                for c, load in step.loads.items():
                    expected = load_cut_bound(inst, profile, before | {c})
                    assert load == pytest.approx(expected, rel=1e-12), (case, tie, sorted(before), c)
                before.add(step.chosen)


def _flow_count_instances():
    rng = random.Random(113)
    for seed in range(12):
        yield fitting_instance(
            rng.uniform(0.3, 0.7),
            num_items=rng.randint(8, 12),
            num_voters=rng.randint(20, 60),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model=rng.choice(("impartial", "groups")),
            approval_prob=rng.uniform(0.15, 0.5),
            group_count=3,
            group_overlap=0.2,
            seed=seed,
        )


def test_gpseq_needs_no_more_flows_than_the_rebuilt_networks(monkeypatch):
    import probud.rules

    flows = []
    max_flow = probud.rules._max_flow
    monkeypatch.setattr(probud.rules, "_max_flow", lambda *args: flows.append(1) or max_flow(*args))
    calls = 0
    for inst, profile in _flow_count_instances():
        for tie in ("lex", "cheapest", "most-approved"):
            _, trace = gpseq(inst, profile, tie=tie)
            calls += sum(len(step.loads) for step in trace.steps) + 1
    assert calls == 1422
    # The bound is the count of a kernel that built a fresh network for each
    # Dinkelbach step (1521 max-flows here, 1.07 a kernel call): keeping the
    # flow while raising sink capacities in place must not need more.
    assert len(flows) <= 1521


def test_gpseq_final_assignment_is_an_optimal_spread_of_its_selection():
    # the spread is read from the last pick's flow, not solved again
    rng = random.Random(127)
    for seed in range(60):
        inst, profile = fitting_instance(
            rng.uniform(0.3, 0.8),
            num_items=rng.randint(2, 12),
            num_voters=rng.randint(1, 50),
            cost_model=rng.choice(("unit", "uniform", "heavy-tail")),
            cost_high=rng.uniform(1.5, 5.0),
            ballot_model=rng.choice(("impartial", "groups")),
            approval_prob=rng.uniform(0.1, 0.6),
            group_overlap=rng.uniform(0.0, 0.3),
            seed=seed,
        )
        for tie in ("lex", "cheapest", "most-approved"):
            budget, trace = gpseq(inst, profile, tie=tie)
            final = trace.final_assignment
            solved = min_max_load(inst, profile, budget.selected)
            assert final.max_load == pytest.approx(solved.max_load, abs=TOL), (seed, tie)
            assert final.tight == solved.tight, (seed, tie)
            carried = {c: 0.0 for c in budget.selected}
            for (c, v), share in final.spread.items():
                assert c in profile.ballots[v]
                carried[c] += share
            for c in budget.selected:
                assert carried[c] == pytest.approx(inst.cost[c], abs=1e-9), (seed, tie, c)
            assert max(final.voter_load) <= final.max_load + 1e-9, (seed, tie)


def test_gpseq_rejects_an_unknown_tie_policy(ex2):
    _, inst, profile = ex2
    with pytest.raises(ProbudError):
        gpseq(inst, profile, tie="nope")


def test_gpseq_rejects_empty_profile(ex1):
    _, inst, _ = ex1
    with pytest.raises(InvalidProfile):
        gpseq(inst, Profile(()))


@pytest.mark.parametrize("call, error, message", [
    (lambda: greedy_bjr_l(normalize({"a": 1.0}, 1.0), Profile(())), InvalidProfile, "at least one voter"),
    (lambda: bpjr_construct(normalize({"a": 1.0}, 1.0), Profile(())), InvalidProfile, "at least one voter"),
    (lambda: bpjr_construct(Instance(tuple(f"c{j}" for j in range(26)), (1.0,) * 26, 1.0), Profile.of([{0}])),
     TooLargeForExact, "at most 25 items, got 26"),
], ids=["greedy-no-voters", "construct-no-voters", "construct-26-items"])
def test_rules_refuse_input_they_cannot_serve(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


def _relabelled_pairs():
    """Each ``_raw_instances`` model next to a seeded permutation of its
    items (names, costs and ballots remapped), with the map from each
    original item index to its new one.  The rules are left out: their
    index tie-breaks may pick differently after relabelling."""
    rng = random.Random(61)
    for seed, f in enumerate(_raw_instances(40)):
        inst, profile = f.to_model()
        order = list(range(inst.num_items))
        rng.shuffle(order)  # order[new] is the original index
        image = {old: new for new, old in enumerate(order)}
        names = tuple(inst.names[old] for old in order)
        relabelled = Instance(names, tuple(inst.cost[old] for old in order), inst.limit)
        ballots = tuple(frozenset(image[i] for i in ballot) for ballot in profile.ballots)
        yield seed, image, (inst, profile), (relabelled, Profile(ballots))


def test_enumeration_and_axiom_verdicts_invariant_under_item_relabelling():
    rng = random.Random(67)
    violations = 0
    for seed, image, (inst, profile), (other_inst, other_profile) in _relabelled_pairs():
        for exhaustive_only in (False, True):
            original = enumerate_feasible(inst, exhaustive_only)
            relabelled = enumerate_feasible(other_inst, exhaustive_only)
            mapped = {frozenset(image[i] for i in b.selected) for b in original}
            assert len(original) == len(relabelled), (seed, exhaustive_only)
            assert mapped == {b.selected for b in relabelled}, (seed, exhaustive_only)
        feasible = enumerate_feasible(inst)
        for budget in rng.sample(feasible, min(6, len(feasible))):
            other_budget = Budget.of(other_inst, (image[i] for i in budget.selected))
            verdicts = evaluate_axioms(inst, profile, budget)
            other_verdicts = evaluate_axioms(other_inst, other_profile, other_budget)
            assert verdicts == other_verdicts, (seed, sorted(budget.selected))
            violations += list(verdicts.values()).count(False)
    assert violations > 600


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
    cases = [(Instance(tuple(f"u{j}" for j in range(5)), costs, 5.0), Profile.of([{i} for i in range(5)]))]
    # nor may costs summed in pick order: {0, 1, 2} sums to 1.0e-9 and a
    # few ulps over the limit in ascending index order, a few ulps less
    # in the order gpseq and greedy_bjr_l picked them
    cases.append((Instance(("a", "b", "c"), (3.735145558110402, 3.0268615869567204, 1.0), 7.7620071440671214),
                  Profile.of([{0, 1}, {1, 2}, {0}, {0, 1}, {1}])))
    cases += [boundary_instance(seed)[:2] for seed in BOUNDARY_SEEDS]
    bjr_l = AxiomId("bjr", "l")
    for inst, profile in cases:
        greedy = greedy_bjr_l(inst, profile)
        budgets = [greedy, bpjr_construct(inst, profile)]
        budgets += [gpseq(inst, profile, tie, fill)[0] for tie in TIE_POLICIES for fill in (False, True)]
        for budget in budgets:
            assert is_feasible(inst, budget), (inst, sorted(budget.selected))
        # a limit from (n/k)(1 - TOL) up to n/k - TOL lets a group of k of n
        # voters claim a unit that no feasible budget has room for
        # (boundary seed 104)
        assert (check_bjr_poly(inst, profile, greedy, bjr_l).satisfied
                or not certify_existence(inst, profile, bjr_l).exists), inst


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


@pytest.mark.parametrize(
    "costs, limit, ballots, expected",
    [
        # level 1 + 1.3e-9 reaches down to {1} at 1 + 0.6e-9, which has
        # the smaller index tuple; taking {2} would leave no room for {0}
        ((1.0, 1 + 0.6e-9, 1 + 1.3e-9), 2.0, [{1, 2}], [0, 1]),
        ((2 + 0.3e-9, 1.0, 2 + 1.3e-9), 3.0, [{0, 2}], [0, 1]),
        ((1.0, 1 + 0.7e-9, 1.0, 1.0, 1 + 1.3e-9), 4.0, [{0, 2, 4}, {0, 2}, {2}, {0, 1, 4}, {1}], [0, 1, 2, 3]),
        # 1, 1 + TOL/2 and 2 - TOL/3: distinct weights within TOL of a level
        ((1.0, 1 + 0.5e-9, 2 - 0.3e-9), 2.0, [{0, 1}, {1, 2}, {2}], [0, 1]),
        ((1.0, 1 + 0.6e-9, 1 + 1.2e-9, 1 + 1.8e-9), 2.0, [{0, 3}, {1, 2}, {2, 3}, {3}], [3]),
        # construct keeps only the bundles that can qualify, yet the levels
        # chain the weights of the others too: nobody approves {2}, whose
        # weight 1 starts the chain; a chain over the supported bundles
        # alone starts at 1 + 0.6e-9, whose window reaches {0} and whose
        # threshold one supporter meets
        ((1 + 1.2e-9, 1 + 0.6e-9, 1.0), 2.0, [set(), {0, 1}], [1, 2]),
        ((1.0, 1 + 0.9e-9, 2.0, 1 + 1.2e-9, 1 + 0.3e-9, 2 + 1.3e-9), 2.0,
         [{0, 2, 4}, {2, 5}, {1, 2, 3, 4}, {0, 3, 4, 5}, {3, 5}, {1, 2, 5}], [0, 4]),
        ((1.0, 2 + 0.9e-9, 2 + 0.6e-9), 2.0, [{0, 1, 2}, {0, 1}, {1}], [1]),
        ((1.0, 2 + 0.6e-9, 2 + 1.2e-9), 3.0, [set(), {1, 2}, {2}], [2]),
    ],
    ids=["window-below-level", "window-below-pair-level", "five-items", "tol-halves", "tol-chain",
         "unsupported-chain-start", "unsupported-six-items", "unsupported-pair-levels", "unsupported-pair"],
)
def test_bpjr_construct_matches_the_reference_on_tolerance_chained_costs(costs, limit, ballots, expected):
    # a level's window spans TOL either side of it, and the levels chain
    # every feasible weight that lies within TOL of another
    inst = Instance(tuple(f"c{i}" for i in range(len(costs))), costs, limit)
    profile = Profile.of(ballots)
    budget = bpjr_construct(inst, profile)
    assert budget == reference_bpjr_construct(inst, profile)
    assert sorted(budget.selected) == expected


@pytest.mark.parametrize(
    "costs, limit, ballots, expected",
    [
        # the pair sums from 2 + 0.6e-9 to 2 + 3.6e-9 sit 0.6e-9 apart, so
        # the levels 2 + 0.6e-9, 2 + 1.8e-9 and 2 + 3.0e-9 chain inside one
        # run; the level near {0, 4} is found from the run's first sum
        ((1.0, 1.0000000006, 1.0000000012, 1.0000000024, 1.0000000036, 1.0000000042), 2.000000003,
         [{0, 1, 3, 4}], [0, 3]),
        # a run from 2.0 to 2 + 4.2e-9 holds four levels; the walk back
        # from the bundle {3, 4} crosses five sums to reach 2.0
        ((1.0, 1.0000000006, 1.0000000012, 1.0000000018, 1.0000000024, 2.0), 2.0000000048,
         [{0, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}], [2, 3]),
    ],
    ids=["run-of-pairs", "run-from-two"],
)
def test_bpjr_construct_chains_levels_back_through_a_dense_run(costs, limit, ballots, expected):
    # the levels near a kept bundle are chained from the last sum more than
    # TOL above the one before it; a chain started nearer the bundle, at a
    # sum that is not a level, visits levels that do not exist
    inst = Instance(tuple(f"c{i}" for i in range(len(costs))), costs, limit)
    profile = Profile.of(ballots)
    budget = bpjr_construct(inst, profile)
    assert budget == reference_bpjr_construct(inst, profile)
    assert sorted(budget.selected) == expected


def test_bpjr_construct_matches_the_reference_on_seeded_instances():
    # Each generated instance, then again with its costs and limit snapped
    # to halves and its costs raised by a few tenths of TOL, so that many
    # weights lie within TOL of each other and the levels chain them.
    for seed in range(300):
        inst, profile = suite_instance(10_000 + seed, max_voters=12, max_items=10)
        assert bpjr_construct(inst, profile) == reference_bpjr_construct(inst, profile), f"seed {seed}"
        rng = random.Random(seed)
        costs = [max(1.0, round(2 * c) / 2) + rng.randint(0, 3) * 0.4e-9 for c in inst.cost]
        costs[inst.cost.index(1.0)] = 1.0
        chained = Instance(inst.names, tuple(costs), max(1.0, round(2 * inst.limit) / 2))
        assert bpjr_construct(chained, profile) == reference_bpjr_construct(chained, profile), f"seed {seed}"

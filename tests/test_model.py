import math
import random

import pytest
from hypothesis import given, strategies as st

from probud.axioms import check_axiom, evaluate_axioms
from probud.errors import InvalidBudget, InvalidCost, InvalidLimit, InvalidProfile
from probud.model import (
    ALL_AXIOMS,
    TOL,
    AxiomId,
    Budget,
    Instance,
    Profile,
    is_exhaustive,
    is_feasible,
    normalize,
)
from probud.rules import bpjr_construct, gpseq, greedy_bjr_l, min_max_load

from suites import suite_instance


def test_normalize_already_normalized():
    inst = normalize({"a": 2.0, "b": 2.0, "c": 1.0}, 3.0)
    assert inst.cost == (2.0, 2.0, 1.0)
    assert inst.limit == 3.0
    assert inst.names == ("a", "b", "c")


def test_normalize_zero_limit():
    inst = normalize({"a": 1.0}, 0.0)
    assert inst.limit == 0.0
    assert is_feasible(inst, Budget.of(inst, []))
    assert not is_feasible(inst, Budget.of(inst, [0]))


def test_normalize_rescales():
    inst = normalize({"a": 4.0, "b": 6.0}, 10.0)
    assert inst.cost == pytest.approx((1.0, 1.5), abs=TOL)
    assert inst.limit == pytest.approx(2.5, abs=TOL)


def test_normalize_rejects_nonpositive_cost():
    with pytest.raises(InvalidCost):
        normalize({"a": 0.0}, 1.0)
    with pytest.raises(InvalidCost):
        normalize({"a": -2.0, "b": 1.0}, 1.0)


def test_normalize_rejects_negative_limit():
    with pytest.raises(InvalidLimit):
        normalize({"a": 1.0}, -0.5)


@pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf])
def test_normalize_rejects_non_finite_limit(limit):
    with pytest.raises(InvalidLimit):
        normalize({"a": 1.0, "b": 2.0}, limit)


@pytest.mark.parametrize("cost", [math.nan, math.inf])
def test_normalize_rejects_non_finite_cost(cost):
    with pytest.raises(InvalidCost):
        normalize({"a": 1.0, "b": cost}, 3.0)


def test_normalize_rejects_overflow():
    # dividing by a tiny cheapest cost pushes the limit or a cost to inf
    with pytest.raises(InvalidLimit):
        normalize({"a": 1e-300, "b": 1.0, "c": 2.0}, 1e300)
    with pytest.raises(InvalidCost):
        normalize({"a": 1e-300, "b": 1e10}, 1.0)


def test_instance_rejects_non_finite_numbers():
    for limit in (math.nan, math.inf):
        with pytest.raises(InvalidLimit):
            Instance(("a",), (1.0,), limit)
    with pytest.raises(InvalidCost):
        Instance(("a", "b"), (1.0, math.inf), 1.0)
    with pytest.raises(InvalidCost):
        Instance(("a", "b"), (1.0, math.nan), 1.0)
    with pytest.raises(InvalidCost):
        Instance(("a", "b", "c"), (1.0, 1e308, 1e308), 1.0)  # total overflows


def test_instance_requires_normalized_costs():
    with pytest.raises(InvalidCost):
        Instance(("a",), (2.0,), 1.0)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1000.0), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=5000.0),
)
def test_normalize_idempotent(costs, limit):
    first = normalize([(f"i{k}", c) for k, c in enumerate(costs)], limit)
    second = normalize(list(zip(first.names, first.cost)), first.limit)
    assert second.names == first.names
    assert second.limit == pytest.approx(first.limit, abs=TOL)
    for a, b in zip(first.cost, second.cost):
        assert b == pytest.approx(a, abs=TOL)


def test_is_feasible_examples(ex1, ex2):
    _, inst1, _ = ex1
    assert not is_feasible(inst1, Budget.of(inst1, [0, 1]))  # 2 + 2 > 3
    assert is_feasible(inst1, Budget.of(inst1, []))
    _, inst2, _ = ex2
    assert is_feasible(inst2, Budget.of(inst2, [1, 2]))  # 1.5 + 1.5 = 3


def test_is_feasible_rejects_unknown_item(ex1):
    _, inst, _ = ex1
    with pytest.raises(InvalidBudget):
        is_feasible(inst, Budget(frozenset([7]), 1.0))


NOT_INDICES = pytest.mark.parametrize("index", [0.5, 1.0, "a", True])


@NOT_INDICES
def test_a_ballot_naming_a_non_integer_index_is_rejected(index):
    inst = Instance(("a", "b"), (1.0, 1.0), 2.0)
    profile = Profile.of([[index], [0]])
    budget = Budget.of(inst, [0])
    calls = [
        lambda: gpseq(inst, profile),
        lambda: greedy_bjr_l(inst, profile),
        lambda: bpjr_construct(inst, profile),
        lambda: min_max_load(inst, profile, [0]),
        lambda: check_axiom(inst, profile, budget, AxiomId("bjr", "l")),
        lambda: evaluate_axioms(inst, profile, budget),
    ]
    for call in calls:
        with pytest.raises(InvalidProfile, match="non-integer"):
            call()


@NOT_INDICES
def test_a_budget_naming_a_non_integer_index_is_rejected(index):
    inst = Instance(("a", "b"), (1.0, 1.0), 2.0)
    with pytest.raises(InvalidBudget, match="not an integer"):
        Budget.of(inst, [index])
    with pytest.raises(InvalidBudget, match="not an integer"):
        is_feasible(inst, Budget(frozenset([index]), 1.0))
    with pytest.raises(InvalidBudget, match="not an integer"):
        min_max_load(inst, Profile.of([[0, 1]]), [index])


@pytest.mark.parametrize("total", [0.0, 2.0, 1.0 + 1e-6, math.nan])
def test_budget_total_must_match_its_items(total):
    inst = Instance(("a", "b"), (1.0, 1.0), 2.0)
    assert is_feasible(inst, Budget(frozenset({0}), 1.0 + 1e-12))
    with pytest.raises(InvalidBudget):
        is_feasible(inst, Budget(frozenset({0}), total))


def test_is_exhaustive_examples(ex1, ex2):
    _, inst2, _ = ex2
    assert is_exhaustive(inst2, Budget.of(inst2, [1, 2]))
    _, inst1, _ = ex1
    assert not is_exhaustive(inst1, Budget.of(inst1, [0]))  # c3 still fits
    zero = normalize({"a": 1.0}, 0.0)
    assert is_exhaustive(zero, Budget.of(zero, []))


def test_is_exhaustive_requires_feasible(ex1):
    _, inst, _ = ex1
    with pytest.raises(InvalidBudget):
        is_exhaustive(inst, Budget.of(inst, [0, 1]))


def test_unit_cost_exhaustive_means_full_or_limit():
    # with unit costs and integer limit k, exhaustive == |W| = min(k, m)
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(1, 6)
        k = rng.randint(0, 8)
        inst = Instance(tuple(f"c{j}" for j in range(m)), (1.0,) * m, float(k))
        target = min(k, m)
        for _ in range(5):
            size = rng.randint(0, min(k, m))
            budget = Budget.of(inst, rng.sample(range(m), size))
            assert is_exhaustive(inst, budget) == (size == target)


def test_feasible_non_exhaustive_budgets_are_extendable():
    rng = random.Random(11)
    for seed in range(40):
        inst, _ = suite_instance(seed)
        items = list(range(inst.num_items))
        rng.shuffle(items)
        chosen, total = set(), 0.0
        for c in items:
            if rng.random() < 0.5 and total + inst.cost[c] <= inst.limit + TOL:
                chosen.add(c)
                total += inst.cost[c]
        budget = Budget.of(inst, chosen)
        if not is_exhaustive(inst, budget):
            assert any(
                c not in chosen and total + inst.cost[c] <= inst.limit + TOL
                for c in range(inst.num_items)
            )


def test_axiom_id_parse_and_str():
    for axiom in ALL_AXIOMS:
        assert AxiomId.parse(str(axiom)) == axiom
    assert str(AxiomId("strong-bpjr", "w")) == "strong-bpjr-w"
    with pytest.raises(ValueError):
        AxiomId("pjr", "l")
    with pytest.raises(ValueError):
        AxiomId.parse("bjr")


def test_all_axioms_has_the_ten_combinations():
    assert len(ALL_AXIOMS) == 10
    assert len(set(ALL_AXIOMS)) == 10


def test_profile_of_freezes_ballots():
    profile = Profile.of([[0, 1], [], [1]])
    assert profile.num_voters == 3
    assert profile.ballots[1] == frozenset()

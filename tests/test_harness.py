import math

import pytest
from hypothesis import given, strategies as st

from probud.errors import DuplicateItem, InvalidCost, InvalidProfile, InvalidSpec, ParseError
from probud.harness import (
    GenSpec,
    InstanceFile,
    generate,
    generate_file,
    parse_instance,
    parse_instance_file,
    serialize_instance_file,
)
from probud.model import AxiomId
from probud.oracle import certify_existence
from probud.rules import gpseq

from conftest import FIXTURES


def test_parse_example_one_fixture():
    text = (FIXTURES / "ex1.pb").read_text(encoding="utf-8")
    f = parse_instance_file(text)
    assert f.name == "ex1"
    assert f.item_ids == ("c1", "c2", "c3")
    assert f.raw_costs == (2.0, 2.0, 1.0)
    assert f.raw_limit == 3.0
    assert f.voter_ids == ("1", "2", "3", "4")
    inst, profile = f.to_model()
    assert inst.cost == (2.0, 2.0, 1.0)
    assert inst.limit == 3.0
    assert profile.num_voters == 4
    assert profile.ballots[0] == frozenset({0})


def test_parse_empty_ballots_section():
    text = "[meta]\nlimit = 2\n[items]\na, a, 1\n[ballots]\n"
    inst, profile = parse_instance(text)
    assert profile.num_voters == 0
    with pytest.raises(InvalidProfile):
        gpseq(inst, profile)


def test_parse_zero_cost_surfaces_invalid_cost():
    text = "[meta]\nlimit = 2\n[items]\na, a, 0\n[ballots]\n1, a\n"
    f = parse_instance_file(text)  # parsing itself succeeds
    with pytest.raises(InvalidCost):
        f.to_model()


def test_parse_errors_carry_line_numbers():
    text = "[meta]\nlimit = 2\n[items]\na, a\n"
    with pytest.raises(ParseError) as err:
        parse_instance_file(text)
    assert err.value.line == 4

    text = "[meta]\nlimit = 2\n[items]\na, a, 1\n[ballots]\n1, zzz\n"
    with pytest.raises(ParseError) as err:
        parse_instance_file(text)
    assert err.value.line == 6


def test_parse_duplicate_item_id():
    text = "[meta]\nlimit = 2\n[items]\na, a, 1\na, other, 2\n[ballots]\n"
    with pytest.raises(DuplicateItem):
        parse_instance_file(text)


def test_parse_rejects_wrong_counts():
    text = "[meta]\nlimit = 2\nm = 5\n[items]\na, a, 1\n[ballots]\n"
    with pytest.raises(ParseError):
        parse_instance_file(text)


@pytest.mark.parametrize("name", ["ex1.pb", "ex2.pb", "ex3.pb"])
def test_round_trip_is_identity(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    parsed = parse_instance_file(text)
    canonical = serialize_instance_file(parsed)
    assert parse_instance_file(canonical) == parsed
    # canonical form is a fixed point
    assert serialize_instance_file(parse_instance_file(canonical)) == canonical


def test_serializer_preserves_fractional_costs():
    for spec in (
        GenSpec(num_items=4, num_voters=3, cost_model="uniform", seed=9),
        # unit costs: the raw limit is 7.000000000000001, one ulp above 7
        GenSpec(num_items=25, num_voters=3, cost_model="unit", limit_fraction=0.28),
    ):
        f = generate_file(spec)
        again = parse_instance_file(serialize_instance_file(f))
        assert again.raw_costs == f.raw_costs
        assert again.raw_limit == f.raw_limit


_near_integers = st.integers(min_value=1, max_value=10**6).flatmap(
    lambda k: st.sampled_from((float(k), math.nextafter(k, 0.0), math.nextafter(k, math.inf)))
)
_positive_numbers = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), _near_integers
)


@given(st.lists(_positive_numbers, min_size=1, max_size=6), _positive_numbers)
def test_round_trip_preserves_every_finite_positive_number(costs, limit):
    ids = tuple(f"c{j + 1}" for j in range(len(costs)))
    f = InstanceFile(
        name="fuzz",
        item_ids=ids,
        item_names=ids,
        raw_costs=tuple(costs),
        raw_limit=limit,
        voter_ids=("1",),
        ballots=(frozenset({0}),),
    )
    canonical = serialize_instance_file(f)
    assert parse_instance_file(canonical) == f
    assert serialize_instance_file(parse_instance_file(canonical)) == canonical


def test_round_trip_holds_across_generator_models():
    for seed in range(20):
        for cost_model in ("unit", "uniform", "heavy-tail"):
            for ballot_model in ("impartial", "groups"):
                f = generate_file(
                    GenSpec(
                        num_items=2 + seed % 5,
                        num_voters=1 + seed % 5,
                        cost_model=cost_model,
                        ballot_model=ballot_model,
                        group_count=1 + seed % 3,
                        group_overlap=0.2,
                        limit_fraction=0.8,
                        seed=seed,
                    )
                )
                assert parse_instance_file(serialize_instance_file(f)) == f


def test_generate_is_deterministic():
    spec = GenSpec(
        num_items=6,
        num_voters=9,
        cost_model="unit",
        ballot_model="groups",
        group_count=3,
        group_overlap=0.0,
        limit_fraction=0.5,
        seed=1,
    )
    first = generate(spec)
    second = generate(spec)
    assert first == second


def test_group_blocs_force_shared_items_into_bjr_budgets():
    # three disjoint blocs of three voters, each sharing one distinct unit
    # item; with the limit covering everything, the only exhaustive budget
    # contains all three shared items
    spec = GenSpec(
        num_items=3,
        num_voters=9,
        cost_model="unit",
        ballot_model="groups",
        group_count=3,
        group_overlap=0.0,
        limit_fraction=1.0,
        seed=4,
    )
    inst, profile = generate(spec)
    report = certify_existence(inst, profile, AxiomId("bjr", "l"), exhaustive_only=True)
    assert report.exists
    for budget in report.satisfying_budgets:
        assert budget.selected == frozenset({0, 1, 2})


def test_unit_cost_model_needs_no_rescaling():
    inst, _ = generate(GenSpec(num_items=5, num_voters=4, cost_model="unit", seed=2))
    assert inst.cost == (1.0,) * 5


def test_genspec_validation():
    with pytest.raises(InvalidSpec):
        GenSpec(num_items=0, num_voters=3)
    with pytest.raises(InvalidSpec):
        GenSpec(num_items=3, num_voters=3, approval_prob=1.5)
    with pytest.raises(InvalidSpec):
        GenSpec(num_items=3, num_voters=3, cost_model="exotic")
    with pytest.raises(InvalidSpec):
        GenSpec.from_dict({"m": 3, "n": 3, "weird": 1})


@pytest.mark.parametrize("key, value", [
    ("m", "5"), ("m", 5.5), ("n", True), ("group_count", 2.0), ("seed", None),
    ("approval_prob", "0.3"), ("cost_high", None), ("group_overlap", False), ("limit_fraction", [0.5]),
])
def test_genspec_rejects_a_field_of_the_wrong_type(key, value):
    with pytest.raises(InvalidSpec):
        GenSpec.from_dict({"m": 3, "n": 3, key: value})


def test_genspec_rejects_impossible_limit():
    with pytest.raises(InvalidSpec):
        generate(GenSpec(num_items=4, num_voters=3, cost_model="unit", limit_fraction=0.01))


def test_genspec_from_json_aliases():
    spec = GenSpec.from_json('{"m": 4, "n": 6, "cost_model": "unit", "seed": 3}')
    assert spec.num_items == 4
    assert spec.num_voters == 6
    # an integer is a number: float fields take it as it is
    assert GenSpec.from_json('{"m": 4, "n": 6, "cost_high": 4, "limit_fraction": 1}').cost_high == 4

import json
from pathlib import Path

import pytest

from probud import axioms, cli, harness, oracle, rules
from probud._bits import _tail_start
from probud.cli import main
from probud.model import TOL, Budget, Instance, fit_bound, is_exhaustive, is_feasible

from conftest import FIXTURES, load_fixture
from oracles import powerset
from suites import boundary_instance

EX1 = str(FIXTURES / "ex1.pb")
EX2 = str(FIXTURES / "ex2.pb")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_human_output(capsys):
    code, out = run(capsys, "solve", "--rule", "gpseq", EX2)
    assert code == 0
    assert "budget: {b, c}" in out
    assert "0.375" in out and "0.75" in out


def test_solve_json_matches_library_byte_for_byte(capsys):
    code, out = run(capsys, "solve", "--rule", "gpseq", EX2, "--json")
    assert code == 0
    f = load_fixture("ex2.pb")
    inst, profile = f.to_model()
    budget, trace = rules.gpseq(inst, profile, tie="lex")
    expected = {
        "command": "solve",
        "file": EX2,
        "rule": "gpseq",
        "tie": "lex",
        "fill_unapproved": False,
        "budget": [f.item_ids[i] for i in sorted(budget.selected)],
        "total_cost": budget.total_cost,
        "feasible": True,
        "exhaustive": True,
        "max_loads": [step.loads[step.chosen] for step in trace.steps],
        "filled": [],
        "steps": None,
    }
    assert out == json.dumps(expected) + "\n"


def test_check_violated_exit_code_and_witness(capsys):
    code, out = run(capsys, "check", "--axiom", "strong-bjr-l", "--budget", "c1,c3", EX1)
    assert code == 1
    assert "VIOLATED" in out
    assert "{3, 4}" in out


def test_check_json_matches_library(capsys):
    code, out = run(capsys, "check", "--axiom", "bpjr-w", "--budget", "b,c", EX2, "--json")
    assert code == 1
    f = load_fixture("ex2.pb")
    inst, profile = f.to_model()
    budget = Budget.of(inst, [1, 2])
    report = axioms.check_bpjr(inst, profile, budget, "w")
    w = report.witness
    expected = {
        "command": "check",
        "file": EX2,
        "axiom": "bpjr-w",
        "budget": ["b", "c"],
        "satisfied": False,
        "method": "bruteForce",
        "witness_voters": [f.voter_ids[i] for i in sorted(w.voters)],
        "witness_level": w.level,
        "witness_common_items": [f.item_ids[i] for i in sorted(w.common_items)],
        "witness_bundle": [f.item_ids[i] for i in sorted(w.witness_bundle)],
        "witness_represented_weight": w.represented_weight,
        "witness_required_weight": w.required_weight,
    }
    assert out == json.dumps(expected) + "\n"


def test_check_satisfied_exit_zero(capsys):
    code, out = run(capsys, "check", "--axiom", "bjr-l", "--budget", "c1,c3", EX1)
    assert code == 0
    assert "satisfied" in out


def test_check_empty_budget(capsys):
    code, _ = run(capsys, "check", "--axiom", "bjr-l", "--budget", "", EX1)
    assert code == 0  # no unit-cost item is shared by a large-enough group


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--exhaustive", EX1, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 2
    assert record["budgets"] == [["c1", "c3"], ["c2", "c3"]]


@pytest.fixture(scope="module")
def m14_file(tmp_path_factory):
    spec = harness.GenSpec(num_items=14, num_voters=5, cost_model="uniform", limit_fraction=0.4, seed=5)
    path = tmp_path_factory.mktemp("enum") / "m14.pb"
    path.write_text(harness.serialize_instance_file(harness.generate_file(spec)), encoding="utf-8")
    return str(path)


#: Item ids the instance format admits but JSON escapes: a quote, a
#: backslash, non-ASCII text and text that reads like an escape.
ESCAPED_ITEMS = ('q"uote', "back\\slash", "caf\u00e9", "\u65e5\u672c", "tab\\t\\u00e9", "plain")


@pytest.fixture(scope="module")
def escaped_file(tmp_path_factory):
    costs = (1, 2, 1.5, 2.5, 3, 1)
    text = "\n".join([
        "[meta]", "name = escapes", f"m = {len(costs)}", "n = 3", "limit = 7", "[items]",
        *(f"{item}, item{k}, {cost}" for k, (item, cost) in enumerate(zip(ESCAPED_ITEMS, costs))),
        "[ballots]", f"v1, {ESCAPED_ITEMS[0]}, {ESCAPED_ITEMS[2]}", f"v2, {ESCAPED_ITEMS[1]}, {ESCAPED_ITEMS[3]}",
        "v3, plain", "",
    ])
    path = tmp_path_factory.mktemp("enum") / "escapes.pb"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _enumerate_case(which, m14_file, escaped_file):
    """The path, parsed file and instance of one enumerate test case."""
    path = {"ex1": EX1, "ex2": EX2, "ex3": str(FIXTURES / "ex3.pb"), "m14": m14_file, "escaped": escaped_file}[which]
    f = harness.parse_instance_file(Path(path).read_text(encoding="utf-8"))
    inst, _ = f.to_model()
    return path, f, inst


def _assert_same_text(out, want):
    if out != want:  # pytest's own diff of two long one-line strings runs for minutes
        at = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b), min(len(out), len(want)))
        pytest.fail(f"output differs at character {at}: {out[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")


@pytest.mark.parametrize("exhaustive", [False, True], ids=["feasible", "exhaustive"])
@pytest.mark.parametrize("which", ["ex1", "ex2", "m14", "ex3", "escaped"])
def test_enumerate_json_matches_library_byte_for_byte(capsys, m14_file, escaped_file, which, exhaustive):
    path, f, inst = _enumerate_case(which, m14_file, escaped_file)
    code, out = run(capsys, "enumerate", path, "--json", *(["--exhaustive"] if exhaustive else []))
    assert code == 0
    budgets = oracle.enumerate_feasible(inst, exhaustive_only=exhaustive)
    expected = {
        "command": "enumerate",
        "file": path,
        "exhaustive_only": exhaustive,
        "count": len(budgets),
        "budgets": [[f.item_ids[i] for i in sorted(b.selected)] for b in budgets],
    }
    _assert_same_text(out, json.dumps(expected) + "\n")


@pytest.mark.parametrize("exhaustive", [False, True], ids=["feasible", "exhaustive"])
@pytest.mark.parametrize("which", ["ex1", "ex2", "m14", "ex3", "escaped"])
def test_enumerate_human_matches_library_line_for_line(capsys, m14_file, escaped_file, which, exhaustive):
    path, f, inst = _enumerate_case(which, m14_file, escaped_file)
    code, out = run(capsys, "enumerate", path, *(["--exhaustive"] if exhaustive else []))
    assert code == 0
    budgets = oracle.enumerate_feasible(inst, exhaustive_only=exhaustive)
    lines = [f"{'exhaustive ' if exhaustive else ''}feasible budgets: {len(budgets)}"]
    lines += ["  {" + ", ".join(f.item_ids[i] for i in sorted(b.selected)) + "}" for b in budgets]
    _assert_same_text(out, "\n".join(lines) + "\n")


def test_enumerate_human_output(capsys):
    code, out = run(capsys, "enumerate", EX1)
    assert code == 0
    assert out == (
        "feasible budgets: 6\n"
        "  {}\n"
        "  {c1}\n"
        "  {c1, c3}\n"
        "  {c2}\n"
        "  {c2, c3}\n"
        "  {c3}\n"
    )
    code, out = run(capsys, "enumerate", "--exhaustive", EX1)
    assert code == 0
    assert out == "exhaustive feasible budgets: 2\n  {c1, c3}\n  {c2, c3}\n"


def _write_instance(inst: Instance, path) -> str:
    """An instance file for ``inst`` (its cheapest cost is 1, so it is
    its own normalization), with one voter approving nothing."""
    f = harness.InstanceFile("walk", inst.names, inst.names, inst.cost, inst.limit, ("v1",), (frozenset(),))
    path.write_text(harness.serialize_instance_file(f), encoding="utf-8")
    assert harness.parse_instance_file(path.read_text(encoding="utf-8")).to_model()[0] == inst
    return str(path)


def _tail_size(inst: Instance) -> int:
    return inst.num_items - _tail_start(inst.cost, fit_bound(inst.limit))


def _assert_enumeration_matches_the_powerset(inst: Instance, path: str, capsys) -> None:
    """The library's flattened walk, ``enumerate --json`` and human
    ``enumerate``, each with and without ``--exhaustive``, against the
    powerset in lexicographic order filtered by the model's own
    ``is_feasible`` and ``is_exhaustive``."""
    feasible = [
        budget for budget in (Budget.of(inst, items) for items in sorted(powerset(range(inst.num_items))))
        if is_feasible(inst, budget)
    ]
    for exhaustive, want in ((False, feasible), (True, [b for b in feasible if is_exhaustive(inst, b)])):
        assert oracle.enumerate_feasible(inst, exhaustive_only=exhaustive) == want, f"exhaustive={exhaustive}"
        flag = ["--exhaustive"] if exhaustive else []
        names = [[inst.names[i] for i in sorted(budget.selected)] for budget in want]
        code, out = run(capsys, "enumerate", *flag, "--json", path)
        assert code == 0
        record = {
            "command": "enumerate", "file": path, "exhaustive_only": exhaustive, "count": len(want), "budgets": names,
        }
        _assert_same_text(out, json.dumps(record) + "\n")
        code, out = run(capsys, "enumerate", *flag, path)
        assert code == 0
        lines = [f"{'exhaustive ' if exhaustive else ''}feasible budgets: {len(want)}"]
        _assert_same_text(out, "\n".join(lines + ["  {" + ", ".join(items) + "}" for items in names]) + "\n")


def test_enumeration_over_head_and_tail_matches_the_powerset(tmp_path, capsys):
    # 7-14 items with the limit at a subset sum, moved by TOL and a few
    # ulps, so that blocks are cut at the bound; most split off a tail
    tails = 0
    for seed in range(32):
        inst, _, _ = boundary_instance(seed, sizes=(7, 14), share=0.75)
        _assert_enumeration_matches_the_powerset(inst, _write_instance(inst, tmp_path / f"s{seed}.pb"), capsys)
        tails += _tail_size(inst) > 0
    assert tails >= 16, tails


@pytest.mark.parametrize("costs, limit, tail", [
    # {c0} plus six 2.0 tail items fits head item c1 (above c0) and no
    # tail item, so the block's lightest total must count c1
    ((1.0, 1.0) + (2.0,) * 7, 14.0, 7),
    # {c0} plus tail items c3-c7 fits tail item c1 (below c7) and not c2
    ((2.0, 1.0) + (2.0,) * 6, 13.0, 7),
    # no suffix of three items fits, so there is no tail
    ((1.0,) * 10, 2.0 - TOL, 0),
    # every item is a tail item: the head is empty
    ((1.0, 1.5, 1.0, 2.0, 1.0, 1.25, 1.0), 8.75 - TOL, 7),
], ids=["head-item-above-base", "tail-item-below-largest", "empty-tail", "empty-head"])
def test_enumeration_at_the_split_matches_the_powerset(tmp_path, capsys, costs, limit, tail):
    inst = Instance(tuple(f"c{j}" for j in range(len(costs))), costs, limit)
    assert _tail_size(inst) == tail
    _assert_enumeration_matches_the_powerset(inst, _write_instance(inst, tmp_path / "split.pb"), capsys)


def test_certify_nonexistence_json(capsys):
    code, out = run(capsys, "certify", "--axiom", "strong-bjr-l", EX1, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["exists"] is False
    assert record["total_feasible"] == 6
    assert record["satisfying_budgets"] == []


def test_certify_human_output_shows_twenty_satisfiers_and_counts_the_rest(tmp_path, capsys):
    # no voter approves anything, so all 64 budgets satisfy every axiom
    path = tmp_path / "open.pb"
    path.write_text("[meta]\nlimit = 6\n[items]\n" + "".join(f"{c}, {c}, 1\n" for c in "abcdef")
                    + "[ballots]\n1\n2\n", encoding="utf-8")
    code, out = run(capsys, "certify", "--axiom", "bjr-l", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["axiom bjr-l: exists=True over 64 feasible budgets", "satisfying budgets: 64", "  {}"]
    assert len(lines) == 2 + 20 + 1
    assert lines[-1] == "  ... and 44 more"


def test_verify_implications_json(capsys):
    code, out = run(capsys, "verify-implications", EX2, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["violations"] == []


def test_gen_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"m": 5, "n": 6, "cost_model": "uniform", "seed": 11}))
    out_path = tmp_path / "random.pb"
    code, out = run(capsys, "gen", "--spec", str(spec_path), "-o", str(out_path), "--json")
    assert code == 0
    record = json.loads(out)
    assert record["m"] == 5 and record["n"] == 6
    f = harness.parse_instance_file(out_path.read_text())
    assert len(f.item_ids) == 5
    # deterministic: regenerating writes identical bytes
    first = out_path.read_text()
    assert main(["gen", "--spec", str(spec_path), "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text() == first


@pytest.mark.parametrize("spec", [
    {"m": 5, "n": 3, "limit_fraction": 1e308},
    {"m": 5, "n": 3, "cost_model": "uniform", "cost_low": 1e308, "cost_high": 1.5e308},
    {"m": 5, "n": 3, "limit_fraction": 10**400},  # used to exit with an unexpected OverflowError
], ids=["limit", "cost-total", "int-limit"])
def test_gen_refuses_a_spec_whose_raw_numbers_overflow(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "inf.pb"
    code = main(["gen", "--spec", str(spec_path), "-o", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert not out_path.exists()


def test_gen_refuses_a_401_digit_item_count(tmp_path, capsys):
    # it used to exit with an unexpected OverflowError from generate_file
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"m": 1%s, "n": 3}' % ("0" * 400))
    out_path = tmp_path / "huge.pb"
    code = main(["gen", "--spec", str(spec_path), "-o", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: num_items must be at most 1000\n"
    assert not out_path.exists()


def test_empty_represented_weight_is_a_float_in_json(capsys):
    # summed from the int 0, it used to print as 0 where strong-bjr-l prints 0.0
    for axiom in ("strong-bpjr-l", "strong-bjr-l"):
        code, out = run(capsys, "check", "--json", "--axiom", axiom, "--budget", "c1,c3", EX1)
        assert code == 1
        assert '"witness_represented_weight": 0.0,' in out


@pytest.mark.parametrize("budget, code, shown", [
    ("x1,x3", 1, ["x1", "x3"]),
    ("apple,fig", 1, ["x1", "x3"]),
    ("0, 2", 1, ["x1", "x3"]),
    ("x2,fig", 1, ["x2", "x3"]),
    ("kiwi", 2, "error: unknown item 'kiwi'\n"),
    ("3", 2, "error: item index 3 out of range\n"),
], ids=["ids", "display-names", "indices", "mixed", "unknown", "index-out-of-range"])
def test_check_budget_names_items_by_id_display_name_or_index(tmp_path, capsys, budget, code, shown):
    text = (FIXTURES / "ex1.pb").read_text()
    for item_id, name in (("c1", "apple"), ("c2", "pear"), ("c3", "fig")):
        text = text.replace(f"{item_id}, {item_id},", f"x{item_id[1]}, {name},").replace(item_id, f"x{item_id[1]}")
    path = tmp_path / "named.pb"
    path.write_text(text)
    assert main(["check", "--json", "--axiom", "strong-bjr-l", "--budget", budget, str(path)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and captured.err == shown
    else:
        assert json.loads(captured.out)["budget"] == shown


def test_usage_error_exit_two(capsys):
    assert main(["check", "--axiom", "nope-l", "--budget", "", EX1]) == 2
    capsys.readouterr()
    assert main(["solve", "--rule", "gpseq", "/nonexistent.pb"]) == 2
    capsys.readouterr()


def test_size_cap_exit_three(tmp_path, capsys):
    lines = ["[meta]", "limit = 2", "[items]", "a, a, 1", "[ballots]"]
    lines += [f"{i}, a" for i in range(1, 24)]  # 23 voters
    path = tmp_path / "big.pb"
    path.write_text("\n".join(lines) + "\n")
    code = main(["check", "--axiom", "bpjr-l", "--budget", "a", str(path)])
    capsys.readouterr()
    assert code == 3


def test_solve_trace_lists_candidates(capsys):
    code, out = run(capsys, "solve", "--rule", "gpseq", EX2, "--trace", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["steps"][0]["chosen"] == "b"
    assert set(record["steps"][0]["loads"]) == {"a", "b", "c"}


def test_solve_human_output_names_the_unapproved_fill(tmp_path, capsys):
    path = tmp_path / "fill.pb"
    path.write_text("[meta]\nlimit = 3\n[items]\na, a, 1\nb, b, 1\nz, z, 1\n[ballots]\n1, a\n2, a, b\n",
                    encoding="utf-8")
    code, out = run(capsys, "solve", "--rule", "gpseq", "--fill-unapproved", str(path))
    assert code == 0
    assert "budget: {a, b, z}" in out
    assert out.endswith("\nfilled (unapproved): z\n")


def test_solve_other_rules(capsys):
    code, out = run(capsys, "solve", "--rule", "greedy-bjr", EX1, "--json")
    assert code == 0
    assert json.loads(out)["budget"] == ["c1", "c3"]
    code, out = run(capsys, "solve", "--rule", "bpjr-construct", EX1, "--json")
    assert code == 0
    assert json.loads(out)["budget"] == ["c1", "c3"]


@pytest.mark.parametrize("rule", ["gpseq", "greedy-bjr", "bpjr-construct"])
def test_solve_on_a_limit_boundary_exits_zero(capsys, rule):
    # every rule tests fit on its selection's ascending-order sum, the
    # float the feasibility check reads, so none hands it a budget to refuse
    code, out = run(capsys, "solve", "--rule", rule, str(FIXTURES / "ex4.pb"), "--json")
    assert code == 0
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize("rule", ["greedy-bjr", "gpseq"])
def test_nan_limit_exits_two_with_one_line_error(tmp_path, capsys, rule):
    text = (FIXTURES / "ex2.pb").read_text().replace("limit = 3", "limit = nan")
    path = tmp_path / "nan.pb"
    path.write_text(text)
    code = main(["solve", "--rule", rule, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "limit" in captured.err


@pytest.mark.parametrize("rule", ["gpseq", "greedy-bjr", "bpjr-construct"])
@pytest.mark.parametrize("cost_a, limit, shown", [
    ("1e300", "1", "error: item 'a' has cost 1e+300, which divided by the cheapest cost 1e-300 is not finite\n"),
    ("1", "1e300", "error: limit 1e+300 divided by the cheapest cost 1e-300 is not finite\n"),
], ids=["cost", "limit"])
def test_overflowing_quotient_names_the_raw_costs(tmp_path, capsys, rule, cost_a, limit, shown):
    # the error used to name the quotient: "item 'a' has non-finite cost inf"
    path = tmp_path / "overflow.pb"
    path.write_text(f"[meta]\nname = overflow\nm = 2\nn = 1\nlimit = {limit}\n"
                    f"[items]\na, a, {cost_a}\nb, b, 1e-300\n[ballots]\n1, a\n")
    code = main(["solve", "--rule", rule, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == shown


def test_unexpected_exception_exits_two_with_one_line_error(monkeypatch, capsys):
    def broken(args):
        raise ValueError("math domain error\nsecond line")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    code = main(["solve", "--rule", "gpseq", EX2])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unexpected ValueError: math domain error second line\n"


def test_consecutive_calls_share_no_state(capsys):
    code, out = run(capsys, "solve", "--rule", "gpseq", EX2, "--trace", "--json")
    assert code == 0
    assert json.loads(out)["steps"] is not None
    code, out = run(capsys, "solve", "--rule", "gpseq", EX2, "--json")
    assert code == 0
    assert json.loads(out)["steps"] is None
    assert main(["solve", "--rule", "nope", EX2]) == 2
    assert capsys.readouterr().out == ""

import json

import pytest

from probud import axioms, cli, harness, rules
from probud.cli import main
from probud.model import Budget

from conftest import FIXTURES, load_fixture

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


def test_certify_nonexistence_json(capsys):
    code, out = run(capsys, "certify", "--axiom", "strong-bjr-l", EX1, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["exists"] is False
    assert record["total_feasible"] == 6
    assert record["satisfying_budgets"] == []


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
], ids=["limit", "cost-total"])
def test_gen_refuses_a_spec_whose_raw_numbers_overflow(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "inf.pb"
    code = main(["gen", "--spec", str(spec_path), "-o", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert not out_path.exists()


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


def test_solve_other_rules(capsys):
    code, out = run(capsys, "solve", "--rule", "greedy-bjr", EX1, "--json")
    assert code == 0
    assert json.loads(out)["budget"] == ["c1", "c3"]
    code, out = run(capsys, "solve", "--rule", "bpjr-construct", EX1, "--json")
    assert code == 0
    assert json.loads(out)["budget"] == ["c1", "c3"]


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


def test_unexpected_exception_exits_two_with_one_line_error(monkeypatch, capsys):
    def broken(args):
        raise ValueError("math domain error\nsecond line")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    code = main(["solve", "--rule", "gpseq", EX2])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: unexpected ValueError: math domain error second line\n"

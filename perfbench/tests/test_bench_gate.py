import contextlib
import copy
import io
import json

import pytest

from perfbench import gate


def _run(argv):
    from probud import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _corrupted(stdout, change):
    record = json.loads(stdout)
    change(record)
    return json.dumps(record)


def test_parse_raw_normalizes_costs(instance):
    _, inst = instance
    assert inst.cost == (1.0, 1.5, 1.0, 2.0, 3.0)
    assert inst.limit == 3.5
    assert inst.approvers[0] == 0b000111


def test_count_budgets_matches_brute_force(instance):
    _, inst = instance
    import itertools

    m = len(inst.cost)
    feasible = [s for r in range(m + 1) for s in itertools.combinations(range(m), r)
                if inst.weight(s) <= inst.limit + gate.TOL]
    exhaustive = [s for s in feasible
                  if not any(c not in s and inst.fits(inst.weight(s), c) for c in range(m))]
    assert gate.count_budgets(inst, False) == len(feasible)
    assert gate.count_budgets(inst, True) == len(exhaustive)


@pytest.mark.parametrize("argv", [
    ["solve", "--rule", "gpseq", "--tie", "cheapest", "--trace", "--json"],
    ["solve", "--rule", "gpseq", "--json"],
    ["solve", "--rule", "bpjr-construct", "--json"],
    ["enumerate", "--exhaustive", "--json"],
    ["certify", "--axiom", "bpjr-l", "--exhaustive", "--json"],
    ["verify-implications", "--json"],
    ["check", "--axiom", "strong-bpjr-l", "--budget", "e", "--json"],
])
def test_gate_accepts_real_records(instance, argv):
    path, inst = instance
    argv = argv + [str(path)]
    code, stdout = _run(argv)
    record = gate.check_output(inst, argv, code, stdout, None)
    gate.check_output(inst, argv, code, stdout, gate.project(record))


def test_gate_rejects_over_limit_budget(instance):
    path, inst = instance
    argv = ["solve", "--rule", "bpjr-construct", "--json", str(path)]
    code, stdout = _run(argv)
    bad = _corrupted(stdout, lambda r: r.__setitem__("budget", ["a", "b", "c", "d", "e"]))
    with pytest.raises(gate.GateError, match="over the limit"):
        gate.check_output(inst, argv, code, bad, None)


def test_gate_rejects_wrong_step_load(instance):
    path, inst = instance
    argv = ["solve", "--rule", "gpseq", "--tie", "lex", "--trace", "--json", str(path)]
    code, stdout = _run(argv)

    def bump(record):
        record["max_loads"][-1] += 1e-6
        step = record["steps"][-1]
        step["loads"][step["chosen"]] += 1e-6

    with pytest.raises(gate.GateError, match="cut bound"):
        gate.check_output(inst, argv, code, _corrupted(stdout, bump), None)


def test_gate_rejects_missing_budget_in_enumeration(instance):
    path, inst = instance
    argv = ["enumerate", "--json", str(path)]
    code, stdout = _run(argv)

    def drop(record):
        record["budgets"].pop()
        record["count"] -= 1

    with pytest.raises(gate.GateError, match="wrong number of budgets"):
        gate.check_output(inst, argv, code, _corrupted(stdout, drop), None)


def test_gate_rejects_non_exhaustive_budget_in_list(instance):
    path, inst = instance
    argv = ["enumerate", "--exhaustive", "--json", str(path)]
    code, stdout = _run(argv)
    shrink = lambda r: r["budgets"].__setitem__(0, r["budgets"][0][:-1])  # noqa: E731
    with pytest.raises(gate.GateError, match="not exhaustive"):
        gate.check_output(inst, argv, code, _corrupted(stdout, shrink), None)


def test_gate_rederives_witness(instance):
    path, inst = instance
    argv = ["check", "--axiom", "strong-bpjr-l", "--budget", "e", "--json", str(path)]
    code, stdout = _run(argv)
    record = gate.check_output(inst, argv, code, stdout, None)
    assert record["satisfied"] is False and code == 1
    bad = _corrupted(stdout, lambda r: r.__setitem__("witness_represented_weight", 0.5))
    with pytest.raises(gate.GateError, match="represented weight"):
        gate.check_output(inst, argv, code, bad, None)
    with pytest.raises(gate.GateError, match="exit code"):
        gate.check_output(inst, argv, 0, stdout, None)


def test_gate_rejects_golden_mismatch(instance):
    path, inst = instance
    argv = ["certify", "--axiom", "bpjr-w", "--exhaustive", "--json", str(path)]
    code, stdout = _run(argv)
    golden = gate.project(json.loads(stdout))
    wrong = copy.deepcopy(golden)
    wrong["exists"] = not wrong["exists"]
    with pytest.raises(gate.GateError, match="golden"):
        gate.check_output(inst, argv, code, stdout, wrong)


def test_gate_rejects_unparsable_record(instance):
    path, inst = instance
    with pytest.raises(gate.GateError, match="unparsable"):
        gate.check_output(inst, ["enumerate", "--json", str(path)], 0, "budgets: 3\n", None)


def test_compare_uses_tolerance():
    gate.compare({"x": [1.0, "a"]}, {"x": [1.0 + 1e-10, "a"]})
    with pytest.raises(gate.GateError):
        gate.compare({"x": [1.0]}, {"x": [1.0 + 1e-8]})
    with pytest.raises(gate.GateError):
        gate.compare({"x": True}, {"x": 1})

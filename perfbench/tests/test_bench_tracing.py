import contextlib
import io
import sys

import pytest

from perfbench import tracing


def _package_attributes():
    import probud.cli  # noqa: F401  (loads every probud module)

    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "probud" or name.startswith("probud.")
            for key, value in vars(module).items()}


def _run(argv):
    import probud.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return probud.cli.main(argv)


def test_traced_run_wraps_every_call_site_and_restores_it(instance):
    import probud
    import probud.oracle
    import probud.rules

    path, _ = instance
    before = _package_attributes()
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as missing:
        assert missing == []
        assert probud.oracle.check_axiom is not before[("probud.axioms", "check_axiom")]
        assert probud.check_axiom is probud.axioms.check_axiom
        assert probud.rules.min_max_load is not before[("probud.rules", "min_max_load")]
        assert probud.harness.normalize is not before[("probud.model", "normalize")]
        _run(["certify", "--axiom", "bpjr-l", "--exhaustive", "--json", str(path)])
        _run(["solve", "--rule", "gpseq", "--json", str(path)])
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "harness.parse_instance_file", "model.normalize", "oracle.certify_existence",
            "oracle.enumerate_feasible", "axioms.check_axiom", "rules.gpseq", "rules.min_max_load"} <= names
    kernel = [s for s in tracer.spans if s.name == "rules.min_max_load"]
    assert all(tracer.spans[s.parent].name == "rules.gpseq" for s in kernel)
    metrics = tracing.layer_metrics(tracer.spans, requests=2, overhead_ratio=1.0)
    assert metrics["rules.gpseq.loads_per_pick"][0] > 1
    assert metrics["rules.bpjr_construct.calls"] == (0.0, "calls/req")
    assert set(metrics) >= {f"{name}.self_s" for name in tracing.TRACED}


def test_traced_run_restores_attributes_after_an_error():
    before = _package_attributes()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    after = _package_attributes()
    assert all(after[k] is before[k] for k in before)


def test_missing_layer_is_reported_not_fatal():
    with tracing.traced(tracing.Tracer(), names=("rules.no_such_rule", "cli.main")) as missing:
        assert missing == ["rules.no_such_rule"]

import json

import pytest

from perfbench.measure import TAIL_MIN_BEYOND, Runner, beyond, percentile
from perfbench.tracing import Span, Tracer, covered, self_times
from perfbench.workloads import WORKLOADS, cell_requests, pass_order, write_pool


def test_nearest_rank_percentile():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 80) == 4
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1


@pytest.mark.parametrize("count", [20, 41, 168, 320, 1000])
def test_beyond_counts_samples_above_the_percentile(count):
    values = list(range(count))
    for p in (50, 66, 90, 96.5, 99):
        assert beyond(count, p) == sum(v > percentile(values, p) for v in values)


def test_each_workload_tail_is_the_highest_grid_percentile_with_ten_beyond():
    grid = (50, 75, 90, 95, 99, 99.9)
    for name, workload in WORKLOADS.items():
        cycle = workload.variants * sum(len(cell_requests(kind, s, 0)) for s, kind in workload.cells)
        assert workload.tail_percentile in grid, name
        assert beyond(cycle, workload.tail_percentile) >= TAIL_MIN_BEYOND, name
        higher = [p for p in grid if p > workload.tail_percentile]
        assert all(beyond(cycle, p) < TAIL_MIN_BEYOND for p in higher), name


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 10), (2, 3)]) == 10


def test_self_time_under_nested_spans():
    #  a [0, 10] -> b [1, 4] -> c [2, 3]
    #            -> d [5, 9]
    spans = [Span("a", 0, 10, None, 0), Span("b", 1, 4, 0, 0), Span("c", 2, 3, 1, 0), Span("d", 5, 9, 0, 0)]
    assert self_times(spans) == [3, 2, 1, 4]


def test_tracer_links_parents_and_requests():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2, observe=lambda r: r)
    tracer.request = 7
    assert outer(1) == 4
    names = [(s.name, s.parent, s.request, s.value) for s in tracer.spans]
    assert names == [("outer", None, 7, 4), ("inner", 0, 7, None)]
    assert self_times(tracer.spans) == [2, 1]


class _InstantCli:
    """Stands in for a program that got far faster than the parent."""

    @staticmethod
    def main(argv):
        print(json.dumps({"command": argv[0], "budget": []}))
        return 0


def test_fast_program_runs_more_whole_passes(tmp_path):
    import probud.harness as harness

    workload = WORKLOADS["seq-load"]
    pool = write_pool(workload, harness, tmp_path / "instances")
    assert len(pool) == len(workload.shapes) * workload.variants
    runner = Runner(_InstantCli, workload, pool, tmp_path / "outputs")
    samples, passes = runner.run_phase(seed=3, seconds=0.05)
    per_pass = sum(len(cell_requests(kind, s, 0)) for s, kind in workload.cells)
    assert passes > workload.variants and passes % workload.variants == 0
    assert len(samples) == passes * per_pass


def test_pass_order_depends_on_seed_only():
    workload = WORKLOADS["axiom-mix"]
    assert pass_order(workload, 5, 2) == pass_order(workload, 5, 2)
    assert pass_order(workload, 5, 2) != pass_order(workload, 6, 2)
    cells = sorted(c for c, _ in pass_order(workload, 5, 2))
    assert cells == list(range(len(workload.cells)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_cycle_makes_every_cell_on_every_variant_once(name):
    workload = WORKLOADS[name]
    n = workload.variants
    for seed, start in ((1, 0), (7, n)):
        made = sorted(pair for p in range(start, start + n) for pair in pass_order(workload, seed, p))
        assert made == [(c, v) for c in range(len(workload.cells)) for v in range(n)]


def test_a_phase_runs_at_least_one_whole_cycle(tmp_path):
    import probud.harness as harness

    workload = WORKLOADS["seq-load"]
    runner = Runner(_InstantCli, workload, write_pool(workload, harness, tmp_path / "instances"), tmp_path / "outputs")
    samples, passes = runner.run_phase(seed=3, seconds=0)
    assert passes == workload.variants
    assert len(samples) == passes * len(workload.cells)

"""The closed loop: one client, one request at a time, in this process.

Each request is a call to ``probud.cli.main(argv)`` with stdout and
stderr captured; only that call is timed.  A phase runs whole cycles of
``workload.variants`` passes (see :mod:`perfbench.workloads`): at least
one, and another only while it would still end, at the pace of the last
one, within the phase length.  A cycle makes every request of every cell
on every pool instance exactly once, so each run measures the same
requests whatever the seed, a run never measures much more than its
length, and a faster program simply completes more cycles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .workloads import (
    DRAWN_BUDGET, FILE, SOLVED_BUDGETS, Workload, cell_requests, instance_key, pass_order,
)

#: Fewest requests that must lie beyond the tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(count: int, p: float) -> int:
    """Number of samples above the nearest-rank ``p`` percentile."""
    return count - max(1, math.ceil(p / 100.0 * count - 1e-9))


@dataclass
class Sample:
    key: str  # "<shape>/v<variant>/<request label>"
    argv: tuple[str, ...]
    path: Path
    latency: float
    exit_code: int | None  # None: main raised
    digest: str


class Runner:
    """Runs cells of one workload against ``cli``; keeps every distinct
    output on disk under ``out_dir`` so that holding them does not count
    in the process's peak memory."""

    def __init__(self, cli, workload: Workload, pool, out_dir: Path, tracer=None):
        self.cli = cli
        self.workload = workload
        self.pool = pool
        self.out_dir = out_dir
        self.tracer = tracer
        self.next_request = 0
        out_dir.mkdir(parents=True, exist_ok=True)

    def output(self, digest: str) -> str:
        return (self.out_dir / f"{digest}.json").read_text(encoding="utf-8")

    def _call(self, argv: list[str]) -> tuple[float, int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not a failed run
                err.write(f"{type(exc).__name__}: {exc}")
            latency = time.perf_counter() - start
        return latency, code, out.getvalue()

    def run_cell(self, cell: int, variant: int) -> list[Sample]:
        shape_index, kind = self.workload.cells[cell]
        shape = self.workload.shapes[shape_index]
        inst = self.pool[(shape_index, variant)]
        budgets = {DRAWN_BUDGET: inst.drawn_budget}
        samples = []
        for request in cell_requests(kind, shape_index, variant):
            argv = [str(inst.path) if t == FILE else budgets.get(t, t) for t in request.argv]
            if self.tracer is not None:
                self.tracer.request = self.next_request
            latency, code, stdout = self._call(argv)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            path = self.out_dir / f"{digest}.json"
            if not path.exists():
                path.write_text(stdout, encoding="utf-8")
            if request.label in SOLVED_BUDGETS:
                budgets[SOLVED_BUDGETS[request.label]] = _budget_arg(stdout)
            samples.append(Sample(f"{instance_key(shape, variant)}/{request.label}", tuple(argv),
                                  inst.path, latency, code, digest))
            self.next_request += 1
        return samples

    def run_phase(self, seed: int, seconds: float) -> tuple[list[Sample], int]:
        """Whole cycles: one, then more while the timed request time plus
        the last cycle's stays within ``seconds``."""
        samples: list[Sample] = []
        busy = cycle = 0.0
        passes = 0
        while passes == 0 or busy + cycle <= seconds:
            cycle = 0.0
            for _ in range(self.workload.variants):
                for cell, variant in pass_order(self.workload, seed, passes):
                    for sample in self.run_cell(cell, variant):
                        cycle += sample.latency
                        samples.append(sample)
                passes += 1
            busy += cycle
        return samples, passes


def _budget_arg(stdout: str) -> str:
    try:
        return ",".join(json.loads(stdout)["budget"])
    except (ValueError, KeyError, TypeError):
        return ""  # the solve failed; the gate reports it and the check that follows

"""Benchmark entry point.

    python3 perfbench/run.py --workload seq-load --seed 1 --seconds 45 --trace 0

Builds nothing: it imports ``probud`` from ``src/`` next to this
directory, writes the workload's instance files under
``.perfbench_work/``, runs the timed closed loop, checks every output
with :mod:`perfbench.gate` and prints one JSON result as the last line of
stdout (the line before it records the environment).  With ``--trace 1``
the run is split in two halves, untraced then traced, and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden"
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 9

sys.path.insert(0, str(ROOT))
from perfbench import gate, tracing  # noqa: E402
from perfbench.measure import TAIL_MIN_BEYOND, Runner, beyond, percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, write_pool  # noqa: E402


def import_probud():
    """Import ``probud`` from ``src/`` and return its cli and harness
    modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("probud.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"probud was imported from {cli.__file__}, not from {SRC}")
    return cli, importlib.import_module("probud.harness")


def setup_time(workload, run_dir: Path) -> float:
    """Median over ``SETUP_REPEATS`` fresh interpreters of the time from
    starting ``python3`` to being ready for the first request: interpreter
    start-up, the benchmark's and ``probud``'s imports and writing the
    instance files.  Each child prints the monotonic clock when it is
    ready (``--setup-only``), so its shutdown is not counted."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
               "--seed", "0", "--seconds", "0", "--setup-only", str(run_dir / f"setup-{i}")]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def environment(**extra) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "probud").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        **extra,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"  # a plain checkout; source_sha256 identifies the code


def check_samples(samples, runner: Runner, golden: dict) -> list[str]:
    """Gate every sample; each distinct output of a request is checked
    once.  Returns one message per failed request."""
    instances: dict[Path, gate.RawInstance] = {}
    verdicts: dict[tuple[str, str], str | None] = {}
    failures = []
    for s in samples:
        if s.exit_code is None:
            failures.append(f"{s.key}: cli.main raised")
            continue
        if (s.key, s.digest) not in verdicts:
            if s.path not in instances:
                instances[s.path] = gate.parse_raw(s.path.read_text(encoding="utf-8"))
            verdict = None
            if s.key not in golden:
                verdict = "no golden record"
            else:
                try:
                    gate.check_output(instances[s.path], s.argv, s.exit_code, runner.output(s.digest), golden[s.key])
                except gate.GateError as exc:
                    verdict = str(exc)
            verdicts[(s.key, s.digest)] = verdict
        if verdicts[(s.key, s.digest)] is not None:
            failures.append(f"{s.key}: {verdicts[(s.key, s.digest)]}")
    return failures


def end_to_end(latencies, setup_s: float, peak_rss_mb: float, failed: int, tail_p: float) -> dict:
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "req/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, tail_p) * 1e3, "ms"),
        "success_ratio": (1.0 - failed / len(latencies), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def throughput(samples) -> float:
    return len(samples) / sum(s.latency for s in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="DIR",
                        help="set up in DIR, print the monotonic clock and exit (see setup_time)")
    args = parser.parse_args(argv)
    if not (SRC / "probud" / "__init__.py").is_file():
        print(f"error: no probud sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        _, harness = import_probud()
        write_pool(workload, harness, args.setup_only)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    run_dir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        cli, harness = import_probud()
        pool = write_pool(workload, harness, run_dir / "instances")
        setup_s = None if args.trace else setup_time(workload, run_dir)
        runner = Runner(cli, workload, pool, run_dir / "outputs")
        phase = args.seconds / 2 if args.trace else args.seconds
        samples, passes = runner.run_phase(args.seed, phase)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_samples = []
        if args.trace:
            runner.tracer = tracer = tracing.Tracer()
            with tracing.traced(tracer) as missing:
                traced_samples, _ = runner.run_phase(args.seed, phase)
            if missing:
                print(f"warning: not found, reported as zero: {', '.join(missing)}", file=sys.stderr)
            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
        golden = json.loads((GOLDEN / f"{workload.name}.json").read_text(encoding="utf-8"))
        everything = samples + traced_samples
        failures = check_samples(everything, runner, golden)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)

    tail_p = workload.tail_percentile
    if args.trace:
        overhead = throughput(samples) / throughput(traced_samples)
        metrics = tracing.layer_metrics(tracer.spans, len(traced_samples), overhead)
    else:
        metrics = end_to_end([s.latency for s in samples], setup_s, peak_rss_mb, len(failures), tail_p)
        if beyond(len(samples), tail_p) < TAIL_MIN_BEYOND:
            print(f"warning: fewer than {TAIL_MIN_BEYOND} requests beyond p{tail_p}", file=sys.stderr)
    print(json.dumps({"env": environment(
        workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=passes, requests=len(samples), tail_percentile=tail_p,
        tail_beyond=beyond(len(samples), tail_p),
    )}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

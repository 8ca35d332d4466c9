"""End-to-end and per-layer benchmark of the ``probud`` command line.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``BENCHMARK.json`` for the
workloads and metrics and ``perfbench/README.md`` for the design.
"""

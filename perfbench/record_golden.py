"""Record the golden file of each workload from the current ``probud``.

    python3 perfbench/record_golden.py [workload ...]

Runs every request of every cell on every pool variant, checks each
output with the independent checks of :mod:`perfbench.gate` (a record
that fails them is not recorded; the script stops instead) and writes
``perfbench/golden/<workload>.json``.  Only re-record at a commit whose
outputs are known to be right: the golden file is the reference that
later commits are compared against.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import gate  # noqa: E402
from perfbench.run import GOLDEN, WORK, import_probud  # noqa: E402
from perfbench.measure import Runner  # noqa: E402
from perfbench.workloads import WORKLOADS, write_pool  # noqa: E402


def record(workload) -> dict:
    run_dir = WORK / f"golden-{workload.name}"
    try:
        cli, harness = import_probud()
        runner = Runner(cli, workload, write_pool(workload, harness, run_dir / "instances"), run_dir / "outputs")
        golden = {}
        for cell in range(len(workload.cells)):
            for variant in range(workload.variants):
                for s in runner.run_cell(cell, variant):
                    inst = gate.parse_raw(s.path.read_text(encoding="utf-8"))
                    out = gate.check_output(inst, s.argv, s.exit_code, runner.output(s.digest), None)
                    golden[s.key] = gate.project(out)
        return dict(sorted(golden.items()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(names) -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        golden = record(WORKLOADS[name])
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path}: {len(golden)} records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

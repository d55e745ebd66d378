"""Record the `variants` workload's baseline test R^2 for a range of seeds.

    python3 perfbench/record_baseline_r2.py FIRST LAST

For each seed from FIRST to LAST it generates the workload's inputs and runs
its `interboost benchmark` command in this process, then writes every
baseline test R^2 it has to perfbench/baseline_r2.json (keeping seeds already
there). The `variants` output check holds a recorded seed's report to its
value up to float rounding, and any other seed to a loose band.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def baseline_r2(seed: int) -> float:
    from interboost import cli

    workload = workloads.WORKLOADS["variants"]
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        inputs.mkdir()
        workload.generate(seed, inputs)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["benchmark", *workload.benchmark_args(inputs, out)])
        if code != 0:
            raise RuntimeError(f"seed {seed}: interboost benchmark exited with {code}")
        report = json.loads((out / "benchmark" / "report.json").read_text(encoding="utf-8"))
    return next(v["test_score"] for v in report["variants"] if v["variant"] == "baseline")


def main(argv=None) -> int:
    first, last = map(int, (argv or sys.argv[1:]))
    new = {}
    for seed in range(first, last + 1):
        new[seed] = baseline_r2(seed)
        print(seed, repr(new[seed]), flush=True)
    recorded = {**workloads.load_baseline_r2(), **new}
    workloads.BASELINE_R2_PATH.write_text(
        json.dumps({str(s): recorded[s] for s in sorted(recorded)}, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

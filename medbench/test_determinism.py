"""The traced run's work counters repeat exactly at a fixed seed.

Run with ``python3 -m pytest medbench`` from the root of a medli checkout; it
makes two traced runs of every workload (about four minutes on a 2-core box).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("qubit-pairs", "solve-dense", "closed-form", "cli")
COUNT_UNITS = ("count", "bytes")


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_at_a_fixed_seed(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    assert first["correct"] and second["correct"]
    counters = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] in COUNT_UNITS or name == "solver.start_use_ratio"
    }
    assert counters and any(counters.values())
    assert counters == {name: second["metrics"][name]["value"] for name in counters}

"""The benchmark's workloads run on this tree: each builds, runs one untraced op and checks it.

`pytest perfbench` covers the benchmark itself; this runs the same calls
inside the package's own suite, so a change that breaks one fails here too.
Beside the workloads BENCHMARK.json lists, it runs perfbench's gradcheck-tiny,
which the benchmark runner leaves out.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]] + ["gradcheck-tiny"])
def test_workload_runs_and_checks_one_op(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](0, tmp_path)
    try:
        wl.check(0, wl.op(0))
    finally:
        wl.close()

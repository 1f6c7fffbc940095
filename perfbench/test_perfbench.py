"""The benchmark's own tests (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once at its tiny size, untraced and traced: the run
must pass its correctness oracle and print exactly the metric names that
``BENCHMARK.json`` lists for that mode.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_oracle_and_prints_listed_metrics(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    env = json.loads(proc.stdout.strip().splitlines()[-2])["env"]
    assert env["seed"] == 7 and env["nproc"] >= 1
    if trace:
        trace_file = Path(env["chrome_trace"])
        events = json.loads(trace_file.read_text())["traceEvents"]
        names = {e["name"].split("#")[0] for e in events if e["ph"] == "X"}
        assert "core.pipeline.unattributed" in names
    else:
        # host-normalised metrics are reported next to their wall values
        assert set(want) - {"peak_rss_mb"} <= set(env["wall"])


def test_scale_uses_the_bracketing_reference_timings():
    sys.path.insert(0, str(HERE))
    try:
        import calib
    finally:
        sys.path.remove(str(HERE))
    assert calib.scale(calib.NOMINAL_S, calib.NOMINAL_S) == 1.0
    assert calib.scale(calib.NOMINAL_S, 3 * calib.NOMINAL_S) == 0.5
    assert calib.reference_s(3) > 0.0


def test_layer_names_are_the_listed_per_layer_metrics():
    sys.path.insert(0, str(HERE))
    try:
        import layers
    finally:
        sys.path.remove(str(HERE))
    assert list(layers.NAMES) == [m["name"] for m in SPEC["per_layer"]]


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads
    finally:
        del sys.path[:2]

    def sweep_family(seed):
        w = workloads.Sweep1D(seed, True, tmp_path)
        w.build()
        return w.family(2, 2)

    assert workloads._blast_params(5) == workloads._blast_params(5)
    assert workloads._blast_params(5) != workloads._blast_params(6)
    assert sweep_family(5) == sweep_family(5)
    assert sweep_family(5) != sweep_family(6)

"""Smoke test of the benchmark itself: every workload at its tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each traced run must pass every check and report every per-layer metric of
BENCHMARK.json, with nonzero calls where the workload is expected to work;
one untraced run must report every end-to-end metric.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

# Calls that must be nonzero on each workload (README, layer table).
EXPECT_CALLS = {
    "large-k": ["kernels.convolve_empirical.calls",
                "kernels.convolve_field_grid.calls", "pde.step.calls",
                "metrics.bl_distance.calls", "metrics.linprog.calls",
                "io.write.calls"],
    "dirac": ["kernels.convolve_field_grid.calls", "pde.step.calls",
              "metrics.bl_distance.calls", "metrics.linprog.calls",
              "io.write.calls"],
    "flow": ["kernels.convolve_field.calls",
             "kernels.convolve_field_grid.calls", "pde.step.calls",
             "io.write.calls"],
    "uniqueness-2d": ["kernels.convolve_field_grid.calls", "pde.step.calls",
                      "metrics.bl_distance.calls", "metrics.linprog.calls",
                      "io.write.calls"],
}
# Times that must be nonzero where the workload runs that layer.
EXPECT_TIME = {
    "large-k": ["ibm.simulate.s", "ibm.step_diffuse.self_s",
                "ibm.step_demography.self_s", "ibm.particle_steps_per_s",
                "kernels.convolve_empirical.pairs_per_s"],
    "dirac": ["pde.solve.s", "pde.cell_steps_per_s"],
    "flow": ["flow.fk_rate.self_s", "flow.feynman_kac_functional.self_s",
             "flow.inverse_flow.self_s", "flow.density_estimate.self_s",
             "flow.path_steps_per_s", "kernels.convolve_field.pairs_per_s"],
    "uniqueness-2d": ["metrics.linprog.s", "metrics.linprog.rows",
                      "metrics.bl_distance.support_points"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_tiny_run(workload):
    res = _run(workload, 1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for key in EXPECT_CALLS[workload] + EXPECT_TIME[workload]:
        assert metrics[key]["value"] > 0, key
    assert metrics["studies.pool_busy_fraction"]["value"] > 0


def test_untraced_tiny_run():
    res = _run("dirac", 0)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())

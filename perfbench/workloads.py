"""The four benchmark workloads: one canonical crossdiff study each.

Each workload is a config dict for one study, sized so that one study call
(a round) takes a few seconds on a 2-CPU machine, the number of operations a
round attempts, and the checks of the study's written table.  The configs are
the acceptance-test configs with the scaling listed in README.md; `tiny`
gives the smoke-test sizes.
"""

from __future__ import annotations

import csv
import math
import os

# The acceptance seed of each study's criterion; --seed overrides it.
DEFAULT_SEEDS = {"large-k": 11, "dirac": 13, "flow": 29, "uniqueness-2d": 37}

STUDY = {"large-k": "study_large_k", "dirac": "study_dirac",
         "flow": "study_flow", "uniqueness-2d": "study_uniqueness"}

TABLE = {"large-k": "large_k.csv", "dirac": "dirac.csv",
         "flow": "flow_density.csv", "uniqueness-2d": "uniqueness.csv"}


def workers(name: str) -> int:
    """Study pool size: only large-k runs its sub-runs on a thread pool."""
    return 2 if name == "large-k" else 1


def config(name: str, seed: int, tiny: bool = False) -> dict:
    if name == "large-k":
        # criterion 04: 1-d, one species, Gaussian G, no births or deaths
        return {
            "seed": seed,
            "model": {"M": 1, "dim": 1, "family": "isotropic-saturating",
                      "params": {"psi_max": 0.25},
                      "kernels": {"G": {"family": "gaussian",
                                        "bandwidth": 0.5}}},
            "initial": [{"mass": 0.3, "kind": "gaussian", "std": 0.8}],
            "ibm": {"K": [30, 300, 3000] if tiny else [100, 1000, 10000],
                    "dt": 0.05, "t_end": 1.0, "replicas": 2,
                    "snapshot_times": [1.0]},
            "pde": {"lo": -5.0, "hi": 5.0, "cells": 128, "dt": 0.01,
                    "t_end": 1.0},
        }
    if name == "dirac":
        # criterion 05 with dt doubled (0.001 -> 0.002): 5 solves of 500 steps
        return {
            "seed": seed,
            "model": {"M": 2, "dim": 1, "family": "constant-coefficients",
                      "params": {"sigma0": 0.3}, "r": [1.0, 1.0],
                      "rbar": [1.0, 1.0], "comp": [[1.0, 0.5], [0.5, 1.0]]},
            "initial": [{"mass": 0.5, "kind": "gaussian", "mean": 0.0,
                         "std": 0.6},
                        {"mass": 0.5, "kind": "gaussian", "mean": 0.3,
                         "std": 0.6}],
            "pde": {"lo": -5.0, "hi": 5.0, "cells": 64 if tiny else 128,
                    "dt": 0.004 if tiny else 0.002, "t_end": 1.0,
                    "snapshot_times": [0.0, 0.5, 1.0],
                    "eps": [0.4, 0.2, 0.1, 0.05]},
        }
    if name == "flow":
        # criterion 08 to t = 0.25 (not 0.5) with 100 (not 400) paths; at
        # 50 paths the study's 3-se verdict fails on some seeds
        t = 0.1 if tiny else 0.25
        return {
            "seed": seed,
            "model": {"M": 1, "dim": 1, "family": "attraction-drift",
                      "params": {"sigma0": 0.35, "alpha": 0.3},
                      "growth": [{"kind": "bump", "base": 0.3, "amp": 1.0,
                                  "center": 0.0, "width": 1.0}],
                      "kernels": {"C": {"family": "gaussian",
                                        "bandwidth": 0.4}}},
            "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
            "pde": {"lo": -6.0, "hi": 6.0, "cells": 128, "dt": 0.002,
                    "t_end": t},
            "flow": {"species": 0, "t": t, "dt": 0.002,
                     "n_paths": 8 if tiny else 100},
        }
    if name == "uniqueness-2d":
        # the only d = 2 study: a 12x12 grid keeps one round near 2 s
        return {
            "seed": seed,
            "model": {"M": 1, "dim": 2, "family": "constant-coefficients",
                      "params": {"sigma0": 0.3}, "r": [0.5], "rbar": [0.5],
                      "kernels": {"C": {"family": "gaussian",
                                        "bandwidth": 0.5}}},
            "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
            "pde": {"lo": -4.0, "hi": 4.0, "cells": 8 if tiny else 12,
                    "dt": 0.01, "t_end": 0.5,
                    "snapshot_times": [0.0, 0.25, 0.5]},
            "uniqueness": {"deltas": [0.4, 0.2, 0.1]},
        }
    raise ValueError(f"unknown workload {name!r}")


def operations(name: str, cfg: dict) -> int:
    """Operations one round attempts: IBM replicas, PDE solves, BL solves
    and flow estimates, counted from the config."""
    M = cfg["model"]["M"]
    if name == "large-k":
        runs = len(cfg["ibm"]["K"]) * cfg["ibm"]["replicas"]
        return runs + 1 + runs * len(cfg["ibm"]["snapshot_times"]) * M
    snaps = len(cfg["pde"].get("snapshot_times") or [cfg["pde"]["t_end"]])
    if name == "dirac":
        n_eps = len(cfg["pde"]["eps"])
        return 1 + n_eps + n_eps * snaps * M
    if name == "flow":
        return 1 + 2
    n_delta = len(cfg["uniqueness"]["deltas"])
    return 2 + n_delta + M * snaps + n_delta * M * (1 + snaps)


def operation_calls(calls: dict) -> int:
    """The same count, taken from traced call counts."""
    return (calls.get("ibm.simulate", 0) + calls.get("pde.solve", 0)
            + calls.get("metrics.bl_distance", 0)
            + calls.get("flow.density_estimate", 0)
            + calls.get("flow.feynman_kac_functional", 0))


def _read_table(path: str):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def check_table(name: str, cfg: dict, report, out_dir: str) -> list:
    """Failures of the study verdict and of its written table."""
    fails = [] if report.passed else [f"study verdict FAIL: {report.summary}"]
    header, rows = _read_table(os.path.join(out_dir, TABLE[name]))
    col = {h: k for k, h in enumerate(header)}
    if name == "large-k":
        K = cfg["ibm"]["K"]
        times = cfg["ibm"]["snapshot_times"]
        expect = len(K) * len(times)
        value_cols = ["mean_bl_distance", "band95"]
    elif name == "dirac":
        expect = len(cfg["pde"]["eps"])
        value_cols = ["sup_bl_distance"]
    elif name == "flow":
        expect = 5
        value_cols = ["y", "estimate", "stderr", "pde_value"]
    else:
        times = cfg["pde"]["snapshot_times"]
        expect = len(cfg["uniqueness"]["deltas"]) * len(times)
        value_cols = ["bl_distance"]
    if len(rows) != expect:
        return fails + [f"{TABLE[name]}: {len(rows)} rows, expected {expect}"]
    for c in value_cols:
        vals = [float(r[col[c]]) for r in rows]
        if not all(math.isfinite(v) for v in vals):
            fails.append(f"{TABLE[name]}: non-finite {c}")

    if name == "large-k":
        # BL distance to the PDE falls as K grows, at every snapshot
        for t in times:
            means = [float(r[col["mean_bl_distance"]]) for r in rows
                     if math.isclose(float(r[col["t"]]), t)]
            if len(means) != len(K) or not _decreasing(means):
                fails.append(f"large_k.csv: distances at t={t} not "
                             f"decreasing in K: {means}")
    elif name == "dirac":
        # the mollified-vs-local distance shrinks with eps
        sups = [float(r[col["sup_bl_distance"]]) for r in rows]
        if not _decreasing(sups) or min(sups) <= 0.0:
            fails.append(f"dirac.csv: distances not positive and "
                         f"shrinking with eps: {sups}")
    elif name == "flow":
        if not all(r[col["ok"]] == "True" for r in rows):
            fails.append("flow_density.csv: a probe is outside 3 se + budget")
        if any(float(r[col["stderr"]]) <= 0.0 for r in rows):
            fails.append("flow_density.csv: nonpositive standard error")
    else:
        # the perturbed solution drifts further as delta grows, at every t
        deltas = cfg["uniqueness"]["deltas"]
        for t in times:
            dist = [float(r[col["bl_distance"]]) for r in rows
                    if math.isclose(float(r[col["t"]]), t)]
            if len(dist) != len(deltas) or not _decreasing(dist):
                fails.append(f"uniqueness.csv: distances at t={t} not "
                             f"shrinking with delta: {dist}")
    return fails

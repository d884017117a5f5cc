"""Acceptance criteria, one test per criterion, one pass/fail line each.

Every numeric target is checked at its stated tolerance against an
independent oracle (analytic formula, ODE integrator or exact LP).
"""

import math

import numpy as np
import pytest
from _coefficients import synthetic_coeffs
from scipy.integrate import solve_ivp

from crossdiff import ibm, pde
from crossdiff.flow import compose_inverse_forward, inverse_flow
from crossdiff.ibm import SimParams
from crossdiff.initial import InitialCondition, project_to_grid
from crossdiff.kernels import KernelSpec
from crossdiff.metrics import DiscreteMeasure, bl_distance
from crossdiff.model import builtin_model
from crossdiff.pde import SolverParams, mass_bound_check
from crossdiff.studies import (study_dirac, study_flow, study_large_k,
                               study_uniqueness)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ----------------------------------------------------------------------
# shared Lotka-Volterra configuration (criteria 1 and 2)

LV_R = np.array([1.0, 1.0])
LV_C = np.array([[1.0, 0.5], [0.5, 1.0]])
LV_M0 = np.array([0.5, 0.5])


def lv_model():
    C = [[KernelSpec("constant", 1, amplitude=LV_C[i, j]) for j in range(2)]
         for i in range(2)]
    return builtin_model("constant-coefficients", 2, 1, sigma0=0.3,
                         r=list(LV_R), rbar=list(LV_R), C=C)


def lv_initial():
    return [InitialCondition(float(m), "gaussian", std=0.6) for m in LV_M0]


def lv_ode_masses(times):
    def f(t, y):
        return y * (LV_R - LV_C @ y)
    sol = solve_ivp(f, (0.0, max(times)), LV_M0, t_eval=times,
                    rtol=1e-10, atol=1e-12)
    return sol.y.T


def test_criterion_01_mass_bound():
    model = lv_model()
    sol = pde.solve(model, project_to_grid(lv_initial(), [-7.0], [7.0], [160]),
                    SolverParams(dt=0.004, t_end=1.0,
                                 snapshot_times=(0.0, 0.5, 1.0)))
    rep = mass_bound_check(sol, model, tol=1e-4)

    reps, K = 100, 500
    finals = np.empty((reps, 2))
    for s in range(reps):
        traj = ibm.simulate(model, lv_initial(),
                            SimParams(t_end=1.0, dt=0.01, K=K, seed=100 + s))
        finals[s] = traj.masses()[-1]
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / math.sqrt(reps)
    bound = np.exp(LV_R * 1.0) * LV_M0
    ibm_ok = bool(np.all(mean <= bound + 3.0 * se))
    _report(1, "mass bound", rep.passed and ibm_ok,
            f"pde max mass {sol.masses.max():.4f}, ibm mean {mean.round(4)}"
            f" vs bound {bound.round(4)} + 3se")


def test_criterion_02_lotka_volterra_oracle():
    model = lv_model()
    sol = pde.solve(model, project_to_grid(lv_initial(), [-7.0], [7.0], [160]),
                    SolverParams(dt=0.004, t_end=5.0,
                                 snapshot_times=(1.0, 5.0)))
    oracle = lv_ode_masses([1.0, 5.0])
    rel = np.max(np.abs(sol.masses - oracle) / oracle)
    pde_ok = rel <= 1e-3

    reps, K = 40, 10_000
    finals = np.empty((reps, 2))
    for s in range(reps):
        traj = ibm.simulate(model, lv_initial(),
                            SimParams(t_end=1.0, dt=0.01, K=K, seed=500 + s))
        finals[s] = traj.masses()[-1]
    mean = finals.mean(axis=0)
    se = finals.std(axis=0, ddof=1) / math.sqrt(reps)
    z = np.abs(mean - oracle[0]) / se
    ibm_ok = bool(np.all(z <= 3.0))
    _report(2, "Lotka-Volterra oracle", pde_ok and ibm_ok,
            f"pde rel err {rel:.2e} (tol 1e-3), ibm z-scores {z.round(2)}")


def test_criterion_03_pure_birth_exponential():
    r, t_end, K, reps = 0.5, 1.0, 200, 200
    model = builtin_model("constant-coefficients", 1, 1, sigma0=0.2,
                          r=r, rbar=r)
    init = [InitialCondition(1.0, "gaussian", std=0.6)]
    finals = np.empty(reps)
    for s in range(reps):
        traj = ibm.simulate(model, init,
                            SimParams(t_end=t_end, dt=0.1, K=K, seed=7000 + s,
                                      scheme="thinned-events"))
        finals[s] = traj.masses()[-1][0]
    se = finals.std(ddof=1) / math.sqrt(reps)
    z = abs(finals.mean() - math.exp(r * t_end)) / se
    _report(3, "pure-birth exponential", z <= 3.0,
            f"mean {finals.mean():.4f} vs e^r {math.exp(r):.4f}, z={z:.2f}")


def test_criterion_04_large_k_convergence(tmp_path):
    cfg = {
        "seed": 11,
        "model": {"M": 1, "dim": 1, "family": "isotropic-saturating",
                  "params": {"psi_max": 0.25},
                  "kernels": {"G": {"family": "gaussian", "bandwidth": 0.5}}},
        "initial": [{"mass": 0.3, "kind": "gaussian", "std": 0.8}],
        "ibm": {"K": [100, 1000, 10000], "dt": 0.05, "t_end": 1.0,
                "replicas": 50, "snapshot_times": [1.0]},
        "pde": {"lo": -5.0, "hi": 5.0, "cells": 128, "dt": 0.01,
                "t_end": 1.0},
    }
    rep = study_large_k(cfg, str(tmp_path), seed=11)
    _report(4, "large-K convergence", rep.passed,
            f"distances {rep.summary['final_distances']}, "
            f"slope {rep.summary['slope']} (informational)")


def test_criterion_05_dirac_competition_rate(tmp_path):
    cfg = {
        "seed": 13,
        "model": {"M": 2, "dim": 1, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [1.0, 1.0],
                  "rbar": [1.0, 1.0], "comp": [[1.0, 0.5], [0.5, 1.0]]},
        "initial": [{"mass": 0.5, "kind": "gaussian", "mean": 0.0,
                     "std": 0.6},
                    {"mass": 0.5, "kind": "gaussian", "mean": 0.3,
                     "std": 0.6}],
        "pde": {"lo": -5.0, "hi": 5.0, "cells": 128, "dt": 0.001,
                "t_end": 1.0, "snapshot_times": [0.0, 0.5, 1.0],
                "eps": [0.4, 0.2, 0.1, 0.05]},
    }
    rep = study_dirac(cfg, str(tmp_path), seed=13)
    _report(5, "Dirac-competition rate", rep.passed,
            f"slope {rep.summary['slope']} (target 1.0 +- 0.3), "
            f"band {rep.summary['slope_band']}")


def test_criterion_06_flow_inverse_identity():
    c = synthetic_coeffs()
    y = np.linspace(-0.5, 0.5, 16)[:, None]
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        e = compose_inverse_forward(c, 0, 0.5, y, dt,
                                    np.random.default_rng(21))
        errs.append(float(np.mean(e)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 1.2 <= r1 <= 3.0 and 1.2 <= r2 <= 3.0
    _report(6, "flow inverse identity", ok,
            f"mean errors {[f'{e:.2e}' for e in errs]}, "
            f"halving ratios {r1:.2f}, {r2:.2f} (target [1.2, 3])")


def test_criterion_07_jacobian_consistency():
    # variational Jacobian vs common-noise finite difference in d=1
    c = synthetic_coeffs()
    t, dt, eps = 0.5, 1e-3, 1e-6
    y0 = np.array([[0.2]])
    m = int(round(t / dt))
    inc = np.random.default_rng(22).standard_normal((m, 3, 1)) * math.sqrt(dt)
    inc[:, 1:] = inc[:, :1]
    inv1 = inverse_flow(c, 0, t, np.vstack([y0, y0 + eps, y0 - eps]),
                        dt=dt, increments=inc)
    fd = (inv1.eta0[1, 0] - inv1.eta0[2, 0]) / (2 * eps)
    rel_fd = abs(inv1.jacobians[-1][0, 0, 0] - fd) / abs(fd)

    # determinant routes in d=1 and d=2, positivity on every path
    gaps, all_pos = [], True
    inv = inverse_flow(c, 0, t, np.linspace(-1, 1, 12)[:, None], dt=dt,
                       rng=np.random.default_rng(23))
    gaps.append(float(np.max(np.abs(inv.det_matrix - inv.det_sde)
                             / np.abs(inv.det_matrix))))
    all_pos &= bool(np.all(inv.det_matrix > 0) and np.all(inv.det_sde > 0))

    c2 = synthetic_coeffs(d=2)
    y2 = np.random.default_rng(24).uniform(-1, 1, size=(8, 2))
    inv2 = inverse_flow(c2, 0, 0.4, y2, dt=2e-3,
                        rng=np.random.default_rng(25))
    gaps.append(float(np.max(np.abs(inv2.det_matrix - inv2.det_sde)
                             / np.abs(inv2.det_matrix))))
    all_pos &= bool(np.all(inv2.det_matrix > 0) and np.all(inv2.det_sde > 0))

    ok = rel_fd <= 1e-2 and max(gaps) <= 0.01 and all_pos
    _report(7, "Jacobian consistency", ok,
            f"FD rel err {rel_fd:.2e} (tol 1e-2), det route gaps "
            f"{[f'{g:.2e}' for g in gaps]} (tol 1e-2), det>0 {all_pos}")


def test_criterion_08_feynman_kac_consistency(tmp_path):
    cfg = {
        "seed": 29,
        "model": {"M": 1, "dim": 1, "family": "attraction-drift",
                  "params": {"sigma0": 0.35, "alpha": 0.3},
                  "growth": [{"kind": "bump", "base": 0.3, "amp": 1.0,
                              "center": 0.0, "width": 1.0}],
                  "kernels": {"C": {"family": "gaussian", "bandwidth": 0.4}}},
        "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
        "pde": {"lo": -6.0, "hi": 6.0, "cells": 128, "dt": 0.002,
                "t_end": 0.5},
        "flow": {"species": 0, "t": 0.5, "dt": 0.002, "n_paths": 400},
    }
    rep = study_flow(cfg, str(tmp_path), seed=29)
    _report(8, "Feynman-Kac consistency", rep.passed,
            f"{rep.summary['density_points_ok']}/{rep.summary['n_points']} "
            f"probes within 3se+budget, fk mass {rep.summary['fk_mass']} vs "
            f"pde {rep.summary['pde_mass']} (budget {rep.summary['budget']})")


def test_criterion_09_bl_metric_fixtures():
    fixture_err = 0.0
    for h in (0.5, 1.0, 2.0):
        mu = DiscreteMeasure(np.array([[0.0]]), np.array([1.0]))
        nu = DiscreteMeasure(np.array([[h]]), np.array([1.0]))
        got = bl_distance(mu, nu).value
        fixture_err = max(fixture_err, abs(got - 2 * h / (h + 2)))
    fixtures_ok = fixture_err <= 1e-4

    rng = np.random.default_rng(31)
    axiom_err = 0.0
    for _ in range(5):
        ms = [DiscreteMeasure(rng.normal(size=(10, 1)),
                              rng.uniform(0.1, 1.0, 10)) for _ in range(3)]
        axiom_err = max(axiom_err, bl_distance(ms[0], ms[0]).value)
        dab = bl_distance(ms[0], ms[1]).value
        dba = bl_distance(ms[1], ms[0]).value
        axiom_err = max(axiom_err, abs(dab - dba))
        dbc = bl_distance(ms[1], ms[2]).value
        dac = bl_distance(ms[0], ms[2]).value
        axiom_err = max(axiom_err, dac - (dab + dbc))
    axioms_ok = axiom_err <= 1e-6
    _report(9, "BL metric fixtures", fixtures_ok and axioms_ok,
            f"2h/(h+2) max err {fixture_err:.2e} (tol 1e-4), "
            f"axiom max violation {axiom_err:.2e} (tol 1e-6)")


def test_criterion_10_uniqueness_stability(tmp_path):
    cfg = {
        "seed": 37,
        "model": {"M": 1, "dim": 1, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [0.5], "rbar": [0.5],
                  "kernels": {"C": {"family": "gaussian", "bandwidth": 0.5}}},
        "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
        "pde": {"lo": -5.0, "hi": 5.0, "cells": 128, "dt": 0.002,
                "t_end": 0.5, "snapshot_times": [0.0, 0.25, 0.5]},
        "uniqueness": {"deltas": [0.2, 0.1, 0.05]},
    }
    rep = study_uniqueness(cfg, str(tmp_path), seed=37)
    _report(10, "uniqueness stability", rep.passed,
            f"identical-run distance {rep.summary['identical_run_distance']} "
            f"(tol 1e-8), ratios {rep.summary['stability_ratios']} "
            f"(spread {rep.summary['ratio_spread']}, tol 2.0)")

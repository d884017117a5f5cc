"""Observed convergence orders of the discretizations.

Each test refines one discretization parameter and asserts the observed
order in a band around the theoretical one; the bands come from the
measurements logged in CHANGES.md, and each test prints what it observed.
"""

import math

import numpy as np
import pytest
from _coefficients import synthetic_coeffs

from crossdiff.config import (build_initial, build_model, grid_box,
                              mollified_C, solver_params)
from crossdiff.flow import compose_inverse_forward
from crossdiff.initial import project_to_grid
from crossdiff.pde import solve


def test_inverse_flow_strong_order_one_half():
    # mean |X_{0,t}(eta_{0,t}(y)) - y| of the criterion-06 composition on
    # 256 paths: slopes 0.43 to 0.60 over seeds 0-19 (mean 0.50, sd 0.04)
    c = synthetic_coeffs()
    y = np.linspace(-0.5, 0.5, 256)[:, None]
    dts = np.array([8e-3, 4e-3, 2e-3, 1e-3])
    errs = [float(np.mean(compose_inverse_forward(
        c, 0, 0.5, y, dt, np.random.default_rng(0)))) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    print(f"inverse flow: strong order {slope:.3f}")
    assert 0.35 <= slope <= 0.65


# criterion 08 to t = 0.25 (kernel mode, Gaussian C), criterion 05 (local
# mode, two species) and the 2-d uniqueness problem (kernel mode)
CASES = {
    "1d-kernel": ({"M": 1, "dim": 1, "family": "attraction-drift",
                   "params": {"sigma0": 0.35, "alpha": 0.3},
                   "growth": [{"kind": "bump", "base": 0.3, "amp": 1.0,
                               "center": 0.0, "width": 1.0}],
                   "kernels": {"C": {"family": "gaussian",
                                     "bandwidth": 0.4}}},
                  [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
                  {"lo": -6.0, "hi": 6.0, "dt": 5e-4, "t_end": 0.25,
                   "mode": "kernel"}, (64, 128, 256, 512)),
    "1d-local": ({"M": 2, "dim": 1, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [1.0, 1.0],
                  "rbar": [1.0, 1.0], "comp": [[1.0, 0.5], [0.5, 1.0]]},
                 [{"mass": 0.5, "kind": "gaussian", "mean": 0.0, "std": 0.6},
                  {"mass": 0.5, "kind": "gaussian", "mean": 0.3, "std": 0.6}],
                 {"lo": -5.0, "hi": 5.0, "dt": 5e-4, "t_end": 1.0,
                  "mode": "local"}, (64, 128, 256, 512)),
    "2d-kernel": ({"M": 1, "dim": 2, "family": "constant-coefficients",
                   "params": {"sigma0": 0.3}, "r": [0.5], "rbar": [0.5],
                   "kernels": {"C": {"family": "gaussian",
                                     "bandwidth": 0.5}}},
                  [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
                  {"lo": -4.0, "hi": 4.0, "dt": 0.005, "t_end": 0.5,
                   "mode": "kernel"}, (12, 24, 48, 96)),
}


def _restrict(values, d):
    """Mean over the 2^d fine cells of each coarse cell."""
    for a in range(1, d + 1):
        shape = list(values.shape)
        shape[a:a + 1] = [shape[a] // 2, 2]
        values = values.reshape(shape).mean(axis=a + 1)
    return values


@pytest.mark.parametrize("case", sorted(CASES))
def test_pde_space_order_two(case):
    # self-convergence at a fixed dt: e_h = |u_h - R u_{h/2}|_1 at t_end,
    # with R the mean onto the coarse cells.  Measured orders:
    # 1d-kernel 2.007, 2.002; 1d-local 1.999, 2.001; 2d-kernel 2.060, 1.992
    model, initial, pde, cells = CASES[case]
    finals = []
    for n in cells:
        cfg = {"model": model, "initial": initial,
               "pde": dict(pde, cells=n)}
        u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
        finals.append(solve(build_model(cfg), u0,
                            solver_params(cfg)).snapshots[-1])
    d = finals[0].dim
    errs = [float(np.sum(np.abs(c.values - _restrict(f.values, d))))
            * c.cell_volume for c, f in zip(finals, finals[1:])]
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    print(f"{case}: errors {errs}, orders {orders}")
    assert all(1.8 <= p <= 2.2 for p in orders)


def test_pde_time_order_one():
    # self-convergence at fixed h: e_dt = |u_dt - u_{dt/2}|_1 at t = 0.2 on
    # the criterion-05 model in kernel mode at eps = 0.1, 128 cells, for
    # forward Euler at dt = 0.004, 0.002, 0.001, 0.0005.  Measured orders:
    # 0.9984, 0.9992
    model, initial, pde, _ = CASES["1d-local"]
    finals = []
    for dt in (0.004, 0.002, 0.001, 0.0005):
        cfg = {"model": model, "initial": initial,
               "pde": dict(pde, cells=128, dt=dt, t_end=0.2, mode="kernel")}
        u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
        m = build_model(cfg, C_kernels=mollified_C(cfg, math.sqrt(0.1)))
        finals.append(solve(m, u0, solver_params(cfg)).snapshots[-1])
    errs = [float(np.sum(np.abs(a.values - b.values))) * a.cell_volume
            for a, b in zip(finals, finals[1:])]
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    print(f"pde time: errors {errs}, orders {orders}")
    assert all(0.9 <= p <= 1.1 for p in orders)

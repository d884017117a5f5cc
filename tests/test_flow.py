import math

import numpy as np
import pytest
from _coefficients import CallableCoefficients, synthetic_coeffs

from crossdiff.config import (build_initial, build_model, grid_box,
                              solver_params)
from crossdiff.flow import (ConvolutionTable, FlowError, FrozenCoefficients,
                            _inverse_coeff_fns, _lattice,
                            compose_inverse_forward, density_estimate,
                            feynman_kac_functional, forward_flow,
                            inverse_flow)
from crossdiff.grids import GridField
from crossdiff.initial import InitialCondition, project_to_grid
from crossdiff.kernels import KernelSpec, convolve_field, convolve_field_grid
from crossdiff.model import builtin_model
from crossdiff.pde import PDESolution, SolverParams, solve
from crossdiff.studies import frozen_flow, study_flow


def const_coeffs(sigma=0.3, drift=0.1, rate=0.0, noise_scale=1.0, d=1,
                 fields=None):
    m = builtin_model("constant-coefficients", 1, d, sigma0=sigma,
                      noise_scale=noise_scale)
    eye = np.eye(d)
    return CallableCoefficients(
        m,
        sigma_fn=lambda i, t, X: np.broadcast_to(sigma * eye,
                                                 (X.shape[0], d, d)),
        drift_fn=lambda i, t, X: np.full((X.shape[0], d), drift),
        rate_fn=lambda i, t, X: np.full(X.shape[0], rate), fields=fields)


def test_forward_deterministic_translation():
    c = const_coeffs(sigma=0.0, drift=0.4)
    out = forward_flow(c, 0, 0.0, 1.0, [[0.0], [2.0]], dt=0.01,
                       rng=np.random.default_rng(0))
    np.testing.assert_allclose(out, [[0.4], [2.4]], atol=1e-12)


def test_forward_zero_duration_is_identity():
    c = const_coeffs()
    out = forward_flow(c, 0, 0.5, 0.5, [[1.0]], dt=0.01,
                       rng=np.random.default_rng(0))
    np.testing.assert_allclose(out, [[1.0]])


def test_forward_variance_noise_convention():
    # Var X_t = noise_scale^2 sigma^2 t; default sqrt(2) doubles it
    sigma, t, n = 0.5, 0.5, 20_000
    c = const_coeffs(sigma=sigma, drift=0.0, noise_scale=math.sqrt(2.0))
    out = forward_flow(c, 0, 0.0, t, np.zeros((n, 1)), dt=0.01,
                       rng=np.random.default_rng(1))
    assert out.var() == pytest.approx(2 * sigma ** 2 * t, rel=0.03)


def test_inverse_trivial_translation():
    # sigma = 0, b = c: eta_{0,t}(y) = y - c t, Jacobian identity, det 1
    c = const_coeffs(sigma=0.0, drift=0.4)
    inv = inverse_flow(c, 0, 1.0, [[1.0], [-2.0]], dt=0.01,
                       rng=np.random.default_rng(2))
    np.testing.assert_allclose(inv.eta0, [[0.6], [-2.4]], atol=1e-12)
    np.testing.assert_allclose(inv.jacobians[-1],
                               np.broadcast_to(np.eye(1), (2, 1, 1)),
                               atol=1e-12)
    np.testing.assert_allclose(inv.det_matrix, 1.0, atol=1e-12)
    np.testing.assert_allclose(inv.det_sde, 1.0, atol=1e-10)


def test_inverse_det_routes_agree_1d():
    c = synthetic_coeffs()
    inv = inverse_flow(c, 0, 0.5, np.linspace(-1, 1, 8)[:, None], dt=0.002,
                       rng=np.random.default_rng(3))
    gap = np.max(np.abs(inv.det_matrix - inv.det_sde)
                 / np.maximum(np.abs(inv.det_matrix), 1e-12))
    assert gap < 1e-6
    assert np.all(inv.det_matrix > 0)


def test_inverse_det_routes_agree_2d():
    c = synthetic_coeffs(d=2)
    y = np.random.default_rng(0).uniform(-1, 1, size=(6, 2))
    inv = inverse_flow(c, 0, 0.4, y, dt=0.002, rng=np.random.default_rng(4))
    gap = np.max(np.abs(inv.det_matrix - inv.det_sde)
                 / np.maximum(np.abs(inv.det_matrix), 1e-12))
    assert gap < 0.01
    assert np.all(inv.det_matrix > 0)
    assert np.all(inv.det_sde > 0)


def test_jacobian_matches_common_noise_finite_difference():
    # the variational system is the exact derivative of the Euler scheme
    c = synthetic_coeffs()
    t, dt, eps = 0.3, 0.005, 1e-6
    y0 = np.array([[0.2]])
    rng = np.random.default_rng(5)
    m = int(round(t / dt))
    inc = rng.standard_normal((m, 3, 1)) * math.sqrt(dt)
    inc[:, 1:] = inc[:, :1]    # common noise across the three starts
    inv = inverse_flow(c, 0, t, np.vstack([y0, y0 + eps, y0 - eps]),
                       dt=dt, increments=inc)
    fd = (inv.eta0[1, 0] - inv.eta0[2, 0]) / (2 * eps)
    assert inv.jacobians[-1][0, 0, 0] == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2])
def test_inverse_flow_step_evaluates_each_stencil_point_once(monkeypatch, d):
    # the nested differences of one step visit 1 + 2d + 4d^2 point sets
    # for sigma and 1 + 2d for the drift
    c = synthetic_coeffs(d)
    calls = {"_sigma_fn": 0, "_drift_fn": 0}
    for name in calls:
        def counted(i, t, X, fn=getattr(c, name), name=name):
            calls[name] += 1
            return fn(i, t, X)
        monkeypatch.setattr(c, name, counted)
    y = np.random.default_rng(0).uniform(-1, 1, (5, d))
    inverse_flow(c, 0, 0.01, y, dt=0.01, rng=np.random.default_rng(1))
    assert 0 < calls["_sigma_fn"] <= 1 + 2 * d + 4 * d * d
    assert 0 < calls["_drift_fn"] <= 1 + 2 * d


def test_shared_stencil_values_are_read_only():
    # A, its gradient, the Stratonovich correction and beta
    Y = np.linspace(-1.0, 1.0, 4)[:, None]
    for fn in _inverse_coeff_fns(synthetic_coeffs(), 0, 0.5, 1e-3):
        v = fn(0.0, Y)
        assert fn(0.0, Y.copy()) is v   # same bytes: one evaluation
        with pytest.raises(ValueError):
            v[0] += 1.0
        assert fn(0.1, Y) is not v      # the memo clears when s advances
        np.testing.assert_array_equal(fn(0.1, Y), v)


def test_composition_error_shrinks_with_dt():
    c = synthetic_coeffs()
    y = np.linspace(-0.5, 0.5, 16)[:, None]
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        e = compose_inverse_forward(c, 0, 0.5, y, dt,
                                    np.random.default_rng(6))
        errs.append(float(np.mean(e)))
    assert errs[0] > errs[1] > errs[2]


def test_feynman_kac_mass_no_reaction():
    # r = 0, C = 0, phi = 1: the functional is the conserved mass
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.3, r=0.0)
    u0 = project_to_grid([InitialCondition(0.8, "gaussian", std=0.7)],
                         [-6.0], [6.0], [96])
    sol = solve(m, u0, SolverParams(
        dt=0.005, t_end=0.3, snapshot_times=tuple(np.linspace(0, 0.3, 13))))
    c = FrozenCoefficients.from_pde(m, sol)
    est = feynman_kac_functional(c, m, lambda x: np.ones(x.shape[0]),
                                 0, 0.3, n_paths=64, dt=0.025,
                                 rng=np.random.default_rng(7))
    assert est.value == pytest.approx(0.8, abs=1e-9)
    assert est.stderr < 1e-9


def test_feynman_kac_constant_rate():
    # frozen coefficients with sigma = b = 0 and rate r: e^{rt} * mass
    u0 = project_to_grid([InitialCondition(1.0, "gaussian", std=0.7)],
                         [-6.0], [6.0], [96])
    c = const_coeffs(sigma=0.0, drift=0.0, rate=0.5, fields=[u0])
    est = feynman_kac_functional(c, c.model, lambda x: np.ones(x.shape[0]),
                                 0, 1.0, n_paths=8, dt=0.01,
                                 rng=np.random.default_rng(8))
    assert est.value == pytest.approx(math.exp(0.5), rel=1e-6)


def test_density_estimate_trivial_identity():
    # sigma = b = 0, r = 0: density at y stays xi0(y)
    c = const_coeffs(sigma=0.0, drift=0.0, rate=0.0)
    ic = InitialCondition(1.0, "gaussian", std=0.8)
    y = np.array([[0.0], [0.5], [-1.0]])
    vals, errs = density_estimate(
        c, c.model, 0, y, t=0.5, n_paths=4, dt=0.01,
        rng=np.random.default_rng(9), density0=lambda x: ic.density(x))
    np.testing.assert_allclose(vals, ic.density(y), rtol=1e-10)
    np.testing.assert_allclose(errs, 0.0, atol=1e-12)


def test_density_estimate_constant_rate_translation():
    # sigma = 0, b = c, rate = r: xi_t(y) = e^{rt} xi0(y - ct)
    r, b, t = 0.4, 0.3, 0.5
    c = const_coeffs(sigma=0.0, drift=b, rate=r)
    ic = InitialCondition(1.0, "gaussian", std=0.8)
    y = np.array([[0.2], [-0.7]])
    vals, _ = density_estimate(
        c, c.model, 0, y, t=t, n_paths=2, dt=0.005,
        rng=np.random.default_rng(10), density0=lambda x: ic.density(x))
    expect = math.exp(r * t) * ic.density(y - b * t)
    np.testing.assert_allclose(vals, expect, rtol=1e-6)


def test_from_pde_spacing_check():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.3)
    u0 = project_to_grid([InitialCondition(1.0, "gaussian")],
                         [-6.0], [6.0], [64])
    sol = solve(m, u0, SolverParams(dt=0.005, t_end=0.5,
                                    snapshot_times=(0.0, 0.25, 0.5)))
    c = FrozenCoefficients.from_pde(m, sol)
    with pytest.raises(ValueError):
        forward_flow(c, 0, 0.0, 0.5, [[0.0]], dt=0.005,
                     rng=np.random.default_rng(0))
    # dt large enough that snapshots are within 10 dt is accepted
    forward_flow(c, 0, 0.0, 0.5, [[0.0]], dt=0.025,
                 rng=np.random.default_rng(0))


@pytest.mark.parametrize("mode,with_C", [("kernel", False), ("local", False),
                                         ("local", True)])
def test_fk_mass_follows_the_pde_competition_mode(tmp_path, mode, with_C):
    # kernel mode competes through C (none here), local mode through
    # comp = 2 and never through C
    kernels = {"G": {"family": "gaussian", "bandwidth": 0.5},
               "H": {"family": "gaussian", "bandwidth": 0.5}}
    if with_C:
        kernels["C"] = {"family": "gaussian", "bandwidth": 0.5}
    cfg = {
        "seed": 7,
        "model": {"M": 1, "dim": 1, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [0.0], "rbar": [0.0],
                  "comp": [[2.0]], "kernels": kernels},
        "initial": [{"mass": 0.5, "kind": "gaussian", "std": 0.6}],
        "pde": {"lo": -5.0, "hi": 5.0, "cells": 32, "dt": 0.005,
                "t_end": 0.1, "mode": mode},
        "flow": {"t": 0.1, "dt": 0.005, "n_paths": 16},
    }
    s = study_flow(cfg, str(tmp_path), seed=7).summary
    assert abs(s["fk_mass"] - s["pde_mass"]) <= 3.0 * s["fk_stderr"]
    if mode == "kernel":
        assert s["pde_mass"] == pytest.approx(0.5, abs=1e-6)


def test_forward_flow_guard_raises_on_blowup():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0)
    c = CallableCoefficients(
        m,
        sigma_fn=lambda i, t, X: np.zeros((X.shape[0], 1, 1)),
        drift_fn=lambda i, t, X: X ** 3)
    with pytest.raises(FlowError):
        forward_flow(c, 0, 0.0, 5.0, [[4.0]], dt=0.05,
                     rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# coefficient tables against the exact quadrature

def _table_case(family, cells, dim, std):
    """Two PDE snapshots of a one-species model with competition kernel C.

    d = 1 is the criterion-08 problem; d = 2 the uniqueness-2d problem
    (box [-4, 4]^2, C bandwidth 0.5) on a cells^2 grid.  Their initial
    density has std 0.6; std "wide" reaches the edge of the box (two
    standard deviations out), so k * u in the padding is of the order of
    its sup.
    """
    bw, lo, hi = (0.4, -6.0, 6.0) if dim == 1 else (0.5, -4.0, 4.0)
    model = ({"M": 1, "dim": 1, "family": "attraction-drift",
              "params": {"sigma0": 0.35, "alpha": 0.3},
              "growth": [{"kind": "bump", "base": 0.3, "amp": 1.0,
                          "center": 0.0, "width": 1.0}]}
             if dim == 1 else
             {"M": 1, "dim": 2, "family": "constant-coefficients",
              "params": {"sigma0": 0.3}, "r": [0.5], "rbar": [0.5]})
    model["kernels"] = {"C": {"family": family, "bandwidth": bw}}
    std = hi / 2 if std == "wide" else std
    cfg = {"seed": 1, "model": model,
           "initial": [{"mass": 0.8, "kind": "gaussian", "std": std}],
           "pde": {"lo": lo, "hi": hi, "cells": cells, "dt": 0.002,
                   "t_end": 0.02, "snapshot_times": [0.0, 0.02]}}
    m = build_model(cfg)
    u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
    sol = solve(m, u0, solver_params(cfg))
    return m, sol


@pytest.mark.parametrize("std", [0.6, "wide"])
@pytest.mark.parametrize("family", ["gaussian", "compact-bump"])
@pytest.mark.parametrize("cells,dim", [(128, 1), (12, 2), (32, 2)])
def test_tables_match_direct_quadrature(family, cells, dim, std):
    m, sol = _table_case(family, cells, dim, std)
    coeffs = FrozenCoefficients.from_pde(m, sol)
    k = m.C[0][0]
    # the 2-d compact-bump lattice (bandwidth / 64) exceeds the node cap,
    # so that kernel keeps the exact path
    assert ((k, 0) in coeffs.tables) == (dim == 1 or family == "gaussian")
    t, w = 0.013, 0.65          # between the snapshots at 0 and 0.02
    a, b = sol.snapshots
    u_t = GridField(a.lo, a.hi, (1.0 - w) * a.values + w * b.values, t)
    sup = float(np.max(convolve_field_grid(k, u_t, 0)))
    R = k.support_radius
    rng = np.random.default_rng(cells + dim)
    lo, hi = a.lo[0], a.hi[0]
    box = rng.uniform(lo, hi, (400, dim))
    side = rng.choice([-1.0, 1.0], (200, dim))
    edge = np.where(side > 0, hi, lo)
    padding = edge + side * rng.uniform(0, R, (200, dim))
    beyond = edge + side * (R + 3 * a.spacing[0]
                            + rng.uniform(0, 1, (200, dim)))
    for X, where in ((box, "box"), (padding, "padding"),
                     (beyond, "beyond")):
        got = coeffs.convolved(k, 0, t, X)
        ref = convolve_field(k, u_t, 0, X)
        err = float(np.max(np.abs(got - ref)))
        assert err <= 1e-5 * sup, (where, err / sup)
        if where == "beyond":
            assert err <= 1e-12 * sup      # exact path
    # the rate read by the Feynman-Kac weight goes through the same tables
    np.testing.assert_allclose(
        coeffs.fk_rate(0, t, box),
        m.eval_growth(0, box) - convolve_field(k, u_t, 0, box),
        rtol=0, atol=1e-5 * sup)


@pytest.mark.parametrize("family,dim,ratio", [
    ("gaussian", 1, 0.125), ("gaussian", 1, 0.9), ("gaussian", 2, 0.125),
    ("gaussian", 2, 0.9), ("compact-bump", 1, 0.25),
    ("compact-bump", 1, 0.9), ("compact-bump", 2, 0.25)])
def test_tables_single_cell_field(family, dim, ratio):
    # one occupied cell: k * u is the kernel itself, the least smooth field
    # a table meets; ratio is cell width over bandwidth
    bw, n = 0.5, 16
    half = n * ratio * bw / 2
    k = KernelSpec(family, dim, bandwidth=bw)
    v = np.zeros((1,) + (n,) * dim)
    v[(0,) + (n // 2,) * dim] = 1.0
    g = GridField(np.full(dim, -half), np.full(dim, half), v)
    m = builtin_model("constant-coefficients", 1, dim, C=[[k]])
    sol = PDESolution([g], SolverParams(dt=0.1, t_end=0.1), 0.0, 0.0, False,
                      np.array([[g.mass(0)]]))
    coeffs = FrozenCoefficients.from_pde(m, sol)
    assert (k, 0) in coeffs.tables
    X = np.random.default_rng(n).uniform(-half - bw, half + bw, (3000, dim))
    ref = convolve_field(k, g, 0, X)
    err = np.max(np.abs(coeffs.convolved(k, 0, 0.0, X) - ref))
    assert err <= 1e-5 * np.max(ref)


def test_from_pde_gaussian_G_determinant_routes_agree():
    # a non-constant Gaussian G: the nested finite differences of
    # inverse_flow read second derivatives of sigma through the C^2 spline
    cfg = {"seed": 3,
           "model": {"M": 1, "dim": 1, "family": "isotropic-saturating",
                     "params": {"psi_max": 0.25},
                     "kernels": {"G": {"family": "gaussian",
                                       "bandwidth": 0.5}}},
           "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
           "pde": {"lo": -5.0, "hi": 5.0, "cells": 128, "dt": 0.002,
                   "t_end": 0.2},
           "flow": {"t": 0.2, "dt": 0.005}}
    m = build_model(cfg)
    u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
    t, dt, _, coeffs = frozen_flow(cfg, m, u0)
    assert (m.G[0][0], 0) in coeffs.tables
    y = np.repeat(np.array([[-0.5], [0.0], [0.7]]), 20, axis=0)
    inv = inverse_flow(coeffs, 0, t, y, dt, np.random.default_rng(12))
    gap = np.max(np.abs(inv.det_matrix - inv.det_sde)
                 / np.abs(inv.det_matrix))
    assert gap <= 1e-2
    assert np.all(inv.det_matrix > 0) and np.all(inv.det_sde > 0)
    # same noise on the exact quadrature path: the same determinants
    coeffs.tables = {}
    exact = inverse_flow(coeffs, 0, t, y, dt, np.random.default_rng(12))
    np.testing.assert_allclose(inv.det_matrix, exact.det_matrix, rtol=1e-4)


@pytest.mark.parametrize("cells,dim", [(128, 1), (12, 2)])
def test_table_reads_equal_per_snapshot_splines(monkeypatch, cells, dim):
    # three snapshots, so a blend may start at a later column
    import scipy.interpolate as si
    m, sol = _table_case("gaussian", cells, dim, 0.6)
    a, b = sol.snapshots
    fields = [a, b, GridField(a.lo, a.hi, 0.5 * (a.values + b.values))]
    k = m.C[0][0]
    built, make = [], si.make_interp_spline

    def recorded(x, y, **kwargs):
        built.append((x, y))
        return make(x, y, **kwargs)
    monkeypatch.setattr(si, "make_interp_spline", recorded)
    table = ConvolutionTable(k, fields, 0, *_lattice(k, fields))
    rng = np.random.default_rng(dim)
    X = rng.uniform(a.lo[0], a.hi[0], (300, dim))
    if dim == 1:
        (x, values), = built
        per = [make(x, v, k=3) for v in values]
        for s, spline in enumerate(per):
            assert np.array_equal(table.spline.c[:, s], spline.c)

        def read(s):
            return per[s](X[:, 0])
    else:
        def read(s):
            return table.splines[s].ev(X[:, 0], X[:, 1])
    for weights in ([(0, 1.0)], [(0, 0.3), (1, 0.7)], [(1, 0.45), (2, 0.55)],
                    [(2, 1.0)]):
        ref = np.zeros(X.shape[0])
        for s, w in weights:
            ref += w * read(s)
        assert np.array_equal(table(weights, X), ref)

import itertools
import math

import numpy as np
import pytest
from _coefficients import CallableCoefficients, synthetic_coeffs

from crossdiff import flow, kernels
from crossdiff.config import (build_initial, build_model, grid_box,
                              solver_params)
from crossdiff.flow import (ConvolutionTable, FlowError, FrozenCoefficients,
                            _lattice, compose_inverse_forward,
                            density_estimate, feynman_kac_functional,
                            forward_flow, inverse_flow)
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
    # one sigma call on all 1 + 2d + 4d^2 point sets of a step and one
    # drift call on its first 1 + 2d
    c = synthetic_coeffs(d)
    calls = {"_sigma_fn": 0, "_drift_fn": 0}
    for name in calls:
        def counted(i, t, X, fn=getattr(c, name), name=name):
            calls[name] += 1
            return fn(i, t, X)
        monkeypatch.setattr(c, name, counted)
    y = np.random.default_rng(0).uniform(-1, 1, (5, d))
    inv = inverse_flow(c, 0, 0.03, y, dt=0.01, rng=np.random.default_rng(1))
    m = inv.increments.shape[0]
    assert m == 3
    assert calls == {"_sigma_fn": m, "_drift_fn": m}


def _central(fn, X, h):
    """[d_p fn(X)] by central differences: fn returns (n, ...), the result
    is (n, d, ...)."""
    d = X.shape[1]
    cols = []
    for p in range(d):
        dx = np.zeros(d)
        dx[p] = h
        cols.append((fn(X + dx) - fn(X - dx)) / (2.0 * h))
    return np.stack(cols, axis=1)


def _reference_inverse_flow(coeffs, i, t, y, increments):
    """inverse_flow with every coefficient derivative a nest of plain
    central differences, evaluated afresh at each use."""
    m, n, d = increments.shape
    h = t / m
    h_fd = 1e-4 * coeffs.domain_scale()

    def A(s, Y):
        return coeffs.sigma_eff(i, t - s, Y)

    def dA(s, Y):
        return _central(lambda Z: A(s, Z), Y, h_fd)

    def corr(s, Y):
        return np.einsum("nlq,nlkq->nk", A(s, Y), dA(s, Y))

    def beta(s, Y):
        return -(coeffs.drift(i, t - s, Y) - corr(s, Y))

    z = np.array(y, dtype=float)
    J = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    D = np.ones(n)
    out = [(z, J, np.ones(n), D)]
    for k in range(m):
        s, dW = k * h, increments[k]
        a, g = A(s, z), dA(s, z)
        dbeta = _central(lambda Y: beta(s, Y), z, h_fd)
        div_A = np.einsum("nkkq->nq", g)
        ddivA = _central(lambda Y: np.einsum("nkkq->nq", dA(s, Y)), z, h_fd)
        dcorr = _central(lambda Y: corr(s, Y), z, h_fd)
        div_beta_circ = np.einsum("nkk->n", dbeta) \
            - 0.5 * np.einsum("nkk->n", dcorr)
        z_new = z + np.einsum("nkq,nq->nk", a, dW) + beta(s, z) * h
        J_new = J + np.einsum("npkq,nq,npl->nkl", g, dW, J) \
            + np.einsum("npk,npl->nkl", dbeta, J) * h
        ito_corr = 0.5 * (np.einsum("nq,nq->n", div_A, div_A)
                          + np.einsum("npq,npq->n", ddivA,
                                      np.swapaxes(a, 1, 2)))
        D = D + D * (np.einsum("nq,nq->n", div_A, dW)
                     + (div_beta_circ + ito_corr) * h)
        z, J = z_new, J_new
        out.append((z, J, np.linalg.det(J), D))
    return [np.stack(col) for col in zip(*out)]


@pytest.mark.parametrize("case", ["synthetic-1d", "synthetic-2d", "flow",
                                  "gaussian-G"])
def test_inverse_flow_equals_nested_central_differences(case):
    # bit for bit.  "flow" is the criterion-08 problem, whose constant G
    # and H are read through convolve_field at every point; "gaussian-G"
    # reads G from its table, and through convolve_field for the paths
    # that start beyond the table's lattice
    if case.startswith("synthetic"):
        d = int(case[-2])
        c, t, dt = synthetic_coeffs(d), 0.1, 0.01
        y = np.random.default_rng(d).uniform(-1, 1, (7, d))
    else:
        if case == "flow":
            m, sol = _table_case("gaussian", 128, 1, 0.6)
            c, t, dt = FrozenCoefficients.from_pde(m, sol), 0.02, 0.002
            k = m.C[0][0]
        else:
            m, t, dt, c = _gaussian_G_flow(0.05)
            k = m.G[0][0]
        y = np.array([[-0.4], [0.0], [0.9], [-9.5], [11.0]])
        assert not c.tables[(k, 0)]([(0, 1.0)], y[3:])[1].any()
    inv = inverse_flow(c, 0, t, y, dt, np.random.default_rng(17))
    ref = _reference_inverse_flow(c, 0, t, y, inv.increments)
    for got, want in zip((inv.paths, inv.jacobians, inv.det_matrix,
                          inv.det_sde), ref):
        assert np.array_equal(got, want)


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
    rng = np.random.default_rng(0)
    # every path function refuses snapshots more than 10 dt apart
    for run in (lambda: forward_flow(c, 0, 0.0, 0.5, [[0.0]], 0.005, rng),
                lambda: inverse_flow(c, 0, 0.5, [[0.0]], 0.005, rng),
                lambda: feynman_kac_functional(
                    c, m, lambda x: np.ones(x.shape[0]), 0, 0.5, 4, 0.005,
                    rng)):
        with pytest.raises(ValueError, match="snapshot spacing 0.25 exceeds"):
            run()
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
    sup = float(np.max(convolve_field_grid([k], u_t, [0])))
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


def _gaussian_G_flow(t):
    """(model, t, dt, coefficients) of the frozen flow to t of a saturating
    sigma that reads a Gaussian G."""
    cfg = {"seed": 3,
           "model": {"M": 1, "dim": 1, "family": "isotropic-saturating",
                     "params": {"psi_max": 0.25},
                     "kernels": {"G": {"family": "gaussian",
                                       "bandwidth": 0.5}}},
           "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
           "pde": {"lo": -5.0, "hi": 5.0, "cells": 128, "dt": 0.002,
                   "t_end": t},
           "flow": {"t": t, "dt": 0.005}}
    m = build_model(cfg)
    u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
    t, dt, _, coeffs = frozen_flow(cfg, m, u0)
    return m, t, dt, coeffs


def test_from_pde_gaussian_G_determinant_routes_agree():
    # a non-constant Gaussian G: the nested finite differences of
    # inverse_flow read second derivatives of sigma through the C^2 spline
    m, t, dt, coeffs = _gaussian_G_flow(0.2)
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
    # three snapshots, so a blend may start at a later column; the pp read
    # differs from a per-snapshot spline library read by rounding only:
    # make_interp_spline in 1-d, RectBivariateSpline (s = 0) in 2-d.
    # The wide field keeps k * u far from 0 in the lattice's end intervals.
    from scipy.interpolate import RectBivariateSpline
    from scipy.interpolate import make_interp_spline as make
    m, sol = _table_case("gaussian", cells, dim, "wide")
    a, b = sol.snapshots
    fields = [a, b, GridField(a.lo, a.hi, 0.5 * (a.values + b.values))]
    k = m.C[0][0]
    built, fit = [], flow._not_a_knot_pp

    def recorded(x, y):
        built.append((x, y))
        return fit(x, y)
    monkeypatch.setattr(flow, "_not_a_knot_pp", recorded)
    table = ConvolutionTable(k, fields, 0, *_lattice(k, fields))
    # one block of snapshots, so one fit per axis; the first fit's rows
    # are the lattice values with axis 0 moved last
    sizes = [x.size for x in table.axes]
    assert [x.size for x, _ in built] == sizes
    x0, y = built[0]
    values = np.moveaxis(y.reshape([len(fields)] + sizes[1:] + sizes[:1]),
                         -1, 1)
    if dim == 1:
        per = [make(x0, v, k=3) for v in values]
    else:
        per = [RectBivariateSpline(*table.axes, v, kx=3, ky=3, s=0)
               for v in values]
    tol = 1e-14 * np.max(np.abs(values))
    # along each axis: random points, every breakpoint, and the two
    # double-width end intervals [x0, x2] and [x_-3, x_-1]; every
    # combination over the axes (the four corner regions in 2-d), and the
    # lattice's corners
    rng, n = np.random.default_rng(dim), max(sizes)
    along = [(rng.uniform(x[0], x[-1], n),
              np.resize(rng.permutation(np.r_[x[0], x[2:-2], x[-1]]), n),
              rng.uniform(x[0], x[2], n), rng.uniform(x[-3], x[-1], n))
             for x in table.axes]
    X = np.concatenate([np.stack(c, axis=1)
                        for c in itertools.product(*along)]
                       + [list(itertools.product(*((x[0], x[-1])
                                                   for x in table.axes)))])

    def read(s):
        return per[s](*X.T) if dim == 1 else per[s].ev(*X.T)
    for weights in ([(0, 1.0)], [(0, 0.3), (1, 0.7)], [(1, 0.45), (2, 0.55)],
                    [(2, 1.0)]):
        ref = np.zeros(X.shape[0])
        for s, w in weights:
            ref += w * read(s)
        values, covered = table(weights, X)
        assert covered.all()
        np.testing.assert_allclose(values, ref, rtol=0, atol=tol)


@pytest.mark.parametrize("family", ["gaussian", "compact-bump"])
@pytest.mark.parametrize("shape,r,pad", [((40,), [3], [4]),
                                         ((8, 6), [3, 2], [2, 3])])
def test_table_lattice_is_one_grid_convolution_per_snapshot(
        monkeypatch, family, shape, r, pad):
    # three snapshots of species 1 of 2: every lattice value, the
    # padding's included, is the direct quadrature of convolve_field at
    # its node, and the whole build adds one batch plan
    rng = np.random.default_rng(len(shape))
    d = len(shape)
    fields = [GridField(-np.ones(d), np.ones(d), rng.random((2, *shape)))
              for _ in range(3)]
    k = KernelSpec(family, d, bandwidth=0.3)
    built, fit = [], flow._not_a_knot_pp

    def recorded(x, y):
        built.append(y)
        return fit(x, y)
    monkeypatch.setattr(flow, "_not_a_knot_pp", recorded)
    before = kernels._batch_plan.cache_info()
    table = ConvolutionTable(k, fields, 1, np.array(r), np.array(pad))
    after = kernels._batch_plan.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
    # the first sub-cell centre of every PDE cell is its centre
    for a, x in enumerate(table.axes):
        assert x.size == r[a] * (shape[a] + 2 * pad[a])
        np.testing.assert_allclose(x[r[a] * pad[a]::r[a]][:shape[a]],
                                   fields[0].axis_centers(a),
                                   rtol=0, atol=1e-14)
    sizes = [x.size for x in table.axes]
    values = np.moveaxis(built[0].reshape([3] + sizes[1:] + sizes[:1]),
                         -1, 1)
    nodes = np.stack([m.ravel() for m in np.meshgrid(*table.axes,
                                                      indexing="ij")], axis=-1)
    for v, u in zip(values, fields):
        np.testing.assert_allclose(v.ravel(), convolve_field(k, u, 1, nodes),
                                   rtol=1e-8, atol=1e-12)


def test_table_rejects_nonuniform_lattice(monkeypatch):
    # a read finds a point's interval by arithmetic on each axis's step; in
    # 2-d only axis 1, fitted second, is perturbed
    fit = flow._not_a_knot_pp
    for cells, dim in ((128, 1), (12, 2)):
        m, sol = _table_case("gaussian", cells, dim, 0.6)
        fields = list(sol.snapshots)
        k = m.C[0][0]
        calls = []

        def perturbed(x, y):
            calls.append(x)
            return fit(x + 1e-3 * x ** 2 if len(calls) % dim == 0 else x, y)
        monkeypatch.setattr(flow, "_not_a_knot_pp", perturbed)
        with pytest.raises(ValueError, match="uniform"):
            ConvolutionTable(k, fields, 0, *_lattice(k, fields))
        assert len(calls) == dim


@pytest.mark.parametrize("cells,dim", [(128, 1), (12, 2)])
def test_table_reads_no_points(cells, dim):
    # a read of no points, as of an empty batch of paths, gives no values
    m, sol = _table_case("gaussian", cells, dim, 0.6)
    fields = list(sol.snapshots)
    k = m.C[0][0]
    table = ConvolutionTable(k, fields, 0, *_lattice(k, fields))
    X = np.zeros((0, dim))
    for weights in ([(0, 1.0)], [(0, 0.4), (1, 0.6)]):
        values, covered = table(weights, X)
        assert values.shape == covered.shape == (0,)


@pytest.mark.parametrize("cells,dim", [(128, 1), (12, 2)])
def test_table_covered_is_the_lattice_box(cells, dim):
    # covered is x[0] <= X <= x[-1] on every lattice axis, exactly at both
    # ends and one ulp beyond them; far and NaN coordinates are uncovered
    # and read without a warning (warnings are errors here), finite where
    # the coordinates are
    m, sol = _table_case("gaussian", cells, dim, 0.6)
    fields = list(sol.snapshots)
    k = m.C[0][0]
    table = ConvolutionTable(k, fields, 0, *_lattice(k, fields))
    ends = [np.array([x[0], np.nextafter(x[0], -np.inf), x[-1],
                      np.nextafter(x[-1], np.inf), x[0] - 1e6, x[-1] + 1e6,
                      np.nan, 0.5 * (x[0] + x[-1])]) for x in table.axes]
    X = np.array(list(itertools.product(*ends)))
    values, covered = table([(0, 0.4), (1, 0.6)], X)
    assert np.array_equal(covered, np.all(
        [(X[:, a] >= x[0]) & (X[:, a] <= x[-1])
         for a, x in enumerate(table.axes)], axis=0))
    assert covered.sum() == 3 ** dim
    assert np.isfinite(values[np.isfinite(X).all(axis=1)]).all()


@pytest.mark.parametrize("cells,dim", [(128, 1), (12, 2)])
def test_convolved_reads_each_batch_once(monkeypatch, cells, dim):
    # a mixed batch: the covered values equal reads of one point at a time
    # bit for bit, the others one convolve_field call on those points; an
    # all-covered batch makes no convolve_field call
    m, sol = _table_case("gaussian", cells, dim, 0.6)
    coeffs = FrozenCoefficients.from_pde(m, sol)
    k, t = m.C[0][0], 0.013
    table, weights = coeffs.tables[(k, 0)], coeffs._time_weights(t)
    calls = []

    def recorded(k, u, j, X):
        calls.append(X)
        return convolve_field(k, u, j, X)
    monkeypatch.setattr(flow, "convolve_field", recorded)
    rng = np.random.default_rng(dim)
    X = rng.uniform(-1.3, 1.3, (60, dim)) * table.axes[0][-1]
    reads = [table(weights, x[None]) for x in X]
    out = np.array([values[0] for values, _ in reads])
    covered = np.array([inside[0] for _, inside in reads])
    assert 0 < covered.sum() < X.shape[0]
    got = coeffs.convolved(k, 0, t, X)
    assert len(calls) == 1 and np.array_equal(calls[0], X[~covered])
    assert np.array_equal(got[covered], out[covered])
    assert np.array_equal(got[~covered], convolve_field(
        k, coeffs._field_at(t), 0, X[~covered]))
    calls.clear()
    assert np.array_equal(coeffs.convolved(k, 0, t, X[covered]),
                          out[covered])
    assert calls == []


@pytest.mark.parametrize("n", [4, 5, 40, 364])
def test_not_a_knot_fit_matches_make_interp_spline(n):
    # the pp form of scipy's not-a-knot interpolant: its distinct knots are
    # the breakpoints, its derivatives there the scaled coefficients; on a
    # uniform lattice (the tables') and on a non-uniform one
    from scipy.interpolate import make_interp_spline
    rng = np.random.default_rng(n)
    for x in (-1.5 + 0.0125 * np.arange(n),
              np.cumsum(rng.uniform(0.5, 1.5, n))):
        y = np.cumsum(rng.normal(size=(3, n)), axis=1) + np.sin(4 * x)
        brk, coef = flow._not_a_knot_pp(x, y)
        spline = make_interp_spline(x, y, k=3, axis=1)
        assert np.array_equal(brk, spline.t[3:-3])
        assert coef.shape == (4, 3, brk.size - 1)
        for m in range(4):
            ref = spline(brk[:-1], nu=m) / math.factorial(m)
            np.testing.assert_allclose(coef[3 - m], ref, rtol=0,
                                       atol=1e-13 * np.max(np.abs(ref)))

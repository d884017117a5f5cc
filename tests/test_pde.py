import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import yaml
from scipy.integrate import solve_ivp

from crossdiff import cli, pde
from crossdiff.grids import GridField
from crossdiff.initial import InitialCondition, project_to_grid
from crossdiff.kernels import KernelSpec, convolve_field_grid
from crossdiff.model import (CoefficientModel, builtin_model, density_free,
                             diffusion_matrix)
from crossdiff.pde import (CFLError, SolverParams, mass_bound_check, rhs,
                           solve, step)


def gaussian_field(mass=1.0, std=1.0, cells=160, half=7.0, M=1):
    specs = [InitialCondition(mass, "gaussian", std=std) for _ in range(M)]
    return project_to_grid(specs, [-half], [half], [cells])


def test_rhs_zero_for_zero_coefficients():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=0.0)
    u = gaussian_field()
    dudt, a_sup, *_ = rhs(u, pde._plan(u, m, "kernel"))
    np.testing.assert_allclose(dudt, 0.0, atol=1e-14)
    assert a_sup == 0.0


def test_rhs_pure_growth_is_r_times_u():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=0.7)
    u = gaussian_field()
    dudt, *_ = rhs(u, pde._plan(u, m, "kernel"))
    np.testing.assert_allclose(dudt[0], 0.7 * u.values[0], rtol=1e-12)


def test_rhs_laplacian_of_gaussian_second_order():
    # a_eff = sigma0^2 (sqrt(2) convention); rhs = a_eff * u'' for constant a
    sigma0 = 0.5
    m = builtin_model("constant-coefficients", 1, 1, sigma0=sigma0)
    errs = []
    for cells in (100, 200):
        u = gaussian_field(cells=cells, half=7.0)
        x = u.centers()[:, 0]
        dudt, a_sup, *_ = rhs(u, pde._plan(u, m, "kernel"))
        exact = sigma0 ** 2 * (x ** 2 - 1.0) * np.exp(-0.5 * x ** 2) \
            / math.sqrt(2 * math.pi)
        errs.append(np.max(np.abs(dudt[0] - exact)))
        assert a_sup == pytest.approx(sigma0 ** 2)
    # halving h divides the central-difference error by about 4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_pure_growth_exponential_mass():
    r = 0.5
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=r, rbar=r)
    u0 = gaussian_field()
    sol = solve(m, u0, SolverParams(dt=0.001, t_end=1.0,
                                    snapshot_times=(0.0, 1.0)))
    # explicit Euler on m' = r m: (1 + r dt)^n, compare to that exactly
    n = 1000
    expect = (1 + r * 0.001) ** n
    assert sol.masses[-1][0] == pytest.approx(expect, rel=1e-10)
    assert sol.masses[-1][0] == pytest.approx(math.exp(r), rel=1e-3)


def test_heat_equation_variance_growth():
    # pure diffusion: Var(t) = Var(0) + 2 a_eff t with a_eff = sigma0^2
    sigma0 = 0.4
    m = builtin_model("constant-coefficients", 1, 1, sigma0=sigma0)
    u0 = gaussian_field(std=0.8, cells=256, half=8.0)
    sol = solve(m, u0, SolverParams(dt=0.002, t_end=1.0,
                                    snapshot_times=(0.0, 0.5, 1.0)))
    for snap in sol.snapshots:
        x = snap.centers()[:, 0]
        w = snap.values[0] * snap.cell_volume
        mass = w.sum()
        mean = (x * w).sum() / mass
        var = ((x - mean) ** 2 * w).sum() / mass
        expect = 0.8 ** 2 + 2.0 * sigma0 ** 2 * snap.time
        assert var == pytest.approx(expect, rel=0.02)
    assert not sol.leak_flag


def test_lotka_volterra_masses_match_ode_oracle():
    # constant kernels + constant coefficients: masses follow the
    # competitive Lotka-Volterra ODE m_i' = m_i (r_i - sum_j c_ij m_j)
    r = np.array([1.0, 0.8])
    c = np.array([[1.0, 0.5], [0.6, 1.2]])
    from crossdiff.kernels import KernelSpec
    C = [[KernelSpec("constant", 1, amplitude=c[i, j]) for j in range(2)]
         for i in range(2)]
    m = builtin_model("constant-coefficients", 2, 1, sigma0=0.3,
                      r=list(r), rbar=list(r), C=C)
    u0 = project_to_grid([InitialCondition(0.4, "gaussian", std=0.6),
                          InitialCondition(0.6, "gaussian", std=0.6)],
                         [-7.0], [7.0], [160])
    sol = solve(m, u0, SolverParams(dt=0.004, t_end=1.0,
                                    snapshot_times=(1.0,)))

    def f(t, y):
        return y * (r - c @ y)

    ode = solve_ivp(f, (0.0, 1.0), [0.4, 0.6], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(sol.masses[-1], ode.y[:, -1], rtol=1e-3)


def test_second_order_spatial_convergence():
    sigma0 = 0.4
    m = builtin_model("constant-coefficients", 1, 1, sigma0=sigma0)
    t, std = 0.25, 0.8
    errs = []
    for cells in (64, 128):
        u0 = gaussian_field(std=std, cells=cells, half=8.0)
        sol = solve(m, u0, SolverParams(dt=5e-4, t_end=t))
        snap = sol.snapshots[-1]
        x = snap.centers()[:, 0]
        var = std ** 2 + 2.0 * sigma0 ** 2 * t
        exact = np.exp(-0.5 * x ** 2 / var) / math.sqrt(2 * math.pi * var)
        errs.append(np.max(np.abs(snap.values[0] - exact)))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_cfl_violation_raises():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=1.0)
    u0 = gaussian_field(cells=256, half=4.0)
    with pytest.raises(CFLError):
        step(u0, 0.01, pde._plan(u0, m, "kernel"))


def test_time_grid_validation():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0)
    u0 = gaussian_field()
    with pytest.raises(ValueError):
        solve(m, u0, SolverParams(dt=0.3, t_end=1.0))
    with pytest.raises(ValueError, match="not on the step grid"):
        solve(m, u0, SolverParams(dt=0.25, t_end=1.0,
                                  snapshot_times=(0.13,)))
    with pytest.raises(ValueError):
        SolverParams(dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        SolverParams(dt=0.1, t_end=1.0, mode="implicit")


def test_local_mode_requires_comp():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0)
    u0 = gaussian_field()
    with pytest.raises(ValueError):
        solve(m, u0, SolverParams(dt=0.1, t_end=0.2, mode="local"))


def test_local_mode_pointwise_logistic_decay():
    # sigma = 0, r = 0, local competition c: du/dt = -c u^2 pointwise,
    # so u(t, x) = u0(x) / (1 + c t u0(x))
    c = 1.5
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0,
                      comp=np.array([[c]]))
    u0 = gaussian_field()
    sol = solve(m, u0, SolverParams(dt=0.001, t_end=1.0, mode="local"))
    expect = u0.values[0] / (1.0 + c * 1.0 * u0.values[0])
    np.testing.assert_allclose(sol.snapshots[-1].values[0], expect,
                               rtol=2e-3, atol=1e-12)


def test_mass_bound_check_rows():
    r = 0.5
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=r, rbar=r)
    u0 = gaussian_field()
    sol = solve(m, u0, SolverParams(dt=0.001, t_end=0.5,
                                    snapshot_times=(0.0, 0.25, 0.5)))
    rep = mass_bound_check(sol, m)
    assert rep.passed
    assert len(rep.rows) == 3
    t, i, mass, bound, ok = rep.rows[-1]
    assert t == pytest.approx(0.5)
    assert mass <= bound + 1e-4
    # with rbar declared below the true rate the bound must fail
    m_bad = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=r,
                          rbar=0.0)
    sol_bad = solve(m_bad, u0, SolverParams(dt=0.001, t_end=0.5,
                                            snapshot_times=(0.0, 0.5)))
    assert not mass_bound_check(sol_bad, m_bad).passed


def test_clamp_mass_reported_nonnegative():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.3)
    u0 = gaussian_field(cells=128, half=6.0)
    sol = solve(m, u0, SolverParams(dt=0.002, t_end=0.1))
    assert sol.clamp_mass >= 0.0
    assert sol.clamp_mass < 1e-6


# ----------------------------------------------------------------------
# the batched right-hand side against the pair-by-pair algorithm

def _padded(F):
    return np.pad(F, 1, mode="constant")


def _ref_d1(F, h, axis):
    P = _padded(F)
    sl_p, sl_m = [slice(1, -1)] * F.ndim, [slice(1, -1)] * F.ndim
    sl_p[axis], sl_m[axis] = slice(2, None), slice(None, -2)
    return (P[tuple(sl_p)] - P[tuple(sl_m)]) / (2.0 * h)


def _ref_d2(F, h, axis):
    P = _padded(F)
    sl_p, sl_m = [slice(1, -1)] * F.ndim, [slice(1, -1)] * F.ndim
    sl_p[axis], sl_m[axis] = slice(2, None), slice(None, -2)
    return (P[tuple(sl_p)] - 2.0 * F + P[tuple(sl_m)]) / (h * h)


def _ref_d2_cross(F, hx, hy):
    P = _padded(F)
    return (P[2:, 2:] - P[2:, :-2] - P[:-2, 2:] + P[:-2, :-2]) / (4.0 * hx * hy)


def _reference_rhs(u, model, mode):
    """One convolve_field_grid call per kernel pair and np.pad differences,
    species by species."""
    M, d = model.M, model.d
    pts, h, shape = u.centers(), u.spacing, u.shape

    def conv(kmat):
        return [[convolve_field_grid([kmat[i][j]], u, [j])[0]
                 for j in range(M)] for i in range(M)]
    conv_G, conv_H = conv(model.G), conv(model.H)
    if mode == "local":
        death = [sum(model.comp[i, j] * u.values[j] for j in range(M))
                 for i in range(M)]
    elif model.C is None:
        death = [np.zeros(shape) for _ in range(M)]
    else:
        conv_C = conv(model.C)
        death = [sum(conv_C[i][j] for j in range(M)) for i in range(M)]
    out = np.zeros_like(u.values)
    a_sup = 0.0
    for i in range(M):
        vg = np.stack([conv_G[i][j].ravel() for j in range(M)], axis=1)
        vh = np.stack([conv_H[i][j].ravel() for j in range(M)], axis=1)
        a = model.diffusion_factor * diffusion_matrix(model, i, pts, vg)
        a = a.reshape(shape + (d, d))
        b = model.eval_drift(i, pts, vh).reshape(shape + (d,))
        r = model.eval_growth(i, pts).reshape(shape)
        ui = u.values[i]
        a_sup = max(a_sup, float(np.max(np.abs(a))))
        acc = np.zeros(shape)
        for k in range(d):
            acc += _ref_d2(a[..., k, k] * ui, h[k], k)
        if d == 2:
            acc += 2.0 * _ref_d2_cross(a[..., 0, 1] * ui, h[0], h[1])
        for k in range(d):
            acc -= _ref_d1(b[..., k] * ui, h[k], k)
        acc += (r - death[i]) * ui
        out[i] = acc
    return out, a_sup


def _cross_model(d, with_C=True):
    """Two species whose sigma, drift and death all read their kernels:
    Gaussian, compact-bump and constant kernels mixed in G, H and C, and an
    off-diagonal sigma in 2-d."""
    g = KernelSpec("gaussian", d, bandwidth=0.4)
    bump = KernelSpec("compact-bump", d, bandwidth=0.6)
    const = KernelSpec("constant", d, amplitude=0.5)
    C = [[KernelSpec("gaussian", d, bandwidth=0.3, amplitude=c) for c in row]
         for row in ((1.0, 0.5), (0.3, 0.8))] if with_C else None

    def sigma(i):
        def fn(x, v):
            s = v.sum(axis=1)
            out = np.sqrt(0.05 + s / (1.0 + s))[:, None, None] * np.eye(d)
            if d == 2:
                out[:, 0, 1] = 0.1 * np.tanh(v[:, i])
            return out
        return fn

    def drift(i):
        return lambda x, v: -0.3 * x + 0.2 * v[:, i:i + 1] - 0.1 * v[:, :1]

    growth = [lambda x: 1.0 + 0.5 * np.exp(-np.sum(x * x, axis=1))] * 2
    return CoefficientModel(2, d, [sigma(0), sigma(1)], [drift(0), drift(1)],
                            growth, [1.5, 1.5], G=[[g, const], [bump, g]],
                            H=[[bump, g], [const, bump]], C=C,
                            comp=np.array([[1.0, 0.5], [0.4, 1.2]]))


@pytest.mark.parametrize("mode,with_C", [("kernel", True), ("kernel", False),
                                         ("local", True)])
@pytest.mark.parametrize("shape", [(64,), (20, 24)])
def test_rhs_bit_equal_to_pairwise_reference(shape, mode, with_C):
    d = len(shape)
    specs = [InitialCondition(0.6, "gaussian", mean=0.2, std=0.7, dim=d),
             InitialCondition(0.9, "gaussian", mean=-0.3, std=0.9, dim=d)]
    u = project_to_grid(specs, [-4.0] * d, [4.0] * d, list(shape))
    model = _cross_model(d, with_C)
    dudt, a_sup, *_ = rhs(u, pde._plan(u, model, mode))
    ref, ref_sup = _reference_rhs(u, model, mode)
    assert np.array_equal(dudt, ref)
    assert a_sup == ref_sup


# ----------------------------------------------------------------------
# the per-solve step plan

def _cross_field(shape):
    d = len(shape)
    specs = [InitialCondition(0.6, "gaussian", mean=0.2, std=0.7, dim=d),
             InitialCondition(0.9, "gaussian", mean=-0.3, std=0.9, dim=d)]
    return project_to_grid(specs, [-4.0] * d, [4.0] * d, list(shape))


@pytest.mark.parametrize("mode,with_C", [("kernel", True), ("kernel", False),
                                         ("local", True)])
@pytest.mark.parametrize("shape", [(64,), (20, 24)])
def test_solve_equals_loop_of_planless_steps(shape, mode, with_C):
    # 25 steps through the solve's plan against 25 steps, each through a
    # plan of its own, bit for bit
    model, u0 = _cross_model(len(shape), with_C), _cross_field(shape)
    dt, snaps = 0.002, {0: 0.0, 10: 0.02, 25: 0.05}
    sol = solve(model, u0, SolverParams(dt=dt, t_end=0.05, mode=mode,
                                        snapshot_times=tuple(snaps.values())))
    u, clamp, ref = u0.copy(), 0.0, [u0.values]
    for k in range(1, 26):
        u, clamped = step(u, dt, pde._plan(u, model, mode))
        clamp += clamped
        if k in snaps:
            ref.append(u.values)
    assert len(sol.snapshots) == len(ref) == 3
    for snap, want in zip(sol.snapshots, ref):
        assert np.array_equal(snap.values, want)
    assert sol.clamp_mass == clamp


@pytest.mark.parametrize("mode", ["kernel", "local"])
def test_growth_evaluated_once_per_solve(mode):
    model, u0 = _cross_model(1), _cross_field((64,))
    calls = []

    def counted(fn):
        return lambda x: calls.append(x.shape) or fn(x)
    model.growth_fns = [counted(fn) for fn in model.growth_fns]
    solve(model, u0, SolverParams(dt=0.002, t_end=0.05, mode=mode))
    assert calls == [(64, 1)] * model.M          # not M per step
    calls.clear()
    step(u0, 0.002, pde._plan(u0, model, mode))  # each plan evaluates them
    assert len(calls) == model.M


def test_step_plan_rejects_another_field():
    model, u = _cross_model(1), _cross_field((64,))
    plan = pde._plan(u, model, "kernel")
    step(u, 0.002, plan)                                # the matching field
    others = [_cross_field((32,)),                          # shape
              GridField([-3.0], [5.0], u.values, 0.0),          # box
              GridField(u.lo, u.hi, u.values[:1], 0.0)]         # species
    for v in others:
        with pytest.raises(ValueError, match="plan does not match"):
            step(v, 0.002, plan)
        with pytest.raises(ValueError, match="plan does not match"):
            rhs(v, plan)


# ----------------------------------------------------------------------
# density-free coefficients, evaluated once per solve

def _x_only_model(d, with_C, marked):
    """_cross_model with sigma_i and b_i read at v = 0.5 + 0.2 sin(x_0), so
    functions of x alone, marked density_free or left unmarked."""
    model = _cross_model(d, with_C)
    mark = density_free if marked else (lambda fn: fn)

    def x_only(fn):
        return mark(lambda x, v: fn(x, np.repeat(
            0.5 + 0.2 * np.sin(x[:, :1]), v.shape[1], axis=1)))
    model.sigma_fns = [x_only(fn) for fn in model.sigma_fns]
    model.drift_fns = [x_only(fn) for fn in model.drift_fns]
    return model


@pytest.mark.parametrize("mode,with_C", [("kernel", True), ("kernel", False),
                                         ("local", True)])
@pytest.mark.parametrize("shape", [(64,), (20, 24)])
def test_marked_coefficients_solve_bit_equal_to_unmarked(shape, mode,
                                                         with_C):
    u0, sols = _cross_field(shape), []
    for marked in (False, True):
        model = _x_only_model(len(shape), with_C, marked)
        sols.append(solve(model, u0, SolverParams(
            dt=0.002, t_end=0.05, mode=mode, snapshot_times=(0.02, 0.05))))
        plan = pde._plan(u0, model, mode)
        assert (plan.a is None, plan.b is None) == (not marked,) * 2
    for want, got in zip(*(s.snapshots for s in sols)):
        assert np.array_equal(want.values, got.values)
    assert sols[0].clamp_mass == sols[1].clamp_mass


@pytest.mark.parametrize("mode", ["kernel", "local"])
def test_marked_coefficients_evaluated_once_per_solve(mode):
    model, u0 = _x_only_model(1, True, True), _cross_field((64,))
    calls = []

    def counted(fn):
        return density_free(lambda x, v: calls.append(x.shape) or fn(x, v))
    model.sigma_fns = [counted(fn) for fn in model.sigma_fns]
    model.drift_fns = [counted(fn) for fn in model.drift_fns]
    for t_end in (0.002, 0.05):         # 1 and 25 steps
        calls.clear()
        solve(model, u0, SolverParams(dt=0.002, t_end=t_end, mode=mode))
        # per function: the value at v = 0 and the check at v = j + 1
        assert calls == [(64, 1)] * (2 * 2 * model.M)


def test_mixed_model_convolves_only_the_kernels_it_reads():
    # isotropic-saturating: sigma reads G * u, the zero drift is marked,
    # so the batch holds G and C but not H
    k = [[[KernelSpec("gaussian", 1, bandwidth=0.3 + 0.1 * (i + j) + m)
           for j in range(2)] for i in range(2)] for m in range(3)]
    model = builtin_model("isotropic-saturating", 2, 1, G=k[0], H=k[1],
                          C=k[2], psi_max=0.25)
    u0 = _cross_field((64,))
    plan = pde._plan(u0, model, "kernel")
    assert plan.a is None and plan.b is not None
    assert plan.ks == tuple(row[j] for mat in (k[0], k[2]) for row in mat
                            for j in range(2))
    unmarked = builtin_model("isotropic-saturating", 2, 1, G=k[0], H=k[1],
                             C=k[2], psi_max=0.25)
    unmarked.drift_fns = [lambda x, v, fn=fn: fn(x, v)
                          for fn in model.drift_fns]
    params = SolverParams(dt=0.002, t_end=0.05)
    want, got = solve(unmarked, u0, params), solve(model, u0, params)
    assert np.array_equal(want.snapshots[-1].values, got.snapshots[-1].values)


@pytest.mark.parametrize("name", ["sigma", "drift"])
def test_mislabeled_density_free_coefficient_raises(name):
    # species 1 gets _cross_model's sigma or drift, which reads v, marked
    model, u0 = _x_only_model(1, True, True), _cross_field((64,))
    getattr(model, f"{name}_fns")[1] = density_free(
        getattr(_cross_model(1), f"{name}_fns")[1])
    with pytest.raises(ValueError, match=f"a {name} marked density_free"):
        solve(model, u0, SolverParams(dt=0.002, t_end=0.05))


def test_partly_marked_set_is_evaluated_every_step():
    # one unmarked sigma keeps every sigma, marked or not, per step
    model, u0 = _x_only_model(1, True, True), _cross_field((64,))
    model.sigma_fns[0] = _cross_model(1).sigma_fns[0]
    plan = pde._plan(u0, model, "kernel")
    assert plan.a is None and plan.b is not None
    assert len(plan.ks) == 2 * model.M ** 2      # G and C, not H


@pytest.mark.parametrize("mode,with_C", [("local", True), ("kernel", False)])
def test_all_marked_without_competition_kernels_never_convolves(
        monkeypatch, mode, with_C):
    calls = []
    monkeypatch.setattr(pde, "convolve_field_grid",
                        lambda *args: calls.append(args))
    model = _x_only_model(1, with_C, True)
    sol = solve(model, _cross_field((64,)),
                SolverParams(dt=0.002, t_end=0.05, mode=mode))
    assert calls == [] and np.all(np.isfinite(sol.snapshots[-1].values))


# ----------------------------------------------------------------------
# stability limits beyond diffusion

def test_cfl_advective_bound_raises():
    # no diffusion; dt max|b| / h = 0.01 * 50 / 0.0875 = 5.7 > 0.9
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, drift0=50.0)
    u0 = gaussian_field()
    plan = pde._plan(u0, m, "kernel")
    with pytest.raises(CFLError, match="advective"):
        step(u0, 0.01, plan)
    step(u0, 0.001, plan)           # 0.57 <= 0.9


def test_cfl_reaction_bound_raises():
    # no diffusion or drift; dt max|r - death| = 0.01 * 100 = 1.0 > 0.9
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=100.0)
    u0 = gaussian_field()
    plan = pde._plan(u0, m, "kernel")
    with pytest.raises(CFLError, match="reaction"):
        step(u0, 0.01, plan)
    step(u0, 0.005, plan)           # 0.5 <= 0.9


def test_cfl_nan_rate_raises():
    # NaN * dt > bound is False: a NaN rate must not pass as stable
    m = builtin_model("constant-coefficients", 1, 1)
    m.sigma_fns = [lambda x, v: np.full((x.shape[0], 1, 1), np.nan)]
    u0 = gaussian_field()
    with pytest.raises(CFLError, match=r"diffusive .* \(rate nan\)"):
        step(u0, 0.001, pde._plan(u0, m, "kernel"))


def test_cli_nan_diffusion_exits_numerical_and_fails_validation(tmp_path,
                                                                capsys):
    # psi_max < 0 makes sigma the root of a negative number, NaN wherever
    # the density is positive
    cfg = {"seed": 7,
           "model": {"M": 1, "dim": 1, "family": "isotropic-saturating",
                     "params": {"psi_max": -0.25},
                     "kernels": {"G": {"family": "gaussian",
                                       "bandwidth": 0.5}}},
           "initial": [{"mass": 0.5, "kind": "gaussian", "std": 0.6}],
           "pde": {"lo": -5.0, "hi": 5.0, "cells": 64, "dt": 0.002,
                   "t_end": 0.1}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    args = ["--config", str(path), "--out", str(tmp_path / "o")]
    with pytest.warns(RuntimeWarning):
        assert cli.main(["solve-pde"] + args) == cli.EXIT_NUMERIC
    assert "(rate nan)" in capsys.readouterr().err
    with pytest.warns(RuntimeWarning):
        assert cli.main(["validate"] + args) == cli.EXIT_CHECK
    assert "[FAIL] (i)" in capsys.readouterr().out


def test_cfl_diffusive_bound_is_named():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=1.0)
    u0 = gaussian_field(cells=256, half=4.0)
    with pytest.raises(CFLError, match="diffusive"):
        step(u0, 0.01, pde._plan(u0, m, "kernel"))


# ----------------------------------------------------------------------
# mass conservation up to the clamped mass

@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]),
       st.floats(0.1, 0.5), st.floats(0.4, 0.8))
def test_mass_is_initial_plus_clamped_without_reactions(M, d, sigma0, std):
    # r = 0 and no C: the zero-Dirichlet differences move mass only through
    # the boundary, which this field never reaches (fraction < 1e-12; on
    # [-8, 8]^2 the widest draw, std 0.8 and sigma0 0.5, put 1.4e-12 there)
    cells = 64 if d == 1 else 32
    specs = [InitialCondition(0.5 + 0.3 * i, "gaussian", std=std, dim=d)
             for i in range(M)]
    u0 = project_to_grid(specs, [-10.0] * d, [10.0] * d, [cells] * d)
    m = builtin_model("constant-coefficients", M, d, sigma0=sigma0)
    sol = solve(m, u0, SolverParams(dt=0.01, t_end=0.5,
                                    snapshot_times=(0.0, 0.5)))
    assert sol.max_boundary_fraction < 1e-12
    assert sol.masses[-1].sum() == pytest.approx(
        sol.masses[0].sum() + sol.clamp_mass, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_anisotropic_diffusion_matches_exact_gaussian(d):
    # constant sigma with sigma_01 and (3-d) sigma_12 nonzero, no drift and
    # no reactions: u_t is the Gaussian of covariance std^2 I + noise^2
    # sigma sigma^T t.  Every mixed derivative counts: the error falls at
    # about second order (3-d: 0.033 at 16^3 cells, 0.0068 at 32^3), while
    # the Gaussian of sigma's diagonal part lies 0.11 away
    S = np.array([[0.5, 0.3, 0.0], [0.0, 0.4, 0.25], [0.0, 0.0, 0.45]])[:d, :d]
    std, t = 0.6, 0.25
    m = builtin_model("constant-coefficients", 1, d)
    m.sigma_fns = [density_free(
        lambda x, v: np.broadcast_to(S, (x.shape[0], d, d)))]

    def gaussian(u, cov):
        x = u.centers()
        q = np.einsum("ni,ij,nj->n", x, np.linalg.inv(cov), x)
        dens = np.exp(-0.5 * q) / np.sqrt(np.linalg.det(2.0 * np.pi * cov))
        return dens.reshape(u.shape)

    a = m.noise_scale ** 2 * S @ S.T * t
    cov, cov_diag = std ** 2 * np.eye(d) + a, std ** 2 * np.eye(d) + np.diag(
        np.diag(a))
    errs = []
    for n in (16, 32):
        u0 = project_to_grid([InitialCondition(1.0, "gaussian", std=std,
                                               dim=d)],
                             [-4.0] * d, [4.0] * d, [n] * d)
        u = solve(m, u0, SolverParams(dt=0.0125, t_end=t)).snapshots[-1]
        exact = gaussian(u, cov)
        errs.append(float(np.abs(u.values[0] - exact).sum()) * u.cell_volume)
    gap = float(np.abs(gaussian(u, cov_diag) - exact).sum()) * u.cell_volume
    print(f"{d}-d: errors {errs}, diagonal part {gap}")
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 0.1 * gap

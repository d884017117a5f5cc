import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff.grids import GridField
from crossdiff.kernels import KernelSpec
from crossdiff.model import (CoefficientModel, ProbeSpec, builtin_model,
                             bump_growth, diffusion_matrix, validate)


def probe(d=1, lo=-3.0, hi=3.0, **kw):
    return ProbeSpec(np.full(d, lo), np.full(d, hi), **kw)


def test_constant_family_shapes():
    m = builtin_model("constant-coefficients", 2, 1, sigma0=0.5, r=[1.0, 2.0])
    x = np.zeros((4, 1))
    v = np.zeros((4, 2))
    s = m.eval_sigma(0, x, v)
    assert s.shape == (4, 1, 1)
    np.testing.assert_allclose(s[:, 0, 0], 0.5)
    np.testing.assert_allclose(m.eval_growth(1, x), 2.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_point_evaluations_reject_a_flat_query(dim):
    # as for the point convolutions: in 1-d five points are not one point
    # in R^5, and in 2-d a single d-vector is not a batch of points
    m = builtin_model("constant-coefficients", 1, dim, sigma0=0.5, r=[1.0])
    u = GridField(-np.ones(dim), np.ones(dim), np.ones((1,) + (8,) * dim))
    flat = np.linspace(-0.5, 0.5, 5) if dim == 1 else np.array([0.1, 0.2])
    good = flat.reshape(-1, dim)
    v = np.zeros((len(good), 1))
    calls = (lambda x: u.interpolate(0, x), lambda x: m.eval_growth(0, x),
             lambda x: m.eval_sigma(0, x, v), lambda x: m.eval_drift(0, x, v))
    for call in calls:
        for bad in (flat, flat[None, :, None], np.zeros((4, dim + 1))):
            with pytest.raises(ValueError, match="array of query points"):
                call(bad)
        assert len(call(good)) == len(good)


def test_diffusion_factor_convention():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=1.0)
    assert m.noise_scale == pytest.approx(math.sqrt(2.0))
    # noise_scale^2 / 2 = 1: generator coefficient a = sigma sigma^T
    assert m.diffusion_factor == pytest.approx(1.0)
    m2 = builtin_model("constant-coefficients", 1, 1, sigma0=1.0,
                       noise_scale=1.0)
    assert m2.diffusion_factor == pytest.approx(0.5)


def test_diffusion_matrix_symmetric():
    m = builtin_model("isotropic-saturating", 1, 2, psi_max=0.8)
    rng = np.random.default_rng(0)
    a = diffusion_matrix(m, 0, rng.normal(size=(16, 2)),
                         rng.uniform(0, 2, size=(16, 1)))
    np.testing.assert_allclose(a, np.swapaxes(a, 1, 2), atol=1e-14)


def test_isotropic_saturating_values():
    m = builtin_model("isotropic-saturating", 1, 1, psi_max=0.8)
    x = np.zeros((3, 1))
    v = np.array([[0.0], [1.0], [9.0]])
    s = m.eval_sigma(0, x, v)[:, 0, 0]
    np.testing.assert_allclose(s ** 2, [0.0, 0.4, 0.72], atol=1e-12)


def test_negative_v_clamped():
    # convolved densities are nonnegative by construction; the evaluator
    # clamps anyway so roundoff below zero cannot produce nan
    m = builtin_model("isotropic-saturating", 1, 1, psi_max=1.0)
    s = m.eval_sigma(0, np.zeros((1, 1)), np.array([[-1e-12]]))
    assert np.isfinite(s).all()


def test_attraction_drift_bounded():
    m = builtin_model("attraction-drift", 1, 2, sigma0=0.3, alpha=0.7)
    x = np.array([[1000.0, 0.0], [0.0, 0.0]])
    b = m.eval_drift(0, x, np.zeros((2, 1)))
    assert np.linalg.norm(b[0]) <= 0.7 + 1e-9
    np.testing.assert_allclose(b[1], 0.0)


def test_bump_growth_bounds():
    fn = bump_growth(0.3, 1.0, center=0.0, width=1.0)
    x = np.linspace(-5, 5, 101)[:, None]
    r = fn(x)
    assert np.all(r >= 0.3)
    assert np.max(r) == pytest.approx(1.3)


def test_validate_passes_constant_family():
    m = builtin_model("constant-coefficients", 2, 1, sigma0=0.5,
                      r=[1.0, 1.0])
    rep = validate(m, probe())
    assert rep.passed, str(rep)


def test_validate_lipschitz_estimate_close_to_analytic():
    # sigma(x) = 0.2 + 0.1 sin(x): Lipschitz constant exactly 0.1
    m = builtin_model("constant-coefficients", 1, 1, lipschitz_bound=0.1)
    m.sigma_fns = [lambda x, v: (0.2 + 0.1 * np.sin(x[:, 0]))[:, None, None]]
    rep = validate(m, probe(n=2048))
    est = rep.checks[0].estimate
    assert est == pytest.approx(0.1, rel=0.10)
    assert rep.checks[0].passed


def test_validate_flags_lipschitz_violation():
    m = builtin_model("constant-coefficients", 1, 1, lipschitz_bound=0.01)
    m.sigma_fns = [lambda x, v: (0.2 + 0.5 * np.sin(x[:, 0]))[:, None, None]]
    rep = validate(m, probe())
    assert not rep.passed
    assert not rep.checks[0].passed


def test_validate_flags_negative_growth():
    m = builtin_model("constant-coefficients", 1, 1, r=-0.5, rbar=1.0)
    rep = validate(m, probe())
    assert not rep.checks[-1].passed


def test_validate_flags_growth_above_bound():
    m = builtin_model("constant-coefficients", 1, 1, r=2.0, rbar=1.0)
    rep = validate(m, probe())
    assert not rep.checks[-1].passed


def test_validate_reports_never_raises():
    m = builtin_model("constant-coefficients", 1, 1, r=5.0, rbar=0.1,
                      lipschitz_bound=1e-12)
    m.sigma_fns = [lambda x, v: np.abs(x)[:, :, None] * 3.0]
    rep = validate(m, probe())
    assert isinstance(str(rep), str)
    assert not rep.passed


def test_validate_fails_nan_coefficients():
    # max(estimate, NaN) keeps the estimate; a NaN sigma must fail (i), (ii)
    m = builtin_model("constant-coefficients", 1, 1)
    m.sigma_fns = [lambda x, v: np.full((x.shape[0], 1, 1), np.nan)]
    rep = validate(m, probe())
    assert not rep.passed
    assert [c.passed for c in rep.checks[:2]] == [False, False]
    assert all(math.isnan(c.estimate) for c in rep.checks[:2])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        builtin_model("no-such-family", 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 2.0), st.integers(1, 2))
def test_builtin_sigma_finite_everywhere(psi, d):
    m = builtin_model("isotropic-saturating", 1, d, psi_max=psi)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, d)) * 5
    v = rng.uniform(0, 10, size=(8, 1))
    assert np.isfinite(m.eval_sigma(0, x, v)).all()

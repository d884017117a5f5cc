"""A test fake of flow.FrozenCoefficients with closed-form coefficients.

The flow functions read their coefficient object only through sigma_eff,
drift, fk_rate, check_spacing, domain_scale and (Feynman-Kac) fields[0],
so coefficients given as callables exercise the path algorithms without a
PDE solve.
"""

import numpy as np

from crossdiff.model import builtin_model


class CallableCoefficients:
    """sigma_fn(i, t, X) -> (n, d, d), drift_fn(i, t, X) -> (n, d) and, for
    fk_rate, rate_fn(i, t, X) -> (n,).  fields, if given, holds the initial
    grid that feynman_kac_functional integrates over."""

    def __init__(self, model, sigma_fn, drift_fn, rate_fn=None, fields=None):
        self.model = model
        self.noise_scale = model.noise_scale
        self.fields = fields
        self._sigma_fn = sigma_fn
        self._drift_fn = drift_fn
        self._rate_fn = rate_fn

    def check_spacing(self, dt):
        pass    # no snapshots to interpolate between

    def sigma(self, i, t, X):
        X = np.atleast_2d(X)
        return np.asarray(self._sigma_fn(i, t, X), float).reshape(
            X.shape[0], self.model.d, self.model.d)

    def sigma_eff(self, i, t, X):
        return self.noise_scale * self.sigma(i, t, X)

    def drift(self, i, t, X):
        X = np.atleast_2d(X)
        return np.asarray(self._drift_fn(i, t, X), float).reshape(
            X.shape[0], self.model.d)

    def fk_rate(self, i, t, X):
        X = np.atleast_2d(X)
        return np.asarray(self._rate_fn(i, t, X), float).reshape(X.shape[0])

    def domain_scale(self):
        return 1.0


def synthetic_coeffs(d=1):
    """Smooth nonconstant coefficients with noise scale 1: sigma is
    0.3 + 0.1 sin(x_0) (times cos(x_1) in 2-d) times the identity, and
    b = 0.1 cos(x)."""
    m = builtin_model("constant-coefficients", 1, d, sigma0=0.3,
                      noise_scale=1.0)

    def sigma_fn(i, t, X):
        amp = 0.3 + 0.1 * np.sin(X[:, 0]) * (np.cos(X[:, 1]) if d == 2
                                              else 1.0)
        return amp[:, None, None] * np.eye(d)
    return CallableCoefficients(m, sigma_fn,
                                lambda i, t, X: 0.1 * np.cos(X))

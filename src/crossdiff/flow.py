"""Stochastic flows frozen on a PDE solution: forward/inverse paths,
variational Jacobians, determinant evolution and Feynman-Kac estimators.

All SDEs use the package noise convention: the forward flow is

    dX = b(i, t, X) dt + s_eff(i, t, X) dB,    s_eff = noise_scale * sigma.

The inverse map eta_{s,t}(y), run as Z_s(y) = eta_{t-s,t}(y), satisfies the
classic Ito equation dZ = A(s, Z) dW + beta(s, Z) ds with

    A(s, y)    = s_eff(i, t - s, y)
    beta(s, y) = -b_hat(i, t - s, y)
    b_hat_k    = b_k - sum_{l,q} s_eff_{lq} d_l s_eff_{kq}

driven by the time-reversed Brownian motion W_s = B_{t-s} - B_t.  The
Jacobian solves the linear variational system and the determinant is
integrated both from the Jacobian matrix and from its own scalar SDE
(Stratonovich divergence form, integrated here in Ito form); the two
routes must agree along paths.

The coefficients are those of a PDE solution, FrozenCoefficients.from_pde.
The path functions read them only through its methods sigma_eff, drift,
fk_rate, check_spacing and domain_scale, and feynman_kac_functional also
reads the initial grid fields[0]; any object with these members can stand
in for it.

Coefficient derivatives are central finite differences: coefficients are
compositions with convolved fields, not closed forms.  Within one
inverse-flow step, sigma_eff, the drift, the gradient of sigma_eff and the
Stratonovich correction built from it are evaluated once per distinct
stencil point and shared read-only by every difference that needs them.
The convolutions k * u^j of the smooth kernels are tabulated once per
snapshot on a lattice over the padded box (FFT grid convolutions with
cached kernel spectra) and read back through C^2 cubic splines, so the
nested differences of the inverse flow stay meaningful; in time they blend
linearly between snapshots, which is exact because convolution is linear,
and a read evaluates both blended snapshots in one spline call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridField
from .kernels import KernelSpec, convolve_field, convolve_field_grid
from .model import CoefficientModel
from .pde import PDESolution


class FlowError(RuntimeError):
    """Blow-up or diffeomorphism violation along a path."""


# ---------------------------------------------------------------------

# Lattice step of the coefficient tables as a fraction of the kernel
# bandwidth, for a spline error under 1e-5 of sup |k * u| on any field: on
# a single occupied cell (k * u is then k itself) the worst error is 3.7e-6
# for the Gaussian and 5.3e-6 for the compact bump.  The bump's
# derivatives grow steeply near the edge of its support, so its lattice is
# 8 times finer than the Gaussian's.
TABLE_STEP = {"gaussian": 1.0 / 8.0, "compact-bump": 1.0 / 64.0}
# Lattice nodes over all snapshots (16 MB of float64 values) above which
# a kernel keeps the exact quadrature path instead of a table.
TABLE_MAX_NODES = 2 ** 21


def _lattice(k: KernelSpec, fields: list):
    """Sub-cells per axis r and padding cells per side of k's table lattice
    over these snapshots, or None where k keeps the exact path."""
    if k.family not in TABLE_STEP:
        return None
    g = fields[0]
    r = np.ceil(g.spacing / (TABLE_STEP[k.family] * k.bandwidth))
    pad = np.ceil(k.support_radius / g.spacing) + 1
    nodes = np.prod(r * (np.asarray(g.shape) + 2 * pad)) * len(fields)
    return (r.astype(int), pad.astype(int)) if nodes <= TABLE_MAX_NODES \
        else None


class ConvolutionTable:
    """(k * u^j)(x) at every snapshot, read back from a C^2 cubic spline.

    The lattice spans the box padded by the kernel's support radius.  Each
    PDE cell splits into r sub-cells per axis, with r chosen so that the
    lattice step is at most TABLE_STEP * bandwidth; every sub-cell offset
    is one FFT grid convolution of the zero-padded field, with its batch
    plan cached across snapshots.  In 1-d one make_interp_spline holds
    a column per snapshot; in 2-d each snapshot has a RectBivariateSpline.
    """

    def __init__(self, k: KernelSpec, fields: list, j: int, r, pad):
        from scipy.interpolate import RectBivariateSpline, make_interp_spline
        g = fields[0]
        h = g.spacing
        widths = [(0, 0)] + [(p, p) for p in pad]
        padded = [GridField(g.lo - pad * h, g.hi + pad * h,
                            np.pad(f.values[j:j + 1], widths))
                  for f in fields]
        p0 = padded[0]
        hp = p0.spacing
        self.axes = [p0.lo[a] + (0.5 + np.arange(n * r[a]) / r[a]) * hp[a]
                     for a, n in enumerate(p0.shape)]
        values = np.empty((len(fields),) + tuple(r * p0.shape))
        # offsets outermost, so each cached spectrum serves every snapshot
        for sub in itertools.product(*(range(n) for n in r)):
            nodes = tuple(slice(q, None, n) for q, n in zip(sub, r))
            offset = np.asarray(sub) * hp / r
            for s, u in enumerate(padded):
                values[(s,) + nodes] = convolve_field_grid(k, u, 0,
                                                           offset=offset)
        if g.dim == 1:
            # one column per snapshot, with the same coefficients as one
            # spline per snapshot
            self.spline = make_interp_spline(self.axes[0], values, k=3,
                                             axis=1)
        else:
            self.splines = [RectBivariateSpline(*self.axes, v, kx=3, ky=3,
                                                s=0) for v in values]

    def inside(self, X: np.ndarray) -> np.ndarray:
        """Mask of the query points the lattice covers."""
        return np.all([(X[:, a] >= ax[0]) & (X[:, a] <= ax[-1])
                       for a, ax in enumerate(self.axes)], axis=0)

    def __call__(self, weights: list, X: np.ndarray) -> np.ndarray:
        """sum_s w_s (k * u^s)(X) over the (snapshot, weight) pairs of a
        time blend; in 1-d its adjacent columns are read in one call."""
        out = np.zeros(X.shape[0])
        if X.shape[1] == 1:
            sp, first = self.spline, weights[0][0]
            cols = type(sp).construct_fast(
                sp.t, sp.c[:, first:first + len(weights)], sp.k)(X[:, 0])
            for c, (_, w) in enumerate(weights):
                out += w * cols[:, c]
        else:
            for s, w in weights:
                out += w * self.splines[s].ev(X[:, 0], X[:, 1])
        return out


class FrozenCoefficients:
    """Coefficients sigma_eff(i,t,x), b(i,t,x) and the Feynman-Kac rate of
    the flow frozen on a PDE solution, blended linearly in time between its
    snapshots.

    Every Gaussian or compact-bump kernel of G, H and C is read from a
    ConvolutionTable; constant and tabulated kernels, and query points
    beyond a table's lattice, take the exact quadrature of convolve_field.
    """

    def __init__(self, model: CoefficientModel, times, fields: list,
                 mode: str):
        self.model = model
        self.mode = mode     # the PDE's competition: "kernel" or "local"
        self.noise_scale = model.noise_scale
        self.times = np.asarray(times, float)
        self.fields = fields
        self.tables = {}     # (kernel, species j) -> ConvolutionTable

    @classmethod
    def from_pde(cls, model: CoefficientModel,
                 solution: PDESolution) -> "FrozenCoefficients":
        times = np.array([s.time for s in solution.snapshots])
        if times.size < 1:
            raise ValueError("PDE solution has no snapshots")
        fields = list(solution.snapshots)
        coeffs = cls(model, times, fields, solution.params.mode)
        C = model.C if coeffs.mode == "kernel" else None
        for kmat in (model.G, model.H, C):
            for row in kmat or []:
                for j, k in enumerate(row):
                    lattice = _lattice(k, fields)
                    if lattice is not None and (k, j) not in coeffs.tables:
                        coeffs.tables[(k, j)] = ConvolutionTable(
                            k, fields, j, *lattice)
        return coeffs

    # -- time handling ---------------------------------------------------

    def check_spacing(self, dt: float):
        spacing = float(np.max(np.diff(self.times), initial=0.0))
        if spacing > 10.0 * dt + 1e-12:
            raise ValueError(
                f"snapshot spacing {spacing:g} exceeds 10 dt = "
                f"{10 * dt:g}; store denser PDE snapshots")

    def _time_weights(self, t: float) -> list:
        """(snapshot index, weight) pairs of the linear blend at time t."""
        times = self.times
        if t <= times[0]:
            return [(0, 1.0)]
        if t >= times[-1]:
            return [(times.size - 1, 1.0)]
        j = int(np.searchsorted(times, t, side="right"))
        w = (t - times[j - 1]) / (times[j] - times[j - 1])
        return [(j - 1, 1.0 - w), (j, w)] if w > 0.0 else [(j - 1, 1.0)]

    def _field_at(self, t: float) -> GridField:
        g0 = self.fields[0]
        values = sum(w * self.fields[s].values
                     for s, w in self._time_weights(t))
        return GridField(g0.lo, g0.hi, values, t)

    # -- coefficient evaluation -------------------------------------------

    def convolved(self, k: KernelSpec, j: int, t: float,
                  X: np.ndarray) -> np.ndarray:
        """(k * u^j_t)(X) with u_t blended linearly between snapshots."""
        table = self.tables.get((k, j))
        if table is None:
            return np.atleast_1d(convolve_field(k, self._field_at(t), j, X))
        inside = table.inside(X)
        out = np.zeros(X.shape[0])
        out[inside] = table(self._time_weights(t), X[inside])
        if not inside.all():
            out[~inside] = convolve_field(k, self._field_at(t), j,
                                          X[~inside])
        return out

    def _v_args(self, kmat, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.stack([self.convolved(kmat[i][j], j, t, X)
                         for j in range(self.model.M)], axis=1)

    def sigma_eff(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return self.noise_scale * self.model.eval_sigma(
            i, X, self._v_args(self.model.G, i, t, X))

    def drift(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return self.model.eval_drift(i, X, self._v_args(self.model.H, i, t, X))

    def fk_rate(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        """r_i(x) - sum_j C^ij * xi^j_t(x), the Feynman-Kac exponent rate,
        with the competition of the PDE's mode: the kernels C in kernel
        mode (none if C is None), the constants comp in local mode."""
        X = np.atleast_2d(X)
        r = self.model.eval_growth(i, X)
        if self.mode == "kernel" and self.model.C is not None:
            for j in range(self.model.M):
                r = r - self.convolved(self.model.C[i][j], j, t, X)
        elif self.mode == "local":
            u = self._field_at(t)
            for j in range(self.model.M):
                r = r - self.model.comp[i, j] * u.interpolate(j, X)
        return r

    def domain_scale(self) -> float:
        return float(np.max(self.fields[0].hi - self.fields[0].lo))


# ---------------------------------------------------------------------
# path containers

@dataclass
class InverseFlowResult:
    times: np.ndarray            # Z-time grid s in [0, t]
    paths: np.ndarray            # Z_s(y) = eta_{t-s,t}(y), (m+1, n, d)
    jacobians: np.ndarray        # (m+1, n, d, d), grad_y Z_s
    det_matrix: np.ndarray       # (m+1, n) determinant of the Jacobian
    det_sde: np.ndarray          # (m+1, n) determinant from its own SDE
    increments: np.ndarray       # (m, n, d) increments of W

    @property
    def eta0(self):
        """eta_{0,t}(y), the initial position mapped back."""
        return self.paths[-1]


# ---------------------------------------------------------------------
# derivative helpers (central differences on the coefficient fields)

def _fd_grad(fn, X, h):
    """Gradient stack [d_p f(X)]: fn returns (n, ...); result (n, d, ...)."""
    d = X.shape[1]
    cols = []
    for p in range(d):
        dx = np.zeros(d)
        dx[p] = h
        cols.append((fn(X + dx) - fn(X - dx)) / (2.0 * h))
    return np.stack(cols, axis=1)


def _guard(arr, what):
    if not np.all(np.isfinite(arr)) or np.max(np.abs(arr)) > 1e8:
        raise FlowError(f"blow-up in {what}")


def _euler(coeffs, i, t, x, h, dW, what):
    """One Euler-Maruyama step of the forward flow from x at time t."""
    x = x + coeffs.drift(i, t, x) * h \
        + np.einsum("nkl,nl->nk", coeffs.sigma_eff(i, t, x), dW)
    _guard(x, what)
    return x


# ---------------------------------------------------------------------

def forward_flow(coeffs: FrozenCoefficients, i: int, s: float, t: float,
                 x0: np.ndarray, dt: float, rng: np.random.Generator = None,
                 increments: np.ndarray = None) -> np.ndarray:
    """Euler-Maruyama X_{s,t}(x) for a batch of starting points: the
    terminal positions, (n, d)."""
    if t < s:
        raise ValueError("need s <= t")
    coeffs.check_spacing(dt)
    x = np.array(x0, dtype=float, ndmin=2)
    n, d = x.shape
    m = max(1, int(round((t - s) / dt))) if t > s else 0
    h = (t - s) / m if m else 0.0
    if increments is None:
        if m and rng is None:
            raise ValueError("need an rng or precomputed increments")
        increments = (rng.standard_normal((m, n, d)) * math.sqrt(h)
                      if m else np.zeros((0, n, d)))
    for k in range(m):
        x = _euler(coeffs, i, s + (t - s) * k / m, x, h, increments[k],
                   "forward flow")
    return x


def _per_step(fn):
    """fn(s, Y), evaluated once per distinct Y while s stays the same.

    The nested stencils of one inverse-flow step revisit a few point sets
    many times.  Keys are Y's shape and exact bytes, so every difference
    reads the values a direct call would give; shared values are handed
    out read-only, and the memo clears when s advances."""
    step, memo = None, {}

    def call(s, Y):
        nonlocal step
        if s != step:
            step = s
            memo.clear()
        key = (Y.shape, Y.tobytes())
        val = memo.get(key)
        if val is None:
            val = memo[key] = fn(s, Y).view()
            val.flags.writeable = False
        return val
    return call


def _inverse_coeff_fns(coeffs, i, t, h_fd):
    """A(s, y) of the reverted Ito equation, its gradient dA (n, p, k, q),
    the correction corr_k = sum_{l,q} A_lq d_l A_kq and beta(s, y), each
    evaluated once per distinct y within a step."""
    A = _per_step(lambda s, Y: coeffs.sigma_eff(i, t - s, Y))
    dA = _per_step(lambda s, Y: _fd_grad(lambda Z: A(s, Z), Y, h_fd))
    corr = _per_step(lambda s, Y: np.einsum("nlq,nlkq->nk", A(s, Y),
                                            dA(s, Y)))
    # b_hat = b - corr
    beta = _per_step(lambda s, Y: -(coeffs.drift(i, t - s, Y) - corr(s, Y)))
    return A, dA, corr, beta


def inverse_flow(coeffs: FrozenCoefficients, i: int, t: float,
                 y: np.ndarray, dt: float, rng: np.random.Generator = None,
                 increments: np.ndarray = None) -> InverseFlowResult:
    """Inverse flow eta_{., t}(y) with Jacobian and determinant evolution.

    Integrates Z_s(y) = eta_{t-s,t}(y), its variational Jacobian and the
    determinant by two independent routes (matrix determinant and the
    scalar determinant SDE).  Aborts if any determinant becomes <= 0.
    """
    coeffs.check_spacing(dt)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    m = max(1, int(round(t / dt)))
    h = t / m
    times = np.arange(m + 1) * h
    h_fd = 1e-4 * coeffs.domain_scale()
    if increments is None:
        if rng is None:
            raise ValueError("need an rng or precomputed increments")
        increments = rng.standard_normal((m, n, d)) * math.sqrt(h)

    A_fn, dA_fn, corr_fn, beta_fn = _inverse_coeff_fns(coeffs, i, t, h_fd)
    paths = np.empty((m + 1, n, d))
    jac = np.empty((m + 1, n, d, d))
    det_m = np.empty((m + 1, n))
    det_s = np.empty((m + 1, n))
    z = y.copy()
    J = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    D = np.ones(n)
    paths[0], jac[0], det_m[0], det_s[0] = z, J, 1.0, 1.0

    for k in range(m):
        s_k = times[k]
        dW = increments[k]
        A = A_fn(s_k, z)
        beta = beta_fn(s_k, z)
        dA = dA_fn(s_k, z)                                  # (n, p, k, q)
        dbeta = _fd_grad(lambda Y: beta_fn(s_k, Y), z, h_fd)    # (n, p, k)

        # divergence of each noise column and of the Stratonovich drift
        div_A = np.einsum("nkkq->nq", dA)                   # f^q
        ddivA = _fd_grad(lambda Y: np.einsum("nkkq->nq", dA_fn(s_k, Y)),
                         z, h_fd)                           # (n, p, q)
        # beta_circ = beta - 1/2 corr
        dcorr = _fd_grad(lambda Y: corr_fn(s_k, Y), z, h_fd)
        div_beta_circ = np.einsum("nkk->n", dbeta) \
            - 0.5 * np.einsum("nkk->n", dcorr)

        # state
        z_new = z + np.einsum("nkq,nq->nk", A, dW) + beta * h
        # variational Jacobian: dJ = (dA^q J) dW^q + (dbeta J) ds
        noise = np.einsum("npkq,nq,npl->nkl", dA, dW, J)
        driftJ = np.einsum("npk,npl->nkl", dbeta, J)
        J_new = J + noise + driftJ * h
        # determinant SDE in Ito form
        ito_corr = 0.5 * (np.einsum("nq,nq->n", div_A, div_A)
                          + np.einsum("npq,npq->n", ddivA,
                                      np.swapaxes(A, 1, 2)))
        D_new = D + D * (np.einsum("nq,nq->n", div_A, dW)
                         + (div_beta_circ + ito_corr) * h)

        z, J, D = z_new, J_new, D_new
        _guard(z, "inverse flow")
        _guard(J, "inverse flow Jacobian")
        det = np.linalg.det(J)
        if np.any(det <= 0.0) or np.any(D <= 0.0):
            raise FlowError("nonpositive Jacobian determinant along an "
                            "inverse-flow path (diffeomorphism violated)")
        paths[k + 1], jac[k + 1], det_m[k + 1], det_s[k + 1] = z, J, det, D
    return InverseFlowResult(times, paths, jac, det_m, det_s, increments)


def compose_inverse_forward(coeffs: FrozenCoefficients, i: int, t: float,
                            y: np.ndarray, dt: float,
                            rng: np.random.Generator) -> np.ndarray:
    """|X_{0,t}(eta_{0,t}(y)) - y| per path under common noise."""
    inv = inverse_flow(coeffs, i, t, y, dt, rng)
    # W_s = B_{t-s} - B_t  =>  forward increments are the negated,
    # time-reversed inverse-flow increments
    fwd_inc = -inv.increments[::-1]
    fwd = forward_flow(coeffs, i, 0.0, t, inv.eta0, dt,
                       increments=fwd_inc)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return np.sqrt(np.sum((fwd - y) ** 2, axis=1))


# ---------------------------------------------------------------------
# Feynman-Kac estimators

@dataclass
class MonteCarloEstimate:
    value: float
    stderr: float
    n_paths: int


def feynman_kac_functional(coeffs: FrozenCoefficients, model: CoefficientModel,
                           phi, i: int, t: float, n_paths: int, dt: float,
                           rng: np.random.Generator) -> MonteCarloEstimate:
    """Estimate <xi^i_t, phi> by the exponentially weighted forward flow.

    The outer integral over xi^i_0 is a quadrature over the initial grid;
    the expectation is Monte Carlo over n_paths replicas of the flow.
    """
    u0 = coeffs.fields[0]
    pts = u0.centers()
    w = u0.values[i].ravel() * u0.cell_volume
    keep = w > 0
    pts, w = pts[keep], w[keep]
    nc = pts.shape[0]
    m = max(1, int(round(t / dt)))
    h = t / m
    x = np.repeat(pts, n_paths, axis=0)
    weights = w.repeat(n_paths) / n_paths
    logw = np.zeros(x.shape[0])
    rate_prev = coeffs.fk_rate(i, 0.0, x)
    for k in range(m):
        dW = rng.standard_normal(x.shape) * math.sqrt(h)
        x = _euler(coeffs, i, k * h, x, h, dW, "Feynman-Kac forward flow")
        rate_new = coeffs.fk_rate(i, (k + 1) * h, x)
        logw += 0.5 * h * (rate_prev + rate_new)   # trapezoid in time
        rate_prev = rate_new
    vals = np.asarray(phi(x), dtype=float).reshape(-1) * np.exp(logw)
    # replicate p = sum over initial cells with that path index
    per_rep = (vals * weights * n_paths).reshape(nc, n_paths).sum(axis=0)
    mean = float(per_rep.mean())
    stderr = float(per_rep.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else math.inf
    return MonteCarloEstimate(mean, stderr, n_paths)


def density_estimate(coeffs: FrozenCoefficients, model: CoefficientModel,
                     i: int, y: np.ndarray, t: float, n_paths: int,
                     dt: float, rng: np.random.Generator, density0):
    """Monte-Carlo density xi^i_t(y) from the inverse-flow identity.

    density0(X) is the initial density xi^i_0 at a batch of points.
    Returns (values, stderrs) arrays over the query batch: the mean of
    exp{int fk_rate along eta} * xi0(eta_{0,t}(y)) * det grad eta_{0,t}(y).
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    nq, d = y.shape
    yy = np.repeat(y, n_paths, axis=0)
    inv = inverse_flow(coeffs, i, t, yy, dt, rng)
    m = inv.times.shape[0] - 1
    h = t / m
    # int_0^t fk_rate(i, r, eta_{r,t}) dr over the reversed clock
    rates = np.empty((m + 1, yy.shape[0]))
    for k in range(m + 1):
        rates[k] = coeffs.fk_rate(i, t - inv.times[k], inv.paths[k])
    integral = h * (0.5 * rates[0] + rates[1:-1].sum(axis=0) + 0.5 * rates[-1])
    xi0 = np.asarray(density0(inv.eta0), dtype=float).reshape(-1)
    psi = np.exp(integral) * xi0 * inv.det_matrix[-1]
    psi = psi.reshape(nq, n_paths)
    vals = psi.mean(axis=1)
    errs = psi.std(axis=1, ddof=1) / math.sqrt(n_paths)
    return vals, errs

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
compositions with convolved fields, not closed forms.  One inverse-flow
step calls sigma_eff once, on its whole stencil stacked (z, z +- h e_p and
(z +- h e_p) +- h e_q: 1 + 2d + 4d^2 point sets), and the drift once, on
the first 1 + 2d; every difference is taken from slices of the two.
The convolutions k * u^j of the smooth kernels are tabulated on a lattice
over the padded box (one FFT grid convolution per snapshot, with a cached
kernel spectrum) and read back through C^2 cubic splines, so the nested
differences of the inverse flow stay meaningful; in time they blend
linearly between snapshots, which is exact because convolution is linear.
A read finds each point's cell by arithmetic on the uniform lattice and
applies Horner's rule on every axis to the blended pp coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridField
from .kernels import CHUNK, KernelSpec, convolve_field, convolve_field_grid
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
# Lattice nodes over all snapshots (16 MB of float64 values, 4^d times
# that in spline coefficients) above which a kernel keeps the exact
# quadrature path instead of a table.
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


def _not_a_knot_pp(x: np.ndarray, y: np.ndarray):
    """Not-a-knot cubic splines through the rows of y (S, n) at n >= 4
    increasing nodes x in pp form: breakpoints (x but x_1 and x_-2) and
    coef[3 - m, s, i] = S_s^(m)(brk_i) / m!.  The node slopes of every row
    come from one tridiagonal elimination without pivoting (de Boor, A
    Practical Guide to Splines, ch. IV), each piece from its slopes."""
    n, dx, e0, e1 = x.size, np.diff(x), x[2] - x[0], x[-1] - x[-3]
    d = np.diff(y, axis=1).T / dx[:, None]        # (n - 1, S) secants
    # row i: a_i s_{i-1} + b_i s_i + c_i s_{i+1} = rhs_i
    a = [0.0, *dx[1:], e1]
    b = [dx[1], *(2.0 * (dx[:-1] + dx[1:])), dx[-2]]
    c = [e0, *dx[:-1], 0.0]
    rhs = np.vstack([((dx[0] + 2 * e0) * dx[1] * d[0] + dx[0] ** 2 * d[1]) / e0,
                     3.0 * (dx[1:, None] * d[:-1] + dx[:-1, None] * d[1:]),
                     (dx[-1] ** 2 * d[-2] + (2 * e1 + dx[-1]) * dx[-2] * d[-1])
                     / e1])
    piv, rows = [b[0]], list(rhs)     # rows: views of rhs, updated in place
    for i in range(1, n):
        f = a[i] / piv[-1]
        piv.append(b[i] - f * c[i - 1])
        rows[i] -= f * rows[i - 1]
    rhs /= np.array(piv)[:, None]
    for i in range(n - 2, -1, -1):
        rows[i] -= c[i] / piv[i] * rows[i + 1]
    keep = np.r_[0, 2:n - 2]
    h, dk, s0, s1 = dx[keep], d[keep].T, rhs[keep].T, rhs[keep + 1].T
    coef = np.stack([(s0 + s1 - 2.0 * dk) / h ** 2,
                     (3.0 * dk - 2.0 * s0 - s1) / h, s0, y[:, keep]])
    return np.r_[x[0], x[2:-2], x[-1]], coef


class ConvolutionTable:
    """(k * u^j)(x) at every snapshot, read back from a C^2 cubic spline.

    The lattice is a grid over the box padded by the kernel's support
    radius: each PDE cell splits into r sub-cells per axis, with r chosen
    so that the lattice step is at most TABLE_STEP * bandwidth, and the
    first sub-cell centre of each is the PDE cell centre.  A snapshot puts
    each PDE cell's mass on that node, zeros elsewhere, and one FFT grid
    convolution gives every lattice value; all snapshots share its batch
    plan.

    The tensor-product not-a-knot spline is fitted by _not_a_knot_pp
    along each axis in turn, on blocks of snapshots of at most CHUNK
    coefficients (4^d per lattice piece), and read by cell index on the
    uniform lattice instead of an interval search.
    """

    def __init__(self, k: KernelSpec, fields: list, j: int, r, pad):
        g = fields[0]
        h, step = g.spacing, g.spacing / r
        shape = r * (np.asarray(g.shape) + 2 * pad)
        lo = g.lo - pad * h + (h - step) / 2
        lattice = GridField(lo, lo + shape * step, np.zeros((1, *shape)))
        self.axes = [lattice.axis_centers(a) for a in range(g.dim)]
        nodes = (0,) + tuple(slice(q * p, q * (p + n), q)
                             for q, p, n in zip(r, pad, g.shape))
        values = np.empty((len(fields), *shape))
        for s, u in enumerate(fields):
            lattice.values[nodes] = u.values[j] * np.prod(r)
            values[s] = convolve_field_grid((k,), lattice, (0,))[0]
        # the tensor-product spline, one lattice axis at a time: each fit
        # puts its 4 coefficients first and its pieces last
        self.coef = np.empty((4 ** g.dim, len(fields),
                              math.prod(x.size - 3 for x in self.axes)))
        block = max(1, CHUNK // self.coef[:, 0].size)
        for s in range(0, len(fields), block):
            c, self.brk = values[None, s:s + block], []
            for x in self.axes:
                y = np.moveaxis(c, 2, -1)
                brk, c = _not_a_knot_pp(x, y.reshape(-1, x.size))
                c = c.reshape((-1,) + y.shape[1:-1] + c.shape[-1:])
                self.brk.append(brk)
            self.coef[:, s:s + block] = c.reshape(c.shape[:2] + (-1,))
        # the end intervals are twice as wide as the uniform interior ones
        inner = [np.diff(brk[1:-1]) for brk in self.brk]
        self.step = [float(v.mean()) for v in inner]
        if not all(np.allclose(v, step, rtol=1e-9, atol=0.0)
                   for v, step in zip(inner, self.step)):
            raise ValueError("table needs uniform interior breakpoints")

    def __call__(self, weights: list, X: np.ndarray) -> tuple:
        """(sum_s w_s (k * u^s)(X), covered) over the (snapshot, weight)
        pairs of a time blend, read by cell index and Horner's rule on every
        axis from the blended pp coefficients; covered marks the points
        inside the lattice, and the values elsewhere carry no meaning."""
        c = sum(w * self.coef[:, s] for s, w in weights)
        n, dxs, covered = X.shape[0], [], True
        for a, (brk, step) in enumerate(zip(self.brk, self.step)):
            x = X[:, a]
            covered = covered & (x >= brk[0]) & (x <= brk[-1])
            # clamping the cell index folds the double-width end intervals
            # into the first and last and keeps far and NaN coordinates in
            # range of the cast; a point within rounding of a breakpoint may
            # take the neighbouring piece, which matches it there to rounding
            i = np.fmin(np.fmax(np.floor((x - brk[1]) / step), -1.0),
                        brk.size - 3).astype(np.intp) + 1
            dxs.append(x - brk[i])
            flat = i if a == 0 else flat * (brk.size - 1) + i
        c = np.take(c, flat, axis=1)
        for a, dx in enumerate(dxs):
            c = c.reshape(4 ** (len(dxs) - 1 - a), 4, n)
            c = ((c[:, 0] * dx + c[:, 1]) * dx + c[:, 2]) * dx + c[:, 3]
        return c[0], covered


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
            return convolve_field(k, self._field_at(t), j, X)
        out, covered = table(self._time_weights(t), X)
        if not covered.all():
            out[~covered] = convolve_field(k, self._field_at(t), j,
                                           X[~covered])
        return out

    def _v_args(self, kmat, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.stack([self.convolved(kmat[i][j], j, t, X)
                         for j in range(self.model.M)], axis=1)

    def sigma_eff(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        return self.model.noise_scale * self.model.eval_sigma(
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

def _shift(X, h):
    """The points X + h e_p and X - h e_p of every axis p, stacked first:
    X (..., n, d) gives (2d, ..., n, d)."""
    d = X.shape[-1]
    out = []
    for p in range(d):
        dx = np.zeros(d)
        dx[p] = h
        out += [X + dx, X - dx]
    return np.stack(out)


def _diff(V, h, rank):
    """Central differences [d_p f] from the values V (2d, ..., n, *r) of f
    at the points of _shift, where rank = len(r): (..., n, d, *r)."""
    return np.stack([(V[p] - V[p + 1]) / (2.0 * h)
                     for p in range(0, len(V), 2)], axis=-1 - rank)


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
        # the stencil: Y = z, z +- h e_p and, for the gradients at those,
        # (z +- h e_p) +- h e_q; sigma_eff at all of them in one call
        Y = np.concatenate([z[None], _shift(z, h_fd)])      # (1 + 2d, n, d)
        YY = _shift(Y[1:], h_fd)                            # (2d, 2d, n, d)
        S = coeffs.sigma_eff(i, t - s_k, np.concatenate(
            [Y, YY.reshape(-1, n, d)]).reshape(-1, d)).reshape(-1, n, d, d)
        AY = S[:1 + 2 * d]
        # the gradient at z reads the shifts of z, which are Y[1:]
        dAY = _diff(np.concatenate(
            [AY[1:, None], S[1 + 2 * d:].reshape(2 * d, 2 * d, n, d, d)],
            axis=1), h_fd, 2)                           # (1 + 2d, n, p, k, q)
        # Stratonovich correction corr_k = sum_{l,q} A_lq d_l A_kq, and
        # beta = -(b - corr)
        corr = np.stack([np.einsum("nlq,nlkq->nk", a, g)
                         for a, g in zip(AY, dAY)])
        betaY = -(coeffs.drift(i, t - s_k, Y.reshape(-1, d)).reshape(
            -1, n, d) - corr)
        A, beta, dA = AY[0], betaY[0], dAY[0]
        dbeta = _diff(betaY[1:], h_fd, 1)                   # (n, p, k)

        # divergence of each noise column and of the Stratonovich drift
        div_AY = np.stack([np.einsum("nkkq->nq", g) for g in dAY])
        div_A = div_AY[0]                                   # f^q
        ddivA = _diff(div_AY[1:], h_fd, 1)                  # (n, p, q)
        # beta_circ = beta - 1/2 corr
        dcorr = _diff(corr[1:], h_fd, 1)
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
    coeffs.check_spacing(dt)
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

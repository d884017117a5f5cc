"""Explicit solver for the nonlocal cross-diffusion-reaction system.

For each species i,

    d/dt u^i = sum_kl d2_kl( a_eff^i_kl(., G*u) u^i )
             - sum_k  d_k ( b^i_k(., H*u) u^i )
             + ( r_i - competition_i ) u^i

with a_eff = (noise_scale^2 / 2) sigma sigma* and competition either the
kernel form sum_j C^ij * u^j or the local form sum_j c_ij u^j.  The double
divergence is discretized directly as differences of the product a u,
matching the weak form term by term; boundary is zero Dirichlet on a box
padded so boundary mass stays negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridField
from .kernels import convolve_field_grid
from .model import CoefficientModel, diffusion_matrix


class CFLError(RuntimeError):
    """Time step violates the explicit stability bound."""


@dataclass
class SolverParams:
    dt: float
    t_end: float
    mode: str = "kernel"            # "kernel" or "local"
    snapshot_times: tuple = ()
    cfl_safety: float = 0.9
    leak_budget: float = 1e-6       # boundary mass fraction flag threshold

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end + 1e-15:
            raise ValueError("need 0 < dt <= t_end")
        if self.mode not in ("kernel", "local"):
            raise ValueError("mode must be 'kernel' or 'local'")
        snaps = sorted(float(t) for t in self.snapshot_times) or [self.t_end]
        if snaps[0] < -1e-15 or snaps[-1] > self.t_end + 1e-9:
            raise ValueError("snapshot times must lie in [0, t_end]")
        self.snapshot_times = tuple(snaps)


@dataclass
class PDESolution:
    snapshots: list              # GridField per snapshot time
    params: SolverParams
    clamp_mass: float            # total mass removed by negativity clamping
    max_boundary_fraction: float
    leak_flag: bool
    masses: np.ndarray           # (n_snapshots, M)

    @property
    def times(self):
        return np.array([s.time for s in self.snapshots])

    def at_time(self, t: float) -> GridField:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 + 1e-9 * abs(t):
            raise KeyError(f"no snapshot at t={t}")
        return self.snapshots[idx]


# ---------------------------------------------------------------------
# zero-Dirichlet finite differences

def _pad(F: np.ndarray) -> np.ndarray:
    return np.pad(F, 1, mode="constant")


def _d1(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    P = _pad(F)
    sl_p = [slice(1, -1)] * F.ndim
    sl_m = [slice(1, -1)] * F.ndim
    sl_p[axis] = slice(2, None)
    sl_m[axis] = slice(None, -2)
    return (P[tuple(sl_p)] - P[tuple(sl_m)]) / (2.0 * h)


def _d2(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    P = _pad(F)
    sl_p = [slice(1, -1)] * F.ndim
    sl_m = [slice(1, -1)] * F.ndim
    sl_p[axis] = slice(2, None)
    sl_m[axis] = slice(None, -2)
    return (P[tuple(sl_p)] - 2.0 * F + P[tuple(sl_m)]) / (h * h)


def _d2_cross(F: np.ndarray, hx: float, hy: float) -> np.ndarray:
    P = _pad(F)
    return (P[2:, 2:] - P[2:, :-2] - P[:-2, 2:] + P[:-2, :-2]) / (4.0 * hx * hy)


# ---------------------------------------------------------------------

def _conv_matrix(kmat, u: GridField) -> list:
    """[i][j] grid arrays of K^ij * u^j via the FFT fast path."""
    return [[convolve_field_grid(kmat[i][j], u, j) for j in range(u.n_species)]
            for i in range(u.n_species)]


def rhs(u: GridField, model: CoefficientModel, mode: str = "kernel"):
    """Right-hand side arrays (M, *shape) and the grid sup of a_eff."""
    M, d = model.M, model.d
    if u.n_species != M or u.dim != d:
        raise ValueError("field does not match the model dimensions")
    pts = u.centers()
    h = u.spacing
    shape = u.shape
    conv_G = _conv_matrix(model.G, u)
    conv_H = _conv_matrix(model.H, u)
    if mode == "kernel":
        if model.C is None:
            death = [np.zeros(shape) for _ in range(M)]
        else:
            conv_C = _conv_matrix(model.C, u)
            death = [sum(conv_C[i][j] for j in range(M)) for i in range(M)]
    elif mode == "local":
        if model.comp is None:
            raise ValueError("local mode needs competition constants")
        death = [sum(model.comp[i, j] * u.values[j] for j in range(M))
                 for i in range(M)]
    else:
        raise ValueError("mode must be 'kernel' or 'local'")

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
            acc += _d2(a[..., k, k] * ui, h[k], k)
        if d == 2:
            acc += 2.0 * _d2_cross(a[..., 0, 1] * ui, h[0], h[1])
        for k in range(d):
            acc -= _d1(b[..., k] * ui, h[k], k)
        acc += (r - death[i]) * ui
        out[i] = acc
    return out, a_sup


def _check_cfl(dt: float, u: GridField, a_sup: float, safety: float):
    h2 = float(np.min(u.spacing) ** 2)
    if a_sup <= 0:
        return
    bound = safety * h2 / (2.0 * u.dim * a_sup)
    if dt > bound * (1.0 + 1e-12):
        raise CFLError(f"dt={dt:g} exceeds stability bound {bound:g} "
                       f"(sup a={a_sup:g}, h^2={h2:g})")


def step(u: GridField, model: CoefficientModel, dt: float,
         mode: str = "kernel", cfl_safety: float = 0.9):
    """One explicit Euler step; returns (new field, clamped mass)."""
    dudt, a_sup = rhs(u, model, mode)
    _check_cfl(dt, u, a_sup, cfl_safety)
    new = u.values + dt * dudt
    clamped = float(-np.minimum(new, 0.0).sum() * u.cell_volume)
    out = GridField(u.lo, u.hi, np.maximum(new, 0.0), u.time + dt)
    return out, clamped


def solve(model: CoefficientModel, u0: GridField,
          params: SolverParams) -> PDESolution:
    """March the system to t_end, storing snapshots at requested times."""
    n_steps = int(round(params.t_end / params.dt))
    if abs(n_steps * params.dt - params.t_end) > 1e-9 * params.t_end:
        raise ValueError("t_end must be a multiple of dt")
    snap_steps = []
    for t in params.snapshot_times:
        k = int(round(t / params.dt))
        if abs(k * params.dt - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"snapshot time {t} is not on the step grid")
        snap_steps.append(k)

    u = u0.copy()
    u.time = 0.0
    snapshots = []
    clamp_total = 0.0
    max_bdry = u.boundary_mass_fraction()
    if 0 in snap_steps:
        snapshots.append(u.copy())
    for k in range(1, n_steps + 1):
        u, clamped = step(u, model, params.dt, params.mode,
                          params.cfl_safety)
        u.time = k * params.dt
        clamp_total += clamped
        if k in snap_steps:
            snapshots.append(u.copy())
            max_bdry = max(max_bdry, u.boundary_mass_fraction())
    masses = np.array([[s.mass(i) for i in range(model.M)]
                       for s in snapshots])
    return PDESolution(snapshots, params, clamp_total, max_bdry,
                       max_bdry > params.leak_budget, masses)


# ---------------------------------------------------------------------

@dataclass
class MassBoundReport:
    rows: list      # (t, species, mass, bound, ok)
    passed: bool


def mass_bound_check(solution: PDESolution, model: CoefficientModel,
                     tol: float = 1e-4) -> MassBoundReport:
    """Check <u^i_t, 1> <= exp(rbar_i t) <u^i_0, 1> + tol at all snapshots."""
    rows = []
    m0 = solution.masses[0]
    ok_all = True
    for snap, masses in zip(solution.snapshots, solution.masses):
        for i in range(model.M):
            bound = float(np.exp(model.growth_bounds[i] * snap.time) * m0[i])
            ok = masses[i] <= bound + tol
            ok_all = ok_all and ok
            rows.append((snap.time, i, float(masses[i]), bound, ok))
    return MassBoundReport(rows, ok_all)

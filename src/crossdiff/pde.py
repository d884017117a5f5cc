"""Explicit solver for the nonlocal cross-diffusion-reaction system.

For each species i,

    d/dt u^i = sum_kl d2_kl( a_eff^i_kl(., G*u) u^i )
             - sum_k  d_k ( b^i_k(., H*u) u^i )
             + ( r_i - competition_i ) u^i

with a_eff = (noise_scale^2 / 2) sigma sigma* and competition either the
kernel form sum_j C^ij * u^j or the local form sum_j c_ij u^j.  The double
divergence is discretized directly as differences of the product a u,
matching the weak form term by term; boundary is zero Dirichlet on a box
padded so boundary mass stays negligible; a solve flags a boundary mass
fraction above LEAK_BUDGET.  solve builds one step plan before its loop
(model, mode, checks, convolution batch, grid constants, growth rates and
density-free coefficients at the cell centres); step and rhs take it.
A step raises CFLError unless dt times each stability rate is at most
CFL_SAFETY, so a NaN rate raises too.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .grids import GridField
from .kernels import convolve_field_grid
from .model import CoefficientModel, density_free_value, diffusion_matrix


# bound on dt times each stability rate, and on the boundary mass fraction
CFL_SAFETY = 0.9
LEAK_BUDGET = 1e-6


class CFLError(RuntimeError):
    """Time step violates the explicit stability bound."""


@dataclass
class SolverParams:
    dt: float
    t_end: float
    mode: str = "kernel"            # "kernel" or "local"
    snapshot_times: tuple = ()

    def __post_init__(self):
        if self.mode not in ("kernel", "local"):
            raise ValueError("mode must be 'kernel' or 'local'")
        self.snapshot_times = tuple(time_grid(
            self.dt, self.t_end, self.snapshot_times)[1].values())


def time_grid(dt: float, t_end: float, times=()) -> tuple:
    """The step count n >= 1 of t_end and {step index in [0, n]: time} of
    the snapshot times (default t_end) on the step grid of dt > 0, sorted;
    else ValueError, whose message starts with the field at fault."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")

    def on_grid(t, what, lo, hi):
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"{what} {t} is not on the step grid of dt {dt}")
        if not lo <= k <= hi:
            raise ValueError(f"{what} {t} must lie in "
                             f"[{lo * dt:g}, {hi * dt:g}]")
        return k
    n = on_grid(t_end, "t_end", 1, float("inf"))
    return n, {on_grid(t, "snapshot_times entry", 0, n): t
               for t in sorted(float(t) for t in times) or [t_end]}


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
# zero-Dirichlet finite differences on a species stack (M, *shape);
# spatial axis k of the grid is axis k + 1 of the stack

def _neighbours(F: np.ndarray, axis: int) -> tuple:
    """F one cell ahead and one cell behind along axis, zero beyond it."""
    P = np.zeros(F.shape[:axis] + (F.shape[axis] + 2,) + F.shape[axis + 1:])
    P[(slice(None),) * axis + (slice(1, -1),)] = F
    return (P[(slice(None),) * axis + (slice(2, None),)],
            P[(slice(None),) * axis + (slice(None, -2),)])


def _d1(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    ahead, behind = _neighbours(F, axis)
    return (ahead - behind) / (2.0 * h)


def _d2(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    ahead, behind = _neighbours(F, axis)
    return (ahead - 2.0 * F + behind) / (h * h)


def _d2_cross(F: np.ndarray, hx: float, hy: float, ax: int,
              ay: int) -> np.ndarray:
    (pp, pm), (mp, mm) = [_neighbours(S, ay) for S in _neighbours(F, ax)]
    return (pp - pm - mp + mm) / (4.0 * hx * hy)


# ---------------------------------------------------------------------

# What the steps of a solve share: the checked model, mode and grid (values
# shape, lo, hi), the kernel and species tuples of the batched convolution,
# the cell centres, spacing h, cell volume, min(h)^2, the growth rates r_i at
# the centres, (M, n_cells), since growth functions depend on x only, and
# _sigma and _drift there when density-free, else None.
_StepPlan = namedtuple("_StepPlan",
                       "model mode grid ks js pts h vol h2 growth a b")


def _sigma(model: CoefficientModel, pts, v):
    """a_eff (M, n_cells, d, d) at the cell centres pts and its sup, where
    v[i, cell, j] is G^ij * u^j there."""
    a = np.array([model.diffusion_factor * diffusion_matrix(
        model, i, pts, v[i]) for i in range(model.M)])
    return a, float(np.abs(a).max())


def _drift(model: CoefficientModel, pts, h, v):
    """b (M, n_cells, d) and max_k max|b_k| / h_k; as _sigma, H for G."""
    b = np.array([model.eval_drift(i, pts, v[i]) for i in range(model.M)])
    return b, float((np.abs(b) / h).max())


def _plan(u: GridField, model: CoefficientModel, mode: str) -> _StepPlan:
    """The step plan of (u, model, mode), after checking that they fit."""
    M = model.M
    if u.n_species != M or u.dim != model.d:
        raise ValueError("field does not match the model dimensions")
    if mode not in ("kernel", "local"):
        raise ValueError("mode must be 'kernel' or 'local'")
    if mode == "local" and model.comp is None:
        raise ValueError("local mode needs competition constants")
    pts, h, zero = u.centers(), u.spacing, np.zeros((M, u.values[0].size, M))
    a = density_free_value(lambda v: _sigma(model, pts, v), model.sigma_fns,
                           "sigma", zero)
    b = density_free_value(lambda v: _drift(model, pts, h, v),
                           model.drift_fns, "drift", zero)
    # one batched convolution for every pair of G, H and (kernel mode) C,
    # less the matrices of a planned a or b
    mats = [model.G] * (a is None) + [model.H] * (b is None) + (
        [model.C] if mode == "kernel" and model.C is not None else [])
    return _StepPlan(
        model, mode, (u.values.shape, u.lo.tolist(), u.hi.tolist()),
        tuple(row[j] for mat in mats for row in mat for j in range(M)),
        tuple(j for _ in range(len(mats) * M) for j in range(M)), pts, h,
        u.cell_volume, float(np.min(h) ** 2),
        np.array([model.eval_growth(i, pts) for i in range(M)]), a, b)


def rhs(u: GridField, plan: _StepPlan):
    """Right-hand side arrays (M, *shape), the grid sup of a_eff, and the
    rates max_k max|b_k| / h_k and max|r - death| of the stability bounds,
    with the model and mode of plan, a step plan (_plan) of u's grid."""
    if (u.values.shape, u.lo.tolist(), u.hi.tolist()) != plan.grid:
        raise ValueError("plan does not match the field's grid")
    model = plan.model
    M, d, pts, h, U = model.M, model.d, plan.pts, plan.h, u.values
    # [matrix, i, cell, j] of the plan's batch, read in its order
    conv = iter(np.ascontiguousarray(convolve_field_grid(
        plan.ks, u, plan.js).reshape(-1, M, M, pts.shape[0]).transpose(
        0, 1, 3, 2)) if plan.ks else ())
    a, a_sup = plan.a or _sigma(model, pts, next(conv))
    b, b_rate = plan.b or _drift(model, pts, h, next(conv))
    a, b = a.reshape(U.shape + (d, d)), b.reshape(U.shape + (d,))
    if plan.mode == "local":
        death = sum(model.comp[:, j, None] * U[j].ravel() for j in range(M))
    else:   # 0 without competition kernels
        death = sum(c[..., j] for c in conv for j in range(M))
    react = (plan.growth - death).reshape(U.shape)

    acc = np.zeros(U.shape)
    for k in range(d):
        acc += _d2(a[..., k, k] * U, h[k], k + 1)
    for k in range(d):
        for l in range(k + 1, d):
            acc += 2.0 * _d2_cross(a[..., k, l] * U, h[k], h[l], k + 1, l + 1)
    for k in range(d):
        acc -= _d1(b[..., k] * U, h[k], k + 1)
    acc += react * U
    return acc, a_sup, b_rate, float(np.abs(react).max())


def _check_cfl(dt: float, plan: _StepPlan, a_sup: float, b_rate: float,
               react_sup: float):
    """dt times each rate of the Euler step stays below CFL_SAFETY:
    diffusive 2 d sup a / h^2, advective max_k max|b_k| / h_k, reaction
    max|r - death|.  A rate that is not finite is over its bound."""
    rates = {"diffusive": 2.0 * plan.model.d * a_sup / plan.h2,
             "advective": b_rate, "reaction": react_sup}
    for name, rate in rates.items():
        if not dt * rate <= CFL_SAFETY * (1.0 + 1e-12):
            raise CFLError(f"dt={dt:g} exceeds the {name} stability bound "
                           f"{CFL_SAFETY / rate:g} (rate {rate:g})")


def step(u: GridField, dt: float, plan: _StepPlan):
    """One explicit Euler step of plan's model and mode, as rhs; returns
    (new field, clamped mass)."""
    dudt, *rates = rhs(u, plan)
    _check_cfl(dt, plan, *rates)
    new = u.values + dt * dudt
    clamped = float(-np.minimum(new, 0.0).sum() * plan.vol)
    return GridField(u.lo, u.hi, np.maximum(new, 0.0), u.time + dt), clamped


def solve(model: CoefficientModel, u0: GridField,
          params: SolverParams) -> PDESolution:
    """March the system to t_end, storing snapshots at requested times."""
    n_steps, snap_steps = time_grid(params.dt, params.t_end,
                                    params.snapshot_times)
    u = u0.copy()
    u.time = 0.0
    snapshots, clamp_total = [], 0.0
    max_bdry = u.boundary_mass_fraction()
    if 0 in snap_steps:
        snapshots.append(u.copy())
    plan = _plan(u, model, params.mode)
    for k in range(1, n_steps + 1):
        u, clamped = step(u, params.dt, plan)
        u.time = k * params.dt
        clamp_total += clamped
        if k in snap_steps:
            snapshots.append(u.copy())
            max_bdry = max(max_bdry, u.boundary_mass_fraction())
    masses = np.array([[s.mass(i) for i in range(model.M)]
                       for s in snapshots])
    return PDESolution(snapshots, params, clamp_total, max_bdry,
                       max_bdry > LEAK_BUDGET, masses)


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

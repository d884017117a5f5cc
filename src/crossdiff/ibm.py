"""Individual-based simulation of the measure-valued population process.

Each particle of species i diffuses by the Euler-Maruyama step

    X <- X + b^i(X, H*nu) dt + noise_scale * sigma^i(X, G*nu) sqrt(dt) xi

with the convolutions frozen at the step-start configuration, reproduces
clonally at rate r_i(X) and dies at rate sum_j C^ij * nu^j(X).  Two schemes
are provided: operator splitting (diffusion then demography per step) and
exact event thinning, which serves as the unbiased reference for the
splitting bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngs
from .initial import InitialCondition
from .kernels import EmpiricalMeasure, convolve_empirical
from .model import CoefficientModel


class SimulationError(RuntimeError):
    """Blow-up or non-finite state during simulation."""


@dataclass
class SpeciesState:
    positions: np.ndarray   # (N, d), kept in particle-id order
    ids: np.ndarray         # (N,) stable identifiers

    def copy(self):
        return SpeciesState(self.positions.copy(), self.ids.copy())


@dataclass
class PopulationState:
    species: list            # SpeciesState per species
    K: int
    t: float = 0.0
    next_id: np.ndarray | None = None

    def __post_init__(self):
        if self.next_id is None:
            self.next_id = np.array(
                [s.ids.max() + 1 if s.ids.size else 0 for s in self.species],
                dtype=np.int64)

    @property
    def n_species(self):
        return len(self.species)

    def counts(self) -> np.ndarray:
        return np.array([s.positions.shape[0] for s in self.species])

    def measure(self, i: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.species[i].positions.copy(), self.K, i)

    def copy(self):
        return PopulationState([s.copy() for s in self.species], self.K,
                               self.t, self.next_id.copy())


@dataclass
class SimParams:
    t_end: float
    dt: float
    K: int
    scheme: str = "splitting"       # or "thinned-events"
    seed: int = 0
    snapshot_times: tuple = ()
    ceiling: int = 1_000_000        # population explosion guard (total N)

    def __post_init__(self):
        if not 0 < self.dt <= self.t_end:
            raise ValueError("need 0 < dt <= t_end")
        if self.scheme not in ("splitting", "thinned-events"):
            raise ValueError("scheme must be 'splitting' or 'thinned-events'")
        snaps = sorted(float(t) for t in self.snapshot_times) or [self.t_end]
        if snaps[0] < 0 or snaps[-1] > self.t_end + 1e-9:
            raise ValueError("snapshot times must lie in [0, t_end]")
        self.snapshot_times = tuple(snaps)


@dataclass
class Trajectory:
    snapshots: list          # (time, PopulationState)
    births: np.ndarray       # per-species counters
    deaths: np.ndarray
    params: SimParams
    rng_descriptor: str

    @property
    def times(self):
        return np.array([t for t, _ in self.snapshots])

    def masses(self) -> np.ndarray:
        return np.array([[st.measure(i).mass for i in range(st.n_species)]
                         for _, st in self.snapshots])


# ---------------------------------------------------------------------

def sample_initial(init_specs: list, K: int,
                   rng: np.random.Generator) -> PopulationState:
    """round(m_i K) i.i.d. positions per species from its density."""
    species = []
    for spec in init_specs:
        if not isinstance(spec, InitialCondition):
            raise TypeError("initial spec must be an InitialCondition")
        n = int(round(spec.mass * K))
        pos = spec.sample(n, rng) if n else np.zeros((0, spec.dim))
        species.append(SpeciesState(pos, np.arange(n, dtype=np.int64)))
    return PopulationState(species, K, 0.0)


def _step_start_fields(state: PopulationState, model: CoefficientModel,
                       need: str = "gh"):
    """Convolved coefficient arguments at every particle, frozen measures."""
    measures = [state.measure(j) for j in range(model.M)]
    vg, vh, death = [], [], []
    for i in range(model.M):
        x = state.species[i].positions
        n = x.shape[0]
        g = np.zeros((n, model.M))
        h = np.zeros((n, model.M))
        dd = np.zeros(n)
        if n:
            for j in range(model.M):
                if "g" in need:
                    g[:, j] = convolve_empirical(model.G[i][j], measures[j], x)
                if "h" in need:
                    h[:, j] = convolve_empirical(model.H[i][j], measures[j], x)
                if "d" in need and model.C is not None:
                    dd += convolve_empirical(model.C[i][j], measures[j], x)
        vg.append(g)
        vh.append(h)
        death.append(dd)
    return vg, vh, death


def step_diffuse(state: PopulationState, model: CoefficientModel, dt: float,
                 rng: np.random.Generator) -> PopulationState:
    """Euler-Maruyama move of every particle, coefficients frozen at start."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    vg, vh, _ = _step_start_fields(state, model, need="gh")
    new_species = []
    for i in range(model.M):
        x = state.species[i].positions
        if x.shape[0] == 0:
            new_species.append(state.species[i].copy())
            continue
        b = model.eval_drift(i, x, vh[i])
        s = model.eval_sigma(i, x, vg[i])
        xi = rng.standard_normal(x.shape)
        move = b * dt + model.noise_scale * math.sqrt(dt) * \
            np.einsum("nkl,nl->nk", s, xi)
        x_new = x + move
        if not np.all(np.isfinite(x_new)):
            raise SimulationError(
                f"non-finite position in species {i} at t={state.t:g}")
        new_species.append(SpeciesState(x_new, state.species[i].ids.copy()))
    return PopulationState(new_species, state.K, state.t + dt,
                           state.next_id.copy())


def step_demography(state: PopulationState, model: CoefficientModel,
                    dt: float, rng: np.random.Generator) -> PopulationState:
    """Splitting demography with step-start frozen rates.

    Each particle independently clones with prob 1 - exp(-r dt) and dies
    with prob 1 - exp(-D dt); both may happen (the clone survives).
    """
    _, _, death = _step_start_fields(state, model, need="d")
    new_species = []
    next_id = state.next_id.copy()
    for i in range(model.M):
        x = state.species[i].positions
        ids = state.species[i].ids
        n = x.shape[0]
        if n == 0:
            new_species.append(state.species[i].copy())
            continue
        r = model.eval_growth(i, x)
        u_birth = rng.random(n)
        u_death = rng.random(n)
        born = u_birth < -np.expm1(-r * dt)
        dead = u_death < -np.expm1(-death[i] * dt)
        clones = x[born]
        keep = ~dead
        pos = np.vstack([x[keep], clones])
        new_ids = np.concatenate([
            ids[keep],
            next_id[i] + np.arange(clones.shape[0], dtype=np.int64)])
        next_id[i] += clones.shape[0]
        new_species.append(SpeciesState(pos, new_ids))
    return PopulationState(new_species, state.K, state.t, next_id)


def _demography_counts(before: PopulationState, after: PopulationState,
                       births, deaths):
    for i in range(before.n_species):
        cur = after.species[i].ids
        n_new = int(np.sum(cur >= before.next_id[i]))
        births[i] += n_new
        deaths[i] += before.species[i].ids.shape[0] - (cur.shape[0] - n_new)


# ---------------------------------------------------------------------

def _simulate_splitting(model, state, params):
    births = np.zeros(model.M, dtype=np.int64)
    deaths = np.zeros(model.M, dtype=np.int64)
    n_steps = int(round(params.t_end / params.dt))
    snap_steps = {int(round(t / params.dt)): t for t in params.snapshot_times}
    for t in params.snapshot_times:
        if abs(round(t / params.dt) * params.dt - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"snapshot time {t} is not on the step grid")
    snapshots = []
    if 0 in snap_steps:
        snapshots.append((0.0, state.copy()))
    for k in range(n_steps):
        state = step_diffuse(state, model, params.dt,
                             rngs.stream(params.seed, k, rngs.DIFFUSE))
        before = state
        state = step_demography(state, model, params.dt,
                                rngs.stream(params.seed, k, rngs.DEMOGRAPHY))
        _demography_counts(before, state, births, deaths)
        if int(state.counts().sum()) > params.ceiling:
            raise SimulationError("population exceeded the configured ceiling")
        if k + 1 in snap_steps:
            snapshots.append((snap_steps[k + 1], state.copy()))
    return snapshots, births, deaths


def _total_rate_bound(model: CoefficientModel, state: PopulationState):
    counts = state.counts()
    total_mass = counts.sum() / state.K
    sup_c = 0.0
    if model.C is not None:
        sup_c = max(model.C[i][j].sup_bound
                    for i in range(model.M) for j in range(model.M))
    per_particle = max(model.growth_bounds) + model.M * sup_c * total_mass
    return counts.sum() * per_particle, per_particle


def _diffuse_interval(model, state, tau, dt, seed, counter):
    """Diffuse all particles over an interval with Euler substeps <= dt."""
    remaining = tau
    sub = 0
    while remaining > 1e-15:
        h = min(dt, remaining)
        state = step_diffuse(state, model, h,
                             rngs.stream(seed, *counter, sub, rngs.DIFFUSE))
        remaining -= h
        sub += 1
    return state


def _simulate_thinned(model, state, params):
    births = np.zeros(model.M, dtype=np.int64)
    deaths = np.zeros(model.M, dtype=np.int64)
    snapshots = []
    snap_iter = list(params.snapshot_times)
    if snap_iter and snap_iter[0] == 0.0:
        snapshots.append((0.0, state.copy()))
        snap_iter.pop(0)
    event_counter = 0
    t = 0.0
    while True:
        lam_total, per_particle = _total_rate_bound(model, state)
        g = rngs.stream(params.seed, event_counter, rngs.EVENT)
        tau = g.exponential(1.0 / lam_total) if lam_total > 0 else math.inf
        target = t + tau
        # cross pending snapshot times first
        while snap_iter and snap_iter[0] <= target + 1e-15:
            t_snap = snap_iter.pop(0)
            state = _diffuse_interval(model, state, t_snap - t, params.dt,
                                      params.seed, (event_counter, 1))
            t = t_snap
            snapshots.append((t, state.copy()))
        if target > params.t_end:
            break
        state = _diffuse_interval(model, state, target - t, params.dt,
                                  params.seed, (event_counter, 2))
        t = target
        state.t = t
        counts = state.counts()
        n_total = int(counts.sum())
        if n_total == 0:
            # only snapshots remain
            continue_flag = bool(snap_iter)
            if not continue_flag:
                break
            event_counter += 1
            continue
        # pick a particle uniformly, accept/reject by the true rates
        pick = int(g.integers(0, n_total))
        i = int(np.searchsorted(np.cumsum(counts), pick, side="right"))
        local = pick - int(np.sum(counts[:i]))
        x = state.species[i].positions[local:local + 1]
        theta = g.uniform(0.0, per_particle)
        r_val = float(model.eval_growth(i, x)[0])
        d_val = 0.0
        if model.C is not None:
            for j in range(model.M):
                d_val += float(convolve_empirical(model.C[i][j],
                                                  state.measure(j), x)[0])
        if r_val + d_val > per_particle * (1.0 + 1e-12):
            raise SimulationError(
                f"species {i} rate r + d = {r_val + d_val:g} at t={t:g} "
                f"exceeds the thinning bound {per_particle:g}; raise the "
                f"declared rbar")
        if theta < r_val:
            sp = state.species[i]
            sp.positions = np.vstack([sp.positions, x])
            sp.ids = np.append(sp.ids, state.next_id[i])
            state.next_id[i] += 1
            births[i] += 1
        elif theta < r_val + d_val:
            sp = state.species[i]
            keep = np.ones(sp.positions.shape[0], dtype=bool)
            keep[local] = False
            sp.positions = sp.positions[keep]
            sp.ids = sp.ids[keep]
            deaths[i] += 1
        if int(state.counts().sum()) > params.ceiling:
            raise SimulationError("population exceeded the configured ceiling")
        event_counter += 1
    return snapshots, births, deaths


def simulate(model: CoefficientModel, init_specs: list,
             params: SimParams) -> Trajectory:
    """Run the population process; identical (seed, scheme) => identical output."""
    state = sample_initial(init_specs, params.K,
                           rngs.stream(params.seed, rngs.INIT))
    if params.scheme == "splitting":
        snaps, births, deaths = _simulate_splitting(model, state, params)
    else:
        snaps, births, deaths = _simulate_thinned(model, state, params)
    return Trajectory(snaps, births, deaths, params,
                      rngs.describe(params.seed))

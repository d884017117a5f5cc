"""Individual-based simulation of the measure-valued population process.

Each particle of species i diffuses by the Euler-Maruyama step

    X <- X + b^i(X, H*nu) dt + noise_scale * sigma^i(X, G*nu) sqrt(dt) xi

with the convolutions frozen at the step-start configuration, reproduces
clonally at rate r_i(X) and dies at rate sum_j C^ij * nu^j(X).  Both
schemes walk one grid of steps dt, and snapshot times must lie on it:
operator splitting runs a diffusion step and then a demography step, and
exact event thinning runs a per-step exact-event step (step_events), which
serves as the unbiased reference for the splitting bias.  Step k of the
splitting scheme draws from the DIFFUSE and DEMOGRAPHY streams of k, and
step k of the thinned scheme from the one EVENT stream of k, so extra
snapshots never change a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngs
from .initial import InitialCondition
from .kernels import EmpiricalMeasure, convolve_empirical
from .model import CoefficientModel, density_free_value
from .pde import snapshot_steps


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
        return EmpiricalMeasure(self.species[i].positions.copy(), self.K)

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
    births: np.ndarray       # per-species totals over the run
    deaths: np.ndarray
    params: SimParams
    rng_descriptor: str

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


def _row_fields(kmat, measures: list, i: int, x: np.ndarray,
                fn=None) -> np.ndarray:
    """(n, M) array of (k^ij * nu^j)(x) over the step-start measures nu^j,
    zeros when fn, the sigma or drift that reads it, is marked density_free.

    Passing x = nu^i.atoms itself marks the j = i column as a
    self-interaction, which the gridded sum evaluates with one factor pass.
    """
    out = np.zeros((x.shape[0], len(measures)))
    if getattr(fn, "density_free", False):
        return out
    for j, nu in enumerate(measures):
        out[:, j] = convolve_empirical(kmat[i][j], nu, x)
    return out


def step_diffuse(state: PopulationState, model: CoefficientModel, dt: float,
                 rng: np.random.Generator) -> PopulationState:
    """Euler-Maruyama move of every particle, coefficients frozen at start."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    measures = [state.measure(j) for j in range(model.M)]
    new_species = []
    for i in range(model.M):
        x = measures[i].atoms
        if x.shape[0] == 0:
            new_species.append(state.species[i].copy())
            continue
        b = model.eval_drift(i, x, _row_fields(model.H, measures, i, x,
                                               model.drift_fns[i]))
        s = model.eval_sigma(i, x, _row_fields(model.G, measures, i, x,
                                               model.sigma_fns[i]))
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
    with prob 1 - exp(-D dt), D = sum_j (C^ij * nu^j)(x); both may happen
    (the clone survives).
    """
    measures = None if model.C is None else \
        [state.measure(j) for j in range(model.M)]
    new_species = []
    next_id = state.next_id.copy()
    for i in range(model.M):
        x = state.species[i].positions if measures is None else \
            measures[i].atoms
        ids = state.species[i].ids
        n = x.shape[0]
        if n == 0:
            new_species.append(state.species[i].copy())
            continue
        r = model.eval_growth(i, x)
        # sum() adds the columns in j order, one at a time
        death = 0.0 if measures is None else \
            sum(_row_fields(model.C, measures, i, x).T)
        u_birth = rng.random(n)
        u_death = rng.random(n)
        born = u_birth < -np.expm1(-r * dt)
        dead = u_death < -np.expm1(-death * dt)
        clones = x[born]
        keep = ~dead
        pos = np.vstack([x[keep], clones])
        new_ids = np.concatenate([
            ids[keep],
            next_id[i] + np.arange(clones.shape[0], dtype=np.int64)])
        next_id[i] += clones.shape[0]
        new_species.append(SpeciesState(pos, new_ids))
    return PopulationState(new_species, state.K, state.t, next_id)


def _total_rate_bound(model: CoefficientModel, state: PopulationState):
    """(total, per-particle) bound on the event rates r + d of a state.

    d = sum_j (C^ij * nu^j)(x) <= sup_c sum_j m_j, so the per-particle
    bound is max rbar + sup_c * total mass."""
    counts = state.counts()
    sup_c = 0.0 if model.C is None else max(
        k.sup_bound for row in model.C for k in row)
    per_particle = max(model.growth_bounds) + sup_c * counts.sum() / state.K
    return counts.sum() * per_particle, per_particle


def step_events(state: PopulationState, model: CoefficientModel, dt: float,
                rng: np.random.Generator) -> PopulationState:
    """One step of exact event thinning (Lewis & Shedler 1979).

    A Poisson clock at the total rate bound proposes events; the particles
    diffuse to each proposal, one of them is picked uniformly and accepted
    as a birth or death with probability r / bound or d / bound at its true
    rates.  The exponential clock is memoryless, so restarting it at the
    step end is exact.  One rng feeds the clock, the picks and the moves.
    """
    left = dt
    while True:
        lam_total, per_particle = _total_rate_bound(model, state)
        tau = rng.exponential(1.0 / lam_total) if lam_total > 0 else math.inf
        if tau >= left:
            return step_diffuse(state, model, left, rng)
        state = step_diffuse(state, model, tau, rng)
        left -= tau
        # a positive total rate bound means at least one particle
        counts = state.counts()
        pick = int(rng.integers(0, counts.sum()))
        i = int(np.searchsorted(np.cumsum(counts), pick, side="right"))
        local = pick - int(np.sum(counts[:i]))
        x = state.species[i].positions[local:local + 1]
        theta = rng.uniform(0.0, per_particle)
        r_val = float(model.eval_growth(i, x)[0])
        d_val = 0.0 if model.C is None else float(sum(_row_fields(
            model.C, [state.measure(j) for j in range(model.M)], i, x).T)[0])
        if r_val + d_val > per_particle * (1.0 + 1e-12):
            raise SimulationError(
                f"species {i} rate r + d = {r_val + d_val:g} at "
                f"t={state.t:g} exceeds the thinning bound "
                f"{per_particle:g}; raise the declared rbar")
        sp = state.species[i]
        if theta < r_val:
            sp.positions = np.vstack([sp.positions, x])
            sp.ids = np.append(sp.ids, state.next_id[i])
            state.next_id[i] += 1
        elif theta < r_val + d_val:
            keep = np.arange(sp.ids.size) != local
            sp.positions, sp.ids = sp.positions[keep], sp.ids[keep]


# ---------------------------------------------------------------------

def simulate(model: CoefficientModel, init_specs: list,
             params: SimParams) -> Trajectory:
    """Run the population process; identical (seed, scheme) => identical output.

    Only a birth draws a new id, so the births of a species are the ids it
    drew, and its deaths close the balance of its particle counts."""
    n_steps, snap_steps = snapshot_steps(params.t_end, params.snapshot_times,
                                         params.dt)
    state = sample_initial(init_specs, params.K,
                           rngs.stream(params.seed, rngs.INIT))
    # step_diffuse trusts the density-free marks; they are spot-checked
    # here at the initial particles, as the PDE checks them at its cells
    for i, x in enumerate(sp.positions for sp in state.species):
        for name in ("sigma", "drift"):
            ev = getattr(model, f"eval_{name}")
            density_free_value(lambda v: (ev(i, x, v),),
                               getattr(model, f"{name}_fns")[i:i + 1], name,
                               np.zeros((x.shape[0], model.M)))
    counts, next_id = state.counts(), state.next_id.copy()
    snapshots = [(0.0, state.copy())] if 0 in snap_steps else []
    for k in range(n_steps):
        if params.scheme == "splitting":
            state = step_diffuse(state, model, params.dt,
                                 rngs.stream(params.seed, k, rngs.DIFFUSE))
            state = step_demography(
                state, model, params.dt,
                rngs.stream(params.seed, k, rngs.DEMOGRAPHY))
        else:
            state = step_events(state, model, params.dt,
                                rngs.stream(params.seed, k, rngs.EVENT))
        if int(state.counts().sum()) > params.ceiling:
            raise SimulationError("population exceeded the configured ceiling")
        if k + 1 in snap_steps:
            snapshots.append((snap_steps[k + 1], state.copy()))
    births = state.next_id - next_id
    return Trajectory(snapshots, births, counts + births - state.counts(),
                      params, rngs.describe(params.seed))

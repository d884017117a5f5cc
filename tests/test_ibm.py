import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff.config import build_model
from crossdiff.ibm import (PopulationState, SimParams, SimulationError,
                           SpeciesState, _row_fields, _total_rate_bound,
                           sample_initial, simulate, step_demography,
                           step_diffuse)
from crossdiff.initial import InitialCondition
from crossdiff.kernels import KernelSpec
from crossdiff.model import builtin_model, density_free


def const_kernels(M, d, amp=1.0):
    k = KernelSpec("constant", d, amplitude=amp)
    return [[k for _ in range(M)] for _ in range(M)]


def one_species_state(positions, K):
    pos = np.atleast_2d(np.asarray(positions, float))
    return PopulationState(
        [SpeciesState(pos, np.arange(pos.shape[0], dtype=np.int64))], K)


def test_zero_sigma_constant_drift_translates():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, drift0=0.3)
    st = one_species_state([[0.0], [1.0], [-2.0]], K=3)
    out = step_diffuse(st, m, 0.25, np.random.default_rng(0))
    np.testing.assert_allclose(out.species[0].positions,
                               st.species[0].positions + 0.3 * 0.25,
                               rtol=0, atol=1e-14)
    assert out.t == pytest.approx(0.25)


def test_no_demography_preserves_particles():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.5, r=0.0)
    init = [InitialCondition(1.0, "gaussian", std=0.5)]
    traj = simulate(m, init, SimParams(t_end=0.5, dt=0.05, K=50, seed=3))
    assert traj.births.sum() == 0
    assert traj.deaths.sum() == 0
    np.testing.assert_allclose(traj.masses()[-1], [1.0])


def test_empty_initial_state_is_fine():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.5, r=1.0,
                      rbar=1.0)
    init = [InitialCondition(0.0, "gaussian")]
    traj = simulate(m, init, SimParams(t_end=0.2, dt=0.05, K=10, seed=1,
                                       scheme="thinned-events"))
    assert traj.masses()[-1][0] == 0.0


def test_birth_count_binomial_oracle():
    # one demography step at rate r: births ~ Binomial(N, 1 - exp(-r dt))
    r, dt, n = 1.0, 0.01, 20_000
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0, r=r)
    st = one_species_state(np.zeros((n, 1)), K=n)
    out = step_demography(st, m, dt, np.random.default_rng(7))
    born = out.counts()[0] - n
    p = -math.expm1(-r * dt)
    assert abs(born - n * p) <= 4.0 * math.sqrt(n * p * (1 - p))


def test_death_rate_field_hand_case():
    # constant competition kernel c: D(x) = c * (total atoms)/K for every x
    c, K = 0.7, 5
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.0,
                      C=const_kernels(1, 1, amp=c))
    st = one_species_state([[0.0], [2.0], [-1.0]], K=K)
    death = _row_fields(m.C, [st.measure(0)], 0, st.species[0].positions)
    np.testing.assert_allclose(death[:, 0], c * 3 / K, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_steps_evaluate_self_interaction_with_one_factor_pass(monkeypatch,
                                                              dim):
    # criterion 04's one-species model with a Gaussian C: every gridded sum
    # of a step is a self-interaction, so it builds the factors of its N
    # particles once, not once for the spread and again for the gather
    from crossdiff import kernels
    cfg = {"model": {"M": 1, "dim": dim, "family": "isotropic-saturating",
                     "params": {"psi_max": 0.25}, "r": [0.5],
                     "kernels": {"G": {"family": "gaussian", "bandwidth": 0.5},
                                 "C": {"family": "gaussian",
                                       "bandwidth": 0.5}}}}
    m = build_model(cfg)
    n = 3000
    st = one_species_state(np.random.default_rng(dim).normal(size=(n, dim)),
                           K=n)
    points, sums, build = [], [], kernels._gridding_factors
    gridded = kernels._gridded_sum

    def counted_factors(pts, axes, eps):
        points.append(pts.shape[0])
        return build(pts, axes, eps)

    def counted_sum(k, atoms, xq, *args):
        sums.append(xq is atoms)
        return gridded(k, atoms, xq, *args)
    monkeypatch.setattr(kernels, "_gridding_factors", counted_factors)
    monkeypatch.setattr(kernels, "_gridded_sum", counted_sum)
    step_demography(step_diffuse(st, m, 0.05, np.random.default_rng(0)),
                    m, 0.05, np.random.default_rng(1))
    assert len(sums) >= 2 and all(sums)
    assert sum(points) == n * len(sums)


def _two_species_attraction(H="gaussian"):
    return build_model({"model": {
        "M": 2, "dim": 1, "family": "attraction-drift",
        "params": {"sigma0": 0.3, "alpha": 0.4},
        "kernels": {"G": {"family": "gaussian", "bandwidth": 0.4},
                    "H": {"family": H, "bandwidth": 0.4}}}})


def test_marked_coefficients_convolve_nothing_and_move_bit_equal(monkeypatch):
    # attraction-drift marks its sigma and drift density_free: a step reads
    # no G or H, and moves every particle as the unmarked functions do
    import crossdiff.ibm as ibm_mod
    calls, convolve = [], ibm_mod.convolve_empirical

    def counted(*args):
        calls.append(args[0])
        return convolve(*args)
    monkeypatch.setattr(ibm_mod, "convolve_empirical", counted)
    st = sample_initial([InitialCondition(0.5, "gaussian", std=0.6)] * 2,
                        200, np.random.default_rng(0))
    moved = []
    for marked in (True, False):
        m = _two_species_attraction()
        if not marked:
            m.sigma_fns = [lambda x, v, fn=fn: fn(x, v) for fn in m.sigma_fns]
            m.drift_fns = [lambda x, v, fn=fn: fn(x, v) for fn in m.drift_fns]
        calls.clear()
        moved.append(step_diffuse(st, m, 0.05, np.random.default_rng(1)))
        assert len(calls) == (0 if marked else 2 * m.M ** 2)
    for a, b in zip(*(s.species for s in moved)):
        assert np.array_equal(a.positions, b.positions)


@pytest.mark.parametrize("scheme", ["splitting", "thinned-events"])
@pytest.mark.parametrize("name", ["sigma", "drift"])
def test_mislabeled_density_free_coefficient_raises_in_simulate(name, scheme):
    # species 1's sigma or drift reads its convolution but carries the mark
    m = _two_species_attraction(H="constant")
    getattr(m, f"{name}_fns")[1] = density_free(
        lambda x, v: 0.3 + 0.1 * v[:, :1, None] if name == "sigma"
        else -0.3 * v[:, :1] * x)
    init = [InitialCondition(0.5, "gaussian", std=0.6)] * 2
    with pytest.raises(ValueError, match=f"a {name} marked density_free"):
        simulate(m, init, SimParams(t_end=0.1, dt=0.05, K=50,
                                    scheme=scheme))


def test_competition_only_mass_nonincreasing():
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.3, r=0.0,
                      C=const_kernels(1, 1, amp=2.0))
    init = [InitialCondition(2.0, "gaussian", std=0.5)]
    traj = simulate(m, init, SimParams(t_end=1.0, dt=0.05, K=100, seed=11,
                                       snapshot_times=(0.0, 0.5, 1.0)))
    masses = traj.masses()[:, 0]
    assert np.all(np.diff(masses) <= 1e-12)
    assert masses[-1] < masses[0]


@pytest.mark.parametrize("scheme", ["splitting", "thinned-events"])
def test_determinism_same_seed(scheme):
    m = builtin_model("constant-coefficients", 2, 1, sigma0=0.4, r=[0.5, 0.3],
                      rbar=[0.5, 0.3], C=const_kernels(2, 1, amp=0.5))
    init = [InitialCondition(0.5, "gaussian"),
            InitialCondition(0.5, "uniform", lo=-1.0, hi=1.0)]
    p = SimParams(t_end=0.4, dt=0.05, K=60, seed=42, scheme=scheme)
    a = simulate(m, init, p)
    b = simulate(m, init, p)
    for i in range(2):
        np.testing.assert_array_equal(a.snapshots[-1][1].species[i].positions,
                                      b.snapshots[-1][1].species[i].positions)
    c = simulate(m, init, SimParams(t_end=0.4, dt=0.05, K=60, seed=43,
                                    scheme=scheme))
    assert not np.array_equal(a.snapshots[-1][1].species[0].positions,
                              c.snapshots[-1][1].species[0].positions)


def test_thinned_pure_birth_matches_exponential_growth():
    # thinned events are exact for the pure-birth process: E m_t = m_0 e^{rt}
    r, t_end, K = 0.5, 1.0, 200
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.2, r=r, rbar=r)
    init = [InitialCondition(1.0, "gaussian")]
    reps = 24
    finals = []
    for s in range(reps):
        traj = simulate(m, init, SimParams(t_end=t_end, dt=0.1, K=K,
                                           seed=1000 + s,
                                           scheme="thinned-events"))
        finals.append(traj.masses()[-1][0])
    finals = np.asarray(finals)
    se = finals.std(ddof=1) / math.sqrt(reps)
    assert abs(finals.mean() - math.exp(r * t_end)) <= 4.0 * se


def test_thinned_rate_above_declared_rbar_raises():
    # a bump growth peaking at base + amp = 1.5 with a declared rbar of 0.6:
    # the thinning bound would accept every birth, so the run must refuse
    cfg = {"model": {"M": 1, "dim": 1, "family": "constant-coefficients",
                     "params": {"sigma0": 0.2}, "rbar": [0.6],
                     "growth": [{"kind": "bump", "base": 0.5, "amp": 1.0}]}}
    m = build_model(cfg)
    init = [InitialCondition(0.5, "gaussian", std=0.3)]
    with pytest.raises(SimulationError, match="thinning bound"):
        simulate(m, init, SimParams(t_end=1.0, dt=0.1, K=40, seed=2,
                                    scheme="thinned-events"))


def test_thinned_rates_at_their_bound_run():
    # criterion 03's model (r = rbar) and a constant C, whose death rate
    # equals its share of the bound: both sit exactly on the bound
    for C in (None, const_kernels(1, 1, amp=0.7)):
        m = builtin_model("constant-coefficients", 1, 1, sigma0=0.2, r=0.5,
                          rbar=0.5, C=C)
        traj = simulate(m, [InitialCondition(1.0, "gaussian", std=0.6)],
                        SimParams(t_end=1.0, dt=0.1, K=100, seed=7000,
                                  scheme="thinned-events"))
        assert traj.births[0] > 0


def test_thinning_bound_is_max_rbar_plus_sup_c_times_mass():
    # d^i(x) = sum_j (C^ij * nu^j)(x) <= sup_c * total mass for every i, with
    # equality when every C^ij is the constant sup_c
    pos = [np.array([[0.0], [1.0], [-1.0]]), np.array([[0.5], [2.0]])]
    st = PopulationState([SpeciesState(p, np.arange(len(p))) for p in pos],
                         K=10)
    amps = ((1.0, 0.2), (1.5, 0.4))
    for C in ([[KernelSpec("constant", 1, amplitude=a) for a in row]
               for row in amps], const_kernels(2, 1, amp=1.5)):
        m = builtin_model("constant-coefficients", 2, 1, sigma0=0.2,
                          r=[0.5, 0.3], rbar=[0.5, 0.3], C=C)
        total, per_particle = _total_rate_bound(m, st)
        assert per_particle == pytest.approx(0.5 + 1.5 * 0.5, rel=1e-15)
        assert total == pytest.approx(5 * per_particle, rel=1e-15)
        measures = [st.measure(j) for j in range(2)]
        for i in range(2):
            rate = m.eval_growth(i, pos[i]) + _row_fields(
                C, measures, i, pos[i]).sum(axis=1)
            assert np.all(rate <= per_particle * (1 + 1e-12))
    # the constant C sits on the death share of the bound
    assert rate.max() == pytest.approx(0.3 + 1.5 * 0.5, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.floats(1.0, 4.0), st.floats(1.0, 4.0),
       st.sampled_from(["splitting", "thinned-events"]))
def test_particle_ids_unique_and_never_reused(seed, r, c, scheme):
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.3, r=r,
                      rbar=r, C=const_kernels(1, 1, amp=c))
    traj = simulate(m, [InitialCondition(1.0, "gaussian")],
                    SimParams(t_end=0.5, dt=0.05, K=30, seed=seed,
                              scheme=scheme,
                              snapshot_times=tuple(np.arange(11) * 0.05)))
    gone = set()
    prev = set()
    for _, state in traj.snapshots:
        ids = state.species[0].ids
        assert np.unique(ids).size == ids.size
        cur = set(ids.tolist())
        assert not cur & gone
        gone |= prev - cur
        prev = cur
    assert traj.births[0] > 0 and traj.deaths[0] > 0


@pytest.mark.parametrize("scheme", ["splitting", "thinned-events"])
def test_births_and_deaths_balance_the_counts(scheme):
    # two species with growth and Gaussian competition; a snapshot at every
    # step sees every particle of the splitting scheme, so there the ids
    # seen are an exact oracle for the counters, and a lower bound otherwise
    C = [[KernelSpec("gaussian", 1, bandwidth=0.5, amplitude=a) for a in row]
         for row in ((1.0, 0.5), (0.5, 1.0))]
    m = builtin_model("constant-coefficients", 2, 1, sigma0=0.3,
                      r=[1.0, 0.8], rbar=[3.0, 3.0], C=C)
    init = [InitialCondition(0.5, "gaussian", std=0.6),
            InitialCondition(0.4, "gaussian", mean=0.3, std=0.6)]
    traj = simulate(m, init, SimParams(
        t_end=1.0, dt=0.05, K=100, seed=5, scheme=scheme,
        snapshot_times=tuple(np.arange(21) * 0.05)))
    first, last = traj.snapshots[0][1], traj.snapshots[-1][1]
    np.testing.assert_array_equal(
        last.counts(), first.counts() + traj.births - traj.deaths)
    assert np.all(traj.births > 0) and np.all(traj.deaths > 0)
    for i in range(2):
        seen = set()
        for _, state in traj.snapshots:
            ids = state.species[i].ids
            assert np.unique(ids).size == ids.size
            seen |= set(ids.tolist())
        n0, n1 = first.counts()[i], last.counts()[i]
        assert max(seen) < n0 + traj.births[i]
        if scheme == "splitting":
            assert (traj.births[i], traj.deaths[i]) == (len(seen) - n0,
                                                        len(seen) - n1)
        else:
            assert traj.births[i] >= len(seen) - n0
            assert traj.deaths[i] >= len(seen) - n1


@pytest.mark.parametrize("scheme", ["splitting", "thinned-events"])
def test_extra_snapshots_leave_the_final_state_unchanged(scheme):
    # every step draws from streams keyed by its index on the step grid,
    # so where the snapshots fall cannot change the trajectory
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.3, r=0.5,
                      rbar=0.5, C=const_kernels(1, 1, amp=0.5))
    init = [InitialCondition(1.0, "gaussian")]
    finals = []
    for snaps in ((1.0,), (0.5, 1.0), tuple(np.arange(11) * 0.1)):
        traj = simulate(m, init, SimParams(t_end=1.0, dt=0.1, K=50, seed=3,
                                           scheme=scheme,
                                           snapshot_times=snaps))
        last = traj.snapshots[-1][1].species[0]
        finals.append((last.positions, last.ids, traj.births, traj.deaths))
    assert finals[0][2][0] > 0 and finals[0][3][0] > 0
    for other in finals[1:]:
        for a, b in zip(finals[0], other):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("scheme", ["splitting", "thinned-events"])
def test_snapshot_off_grid_rejected(scheme):
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.2)
    init = [InitialCondition(0.5, "gaussian")]
    p = SimParams(t_end=1.0, dt=0.1, K=10, seed=0, snapshot_times=(0.333,),
                  scheme=scheme)
    with pytest.raises(ValueError, match="not on the step grid"):
        simulate(m, init, p)
    # an off-grid horizon, which would otherwise stop at t = 0.9
    p = SimParams(t_end=1.0, dt=0.3, K=100, seed=1, snapshot_times=(0.6,),
                  scheme=scheme)
    with pytest.raises(ValueError, match="t_end 1.0 is not on the step grid"):
        simulate(m, init, p)


@pytest.mark.parametrize("scheme", ["splitting", "thinned-events"])
def test_population_ceiling_guard(scheme):
    m = builtin_model("constant-coefficients", 1, 1, sigma0=0.1, r=5.0,
                      rbar=5.0)
    init = [InitialCondition(2.0, "gaussian")]
    p = SimParams(t_end=4.0, dt=0.05, K=100, seed=0, ceiling=300,
                  scheme=scheme)
    with pytest.raises(SimulationError, match="ceiling"):
        simulate(m, init, p)


def test_params_validation():
    with pytest.raises(ValueError):
        SimParams(t_end=1.0, dt=0.0, K=10)
    with pytest.raises(ValueError):
        SimParams(t_end=1.0, dt=2.0, K=10)
    with pytest.raises(ValueError):
        SimParams(t_end=1.0, dt=0.1, K=10, scheme="exact")
    with pytest.raises(ValueError):
        SimParams(t_end=1.0, dt=0.1, K=10, snapshot_times=(1.5,))


def test_sample_initial_counts():
    rng = np.random.default_rng(0)
    st = sample_initial([InitialCondition(0.5, "gaussian"),
                         InitialCondition(1.2, "uniform", lo=0.0, hi=1.0)],
                        K=10, rng=rng)
    np.testing.assert_array_equal(st.counts(), [5, 12])
    assert np.all(st.species[1].positions >= 0.0)
    assert np.all(st.species[1].positions <= 1.0)


def test_diffusion_variance_sqrt2_convention():
    # var of one Euler step = noise_scale^2 sigma^2 dt = 2 sigma^2 dt
    sigma, dt, n = 0.5, 0.04, 40_000
    m = builtin_model("constant-coefficients", 1, 1, sigma0=sigma)
    st = one_species_state(np.zeros((n, 1)), K=n)
    out = step_diffuse(st, m, dt, np.random.default_rng(5))
    var = out.species[0].positions.var()
    assert var == pytest.approx(2.0 * sigma ** 2 * dt, rel=0.05)

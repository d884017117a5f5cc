import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossdiff.metrics as M
from crossdiff.grids import GridField
from crossdiff.ibm import PopulationState, SpeciesState
from crossdiff.initial import InitialCondition, project_to_grid
from crossdiff.kernels import EmpiricalMeasure
from crossdiff.metrics import (DiscreteMeasure, bl_distance,
                               bl_distance_fields, rate_fit)
from crossdiff.studies import _binned


def dm(points, weights):
    return DiscreteMeasure(np.asarray(points, float).reshape(len(weights), -1),
                           np.asarray(weights, float))


def from_empirical(nu: EmpiricalMeasure) -> DiscreteMeasure:
    """The particle measure itself: one atom of mass 1/K per particle."""
    return DiscreteMeasure(nu.atoms, np.full(nu.n_atoms, 1.0 / nu.K))


def test_identical_measures():
    mu = dm([[0.0], [1.0]], [0.5, 0.5])
    assert bl_distance(mu, mu).value == pytest.approx(0.0, abs=1e-12)


def test_single_atom_vs_zero():
    # phi == 1 is feasible (Lip 0, sup 1), so the norm of delta_0 is 1
    mu = dm([[0.0]], [1.0])
    zero = DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))
    assert bl_distance(mu, zero).value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_two_dirac_fixture(h):
    # optimum splits the budget a + b <= 1 at a h = 2 b: value 2h/(h+2)
    mu = dm([[0.0]], [1.0])
    nu = dm([[h]], [1.0])
    expect = 2 * h / (h + 2)
    assert bl_distance(mu, nu).value == pytest.approx(expect, abs=1e-4)


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    mu = dm(rng.normal(size=(15, 1)), rng.uniform(0, 1, 15))
    nu = dm(rng.normal(size=(12, 1)), rng.uniform(0, 1, 12))
    assert bl_distance(mu, nu).value == bl_distance(nu, mu).value


def test_triangle_inequality_random():
    rng = np.random.default_rng(1)
    for _ in range(5):
        ms = [dm(rng.normal(size=(8, 2)), rng.uniform(0, 1, 8))
              for _ in range(3)]
        dab = bl_distance(ms[0], ms[1]).value
        dbc = bl_distance(ms[1], ms[2]).value
        dac = bl_distance(ms[0], ms[2]).value
        assert dac <= dab + dbc + 1e-6


def test_scaling():
    rng = np.random.default_rng(2)
    mu = dm(rng.normal(size=(10, 1)), rng.uniform(0, 1, 10))
    nu = dm(rng.normal(size=(10, 1)), rng.uniform(0, 1, 10))
    base = bl_distance(mu, nu).value
    c = 3.7
    scaled = [DiscreteMeasure(m.points, c * m.weights) for m in (mu, nu)]
    assert bl_distance(*scaled).value == pytest.approx(c * base, rel=1e-6)


def test_tv_upper_bound_disjoint_supports():
    mu = dm([[0.0], [0.1]], [0.4, 0.6])
    nu = dm([[5.0]], [0.7])
    tv = 0.4 + 0.6 + 0.7
    assert bl_distance(mu, nu).value <= tv + 1e-9


def dense_oracle(mu, nu):
    # the LP over every pair of the union support is exact in any dimension
    points, eta = M._signed_union(mu, nu)
    ii, jj = np.triu_indices(points.shape[0], k=1)
    return M._solve_lp(points, eta, np.stack([ii, jj], axis=1))[0]


def test_cutting_planes_match_dense_oracle_2d():
    rng = np.random.default_rng(5)
    n = 300   # union 600 points
    mu = dm(rng.normal(size=(n, 2)), rng.uniform(0, 1, n) / n)
    nu = dm(rng.normal(size=(n, 2)) + 0.2, rng.uniform(0, 1, n) / n)
    assert bl_distance(mu, nu).value == pytest.approx(
        dense_oracle(mu, nu), rel=1e-6, abs=1e-9)


def test_grid_fields_match_dense_oracle_2d():
    # a 12 x 12 field against the same field shifted by 0.2 along axis 0
    lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
    xs = (np.arange(12) + 0.5) / 12 * 4.0 - 2.0
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = GridField(lo, hi, np.exp(-(X ** 2 + Y ** 2))[None], 0.0)
    w = GridField(lo, hi, np.exp(-((X - 0.2) ** 2 + Y ** 2))[None], 0.0)
    mu, nu = DiscreteMeasure.from_grid(u, 0), DiscreteMeasure.from_grid(w, 0)
    assert bl_distance(mu, nu).value == pytest.approx(
        dense_oracle(mu, nu), rel=1e-6, abs=1e-9)


def test_lp_failure_raises_bl_error(monkeypatch):
    res = SimpleNamespace(success=False, message="stub")
    monkeypatch.setattr(M, "linprog", lambda *a, **k: res)
    mu = dm([[0.0, 0.0]], [1.0])
    nu = dm([[1.0, 0.0]], [0.5])
    with pytest.raises(M.BLError):
        bl_distance(mu, nu)


def test_solve_lp_constraint_rows_by_hand(monkeypatch):
    # the support 3, 0, 1 in that order: its sorted pairs (0, 1) and (1, 3)
    # are the index pairs (1, 2) and (2, 0); columns phi_0, phi_1, phi_2, a, b
    seen, linprog = {}, M.linprog

    def recorded(c, A_ub, b_ub, **kw):
        seen.update(A=A_ub.toarray(), b=b_ub)
        return linprog(c, A_ub=A_ub, b_ub=b_ub, **kw)
    monkeypatch.setattr(M, "linprog", recorded)
    points = np.array([[3.0], [0.0], [1.0]])
    pairs = M._pair_set(points)
    assert pairs.tolist() == [[1, 2], [2, 0]]
    M._solve_lp(points, np.array([0.5, -0.25, -0.25]), pairs)
    assert seen["A"].tolist() == [
        [0, 1, -1, -1, 0], [-1, 0, 1, -2, 0],    # phi_i - phi_j - a d_ij
        [0, -1, 1, -1, 0], [1, 0, -1, -2, 0],    # phi_j - phi_i - a d_ij
        [1, 0, 0, 0, -1], [0, 1, 0, 0, -1], [0, 0, 1, 0, -1],     # phi - b
        [-1, 0, 0, 0, -1], [0, -1, 0, 0, -1], [0, 0, -1, 0, -1],  # -phi - b
        [0, 0, 0, 1, 1]]                                           # a + b
    assert seen["b"].tolist() == [0.0] * 10 + [1.0]


def counted_lp(monkeypatch):
    """Patch _solve_lp to record its calls; returns the call list."""
    calls, solve = [], M._solve_lp

    def counted(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(M, "_solve_lp", counted)
    return calls


def test_unsettled_cutting_planes_raise_bl_error(monkeypatch):
    # extensions stuck at zero keep the duality gap open in every round,
    # and the complete two-point pair set leaves nothing to add
    monkeypatch.setattr(M, "_extensions",
                        lambda points, phi, a: (0.0 * phi, 0.0 * phi))
    solves = counted_lp(monkeypatch)
    mu = dm([[0.0, 0.0]], [1.0])
    nu = dm([[1.0, 0.0]], [0.5])
    with pytest.raises(M.BLError, match="no violated pair left to add"):
        bl_distance(mu, nu)
    assert len(solves) <= 2


def test_cutting_plane_round_cap_raises_bl_error(monkeypatch):
    # a fresh pair in every round keeps the rounds going up to the cap
    monkeypatch.setattr(M, "_extensions",
                        lambda points, phi, a: (0.0 * phi, 0.0 * phi))
    monkeypatch.setattr(M, "_pair_set",
                        lambda points: np.array([[0, 1]]))
    fresh = iter(range(2, 40))
    monkeypatch.setattr(M, "_violated_pairs",
                        lambda points, phi, a: np.array([[0, next(fresh)]]))
    solves = counted_lp(monkeypatch)
    rng = np.random.default_rng(0)
    mu = dm(rng.normal(size=(40, 2)), np.full(40, 0.025))
    nu = dm([[0.0, 0.0]], [0.5])
    with pytest.raises(M.BLError, match="30 cutting-plane rounds"):
        bl_distance(mu, nu)
    assert len(solves) == M.CUT_ROUNDS + 1
    assert [len(args[2]) for args in solves] == list(range(1, 32))


def gaussian_field(cells, shift):
    # Gaussian, std 0.6 and mass 0.8, on [-4, 4]^2, shifted along axis 0
    lo, hi = np.array([-4.0, -4.0]), np.array([4.0, 4.0])
    xs = (np.arange(cells) + 0.5) / cells * 8.0 - 4.0
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    v = np.exp(-((X - shift) ** 2 + Y ** 2) / (2 * 0.6 ** 2))
    v *= 0.8 / (v.sum() * (8.0 / cells) ** 2)
    return GridField(lo, hi, v[None], 0.0)


def assert_certificate_exact(res, eta):
    """phi is exactly feasible, attains lb, and the gap is closed."""
    c = res.certificate
    pts, phi, a, b = c["points"], c["phi"], c["lip_budget"], c["sup_budget"]
    assert a >= 0.0 and b >= 0.0 and a + b <= 1.0
    assert np.max(np.abs(phi)) <= b
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    dist = np.sqrt(np.sum((pts[ii] - pts[jj]) ** 2, axis=1))
    # roundoff of the min/max over the support, not an LP tolerance
    assert np.max(np.abs(phi[ii] - phi[jj]) - a * dist, initial=0.0) <= 1e-12
    assert c["lb"] == pytest.approx(eta @ phi, abs=1e-15)
    # lb may pass ub by the LP solver's feasibility tolerance
    assert abs(c["ub"] - c["lb"]) <= M.GAP_TOL * np.abs(eta).sum()


def test_grid_24_certified_where_violation_stop_failed():
    # the exhaustive-violation stop raised BLError here after 30 rounds
    mu = DiscreteMeasure.from_grid(gaussian_field(24, 0.0), 0)
    nu = DiscreteMeasure.from_grid(gaussian_field(24, 0.2), 0)
    res = bl_distance(mu, nu)
    points, eta = M._signed_union(mu, nu)
    c = res.certificate
    assert c["lb"] <= c["ub"]
    assert_certificate_exact(res, eta)
    assert res.value == c["lb"]
    assert np.array_equal(c["points"], points)
    assert 0.0 < res.value < 0.2 * 0.8     # below shift * mass (W1 bound)
    # the better of the two extensions closes the gap at once; the lower
    # one alone needs 5 rounds here
    assert c["rounds"] == 0


def test_seed_on_a_lattice_is_the_stencil_plus_one_pair_per_corner():
    # every pair within 1.5 steps is the 8-point stencil; a corner's fourth
    # nearest neighbour is two steps away, which adds one pair per corner
    h = 8.0 / 12
    pts = gaussian_field(12, 0.0).centers()
    pairs = M._pair_set(pts)
    steps2 = np.round((M._pair_dists(pts, pairs) / h) ** 2).astype(int)
    assert len(pairs) == 510 and np.sum(steps2 <= 2) == 506
    long = pairs[steps2 > 2]
    assert np.all(steps2[steps2 > 2] == 4)
    corner = np.all(np.abs(pts) > 4.0 - h, axis=1)
    assert sorted(np.nonzero(corner)[0]) == sorted(long[corner[long]])


def test_cloud_against_grid_certified_within_three_solves(monkeypatch):
    # a seed of only the pairs within 1.5 nearest-neighbour distances
    # needs 6 LP solves here
    rng = np.random.default_rng(5)
    mu = dm(rng.normal(scale=0.6, size=(300, 2)), np.full(300, 0.8 / 300))
    nu = DiscreteMeasure.from_grid(gaussian_field(16, 0.0), 0)
    solves = counted_lp(monkeypatch)
    res = bl_distance(mu, nu)
    assert_certificate_exact(res, M._signed_union(mu, nu)[1])
    assert len(solves) <= 3


def test_lower_bound_divides_out_budget_slack():
    # LP feasibility slack can leave a + b above 1: (phi, a, b) is divided
    # by a + b, so the test function keeps its shape and stays feasible
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    lb, phi, a, b = M._lower_bound(pts, np.array([1.0, -1.0]),
                                   np.array([0.275, -0.275]), 0.55, 0.55)
    assert a + b <= 1.0
    assert (a, b) == pytest.approx((0.5, 0.5), abs=1e-15)
    np.testing.assert_allclose(phi, [0.25, -0.25], rtol=0, atol=1e-15)
    assert lb == pytest.approx(0.5, abs=1e-15)


def test_one_d_extensions_sweep_matches_scan():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 1))
    phi = rng.uniform(-0.5, 0.5, 200)
    dist = np.abs(pts - pts.T)
    lo, hi = M._extensions(pts, phi, 0.3)
    np.testing.assert_allclose(lo, np.min(phi[None] + 0.3 * dist, axis=1),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(hi, np.max(phi[None] - 0.3 * dist, axis=1),
                               rtol=0, atol=1e-14)


def test_one_d_returns_the_certified_lower_bound():
    # the sorted adjacent pairs are complete, so the first LP closes the gap
    rng = np.random.default_rng(4)
    mu = dm(rng.normal(size=(40, 1)), rng.uniform(0, 1, 40))
    nu = dm(rng.normal(size=(30, 1)), rng.uniform(0, 1, 30))
    res = bl_distance(mu, nu)
    c = res.certificate
    assert res.value == c["lb"]
    assert_certificate_exact(res, M._signed_union(mu, nu)[1])
    assert c["rounds"] == 0


measures_2d = st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2),
                                 st.floats(0.01, 1.0)),
                       min_size=1, max_size=6)


def as_measure(atoms):
    return DiscreteMeasure(np.array([[x, y] for x, y, _ in atoms]),
                           np.array([w for _, _, w in atoms]))


@settings(max_examples=25, deadline=None)
@given(measures_2d, measures_2d, measures_2d, st.floats(0.1, 10.0))
# coincident atoms: mu - nu must not depend on the order of summation
@example([(0.0, 0.0, 1.0)], [(0.0, 0.0, 1.0), (0.0, 0.0, 0.17064444753872846)],
         [(0.0, 0.0, 1.0)], 1.0)
def test_metric_axioms_2d(a, b, c, scale):
    ma, mb, mc = as_measure(a), as_measure(b), as_measure(c)
    mass = sum(m.weights.sum() for m in (ma, mb, mc))
    dab, dba = bl_distance(ma, mb), bl_distance(mb, ma)
    dbc, dac = bl_distance(mb, mc).value, bl_distance(ma, mc).value
    assert dab.value == dba.value
    # each value is within GAP_TOL * ||eta||_1 <= GAP_TOL * mass of its LP
    # bound, which the LP solver meets to its feasibility tolerance
    assert dac <= dab.value + dbc + 1e-6 * mass
    scaled = bl_distance(DiscreteMeasure(ma.points, scale * ma.weights),
                         DiscreteMeasure(mb.points, scale * mb.weights))
    assert scaled.value == pytest.approx(scale * dab.value,
                                         abs=1e-6 * scale * mass)
    if "phi" in dab.certificate:
        assert_certificate_exact(dab, M._signed_union(ma, mb)[1])


def test_from_grid_and_from_empirical():
    u = GridField(np.array([0.0]), np.array([1.0]),
                  np.array([[2.0, 0.0, 2.0, 0.0]]), 0.0)
    g = DiscreteMeasure.from_grid(u, 0)
    assert g.weights.sum() == pytest.approx(1.0)   # 2 cells * 2.0 * 0.25
    assert g.points.shape[0] == 2                  # zero cells dropped
    nu = EmpiricalMeasure(np.array([[0.1], [0.9]]), K=4)
    e = from_empirical(nu)
    assert e.weights.sum() == pytest.approx(0.5)


def test_total_mass_atoms_over_k():
    nu = EmpiricalMeasure(np.zeros((30, 1)), K=12)
    assert from_empirical(nu).weights.sum() == pytest.approx(30 / 12)


# particles of a [-2, 2]^d box with 8 cells an axis: inside, outside, and
# exactly on the box edges
BOX_LO, BOX_HI, BOX_CELLS = -2.0, 2.0, 8
coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([BOX_LO, BOX_HI]))


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
       K=st.integers(1, 200))
@example(xs=[(BOX_HI, BOX_HI), (3.0, -3.0), (0.1, 0.2)], K=3)
def test_binning_moves_bl_by_at_most_q(d, xs, K):
    x = np.array(xs)[:, :d]
    n = x.shape[0]
    state = PopulationState([SpeciesState(x, np.arange(n))], K)
    u = project_to_grid([InitialCondition(0.5, std=0.7, dim=d)],
                        np.full(d, BOX_LO), np.full(d, BOX_HI),
                        (BOX_CELLS,) * d)
    binned, q = _binned(state, u)
    vol = u.cell_volume
    counts = binned.values[0] * K * vol
    assert np.all(binned.values >= 0.0)
    # whole particles, all of them: the mass is n/K up to the rounding of
    # density * volume
    np.testing.assert_allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
    assert np.rint(counts).sum() == n
    assert binned.mass(0) == pytest.approx(n / K, rel=1e-12)
    # a cell holds mass only if a particle, pulled into the box, lies in
    # its closed cell
    xc = np.clip(x, BOX_LO, BOX_HI)
    h = u.spacing
    for c in u.centers()[binned.values[0].ravel() > 0]:
        assert np.any(np.all(np.abs(xc - c) <= h / 2 + 1e-12, axis=1))
    # triangle inequality with Lip(phi) <= 1: the atoms and their cell
    # centres are at most q apart in BL
    atoms = bl_distance(from_empirical(state.measure(0)),
                        DiscreteMeasure.from_grid(u, 0)).value
    cells = bl_distance_fields(binned, u).value
    assert abs(atoms - cells) <= q + 1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_binning_bound_is_nearly_attained_inside_the_occupied_cell(d):
    # all of u in one cell and one particle of the same mass 0.05 off its
    # centre: binning erases a distance of 2q / (2 + 0.05), about q
    K, h = 4, 0.5
    values = np.zeros((1,) + (BOX_CELLS,) * d)
    values[(0,) + (3,) * d] = 1.0 / (K * h ** d)
    u = GridField(np.full(d, BOX_LO), np.full(d, BOX_HI), values)
    x = np.full((1, d), BOX_LO + 3.5 * h)
    x[0, 0] += 0.05
    state = PopulationState([SpeciesState(x, np.arange(1))], K)
    binned, q = _binned(state, u)
    assert q == pytest.approx(0.05 / K)
    assert bl_distance_fields(binned, u).value == pytest.approx(0.0, abs=1e-12)
    atoms = bl_distance(from_empirical(state.measure(0)),
                        DiscreteMeasure.from_grid(u, 0)).value
    assert atoms == pytest.approx(2.0 * q / 2.05, rel=1e-6)


def test_rate_fit_exact_slopes():
    eps = [0.4, 0.2, 0.1, 0.05]
    lin = rate_fit([(e, 3.0 * e) for e in eps])
    quad = rate_fit([(e, 3.0 * e ** 2) for e in eps])
    assert lin.slope == pytest.approx(1.0, abs=1e-9)
    assert quad.slope == pytest.approx(2.0, abs=1e-9)
    assert lin.band[0] <= 1.0 <= lin.band[1]


def _polyfit_band(pairs, n_boot=500, seed=0):
    """Bootstrap band of the slope by one np.polyfit per resample."""
    lx, ly = np.log(np.array(pairs)).T
    rng = np.random.default_rng(seed)
    boots = []
    for _ in range(n_boot):
        idx = rng.integers(0, len(pairs), size=len(pairs))
        if np.ptp(lx[idx]) < 1e-12:
            continue
        boots.append(np.polyfit(lx[idx], ly[idx], 1)[0])
    return tuple(np.percentile(boots, [2.5, 97.5]))


@pytest.mark.parametrize("case", range(40))
def test_rate_fit_band_matches_polyfit_loop(case):
    # random scales and distances, 3 to 8 pairs; odd cases repeat a scale,
    # so more resamples hit the degenerate-abscissa skip.  Close scales give
    # steep, ill-conditioned resamples where polyfit itself errs by up to
    # ~1e-12 relative (the closed form stays within 1e-15 of exact rational
    # arithmetic), hence the relative part of the tolerance
    rng = np.random.default_rng(100 + case)
    n = int(rng.integers(3, 9))
    scales = np.exp(rng.uniform(0.0, 12.0, size=n))
    if case % 2:
        scales[1] = scales[0]
    dists = np.exp(rng.uniform(-8.0, 0.0, size=n))
    pairs = list(zip(scales, dists))
    got = rate_fit(pairs, seed=case)
    np.testing.assert_allclose(got.band, _polyfit_band(pairs, seed=case),
                               rtol=1e-12, atol=1e-12)


def test_rate_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        rate_fit([(0.1, -1.0), (0.2, 2.0), (0.4, 3.0)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0.01, 1.0)),
                min_size=2, max_size=10))
def test_bl_nonnegative_and_self_distance_zero(atoms):
    pts = np.array([[a] for a, _ in atoms])
    w = np.array([m for _, m in atoms])
    mu = DiscreteMeasure(pts, w)
    assert bl_distance(mu, mu).value == pytest.approx(0.0, abs=1e-10)
    shifted = DiscreteMeasure(pts + 0.25, w)
    v = bl_distance(mu, shifted).value
    assert v >= -1e-12
    # BL distance under a translation by delta is at most delta * mass
    assert v <= 0.25 * w.sum() + 1e-7

"""Checks on values captured at the layer boundaries of a traced round.

Each check compares a result with a property of the method or with a
computation made apart from crossdiff, never with stored output:

- bl_distance: |mu(R^d) - nu(R^d)| <= BL <= m W1(mu^, nu^) + |m_mu - m_nu|
  with m the smaller mass and W1 between the normalised measures, from
  scipy.stats (1-d) or a transport LP set up here (d >= 2); the returned
  test function phi is feasible (Lip <= a, |phi| <= b, a + b <= 1) and
  attains the value;
- ibm.simulate without births or deaths keeps round(m K) particles;
- pde.solve masses stay <= exp(rbar t) m0 + 1e-4;
- inverse_flow's two determinant routes agree within 1e-2 and are positive.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

# HiGHS feasibility tolerance is 1e-7; leave room for accumulation.
LP_TOL = 1e-6
MASS_TOL = 1e-4
DET_TOL = 1e-2


def _w1(mu, nu) -> float:
    """Wasserstein-1 distance between the normalised measures."""
    a = mu.weights / mu.weights.sum()
    b = nu.weights / nu.weights.sum()
    if mu.points.shape[1] == 1:
        return float(wasserstein_distance(mu.points[:, 0], nu.points[:, 0],
                                          a, b))
    n, m = a.size, b.size
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).ravel()
    # plan pi (n x m, row-major): row sums a, column sums b.  The last
    # column constraint follows from the others and is left out; HiGHS
    # presolve declares some of these programs infeasible when weights
    # near 1e-10 occur, so it is off.
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)))
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m))
    res = linprog(cost, A_eq=sparse.vstack([rows, cols]).tocsr()[:-1],
                  b_eq=np.concatenate([a, b])[:-1], bounds=(0, None),
                  method="highs", options={"presolve": False})
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _lipschitz(points, phi) -> float:
    if points.shape[0] < 2:
        return 0.0
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0])
        dx = np.diff(points[order, 0])
        dphi = np.abs(np.diff(phi[order]))
        ok = dx > 0
        return float(np.max(dphi[ok] / dx[ok])) if ok.any() else 0.0
    lip = 0.0
    for start in range(0, points.shape[0], 256):
        diff = points[start:start + 256, None, :] - points[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        dphi = np.abs(phi[start:start + 256, None] - phi[None, :])
        ok = dist > 0
        if ok.any():
            lip = max(lip, float(np.max(dphi[ok] / dist[ok])))
    return lip


def check_bl(mu, nu, res) -> list:
    fails = []
    m_mu, m_nu = float(mu.weights.sum()), float(nu.weights.sum())
    value = res.value
    if value < abs(m_mu - m_nu) - LP_TOL:
        fails.append(f"BL {value:.6g} < mass gap {abs(m_mu - m_nu):.6g}")
    if (np.all(mu.weights >= 0) and np.all(nu.weights >= 0)
            and m_mu > 0 and m_nu > 0):
        upper = min(m_mu, m_nu) * _w1(mu, nu) + abs(m_mu - m_nu)
        if value > upper + LP_TOL:
            fails.append(f"BL {value:.6g} > m W1 + mass gap {upper:.6g}")
    cert = res.certificate
    if "phi" not in cert:
        return fails
    a, b = cert["lip_budget"], cert["sup_budget"]
    pts, phi = cert["points"], cert["phi"]
    if a < -LP_TOL or b < -LP_TOL or a + b > 1.0 + LP_TOL:
        fails.append(f"phi budgets a={a:.6g}, b={b:.6g} infeasible")
    if np.max(np.abs(phi)) > b + LP_TOL:
        fails.append(f"|phi| {np.max(np.abs(phi)):.6g} > b {b:.6g}")
    lip = _lipschitz(pts, phi)
    if lip > a + LP_TOL:
        fails.append(f"Lip(phi) {lip:.6g} > a {a:.6g}")
    # phi by support point; + 0.0 folds -0.0 into 0.0
    at = {(p + 0.0).tobytes(): v for p, v in zip(pts, phi)}
    try:
        pairing = sum(s * w * at[(p + 0.0).tobytes()]
                      for s, meas in ((1.0, mu), (-1.0, nu))
                      for p, w in zip(meas.points, meas.weights))
    except KeyError:
        return fails + ["phi certificate misses a support point"]
    if abs(abs(pairing) - value) > LP_TOL:
        fails.append(f"phi attains {abs(pairing):.9g}, BL is {value:.9g}")
    return fails


def check_particle_counts(init, params, traj) -> list:
    expect = [int(round(spec.mass * params.K)) for spec in init]
    fails = []
    for t, state in traj.snapshots:
        got = [s.positions.shape[0] for s in state.species]
        if got != expect:
            fails.append(f"K={params.K} t={t:g}: {got} particles, "
                         f"expected {expect}")
    return fails


def check_pde_mass(model, u0, sol) -> list:
    cell = float(np.prod((u0.hi - u0.lo) / np.asarray(u0.shape)))
    m0 = u0.values.reshape(u0.n_species, -1).sum(axis=1) * cell
    fails = []
    for snap in sol.snapshots:
        mass = snap.values.reshape(snap.n_species, -1).sum(axis=1) * cell
        bound = np.exp(np.asarray(model.growth_bounds) * snap.time) * m0
        if np.any(mass > bound + MASS_TOL):
            fails.append(f"t={snap.time:g}: mass {mass} > bound {bound}")
    return fails


def check_determinants(inv) -> list:
    dm, ds = inv.det_matrix, inv.det_sde
    if not (np.all(dm > 0) and np.all(ds > 0)):
        return ["nonpositive inverse-flow determinant"]
    gap = float(np.max(np.abs(dm - ds) / np.abs(dm)))
    return [] if gap <= DET_TOL else [f"determinant routes differ by {gap:.3g}"]


def check_captured(name: str, captured) -> list:
    """Failures of the boundary checks over one traced round's captures."""
    fails = []
    for fn, args, kwargs, result in captured:
        if fn == "metrics.bl_distance":
            fails += check_bl(args[0], args[1], result)
        elif fn == "ibm.simulate" and name == "large-k":
            fails += check_particle_counts(args[1], args[2], result)
        elif fn == "pde.solve":
            fails += check_pde_mass(args[0], args[1], result)
        elif fn == "flow.inverse_flow":
            fails += check_determinants(result)
    return fails

"""Bounded-Lipschitz (flat) distances and rate fits.

The dual norm sup{ <eta, phi> : Lip(phi) + sup|phi| <= 1 } is computed on
the union support as a single linear program with the budget split between
a Lipschitz cap `a` and a sup cap `b` (a + b <= 1) as explicit variables:

    max  sum_z eta(z) phi(z)
    s.t. |phi(z_i) - phi(z_j)| <= a |z_i - z_j|   (constraint pairs)
         |phi(z)| <= b,   a + b <= 1,  a, b >= 0.

Any feasible phi extends to all of R^d with the same Lipschitz constant
(McShane) and sup (clipping), so on the support the LP is exact when the
pair set is complete.  In d = 1 the LP starts from the adjacent pairs of
the sorted support, which are complete, so its first solve closes the gap
below.  In higher dimension it starts from each point's 4 nearest
neighbours and every pair within 1.5 median nearest-neighbour distances (on
a lattice, the 8-point stencil and one 2-step pair per corner); nothing is
random, so the engine takes no seed.

In every dimension the LP's value on its pair set is an upper bound UB.
The McShane extensions of its phi, min_w [phi(w) + a|z - w|] and
max_w [phi(w) - a|z - w|], with (phi, a, b) divided by max(1, a + b) and
clipped to [-b, b], are exactly feasible, so the better of the two gives a
lower bound LB (McShane, Bull. AMS 40, 1934).  Violated pairs are added
(cutting planes) only while the duality gap UB - LB exceeds
GAP_TOL * ||eta||_1 (Kelley, J. SIAM 8, 1960); the value returned is LB,
and the certificate phi is that extension, which is feasible and attains
it.  A gap still open after CUT_ROUNDS rounds, or after a round that finds
no violated pair to add, raises BLError.

A_ub stacks the pair incidence matrix D (+1, -1 per pair) over -D, each
beside the column -|z_i - z_j| of a, then +-I beside the column -1 of b,
then the budget row.  The exhaustive scans read the support's distances
through grids.pair_r2 in blocks of PAIR_CHUNK pairs.  Every certificate
records ub, lb and the rounds.  scipy (HiGHS, sparse matrices, k-d trees)
is imported by the first solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import GridField, pair_r2

EXACT_LP_LIMIT = 50_000
CUT_ROUNDS = 30
GAP_TOL = 1e-7
PAIR_CHUNK = 2_000_000


class BLError(RuntimeError):
    """The BL linear program failed or its cutting planes did not settle."""


@dataclass
class DiscreteMeasure:
    """Finitely supported signed measure."""

    points: np.ndarray    # (n, d)
    weights: np.ndarray   # (n,)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights lengths differ")
        if not (np.all(np.isfinite(self.points))
                and np.all(np.isfinite(self.weights))):
            raise ValueError("measure data must be finite")

    @classmethod
    def from_grid(cls, u: GridField, species: int) -> "DiscreteMeasure":
        """Grid cells become atoms of mass value * h^d at cell centers."""
        w = u.values[species].ravel() * u.cell_volume
        keep = w != 0.0
        return cls(u.centers()[keep], w[keep])


@dataclass
class BLResult:
    value: float
    certificate: dict = field(default_factory=dict)


# ---------------------------------------------------------------------
# support assembly

def _signed_union(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Lexicographically sorted support of mu - nu, duplicates combined."""
    if mu.points.shape[1] != nu.points.shape[1]:
        raise ValueError("measures live in different dimensions")
    uniq, inverse = np.unique(np.vstack([mu.points, nu.points]), axis=0,
                              return_inverse=True)
    inverse, n = inverse.ravel(), mu.points.shape[0]
    # each side summed on its own, so swapping mu and nu negates eta exactly
    emu, enu = np.zeros(uniq.shape[0]), np.zeros(uniq.shape[0])
    np.add.at(emu, inverse[:n], mu.weights)
    np.add.at(enu, inverse[n:], nu.weights)
    eta = emu - enu
    # canonical sign so bl(mu, nu) and bl(nu, mu) run bit-identically
    nz = np.nonzero(np.abs(eta) > 0)[0]
    if nz.size and eta[nz[0]] < 0:
        eta = -eta
    return uniq, eta


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def _pair_set(points: np.ndarray):
    """Initial constraint pairs: complete in d = 1, local stencil above."""
    n, d = points.shape
    if n < 2:
        return np.zeros((0, 2), dtype=int)
    if d == 1:
        order = np.argsort(points[:, 0], kind="stable")
        return np.stack([order[:-1], order[1:]], axis=1)
    from scipy.spatial import cKDTree
    tree = cKDTree(points)
    dist, nbr = tree.query(points, k=min(5, n))
    ii = np.repeat(np.arange(n), nbr.shape[1] - 1)
    near = tree.query_pairs(1.5 * np.median(dist[:, 1]), output_type="ndarray")
    pairs = np.vstack([np.stack([ii, nbr[:, 1:].ravel()], axis=1), near])
    return np.unique(np.sort(pairs, axis=1), axis=0)


def _pair_dists(points, pairs):
    diff = points[pairs[:, 0]] - points[pairs[:, 1]]
    return np.sqrt(np.einsum("nk,nk->n", diff, diff))


def _solve_lp(points, eta, pairs):
    """LP over [phi, a, b]; returns (value, phi, a, b).  A_ub is built in
    CSR form: 2m pair rows of three entries (-D is the incidence matrix of
    the reversed pairs), then 2n sup rows and the budget row of two."""
    from scipy import sparse
    n, m = points.shape[0], pairs.shape[0]
    z, e = np.arange(n), np.ones(2 * m)
    pair_cols = np.c_[np.r_[pairs, pairs[:, ::-1]], np.full(2 * m, n)]
    pair_vals = np.c_[e, -e, -np.tile(_pair_dists(points, pairs), 2)]
    rest_cols = np.c_[np.r_[z, z, n], np.full(2 * n + 1, n + 1)]
    rest_vals = np.c_[np.r_[np.repeat([1.0, -1.0], n), 1.0],
                     np.r_[np.full(2 * n, -1.0), 1.0]]
    A = sparse.csr_matrix((np.r_[pair_vals.ravel(), rest_vals.ravel()],
                           np.r_[pair_cols.ravel(), rest_cols.ravel()],
                           np.r_[0:6 * m:3, 6 * m:6 * m + 4 * n + 3:2]),
                          shape=(2 * m + 2 * n + 1, n + 2))
    A.sort_indices()
    b_ub = np.zeros(A.shape[0])
    b_ub[-1] = 1.0
    c = np.concatenate([-eta, [0.0, 0.0]])
    bounds = [(None, None)] * n + [(0.0, 1.0), (0.0, 1.0)]
    res = linprog(c, A_ub=A, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise BLError(f"BL linear program failed: {res.message}")
    phi = res.x[:n]
    return float(eta @ phi), phi, float(res.x[n]), float(res.x[n + 1])


def _exact_lp(points, eta) -> BLResult:
    n = points.shape[0]
    if n > EXACT_LP_LIMIT:
        raise ValueError(f"support size {n} exceeds exact-lp limit")
    pairs = _pair_set(points)
    tol = GAP_TOL * float(np.abs(eta).sum())
    for rounds in range(CUT_ROUNDS + 1):
        if rounds:
            # cutting planes: add the pairs the last phi violates
            viol = _violated_pairs(points, phi, a)
            grown = np.unique(np.vstack([pairs, viol[:4 * n]]), axis=0)
            if len(grown) == len(pairs):    # the same LP again
                raise BLError(f"BL duality gap still open with no "
                              f"violated pair left to add (cutting-plane "
                              f"round {rounds})")
            pairs = grown
        ub, phi, a, b = _solve_lp(points, eta, pairs)
        lb, *test = _lower_bound(points, eta, phi, a, b)
        if ub - lb <= tol:
            break
    else:
        raise BLError(f"BL duality gap still open after {CUT_ROUNDS} "
                      f"cutting-plane rounds")
    phi, a, b = test     # the test function that attains lb
    cert = {"points": points, "phi": phi, "lip_budget": a, "sup_budget": b,
            "ub": ub, "lb": lb, "rounds": rounds}
    return BLResult(max(lb, 0.0), cert)


def _lower_bound(points, eta, phi, a, b):
    """Exact lower bound from the LP's phi: the better of its McShane
    extensions, made feasible by scaling (phi, a, b) by max(1, a + b) and
    clipping to [-b, b].  Returns (value, test function, a, b)."""
    s = max(1.0, a + b)
    a = min(max(a / s, 0.0), 1.0)
    b = min(max(b / s, 0.0), 1.0 - a)
    ext = np.clip(_extensions(points, phi / s, a), -b, b)
    vals = [float(eta @ e) for e in ext]
    k = int(np.argmax(vals))
    return vals[k], ext[k], a, b


def _extensions(points, phi, a):
    """McShane extensions of phi over the support, as the rows of one
    (2, n) array: the lower min_w [phi(w) + a|z - w|] and the upper
    max_w [phi(w) - a|z - w|], by a chunked scan."""
    out = np.empty((2, points.shape[0]))
    for start, stop, r2 in pair_r2(points, points, PAIR_CHUNK):
        dist = np.sqrt(r2)
        out[0, start:stop] = np.min(phi + a * dist, axis=1)
        out[1, start:stop] = np.max(phi - a * dist, axis=1)
    return out


def _violated_pairs(points, phi, a):
    """All pairs whose Lipschitz constraint the current phi violates,
    found by an exhaustive chunked scan."""
    out = []
    for start, stop, r2 in pair_r2(points, points, PAIR_CHUNK):
        gap = np.abs(phi[start:stop, None] - phi[None, :]) - a * np.sqrt(r2)
        ii, jj = np.nonzero(gap > 1e-9)
        keep = start + ii < jj
        out.append(np.stack([start + ii[keep], jj[keep]], axis=1))
    return np.vstack(out)


def bl_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> BLResult:
    """Bounded-Lipschitz dual-norm distance ||mu - nu||_LB*."""
    points, eta = _signed_union(mu, nu)
    if points.shape[0] == 0 or not np.any(np.abs(eta) > 0):
        return BLResult(0.0, {"ub": 0.0, "lb": 0.0, "rounds": 0})
    return _exact_lp(points, eta)


def bl_distance_fields(u: GridField, w: GridField) -> BLResult:
    """Sum over species of BL distances between two grid solutions; the
    certificate holds the summed bounds ub, lb and the most rounds."""
    if u.n_species != w.n_species:
        raise ValueError("species counts differ")
    res = [bl_distance(DiscreteMeasure.from_grid(u, i),
                       DiscreteMeasure.from_grid(w, i))
           for i in range(u.n_species)]
    return BLResult(sum(r.value for r in res),
                    {"ub": sum(r.certificate["ub"] for r in res),
                     "lb": sum(r.certificate["lb"] for r in res),
                     "rounds": max(r.certificate["rounds"] for r in res)})


# ---------------------------------------------------------------------
# convergence-slope fits

@dataclass
class RateFit:
    slope: float
    intercept: float
    band: tuple        # bootstrap (2.5%, 97.5%) band on the slope
    n_points: int


def rate_fit(pairs, seed: int = 0) -> RateFit:
    """Log-log least-squares slope of (scale, distance) pairs, with a band
    from 500 bootstrap resamples."""
    pairs = [(float(s), float(dist)) for s, dist in pairs]
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 scales")
    scales = np.array([p[0] for p in pairs])
    dists = np.array([p[1] for p in pairs])
    if np.any(scales <= 0) or np.any(dists <= 0):
        raise ValueError("scales and distances must be positive")
    lx, ly = np.log(scales), np.log(dists)
    slope, intercept = np.polyfit(lx, ly, 1)
    # all resamples in one draw (the same stream as one draw per resample),
    # then the closed-form least-squares slope of every non-degenerate one
    idx = np.random.default_rng(seed).integers(
        0, len(pairs), size=(500, len(pairs)))
    bx = lx[idx]
    keep = np.ptp(bx, axis=1) >= 1e-12
    bx, by = bx[keep], ly[idx[keep]]
    bx = bx - bx.mean(axis=1, keepdims=True)
    boots = (np.einsum("bn,bn->b", bx, by - by.mean(axis=1, keepdims=True))
             / np.einsum("bn,bn->b", bx, bx))
    if boots.size:
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = slope
    return RateFit(float(slope), float(intercept), (float(lo), float(hi)),
                   len(pairs))

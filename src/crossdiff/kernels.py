"""Nonnegative interaction kernels and their convolutions.

Kernels are immutable after construction and every operation here is pure,
so they are safe to share across threads.  Convolutions against empirical
measures are exact to roundoff.  The point convolutions (convolve_empirical
and convolve_field) take an (n, d) batch of query points and return (n,);
any other shape raises ValueError.  Gaussian kernels in d <= 2 use Gaussian
gridding (k_eps = k_s * k_s, s = eps / sqrt(2), spread on a grid of step
eps / 4 and gathered by the trapezoid rule, relative error ~exp(-8 pi^2))
whenever its cost, grid nodes x (N + Q) for N atoms and Q queries, is below
that of the direct sum; every other case is the direct sum, which is also
the gridded route's test oracle.  When the queries are the atoms (the same
array), the gather reuses the spread's factors while they fit in one chunk.
Against a grid field, convolve_field is the midpoint-rule quadrature at
arbitrary points: the direct sum over the cell centres weighted by the
cell masses.  Every direct sum scans its pairs through grids.pair_r2 in
blocks of about CHUNK pairs.  convolve_field_grid gives the same
quadrature at every cell centre for one kernel-species pair or a batch of
them, through one FFT engine: one mass sum, one forward FFT of all
species, one product and one inverse FFT of the batch.  The rest
(constant/FFT split, gather indices, stacked kernel spectra, crop) is a
batch plan cached per kernel tuple, species tuple, grid shape and spacing
in a bounded, thread-safe LRU cache.  Its test oracle is convolve_field at
the cell centres, and the two agree to 1e-8.  The FFTs are numpy's, the
pocketfft of scipy.fft: with scipy's 5-smooth lengths (_fast_len) and the
inverse scaled once by 1 / prod(lengths), not per axis, they equal
scipy.fft's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import GridField, pair_r2, points

FAMILIES = ("gaussian", "compact-bump", "constant", "tabulated")

# Gaussian tails are cut at 6 bandwidths in fast paths; the discarded mass
# is below 2e-9, under every test tolerance in the suite.
GAUSSIAN_CUTOFF = 6.0
# Elements of each intermediate array of a direct or gridded sum.
CHUNK = 2 ** 22


@lru_cache(maxsize=None)
def _bump_norm(dim: int) -> float:
    """Integral of exp(-1/(1-|u|^2)) over the unit ball by 128-node
    Gauss-Legendre in the radius r on [0, 1], whose Jacobian 1/2 cancels the
    2 of 2 pi r dr (2-d) and of the even profile's two halves (1-d)."""
    if dim not in (1, 2):
        raise ValueError("compact-bump supported for d in {1, 2}")
    t, w = np.polynomial.legendre.leggauss(128)
    r = 0.5 * (t + 1.0)
    return float(w @ ((math.pi * r) ** (dim - 1) * np.exp(1 / (r * r - 1))))


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A nonnegative bounded Lipschitz kernel on R^d.

    amplitude is the total mass for the integrable families (gaussian,
    compact-bump, tabulated after normalization is up to the caller) and
    the constant value for the constant family.
    """

    family: str
    dim: int
    bandwidth: float = 1.0
    amplitude: float = 1.0
    table: tuple | None = None   # (radii, values) for the tabulated family

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.family == "tabulated":
            if self.table is None:
                raise ValueError("tabulated kernel needs a table")
            r = np.asarray(self.table[0], dtype=float)
            v = np.asarray(self.table[1], dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 2:
                raise ValueError("table must be two equal 1-d columns")
            if np.any(np.diff(r) <= 0) or r[0] < 0:
                raise ValueError("table radii must be increasing and >= 0")
            if np.any(v < 0):
                raise ValueError("table values must be nonnegative")
            object.__setattr__(self, "table", (r, v))

    # -- evaluation ---------------------------------------------------

    def _eval_radius2(self, r2: np.ndarray) -> np.ndarray:
        eps = self.bandwidth
        if self.family == "gaussian":
            norm = self.amplitude * (2.0 * math.pi * eps * eps) ** (-0.5 * self.dim)
            return norm * np.exp(-0.5 * r2 / (eps * eps))
        if self.family == "compact-bump":
            u2 = r2 / (eps * eps)
            out = np.zeros_like(u2)
            inside = u2 < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
            norm = self.amplitude / (_bump_norm(self.dim) * eps ** self.dim)
            return norm * out
        if self.family == "constant":
            return np.full_like(r2, self.amplitude)
        # tabulated: linear interpolation in |x|, clamped to 0 outside
        r_tab, v_tab = self.table
        return self.amplitude * np.interp(np.sqrt(r2), r_tab, v_tab,
                                          left=v_tab[0], right=0.0)

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"expected points in R^{self.dim}")
        return self._eval_radius2(np.einsum("nk,nk->n", x, x))

    # -- declared bounds ----------------------------------------------

    @property
    def sup_bound(self) -> float:
        eps = self.bandwidth
        if self.family == "gaussian":
            return self.amplitude * (2.0 * math.pi * eps * eps) ** (-0.5 * self.dim)
        if self.family == "compact-bump":
            return self.amplitude * math.exp(-1.0) / (_bump_norm(self.dim) * eps ** self.dim)
        if self.family == "constant":
            return self.amplitude
        return self.amplitude * float(np.max(self.table[1]))

    @property
    def support_radius(self) -> float:
        """Radius beyond which the kernel is (numerically) zero."""
        if self.family == "gaussian":
            return GAUSSIAN_CUTOFF * self.bandwidth
        if self.family == "compact-bump":
            return self.bandwidth
        if self.family == "tabulated":
            return float(self.table[0][-1])
        return math.inf


def tabulated_from_csv(path, dim: int, amplitude: float = 1.0) -> KernelSpec:
    """Load a tabulated kernel from a two-column CSV (abscissa, value)."""
    data = np.loadtxt(path, delimiter=",", dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("tabulated kernel CSV needs two columns")
    return KernelSpec("tabulated", dim, amplitude=amplitude,
                      table=(data[:, 0], data[:, 1]))


# ---------------------------------------------------------------------
# quadrature checks

def kernel_mass(k: KernelSpec) -> float:
    """Numerical integral of the kernel over its truncation box, by the
    trapezoid rule on 4001 nodes."""
    n = 4001
    if k.family == "constant":
        raise ValueError("constant kernels are not integrable")
    rad = k.support_radius
    if k.dim == 1:
        x = np.linspace(-rad, rad, n)[:, None]
        return float(np.trapezoid(k.evaluate_batch(x), x[:, 0]))
    r = np.linspace(0.0, rad, n)
    vals = k._eval_radius2(r * r)
    return float(np.trapezoid(2.0 * math.pi * r * vals, r))


def mollifier(gamma: KernelSpec, eps: float) -> KernelSpec:
    """Rescale a unit-mass kernel to gamma(x/eps) eps^{-d}."""
    if eps <= 0.0:
        raise ValueError("mollifier scale must be positive")
    if gamma.family == "constant":
        raise ValueError("constant kernels have no unit mass")
    if abs(kernel_mass(gamma) - 1.0) > 1e-6:
        raise ValueError("mollifier base must have unit mass")
    if gamma.family == "tabulated":
        r, v = gamma.table
        return KernelSpec("tabulated", gamma.dim,
                          bandwidth=gamma.bandwidth * eps,
                          amplitude=gamma.amplitude,
                          table=(r * eps, v * eps ** (-gamma.dim)))
    return KernelSpec(gamma.family, gamma.dim,
                      bandwidth=gamma.bandwidth * eps,
                      amplitude=gamma.amplitude)


# ---------------------------------------------------------------------
# empirical measures

@dataclass
class EmpiricalMeasure:
    """Weighted point measure (1/K) sum of Diracs for one species."""

    atoms: np.ndarray    # (N, d)
    K: int

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=float)
        if self.atoms.ndim == 1:
            self.atoms = self.atoms[:, None]
        if self.K < 1:
            raise ValueError("charge capacity K must be >= 1")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("atom coordinates must be finite")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def mass(self) -> float:
        return self.n_atoms / self.K


def convolve_empirical(k: KernelSpec, nu: EmpiricalMeasure, x) -> np.ndarray:
    """(k * nu)(x) = (1/K) sum_n k(x - x_n) at an (n, d) batch of points,
    exact to roundoff; empty measures give 0.
    Gaussian kernels in d <= 2 go through Gaussian gridding when its cost,
    grid nodes x (N + Q), is below the N x Q of the direct sum (weighted by
    GRIDDING_PAIR_COST in 2-d); every other case is the direct sum.
    """
    xq = points(x, k.dim)
    if nu.n_atoms == 0:
        return np.zeros(xq.shape[0])
    if k.family == "constant":
        return np.full(xq.shape[0], k.amplitude * nu.mass)
    grid = _gridding_grid(k, nu.atoms, xq)
    pair_cost = GRIDDING_PAIR_COST if k.dim == 2 else 1.0
    if grid is not None and np.prod(grid[1]) * (nu.n_atoms + len(xq)) \
            < pair_cost * nu.n_atoms * len(xq):
        return _gridded_sum(k, nu.atoms, xq, nu.K, CHUNK, *grid)
    return _direct_sum(k, nu.atoms, xq, nu.K, CHUNK)


def _direct_sum(k: KernelSpec, atoms: np.ndarray, xq: np.ndarray, K: int,
                chunk: int, weights=None) -> np.ndarray:
    """The O(N Q) direct sum (1/K) sum_n w_n k(x_q - x_n), unit weights by
    default; also the oracle of the gridded route."""
    out = np.zeros(xq.shape[0])
    for start, stop, r2 in pair_r2(xq, atoms, chunk):
        vals = k._eval_radius2(r2)
        out[start:stop] = (vals.sum(axis=1) if weights is None
                           else vals @ weights) / K
    return out


# Gaussian gridding: k_eps = k_s * k_s with s = eps / sqrt(2), and the
# trapezoid rule of that convolution integral on a grid of step eps / 4
# padded by 5 eps.  The integrand of each atom-query pair is a Gaussian of
# std eps / 2, so the rule's relative error is exp(-2 pi^2 (eps/2)^2 / h^2)
# = exp(-8 pi^2) ~ 5e-35 and the padding cuts it at 10 std (~1e-23).
GRIDDING_STEP = 0.25
GRIDDING_PAD = 5.0
# A 2-d direct-sum pair costs 50-250 node x point products of the gridded
# route (one BLAS thread); the cost rule counts it as 25 of them.
GRIDDING_PAIR_COST = 25.0


def _gridding_grid(k: KernelSpec, atoms: np.ndarray, xq: np.ndarray):
    """(lower corner, nodes per axis) of the gridding grid over the atoms
    and the queries, or None where the route does not apply: another
    family, d > 2, or a non-finite query point."""
    if k.family != "gaussian" or k.dim > 2 or not np.all(np.isfinite(xq)):
        return None
    pad = GRIDDING_PAD * k.bandwidth
    lo = np.minimum(atoms.min(axis=0), xq.min(axis=0)) - pad
    hi = np.maximum(atoms.max(axis=0), xq.max(axis=0)) + pad
    return lo, np.ceil((hi - lo) / (GRIDDING_STEP * k.bandwidth)) + 1


def _gridding_factors(pts: np.ndarray, axes: list, eps: float) -> list:
    """Per-axis factor matrices exp(-((t - y) / eps)^2), k_s along one axis
    up to its norm, each built in one buffer; in 1-d the second factor is
    a column of ones."""
    mats = []
    for a, y in enumerate(axes):
        m = np.subtract(pts[:, a, None], y)
        m /= eps
        np.square(m, out=m)
        np.negative(m, out=m)
        np.exp(m, out=m)
        mats.append(m)
    return mats if len(mats) == 2 else mats + [np.ones((pts.shape[0], 1))]


def _gridded_sum(k: KernelSpec, atoms: np.ndarray, xq: np.ndarray, K: int,
                 chunk: int, lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Spread the atoms on the grid with k_s, gather at the queries with k_s.

    The isotropic Gaussian factors over the axes, so with per-axis factor
    matrices the spread is f = W_0 W_1^T and the gather sum (V_0 f) . V_1.
    When the queries are the atoms themselves (xq is atoms) and their
    factors fit in one chunk, the gather reads the spread's factors.
    """
    eps = k.bandwidth
    h = GRIDDING_STEP * eps
    axes = [a + h * np.arange(int(n)) for a, n in zip(lo, counts)]
    width = sum(y.size for y in axes) + 1
    block = max(1, chunk // width)
    f = 0.0
    for start in range(0, atoms.shape[0], block):
        w = _gridding_factors(atoms[start:start + block], axes, eps)
        f = f + w[0].T @ w[1]
    reuse = xq is atoms and atoms.shape[0] <= block
    out = np.empty(xq.shape[0])
    for start in range(0, xq.shape[0], block):
        v0, v1 = w if reuse else \
            _gridding_factors(xq[start:start + block], axes, eps)
        out[start:start + block] = np.einsum("qb,qb->q", v0 @ f, v1)
    return out * (k.amplitude * h ** k.dim / (math.pi * eps * eps) ** k.dim / K)


# ---------------------------------------------------------------------
# grid-field convolutions

def convolve_field(k: KernelSpec, u: GridField, species: int,
                   x) -> np.ndarray:
    """Midpoint-rule quadrature of int k(x - y) u(y) dy at (n, d) points."""
    if k.dim != u.dim:
        raise ValueError("kernel and field dimensions differ")
    xq = points(x, k.dim)
    if k.family == "constant":
        return np.full(xq.shape[0], k.amplitude * u.mass(species))
    return _direct_sum(k, u.centers(), xq, 1, CHUNK,
                       u.values[species].ravel() * u.cell_volume)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, as scipy.fft.next_fast_len(n,
    real=True): the least 3^b 5^c times the least power of 2 reaching n."""
    odd = [3 ** b * 5 ** c for b in range(n.bit_length())
           for c in range(n.bit_length())]
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


@lru_cache(maxsize=16)
def _batch_plan(ks: tuple, js: tuple, shape: tuple, spacing: tuple) -> tuple:
    """Batch plan of a grid convolution: (constant rows, amplitudes,
    species; FFT rows, species, stacked rfftn spectra of the kernels
    sampled at the differences of cell centres; FFT lengths; crop to the
    centres).  Keyed by the kernel tuple (KernelSpec compares by identity),
    species tuple, grid shape and spacing, so a PDE step reuses the plan
    of the previous step; its arrays are read-only and shared."""
    if len(ks) != len(js) or any(k.dim != len(shape) for k in ks):
        raise ValueError("need one kernel of the field's dimension per species")
    is_const = np.array([k.family == "constant" for k in ks], dtype=bool)
    const, rest = np.flatnonzero(is_const), np.flatnonzero(~is_const)
    js = np.array(js)
    # full linear convolution has length 3n - 2 per axis
    fshape = tuple(_fast_len(3 * n - 2) for n in shape)
    mesh = np.meshgrid(*[np.arange(-(n - 1), n) * h
                         for n, h in zip(shape, spacing)], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    plan = (const, np.array([ks[p].amplitude for p in const]), js[const],
            rest, js[rest], np.array([np.fft.rfftn(ks[p].evaluate_batch(
                pts).reshape([2 * n - 1 for n in shape]), fshape,
                axes=range(len(shape))) for p in rest]))
    for a in plan:
        a.flags.writeable = False
    # the central n entries (offset n - 1) are the cell-centre values
    return plan + (fshape, (...,) + tuple(slice(n - 1, 2 * n - 1)
                                          for n in shape))


def convolve_field_grid(k, u: GridField, species) -> np.ndarray:
    """Whole-grid convolution, same quadrature as convolve_field, at every
    cell centre.  Equal-length sequences k and species give the stack
    (P, *shape) of k[p] * u^species[p]: one forward FFT of every species and
    one inverse FFT of the stack, zero-padded, through a cached batch
    plan.  Its test oracle is convolve_field at u.centers().
    """
    single = isinstance(k, KernelSpec)
    ks, js = ((k,), (species,)) if single else (tuple(k), tuple(species))
    const, amps, const_js, rest, rest_js, spectra, fshape, crop = \
        _batch_plan(ks, js, u.shape, tuple(u.spacing.tolist()))
    out = np.empty((len(ks),) + u.shape)
    if const.size:
        out[const] = (amps * u.mass()[const_js]).reshape((-1,) + (1,) * u.dim)
    if rest.size:
        axes = range(1, u.dim + 1)
        uspec = np.fft.rfftn(u.values, fshape, axes=axes)
        conv = np.fft.irfftn(uspec[rest_js] * spectra, fshape, axes=axes,
                             norm="forward")[crop]
        conv *= 1.0 / math.prod(fshape)
        out[rest] = np.maximum(conv * u.cell_volume, 0.0)
    return out[0] if single else out

"""Coefficient models: diffusion, drift, growth and the kernel matrix.

The model carries sigma (not a): the simulator needs sigma directly and
factorizing a user-supplied matrix is ill-posed when it degenerates.  The
diffusion matrix a = sigma sigma* is always derived.

The noise convention is explicit: SDEs use noise_scale * sigma dB and the
PDE uses (noise_scale^2 / 2) * sigma sigma* inside the double divergence.
The default noise_scale = sqrt(2) makes the PDE coefficient exactly
sigma sigma*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import points
from .kernels import KernelSpec

SQRT2 = math.sqrt(2.0)
# Declared C_M of assumption (ii), and the slack factor validate allows on
# the declared bounds L and C_M.
GROWTH_SCALE_BOUND = 10.0
PROBE_TOL = 1.05


def _eval(fn, name: str, x, v, shape: tuple) -> np.ndarray:
    """fn(x, v) for finite positions x, (n, d) with d = shape[0], reshaped
    to (n, *shape)."""
    x = points(x, shape[0])
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite position passed to {name}")
    # convolutions are nonnegative in exact arithmetic; tiny negative grid
    # artifacts must not escape the assumption domain [0, inf)^M
    out = np.asarray(fn(x, np.maximum(np.atleast_2d(v), 0.0)), float)
    return out.reshape((x.shape[0],) + shape)


@dataclass
class CoefficientModel:
    M: int
    d: int
    sigma_fns: Sequence[Callable]    # sigma_fns[i](x (n,d), v (n,M)) -> (n,d,d)
    drift_fns: Sequence[Callable]    # -> (n,d)
    growth_fns: Sequence[Callable]   # growth_fns[i](x) -> (n,)
    growth_bounds: Sequence[float]   # declared bounds on r_i
    G: list                          # M x M kernel matrices
    H: list
    C: list | None = None            # competition kernels (kernel mode)
    comp: np.ndarray | None = None   # local competition constants c_ij >= 0
    lipschitz_bound: float = 10.0    # declared L of assumption (i)
    noise_scale: float = SQRT2

    def __post_init__(self):
        for mat, name in ((self.G, "G"), (self.H, "H"), (self.C, "C")):
            if mat is None:
                continue
            if len(mat) != self.M or any(len(row) != self.M for row in mat):
                raise ValueError(f"kernel matrix {name} must be M x M")
        if self.comp is not None:
            self.comp = np.asarray(self.comp, dtype=float)
            if self.comp.shape != (self.M, self.M) or np.any(self.comp < 0):
                raise ValueError("competition constants must be an M x M "
                                 "nonnegative matrix")
        self.growth_bounds = tuple(float(b) for b in self.growth_bounds)

    @property
    def diffusion_factor(self) -> float:
        """Factor turning sigma sigma* into the PDE/generator coefficient."""
        return 0.5 * self.noise_scale ** 2

    # -- coefficient evaluation (pure, reentrant) ----------------------

    def eval_sigma(self, i: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _eval(self.sigma_fns[i], "sigma", x, v, (self.d, self.d))

    def eval_drift(self, i: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _eval(self.drift_fns[i], "drift", x, v, (self.d,))

    def eval_growth(self, i: int, x: np.ndarray) -> np.ndarray:
        x = points(x, self.d)
        return np.asarray(self.growth_fns[i](x), dtype=float).reshape(x.shape[0])


def density_free(fn):
    """Mark a sigma or drift fn(x, v) as ignoring v, the convolved densities,
    so that the PDE evaluates it once per solve and the IBM convolves
    nothing for it (see density_free_value)."""
    fn.density_free = True
    return fn


def density_free_value(coefficient, fns, name: str, zero):
    """coefficient(zero), a tuple led by the values, when every fn in fns
    is marked density_free, else None.  The values must equal those at
    v = j + 1 in column j, a spot check of the marks, or ValueError names
    the set."""
    if not all(getattr(fn, "density_free", False) for fn in fns):
        return None
    at0 = coefficient(zero)
    if not np.array_equal(at0[0], coefficient(
            zero + np.arange(1.0, zero.shape[-1] + 1))[0]):
        raise ValueError(f"a {name} marked density_free reads v")
    return at0


def diffusion_matrix(model: CoefficientModel, i: int, x, v) -> np.ndarray:
    """a^i = sigma^i (sigma^i)^T at a batch of (x, v) arguments.

    Symmetric by construction; the result is explicitly symmetrized so the
    1e-12 symmetry contract holds under floating-point reassociation.
    """
    s = model.eval_sigma(i, x, v)
    a = np.einsum("nkq,nlq->nkl", s, s)
    return 0.5 * (a + np.swapaxes(a, 1, 2))


# ---------------------------------------------------------------------
# built-in families (Remark on examples: coefficients may vanish, and with
# constant kernels they depend only on subspecies total masses)

def _const_kernel_matrix(M: int, d: int) -> list:
    k = KernelSpec("constant", d)
    return [[k for _ in range(M)] for _ in range(M)]


def _as_list(x, M):
    seq = x if isinstance(x, (list, tuple, np.ndarray)) else [x] * M
    if len(seq) != M:
        raise ValueError("per-species parameter has wrong length")
    return [float(s) for s in seq]


def constant_growth(r: float):
    return lambda x: np.full(x.shape[0], r)


def bump_growth(base: float, amp: float, center: float = 0.0,
                width: float = 1.0):
    """r(x) = base + amp * exp(-|x - c|^2 / (2 w^2)); bound base + amp."""
    def fn(x):
        z2 = np.sum((x - center) ** 2, axis=1) / (2.0 * width ** 2)
        return base + amp * np.exp(-z2)
    return fn


# The params of each builtin family, True for a per-species one (one number
# or a list of M numbers), False for one number.
FAMILY_PARAMS = {
    "constant-coefficients": {"sigma0": True, "drift0": False},
    "isotropic-saturating": {"psi_max": True},
    "attraction-drift": {"sigma0": True, "alpha": False},
}


def builtin_model(family: str, M: int, d: int, *, G=None, H=None, C=None,
                  comp=None, r=0.0, rbar=None, noise_scale=SQRT2,
                  lipschitz_bound=None, **params) -> CoefficientModel:
    """Instantiate a named coefficient family with its FAMILY_PARAMS.

    Families: "constant-coefficients" (sigma0, drift0), "isotropic-saturating"
    (psi_max; a = I * psi_max * S/(1+S) with S the sum of the kernel-convolved
    densities), "attraction-drift" (sigma0, alpha; drift -alpha x / sqrt(1+|x|^2)).
    lipschitz_bound declares L, by default the family's own.
    """
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown builtin family {family!r}")
    extra = sorted(set(params) - set(FAMILY_PARAMS[family]))
    if extra:
        raise ValueError(f"family {family!r} takes no params {extra}")
    G = G if G is not None else _const_kernel_matrix(M, d)
    H = H if H is not None else _const_kernel_matrix(M, d)
    rates = _as_list(r, M)
    growth_fns = [constant_growth(ri) for ri in rates]
    bounds = _as_list(rbar, M) if rbar is not None else rates
    eye = np.eye(d)
    if family in ("constant-coefficients", "attraction-drift"):   # constant sigma
        sigma_fns = [(lambda se: lambda x, v: np.full((x.shape[0], d, d), se))(
            s * eye) for s in _as_list(params.get("sigma0", 1.0), M)]

    if family == "constant-coefficients":
        b0 = np.full(d, params.get("drift0", 0.0), dtype=float)
        drift_fns = [lambda x, v: np.full((x.shape[0], d), b0)] * M
        L = 0.0
    elif family == "isotropic-saturating":
        psi = _as_list(params.get("psi_max", 1.0), M)
        def make_sigma(p):
            def fn(x, v):
                s_tot = np.sum(v, axis=1)
                amp = np.sqrt(p * s_tot / (1.0 + s_tot))
                return amp[:, None, None] * eye[None, :, :]
            return fn
        sigma_fns = [make_sigma(p) for p in psi]
        drift_fns = [lambda x, v: np.zeros((x.shape[0], d))] * M
        L = max(psi)     # slope of sqrt(psi s/(1+s)) blows up at s=0; see docs
    else:    # attraction-drift
        alpha = float(params.get("alpha", 1.0))
        def drift(x, v):
            nrm = np.sqrt(1.0 + np.sum(x * x, axis=1))
            return -alpha * x / nrm[:, None]
        drift_fns = [drift] * M
        L = alpha

    # every builtin drift ignores v, and so does every sigma but the saturating
    for fn in drift_fns + sigma_fns * (family != "isotropic-saturating"):
        density_free(fn)
    L = float(max(L, 1e-9) if lipschitz_bound is None else lipschitz_bound)
    return CoefficientModel(M, d, sigma_fns, drift_fns, growth_fns, bounds,
                            G, H, C=C, comp=comp, lipschitz_bound=L,
                            noise_scale=noise_scale)


# ---------------------------------------------------------------------
# statistical validation of the standing assumptions

@dataclass
class ProbeSpec:
    lo: np.ndarray
    hi: np.ndarray
    v_max: float = 2.0
    v_min: float = 0.0
    n: int = 512
    seed: int = 0

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))


@dataclass
class AssumptionCheck:
    name: str
    estimate: float
    declared: float
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            tag = "ok " if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: estimate={c.estimate:.6g} "
                         f"declared={c.declared:.6g} {c.detail}")
        return "\n".join(lines)


def validate(model: CoefficientModel, probes: ProbeSpec) -> ValidationReport:
    """Monte-Carlo check of assumptions (i)-(iv) on probe samples.

    Failures are reported, never raised, and a NaN estimate fails.
    Assumption (ii) is validated as the affine bound |sigma| <= C_M (1 + |x|):
    the literal C_M |x| form forces sigma(0) = 0 and excludes the
    constant-coefficient examples.
    """
    rng = np.random.default_rng(probes.seed)
    n = probes.n
    d, M = model.d, model.M
    x = rng.uniform(probes.lo, probes.hi, size=(n, d))
    v = rng.uniform(probes.v_min, probes.v_max, size=(n, M))
    x2 = rng.uniform(probes.lo, probes.hi, size=(n, d))
    v2 = rng.uniform(probes.v_min, probes.v_max, size=(n, M))
    checks = []

    # (i) Lipschitz quotients of sigma and b jointly in (x, v): global
    # random pairs plus local difference quotients near each probe
    h = 1e-4 * (1.0 + float(np.max(probes.hi - probes.lo)))
    pair_sets = [(x2, v2)]
    for axis in range(d):
        dx = np.zeros(d)
        dx[axis] = h
        pair_sets.append((x + dx, v))
    for j in range(M):
        dv = np.zeros(M)
        dv[j] = h
        pair_sets.append((x, v + dv))
    lip = 0.0
    for i in range(M):
        for xb, vb in pair_sets:
            ds = model.eval_sigma(i, x, v) - model.eval_sigma(i, xb, vb)
            db = model.eval_drift(i, x, v) - model.eval_drift(i, xb, vb)
            num = (np.sqrt(np.sum(ds ** 2, axis=(1, 2)))
                   + np.sqrt(np.sum(db ** 2, axis=1)))
            den = (np.sqrt(np.sum((x - xb) ** 2, axis=1))
                   + np.sum(np.abs(v - vb), axis=1))
            ok = den > 1e-12
            if np.any(ok):
                lip = float(np.max(num[ok] / den[ok], initial=lip))
    checks.append(AssumptionCheck(
        "(i) Lipschitz constant L", lip, model.lipschitz_bound,
        lip <= PROBE_TOL * model.lipschitz_bound))

    # (ii) affine growth bound on |sigma|
    ratio = 0.0
    for i in range(M):
        s = model.eval_sigma(i, x, v)
        nrm = np.sqrt(np.sum(s ** 2, axis=(1, 2)))
        ratio = float(np.max(nrm / (1.0 + np.sqrt(np.sum(x * x, axis=1))),
                             initial=ratio))
    checks.append(AssumptionCheck(
        "(ii) growth bound C_M (affine form)", ratio,
        GROWTH_SCALE_BOUND, ratio <= PROBE_TOL * GROWTH_SCALE_BOUND))

    # (iii) kernels nonnegative and bounded on a probe lattice
    worst = 0.0
    kernels_ok = True
    mats = [model.G, model.H] + ([model.C] if model.C is not None else [])
    for mat in mats:
        for row in mat:
            for k in row:
                vals = k.evaluate_batch(x)
                if np.any(vals < 0) or np.any(vals > k.sup_bound * (1 + 1e-9)):
                    kernels_ok = False
                worst = max(worst, float(np.max(vals)))
    checks.append(AssumptionCheck(
        "(iii) kernels nonnegative and bounded", worst, worst, kernels_ok))

    # (iv) growth rates within [0, rbar]
    for i in range(M):
        r = model.eval_growth(i, x)
        rmax = float(np.max(r)) if n else 0.0
        ok = bool(np.all(r >= -1e-12) and rmax <= model.growth_bounds[i] + 1e-9)
        checks.append(AssumptionCheck(
            f"(iv) growth bound rbar_{i}", rmax, model.growth_bounds[i], ok))

    return ValidationReport(checks)

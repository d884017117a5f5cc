"""Initial data shared by the particle simulator and the PDE solver.

An InitialCondition carries a target mass and a probability density that can
both be sampled (for particles) and evaluated on a grid (for fields).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridField


@dataclass
class InitialCondition:
    """One species' initial mass and shape.

    kind: "gaussian" (mean, std), "uniform" (lo, hi) or "triangle"
    (center, halfwidth; a tent density, Lipschitz but with kinks).
    """

    mass: float
    kind: str = "gaussian"
    mean: np.ndarray | float = 0.0
    std: float = 1.0
    lo: np.ndarray | float = -1.0
    hi: np.ndarray | float = 1.0
    center: np.ndarray | float = 0.0
    halfwidth: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if self.kind not in ("gaussian", "uniform", "triangle"):
            raise ValueError(f"unknown initial kind {self.kind!r}")
        for name in ("mean", "lo", "hi", "center"):
            v = np.broadcast_to(np.asarray(getattr(self, name), float),
                                (self.dim,)).copy()
            setattr(self, name, v)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return self.mean[None, :] + self.std * rng.standard_normal((n, self.dim))
        if self.kind == "uniform":
            return rng.uniform(self.lo, self.hi, size=(n, self.dim))
        # triangle: inverse-free sampling as sum of two uniforms per axis
        u = rng.uniform(-1.0, 1.0, size=(n, self.dim))
        v = rng.uniform(-1.0, 1.0, size=(n, self.dim))
        return self.center[None, :] + 0.5 * self.halfwidth * (u + v)

    def density(self, x: np.ndarray) -> np.ndarray:
        """Probability density (unit mass) at points (n, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "gaussian":
            z2 = np.sum(((x - self.mean[None, :]) / self.std) ** 2, axis=1)
            norm = (2.0 * np.pi * self.std ** 2) ** (-0.5 * self.dim)
            return norm * np.exp(-0.5 * z2)
        if self.kind == "uniform":
            vol = float(np.prod(self.hi - self.lo))
            inside = np.all((x >= self.lo[None, :]) & (x <= self.hi[None, :]),
                            axis=1)
            return inside / vol
        w = self.halfwidth
        out = np.ones(x.shape[0])
        for axis in range(self.dim):
            t = np.abs(x[:, axis] - self.center[axis]) / w
            out *= np.maximum(0.0, 1.0 - t) / w
        return out

    def shifted(self, delta) -> "InitialCondition":
        """Same shape translated by delta (d-vector or scalar)."""
        delta = np.broadcast_to(np.asarray(delta, float), (self.dim,))
        out = InitialCondition(self.mass, self.kind, self.mean + delta,
                               self.std, self.lo + delta, self.hi + delta,
                               self.center + delta, self.halfwidth, self.dim)
        return out


def project_to_grid(specs: list[InitialCondition], lo, hi, shape) -> GridField:
    """Discretize initial conditions on a grid, normalized to exact masses."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    shape = tuple(int(n) for n in np.atleast_1d(shape))
    values = np.zeros((len(specs),) + shape)
    u = GridField(lo, hi, values, time=0.0)
    pts = u.centers()
    for i, spec in enumerate(specs):
        dens = spec.density(pts).reshape(shape)
        got = dens.sum() * u.cell_volume
        if spec.mass > 0 and got <= 0:
            raise ValueError("initial density has no mass inside the box")
        u.values[i] = dens * (spec.mass / got) if spec.mass > 0 else 0.0
    return u

"""Uniform box grids holding per-species density fields."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


def points(x, d: int) -> np.ndarray:
    """x as an (n, d) float array of points in R^d.  Any other shape raises
    ValueError, so a flat array of n points is never read as one point in
    R^n."""
    xq = np.asarray(x, dtype=float)
    if xq.ndim != 2 or xq.shape[1] != d:
        raise ValueError(f"expected an (n, {d}) array of query points")
    return xq


def pair_r2(xq: np.ndarray, atoms: np.ndarray, chunk: int):
    """Yield (start, stop, squared distances from xq[start:stop] to every
    atom) in row blocks of about chunk pairs, which bound their memory."""
    block = max(1, chunk // max(1, atoms.shape[0]))
    for start in range(0, xq.shape[0], block):
        diff = xq[start:start + block, None, :] - atoms[None, :, :]
        yield (start, min(start + block, xq.shape[0]),
               np.einsum("qnk,qnk->qn", diff, diff))


@dataclass
class GridField:
    """Per-species densities on a uniform box grid.

    values has shape (M, n1) in 1-d or (M, n1, n2) in 2-d, density units
    (mass / length^d).  All species share the grid.
    """

    lo: np.ndarray          # (d,)
    hi: np.ndarray          # (d,)
    values: np.ndarray      # (M, *shape)
    time: float = 0.0

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.dim + 1:
            raise ValueError("values must have shape (M, *grid shape)")
        if not (self.hi > self.lo).all():
            raise ValueError("box must have positive extent")
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def n_species(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple:
        return self.values.shape[1:]

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / np.asarray(self.shape, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.spacing[axis]
        return self.lo[axis] + (np.arange(n) + 0.5) * h

    def centers(self) -> np.ndarray:
        """All cell centers as an (n_cells, d) array in C order."""
        mesh = np.meshgrid(*[self.axis_centers(k) for k in range(self.dim)],
                           indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def mass(self, i: int | None = None):
        if i is None:
            return self.values.reshape(self.n_species, -1).sum(axis=1) * self.cell_volume
        return float(self.values[i].sum() * self.cell_volume)

    def boundary_mass_fraction(self) -> float:
        """Mass in the outermost cell layer relative to total mass."""
        total = float(self.values.sum())
        if total <= 0.0:
            return 0.0
        inner = self.values
        for axis in range(1, self.dim + 1):
            sl = [slice(None)] * inner.ndim
            sl[axis] = slice(1, -1)
            inner = inner[tuple(sl)]
        return float((self.values.sum() - inner.sum()) / total)

    def copy(self) -> "GridField":
        return GridField(self.lo.copy(), self.hi.copy(), self.values.copy(),
                         self.time)

    def interpolate(self, i: int, x: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of species i at query points (n, d).

        Values outside the box are clamped to the boundary cell.
        """
        x = points(x, self.dim)
        h = self.spacing
        # fractional index relative to cell centers
        f = (x - self.lo[None, :]) / h[None, :] - 0.5
        v = self.values[i]
        idx0 = np.floor(f).astype(int)
        w = f - idx0
        out = np.zeros(x.shape[0])
        for corner in range(2 ** self.dim):
            idx = idx0.copy()
            wt = np.ones(x.shape[0])
            for axis in range(self.dim):
                bit = (corner >> axis) & 1
                idx[:, axis] = np.clip(idx0[:, axis] + bit, 0,
                                       self.shape[axis] - 1)
                wt = wt * (w[:, axis] if bit else (1.0 - w[:, axis]))
            out += wt * v[tuple(idx[:, axis] for axis in range(self.dim))]
        return out

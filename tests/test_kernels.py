import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import kernels
from crossdiff.grids import GridField, pair_r2
from crossdiff.initial import InitialCondition, project_to_grid
from crossdiff.kernels import (EmpiricalMeasure, KernelSpec, convolve_empirical,
                               convolve_field, convolve_field_grid,
                               kernel_mass, mollifier, tabulated_from_csv)

PHI = 1.0 / math.sqrt(2.0 * math.pi)   # standard normal density at 0


def test_evaluate_gaussian_at_mode():
    k = KernelSpec("gaussian", 1, bandwidth=1.0)
    assert k.evaluate_batch([0.0])[0] == pytest.approx(0.398942, abs=1e-6)


def test_evaluate_constant():
    k = KernelSpec("constant", 2, amplitude=1.0)
    assert k.evaluate_batch([3.0, -7.0])[0] == 1.0


def test_evaluate_bump_outside_support():
    k = KernelSpec("compact-bump", 1, bandwidth=0.5)
    assert k.evaluate_batch([0.51])[0] == 0.0
    assert k.evaluate_batch([0.49])[0] > 0.0


def test_kernel_nonnegative_on_lattice():
    for fam in ("gaussian", "compact-bump", "constant"):
        k = KernelSpec(fam, 1, bandwidth=0.7, amplitude=1.3)
        x = np.linspace(-4, 4, 501)[:, None]
        vals = k.evaluate_batch(x)
        assert np.all(vals >= 0)
        assert np.max(vals) <= k.sup_bound + 1e-12


def test_convolve_empirical_constant_is_mass():
    k = KernelSpec("constant", 1, amplitude=1.0)
    nu = EmpiricalMeasure(np.linspace(0, 1, 7)[:, None], K=3)
    assert convolve_empirical(k, nu, [[0.4]])[0] == pytest.approx(7 / 3)


def test_convolve_empirical_single_atom():
    k = KernelSpec("gaussian", 1, bandwidth=1.0)
    nu = EmpiricalMeasure(np.array([[0.0]]), K=1)
    assert convolve_empirical(k, nu, [[0.0]])[0] == pytest.approx(0.398942,
                                                                  abs=1e-6)


def test_convolve_empirical_two_atoms():
    # (1/2) * (phi(1) + phi(-1)) = phi(1) ~ 0.241971
    k = KernelSpec("gaussian", 1, bandwidth=1.0)
    nu = EmpiricalMeasure(np.array([[-1.0], [1.0]]), K=2)
    assert convolve_empirical(k, nu, [[0.0]])[0] == pytest.approx(0.241971,
                                                                  abs=1e-6)


def test_convolve_empirical_empty():
    k = KernelSpec("gaussian", 1, bandwidth=1.0)
    nu = EmpiricalMeasure(np.zeros((0, 1)), K=5)
    assert convolve_empirical(k, nu, [[0.0]])[0] == 0.0


def test_convolve_empirical_linear_in_measure():
    k = KernelSpec("gaussian", 1, bandwidth=0.5)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(6, 1)), rng.normal(size=(9, 1))
    x = rng.normal(size=(4, 1))
    merged = convolve_empirical(k, EmpiricalMeasure(np.vstack([a, b]), 2), x)
    parts = (convolve_empirical(k, EmpiricalMeasure(a, 2), x)
             + convolve_empirical(k, EmpiricalMeasure(b, 2), x))
    np.testing.assert_allclose(merged, parts, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("eps", [0.5, 0.1])
@pytest.mark.parametrize("chunk", [2 ** 22, 2 ** 12])
def test_gridded_sum_matches_direct_oracle(dim, eps, chunk):
    # normal atoms, K != N, queries off the atoms, one 20 eps beyond their
    # hull; the gridded route is forced whatever its cost
    rng = np.random.default_rng(0)
    atoms = rng.normal(size=(400, dim))
    q = rng.uniform(-2.5, 2.5, size=(300, dim))
    q[0] = atoms.max(axis=0)
    q[0, 0] += 20.0 * eps
    k = KernelSpec("gaussian", dim, bandwidth=eps, amplitude=1.7)
    grid = kernels._gridding_grid(k, atoms, q)
    got = kernels._gridded_sum(k, atoms, q, 250, chunk, *grid)
    ref = kernels._direct_sum(k, atoms, q, 250, 2 ** 22)
    assert 0.0 < ref[0] < 1e-80            # the far query: tiny, not zero
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def _count_factor_points(monkeypatch):
    """Wrap the gridding factor builder; the list collects its point counts."""
    counts, build = [], kernels._gridding_factors

    def counted(pts, axes, eps):
        counts.append(pts.shape[0])
        return build(pts, axes, eps)
    monkeypatch.setattr(kernels, "_gridding_factors", counted)
    return counts


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("chunk", [2 ** 22, 2 ** 12])
def test_self_interaction_reuse_bit_identical_to_two_passes(dim, chunk):
    # queries that are the atoms array reuse the spread's factors; an equal
    # copy takes the two-pass route.  2 ** 12 splits the atoms into blocks,
    # where the factors are rebuilt for the gather
    rng = np.random.default_rng(20 + dim)
    atoms = rng.normal(size=(400, dim))
    k = KernelSpec("gaussian", dim, bandwidth=0.5, amplitude=1.3)
    grid = kernels._gridding_grid(k, atoms, atoms)
    width = int(grid[1].sum()) + 1
    assert (atoms.shape[0] * width <= chunk) == (chunk == 2 ** 22)
    got = kernels._gridded_sum(k, atoms, atoms, 333, chunk, *grid)
    ref = kernels._gridded_sum(k, atoms, atoms.copy(), 333, chunk, *grid)
    assert np.array_equal(got, ref)
    np.testing.assert_allclose(
        got, kernels._direct_sum(k, atoms, atoms, 333, 2 ** 22),
        rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim,n", [(1, 3000), (2, 3000)])
def test_self_interaction_builds_factors_once(monkeypatch, dim, n):
    # the public call at its own atoms hands N points to the factor
    # builder, an equal copy 2N, and so does a chunk too small for reuse
    rng = np.random.default_rng(30 + dim)
    nu = EmpiricalMeasure(rng.normal(size=(n, dim)), K=n)
    k = KernelSpec("gaussian", dim, bandwidth=0.5)
    counts = _count_factor_points(monkeypatch)
    own = convolve_empirical(k, nu, nu.atoms)
    assert sum(counts) == n
    counts.clear()
    assert np.array_equal(convolve_empirical(k, nu, nu.atoms.copy()), own)
    assert sum(counts) == 2 * n
    counts.clear()
    grid = kernels._gridding_grid(k, nu.atoms, nu.atoms)
    kernels._gridded_sum(k, nu.atoms, nu.atoms, n, 2 ** 12, *grid)
    assert sum(counts) == 2 * n and len(counts) > 2


def test_gridding_factors_equal_the_expression():
    # the in-place factor builder does the operations of the one-line form
    rng = np.random.default_rng(40)
    pts = rng.normal(size=(50, 2))
    axes = [np.linspace(-3.0, 3.0, 17), np.linspace(-2.0, 2.5, 11)]
    got = kernels._gridding_factors(pts, axes, 0.37)
    for a, y in enumerate(axes):
        assert np.array_equal(
            got[a], np.exp(-np.square((pts[:, a, None] - y) / 0.37)))
    one = kernels._gridding_factors(pts[:, :1], axes[:1], 0.37)
    assert np.array_equal(one[1], np.ones((50, 1)))


@pytest.mark.parametrize("dim,n,half", [(1, 2000, 3.0), (2, 5000, 0.25)])
def test_convolve_empirical_takes_gridded_route(dim, n, half):
    # grid nodes x (N + Q) below N x Q: the public call is the gridded sum
    rng = np.random.default_rng(dim)
    atoms = rng.uniform(-half, half, size=(n, dim))
    q = rng.uniform(-half, half, size=(n, dim))
    k = KernelSpec("gaussian", dim, bandwidth=0.5)
    grid = kernels._gridding_grid(k, atoms, q)
    assert np.prod(grid[1]) * 2 * n < n * n
    got = convolve_empirical(k, EmpiricalMeasure(atoms, K=3 * n), q)
    assert np.array_equal(
        got, kernels._gridded_sum(k, atoms, q, 3 * n, 2 ** 22, *grid))
    if dim == 1:
        np.testing.assert_allclose(
            got, kernels._direct_sum(k, atoms, q, 3 * n, 2 ** 22),
            rtol=1e-12, atol=0)


def test_convolve_empirical_2d_cost_rule_takes_gridded_route():
    # N = Q = 3,000, eps = 0.5, atoms N(0, I): grid nodes x (N + Q) exceeds
    # N x Q, but a 2-d direct-sum pair costs far more than a node x point
    # product, and the weighted rule picks the gridded sum
    rng = np.random.default_rng(10)
    n = 3000
    atoms, q = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    k = KernelSpec("gaussian", 2, bandwidth=0.5)
    grid = kernels._gridding_grid(k, atoms, q)
    assert n * n < np.prod(grid[1]) * 2 * n < \
        kernels.GRIDDING_PAIR_COST * n * n
    got = convolve_empirical(k, EmpiricalMeasure(atoms, K=n), q)
    assert np.array_equal(
        got, kernels._gridded_sum(k, atoms, q, n, 2 ** 22, *grid))
    np.testing.assert_allclose(
        got, kernels._direct_sum(k, atoms, q, n, 2 ** 22), rtol=1e-12,
        atol=0)


@pytest.mark.parametrize("chunk,rows", [(3, 1), (10, 2)])
def test_pair_r2_blocks_cover_every_row_once(chunk, rows):
    # a chunk smaller than one row of 5 atoms gives one-row blocks
    rng = np.random.default_rng(3)
    xq, atoms = rng.normal(size=(7, 2)), rng.normal(size=(5, 2))
    blocks = list(pair_r2(xq, atoms, chunk))
    assert [(start, stop) for start, stop, _ in blocks] == \
        [(s, min(s + rows, 7)) for s in range(0, 7, rows)]
    full = [[float(np.sum((q - a) ** 2)) for a in atoms] for q in xq]
    np.testing.assert_allclose(np.vstack([r2 for *_, r2 in blocks]), full,
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("case", ["compact-bump", "tabulated", "one-atom",
                                  "one-query"])
def test_convolve_empirical_direct_route_bit_identical(case):
    rng = np.random.default_rng(5)
    atoms = rng.normal(size=(1 if case == "one-atom" else 2000, 1))
    q = rng.normal(size=(2000, 1))
    if case == "compact-bump":
        k = KernelSpec("compact-bump", 1, bandwidth=0.5)
    elif case == "tabulated":
        k = KernelSpec("tabulated", 1, table=(np.linspace(0.0, 1.5, 16),
                                              np.linspace(1.0, 0.0, 16)))
    else:
        k = KernelSpec("gaussian", 1, bandwidth=0.5)
    nu = EmpiricalMeasure(atoms, K=700)
    ref = kernels._direct_sum(k, atoms, q, 700, 2 ** 22)
    if case == "one-query":
        assert np.array_equal(convolve_empirical(k, nu, q[:1]), ref[:1])
    else:
        assert np.array_equal(convolve_empirical(k, nu, q), ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_point_convolutions_reject_a_flat_query(dim):
    # a flat array is not read as one point: in 1-d five points would be
    # one point in R^5, in 2-d a single d-vector would return a scalar
    k = KernelSpec("gaussian", dim, bandwidth=0.5)
    nu = EmpiricalMeasure(np.zeros((3, dim)), K=3)
    u = GridField(-np.ones(dim), np.ones(dim), np.ones((1,) + (8,) * dim))
    flat = np.linspace(-0.5, 0.5, 5) if dim == 1 else np.array([0.1, 0.2])
    for bad in (flat, flat[None, :, None], np.zeros((4, dim + 1))):
        with pytest.raises(ValueError, match="array of query points"):
            convolve_empirical(k, nu, bad)
        with pytest.raises(ValueError, match="array of query points"):
            convolve_field(k, u, 0, bad)
    assert convolve_empirical(k, nu, flat.reshape(-1, dim)).shape == \
        (flat.size // dim,)
    assert convolve_field(k, u, 0, flat.reshape(-1, dim)).shape == \
        (flat.size // dim,)


def _field(mass=2.0, std=1.0, cells=256, half=8.0):
    return project_to_grid([InitialCondition(mass, "gaussian", std=std)],
                           [-half], [half], [cells])


def test_convolve_field_constant_gives_mass():
    u = _field(mass=2.0)
    k = KernelSpec("constant", 1, amplitude=1.0)
    assert convolve_field(k, u, 0, [[0.3]])[0] == pytest.approx(2.0, rel=1e-9)


def test_convolve_field_zero_field():
    u = _field(mass=2.0)
    u.values[:] = 0.0
    k = KernelSpec("gaussian", 1, bandwidth=0.3)
    assert convolve_field(k, u, 0, [[0.0]])[0] == 0.0


def test_convolve_field_gaussian_oracle():
    # N(0,1) * N(0, eps^2) = N(0, 1 + eps^2); evaluated at 0
    eps = 0.1
    u = _field(mass=1.0, std=1.0)
    k = KernelSpec("gaussian", 1, bandwidth=eps)
    expect = 1.0 / math.sqrt(2 * math.pi * (1 + eps ** 2))
    got = convolve_field(k, u, 0, [[0.0]])[0]
    assert got == pytest.approx(expect, rel=1e-4)


def _direct_grid(k, u, j):
    """The O(n^2) oracle of convolve_field_grid: convolve_field at the cell
    centres."""
    return convolve_field(k, u, j, u.centers()).reshape(u.shape)


def test_convolve_field_grid_matches_direct():
    rng = np.random.default_rng(3)
    u = GridField(np.array([-2.0]), np.array([2.0]),
                  rng.random((1, 64)), 0.0)
    k = KernelSpec("gaussian", 1, bandwidth=0.4)
    fast = convolve_field_grid([k], u, [0])[0]
    direct = _direct_grid(k, u, 0)
    np.testing.assert_allclose(fast, direct, rtol=1e-8, atol=1e-12)


def test_convolve_field_grid_matches_direct_2d():
    rng = np.random.default_rng(4)
    u = GridField(np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                  rng.random((1, 24, 24)), 0.0)
    k = KernelSpec("gaussian", 2, bandwidth=0.3)
    np.testing.assert_allclose(convolve_field_grid([k], u, [0])[0],
                               _direct_grid(k, u, 0),
                               rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("shape", [(64,), (128,), (12, 12), (64, 64)])
def test_convolve_field_grid_bit_equal_to_fftconvolve(shape):
    from scipy import signal
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    d = len(shape)
    u = GridField(-np.ones(d), np.ones(d), rng.random((1, *shape)), 0.0)
    k = KernelSpec("gaussian", d, bandwidth=0.3)
    offs = [np.arange(-(n - 1), n) * h for n, h in zip(shape, u.spacing)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*offs, indexing="ij")],
                   axis=-1)
    kk = k.evaluate_batch(pts).reshape([2 * n - 1 for n in shape])
    ref = signal.fftconvolve(u.values[0], kk, mode="same") * u.cell_volume
    assert np.array_equal(convolve_field_grid([k], u, [0])[0],
                          np.maximum(ref, 0.0))


def test_fast_len_equals_scipy_next_fast_len():
    from scipy import fft
    for n in range(1, 20_001):
        assert kernels._fast_len(n) == fft.next_fast_len(n, real=True), n


@pytest.mark.parametrize("shape", [(128,), (12, 12), (36, 36)])
def test_grid_convolution_bit_equal_to_scipy_fft(shape):
    # M = 2 species, P = 4 kernels: the numpy route of the batch plan
    # against the same plan run through scipy.fft
    from scipy import fft
    rng = np.random.default_rng(sum(shape))
    d = len(shape)
    u = GridField(-np.ones(d), np.ones(d), rng.random((2, *shape)), 0.0)
    g, b, t, _ = _mixed_kernels(d)
    ks, js = (g, b, t, KernelSpec("gaussian", d, bandwidth=0.15)), (1, 0, 0, 1)
    fshape = tuple(fft.next_fast_len(3 * n - 2, real=True) for n in shape)
    offs = [np.arange(-(n - 1), n) * h for n, h in zip(shape, u.spacing)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*offs, indexing="ij")],
                   axis=-1)
    spectra = np.array([fft.rfftn(k.evaluate_batch(pts).reshape(
        [2 * n - 1 for n in shape]), fshape) for k in ks])
    axes = range(1, d + 1)
    conv = fft.irfftn(fft.rfftn(u.values, fshape, axes=axes)[list(js)]
                      * spectra, fshape, axes=axes)
    crop = (...,) + tuple(slice(n - 1, 2 * n - 1) for n in shape)
    ref = np.maximum(conv[crop] * u.cell_volume, 0.0)
    assert np.array_equal(convolve_field_grid(ks, u, js), ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_bump_norm_matches_adaptive_quadrature(dim):
    from scipy import integrate
    prof = lambda r: math.exp(-1.0 / (1.0 - r * r)) if r < 1.0 else 0.0
    if dim == 1:
        ref, _ = integrate.quad(prof, -1.0, 1.0)
    else:
        ref, _ = integrate.quad(lambda r: 2.0 * math.pi * r * prof(r),
                                0.0, 1.0)
    assert kernels._bump_norm(dim) == pytest.approx(ref, rel=1e-14, abs=0)


def test_spectrum_cache_bit_equal_to_fresh():
    # one kernel object on two grids: the cached spectra of one grid never
    # serve the other, and every result equals a cold-cache computation
    rng = np.random.default_rng(6)
    k = KernelSpec("gaussian", 1, bandwidth=0.3)
    fields = {n: GridField([-2.0], [2.0], rng.random((1, n)), 0.0)
              for n in (64, 128)}
    warm = {n: [convolve_field_grid([k], u, [0])[0] for _ in range(2)]
            for n, u in fields.items()}
    for n, u in fields.items():
        kernels._batch_plan.cache_clear()
        fresh = convolve_field_grid([k], u, [0])[0]
        assert fresh.shape == (n,)
        for got in warm[n]:
            assert np.array_equal(got, fresh)


def test_spectrum_cache_thread_safe():
    rng = np.random.default_rng(7)
    u = GridField([-1.0, -1.0], [1.0, 1.0], rng.random((1, 48, 48)), 0.0)
    k = KernelSpec("gaussian", 2, bandwidth=0.2)
    kernels._batch_plan.cache_clear()
    start = threading.Barrier(2)

    def run(_):
        start.wait()            # both threads miss the cold cache together
        return convolve_field_grid([k], u, [0])[0]
    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(run, range(2))
    assert np.array_equal(a, b)
    assert np.array_equal(a, convolve_field_grid([k], u, [0])[0])


def test_batch_plan_cache_keys_never_share_entries():
    # another kernel order, species list or grid is a new plan; every warm
    # result equals a cold-cache computation bit for bit
    rng = np.random.default_rng(10)
    g = KernelSpec("gaussian", 1, bandwidth=0.3)
    b = KernelSpec("compact-bump", 1, bandwidth=0.4)
    c = KernelSpec("constant", 1, amplitude=0.7)
    u = GridField([-2.0], [2.0], rng.random((2, 64)), 0.0)
    calls = [((g, b, c), (0, 1, 0), u),
             ((c, b, g), (0, 1, 0), u),        # kernels reordered
             ((g, b, c), (1, 0, 1), u),        # other species
             ((g, b, c), (0, 1, 0),            # other shape
              GridField([-2.0], [2.0], rng.random((2, 48)), 0.0)),
             ((g, b, c), (0, 1, 0),            # other spacing
              GridField([-3.0], [3.0], u.values, 0.0))]
    kernels._batch_plan.cache_clear()
    warm = []
    for n, (ks, js, v) in enumerate(calls):
        warm.append(convolve_field_grid(ks, v, js))
        info = kernels._batch_plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (n + 1, 0, n + 1)
    # a shifted box with the same shape and spacing shares the plan
    shifted = GridField([-1.0], [3.0], u.values, 0.0)
    assert np.array_equal(convolve_field_grid(calls[0][0], shifted, (0, 1, 0)),
                          warm[0])
    assert kernels._batch_plan.cache_info().hits == 1
    for (ks, js, v), got in zip(calls, warm):
        kernels._batch_plan.cache_clear()
        assert np.array_equal(got, convolve_field_grid(ks, v, js))
        for p, (k, j) in enumerate(zip(ks, js)):
            assert np.array_equal(got[p], convolve_field_grid([k], v, [j])[0])
    assert np.array_equal(warm[1], warm[0][::-1])


def _mixed_kernels(d):
    r = np.linspace(0.0, 0.6, 13)
    return (KernelSpec("gaussian", d, bandwidth=0.3, amplitude=1.3),
            KernelSpec("compact-bump", d, bandwidth=0.4),
            KernelSpec("tabulated", d, table=(r, 1.0 - r / 0.6)),
            KernelSpec("constant", d, amplitude=0.7))


@pytest.mark.parametrize("reference", ["fft", "direct"])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("shape", [(64,), (20, 24)])
def test_batched_grid_convolution_equals_pairwise(shape, shifted, reference):
    # M = 3 species, every kernel family in one call, species repeated and
    # out of order, kernel objects used more than once; the reference is
    # pair-by-pair calls (bit for bit) or the direct oracle (to 1e-8).  A
    # shifted box moves its corner off the round numbers by 0.3 cells, as
    # the frozen flow's table lattices are
    rng = np.random.default_rng(8)
    d = len(shape)
    shift = 0.3 * 2.0 / np.array(shape) * (-1.0) ** np.arange(d) * shifted
    u = GridField(shift - 1.0, shift + 1.0, rng.random((3, *shape)), 0.0)
    g, b, t, c = _mixed_kernels(d)
    ks = [g, b, t, c, g, c, t, b, g]
    js = [0, 2, 1, 1, 2, 0, 0, 0, 0]
    got = convolve_field_grid(ks, u, js)
    assert got.shape == (len(ks),) + shape
    for p, (k, j) in enumerate(zip(ks, js)):
        if reference == "fft":
            assert np.array_equal(got[p],
                                  convolve_field_grid([k], u, [j])[0]), p
        else:
            np.testing.assert_allclose(got[p], _direct_grid(k, u, j),
                                       rtol=1e-8, atol=1e-12)
    # constant kernels give amplitude x mass
    assert np.all(got[3] == 0.7 * u.mass(1))


def test_batched_grid_convolution_fft_matches_direct():
    rng = np.random.default_rng(9)
    u = GridField([-1.0, -1.0], [1.0, 1.0], rng.random((2, 24, 24)), 0.0)
    ks, js = _mixed_kernels(2), [1, 0, 1, 0]
    np.testing.assert_allclose(convolve_field_grid(ks, u, js),
                               [_direct_grid(k, u, j) for k, j in zip(ks, js)],
                               rtol=1e-8, atol=1e-12)


def test_batched_grid_convolution_rejects_bad_input():
    u = GridField([-1.0], [1.0], np.ones((2, 16)), 0.0)
    g = KernelSpec("gaussian", 1, bandwidth=0.3)
    with pytest.raises(ValueError):
        convolve_field_grid([g, g], u, [0])
    with pytest.raises(ValueError):
        convolve_field_grid([g, KernelSpec("gaussian", 2)], u, [0, 1])
    with pytest.raises(TypeError):      # sequences only, no single pair
        convolve_field_grid(g, u, 0)


def test_mollifier_identity_at_eps_one():
    g = KernelSpec("gaussian", 1, bandwidth=1.0)
    m = mollifier(g, 1.0)
    x = np.linspace(-3, 3, 11)[:, None]
    np.testing.assert_allclose(m.evaluate_batch(x), g.evaluate_batch(x),
                               rtol=1e-12)


def test_mollifier_scaling_at_origin():
    # gamma_eps(0) = gamma(0) / eps
    g = KernelSpec("gaussian", 1, bandwidth=1.0)
    assert mollifier(g, 0.5).evaluate_batch([0.0])[0] == pytest.approx(
        2 * PHI, rel=1e-9)


def test_mollifier_first_moment_scales():
    # the first absolute moment of gamma_eps is eps times that of gamma
    g = KernelSpec("gaussian", 1, bandwidth=1.0)
    x = np.linspace(-6.0, 6.0, 4001)

    def first_abs_moment(k):
        return np.trapezoid(np.abs(x) * k.evaluate_batch(x[:, None]), x)
    for eps in (0.5, 0.25):
        assert first_abs_moment(mollifier(g, eps)) == pytest.approx(
            eps * first_abs_moment(g), rel=0.01)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_mollifier_mass_invariance(eps):
    g = KernelSpec("gaussian", 1, bandwidth=1.0)
    assert kernel_mass(mollifier(g, eps)) == pytest.approx(1.0, abs=1e-6)


def test_mollifier_rejects_bad_input():
    g = KernelSpec("gaussian", 1, bandwidth=1.0)
    with pytest.raises(ValueError):
        mollifier(g, 0.0)
    with pytest.raises(ValueError):
        mollifier(KernelSpec("gaussian", 1, bandwidth=1.0, amplitude=2.0), 0.5)


def test_tabulated_from_csv(tmp_path):
    r = np.linspace(0.0, 1.0, 21)
    vals = np.maximum(0.0, 1.0 - r)
    path = tmp_path / "tab.csv"
    np.savetxt(path, np.column_stack([r, vals]), delimiter=",")
    k = tabulated_from_csv(str(path), 1)
    assert k.evaluate_batch([0.0])[0] == pytest.approx(1.0)
    assert k.evaluate_batch([0.5])[0] == pytest.approx(0.5, abs=1e-9)
    assert k.evaluate_batch([2.0])[0] == 0.0        # clamped outside the table


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_kernel_symmetry_and_nonnegativity(eps, x, y):
    k = KernelSpec("gaussian", 1, bandwidth=eps)
    vx = k.evaluate_batch([x - y])[0]
    vy = k.evaluate_batch([y - x])[0]
    assert vx == pytest.approx(vy, rel=1e-12)
    assert vx >= 0.0

"""The four canonical studies: large-K limit, Dirac-competition rate,
flow/Feynman-Kac consistency and uniqueness perturbation.

Each study writes deterministic CSV tables plus a JSON manifest and caches
finished sub-runs under out/cache keyed by a content hash, so interrupted
sweeps resume without recomputing (--resume).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import ibm, io, pde
from .config import (ConfigError, _number, build_initial, build_model,
                     grid_box, mollified_C, sim_params, solver_params)
from .flow import FrozenCoefficients, density_estimate, feynman_kac_functional
from .grids import GridField
from .initial import project_to_grid
from .metrics import bl_distance_fields, rate_fit


@dataclass
class StudyReport:
    name: str
    passed: bool
    summary: dict
    files: list = field(default_factory=list)

    def __str__(self):
        lines = [f"study {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for k, v in self.summary.items():
            lines.append(f"  {k}: {v}")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# sub-run cache

def _cache_key(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_path(out_dir: str, key: str) -> str:
    return os.path.join(out_dir, "cache", key + ".json")


def _cache_load(out_dir: str, key: str, resume: bool):
    path = _cache_path(out_dir, key)
    if resume and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return None


def _cache_store(out_dir: str, key: str, obj):
    io.write_text(_cache_path(out_dir, key), json.dumps(obj, sort_keys=True))


def _map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], on a thread pool when workers > 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _sub_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _health(sol) -> list:
    """[boundary mass fraction, clamped mass] of a PDE solution."""
    return [sol.max_boundary_fraction, sol.clamp_mass]


def _health_summary(healths) -> dict:
    """Summary keys over the _health of a study's PDE solves: the largest
    boundary mass fraction and the total clamped mass.  No verdict reads
    them."""
    fractions, clamps = zip(*healths)
    return {"pde_max_boundary_fraction": max(fractions),
            "pde_clamp_mass": sum(clamps)}


# ---------------------------------------------------------------------
# large-K limit

def _binned(state, like: GridField):
    """Each species' particles in the cells of `like` as the density
    count / (K h^d), particles outside the box in the edge cells, and
    q = sum_i |x_i - c(x_i)| / K with c(x) the centre of x's cell; as
    Lip(phi) <= 1, |BL(mu_K, u) - BL(binned, u)| <= q."""
    h, counts, q = like.spacing, np.zeros(like.values.shape), 0.0
    for i, x in enumerate(s.positions for s in state.species):
        # clipped before the cast, so a far-out particle cannot overflow
        idx = np.clip(np.floor((x - like.lo) / h), 0,
                      np.array(like.shape) - 1).astype(int)
        q += np.linalg.norm(x - like.lo - (idx + 0.5) * h,
                            axis=1).sum() / state.K
        np.add.at(counts[i], tuple(idx.T), 1.0)
    dens = counts / (state.K * like.cell_volume)
    return GridField(like.lo, like.hi, dens, like.time), float(q)


def study_large_k(cfg: dict, out_dir: str, seed: int, workers: int = 1,
                  resume: bool = False) -> StudyReport:
    """IBM vs PDE distance BL(P_h mu_K, u_h) across the configured K list."""
    icfg = cfg.get("ibm") or {}
    K_list = [int(k) for k in icfg.get("K") or []]
    if not K_list:
        raise ValueError("ibm.K list must be nonempty for study-large-k")
    replicas = int(icfg.get("replicas", 10))
    model = build_model(cfg)
    init = build_initial(cfg)

    snap_times = tuple(sorted(set(icfg.get("snapshot_times")
                                  or [sim_params(cfg, 1, seed).t_end])))
    sp = solver_params(cfg)
    try:    # replace() re-runs the range check of SolverParams
        sp = replace(sp, snapshot_times=snap_times)
    except ValueError as e:
        raise ConfigError(f"ibm.snapshot_times (default [ibm.t_end]) must "
                          f"lie in [0, pde.t_end = {sp.t_end:g}], got "
                          f"{list(snap_times)}") from e
    sol = pde.solve(model, project_to_grid(init, *grid_box(cfg)), sp)
    h = _cache_key(cfg)

    def one(job):
        K, rep = job
        # tagged with the observable, so entries cached before binning miss
        key = _cache_key("large-k", "binned-bl", h, seed, K, rep)
        hit = _cache_load(out_dir, key, resume)
        if hit is not None:
            return hit
        run_seed = _sub_seed(seed, K_list.index(K), rep)
        params = replace(sim_params(cfg, K, run_seed),
                         snapshot_times=sp.snapshot_times)
        traj = ibm.simulate(model, init, params)
        dists = []    # [distance, q] by snapshot time
        for t, state in traj.snapshots:
            u = sol.at_time(t)
            binned, q = _binned(state, u)
            dists.append([bl_distance_fields(binned, u).value, q])
        _cache_store(out_dir, key, dists)
        return dists

    jobs = [(K, rep) for K in K_list for rep in range(replicas)]
    res = np.array(_map(one, jobs, workers)).reshape(
        len(K_list), replicas, len(sp.snapshot_times), 2)    # (BL, q)
    mean = res.mean(axis=1)
    band95 = (1.96 * res[..., 0].std(axis=1, ddof=1) / math.sqrt(replicas)
              if replicas > 1 else np.zeros(mean.shape[:2]))
    rows = [(K, float(t), float(mean[k, n, 0]), float(band95[k, n]),
             float(mean[k, n, 1]))
            for n, t in enumerate(sp.snapshot_times)
            for k, K in enumerate(K_list)]
    final = mean[:, -1]    # (BL, q) at the last snapshot time, by K
    if len(K_list) >= 3:
        fit = rate_fit(list(zip(K_list, final[:, 0])), seed=seed)
        slope, band = fit.slope, fit.band
    else:    # slope is informational only; skip the fit on short sweeps
        slope, band = math.nan, (math.nan, math.nan)
    monotone = bool(np.all(np.diff(final[:, 0]) < 0))

    csv_path = os.path.join(out_dir, "large_k.csv")
    io.write_rows_csv(csv_path, ["K", "t", "mean_bl_distance", "band95",
                                 "quantization"], rows)
    return StudyReport(
        "large-k", monotone,
        {"slope": round(slope, 4),
         "slope_band": [round(v, 4) for v in band],
         "monotone_decreasing": monotone,
         "final_distances": {str(K): round(float(v), 6)
                             for K, v in zip(K_list, final[:, 0])},
         "final_quantization": {str(K): round(float(v), 6)
                                for K, v in zip(K_list, final[:, 1])},
         **_health_summary([_health(sol)])},
        [csv_path])


# ---------------------------------------------------------------------
# Dirac-competition rate

def study_dirac(cfg: dict, out_dir: str, seed: int, workers: int = 1,
                resume: bool = False) -> StudyReport:
    """Mollified vs local competition: sup-time BL distance per epsilon.

    The epsilon list parametrizes a centered Gaussian competition kernel of
    variance epsilon (bandwidth sqrt(epsilon)); distances then scale
    linearly in epsilon for symmetric kernels.
    """
    pcfg = cfg.get("pde") or {}
    eps_list = [float(e) for e in pcfg.get("eps") or []]
    if not eps_list:
        raise ValueError("pde.eps list must be nonempty for study-dirac")
    u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
    h = _cache_key(cfg)
    # [sup distance, health of its kernel-mode and local-mode solves] per
    # epsilon, tagged, so entries cached without the health miss
    keys = [_cache_key("dirac", "health", h, eps) for eps in eps_list]
    hits = [_cache_load(out_dir, key, resume) for key in keys]
    todo = [n for n, hit in enumerate(hits) if hit is None]
    if todo:    # only a fresh sub-run reads the local-mode solution
        sol_loc = pde.solve(build_model(cfg), u0,
                            solver_params(cfg, mode="local"))

    def one(n):
        C = mollified_C(cfg, math.sqrt(eps_list[n]))
        model = build_model(cfg, C_kernels=C)
        sol = pde.solve(model, u0, solver_params(cfg, mode="kernel"))
        sup = 0.0
        for snap_loc, snap in zip(sol_loc.snapshots, sol.snapshots):
            sup = max(sup, bl_distance_fields(snap, snap_loc).value)
        hit = [sup, _health(sol), _health(sol_loc)]
        _cache_store(out_dir, keys[n], hit)
        return hit

    for n, hit in zip(todo, _map(one, todo, workers)):
        hits[n] = hit
    sups = [hit[0] for hit in hits]

    fit = rate_fit(list(zip(eps_list, sups)), seed=seed)
    ok = abs(fit.slope - 1.0) <= 0.3
    csv_path = os.path.join(out_dir, "dirac.csv")
    io.write_rows_csv(csv_path, ["eps", "sup_bl_distance"],
                      list(zip(eps_list, sups)))
    return StudyReport(
        "dirac", ok,
        {"slope": round(fit.slope, 4),
         "slope_band": [round(v, 4) for v in fit.band],
         "distances": {f"{e:g}": round(s, 6)
                       for e, s in zip(eps_list, sups)},
         **_health_summary([hit[1] for hit in hits] + [hits[0][2]])},
        [csv_path])


# ---------------------------------------------------------------------
# flow / Feynman-Kac consistency

def frozen_flow(cfg: dict, model, u0):
    """PDE solve behind the frozen flow of the `flow` and `study-flow` verbs.

    The horizon flow.t lands on the PDE step grid, and snapshots are taken
    every 10 flow steps flow.dt.  Returns (t, dt, solution, coefficients).
    """
    fcfg = cfg.get("flow") or {}
    sp = solver_params(cfg)
    t_cfg = _number(fcfg, "t", sp.t_end, "flow")
    dt = _number(fcfg, "dt", 1e-3, "flow")
    if not dt > 0.0:
        raise ConfigError(f"flow.dt must be positive, got {dt:g}")
    t = round(t_cfg / sp.dt) * sp.dt
    n_snap = max(2, int(math.ceil(t / (10.0 * dt))) + 1)
    extra = np.round(np.linspace(0.0, t, n_snap) / sp.dt) * sp.dt
    try:    # replace() re-runs the range check of SolverParams
        sp = replace(sp, t_end=t, snapshot_times=tuple(
            sorted(set([float(v) for v in extra] + [t]))))
    except ValueError as e:
        raise ConfigError(f"flow.t must round to a positive multiple of "
                          f"pde.dt = {sp.dt:g}, got {t_cfg:g}") from e
    sol = pde.solve(model, u0, sp)
    return t, dt, sol, FrozenCoefficients.from_pde(model, sol)


def flow_probes(cfg: dict, u0, quantiles) -> np.ndarray:
    """flow.probes as (n, d) points; by default the given quantiles of the
    cell centres of axis 0, which are points only in 1-d."""
    probes = (cfg.get("flow") or {}).get("probes")
    if probes is None:
        if u0.dim != 1:
            raise ConfigError(f"flow.probes must be set when model.dim is "
                              f"{u0.dim}; the default probes are 1-d")
        probes = np.quantile(u0.axis_centers(0), quantiles)[:, None]
    return np.atleast_2d(np.asarray(probes, dtype=float)).reshape(-1, u0.dim)


def flow_species(fcfg: dict, M: int) -> int:
    """flow.species of the flow section fcfg, an integer in [0, M)."""
    i = fcfg.get("species", 0)
    if type(i) is not int or not 0 <= i < M:
        raise ConfigError(f"flow.species must be an integer in [0, {M}), "
                          f"got {i!r}")
    return i


def study_flow(cfg: dict, out_dir: str, seed: int, workers: int = 1,
               resume: bool = False) -> StudyReport:
    """Density and functional estimates from the flow against the PDE."""
    fcfg = cfg.get("flow") or {}
    model = build_model(cfg)
    init = build_initial(cfg)
    u0 = project_to_grid(init, *grid_box(cfg))
    n_paths = _number(fcfg, "n_paths", 200, "flow", int)
    if n_paths < 2:
        # the verdict compares against sample standard errors
        raise ConfigError(f"flow.n_paths must be at least 2, got {n_paths}")
    i = flow_species(fcfg, model.M)
    y = flow_probes(cfg, u0, [0.3, 0.4, 0.5, 0.6, 0.7])
    t, dt, sol, coeffs = frozen_flow(cfg, model, u0)
    u_t = sol.at_time(t)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                       spawn_key=(41,)))
    vals, errs = density_estimate(coeffs, model, i, y, t, n_paths, dt, rng,
                                  density0=lambda X: sum(
                                      s.mass * s.density(X) for s in [init[i]]))
    pde_vals = u_t.interpolate(i, y)
    h_grid = float(np.max(u_t.spacing))
    budget = (float(np.max(np.abs(pde_vals))) * (h_grid ** 2 + sol.params.dt)
              + h_grid ** 2 + dt)
    ok_pts = np.abs(vals - pde_vals) <= 3.0 * errs + budget

    fk = feynman_kac_functional(coeffs, model, lambda X: np.ones(X.shape[0]),
                                i, t, n_paths, dt, rng)
    mass_pde = float(u_t.mass(i))
    fk_ok = abs(fk.value - mass_pde) <= 3.0 * fk.stderr + budget

    rows = [(float(yv[0]) if model.d == 1 else str(yv.tolist()),
             float(v), float(e), float(p), bool(o))
            for yv, v, e, p, o in zip(y, vals, errs, pde_vals, ok_pts)]
    csv_path = os.path.join(out_dir, "flow_density.csv")
    io.write_rows_csv(csv_path,
                      ["y", "estimate", "stderr", "pde_value", "ok"], rows)
    passed = bool(np.all(ok_pts)) and fk_ok
    return StudyReport(
        "flow", passed,
        {"density_points_ok": int(np.sum(ok_pts)), "n_points": len(ok_pts),
         "fk_mass": round(fk.value, 6), "fk_stderr": round(fk.stderr, 6),
         "pde_mass": round(mass_pde, 6), "budget": round(budget, 6),
         **_health_summary([_health(sol)])},
        [csv_path])


# ---------------------------------------------------------------------
# uniqueness perturbation

def study_uniqueness(cfg: dict, out_dir: str, seed: int, workers: int = 1,
                     resume: bool = False) -> StudyReport:
    """Gronwall-type stability of the PDE under initial perturbations."""
    ucfg = cfg.get("uniqueness") or {}
    deltas = [float(d) for d in ucfg.get("deltas", (0.2, 0.1, 0.05))]
    axis = int(ucfg.get("shift_axis", 0))
    model = build_model(cfg)
    init = build_initial(cfg)
    box = grid_box(cfg)
    sp = solver_params(cfg)
    u0 = project_to_grid(init, *box)
    sol0 = pde.solve(model, u0, sp)

    # the same data through a field dump's bit-exact read-back: distances
    # must vanish to solver tolerance
    dump_path = os.path.join(out_dir, "u0.bin")
    io.write_field_dump(dump_path, u0)
    sol_same = pde.solve(model, io.read_field_dump(dump_path), sp)
    healths = [_health(sol0), _health(sol_same)]
    certs = []    # every BL certificate, for the gap and rounds summary

    def dist(a, b):
        res = bl_distance_fields(a, b)
        certs.append(res.certificate)
        return res.value
    d_same = max(dist(a, b)
                 for a, b in zip(sol0.snapshots, sol_same.snapshots))

    rows, ratios = [], []
    for delta in deltas:
        shift = np.zeros(model.d)
        shift[axis] = delta
        u0p = project_to_grid([s.shifted(shift) for s in init], *box)
        solp = pde.solve(model, u0p, sp)
        healths.append(_health(solp))
        d0 = dist(sol0.snapshots[0], solp.snapshots[0])
        dist_t = [dist(a, b) for a, b in zip(sol0.snapshots, solp.snapshots)]
        for snap, dval in zip(sol0.snapshots, dist_t):
            rows.append((delta, float(snap.time), float(dval)))
        ratios.append(max(dist_t) / d0)

    ratio_spread = max(ratios) / min(ratios)
    passed = d_same <= 1e-8 and ratio_spread <= 2.0
    # the largest BL duality gap, relative to its upper bound
    gap = max(((c["ub"] - c["lb"]) / c["ub"] for c in certs if c["ub"] > 0),
              default=0.0)
    csv_path = os.path.join(out_dir, "uniqueness.csv")
    io.write_rows_csv(csv_path, ["delta", "t", "bl_distance"], rows)
    return StudyReport(
        "uniqueness", passed,
        {"identical_run_distance": f"{d_same:.3g}",
         "stability_ratios": [round(rv, 4) for rv in ratios],
         "ratio_spread": round(ratio_spread, 4),
         "bl_max_relative_gap": f"{gap:.3g}",
         "bl_max_rounds": max(c["rounds"] for c in certs),
         **_health_summary(healths)},
        [csv_path, dump_path])


STUDIES = {
    "large-k": study_large_k,
    "dirac": study_dirac,
    "flow": study_flow,
    "uniqueness": study_uniqueness,
}

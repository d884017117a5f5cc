"""Command-line entry point.

Verbs: validate, simulate-ibm, solve-pde, flow, study-large-k, study-dirac,
study-flow, study-uniqueness, report.  Exit codes: 0 success, 1 usage error,
2 numerical failure (CFL violation, blow-up, failed BL program), 3 failed
check: validate, a study verdict, the flow determinant gap, or a solve-pde
manifest with passed false (mass bound or boundary leak).

The output directory is --out, else outputs.directory of the config, else
"out".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

import numpy as np

from . import ibm, io, pde, studies
from .config import (ConfigError, _number, _numbers, build_initial,
                     build_model, grid_box, load_config, probe_spec,
                     sim_params, solver_params)
from .flow import FlowError, compose_inverse_forward, inverse_flow
from .ibm import SimulationError
from .initial import project_to_grid
from .metrics import BLError
from .model import validate as validate_model
from .pde import CFLError

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_CHECK = 0, 1, 2, 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crossdiff",
        description="Particle / PDE / flow workbench for kernel-interacting "
                    "population models")
    sub = p.add_subparsers(dest="verb", required=True)
    for v in _COMMANDS:
        q = sub.add_parser(v)
        q.add_argument("--config", required=(v != "report"),
                       help="experiment config (YAML)")
        q.add_argument("--out", default=None,
                       help="output directory (default: outputs.directory "
                            "of the config, else out)")
        q.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        q.add_argument("--workers", type=int, default=1)
        q.add_argument("--resume", action="store_true",
                       help="reuse cached sub-run results")
    return p


def _out_dir(args, cfg: dict) -> str:
    return args.out or (cfg.get("outputs") or {}).get("directory") or "out"


def _load(args):
    cfg = load_config(args.config)
    seed = (args.seed if args.seed is not None
            else _number(cfg, "seed", None, "", int, 0))
    out = _out_dir(args, cfg)
    os.makedirs(out, exist_ok=True)
    return cfg, seed, out


# ---------------------------------------------------------------------
# verbs

def _cmd_validate(args) -> int:
    cfg, seed, out = _load(args)
    model = build_model(cfg)
    report = validate_model(model, probe_spec(cfg, seed))
    print(report)
    return EXIT_OK if report.passed else EXIT_CHECK


def _simulate_ibm(cfg, seed, out, args):
    model = build_model(cfg)
    init = build_initial(cfg)
    K = _numbers(cfg.get("ibm") or {}, "K", [1000], "ibm", int, 1)[0]
    traj = ibm.simulate(model, init, sim_params(cfg, K, seed))
    csv_path = os.path.join(out, "particles.csv")
    io.write_particles_csv(csv_path, traj)
    print(f"wrote {csv_path}")
    return ({"K": K, "births": traj.births, "deaths": traj.deaths,
             "final_counts": [int(c) for c in traj.snapshots[-1][1].counts()],
             "rng": traj.rng_descriptor}, True, [csv_path])


def _solve_pde(cfg, seed, out, args):
    model = build_model(cfg)
    u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
    sol = pde.solve(model, u0, solver_params(cfg))
    bound = pde.mass_bound_check(sol, model)
    files = []
    for snap in sol.snapshots:
        tag = f"{snap.time:.6g}".replace(".", "p")
        csv_path = os.path.join(out, f"field_t{tag}.csv")
        dump_path = os.path.join(out, f"field_t{tag}.bin")
        io.write_field_csv(csv_path, snap)
        io.write_field_dump(dump_path, snap)
        files += [csv_path, dump_path]
    for t, masses in zip(sol.times, sol.masses):
        print(f"t={t:g} masses={np.round(masses, 6).tolist()}")
    if sol.leak_flag:
        print("warning: boundary mass fraction exceeded the leak budget")
    if not bound.passed:
        print("warning: a snapshot mass exceeds its growth bound")
    return ({"masses": sol.masses.tolist(), "clamp_mass": sol.clamp_mass,
             "max_boundary_fraction": sol.max_boundary_fraction,
             "leak_flag": sol.leak_flag, "mass_bound_ok": bound.passed},
            bound.passed and not sol.leak_flag, files)


def _flow(cfg, seed, out, args):
    model = build_model(cfg)
    u0 = project_to_grid(build_initial(cfg), *grid_box(cfg))
    fcfg = cfg.get("flow") or {}
    n_paths = _number(fcfg, "n_paths", 100, "flow", int, 1)
    i = _number(fcfg, "species", 0, "flow", int, 0, model.M - 1)
    y = studies.flow_probes(cfg, u0, [0.35, 0.5, 0.65])
    t, dt, _, coeffs = studies.frozen_flow(cfg, model, u0)

    yy = np.repeat(y, n_paths, axis=0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(71,)))
    inv = inverse_flow(coeffs, i, t, yy, dt, rng)
    det_gap = float(np.max(np.abs(inv.det_matrix[-1] - inv.det_sde[-1])
                           / np.abs(inv.det_matrix[-1])))
    rng2 = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(72,)))
    comp_err = float(np.mean(compose_inverse_forward(coeffs, i, t, yy, dt,
                                                     rng2)))
    rows = [(float(p[0]) if model.d == 1 else str(p.tolist()),
             float(np.mean(inv.det_matrix[-1].reshape(len(y), n_paths)[j])),
             float(np.mean(inv.det_sde[-1].reshape(len(y), n_paths)[j])))
            for j, p in enumerate(y)]
    csv_path = os.path.join(out, "flow_diagnostics.csv")
    io.write_rows_csv(csv_path, ["y", "mean_det_matrix", "mean_det_sde"], rows)
    print(f"det gap {det_gap:.3e}, composition error {comp_err:.3e}")
    return ({"det_relative_gap": det_gap, "composition_error": comp_err,
             "min_det": float(inv.det_matrix.min())},
            det_gap <= 0.01, [csv_path])


def _study(name):
    def run(cfg, seed, out, args):
        report = studies.STUDIES[name](cfg, out, seed,
                                       workers=max(1, args.workers),
                                       resume=args.resume)
        print(report)
        return report.summary, report.passed, report.files
    return run


def _with_manifest(verb, manifest: str):
    """Run verb(cfg, seed, out, args) -> (summary, passed, files), write its
    manifest and exit 0 if it passed, else 3."""
    def run(args) -> int:
        cfg, seed, out = _load(args)
        started = time.time()
        summary, passed, files = verb(cfg, seed, out, args)
        io.write_manifest(os.path.join(out, manifest),
                          config_path=args.config, seed=seed,
                          command=args.verb, started=started,
                          summary=summary, passed=passed, files=files)
        return EXIT_OK if passed else EXIT_CHECK
    return run


def _cmd_report(args) -> int:
    out = _out_dir(args, load_config(args.config) if args.config else {})
    manifests = sorted(glob.glob(os.path.join(out, "*manifest*.json")))
    if not manifests:
        print(f"no manifests under {out}", file=sys.stderr)
        return EXIT_USAGE
    all_ok = True
    for path in manifests:
        with open(path) as f:
            m = json.load(f)
        status = {True: "PASS", False: "FAIL", None: "-"}[m.get("passed")]
        all_ok = all_ok and m.get("passed") is not False
        print(f"{status:4s} {m.get('command', '?'):18s} {os.path.basename(path)}")
        for k, v in (m.get("summary") or {}).items():
            print(f"       {k}: {v}")
    return EXIT_OK if all_ok else EXIT_CHECK


_COMMANDS = {
    "validate": _cmd_validate,
    "simulate-ibm": _with_manifest(_simulate_ibm, "ibm_manifest.json"),
    "solve-pde": _with_manifest(_solve_pde, "pde_manifest.json"),
    "flow": _with_manifest(_flow, "flow_manifest.json"),
    **{f"study-{name}": _with_manifest(_study(name),
                                       f"study_{name}_manifest.json")
       for name in studies.STUDIES},
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.verb](args)
    except (ConfigError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (BLError, CFLError, FlowError, SimulationError,
            FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

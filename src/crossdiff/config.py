"""Experiment configuration: one YAML file, strict schema, explicit seeds.

Unknown keys anywhere in the file are errors, so typos fail loudly instead
of silently falling back to defaults.  The schema is documented in the
README; builders here turn the parsed tree into model / initial / solver
objects shared by the CLI and the studies.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

from .ibm import SimParams
from .initial import InitialCondition
from .kernels import KernelSpec, mollifier, tabulated_from_csv
from .model import (CoefficientModel, ProbeSpec, builtin_model, bump_growth,
                    constant_growth)
from .pde import SolverParams


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------
# strict-tree helpers

_SECTIONS = {"seed", "model", "initial", "ibm", "pde", "flow",
             "uniqueness", "validate", "outputs"}

_KEYS = {
    "model": {"M", "dim", "family", "params", "noise_scale", "r", "rbar",
              "growth", "kernels", "comp", "lipschitz_bound"},
    "kernel": {"family", "bandwidth", "amplitude", "amplitudes", "path"},
    "growth": {"kind", "rate", "base", "amp", "center", "width"},
    "initial": {"mass", "kind", "mean", "std", "lo", "hi", "center",
                "halfwidth"},
    "ibm": {"K", "dt", "t_end", "scheme", "replicas", "snapshot_times",
            "ceiling"},
    "pde": {"lo", "hi", "cells", "dt", "t_end", "mode", "snapshot_times",
            "cfl_safety", "leak_budget", "eps"},
    "flow": {"species", "t", "dt", "n_paths", "probes"},
    "uniqueness": {"deltas", "shift_axis"},
    "validate": {"lo", "hi", "v_max", "v_min", "n"},
    "outputs": {"directory"},
    "kernels": {"G", "H", "C", "gamma"},
    "gamma": {"family"},
}


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)} "
                          f"(allowed: {sorted(allowed)})")


def load_config(path: str) -> dict:
    with open(path) as f:
        cfg = yaml.safe_load(f)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(cfg, _SECTIONS, path)
    if "seed" not in cfg:
        raise ConfigError("config must set an explicit top-level 'seed'")
    if "model" not in cfg or "initial" not in cfg:
        raise ConfigError("config needs 'model' and 'initial' sections")
    _check_keys(cfg["model"], _KEYS["model"], "model")
    for name in ("ibm", "pde", "flow", "uniqueness", "validate", "outputs"):
        if name in cfg:
            _check_keys(cfg[name], _KEYS[name], name)
    if not isinstance(cfg["initial"], list) or not cfg["initial"]:
        raise ConfigError("'initial' must be a nonempty list of species specs")
    for n, entry in enumerate(cfg["initial"]):
        _check_keys(entry, _KEYS["initial"], f"initial[{n}]")
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict):
    """Values that would otherwise fail deep inside a run."""
    K = (cfg.get("ibm") or {}).get("K", [1])
    if not isinstance(K, list) or not K:
        raise ConfigError(f"ibm.K must be a nonempty list, got {K!r}")
    ucfg = cfg.get("uniqueness") or {}
    deltas = ucfg.get("deltas", [1.0])
    if not isinstance(deltas, list) or not deltas or 0 in deltas:
        raise ConfigError(f"uniqueness.deltas must be a nonempty list of "
                          f"nonzero shifts, got {deltas!r}")
    d, axis = int(cfg["model"].get("dim", 1)), ucfg.get("shift_axis", 0)
    if not 0 <= int(axis) < d:
        raise ConfigError(f"uniqueness.shift_axis must lie in [0, {d}), "
                          f"got {axis!r}")


# ---------------------------------------------------------------------
# kernel construction

def _one_kernel(spec: dict, d: int, amplitude=None) -> KernelSpec:
    _check_keys(spec, _KEYS["kernel"], "kernel")
    fam = spec.get("family", "constant")
    amp = float(amplitude if amplitude is not None
                else spec.get("amplitude", 1.0))
    if fam == "tabulated":
        if "path" not in spec:
            raise ConfigError("tabulated kernel needs a 'path' to a CSV table")
        return tabulated_from_csv(spec["path"], d, amplitude=amp)
    return KernelSpec(fam, d, bandwidth=float(spec.get("bandwidth", 1.0)),
                      amplitude=amp)


def _kernel_matrix(spec, M: int, d: int):
    """One spec for all pairs; 'amplitudes' gives a per-pair M x M scale."""
    if spec is None:
        return None
    amps = spec.get("amplitudes") if isinstance(spec, dict) else None
    if amps is not None:
        amps = np.asarray(amps, dtype=float)
        if amps.shape != (M, M):
            raise ConfigError(f"kernel amplitudes must be {M}x{M}")
        return [[_one_kernel(spec, d, amplitude=amps[i, j]) if amps[i, j] != 0
                 else _one_kernel({"family": "constant"}, d, amplitude=0.0)
                 for j in range(M)] for i in range(M)]
    k = _one_kernel(spec, d)
    return [[k for _ in range(M)] for _ in range(M)]


def mollified_C(cfg: dict, eps: float):
    """Competition kernel matrix c^{ij} * gamma_eps from the comp constants."""
    mcfg = cfg["model"]
    M, d = int(mcfg["M"]), int(mcfg.get("dim", 1))
    comp = np.asarray(mcfg.get("comp"), dtype=float)
    if comp.shape != (M, M):
        raise ConfigError("dirac study needs an M x M 'comp' matrix")
    fam = ((mcfg.get("kernels") or {}).get("gamma") or {}).get(
        "family", "gaussian")
    g_eps = mollifier(KernelSpec(fam, d), eps)     # checks gamma's family
    return _kernel_matrix({"family": fam, "bandwidth": g_eps.bandwidth,
                           "amplitudes": comp}, M, d)


# ---------------------------------------------------------------------
# builders

def _growth_fn(spec):
    _check_keys(spec, _KEYS["growth"], "model.growth")
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return constant_growth(float(spec["rate"])), float(spec["rate"])
    if kind == "bump":
        base = float(spec.get("base", 0.0))
        amp = float(spec.get("amp", 1.0))
        fn = bump_growth(base, amp, float(spec.get("center", 0.0)),
                         float(spec.get("width", 1.0)))
        return fn, base + max(amp, 0.0)
    raise ConfigError(f"unknown growth kind {kind!r}")


def build_model(cfg: dict, C_kernels=None) -> CoefficientModel:
    mcfg = cfg["model"]
    M, d = int(mcfg["M"]), int(mcfg.get("dim", 1))
    kcfg = mcfg.get("kernels") or {}
    _check_keys(kcfg, _KEYS["kernels"], "model.kernels")
    # gamma, the mollifier base of the Dirac study, is read by mollified_C
    _check_keys(kcfg.get("gamma") or {}, _KEYS["gamma"],
                "model.kernels.gamma")
    G = _kernel_matrix(kcfg.get("G"), M, d)
    H = _kernel_matrix(kcfg.get("H"), M, d)
    C = C_kernels if C_kernels is not None else _kernel_matrix(kcfg.get("C"), M, d)
    comp = mcfg.get("comp")
    comp = None if comp is None else np.asarray(comp, dtype=float)

    ns = mcfg.get("noise_scale", "sqrt2")
    noise_scale = math.sqrt(2.0) if ns == "sqrt2" else float(ns)

    params = dict(mcfg.get("params") or {})
    if "lipschitz_bound" in mcfg:
        params["lipschitz_bound"] = float(mcfg["lipschitz_bound"])
    model = builtin_model(mcfg.get("family", "constant-coefficients"), M, d,
                          G=G, H=H, C=C, comp=comp,
                          r=mcfg.get("r", 0.0), rbar=mcfg.get("rbar"),
                          noise_scale=noise_scale, **params)

    growth = mcfg.get("growth")
    if growth is not None:
        if len(growth) != M:
            raise ConfigError("model.growth must list one entry per species")
        fns, bounds = zip(*[_growth_fn(g) for g in growth])
        model.growth_fns = list(fns)
        if mcfg.get("rbar") is None:
            model.growth_bounds = list(map(float, bounds))
    return model


def build_initial(cfg: dict) -> list:
    d = int(cfg["model"].get("dim", 1))
    out = []
    for entry in cfg["initial"]:
        kw = dict(entry)
        out.append(InitialCondition(dim=d, **kw))
    return out


def _required(cfg: dict, section: str, *keys) -> dict:
    """A config section that must be present with the given keys."""
    sec = cfg.get(section)
    missing = ([f"section {section!r}"] if sec is None else
               [f"key {section}.{k}" for k in keys if k not in sec])
    if missing:
        raise ConfigError(f"config is missing required {missing[0]}")
    return sec


def sim_params(cfg: dict, K: int, seed: int) -> SimParams:
    icfg = _required(cfg, "ibm", "t_end", "dt")
    return SimParams(t_end=float(icfg["t_end"]), dt=float(icfg["dt"]),
                     K=int(K), scheme=icfg.get("scheme", "splitting"),
                     seed=int(seed),
                     snapshot_times=tuple(icfg.get("snapshot_times") or ()),
                     ceiling=int(icfg.get("ceiling", 1_000_000)))


def solver_params(cfg: dict, mode=None) -> SolverParams:
    pcfg = _required(cfg, "pde", "dt", "t_end")
    return SolverParams(dt=float(pcfg["dt"]), t_end=float(pcfg["t_end"]),
                        mode=mode or pcfg.get("mode", "kernel"),
                        snapshot_times=tuple(pcfg.get("snapshot_times") or ()),
                        cfl_safety=float(pcfg.get("cfl_safety", 0.9)),
                        leak_budget=float(pcfg.get("leak_budget", 1e-6)))


def grid_box(cfg: dict):
    pcfg = _required(cfg, "pde", "lo", "hi", "cells")
    d = int(cfg["model"].get("dim", 1))
    lo = np.broadcast_to(np.asarray(pcfg["lo"], float), (d,)).copy()
    hi = np.broadcast_to(np.asarray(pcfg["hi"], float), (d,)).copy()
    shape = tuple(int(n) for n in np.broadcast_to(
        np.asarray(pcfg["cells"], int), (d,)))
    return lo, hi, shape


def probe_spec(cfg: dict, seed: int) -> ProbeSpec:
    vcfg = cfg.get("validate") or {}
    d = int(cfg["model"].get(
        "dim", 1))
    lo = np.broadcast_to(np.asarray(vcfg.get("lo", -5.0), float), (d,)).copy()
    hi = np.broadcast_to(np.asarray(vcfg.get("hi", 5.0), float), (d,)).copy()
    return ProbeSpec(lo, hi, v_max=float(vcfg.get("v_max", 2.0)),
                     v_min=float(vcfg.get("v_min", 0.0)),
                     n=int(vcfg.get("n", 512)), seed=int(seed))

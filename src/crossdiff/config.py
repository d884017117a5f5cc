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
from .model import (FAMILY_PARAMS, CoefficientModel, ProbeSpec, builtin_model,
                    bump_growth, constant_growth)
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
            "eps"},
    "flow": {"species", "t", "dt", "n_paths", "probes"},
    "uniqueness": {"deltas", "shift_axis"},
    "validate": {"lo", "hi", "v_max", "v_min", "n"},
    "outputs": {"directory"},
    "kernels": {"G", "H", "C", "gamma"},
    "gamma": {"family"},
}


def _check_keys(obj: dict, allowed: set, where: str):
    """obj is a mapping whose keys are in allowed, else a ConfigError that
    names each other key as where.key (key alone when where is empty)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    extra = sorted(f"{where}.{key}" if where else str(key)
                   for key in set(obj) - allowed)
    if extra:
        raise ConfigError(f"unknown keys {', '.join(extra)} "
                          f"(allowed: {sorted(allowed)})")


def _number(spec: dict, key: str, default, where: str, kind=float, lo=None,
            hi=None):
    """spec[key], default when absent, as kind (float or int) in [lo, hi],
    else a ConfigError that names where.key (key alone when where is empty).
    A float takes what float() takes (YAML reads 1e-3 as a string), an int
    an int or an integral float; neither takes a bool, NaN or inf."""
    name, value = f"{where}.{key}" if where else key, spec.get(key, default)
    not_numbers = (bool, str) if kind is int else bool
    try:
        x = math.nan if isinstance(value, not_numbers) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (kind is int and not x.is_integer()):
        raise ConfigError(f"{name} must be a number"
                          f"{' with an integer value' * (kind is int)}, "
                          f"got {value!r}")
    x = int(value) if kind is int else x
    if (lo is not None and x < lo) or (hi is not None and x > hi):
        raise ConfigError(f"{name} must " + (
            f"lie in [{lo}, {hi}]" if hi is not None else f"be at least {lo}")
            + f", got {x}")
    return x


def _numbers(spec: dict, key: str, default, where: str, kind=float, lo=None,
             hi=None, n=None) -> list:
    """spec[key], default when absent, as a nonempty list of _number values;
    with n, one number stands for n copies and a list must hold n."""
    value = spec.get(key, default)
    if n is not None and not isinstance(value, (list, tuple)):
        return [_number(spec, key, default, where, kind, lo, hi)] * n
    if not isinstance(value, (list, tuple)) or not value or \
            len(value) != (n or len(value)):
        raise ConfigError(f"{where}.{key} must be " + (
            f"a number or a list of {n}" if n else "a nonempty list")
            + f", got {value!r}")
    entries = {f"{where}.{key}[{k}]": v for k, v in enumerate(value)}
    return [_number(entries, name, None, "", kind, lo, hi) for name in entries]


def load_config(path: str) -> dict:
    with open(path) as f:
        cfg = yaml.safe_load(f)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(cfg, _SECTIONS, "")
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
    return cfg


# ---------------------------------------------------------------------
# kernel construction

def _one_kernel(spec: dict, d: int, where: str,
                amplitude=None) -> KernelSpec:
    _check_keys(spec, _KEYS["kernel"], where)
    fam = spec.get("family", "constant")
    amp = (float(amplitude) if amplitude is not None
           else _number(spec, "amplitude", 1.0, where))
    if fam == "tabulated":
        if "path" not in spec:
            raise ConfigError("tabulated kernel needs a 'path' to a CSV table")
        return tabulated_from_csv(spec["path"], d, amplitude=amp)
    return KernelSpec(fam, d, bandwidth=_number(spec, "bandwidth", 1.0, where),
                      amplitude=amp)


def _kernel_matrix(spec, M: int, d: int, where: str):
    """One spec for all pairs; 'amplitudes' gives a per-pair M x M scale.
    where names the spec in errors, e.g. model.kernels.G."""
    if spec is None:
        return None
    amps = spec.get("amplitudes") if isinstance(spec, dict) else None
    if amps is not None:
        amps = np.asarray(amps, dtype=float)
        if amps.shape != (M, M):
            raise ConfigError(f"kernel amplitudes must be {M}x{M}")
        return [[_one_kernel(spec, d, where, amplitude=amps[i, j])
                 if amps[i, j] != 0 else
                 _one_kernel({"family": "constant"}, d, where, amplitude=0.0)
                 for j in range(M)] for i in range(M)]
    k = _one_kernel(spec, d, where)
    return [[k for _ in range(M)] for _ in range(M)]


def _comp(mcfg: dict, M: int):
    """model.comp, the local competition constants, as an M x M array of
    numbers >= 0 read row by row, or None when absent."""
    comp = mcfg.get("comp")
    if comp is None:
        return None
    if not isinstance(comp, list) or len(comp) != M:
        raise ConfigError(f"model.comp must be a list of {M} rows, "
                          f"got {comp!r}")
    rows = {f"comp[{i}]": row for i, row in enumerate(comp)}
    return np.array([_numbers(rows, key, None, "model", float, 0.0, n=M)
                     for key in rows])


def mollified_C(cfg: dict, eps: float):
    """Competition kernel matrix c^{ij} * gamma_eps from the comp constants."""
    mcfg = cfg["model"]
    M, d = _number(mcfg, "M", None, "model", int, 1), _dim(cfg)
    comp = _comp(mcfg, M)
    if comp is None:
        raise ConfigError("dirac study needs an M x M 'comp' matrix "
                          "(model.comp)")
    fam = ((mcfg.get("kernels") or {}).get("gamma") or {}).get(
        "family", "gaussian")
    g_eps = mollifier(KernelSpec(fam, d), eps)     # checks gamma's family
    return _kernel_matrix({"family": fam, "bandwidth": g_eps.bandwidth,
                           "amplitudes": comp}, M, d, "model.comp")


# ---------------------------------------------------------------------
# builders

def _growth_fn(spec):
    _check_keys(spec, _KEYS["growth"], "model.growth")
    kind = spec.get("kind", "constant")
    num = lambda key, default: _number(spec, key, default, "model.growth")
    if kind == "constant":
        rate = num("rate", None)
        return constant_growth(rate), rate
    if kind == "bump":
        base, amp = num("base", 0.0), num("amp", 1.0)
        fn = bump_growth(base, amp, num("center", 0.0), num("width", 1.0))
        return fn, base + max(amp, 0.0)
    raise ConfigError(f"unknown growth kind {kind!r}")


def _dim(cfg: dict) -> int:
    """model.dim: 1 or 2."""
    return _number(cfg["model"], "dim", 1, "model", int, 1, 2)


def build_model(cfg: dict, C_kernels=None) -> CoefficientModel:
    mcfg = cfg["model"]
    M, d = _number(mcfg, "M", None, "model", int, 1), _dim(cfg)
    kcfg = mcfg.get("kernels") or {}
    _check_keys(kcfg, _KEYS["kernels"], "model.kernels")
    # gamma, the mollifier base of the Dirac study, is read by mollified_C
    _check_keys(kcfg.get("gamma") or {}, _KEYS["gamma"],
                "model.kernels.gamma")
    G = _kernel_matrix(kcfg.get("G"), M, d, "model.kernels.G")
    H = _kernel_matrix(kcfg.get("H"), M, d, "model.kernels.H")
    C = C_kernels if C_kernels is not None else _kernel_matrix(
        kcfg.get("C"), M, d, "model.kernels.C")

    noise_scale = (math.sqrt(2.0) if mcfg.get("noise_scale", "sqrt2") ==
                   "sqrt2" else _number(mcfg, "noise_scale", None, "model"))

    family = mcfg.get("family", "constant-coefficients")
    if family not in FAMILY_PARAMS:
        raise ConfigError(f"model.family must be one of "
                          f"{sorted(FAMILY_PARAMS)}, got {family!r}")
    pcfg = mcfg.get("params") or {}
    _check_keys(pcfg, set(FAMILY_PARAMS[family]), "model.params")
    params = {}
    for key in pcfg:
        # sigma = sqrt(psi_max S / (1 + S)) is real only for psi_max >= 0
        lo = 0.0 if key == "psi_max" else None
        params[key] = (
            _numbers(pcfg, key, None, "model.params", float, lo, n=M)
            if FAMILY_PARAMS[family][key] else
            _number(pcfg, key, None, "model.params", float, lo))
    if "lipschitz_bound" in mcfg:
        params["lipschitz_bound"] = _number(mcfg, "lipschitz_bound", None,
                                            "model")
    growth, rbar = mcfg.get("growth"), mcfg.get("rbar")
    if growth is not None and "r" in mcfg:
        raise ConfigError("model.r and model.growth both set the growth "
                          "rates; give one of them")
    model = builtin_model(
        family, M, d, G=G, H=H, C=C, comp=_comp(mcfg, M),
        r=_numbers(mcfg, "r", 0.0, "model", n=M),
        rbar=None if rbar is None else _numbers(mcfg, "rbar", None, "model",
                                                n=M),
        noise_scale=noise_scale, **params)

    if growth is not None:
        if not isinstance(growth, list) or len(growth) != M:
            raise ConfigError("model.growth must list one entry per species")
        fns, bounds = zip(*[_growth_fn(g) for g in growth])
        model.growth_fns = list(fns)
        if rbar is None:
            model.growth_bounds = list(map(float, bounds))
    return model


def build_initial(cfg: dict) -> list:
    d = _dim(cfg)
    out = []
    for n, entry in enumerate(cfg["initial"]):
        kw, where = dict(entry), f"initial[{n}]"
        for key in ("mass", "std", "halfwidth"):
            if key in kw or key == "mass":    # mass has no default
                kw[key] = _number(entry, key, None, where)
        for key in ("mean", "lo", "hi", "center"):
            if key in kw:
                kw[key] = _numbers(entry, key, None, where, n=d)
        out.append(InitialCondition(dim=d, **kw))
    return out


def _params(cls, where: str, **kw):
    """cls(**kw), SimParams or SolverParams, whose ValueError messages start
    with the field at fault, so where.message names its key."""
    try:
        return cls(**kw)
    except ValueError as e:
        raise ConfigError(f"{where}.{e}") from None


def sim_params(cfg: dict, K: int, seed: int) -> SimParams:
    icfg = cfg.get("ibm") or {}
    t_end = _number(icfg, "t_end", None, "ibm")
    return _params(SimParams, "ibm", t_end=t_end,
                   dt=_number(icfg, "dt", None, "ibm"), K=K,
                   scheme=icfg.get("scheme", "splitting"), seed=seed,
                   snapshot_times=_numbers(icfg, "snapshot_times", [t_end],
                                           "ibm"),
                   ceiling=_number(icfg, "ceiling", 1_000_000, "ibm", int, 1))


def solver_params(cfg: dict, mode=None) -> SolverParams:
    pcfg = cfg.get("pde") or {}
    t_end = _number(pcfg, "t_end", None, "pde")
    return _params(SolverParams, "pde", dt=_number(pcfg, "dt", None, "pde"),
                   t_end=t_end, mode=mode or pcfg.get("mode", "kernel"),
                   snapshot_times=_numbers(pcfg, "snapshot_times", [t_end],
                                           "pde"))


def grid_box(cfg: dict):
    pcfg, d = cfg.get("pde") or {}, _dim(cfg)
    return (np.array(_numbers(pcfg, "lo", None, "pde", n=d)),
            np.array(_numbers(pcfg, "hi", None, "pde", n=d)),
            tuple(_numbers(pcfg, "cells", None, "pde", int, 2, n=d)))


def probe_spec(cfg: dict, seed: int) -> ProbeSpec:
    vcfg, d = cfg.get("validate") or {}, _dim(cfg)
    return ProbeSpec(np.array(_numbers(vcfg, "lo", -5.0, "validate", n=d)),
                     np.array(_numbers(vcfg, "hi", 5.0, "validate", n=d)),
                     v_max=_number(vcfg, "v_max", 2.0, "validate"),
                     v_min=_number(vcfg, "v_min", 0.0, "validate"),
                     n=_number(vcfg, "n", 512, "validate", int, 0), seed=seed)

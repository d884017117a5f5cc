import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import crossdiff
from crossdiff import cli, io
from crossdiff.config import (ConfigError, build_initial, build_model,
                              grid_box, load_config, mollified_C, probe_spec,
                              sim_params, solver_params)
from crossdiff.grids import GridField
from crossdiff.initial import InitialCondition, project_to_grid
from crossdiff.model import FAMILY_PARAMS


def base_cfg():
    return {
        "seed": 7,
        "model": {
            "M": 1,
            "dim": 1,
            "family": "constant-coefficients",
            "params": {"sigma0": 0.3},
            "r": [0.2],
            "rbar": [0.2],
            "comp": [[0.5]],
            "kernels": {
                "G": {"family": "gaussian", "bandwidth": 0.5},
                "H": {"family": "gaussian", "bandwidth": 0.5},
                "C": {"family": "constant", "amplitude": 0.5},
            },
        },
        "initial": [{"mass": 0.5, "kind": "gaussian", "std": 0.6}],
        "ibm": {"K": [40], "dt": 0.05, "t_end": 0.2},
        "pde": {"lo": -5.0, "hi": 5.0, "cells": 64, "dt": 0.002,
                "t_end": 0.1, "snapshot_times": [0.0, 0.1]},
    }


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


# ----------------------------------------------------------------------
# strict config parsing

def test_unknown_top_level_key(tmp_path):
    cfg = base_cfg()
    cfg["simulation"] = {}
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, cfg))


def test_unknown_model_key(tmp_path):
    cfg = base_cfg()
    cfg["model"]["sigma"] = 0.3
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, cfg))


def test_unknown_kernel_key(tmp_path):
    cfg = base_cfg()
    cfg["model"]["kernels"]["G"]["width"] = 1.0
    with pytest.raises(ConfigError):
        build_model(load_config(write_cfg(tmp_path, cfg)))


@pytest.mark.parametrize("key", ["bandwdith", "amplitude"])
def test_gamma_takes_only_its_family(tmp_path, key):
    # the mollifier base has unit bandwidth and mass: any other key is
    # an error, not silently ignored
    cfg = base_cfg()
    cfg["model"]["kernels"]["gamma"] = {"family": "gaussian", key: 3.0}
    with pytest.raises(ConfigError, match=key):
        build_model(load_config(write_cfg(tmp_path, cfg)))


@pytest.mark.parametrize("section,key", [("flow", "dt_list"),
                                         ("outputs", "formats")])
def test_unread_keys_rejected(tmp_path, section, key):
    # nothing reads these keys, so the strict schema refuses them
    cfg = base_cfg()
    cfg[section] = {key: [0.1]}
    with pytest.raises(ConfigError, match=key):
        load_config(write_cfg(tmp_path, cfg))


def test_unknown_initial_key(tmp_path):
    cfg = base_cfg()
    cfg["initial"][0]["sigma"] = 1.0
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, cfg))


def test_missing_seed_rejected(tmp_path):
    cfg = base_cfg()
    del cfg["seed"]
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, cfg))


def test_noise_scale_switch(tmp_path):
    cfg = load_config(write_cfg(tmp_path, base_cfg()))
    assert build_model(cfg).noise_scale == pytest.approx(math.sqrt(2.0))
    cfg["model"]["noise_scale"] = 1.0
    assert build_model(cfg).noise_scale == 1.0


def test_builders_roundtrip(tmp_path):
    cfg = load_config(write_cfg(tmp_path, base_cfg()))
    model = build_model(cfg)
    assert model.M == 1 and model.d == 1
    init = build_initial(cfg)
    assert init[0].mass == 0.5
    sp = solver_params(cfg)
    assert sp.t_end == 0.1
    p = sim_params(cfg, K=40, seed=3)
    assert p.K == 40 and p.seed == 3
    lo, hi, shape = grid_box(cfg)
    assert shape == (64,)


def test_readme_config_example_goes_through_every_reader(tmp_path):
    # the example block of the README's "Configuration" section, so the
    # documented schema cannot drift from the readers
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as f:
        text = f.read().split("## Configuration", 1)[1]
    block = text.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.yaml"
    path.write_text(block)
    cfg = load_config(str(path))
    model, init = build_model(cfg), build_initial(cfg)
    assert (model.M, model.d, len(init)) == (2, 1, 2)
    assert model.lipschitz_bound == 1.0
    assert [model.eval_growth(i, np.zeros((1, 1)))[0] for i in (0, 1)] == \
        [pytest.approx(0.8), 1.0]
    # the comments name every family and each of its params
    for family, params in FAMILY_PARAMS.items():
        assert all(name in block for name in (family, *params)), family
    assert grid_box(cfg)[2] == (128,)
    assert solver_params(cfg).snapshot_times == (0.0, 0.5, 1.0)
    for K in cfg["ibm"]["K"]:
        assert sim_params(cfg, K, cfg["seed"]).K == K
    assert probe_spec(cfg, cfg["seed"]).n == 512
    mollified_C(cfg, 0.2)


def test_per_pair_kernel_amplitudes(tmp_path):
    cfg = base_cfg()
    cfg["model"]["M"] = 2
    cfg["model"]["r"] = [0.2, 0.2]
    cfg["model"]["rbar"] = [0.2, 0.2]
    cfg["model"]["comp"] = [[1.0, 0.5], [0.5, 1.0]]
    cfg["model"]["kernels"]["C"] = {"family": "constant",
                                    "amplitudes": [[1.0, 0.5], [0.0, 1.0]]}
    cfg["initial"].append({"mass": 0.5, "kind": "gaussian", "std": 0.6})
    model = build_model(load_config(write_cfg(tmp_path, cfg)))
    assert model.C[0][0].amplitude == 1.0
    assert model.C[0][1].amplitude == 0.5
    assert model.C[1][0].amplitude == 0.0


def test_tabulated_kernel_from_config(tmp_path):
    r = np.linspace(0.0, 1.0, 11)
    np.savetxt(tmp_path / "tab.csv",
               np.column_stack([r, 1.0 - r]), delimiter=",")
    cfg = base_cfg()
    cfg["model"]["kernels"]["G"] = {"family": "tabulated",
                                    "path": str(tmp_path / "tab.csv")}
    model = build_model(load_config(write_cfg(tmp_path, cfg)))
    assert model.G[0][0].evaluate_batch([0.5])[0] == pytest.approx(0.5,
                                                                  abs=1e-9)


def test_mollified_competition_matrix(tmp_path):
    cfg = load_config(write_cfg(tmp_path, base_cfg()))
    C = mollified_C(cfg, eps=0.2)
    from crossdiff.kernels import kernel_mass
    # mass of c * gamma_eps is the competition constant
    assert kernel_mass(C[0][0]) == pytest.approx(0.5, rel=1e-4)
    assert (C[0][0].family, C[0][0].bandwidth) == ("gaussian", 0.2)
    cfg["model"]["kernels"]["gamma"] = {"family": "compact-bump"}
    assert mollified_C(cfg, eps=0.2)[0][0].family == "compact-bump"
    # a zero constant competes through nothing
    cfg["model"].update({"M": 2, "comp": [[0.5, 0.0], [0.25, 1.0]]})
    C = mollified_C(cfg, eps=0.2)
    assert [[(k.family, k.amplitude) for k in row] for row in C] == [
        [("compact-bump", 0.5), ("constant", 0.0)],
        [("compact-bump", 0.25), ("compact-bump", 1.0)]]
    del cfg["model"]["comp"]
    with pytest.raises(ConfigError, match="M x M 'comp' matrix"):
        mollified_C(cfg, eps=0.2)


# ----------------------------------------------------------------------
# serialization

def test_field_dump_roundtrip_bit_exact(tmp_path):
    u = project_to_grid([InitialCondition(1.3, "gaussian", std=0.7)],
                        [-4.0], [4.0], [48])
    u.time = 0.625
    path = str(tmp_path / "f.bin")
    io.write_field_dump(path, u)
    v = io.read_field_dump(path)
    assert v.values.tobytes() == u.values.tobytes()
    np.testing.assert_array_equal(v.lo, u.lo)
    np.testing.assert_array_equal(v.hi, u.hi)
    assert v.time == u.time


def test_field_dump_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.bin"
    hb = json.dumps({"format": "other"}).encode()
    path.write_bytes(len(hb).to_bytes(8, "little") + hb)
    with pytest.raises(ValueError):
        io.read_field_dump(str(path))


def test_rows_csv_and_atomicity(tmp_path):
    path = str(tmp_path / "rows.csv")
    io.write_rows_csv(path, ["a", "b"], [(1.5, 2), (0.25, 3)])
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines == ["a,b", "1.5,2", "0.25,3"]
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_outputs_get_the_mode_of_a_plain_open(tmp_path):
    # the temp file behind each atomic write is made with the umask
    # applied, like open(); mkstemp made every output 0600
    old = os.umask(0o022)
    try:
        path = str(tmp_path / "rows.csv")
        io.write_rows_csv(path, ["a"], [(1,)])
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o644


def test_config_hash_is_sha256(tmp_path):
    path = write_cfg(tmp_path, base_cfg())
    with open(path, "rb") as f:
        expect = hashlib.sha256(f.read()).hexdigest()
    assert io.config_hash(path) == expect


# ----------------------------------------------------------------------
# CLI exit codes and determinism

def test_cli_usage_error_on_bad_config(tmp_path, capsys):
    cfg = base_cfg()
    cfg["mistake"] = 1
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["validate", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE


@pytest.mark.parametrize("name,key,value", [
    ("C", "amplitude", [[1, 0.5], [0.5, 1]]), ("G", "bandwidth", [0.5])])
def test_cli_usage_error_on_non_numeric_kernel_value(tmp_path, capsys, name,
                                                     key, value):
    cfg = base_cfg()
    cfg["model"]["kernels"][name][key] = value
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["solve-pde", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    assert f"model.kernels.{name}.{key} must be a number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("verb,section,key", [
    ("simulate-ibm", "ibm", "t_end"), ("simulate-ibm", "ibm", "dt"),
    ("simulate-ibm", "ibm", "ceiling"), ("solve-pde", "pde", "dt"),
    ("solve-pde", "pde", "t_end"), ("flow", "flow", "t"),
    ("flow", "flow", "dt"), ("flow", "flow", "n_paths"),
    ("study-flow", "flow", "n_paths"),
])
def test_cli_usage_error_on_non_numeric_run_value(tmp_path, capsys, verb,
                                                  section, key):
    cfg = study_cfg("study-flow")
    cfg[section][key] = [5]
    path = write_cfg(tmp_path, cfg)
    assert cli.main([verb, "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{section}.{key} must be a number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb,where,key", [
    ("solve-pde", "model.growth", "rate"), ("solve-pde", "model.growth", "base"),
    ("solve-pde", "model.growth", "amp"),
    ("solve-pde", "model.growth", "center"),
    ("solve-pde", "model.growth", "width"), ("solve-pde", "initial[0]", "mass"),
    ("solve-pde", "initial[0]", "std"),
    ("solve-pde", "initial[0]", "halfwidth"),
    ("validate", "validate", "v_max"), ("validate", "validate", "v_min"),
    ("validate", "validate", "n"),
])
def test_cli_usage_error_on_non_numeric_config_number(tmp_path, capsys, verb,
                                                      where, key):
    cfg = base_cfg()
    if where == "model.growth":    # in place of model.r
        entry = {"kind": "constant" if key == "rate" else "bump"}
        cfg["model"]["growth"] = [entry]
        del cfg["model"]["r"]
    elif where == "initial[0]":
        entry = cfg["initial"][0]
    else:
        entry = cfg.setdefault("validate", {})
    entry[key] = [0.5]
    path = write_cfg(tmp_path, cfg)
    assert cli.main([verb, "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{where}.{key} must be a number" in err
    assert "Traceback" not in err


def test_cli_usage_error_on_missing_initial_mass(tmp_path, capsys):
    cfg = base_cfg()
    del cfg["initial"][0]["mass"]
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["solve-pde", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    assert "initial[0].mass must be a number" in capsys.readouterr().err


def test_cli_usage_error_on_missing_file(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE


def test_cli_validate_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, base_cfg())
    assert cli.main(["validate", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert "[ok ]" in capsys.readouterr().out


def test_cli_validate_check_failure(tmp_path, capsys):
    cfg = base_cfg()
    cfg["model"]["r"] = [0.5]
    cfg["model"]["rbar"] = [0.1]    # declared bound below the true rate
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["validate", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_CHECK


def test_cli_cfl_violation_is_numerical_failure(tmp_path, capsys):
    cfg = base_cfg()
    cfg["pde"]["dt"] = 0.05
    cfg["pde"]["t_end"] = 0.1
    cfg["pde"]["cells"] = 256
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["solve-pde", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC


def test_cli_bl_failure_is_numerical_failure(tmp_path, monkeypatch, capsys):
    from crossdiff import metrics

    def fail(*args):
        raise metrics.BLError("BL linear program failed: stub")

    monkeypatch.setattr(metrics, "_solve_lp", fail)
    cfg = base_cfg()
    cfg["model"]["dim"] = 2
    cfg["pde"].update({"lo": -3.0, "hi": 3.0, "cells": 8})
    cfg["uniqueness"] = {"deltas": [0.2]}
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["study-uniqueness", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
    assert "BL linear program failed" in capsys.readouterr().err


def uniqueness_2d_cfg(cells):
    """The uniqueness-2d benchmark problem on cells x cells."""
    return {
        "seed": 37,
        "model": {"M": 1, "dim": 2, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [0.5], "rbar": [0.5],
                  "kernels": {"C": {"family": "gaussian", "bandwidth": 0.5}}},
        "initial": [{"mass": 0.8, "kind": "gaussian", "std": 0.6}],
        "pde": {"lo": -4.0, "hi": 4.0, "cells": cells, "dt": 0.01,
                "t_end": 0.5, "snapshot_times": [0.0, 0.25, 0.5]},
        "uniqueness": {"deltas": [0.4, 0.2, 0.1]},
    }


def test_cli_study_uniqueness_2d_on_20_cells(tmp_path, capsys):
    # a stop on an empty violation list raised BLError (exit 2) here
    path = write_cfg(tmp_path, uniqueness_2d_cfg(20))
    out = str(tmp_path / "o")
    assert cli.main(["study-uniqueness", "--config", path,
                     "--out", out]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["report", "--out", out]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "bl_max_relative_gap" in text and "bl_max_rounds" in text


def test_study_uniqueness_reports_the_leak_of_its_solves(tmp_path):
    # on 12 x 12 cells of [-4, 4]^2 the solves lose more than LEAK_BUDGET
    # of their mass through the boundary; the summary says so, and the
    # verdict, which reads the stability ratios only, still passes
    from crossdiff import pde
    from crossdiff.studies import study_uniqueness
    rep = study_uniqueness(uniqueness_2d_cfg(12), str(tmp_path), seed=37)
    assert rep.summary["pde_max_boundary_fraction"] > pde.LEAK_BUDGET
    assert rep.summary["pde_clamp_mass"] == 0.0
    assert rep.passed


def test_cli_solve_pde_outputs_and_determinism(tmp_path, capsys):
    path = write_cfg(tmp_path, base_cfg())
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert cli.main(["solve-pde", "--config", path,
                         "--out", str(out)]) == cli.EXIT_OK
        outs.append(out)
    for fname in ("field_t0.csv", "field_t0p1.csv", "field_t0p1.bin"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname
    man = json.loads((outs[0] / "pde_manifest.json").read_text())
    assert man["schema"] == "crossdiff-manifest-v1"
    assert man["config_hash"] == io.config_hash(path)
    assert man["passed"] is True


def test_cli_solve_pde_leak_is_check_failure(tmp_path, capsys):
    # the initial density fills the box [-1, 1]: the leak flag is set
    cfg = base_cfg()
    cfg["pde"].update({"lo": -1.0, "hi": 1.0})
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "leak"
    assert cli.main(["solve-pde", "--config", path,
                     "--out", str(out)]) == cli.EXIT_CHECK
    man = json.loads((out / "pde_manifest.json").read_text())
    assert man["passed"] is False
    assert man["summary"]["leak_flag"] is True
    assert "leak budget" in capsys.readouterr().out


def test_cli_out_falls_back_to_outputs_directory(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    cfg = base_cfg()
    cfg["outputs"] = {"directory": "from_cfg"}
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["solve-pde", "--config", path]) == cli.EXIT_OK
    assert (tmp_path / "from_cfg" / "pde_manifest.json").exists()
    # --out wins over the config
    assert cli.main(["solve-pde", "--config", path,
                     "--out", "flag"]) == cli.EXIT_OK
    assert (tmp_path / "flag" / "pde_manifest.json").exists()
    # report reads the same directory
    capsys.readouterr()
    assert cli.main(["report", "--config", path]) == cli.EXIT_OK
    assert "from_cfg" not in capsys.readouterr().err
    os.remove(tmp_path / "from_cfg" / "pde_manifest.json")
    assert cli.main(["report", "--config", path]) == cli.EXIT_USAGE
    assert "no manifests under from_cfg" in capsys.readouterr().err
    # neither given: out
    path = write_cfg(tmp_path, base_cfg(), "plain.yaml")
    assert cli.main(["solve-pde", "--config", path]) == cli.EXIT_OK
    assert (tmp_path / "out" / "pde_manifest.json").exists()


def test_cli_thinning_bound_violation_is_numerical_failure(tmp_path, capsys):
    # a bump growth above the declared rbar breaks the thinning bound
    cfg = base_cfg()
    cfg["model"]["growth"] = [{"kind": "bump", "base": 0.1, "amp": 1.0}]
    del cfg["model"]["r"]
    cfg["ibm"].update({"scheme": "thinned-events", "t_end": 1.0})
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["simulate-ibm", "--config", path,
                     "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
    assert "thinning bound" in capsys.readouterr().err


def test_cli_simulate_ibm_deterministic(tmp_path, capsys):
    path = write_cfg(tmp_path, base_cfg())
    blobs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert cli.main(["simulate-ibm", "--config", path,
                         "--out", str(out)]) == cli.EXIT_OK
        blobs.append((out / "particles.csv").read_bytes())
    assert blobs[0] == blobs[1]
    # a different seed changes the byte stream
    out3 = tmp_path / "p3"
    assert cli.main(["simulate-ibm", "--config", path, "--seed", "8",
                     "--out", str(out3)]) == cli.EXIT_OK
    assert (out3 / "particles.csv").read_bytes() != blobs[0]


def test_cli_report(tmp_path, capsys):
    path = write_cfg(tmp_path, base_cfg())
    out = str(tmp_path / "rep")
    assert cli.main(["report", "--out", out]) == cli.EXIT_USAGE
    assert cli.main(["solve-pde", "--config", path,
                     "--out", out]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["report", "--out", out]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "PASS" in text and "solve-pde" in text


def test_cli_no_verb_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


def dirac_cfg():
    return {
        "seed": 13,
        "model": {"M": 2, "dim": 1, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [1.0, 1.0],
                  "rbar": [1.0, 1.0], "comp": [[1.0, 0.5], [0.5, 1.0]]},
        "initial": [{"mass": 0.5, "kind": "gaussian", "mean": 0.0,
                     "std": 0.6},
                    {"mass": 0.5, "kind": "gaussian", "mean": 0.3,
                     "std": 0.6}],
        "pde": {"lo": -5.0, "hi": 5.0, "cells": 32, "dt": 0.004,
                "t_end": 0.2, "snapshot_times": [0.0, 0.1, 0.2],
                "eps": [0.4, 0.2, 0.1]},
    }


def test_cli_study_dirac_identical_across_workers_and_resume(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    from crossdiff import kernels, pde, studies
    path = write_cfg(tmp_path, dirac_cfg())
    solves, solve = [], pde.solve

    def counted(*args, **kwargs):
        solves.append(args[2].mode)
        return solve(*args, **kwargs)
    monkeypatch.setattr(studies.pde, "solve", counted)
    codes, tables = [], []
    for out, extra in (("w1", ["--workers", "1"]), ("w2", ["--workers", "2"]),
                       ("w2", ["--workers", "2", "--resume"])):
        kernels._batch_plan.cache_clear()    # two threads, cold cache
        solves.clear()
        codes.append(cli.main(["study-dirac", "--config", path,
                               "--out", str(tmp_path / out)] + extra))
        tables.append((tmp_path / out / "dirac.csv").read_bytes())
        assert (tmp_path / out / "study_dirac_manifest.json").exists()
    # the resumed run reads every distance and solve health from the cache
    # and solves nothing
    assert solves == []
    summaries = [json.loads((tmp_path / out / "study_dirac_manifest.json")
                            .read_text())["summary"] for out in ("w1", "w2")]
    assert summaries[0] == summaries[1]
    assert summaries[0]["pde_max_boundary_fraction"] > 0.0
    assert codes[0] in (cli.EXIT_OK, cli.EXIT_CHECK)
    assert codes == [codes[0]] * 3
    assert tables[0] == tables[1] == tables[2]
    assert tables[0].count(b"\n") == 4


def study_cfg(verb):
    """Tiny configs for the other study verbs, about a second each."""
    cfg = base_cfg()
    cfg["pde"].update({"cells": 32, "dt": 0.005, "t_end": 0.1,
                       "snapshot_times": [0.0, 0.1]})
    if verb == "study-large-k":
        cfg["ibm"].update({"K": [20, 40, 80], "dt": 0.05, "t_end": 0.1,
                           "replicas": 2, "snapshot_times": [0.1]})
    elif verb == "study-flow":
        cfg["flow"] = {"t": 0.05, "dt": 0.005, "n_paths": 8}
    else:
        cfg["uniqueness"] = {"deltas": [0.2, 0.1]}
    return cfg


@pytest.mark.parametrize("verb,table", [("study-large-k", "large_k.csv"),
                                        ("study-flow", "flow_density.csv"),
                                        ("study-uniqueness",
                                         "uniqueness.csv")])
def test_cli_study_identical_across_workers_and_resume(tmp_path, capsys,
                                                       verb, table):
    path = write_cfg(tmp_path, study_cfg(verb))
    codes, tables = [], []
    for out, extra in (("w1", ["--workers", "1"]), ("w2", ["--workers", "2"]),
                       ("w2", ["--workers", "2", "--resume"])):
        codes.append(cli.main([verb, "--config", path,
                               "--out", str(tmp_path / out)] + extra))
        tables.append((tmp_path / out / table).read_bytes())
    assert codes[0] in (cli.EXIT_OK, cli.EXIT_CHECK)
    assert codes == [codes[0]] * 3
    assert tables[0] == tables[1] == tables[2]
    assert tables[0].count(b"\n") > 1


def test_uniqueness_identical_run_solves_from_the_dumped_initial_data(
        tmp_path, monkeypatch):
    # the identical run starts from the read-back of u0.bin, so a read that
    # nudges one cell must fail the verdict
    from crossdiff.studies import study_uniqueness
    cfg = study_cfg("study-uniqueness")
    rep = study_uniqueness(cfg, str(tmp_path / "a"), seed=7)
    assert rep.passed and rep.summary["identical_run_distance"] == "0"
    assert str(tmp_path / "a" / "u0.bin") in rep.files
    read = io.read_field_dump

    def nudged(path):
        u = read(path)
        u.values[0, 16] += 1e-3
        return u
    monkeypatch.setattr(io, "read_field_dump", nudged)
    rep = study_uniqueness(cfg, str(tmp_path / "b"), seed=7)
    assert not rep.passed
    assert float(rep.summary["identical_run_distance"]) > 1e-8


@pytest.mark.parametrize("ibm_snaps", [None, [0.05, 0.15]])
def test_cli_large_k_snapshot_beyond_pde_horizon_is_usage_error(
        tmp_path, capsys, ibm_snaps):
    # IBM snapshots (by default at ibm.t_end = 0.2) past pde.t_end = 0.1
    # have no PDE snapshot to compare with
    cfg = study_cfg("study-large-k")
    cfg["ibm"]["t_end"] = 0.2
    cfg["ibm"].pop("snapshot_times")
    if ibm_snaps is not None:
        cfg["ibm"]["snapshot_times"] = ibm_snaps
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert cli.main(["study-large-k", "--config", path,
                     "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "ibm.snapshot_times" in err and "ibm.t_end" in err
    assert "pde.t_end" in err
    assert not (out / "large_k.csv").exists()


def test_cli_large_k_resume_recomputes_entries_cached_before_binning(
        tmp_path, capsys, monkeypatch):
    from crossdiff import studies
    cfg = study_cfg("study-large-k")
    path = write_cfg(tmp_path, cfg)
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    code = cli.main(["study-large-k", "--config", path, "--out", str(fresh)])
    # unbinned distances, under the key and in the form they had before
    # the observable was BL(P_h mu_K, u_h)
    parsed = load_config(path)
    h, seed = studies._cache_key(parsed), parsed["seed"]
    for K in cfg["ibm"]["K"]:
        for rep in range(cfg["ibm"]["replicas"]):
            studies._cache_store(
                str(stale), studies._cache_key("large-k", h, seed, K, rep),
                {"0.1": 123.0})
    runs, simulate = [], studies.ibm.simulate

    def counted(*args, **kwargs):
        runs.append(args[2].K)
        return simulate(*args, **kwargs)
    monkeypatch.setattr(studies.ibm, "simulate", counted)
    assert cli.main(["study-large-k", "--config", path, "--out", str(stale),
                     "--resume"]) == code
    assert len(runs) == len(cfg["ibm"]["K"]) * cfg["ibm"]["replicas"]
    assert ((stale / "large_k.csv").read_bytes()
            == (fresh / "large_k.csv").read_bytes())
    # the entries written now hold distance and q: a rerun reads them all
    runs.clear()
    assert cli.main(["study-large-k", "--config", path, "--out", str(stale),
                     "--resume"]) == code
    assert runs == []
    assert ((stale / "large_k.csv").read_bytes()
            == (fresh / "large_k.csv").read_bytes())


def test_cli_large_k_in_2d_with_two_species(tmp_path, capsys):
    from crossdiff import ibm, pde, studies
    from crossdiff.metrics import bl_distance_fields
    cfg = {
        "seed": 5,
        "model": {"M": 2, "dim": 2, "family": "constant-coefficients",
                  "params": {"sigma0": 0.3}, "r": [0.2, 0.2],
                  "rbar": [0.2, 0.2],
                  "kernels": {"C": {"family": "gaussian", "bandwidth": 0.5,
                                    "amplitudes": [[0.5, 0.2],
                                                   [0.2, 0.5]]}}},
        "initial": [{"mass": 0.5, "kind": "gaussian", "std": 0.6},
                    {"mass": 0.4, "kind": "gaussian", "mean": [0.3, 0.0],
                     "std": 0.6}],
        "ibm": {"K": [20, 80], "dt": 0.05, "t_end": 0.1, "replicas": 2,
                "snapshot_times": [0.1]},
        "pde": {"lo": -3.0, "hi": 3.0, "cells": 8, "dt": 0.01,
                "t_end": 0.1},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert cli.main(["study-large-k", "--config", path, "--out", str(out),
                     "--workers", "2"]) in (cli.EXIT_OK, cli.EXIT_CHECK)
    with open(out / "large_k.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2

    def one_species(f, i):
        return GridField(f.lo, f.hi, f.values[i:i + 1], f.time)

    # each replica again, with one bl_distance_fields call per species
    parsed = load_config(path)
    model, init = build_model(parsed), build_initial(parsed)
    sp = solver_params(parsed)
    sp.snapshot_times = (0.1,)
    u = pde.solve(model, project_to_grid(init, *grid_box(parsed)),
                  sp).at_time(0.1)
    for n, (K, row) in enumerate(zip(cfg["ibm"]["K"], rows)):
        dists, qs = [], []
        for rep in range(2):
            params = sim_params(parsed, K, studies._sub_seed(5, n, rep))
            params.snapshot_times = sp.snapshot_times
            state = ibm.simulate(model, init, params).snapshots[-1][1]
            binned, q = studies._binned(state, u)
            dists.append(sum(bl_distance_fields(one_species(binned, i),
                                                one_species(u, i)).value
                             for i in range(2)))
            qs.append(q)
        assert int(row["K"]) == K
        assert float(row["mean_bl_distance"]) == pytest.approx(
            np.mean(dists), rel=1e-10)
        q_col = float(row["quantization"])
        assert math.isfinite(q_col) and q_col > 0.0
        assert q_col == pytest.approx(np.mean(qs), rel=1e-10)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_cli_study_flow_rejects_fewer_than_two_paths(tmp_path, capsys,
                                                     n_paths):
    # the verdict needs a sample standard error, so at least two paths
    cfg = study_cfg("study-flow")
    cfg["flow"]["n_paths"] = n_paths
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["study-flow", "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_USAGE
    assert "flow.n_paths must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "flow_density.csv").exists()


@pytest.mark.parametrize("verb,section,key,value", [
    ("simulate-ibm", "ibm", "K", 200),
    ("study-large-k", "ibm", "K", 200),
    ("study-uniqueness", "uniqueness", "deltas", [0.2, 0.0]),
    ("study-uniqueness", "uniqueness", "shift_axis", 1),
    ("study-uniqueness", "uniqueness", "shift_axis", -1),
    # integer keys take an int or an integral float, in their range
    *[("solve-pde", "model", "dim", v) for v in (1.5, "2", True, 0, 3)],
    *[("solve-pde", "pde", "cells", v) for v in (12.7, "12", True, 1)],
    ("solve-pde", "model", "M", 0),
    ("simulate-ibm", "ibm", "K", [50.7]),
    ("study-large-k", "ibm", "replicas", 2.5),
    ("study-uniqueness", "uniqueness", "shift_axis", "0"),
    ("solve-pde", "pde", "snapshot_times", [[0.05]]),
    # times off the step grid (ibm.dt 0.05, pde.dt 0.005)
    ("simulate-ibm", "ibm", "t_end", 0.23),
    ("solve-pde", "pde", "t_end", 0.1003),
    ("simulate-ibm", "ibm", "snapshot_times", [0.07]),
    ("solve-pde", "pde", "snapshot_times", [0.0013]),
    # flow.t (pde.t_end 0.1 for flow, 0.05 for study-flow) off the grid of
    # flow.dt, and a flow.dt below pde.dt / 10 = 0.0005
    ("flow", "flow", "dt", 0.003), ("study-flow", "flow", "dt", 0.003),
    ("study-flow", "flow", "dt", 0.0004),
    ("study-dirac", "pde", "eps", [0.1, -0.1]),
    ("study-dirac", "pde", "eps", [0.1, 0.0]),
    # vectors of numbers: M = 1 and dim = 1
    *[("solve-pde", "model", "comp", v)
      for v in ([[0.5, 0.5]], [[0.5], [0.5]], [[-0.5]], [["x"]])],
    *[("solve-pde", "initial[0]", key, [1.0, 2.0])
      for key in ("mean", "lo", "hi", "center")],
])
def test_cli_config_value_errors_name_their_key(tmp_path, capsys, verb,
                                                section, key, value):
    cfg = study_cfg(verb)
    spec = (cfg["initial"][0] if section == "initial[0]"
            else cfg.setdefault(section, {}))
    spec[key] = value
    path = write_cfg(tmp_path, cfg)
    assert cli.main([verb, "--config", path,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("model,names", [
    ({"params": {"sigma": 0.3, "bogus": 7}},
     ["model.params.bogus", "model.params.sigma"]),
    ({"params": {"lipschitz_bound": 2.0}}, ["model.params.lipschitz_bound"]),
    ({"family": "isotropic-saturating", "params": {"sigma0": 0.3}},
     ["model.params.sigma0"]),
    ({"family": "attraction-drift", "params": {"alpha": True}},
     ["model.params.alpha"]),
    ({"family": "isotropic-saturating", "params": {"psi_max": -1}},
     ["model.params.psi_max"]),
    ({"params": {"sigma0": [0.3]}}, ["model.params.sigma0"]),
    ({"params": {"drift0": [0.1, 0.1]}}, ["model.params.drift0"]),
    ({"family": "no-such-family"}, ["model.family"]),
    ({"growth": [{"kind": "constant", "rate": 0.2}] * 2},
     ["model.r", "model.growth"]),
    ({"comp": [[1.0, 0.5], [0.5]]}, ["model.comp[1]"]),
])
def test_cli_model_errors_name_their_keys(tmp_path, capsys, model, names):
    # two species, so a per-species parameter of one entry has the wrong
    # length; each family takes only its own params, and the growth rates
    # come from model.r or model.growth, not both
    cfg = base_cfg()
    cfg["model"].update({"M": 2, "r": [0.2, 0.2], "rbar": [1.0, 1.0],
                         "comp": [[0.5, 0.2], [0.2, 0.5]]})
    cfg["model"].update(model)
    cfg["initial"] *= 2
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["solve-pde", "--config", path,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "Traceback" not in err


@pytest.mark.parametrize("seed", [1.5, -1, "7"])
def test_cli_seed_must_be_a_nonnegative_integer(tmp_path, capsys, seed):
    cfg = base_cfg()
    cfg["seed"] = seed
    path = write_cfg(tmp_path, cfg)
    assert cli.main(["solve-pde", "--config", path,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "seed must" in err and "Traceback" not in err


@pytest.mark.parametrize("verb,section,key", [
    ("simulate-ibm", "ibm", "t_end"), ("simulate-ibm", "ibm", "dt"),
    ("solve-pde", "pde", "lo"), ("solve-pde", "pde", "hi"),
    ("solve-pde", "pde", "cells"), ("solve-pde", "pde", "dt"),
    ("solve-pde", "pde", "t_end"), ("study-large-k", "ibm", "t_end"),
    ("flow", "pde", "t_end"),
])
def test_cli_missing_required_key_names_it(tmp_path, capsys, verb, section,
                                           key):
    cfg = base_cfg()
    del cfg[section][key]
    path = write_cfg(tmp_path, cfg)
    assert cli.main([verb, "--config", path,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and "Traceback" not in err


def test_cli_flow_rejects_zero_paths_before_solving(tmp_path, capsys,
                                                    monkeypatch):
    from crossdiff import studies
    solves = []
    monkeypatch.setattr(studies.pde, "solve",
                        lambda *args, **kwargs: solves.append(args))
    cfg = study_cfg("study-flow")
    cfg["flow"]["n_paths"] = 0
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["flow", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE and solves == []
    assert "flow.n_paths must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("t", [0.001, -0.5, 0.0501])
@pytest.mark.parametrize("verb,table", [("flow", "flow_diagnostics.csv"),
                                        ("study-flow", "flow_density.csv")])
def test_cli_flow_horizon_off_the_step_grid_names_its_keys(tmp_path, capsys,
                                                           verb, table, t):
    # with pde.dt = 0.005, flow.t must be a positive whole number of steps:
    # 0.001 would round to a zero horizon, -0.5 is negative, and 0.0501
    # would run to 0.05
    cfg = study_cfg("study-flow")
    cfg["flow"]["t"] = t
    path = write_cfg(tmp_path, cfg)
    code = cli.main([verb, "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "flow.t" in err and "pde.dt" in err and "Traceback" not in err
    assert not (tmp_path / "o" / table).exists()


@pytest.mark.parametrize("verb,table", [("flow", "flow_diagnostics.csv"),
                                        ("study-flow", "flow_density.csv")])
def test_cli_flow_runs_on_a_snapshot_plan_within_ten_flow_steps(
        tmp_path, capsys, verb, table):
    # flow.t = 0.06 is 20 steps pde.dt = 0.003 and 30 steps flow.dt = 0.002;
    # snapshots every 6 PDE steps lie 0.018 apart, within 10 flow.dt
    cfg = study_cfg("study-flow")
    cfg["pde"].update({"dt": 0.003, "t_end": 0.06,
                       "snapshot_times": [0.0, 0.06]})
    cfg["flow"].update({"t": 0.06, "dt": 0.002})
    path = write_cfg(tmp_path, cfg)
    code = cli.main([verb, "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_OK, err
    assert (tmp_path / "o" / table).exists()


@pytest.mark.parametrize("dt", [0.0, -0.01])
@pytest.mark.parametrize("verb,table", [("flow", "flow_diagnostics.csv"),
                                        ("study-flow", "flow_density.csv")])
def test_cli_flow_step_must_be_positive(tmp_path, capsys, verb, table, dt):
    cfg = study_cfg("study-flow")
    cfg["flow"]["dt"] = dt
    path = write_cfg(tmp_path, cfg)
    code = cli.main([verb, "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "flow.dt" in err and "Traceback" not in err
    assert not (tmp_path / "o" / table).exists()


@pytest.mark.parametrize("species", [3, -1, 0.5])
@pytest.mark.parametrize("verb,table", [("flow", "flow_diagnostics.csv"),
                                        ("study-flow", "flow_density.csv")])
def test_cli_flow_species_must_lie_in_range(tmp_path, capsys, verb, table,
                                            species):
    # one species: 3 is no species, -1 must not mean the last one, and 0.5
    # must not be truncated to species 0
    cfg = study_cfg("study-flow")
    cfg["flow"]["species"] = species
    path = write_cfg(tmp_path, cfg)
    code = cli.main([verb, "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "flow.species" in err and "Traceback" not in err
    assert not (tmp_path / "o" / table).exists()


@pytest.mark.parametrize("verb", ["flow", "study-flow"])
def test_cli_flow_in_2d_needs_probes(tmp_path, capsys, verb):
    # the default probes are axis-0 quantiles, which are points only in 1-d
    cfg = study_cfg("study-flow")
    cfg["model"]["dim"] = 2
    path = write_cfg(tmp_path, cfg)
    code = cli.main([verb, "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    assert "flow.probes" in capsys.readouterr().err


def test_cli_flow_2d_probe_column_parses_to_floats(tmp_path, capsys):
    cfg = study_cfg("study-flow")
    cfg["model"]["dim"] = 2
    cfg["flow"]["probes"] = [[0.0, 0.0], [0.3, 0.1]]
    path = write_cfg(tmp_path, cfg)
    code = cli.main(["flow", "--config", path, "--out", str(tmp_path / "o")])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK)
    with open(tmp_path / "o" / "flow_diagnostics.csv", newline="") as f:
        ys = [json.loads(row["y"]) for row in csv.DictReader(f)]
    assert ys == [[0.0, 0.0], [0.3, 0.1]]


def _scipy_modules_after(code, *args):
    """scipy modules loaded by a fresh interpreter that runs code."""
    code += ("; import json; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('scipy'))))")
    src = os.path.dirname(os.path.dirname(crossdiff.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_package_import_leaves_slow_scipy_modules_unloaded():
    # scipy adds hundreds of milliseconds to every process start; only a
    # BL solve imports it, when it runs
    assert _scipy_modules_after(
        "import sys, crossdiff, crossdiff.cli, crossdiff.studies") == []


def test_cli_study_flow_1d_loads_no_scipy(tmp_path):
    path = write_cfg(tmp_path, study_cfg("study-flow"))
    code = ("import sys; from crossdiff import cli; "
            "code = cli.main(['study-flow', '--config', sys.argv[1], "
            "'--out', sys.argv[2]]); assert code == cli.EXIT_OK, code")
    assert _scipy_modules_after(code, path, str(tmp_path / "o")) == []
    assert (tmp_path / "o" / "flow_density.csv").exists()


def test_cli_study_flow_2d_table_loads_no_scipy(tmp_path):
    # a Gaussian C builds a 2-d table, fitted and read in numpy
    cfg = study_cfg("study-flow")
    cfg["model"].update({"dim": 2, "kernels": {
        "C": {"family": "gaussian", "bandwidth": 0.5}}})
    cfg["pde"].update({"lo": -4.0, "hi": 4.0, "cells": 8, "t_end": 0.02,
                       "snapshot_times": [0.0, 0.02]})
    cfg["flow"] = {"t": 0.02, "dt": 0.005, "n_paths": 4,
                   "probes": [[0.0, 0.0]]}
    path = write_cfg(tmp_path, cfg)
    code = ("import sys; from crossdiff import cli, flow; built = []; "
            "fit = flow.FrozenCoefficients.from_pde; "
            "flow.FrozenCoefficients.from_pde = "
            "lambda *a: built.append(fit(*a)) or built[-1]; "
            "code = cli.main(['study-flow', '--config', sys.argv[1], "
            "'--out', sys.argv[2]]); assert code == cli.EXIT_OK, code; "
            "assert built and all(c.tables for c in built), built")
    assert _scipy_modules_after(code, path, str(tmp_path / "o")) == []
    assert (tmp_path / "o" / "flow_density.csv").exists()


def test_bl_distance_1d_loads_optimize_not_interpolate():
    # scipy.optimize itself loads scipy.spatial (its shgo solver), so the
    # 1-d solve is checked for the modules only the flow tables would load
    loaded = _scipy_modules_after(
        "import sys; from crossdiff.metrics import DiscreteMeasure, "
        "bl_distance; bl_distance(DiscreteMeasure([[0.0], [1.0]], [1, 1]), "
        "DiscreteMeasure([[0.5]], [1.0]))")
    assert "scipy.optimize" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.interpolate",
                                                   "scipy.integrate"))]

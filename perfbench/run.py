"""Benchmark of the crossdiff studies: one workload per run.

    python3 perfbench/run.py --workload large-k [--seed 11] [--seconds 20]
                             [--trace 0|1] [--tiny]

Run from the root of a source checkout; the program is imported from src/.
A round is one study call on a fresh output directory (so the sub-run cache
never hits), followed by the checks of its written table.  The run repeats
rounds until --seconds have passed and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: the median round wall time,
set-up time (median of separate processes that import the program and build
the config) and the peak RSS of this process.  --trace 1 alternates untraced
and traced rounds, checks the values captured at the layer boundaries, and
reports the per-layer metrics with the tracing overhead.  See README.md.
"""

import os

# One BLAS thread per process, fixed before numpy loads: the large-k study
# pool's two workers are the only parallelism on a 2-CPU machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
PROBE_TIMEOUT = 60

sys.path.insert(0, os.path.join(ROOT, "src"))

import crossdiff.studies as studies  # noqa: E402  (needs a source checkout)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Seconds from starting a process to its built config."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _openblas(libdir: str):
    """Thread count of the OpenBLAS bundled in libdir, if one is found."""
    import ctypes
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][
                "blas"]["version"]
        except (KeyError, TypeError):
            return None

    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        src.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            src.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10).stdout.strip()
        if not top or os.path.realpath(top) != os.path.realpath(ROOT):
            commit = None      # not a git checkout of its own
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads_requested": int(BLAS_THREADS),
        "numpy_openblas_threads": _openblas(
            os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                         "numpy.libs")),
        "scipy_openblas_threads": _openblas(
            os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                         "scipy.libs")),
    }


def run_round(name, cfg, seed, out_dir, tracer=None):
    """One study call; returns (wall seconds, failures, layer metrics)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    layer = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        study = getattr(studies, workloads.STUDY[name])
        start = time.perf_counter()
        report = study(cfg, out_dir, seed, workers=workloads.workers(name),
                       resume=False)
        wall = time.perf_counter() - start
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, ["study raised"], None
    finally:
        if tracer is not None:
            tracer.uninstall()
    fails = workloads.check_table(name, cfg, report, out_dir)
    if tracer is not None:
        layer, calls = spans.layer_metrics(tracer.spans,
                                           workloads.workers(name))
        fails += checks.check_captured(name, tracer.captured)
        ops = workloads.operation_calls(calls)
        if ops != workloads.operations(name, cfg):
            fails.append(f"traced {ops} operations, config implies "
                         f"{workloads.operations(name, cfg)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, fails, layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.STUDY)
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the workload's acceptance seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes instead of the benchmark sizes")
    args = ap.parse_args(argv)
    name = args.workload
    seed = workloads.DEFAULT_SEEDS[name] if args.seed is None else args.seed

    setup = ([_probe_setup(name, seed, args.tiny)
              for _ in range(SETUP_PROBES)] if not args.trace else [])
    cfg = workloads.config(name, seed, args.tiny)
    env = environment()
    ops = workloads.operations(name, cfg)
    out_dir = os.path.join(OUT, f"{name}-s{seed}-p{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None

    walls = {False: [], True: []}
    layers, failures = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        wall, fails, layer = run_round(name, cfg, seed, out_dir,
                                       tracer if traced else None)
        attempted += ops
        if fails:
            failed += ops
            failures += fails
        elif traced:
            layers.append(layer)
        if wall is not None:
            walls[traced].append(wall)
        done = time.perf_counter() - begin >= args.seconds
        if done and (not args.trace or walls[True] or failures):
            break

    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    median = statistics.median
    values = {}
    if args.trace and layers:
        values = {key: median(lay[key] for lay in layers) for key in layers[0]}
        traced, untraced = median(walls[True]), median(walls[False])
        values["trace.wall_s"] = traced
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_frac"] = traced / untraced - 1.0
    elif not args.trace:
        if walls[False]:
            values["wall_s"] = median(walls[False])
        values["setup_s"] = median(setup)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    record = {"workload": name, "seed": seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "rounds": walls[False],
              "traced_rounds": walls[True], "setup": setup,
              "failures": failures, "metrics": metrics}
    if tracer is not None:
        record["spans"] = [vars(s) for s in tracer.spans]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-s{seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f)
    print(json.dumps({"env": env, "rounds": len(walls[False]),
                      "traced_rounds": len(walls[True])}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

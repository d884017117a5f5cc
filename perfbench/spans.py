"""Spans around the public functions of the crossdiff layers.

The tracer swaps each traced function for a wrapper that records a span
(name, start, end, parent, thread) and a work count computed from the
argument sizes.  Callers bind imported names at import time (for example
`from .kernels import convolve_empirical` in ibm), so the wrapper replaces
the name in every crossdiff module that holds the function, not only in the
module that defines it.  Spans are kept in memory; `uninstall` restores the
originals.

Parents are tracked per thread.  A span opened on a thread with no open span
(a study pool worker) takes the outermost span of the run as its parent, so
the study's self time is its duration minus the union of its children's
intervals over all threads, and one worker's spans never count as children
of a span on the other worker.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: float


def _steps(t, dt):
    return max(1, int(round(t / dt)))


# Work counts from argument sizes, per traced function.
def _pairs_empirical(a, k, r):
    return float(np.atleast_2d(a[2]).shape[0] * a[1].n_atoms)


def _pairs_field(a, k, r):
    return float(np.atleast_2d(a[3]).shape[0] * a[1].values[0].size)


def _particles(a, k, r):
    return float(sum(s.positions.shape[0] for s in a[0].species))


def _cells(a, k, r):
    return float(a[0].values.size)


def _fk_path_steps(a, k, r):
    # (coeffs, model, phi, i, t, n_paths, dt, rng): one path per positive
    # cell of the initial field and replica
    u0 = a[0].fields[0]
    return float((u0.values[a[3]] > 0).sum() * a[5] * _steps(a[4], a[6]))


def _inverse_path_steps(a, k, r):
    # (coeffs, i, t, y, dt, ...)
    return float(len(a[3]) * _steps(a[2], a[4]))


def _lp_rows(a, k, r):
    return float(k["A_ub"].shape[0])


def _support_points(a, k, r):
    return float(len(r.certificate.get("points", ())))


# (module, attribute, span name, work count).  Classes are given as
# "module:Class" and their method is wrapped on the class.
TARGETS = [
    ("crossdiff.kernels", "convolve_empirical",
     "kernels.convolve_empirical", _pairs_empirical),
    ("crossdiff.kernels", "convolve_field", "kernels.convolve_field",
     _pairs_field),
    ("crossdiff.kernels", "convolve_field_grid",
     "kernels.convolve_field_grid", None),
    ("crossdiff.ibm", "simulate", "ibm.simulate", None),
    ("crossdiff.ibm", "step_diffuse", "ibm.step_diffuse", _particles),
    ("crossdiff.ibm", "step_demography", "ibm.step_demography", None),
    ("crossdiff.pde", "solve", "pde.solve", None),
    ("crossdiff.pde", "step", "pde.step", _cells),
    ("crossdiff.flow:FrozenCoefficients", "fk_rate", "flow.fk_rate", None),
    ("crossdiff.flow", "feynman_kac_functional",
     "flow.feynman_kac_functional", _fk_path_steps),
    ("crossdiff.flow", "inverse_flow", "flow.inverse_flow",
     _inverse_path_steps),
    ("crossdiff.flow", "density_estimate", "flow.density_estimate", None),
    ("crossdiff.metrics", "bl_distance", "metrics.bl_distance",
     _support_points),
    ("crossdiff.metrics", "linprog", "metrics.linprog", _lp_rows),
    ("crossdiff.io", "write_rows_csv", "io.write", None),
    ("crossdiff.io", "write_text", "io.write", None),
    ("crossdiff.studies", "study_large_k", "studies", None),
    ("crossdiff.studies", "study_dirac", "studies", None),
    ("crossdiff.studies", "study_flow", "studies", None),
    ("crossdiff.studies", "study_uniqueness", "studies", None),
]

# Calls whose arguments and result the boundary checks read.
CAPTURE = {"metrics.bl_distance", "ibm.simulate", "pde.solve",
           "flow.inverse_flow"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.captured: list[tuple] = []     # (name, args, kwargs, result)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple] = []     # (owner, attribute, original)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        import crossdiff.studies  # noqa: F401  (imports every layer)
        mods = [m for n, m in list(sys.modules.items())
                if n == "crossdiff" or n.startswith("crossdiff.")]
        for where, attr, name, work in TARGETS:
            modname, _, cls = where.partition(":")
            owner = sys.modules[modname]
            if cls:
                owner = getattr(owner, cls)
                self._patch(owner, attr, self._wrap(getattr(owner, attr),
                                                    name, work))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, work)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.captured = []

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, work):
        capture = name in CAPTURE
        lock = self._lock

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            with lock:
                sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
            w = work(args, kwargs, result) if work else 0.0
            with lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), w))
                if capture:
                    self.captured.append((name, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


# ---------------------------------------------------------------------
# per-layer metrics

def _union(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s if cur_e is not None else 0.0)


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end))
                for c in children[sp.sid]]
        out[sp.sid] = (sp.end - sp.start) - _union(
            [k for k in kids if k[1] > k[0]])
    return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, workers: int) -> tuple:
    """Per-layer metrics of one traced round by name (see BENCHMARK.json),
    and the call count of each span name."""
    selfs = self_times(spans)
    s = defaultdict(float)       # inclusive seconds
    own = defaultdict(float)     # self seconds
    calls = defaultdict(int)
    work = defaultdict(float)
    for sp in spans:
        s[sp.name] += sp.end - sp.start
        own[sp.name] += selfs[sp.sid]
        calls[sp.name] += 1
        work[sp.name] += sp.work
    study = [sp for sp in spans if sp.name == "studies"]
    study_wall = sum(sp.end - sp.start for sp in study)
    busy = sum(sp.end - sp.start for sp in spans
               if sp.parent in {st.sid for st in study})
    m = {}
    for k in ("convolve_empirical", "convolve_field"):
        name = f"kernels.{k}"
        m[f"{name}.s"] = s[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.pairs_per_s"] = _rate(work[name], s[name])
    m["kernels.convolve_field_grid.s"] = s["kernels.convolve_field_grid"]
    m["kernels.convolve_field_grid.calls"] = \
        calls["kernels.convolve_field_grid"]
    m["ibm.simulate.s"] = s["ibm.simulate"]
    m["ibm.step_diffuse.self_s"] = own["ibm.step_diffuse"]
    m["ibm.step_demography.self_s"] = own["ibm.step_demography"]
    m["ibm.particle_steps_per_s"] = _rate(work["ibm.step_diffuse"],
                                          s["ibm.simulate"])
    m["pde.solve.s"] = s["pde.solve"]
    m["pde.step.calls"] = calls["pde.step"]
    m["pde.step.self_s"] = own["pde.step"]
    m["pde.cell_steps_per_s"] = _rate(work["pde.step"], s["pde.step"])
    for k in ("fk_rate", "feynman_kac_functional", "inverse_flow",
              "density_estimate"):
        m[f"flow.{k}.self_s"] = own[f"flow.{k}"]
    m["flow.path_steps_per_s"] = _rate(
        work["flow.feynman_kac_functional"] + work["flow.inverse_flow"],
        s["flow.feynman_kac_functional"] + s["flow.density_estimate"])
    m["metrics.bl_distance.s"] = s["metrics.bl_distance"]
    m["metrics.bl_distance.calls"] = calls["metrics.bl_distance"]
    # mean over the calls that reached the solver: equal measures return 0
    # before it, with no support
    support = [sp.work for sp in spans
               if sp.name == "metrics.bl_distance" and sp.work > 0]
    m["metrics.bl_distance.support_points"] = (
        sum(support) / len(support) if support else 0.0)
    m["metrics.linprog.s"] = s["metrics.linprog"]
    m["metrics.linprog.calls"] = calls["metrics.linprog"]
    m["metrics.linprog.rows"] = (
        work["metrics.linprog"] / calls["metrics.linprog"]
        if calls["metrics.linprog"] else 0.0)
    m["studies.self_s"] = own["studies"]
    m["studies.pool_busy_fraction"] = (
        busy / (workers * study_wall) if study_wall > 0 else 0.0)
    m["io.write.s"] = s["io.write"]
    m["io.write.calls"] = calls["io.write"]
    return m, dict(calls)

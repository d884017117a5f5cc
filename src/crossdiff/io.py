"""Serialization: particle CSVs, field CSVs, binary field dumps with JSON
headers, study tables and atomic run manifests.

All writes go through a temp-file-then-rename step so partially written
artifacts never appear under their final names.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time as _time

import numpy as np

from .grids import GridField


# ---------------------------------------------------------------------
# atomic write helper

def _atomic_write(path: str, data: bytes):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    # a plain open() mode, so the umask applies (mkstemp forces 0600); the
    # random name and O_EXCL keep concurrent writers apart
    tmp = os.path.join(d, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path: str, text: str):
    _atomic_write(path, text.encode())


# ---------------------------------------------------------------------
# particle snapshots

def write_particles_csv(path: str, trajectory):
    """One row per particle per snapshot: time, species, id, x0..x{d-1}."""
    d = trajectory.snapshots[0][1].species[0].positions.shape[1]
    rows = [["time", "species", "id"] + [f"x{k}" for k in range(d)]]
    for t, state in trajectory.snapshots:
        for i, st in enumerate(state.species):
            for pid, pos in zip(st.ids, st.positions):
                rows.append([f"{t:.12g}", i, int(pid)]
                            + [f"{c:.17g}" for c in pos])
    _atomic_write(path, _csv_bytes(rows))


def _csv_bytes(rows) -> bytes:
    import io as _io
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerows(rows)
    return buf.getvalue().encode()


def write_rows_csv(path: str, header, rows):
    out = [list(header)]
    for r in rows:
        out.append([f"{v:.12g}" if isinstance(v, float) else v for v in r])
    _atomic_write(path, _csv_bytes(out))


# ---------------------------------------------------------------------
# grid fields

def write_field_csv(path: str, u: GridField):
    """Cell centers plus one value column per species."""
    pts = u.centers()
    M = u.n_species
    header = [f"x{k}" for k in range(u.dim)] + [f"u{i}" for i in range(M)]
    vals = [u.values[i].ravel() for i in range(M)]
    rows = [header]
    for n in range(pts.shape[0]):
        rows.append([f"{c:.17g}" for c in pts[n]]
                    + [f"{v[n]:.17g}" for v in vals])
    _atomic_write(path, _csv_bytes(rows))


def write_field_dump(path: str, u: GridField):
    """Binary row-major float64 dump prefixed by a length-framed JSON header."""
    header = {
        "format": "crossdiff-field-v1",
        "dims": list(u.shape),
        "n_species": u.n_species,
        "lo": [float(v) for v in u.lo],
        "hi": [float(v) for v in u.hi],
        "time": float(u.time),
        "dtype": "<f8",
    }
    hb = json.dumps(header, sort_keys=True).encode()
    body = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    _atomic_write(path, len(hb).to_bytes(8, "little") + hb + body)


def read_field_dump(path: str) -> GridField:
    with open(path, "rb") as f:
        n = int.from_bytes(f.read(8), "little")
        header = json.loads(f.read(n).decode())
        if header.get("format") != "crossdiff-field-v1":
            raise ValueError(f"{path}: not a crossdiff field dump")
        shape = (header["n_species"],) + tuple(header["dims"])
        body = np.frombuffer(f.read(), dtype=header["dtype"]).reshape(shape)
    return GridField(np.array(header["lo"]), np.array(header["hi"]),
                     body.copy(), header["time"])


# ---------------------------------------------------------------------
# run manifests

def config_hash(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_manifest(path: str, *, config_path=None, seed=None, command=None,
                   started=None, summary=None, passed=None, files=None):
    manifest = {
        "schema": "crossdiff-manifest-v1",
        "command": command,
        "config_hash": config_hash(config_path) if config_path else None,
        "seed": seed,
        "wallclock_seconds": (None if started is None
                              else round(_time.time() - started, 3)),
        "summary": summary or {},
        "passed": passed,
        "files": files or [],
    }
    _atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True,
                                    default=_json_default)
                         + "\n").encode())
    return manifest


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")

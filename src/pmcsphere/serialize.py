"""
File formats: harmonic-field JSON, affine JSON, OBJ meshes, run manifests.

All JSON is written with fixed field ordering (insertion order of explicitly
constructed dicts) and floats at 17 significant digits, so identical inputs
produce byte-identical outputs.  The run manifest additionally carries a
timestamp and wall-time and is the one output exempt from byte determinism.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from datetime import datetime, timezone

import numpy as np

from .errors import InputError
from .grid import HarmonicField, SphericalGrid, synthesize, synthesize_at
from .planar import PlanarImmersion


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact float64 round-trip."""
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite float {x!r}")
    return f"{float(x):.17g}"


def dumps(obj, indent=0) -> str:
    """Deterministic JSON text: insertion-ordered dicts, %.17g floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {dumps(v, indent + 2).lstrip()}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {dumps(v, indent + 2).lstrip()}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


# ----------------------------------------------------------------------
# harmonic fields and affine functions
# ----------------------------------------------------------------------

def field_to_dict(field: HarmonicField) -> dict:
    """Schema: {"components": c, "L": L, "coeffs": [[comp, l, m, value], ...]}.

    Missing (comp, l, m) triples are zero.
    """
    L = field.degree
    triples = []
    for c in range(field.n_components):
        for l in range(L + 1):
            for m in range(-l, l + 1):
                v = field.coeffs[c, l, L + m]
                if v != 0.0:
                    triples.append([c, l, m, float(v)])
    return {"components": field.n_components, "L": L, "coeffs": triples}


def field_from_dict(data: dict) -> HarmonicField:
    try:
        ncomp = int(data["components"])
        L = int(data["L"])
        triples = data["coeffs"]
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad harmonic-field JSON: {err}") from err
    if ncomp not in (1, 3) or L < 0:
        raise InputError(f"bad field header: components={ncomp}, L={L}")
    coeffs = np.zeros((ncomp, L + 1, 2 * L + 1))
    for item in triples:
        try:
            c, l, m, v = int(item[0]), int(item[1]), int(item[2]), float(item[3])
        except (TypeError, ValueError, IndexError) as err:
            raise InputError(f"bad coefficient entry {item!r}") from err
        if not (0 <= c < ncomp and 0 <= l <= L and -l <= m <= l):
            raise InputError(f"coefficient index out of range: {item!r}")
        coeffs[c, l, L + m] = v
    return HarmonicField(coeffs)


def load_field(path: str) -> HarmonicField:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    return field_from_dict(data)


def affine_to_dict(affine) -> dict:
    return {"b": [float(v) for v in affine.b]}


def affine_from_dict(data: dict):
    from .affine import AffineFunction

    try:
        return AffineFunction(np.asarray(data["b"], dtype=float))
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"bad affine JSON: {err}") from err


# ----------------------------------------------------------------------
# OBJ export
# ----------------------------------------------------------------------

def export_obj(surface, path: str, grid: SphericalGrid = None) -> None:
    """Write an OBJ mesh of a sphere immersion or a planar immersion.

    Sphere grids are seam-closed in longitude with triangle fans at the two
    poles ((L+1)(2L+2) + 2 vertices); disk grids give an open quad mesh with
    n_r * n_phi vertices.  Vertices carry 17 significant digits.
    """
    if isinstance(surface, PlanarImmersion):
        _write_obj_mesh(path, surface.F)
        return
    if isinstance(surface, HarmonicField):
        if grid is None:
            grid = SphericalGrid(max(surface.degree, 2))
        vals = synthesize(surface, grid)
        if vals.ndim == 2:
            raise InputError("OBJ export of sphere fields needs 3 components")
        poles = [synthesize_at(surface, theta, 0.0)[:, 0] for theta in (0.0, np.pi)]
        _write_obj_mesh(path, vals, poles)
        return
    raise InputError(f"cannot export {type(surface).__name__} as OBJ")


def _write_obj_mesh(path, vals, poles=()):
    """OBJ of a (3, n_rows, n_cols) vertex grid, periodic in the column:
    quads between consecutive rows and, given (north, south) pole vertices,
    a triangle fan from each pole to the first and to the last row."""
    n_rows, n_cols = vals.shape[1:]
    lines = [f"v {format_float(x)} {format_float(y)} {format_float(z)}"
             for x, y, z in np.vstack([vals.reshape(3, -1).T, *poles])]

    def vid(i, j):
        return i * n_cols + (j % n_cols) + 1

    cols, last = range(n_cols), n_rows - 1
    north, south = n_rows * n_cols + 1, n_rows * n_cols + 2
    if poles:
        lines += [f"f {north} {vid(0, j + 1)} {vid(0, j)}" for j in cols]
    lines += [f"f {vid(i, j)} {vid(i, j + 1)} {vid(i + 1, j + 1)} {vid(i + 1, j)}"
              for i in range(last) for j in cols]
    if poles:
        lines += [f"f {south} {vid(last, j)} {vid(last, j + 1)}" for j in cols]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


# ----------------------------------------------------------------------
# run manifest
# ----------------------------------------------------------------------

def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir: str, command: str, config: dict, inputs: list,
                   outputs: list, diagnostics: dict) -> str:
    """Write the single run manifest for a CLI invocation that produced
    outputs; returns its path."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {p: sha256_of(p) for p in inputs if os.path.exists(p)},
        "outputs": [os.path.basename(p) for p in outputs],
        "diagnostics": diagnostics,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(manifest, path)
    return path

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
from itertools import chain

import numpy as np

from .errors import InputError
from .grid import HarmonicField, SphericalGrid, synthesize, synthesize_at
from .planar import PlanarImmersion


FLOAT_SPEC = ".17g"  # 17 significant digits: exact float64 round-trip


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact float64 round-trip."""
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), FLOAT_SPEC)


def _format_scalar(obj) -> str:
    """JSON text of a float, bool, integer, None or string."""
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent=0) -> str:
    """Deterministic JSON text: insertion-ordered dicts, %.17g floats.

    A list of plain scalars (int, float, str, bool, None) is written on one
    line in one pass, and a list of rows of ints and finite floats (a
    field's coefficient table) with one template."""
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
            return "[" + ", ".join(map(_format_scalar, seq)) + "]"
        rows = _format_rows(seq, pad + "  ")
        if rows is not None:
            return "[\n" + rows + "\n" + pad + "]"
        items = ",\n".join(f"{pad}  {dumps(v, indent + 2).lstrip()}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    return _format_scalar(obj)


def _format_rows(rows: list, pad: str):
    """The lines of a list of equal-length lists whose every column holds
    only ints or only finite floats, in one template fill; None for any
    other list, which ``dumps`` writes item by item."""
    if not all(type(r) is list for r in rows) or len(set(map(len, rows))) != 1:
        return None
    specs = []
    for col in zip(*rows):
        types = set(map(type, col))
        if types == {int}:
            specs.append("%d")
        elif types == {float} and all(map(math.isfinite, col)):
            specs.append("%" + FLOAT_SPEC)
        else:
            return None
    if not specs:
        return None
    line = pad + "[" + ", ".join(specs) + "]"
    return ",\n".join([line] * len(rows)) % tuple(chain.from_iterable(rows))


def write_json(obj, path: str) -> None:
    """Write ``dumps(obj)`` and a newline to ``path``; a value ``dumps``
    refuses raises before the file is opened, so it leaves no file."""
    text = dumps(obj) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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
    """The HarmonicField of field_to_dict's schema; the header holds JSON
    integers.  The whole coefficient table is checked before any of it is
    used: an entry that is not a list of four JSON numbers, a non-finite
    value, a non-integral index, or an index out of range raises InputError
    naming the first such entry."""
    try:
        ncomp, L, triples = data["components"], data["L"], data["coeffs"]
    except (KeyError, TypeError) as err:
        raise InputError(f"bad harmonic-field JSON: {err}") from err
    if type(ncomp) is not int or type(L) is not int or ncomp not in (1, 3) or L < 0:
        raise InputError(f"bad field header: components={ncomp!r}, L={L!r}")
    if type(triples) is not list:
        raise InputError(f"bad harmonic-field JSON: coeffs is a {type(triples).__name__}")
    # the rows' types and lengths, the entries' types (float() reads a
    # boolean as a number), then one read of the entries
    table = None
    if (set(map(type, triples)) <= {list} and set(map(len, triples)) <= {4}
            and set(map(type, chain.from_iterable(triples))) <= {int, float}):
        try:
            table = np.fromiter(chain.from_iterable(triples), float,
                                4 * len(triples)).reshape(-1, 4)
        except OverflowError:       # an integer beyond the float range
            pass
    if (table is None or not np.isfinite(table).all()
            or (table[:, :3] != np.round(table[:, :3])).any()):
        raise InputError(f"bad coefficient entry: {next(filter(_bad_entry, triples))!r}")
    c, l, m, v = table.T
    out_of_range = ~((0 <= c) & (c < ncomp) & (0 <= l) & (l <= L) & (np.abs(m) <= l))
    if out_of_range.any():
        raise InputError(
            f"coefficient index out of range: {triples[int(np.argmax(out_of_range))]!r}")
    coeffs = np.zeros((ncomp, L + 1, 2 * L + 1))
    coeffs[c.astype(int), l.astype(int), L + m.astype(int)] = v
    return HarmonicField(coeffs)


def _bad_entry(row) -> bool:
    """Whether a coefficient entry is not four finite JSON numbers (int or
    float) with integral indices."""
    if type(row) is not list or len(row) != 4 or any(
            type(x) not in (int, float) for x in row):
        return True
    try:
        vals = np.array(row, dtype=float)
    except OverflowError:
        return True
    return not np.isfinite(vals).all() or bool((vals[:3] != np.round(vals[:3])).any())


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
    verts = np.vstack([vals.reshape(3, -1).T, *poles])
    finite = np.isfinite(verts)
    if not finite.all():
        format_float(float(verts[~finite][0]))  # raises, naming the value
    # 1-based vertex ids, and each one's neighbour one column on (seam closed)
    ids = np.arange(1, n_rows * n_cols + 1).reshape(n_rows, n_cols)
    nxt = np.roll(ids, -1, axis=1)
    faces = [np.stack([ids[:-1], nxt[:-1], nxt[1:], ids[1:]], axis=-1)]
    if poles:
        north, south = np.full(n_cols, ids.size + 1), np.full(n_cols, ids.size + 2)
        faces = [np.stack([north, nxt[0], ids[0]], axis=-1), *faces,
                 np.stack([south, ids[-1], nxt[-1]], axis=-1)]
    blocks = [("v" + f" %{FLOAT_SPEC}" * 3, verts)]
    blocks += [("f" + " %d" * f.shape[-1], f.reshape(-1, f.shape[-1])) for f in faces]
    try:
        with open(path, "w") as fh:
            for line, rows in blocks:
                fh.write(((line + "\n") * len(rows)) % tuple(rows.ravel().tolist()))
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

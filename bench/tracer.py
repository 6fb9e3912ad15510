"""Span recorder that wraps pmcsphere's public functions from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
loaded ``pmcsphere`` module that holds it under any name, because
``solver`` and ``geometry`` import ``synthesize_jet``, ``analyze`` and
``fundamental_forms`` by name and patching ``grid`` alone would miss their
calls.  ``numpy.linalg.solve`` is wrapped too, and recorded only when its
caller is ``pmcsphere.solver``.  ``Tracer.uninstall()`` puts every original
back.  No package code is changed.

A span is (name, start, end, parent span index, op id).  Spans stay in memory
until ``write`` is called at the end of a run.  A function already open on
the stack under the same name is not recorded again, so a recursive function
(``serialize.dumps``) counts its outermost calls only.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); span names double as the metric prefixes.
TRACED = (
    ("pmcsphere.grid", "synthesize_jet", "grid.synthesize_jet"),
    ("pmcsphere.grid", "analyze", "grid.analyze"),
    ("pmcsphere.grid", "synthesize_at", "grid.synthesize_at"),
    ("pmcsphere.grid", "chart_gradient", "grid.chart_gradient"),
    ("pmcsphere.geometry", "verify", "geometry.verify"),
    ("pmcsphere.geometry", "fundamental_forms", "geometry.fundamental_forms"),
    ("pmcsphere.geometry", "codazzi_residual", "geometry.codazzi_residual"),
    ("pmcsphere.geometry", "obstruction_vector", "geometry.obstruction_vector"),
    ("pmcsphere.geometry", "detect_branch_points", "geometry.detect_branch_points"),
    ("pmcsphere.planar", "weierstrass_family", "planar.family_build"),
    ("pmcsphere.planar", "enneper_blowdown", "planar.family_build"),
    ("pmcsphere.planar", "total_curvature", "planar.total_curvature"),
    ("pmcsphere.planar", "detect_branch_points_planar",
     "planar.detect_branch_points_planar"),
    ("pmcsphere.solver", "solve_pmc", "solver.solve_pmc"),
    ("pmcsphere.solver", "gauge_projected_step", "solver.gauge_projected_step"),
    ("pmcsphere.solver", "gauge_basis", "solver.gauge_basis"),
    ("pmcsphere.serialize", "load_field", "serialize.load_field"),
    ("pmcsphere.serialize", "dumps", "serialize.dumps"),
    ("pmcsphere.serialize", "export_obj", "serialize.export_obj"),
    ("pmcsphere.serialize", "write_json", "serialize.write_json"),
    ("pmcsphere.serialize", "write_manifest", "serialize.write_manifest"),
    ("pmcsphere.cli", "cli_dispatch", "cli.cli_dispatch"),
)
LINALG_SOLVE = "solver.linalg_solve"
SPAN_NAMES = sorted({name for _, _, name in TRACED} | {LINALG_SOLVE})


def pmcsphere_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "pmcsphere" or n.startswith("pmcsphere.")]


def rebind(original, replacement) -> list:
    """Replace ``original`` under every name any pmcsphere module binds it to.

    Returns the patches as (module, name, original) for ``restore``.
    """
    patches = []
    for mod in pmcsphere_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, key, original))
                setattr(mod, key, replacement)
    return patches


def restore(patches) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _add_file_size(counter, arg_index):
    """Counter hook: add the size of the file named by a call argument."""
    def hook(counters, result, args):
        counters[counter] += _file_size(args[arg_index])
    return hook


def _count_scan(prefix):
    """Counter hook for a BranchScan result: candidates and resolved points."""
    def hook(counters, result, args):
        counters[prefix + ".branch_candidates"] += (
            len(result.points) + len(result.unresolved))
        counters[prefix + ".branch_resolved"] += len(result.points)
    return hook


# Counters taken from a call's arguments or result after its span closes.
HOOKS = {
    "serialize.load_field": _add_file_size("serialize.bytes_read", 0),
    "serialize.write_json": _add_file_size("serialize.bytes_written", 1),
    "serialize.export_obj": _add_file_size("serialize.bytes_written", 1),
    "geometry.detect_branch_points": _count_scan("geometry"),
    "planar.detect_branch_points_planar": _count_scan("planar"),
}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent, op_id)
        self.counters = defaultdict(int)
        self.op_id = -1
        self.paused = False
        self._stack = []
        self._open = defaultdict(int)
        self._patches = []         # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, hook=None, caller=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if (tracer.paused or tracer._open[name]
                    or (caller and sys._getframe(1).f_globals.get("__name__") != caller)):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            tracer._open[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op_id)
            if hook is not None:
                hook(tracer.counters, result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.bench_traced = True
        return wrapper

    def install(self):
        """Wrap every traced function wherever a pmcsphere module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import everything first: a module imported after patching would
        # bind a wrapper by name and keep it after uninstall
        for mod_name, _, _ in TRACED:
            importlib.import_module(mod_name)
        for mod_name, attr, name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            self._patches += rebind(original,
                                    self._wrap(name, original, HOOKS.get(name)))
        original = np.linalg.solve
        self._patches.append((np.linalg, "solve", original))
        np.linalg.solve = self._wrap(LINALG_SOLVE, original,
                                     caller="pmcsphere.solver")
        return self

    def uninstall(self):
        restore(self._patches)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap their siblings.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters)}

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op_id}) + "\n")


def is_patched() -> bool:
    """True if any loaded pmcsphere module or numpy.linalg holds a wrapper."""
    for mod in pmcsphere_modules() + [np.linalg]:
        if any(getattr(v, "bench_traced", False) for v in vars(mod).values()):
            return True
    return False

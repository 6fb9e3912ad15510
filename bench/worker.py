"""The timed process: runs one workload's operations as a closed loop.

    python3 bench/worker.py --ops DIR/ops.json --work DIR --result FILE
        [--seconds S] [--passes N] [--mode plain|trace|memory] [--spans FILE]

One client issues each operation only after the previous one returned.  An
operation is one ``pmcsphere.cli.cli_dispatch`` call (plus, on the families
workload, the library calls ``total_curvature`` and
``detect_branch_points_planar`` on the same surface).  Passes over the
workload's operations repeat until the run ends as near to ``--seconds``
as whole passes allow (at least one pass), or exactly ``--passes`` times.
Output checks run after each operation's timed span.

Modes: ``plain`` measures; ``trace`` also records spans with ``Tracer``;
``memory`` runs under tracemalloc for the solver's memory counters.  The
BLAS thread variables must be set by the caller, before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pmcsphere.cli  # noqa: E402
import pmcsphere.planar  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, rebind, restore  # noqa: E402

DISK_N = 96  # DiskGrid resolution that ``pmc example`` uses


def _family_library_calls(op):
    planar = pmcsphere.planar
    grid = planar.DiskGrid(op["radius"], n_r=DISK_N, n_phi=DISK_N)
    if op["family"] == "enneper":
        surface = planar.enneper_blowdown(op["t"], grid)
    else:
        surface = planar.weierstrass_family(op["family"], op["k"], grid, t=op["t"])
    return (planar.total_curvature(surface, op["radii"]),
            planar.detect_branch_points_planar(surface))


def run_op(op, out_dir):
    """One timed operation.

    Returns (seconds, exit code, stdout, library results, error); an
    operation that raises has exit code None and the traceback as error.
    """
    argv = [a.replace("{out}", out_dir) for a in op["argv"]]
    buf = io.StringIO()
    rc = lib = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = pmcsphere.cli.cli_dispatch(argv)
        if op["kind"] == "family":
            lib = _family_library_calls(op)
    except Exception:  # an operation that raises is a failed operation
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, rc, buf.getvalue(), lib, error


def check_op(op, rc, stdout, out_dir, lib):
    """Returns (failure reasons, solver counts or None)."""
    if op["kind"] == "solve":
        fails, report = checks.check_solve(op, rc, out_dir)
        if report is None:
            return fails, None
        log = report["step_log"]
        return fails, {"gn_steps": len(report["residual_history"]),
                       "continuation_steps": len(log),
                       "rejected": sum(not s["converged"] for s in log)}
    if op["kind"] == "verify":
        return checks.check_verify(op, rc, stdout), None
    return checks.check_family(op, rc, out_dir, *lib, DISK_N, DISK_N), None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads_effective": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


class MemoryProbe:
    """tracemalloc counters for the solver, kept apart from timed spans.

    ``step_peak`` is the largest allocation peak inside one Gauss-Newton step
    above the bytes live when the step began; ``live_after`` holds the bytes
    still traced after ``gc.collect()`` following each solve.
    """

    def __init__(self):
        self.step_peak = 0
        self.live_after = []
        self._patches = []

    def install(self):
        import pmcsphere.solver

        tracemalloc.start()
        original = pmcsphere.solver.gauge_projected_step

        def step(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.step_peak = max(self.step_peak, peak)

        self._patches = rebind(original, step)
        return self

    def after_solve(self):
        gc.collect()
        self.live_after.append(tracemalloc.get_traced_memory()[0])

    def uninstall(self):
        restore(self._patches)
        tracemalloc.stop()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ops", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--mode", choices=("plain", "trace", "memory"), default="plain")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    with open(args.ops) as fh:
        ops = json.load(fh)["ops"]

    tracer = Tracer().install() if args.mode == "trace" else None
    probe = MemoryProbe().install() if args.mode == "memory" else None
    latencies, pass_walls, failures, solver_counts = [], [], [], []
    n_run = 0
    start = time.perf_counter()
    while True:
        pass_wall = 0.0
        for op in ops:
            out_dir = os.path.join(args.work, f"op{n_run}")
            n_run += 1
            if tracer:
                tracer.op_id, tracer.paused = n_run - 1, False
            dt, rc, stdout, lib, error = run_op(op, out_dir)
            if tracer:
                tracer.paused = True
            latencies.append(dt)
            pass_wall += dt
            fails, counts = [error] if error else [], None
            if not error:
                try:
                    fails, counts = check_op(op, rc, stdout, out_dir, lib)
                except Exception:  # a check that cannot read the output fails the op
                    fails = [traceback.format_exc(limit=3)]
            if fails:
                failures.append({"op": op["id"], "argv": op["argv"],
                                 "reason": "; ".join(fails)})
            if counts:
                solver_counts.append(counts)
            if probe and op["kind"] == "solve":
                probe.after_solve()
            shutil.rmtree(out_dir, ignore_errors=True)
        pass_walls.append(pass_wall)
        elapsed = time.perf_counter() - start
        if args.passes:
            if len(pass_walls) >= args.passes:
                break
        # stop where the run ends nearest to --seconds: one more pass only
        # if less than half of it would overshoot
        elif elapsed + statistics.median(pass_walls) / 2 > args.seconds:
            break

    result = {
        "attempted": n_run,
        "failed": len(failures),
        "failures": failures,
        "latencies": latencies,
        "pass_walls": pass_walls,
        "passes": len(pass_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "solver_counts": solver_counts,
        "env": environment(),
    }
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    if probe:
        probe.uninstall()
        live = probe.live_after
        result["memory"] = {"step_peak_mb": probe.step_peak / 1e6,
                            "retained_mb": (live[-1] - live[0]) / 1e6 if live else 0.0}
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

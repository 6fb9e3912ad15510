"""pmcsphere benchmark: one command, four workloads, end-to-end and per-layer.

    python3 bench/run.py --workload solve-L16|solve-L24|verify-L48|families
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing is built or installed.  The
inputs are made from ``--seed`` by ``bench/inputs.py`` in a separate process
before the timed process starts.  The timed process (``bench/worker.py``) is
a fresh interpreter running the workload as a closed loop with one client;
BLAS threads are set to the number of usable CPUs before numpy is imported.

The solve workloads run one pass (their six or one solves); the others
repeat passes for about ``--seconds``.  ``--trace 0`` prints the end-to-end
metrics: setup_s, wall_s, op_p50_s, op_p90_s, peak_rss_mb and
success_frac.  ``--trace 1`` runs one untraced
pass, one traced pass and, on the solve workloads, one tracemalloc pass, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Results, the environment and the span log are also written to
``.bench_out/`` in the checkout.  The meaning of every metric, the layer
each one belongs to and the workloads it should and should not move are in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-L16", "solve-L24", "verify-L48", "families")
SOLVE_WORKLOADS = ("solve-L16", "solve-L24")
COLD_STARTS = 9              # setup_s is the median of this many cold starts
VALIDATION_SEED = 2          # a second seed for checking later claims
SUBPROCESS_TIMEOUT = 170     # seconds; one run must end within 180


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cgroup_cpu_quota() -> str:
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            return fh.read().strip()
    except OSError:
        return "unreadable"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "PMC_THREADS"):
        env[var] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    subprocess.run([sys.executable] + argv, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT)


def cold_start_seconds(env) -> float:
    """Fresh interpreter until ``import pmcsphere.cli`` completes."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, pmcsphere.cli; print(time.monotonic())"],
        env=env, check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip()) - t0


def worker(work, name, env, extra):
    result = os.path.join(work, f"{name}.json")
    run_child([os.path.join(HERE, "worker.py"), "--ops",
               os.path.join(work, "inputs", "ops.json"), "--work",
               os.path.join(work, name), "--result", result] + extra, env)
    with open(result) as fh:
        return json.load(fh)


def percentile(values, q):
    """The q-th percentile (0 < q < 100), interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res, setup) -> dict:
    lat = res["latencies"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(res["pass_walls"]), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (percentile(lat, 90), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "success_frac": (1.0 - res["failed"] / res["attempted"], "1"),
    }


LAYER_SPANS = (
    "solver.gauge_projected_step", "solver.linalg_solve", "solver.gauge_basis",
    "solver.solve_pmc", "grid.synthesize_jet", "grid.analyze",
    "grid.synthesize_at", "grid.chart_gradient", "geometry.verify",
    "geometry.fundamental_forms", "geometry.detect_branch_points",
    "planar.total_curvature", "planar.detect_branch_points_planar",
    "serialize.load_field", "serialize.export_obj", "cli.cli_dispatch",
)
SELF_ONLY = (
    "geometry.codazzi_residual", "geometry.obstruction_vector",
    "planar.family_build", "serialize.dumps", "serialize.write_json",
    "serialize.write_manifest",
)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(plain, traced, memory) -> dict:
    calls, self_s = traced["trace"]["calls"], traced["trace"]["self_s"]
    counters = traced["trace"]["counters"]
    m = {}
    for name in LAYER_SPANS:
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (self_s[name], "s")
    for name in SELF_ONLY:
        m[name + ".self_s"] = (self_s[name], "s")
    counts = traced["solver_counts"]
    mean = lambda key: _ratio(sum(c[key] for c in counts), len(counts))  # noqa: E731
    m["solver.gn_steps_per_solve"] = (mean("gn_steps"), "count")
    m["solver.continuation_steps_per_solve"] = (mean("continuation_steps"), "count")
    m["solver.continuation_rejected"] = (sum(c["rejected"] for c in counts), "count")
    mem = memory["memory"] if memory else {"step_peak_mb": 0.0, "retained_mb": 0.0}
    m["solver.step_peak_alloc_mb"] = (mem["step_peak_mb"], "MB")
    m["solver.retained_mb"] = (mem["retained_mb"], "MB")
    m["geometry.fundamental_forms_per_verify"] = (
        _ratio(calls["geometry.fundamental_forms"], calls["geometry.verify"]), "count")
    for layer in ("geometry", "planar"):
        cand = counters.get(layer + ".branch_candidates", 0)
        if layer == "geometry":
            m["geometry.branch_candidates"] = (cand, "count")
        m[layer + ".branch_resolved_frac"] = (
            _ratio(counters.get(layer + ".branch_resolved", 0), cand), "1")
    m["serialize.bytes_read"] = (counters.get("serialize.bytes_read", 0), "B")
    m["serialize.bytes_written"] = (counters.get("serialize.bytes_written", 0), "B")
    m["trace.overhead_frac"] = (
        sum(traced["pass_walls"]) / sum(plain["pass_walls"]) - 1.0, "1")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pmcsphere", "__init__.py")):
        sys.stderr.write(f"error: no pmcsphere sources under {ROOT}/src\n")
        return 2
    if args.seed < 0:
        sys.stderr.write("error: --seed must be >= 0\n")
        return 2

    threads = usable_cpus()
    env = child_env(threads)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        run_child([os.path.join(HERE, "inputs.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", os.path.join(work, "inputs")],
                  env)
        if args.trace == 0:
            setup = [cold_start_seconds(env) for _ in range(COLD_STARTS)]
            # A solve workload runs its solves once: solver._workspaces keeps
            # memory per solve, so a solve count that grew as solves got
            # faster would move peak_rss_mb for no reason of the change.
            length = (["--passes", "1"] if args.workload in SOLVE_WORKLOADS
                      else ["--seconds", str(args.seconds)])
            runs = [worker(work, "plain", env, length)]
            metrics = end_to_end(runs[0], setup)
            info = {}
        else:
            plain = worker(work, "plain", env, ["--passes", "1"])
            traced = worker(work, "traced", env, [
                "--passes", "1", "--mode", "trace",
                "--spans", os.path.join(out_dir, f"{tag}.spans.jsonl")])
            memory = None
            if args.workload in SOLVE_WORKLOADS:
                memory = worker(work, "memory", env, ["--passes", "1", "--mode", "memory"])
            runs = [r for r in (plain, traced, memory) if r]
            metrics = per_layer(plain, traced, memory)
            step = sum(traced["trace"]["self_s"][n] for n in
                       ("solver.gauge_projected_step", "solver.linalg_solve"))
            info = {"solver_step_share_of_traced_wall":
                    step / sum(traced["pass_walls"])}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        sys.stderr.write(f"error: benchmark step failed: {err}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    environment = dict(runs[0]["env"], nproc=threads,
                       cgroup_cpu_max=cgroup_cpu_quota(),
                       python=platform.python_version(),
                       workload=args.workload, seed=args.seed,
                       validation_seed=VALIDATION_SEED, seconds=args.seconds,
                       ops=len(runs[0]["latencies"]), passes=runs[0]["passes"])
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump({"env": environment, "attempted": attempted, "failed": failed,
                   "failures": failures, "info": info,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "latencies": runs[0]["latencies"]}, fh, indent=1)

    print("env: " + json.dumps(environment))
    for key, value in info.items():
        print(f"info: {key} = {value:.4g}")
    for f in failures:
        print(f"FAILED op {f['op']}: {f['reason']}")
    print(f"attempted {attempted}  failed {failed}  failed_frac "
          f"{failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

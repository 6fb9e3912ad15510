"""
Command-line surface: solve / verify / balance / example / export-obj.

Exit codes: 0 success, 1 input error, 2 solver stall (partial outputs are
still written).  PMC_THREADS caps BLAS-level parallelism; the package applies
it on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .affine import canonical_representative
from .errors import ConfigurationError, DataError, InputError
from .geometry import ImmersionField, verify
from .grid import SphericalGrid, analyze, synthesize
from .planar import DiskGrid, enneper_blowdown, weierstrass_family
from .serialize import (affine_to_dict, dumps, export_obj, field_to_dict,
                        load_field, write_json, write_manifest)
from .solver import SolverConfig, check_memory, solve_pmc


class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: building it costs far more than a
    parse, and parse_args reads it without changing it."""
    p = _Parser(prog="pmc", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="continuation solve for a target H")
    ps.add_argument("--h-target", required=True, help="scalar HarmonicField JSON")
    ps.add_argument("--L", type=int, default=24)
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--out-dir", default="pmc_out")

    pv = sub.add_parser("verify", help="verification report for an immersion")
    pv.add_argument("--immersion", required=True, help="3-component field JSON")
    pv.add_argument("--L", type=int, default=48)
    pv.add_argument("--out-dir", default=None)

    pb = sub.add_parser("balance", help="canonical balanced representative")
    pb.add_argument("--h", required=True, help="scalar HarmonicField JSON")
    pb.add_argument("--weight", required=True,
                    help="'round' or a scalar field JSON of dV/dV_round")
    pb.add_argument("--L", type=int, default=24)
    pb.add_argument("--out-dir", default=None)

    pe = sub.add_parser("example", help="explicit minimal-surface families")
    pe.add_argument("--family", required=True, choices=["enneper", "odd", "even"])
    pe.add_argument("--param", required=True,
                    help="t for enneper, integer k for odd/even")
    pe.add_argument("--radius", type=float, default=2.0)
    pe.add_argument("--blowdown", type=float, default=1.0,
                    help="blow-down parameter t for odd/even families")
    pe.add_argument("--out-dir", default="pmc_out")

    po = sub.add_parser("export-obj", help="OBJ mesh of a sphere immersion")
    po.add_argument("--in", dest="infile", required=True)
    po.add_argument("--out", required=True)
    po.add_argument("--L", type=int, default=None)
    return p


def _write_outputs(out_dir, command, config, inputs, outputs, diagnostics):
    """Write each (name, obj) of ``outputs`` into out_dir, created if
    missing: obj(path) for a callable obj, JSON otherwise; then the run
    manifest naming them.  Returns the output paths.  An OS error is an
    InputError."""
    paths = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, obj in outputs:
            path = os.path.join(out_dir, name)
            if callable(obj):
                obj(path)
            else:
                write_json(obj, path)
            paths.append(path)
        write_manifest(out_dir, command, config, inputs, paths, diagnostics)
    except OSError as err:
        raise InputError(f"cannot write outputs to {out_dir}: {err}") from err
    return paths


def _cmd_solve(args) -> int:
    field = load_field(args.h_target)
    if field.n_components != 1:
        raise InputError("--h-target must be a scalar (1-component) field")
    config = SolverConfig(degree=args.L, tol=args.tol)
    result = solve_pmc(field, config)

    _write_outputs(
        args.out_dir, "solve",
        {"L": args.L, "tol": args.tol},
        [args.h_target],
        [("solution.json", field_to_dict(result.field)),
         ("affine.json", affine_to_dict(result.affine)),
         ("report.json", result.report)],
        {"status": result.status,
         "residual_norm": result.report["residual_norm"],
         "wall_time": result.wall_time},
    )
    b = result.affine.b
    print(f"status: {result.status}")
    print(f"ell: a={np.linalg.norm(b):.12g} b=({b[0]:.12g}, {b[1]:.12g}, {b[2]:.12g})")
    print(f"final residual: {result.report['residual_norm']:.3e}")
    return 0 if result.status == "converged" else 2


def _cmd_verify(args) -> int:
    field = load_field(args.immersion)
    if field.n_components != 3:
        raise InputError("--immersion must be a 3-component field")
    L = max(args.L, field.degree)
    check_memory(L)
    grid = SphericalGrid(L)
    report = verify(ImmersionField(field, grid))
    print(dumps(report))
    if args.out_dir:
        _write_outputs(args.out_dir, "verify", {"L": args.L}, [args.immersion],
                       [("report.json", report)],
                       {"gauss_identity": report["gauss_identity"]})
    return 0


def _cmd_balance(args) -> int:
    h_field = load_field(args.h)
    if h_field.n_components != 1:
        raise InputError("--h must be a scalar field")
    L = max(args.L, h_field.degree)
    check_memory(L)
    grid = SphericalGrid(L)
    H = synthesize(h_field.truncated(grid.L), grid)
    if args.weight == "round":
        weight = np.ones_like(H)
    else:
        w_field = load_field(args.weight)
        if w_field.n_components != 1:
            raise InputError("--weight must be a scalar field or 'round'")
        weight = synthesize(w_field.truncated(grid.L), grid)
    H_rep, ell = canonical_representative(H, weight, grid)
    b = ell.b
    spread = float(np.max(H_rep) - np.min(H_rep))
    print(f"b = ({b[0]:.12g}, {b[1]:.12g}, {b[2]:.12g})")
    if spread < 1e-10:
        print(f"H_rep = {np.mean(H_rep):.12g} (constant)")
    else:
        print(f"H_rep range: [{np.min(H_rep):.12g}, {np.max(H_rep):.12g}]")
    if args.out_dir:
        inputs = [args.h] + ([] if args.weight == "round" else [args.weight])
        _write_outputs(args.out_dir, "balance", {"L": args.L, "weight": args.weight},
                       inputs,
                       [("affine.json", affine_to_dict(ell)),
                        ("balanced.json", field_to_dict(analyze(H_rep, grid)))],
                       {"spread": spread})
    return 0


def _finite(flag, value) -> float:
    """The option's value as a finite float, else an InputError."""
    try:
        if np.isfinite(number := float(value)):
            return number
    except ValueError:
        pass
    raise InputError(f"{flag} must be a finite number, not {value}")


def _cmd_example(args) -> int:
    _finite("--radius", args.radius)
    _finite("--blowdown", args.blowdown)
    if args.family == "enneper":
        param = _finite("--param", args.param)
        label = f"enneper_t{param:g}"
    else:
        try:
            param = int(args.param)
        except ValueError as err:
            raise InputError("--param must be an integer k for odd/even") from err
        label = f"{args.family}_k{param}"
    grid = DiskGrid(args.radius, n_r=96, n_phi=96)
    surface = (enneper_blowdown(param, grid) if args.family == "enneper"
               else weierstrass_family(args.family, param, grid, t=args.blowdown))
    summary = {
        "family": args.family,
        "param": args.param,
        "radius": args.radius,
        "blowdown": args.blowdown,
        "max_abs_H": float(np.nanmax(np.abs(surface.mean_curvature))),
        "max_conformality": float(np.max(np.abs(surface.conformality_residual()))),
    }
    obj_path, _ = _write_outputs(
        args.out_dir, "example",
        {"family": args.family, "param": args.param,
         "radius": args.radius, "blowdown": args.blowdown},
        [],
        [(f"{label}.obj", lambda path: export_obj(surface, path)),
         (f"{label}.json", summary)],
        summary,
    )
    print(f"wrote {obj_path}")
    return 0


def _cmd_export_obj(args) -> int:
    field = load_field(args.infile)
    if field.n_components != 3:
        raise InputError("--in must be a 3-component immersion field")
    L = args.L if args.L is not None else max(field.degree, 8)
    check_memory(L)
    export_obj(field, args.out, SphericalGrid(L))
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "balance": _cmd_balance,
    "example": _cmd_example,
    "export-obj": _cmd_export_obj,
}


def cli_dispatch(argv) -> int:
    """Parse and run; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        out_dir = getattr(args, "out_dir", None)
        if out_dir and os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise InputError(f"--out-dir {out_dir} exists and is not a directory")
        return _COMMANDS[args.command](args)
    except (InputError, ConfigurationError, DataError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

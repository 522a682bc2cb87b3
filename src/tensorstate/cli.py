"""Command-line front end: simulate trajectories, analyze systems, and sweep
multirate grids from JSON definition files.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
numeric error (overflow, missing boundary data).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .analysis import analyze
from .fileio import (
    MultirateFile,
    _write_text,
    multirate_csv,
    parse_system_file,
    render_report,
    trajectory_csv,
)
from .multirate import BoundaryDataError, trajectory_on_grid
from .simulate import NumericOverflowError, simulate_continuous, simulate_discrete

__all__ = ["main", "entry", "build_parser"]


class CliError(Exception):
    """Bad command line or command/file mismatch; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # default argparse exits with status 2, which is reserved for
        # runtime numeric errors here
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tensorstate",
        description="Simulate and analyze linearly coupled systems with tensor states.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sim = sub.add_parser(
        "simulate", help="run a trajectory and write CSV", allow_abbrev=False
    )
    sim.add_argument("--system", required=True, help="system definition JSON file")
    sim.add_argument("--out", required=True, help="CSV output path")
    sim.add_argument("--steps", type=int, help="step count (discrete systems)")
    sim.add_argument("--t-end", type=float, dest="t_end", help="end time (continuous systems)")
    sim.add_argument("--h", type=float, help="step size (continuous; default t_end/1000)")
    sim.add_argument(
        "--method", choices=("rk4", "exact"), help="continuous integrator (default rk4)"
    )
    sim.add_argument(
        "--emit-output", action="store_true", help="include output (y) columns in the CSV"
    )

    ana = sub.add_parser(
        "analyze", help="print the stability/controllability/observability report",
        allow_abbrev=False,
    )
    ana.add_argument("--system", required=True, help="system definition JSON file")
    ana.add_argument("--out", help="write the report here instead of stdout")
    ana.add_argument("--epsilon", type=float, default=1e-9, help="stability margin (default 1e-9)")
    ana.add_argument(
        "--rank-tol", type=float, default=1e-12, dest="rank_tol",
        help="a mode counts toward a rank when its normalized coupling to B or C "
        "exceeds state_dim x this (default 1e-12)",
    )

    multi = sub.add_parser(
        "multirate", help="sweep a multirate system on its global clock", allow_abbrev=False
    )
    multi.add_argument("--system", required=True, help="multirate definition JSON file")
    multi.add_argument("--out", required=True, help="CSV output path")
    multi.add_argument("--horizon", type=int, required=True, help="global ticks 0..K")
    return parser


# parse_args leaves a parser as it found it, so one serves every main() call
# in a process; it is built on the first call, not at import
_parser = functools.cache(build_parser)


def _load_tensor_file(path, command):
    file = parse_system_file(path)
    if isinstance(file, MultirateFile):
        raise CliError(f"{command} needs a tensor system file; use the multirate command")
    return file


def _cmd_simulate(args) -> int:
    file = _load_tensor_file(args.system, "simulate")
    system = file.system
    if system.time_kind == "discrete":
        if args.steps is None:
            raise CliError("simulate: --steps is required for discrete systems")
        if args.t_end is not None or args.h is not None or args.method is not None:
            raise CliError("simulate: --t-end/--h/--method apply to continuous systems only")
        trajectory = simulate_discrete(system, file.x0, args.steps, u=file.input_signal)
    else:
        if args.t_end is None:
            raise CliError("simulate: --t-end is required for continuous systems")
        if args.steps is not None:
            raise CliError("simulate: --steps applies to discrete systems only")
        trajectory = simulate_continuous(
            system,
            file.x0,
            args.t_end,
            h=args.h,
            u=file.input_signal,
            method=args.method or "rk4",
        )
    _write_text(args.out, trajectory_csv(trajectory, emit_output=args.emit_output))
    final = trajectory.state_matrix()[-1]
    e = math.frexp(float(np.abs(final).max()))[1]
    try:  # scaled exactly to a peak in [0.5, 1), so no square overflows or underflows
        norm = math.ldexp(float(np.linalg.norm(np.ldexp(final, -e))), e)
    except OverflowError:  # a finite state whose norm is past the largest double
        norm = math.inf
    print(f"steps={len(trajectory) - 1} terminal_norm={format(norm, '.17g')}")
    return 0


def _cmd_analyze(args) -> int:
    file = _load_tensor_file(args.system, "analyze")
    report = analyze(file.system, epsilon=args.epsilon, rel_tol=args.rank_tol)
    text = render_report(report)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_multirate(args) -> int:
    file = parse_system_file(args.system)
    if not isinstance(file, MultirateFile):
        raise CliError("multirate needs a multirate system file (\"kind\": \"multirate\")")
    values = trajectory_on_grid(file.system, args.horizon)
    _write_text(args.out, multirate_csv(values, file.system.clock))
    print(f"ticks={args.horizon} d={file.system.clock.d}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "multirate": _cmd_multirate,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except (NumericOverflowError, BoundaryDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError) as exc:  # ParseError, ShapeError and LinAlgError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

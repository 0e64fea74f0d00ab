"""Command-line front end emitting machine-readable CSV or JSON results.

Reals are printed with repr, the shortest decimal form that parses back to
the identical double, so every numeric value in an output file round-trips
exactly.  Output contains no timestamps or environment data: identical
invocations produce byte-identical files, regardless of the worker count.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from .brachistochrone import physical_time, sweep_lambda, sweep_phi
from .entanglement import Measure, SpectrumError
from .haar_baseline import haar_global_baseline
from .protocol import (
    ConvergenceReport,
    Geometry,
    ProtocolConfig,
    Trajectory,
    convergence_report,
    run_ensemble,
)
from .qstate import MAX_QUBITS, canonical_gate, entangler_gate

__all__ = ["main", "parse_args", "execute", "UsageError"]

SCHEMA = 1

_DEFAULT_LAMBDA = (math.pi / 4, 0.0, 0.0)
_DEFAULT_PHI_GRID = "{0}:{1}:{0}".format(math.pi / 12, 11 * math.pi / 12)
_DEFAULT_LAMBDA_GRID = "0:{}:{}".format(math.pi / 4, math.pi / 16)

_TRAJECTORY_HEADER = ("gate_index", "measure", "level", "mean_E", "delta_E")
_REPORT_HEADER = ("measure", "level", "n_gates", "decay_rate", "fit_hi", "fit_lo")
_SWEEP_PHI_HEADER = ("phi", "n_gates", "t_phi", "t_phys")
_SWEEP_LAMBDA_HEADER = ("lambda_x", "lambda_y", "lambda_z", "n_gates")

# Each grid point is a whole ensemble; a longer grid is a typo in the step.
MAX_GRID_POINTS = 10_000

_EXIT_USAGE = 1
_EXIT_IO = 2
_EXIT_NOT_CONVERGED = 3
_EXIT_SPECTRUM = 4
_EXIT_WORKER = 5
_EXIT_INTERRUPTED = 130


class UsageError(Exception):
    """Bad or contradictory command-line input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _parse_lambda(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"need stop >= start and step > 0, got {text!r}")
    tol = 1e-9 * max(1.0, abs(stop))
    # Counted before the list is built: a tiny step would otherwise grow it
    # until memory runs out.
    if (stop + tol - start) / step >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    if step <= tol:
        raise argparse.ArgumentTypeError(f"step must exceed {tol!r}, or stop repeats; got {text!r}")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + tol:
            break
        values.append(min(v, stop))
        k += 1
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_protocol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--geometry",
        choices=[g.value for g in Geometry],
        default=Geometry.NONLOCAL.value,
    )
    parser.add_argument("--realizations", type=int, default=1000)
    parser.add_argument("--max-gates", type=int, default=400)
    parser.add_argument("--eval-stride", type=int, default=1)
    parser.add_argument("--threshold", type=float, default=0.01)
    parser.add_argument("--confirm-window", type=int, default=10)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--require-convergence", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randent", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="ensemble run with a fixed two-qubit gate")
    _add_common(p_run)
    _add_protocol(p_run)
    p_run.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None,
                       help="canonical gate coefficients x,y,z in radians")
    p_run.add_argument("--phi", type=float, default=None,
                       help="entangler gate angle in radians")
    p_run.add_argument("--measure", choices=["linear", "vonneumann", "both"], default="both")

    p_sweep = sub.add_parser("sweep-phi", help="gate count and physical time over a phi grid")
    _add_common(p_sweep)
    _add_protocol(p_sweep)
    p_sweep.add_argument("--phi-grid", type=_parse_grid, default=_DEFAULT_PHI_GRID,
                         help="start:stop:step in radians (default pi/12:11pi/12:pi/12)")
    p_sweep.add_argument("--omega", type=float, default=1.0)

    p_lam = sub.add_parser("sweep-lambda", help="gate count over a canonical-gate grid")
    _add_common(p_lam)
    _add_protocol(p_lam)
    p_lam.add_argument("--lambda-grid", type=_parse_grid, default=_DEFAULT_LAMBDA_GRID,
                       help="start:stop:step for lambda_x (lambda_y = lambda_z = 0)")

    p_base = sub.add_parser("baseline", help="Haar-average entanglement table")
    _add_common(p_base)
    p_base.add_argument("--measure", choices=["linear", "vonneumann"], default="linear")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate; raises UsageError with the reason.

    For the protocol commands the settings are validated by building the
    ProtocolConfig, which is stored as ``args.config``.
    """
    args = build_parser().parse_args(argv)
    if args.subcommand == "baseline":
        if not 2 <= args.qubits <= MAX_QUBITS:
            raise UsageError(f"--qubits must be in [2, {MAX_QUBITS}], got {args.qubits}")
    else:
        if args.workers is not None and args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        try:
            args.config = _protocol_config(args)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.output is None:
        args.output = Path(f"{args.subcommand.replace('-', '_')}.{args.format}")
    return args


def _protocol_config(args) -> ProtocolConfig:
    """The run's config; the sweeps get an identity placeholder gate."""
    gate = np.eye(4, dtype=complex)
    measures = (Measure.LINEAR,)
    if args.subcommand == "run":
        if args.lam is not None and args.phi is not None:
            raise UsageError("--lambda and --phi are mutually exclusive")
        if args.phi is not None:
            gate = entangler_gate(args.phi)
        else:
            if args.lam is None:
                args.lam = _DEFAULT_LAMBDA
            gate = canonical_gate(args.lam)
        if args.measure == "both":
            measures = (Measure.LINEAR, Measure.VON_NEUMANN)
        else:
            measures = (Measure(args.measure),)
    config = ProtocolConfig(
        num_qubits=args.qubits,
        fixed_gate=gate,
        geometry=Geometry(args.geometry),
        realizations=args.realizations,
        max_gates=args.max_gates,
        eval_stride=args.eval_stride,
        seed=args.seed,
        measures=measures,
        threshold=args.threshold,
        confirm_window=args.confirm_window,
    )
    if args.subcommand == "sweep-phi":
        # The longest time a row can report, checked before any ensemble runs.
        for phi in args.phi_grid:
            physical_time(config.max_gates, phi, args.omega)
    return config


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _write_csv(path: Path, meta, header, rows) -> None:
    """Schema line, one '#key=value' line per meta pair, header, then rows."""
    lines = [f"#schema={SCHEMA}", *(f"#{k}={_fmt(v)}" for k, v in meta), ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_lines(path, lines)


def _write_json(path: Path, command: str, payload: dict) -> None:
    payload = {"schema": SCHEMA, "command": command, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _convergence_exit(args, where: str, missing: list) -> int:
    """Exit code 3 when --require-convergence is set and something did not converge."""
    if args.require_convergence and missing:
        detail = ", ".join(str(v) for v in missing)
        print(f"convergence required but not reached {where}: {detail}", file=sys.stderr)
        return _EXIT_NOT_CONVERGED
    return 0


def _level_name(level: int | None) -> str:
    return "global" if level is None else str(level)


def _series(traj: Trajectory):
    """(measure, level name, mean, delta) of each series, in Trajectory.levels order."""
    for measure in traj.measures:
        for level in traj.levels:
            name = _level_name(level)
            yield measure, name, traj.mean_series(measure, level), traj.delta_series(measure, level)


def _trajectory_rows(traj: Trajectory):
    for measure, name, mean, delta in _series(traj):
        for k, g in enumerate(traj.gate_indices):
            yield int(g), measure.value, name, float(mean[k]), float(delta[k])


def _report_rows(report: ConvergenceReport):
    for e in report.entries:
        yield e.measure.value, _level_name(e.level), e.n_gates, e.decay_rate, e.fit_hi, e.fit_lo


def _execute_run(args) -> int:
    config = args.config
    traj = run_ensemble(config, workers=args.workers)
    report = convergence_report(traj, config.threshold, config.confirm_window)
    if args.format == "csv":
        _write_csv(args.output, (), _TRAJECTORY_HEADER, _trajectory_rows(traj))
        report_path = args.output.with_name(args.output.stem + "_report" + args.output.suffix)
        _write_csv(report_path, (), _REPORT_HEADER, _report_rows(report))
    else:
        if args.phi is not None:
            gate_desc = {"kind": "entangler", "phi": args.phi}
        else:
            gate_desc = {"kind": "canonical", "lambda": list(args.lam)}
        _write_json(
            args.output,
            "run",
            {
                "config": {
                    "qubits": args.qubits,
                    "geometry": args.geometry,
                    "gate": gate_desc,
                    "realizations": args.realizations,
                    "max_gates": args.max_gates,
                    "eval_stride": args.eval_stride,
                    "seed": args.seed,
                    "measures": [m.value for m in config.measures],
                    "threshold": args.threshold,
                    "confirm_window": args.confirm_window,
                },
                "gate_index": [int(g) for g in traj.gate_indices],
                "series": [
                    {
                        "measure": measure.value,
                        "level": name,
                        "mean_E": [float(v) for v in mean],
                        "delta_E": [float(v) for v in delta],
                    }
                    for measure, name, mean, delta in _series(traj)
                ],
                "report": [dict(zip(_REPORT_HEADER, row)) for row in _report_rows(report)],
            },
        )
    failed = []
    for measure in config.measures:
        e = report.entry(measure, None)
        status = f"n_gates={e.n_gates}" if e.n_gates is not None else "not converged"
        rate = f" decay_rate={_fmt(e.decay_rate)}" if e.decay_rate is not None else ""
        print(f"{measure.value} global: {status}{rate}")
        if e.n_gates is None:
            failed.append(measure.value)
    return _convergence_exit(args, "for", failed)


def _execute_sweep_phi(args) -> int:
    table = sweep_phi(args.config, args.phi_grid, omega=args.omega, workers=args.workers)
    rows = [(r.phi, r.n_gates, r.t_phi, r.t_phys) for r in table.rows]
    if args.format == "csv":
        meta = (("argmin_gates", table.argmin_gates), ("argmin_time", table.argmin_time))
        _write_csv(args.output, meta, _SWEEP_PHI_HEADER, rows)
    else:
        _write_json(
            args.output,
            "sweep-phi",
            {
                "omega": args.omega,
                "argmin_gates": table.argmin_gates,
                "argmin_time": table.argmin_time,
                "rows": [dict(zip(_SWEEP_PHI_HEADER, row)) for row in rows],
            },
        )
    print(f"argmin_gates={_fmt(table.argmin_gates)} argmin_time={_fmt(table.argmin_time)}")
    return _convergence_exit(args, "at phi", [r.phi for r in table.rows if r.n_gates is None])


def _execute_sweep_lambda(args) -> int:
    rows = sweep_lambda(args.config, args.lambda_grid, workers=args.workers)
    if args.format == "csv":
        _write_csv(args.output, (), _SWEEP_LAMBDA_HEADER, [(*r.lam, r.n_gates) for r in rows])
    else:
        _write_json(
            args.output,
            "sweep-lambda",
            {"rows": [{"lambda": list(r.lam), "n_gates": r.n_gates} for r in rows]},
        )
    return _convergence_exit(args, "at lambda_x", [r.lam[0] for r in rows if r.n_gates is None])


def _execute_baseline(args) -> int:
    table = haar_global_baseline(args.qubits, Measure(args.measure))
    if args.format == "csv":
        rows = [*enumerate(table.per_level, start=1), ("global", table.global_value)]
        _write_csv(args.output, (), ("m", "value"), rows)
    else:
        _write_json(
            args.output,
            "baseline",
            {
                "qubits": args.qubits,
                "measure": args.measure,
                "per_level": list(table.per_level),
                "global": table.global_value,
            },
        )
    return 0


def _check_output_dir(path: Path) -> None:
    """Raise, before any work, the OSError that writing to path would raise for its directory."""
    parent = path.parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def execute(args) -> int:
    _check_output_dir(args.output)
    if args.subcommand == "run":
        return _execute_run(args)
    if args.subcommand == "sweep-phi":
        return _execute_sweep_phi(args)
    if args.subcommand == "sweep-lambda":
        return _execute_sweep_lambda(args)
    return _execute_baseline(args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        return execute(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except SpectrumError as exc:
        print(f"spectrum error: {exc}", file=sys.stderr)
        return _EXIT_SPECTRUM
    except BrokenProcessPool as exc:
        print(f"worker process failed: {exc}", file=sys.stderr)
        return _EXIT_WORKER
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return _EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

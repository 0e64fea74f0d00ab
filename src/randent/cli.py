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
from pathlib import Path

import numpy as np

from .brachistochrone import _check_phi_times, sweep_lambda, sweep_phi
from .entanglement import Measure, SpectrumError
from .haar_baseline import haar_global_baseline
from .protocol import (
    FIT_WINDOW,
    ConvergenceEntry,
    Geometry,
    ProtocolConfig,
    Trajectory,
    WorkerError,
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

# The ProtocolConfig fields set by one flag each, --<name with dashes>,
# whose type and default are those of the field's default.
_SETTINGS = ("seed", "realizations", "max_gates", "eval_stride", "threshold", "confirm_window")

# Each grid point is a whole ensemble; a longer grid is a typo in the step.
MAX_GRID_POINTS = 10_000


class UsageError(Exception):
    """Bad or contradictory command-line input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _finite_triple(text: str, sep: str, shape: str, finite: str) -> tuple[float, float, float]:
    """The three finite floats sep splits text into; shape and finite open each fault's message."""
    parts = text.split(sep)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{shape}, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"{finite}, got {text!r}")
    return values


def _parse_lambda(text: str) -> tuple[float, float, float]:
    return _finite_triple(
        text, ",", "expected three comma-separated values", "lambda components must be finite"
    )


def _parse_grid(text: str) -> list[float]:
    start, stop, step = _finite_triple(
        text, ":", "expected start:stop:step", "start, stop and step must be finite"
    )
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
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_protocol(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--geometry",
        choices=[g.value for g in Geometry],
        default=ProtocolConfig.geometry.value,
    )
    for name in _SETTINGS:
        default = getattr(ProtocolConfig, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--require-convergence", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="randent", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="ensemble run with a fixed two-qubit gate")
    _add_common(p_run)
    _add_protocol(p_run)
    gate = p_run.add_mutually_exclusive_group()
    gate.add_argument("--lambda", dest="lam", type=_parse_lambda, default=_DEFAULT_LAMBDA,
                      help="canonical gate coefficients x,y,z in radians")
    gate.add_argument("--phi", type=float, default=None, help="entangler gate angle in radians")
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
        gate = entangler_gate(args.phi) if args.phi is not None else canonical_gate(args.lam)
        if args.measure == "both":
            measures = (Measure.LINEAR, Measure.VON_NEUMANN)
        else:
            measures = (Measure(args.measure),)
    config = ProtocolConfig(
        num_qubits=args.qubits,
        fixed_gate=gate,
        geometry=Geometry(args.geometry),
        measures=measures,
        **{name: getattr(args, name) for name in _SETTINGS},
    )
    if args.subcommand == "sweep-phi":
        _check_phi_times(config.max_gates, args.phi_grid, args.omega)
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


def _level_name(level: int | None) -> str:
    return "global" if level is None else str(level)


def _series(traj: Trajectory):
    """(measure, level name, mean, delta) of each series, in Trajectory.levels order."""
    for measure in traj.config.measures:
        for level in traj.levels:
            name = _level_name(level)
            yield measure, name, traj.mean_series(measure, level), traj.delta_series(measure, level)


def _trajectory_rows(traj: Trajectory):
    for measure, name, mean, delta in _series(traj):
        for k, g in enumerate(traj.gate_indices):
            yield int(g), measure.value, name, float(mean[k]), float(delta[k])


def _report_rows(report: dict[tuple[Measure, int | None], ConvergenceEntry]):
    for (measure, level), e in report.items():
        yield measure.value, _level_name(level), e.n_gates, e.decay_rate, *FIT_WINDOW


# Each command returns what it produced: its CSV tables, each (path, meta,
# header, rows); its JSON record; its stdout summary lines; and (where,
# items), the items that did not converge.
def _run(args):
    config = args.config
    traj = run_ensemble(config, workers=args.workers)
    report = convergence_report(traj)
    tables = [
        (args.output, (), _TRAJECTORY_HEADER, _trajectory_rows(traj)),
        (_report_path(args.output), (), _REPORT_HEADER, _report_rows(report)),
    ]
    if args.phi is not None:
        gate = {"kind": "entangler", "phi": args.phi}
    else:
        gate = {"kind": "canonical", "lambda": list(args.lam)}
    record = {
        "config": {
            "qubits": args.qubits,
            "geometry": args.geometry,
            "gate": gate,
            "measures": [m.value for m in config.measures],
            **{name: getattr(config, name) for name in _SETTINGS},
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
    }
    summary = []
    for measure in config.measures:
        e = report[measure, None]
        status = f"n_gates={e.n_gates}" if e.n_gates is not None else "not converged"
        rate = f" decay_rate={_fmt(e.decay_rate)}" if e.decay_rate is not None else ""
        summary.append(f"{measure.value} global: {status}{rate}")
    failed = [m.value for m in config.measures if report[m, None].n_gates is None]
    return tables, record, summary, ("for", failed)


def _sweep_phi(args):
    table = sweep_phi(args.config, args.phi_grid, omega=args.omega, workers=args.workers)
    rows = [(r.phi, r.n_gates, r.t_phi, r.t_phys) for r in table.rows]
    argmins = (("argmin_gates", table.argmin_gates), ("argmin_time", table.argmin_time))
    record = {"omega": args.omega, **dict(argmins)}
    record["rows"] = [dict(zip(_SWEEP_PHI_HEADER, row)) for row in rows]
    summary = [" ".join(f"{k}={_fmt(v)}" for k, v in argmins)]
    missing = [r.phi for r in table.rows if r.n_gates is None]
    return [(args.output, argmins, _SWEEP_PHI_HEADER, rows)], record, summary, ("at phi", missing)


def _sweep_lambda(args):
    rows = sweep_lambda(args.config, args.lambda_grid, workers=args.workers)
    table = (args.output, (), _SWEEP_LAMBDA_HEADER, [(*r.lam, r.n_gates) for r in rows])
    record = {"rows": [{"lambda": list(r.lam), "n_gates": r.n_gates} for r in rows]}
    return [table], record, [], ("at lambda_x", [r.lam[0] for r in rows if r.n_gates is None])


def _baseline(args):
    table = haar_global_baseline(args.qubits, Measure(args.measure))
    rows = [*enumerate(table.per_level, start=1), ("global", table.global_value)]
    record = {
        "qubits": args.qubits,
        "measure": args.measure,
        "per_level": list(table.per_level),
        "global": table.global_value,
    }
    return [(args.output, (), ("m", "value"), rows)], record, [], ("", [])


def _report_path(path: Path) -> Path:
    """Where a CSV run writes its convergence report: <stem>_report<suffix> beside path."""
    return path.with_name(path.stem + "_report" + path.suffix)


def _check_output_dir(path: Path) -> None:
    """Raise, before any work, the OSError that writing to path would raise for it or its directory.

    Writing truncates an existing file, so its own permission decides;
    otherwise its directory's does.
    """
    parent = path.parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    elif path.is_dir():
        code = errno.EISDIR
    elif not os.access(path if path.exists() else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def execute(args) -> int:
    """Run the command and write its CSV tables or its JSON record, then print its summary.

    Returns 3 if --require-convergence is set and something did not
    converge, else 0.  The output paths are checked before any work.
    """
    csv = args.format == "csv"
    _check_output_dir(args.output)
    if csv and args.subcommand == "run":
        _check_output_dir(_report_path(args.output))
    commands = {
        "run": _run, "sweep-phi": _sweep_phi, "sweep-lambda": _sweep_lambda, "baseline": _baseline
    }
    tables, record, summary, (where, missing) = commands[args.subcommand](args)
    if csv:
        for table in tables:
            _write_csv(*table)
    else:
        _write_json(args.output, args.subcommand, record)
    for line in summary:
        print(line)
    # A baseline misses nothing, and has no --require-convergence.
    if missing and args.require_convergence:
        detail = ", ".join(str(v) for v in missing)
        print(f"convergence required but not reached {where}: {detail}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Each failure's stderr label and exit code, matched in this order.
    failures = {OSError: ("i/o error", 2), SpectrumError: ("spectrum error", 4),
                WorkerError: ("worker process failed", 5), MemoryError: ("memory error", 6)}
    try:
        return execute(args)
    except tuple(failures) as exc:
        label, code = next(v for kind, v in failures.items() if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

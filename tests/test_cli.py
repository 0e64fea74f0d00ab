"""Command-line parsing, output files, round-trips, and exit codes."""
import argparse
import dataclasses
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import randent
import randent.cli
from randent import brachistochrone, entanglement, haar_baseline, protocol, qstate
from randent.cli import MAX_GRID_POINTS, UsageError, _parse_grid, main, parse_args
from randent.entanglement import SpectrumError
from randent.haar_baseline import lubkin_linear_baseline
from randent.protocol import ProtocolConfig, WorkerError

FAST_RUN = ["--qubits", "3", "--realizations", "4", "--max-gates", "20", "--workers", "1"]


def cell(text):
    """A CSV field parsed back: empty is None, anything else a number."""
    return None if text == "" else float(text)


def read_rows(path):
    """Parse a '#'-commented CSV back into header and field rows."""
    lines = path.read_text().splitlines()
    assert lines[0] == "#schema=1"
    data = [ln for ln in lines if not ln.startswith("#")]
    return data[0].split(","), [ln.split(",") for ln in data[1:]]


class TestParseArgs:
    def test_run_with_lambda(self):
        args = parse_args(["run", "--qubits", "6", "--lambda", "0.7853981634,0,0"])
        assert args.qubits == 6
        assert abs(args.lam[0] - math.pi / 4) < 1e-9
        assert args.lam[1:] == (0.0, 0.0)
        assert args.realizations == 1000 and args.seed == 42
        assert args.geometry == "nonlocal" and args.format == "csv"
        assert args.threshold == 0.01

    def test_baseline_dispatch(self):
        args = parse_args(["baseline", "--qubits", "4", "--measure", "linear"])
        assert args.subcommand == "baseline"
        assert args.qubits == 4 and args.measure == "linear"

    def test_zero_qubits_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--qubits", "0"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--frobnicate", "1"])

    def test_phi_lambda_conflict(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--phi", "1.0", "--lambda", "0.1,0,0"])

    def test_bad_lambda_shape(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--lambda", "0.1,0"])

    def test_grid_parsing(self):
        args = parse_args(["sweep-phi", "--phi-grid", "0.5:1.5:0.5"])
        assert args.phi_grid == [0.5, 1.0, 1.5]
        assert _parse_grid("0.5:0.5:0.1") == [0.5]

    def test_default_phi_grid(self):
        args = parse_args(["sweep-phi"])
        assert len(args.phi_grid) == 11
        assert abs(args.phi_grid[0] - math.pi / 12) < 1e-12
        assert abs(args.phi_grid[-1] - 11 * math.pi / 12) < 1e-9

    def test_threshold_range(self):
        with pytest.raises(UsageError):
            parse_args(["run", "--threshold", "1.0"])

    def test_usage_exit_code(self):
        assert main(["run", "--qubits", "0"]) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--seed", "-1"],
        ["run", "--lambda", "nan,0,0"],
        ["run", "--phi", "3.5"],
        ["run", "--confirm-window", "-1"],
        ["sweep-phi", "--phi-grid", "0:4:1"],
        ["sweep-phi", "--omega", "0"],
        ["baseline", "--qubits", "25"],
        ["sweep-phi", "--phi-grid", "0:0:1e-9"],
        ["sweep-lambda", "--lambda-grid", "2:2:1e-9"],
        ["sweep-phi", "--omega", "inf"],
        ["sweep-phi", "--omega", "1e-320"],
        ["run", "--max-gates", "100000000000000000000"],
        ["sweep-phi", "--max-gates", "1" + "0" * 400],
        # Too many recorded gates: used to die in numpy with "array is too big".
        ["run", "--qubits", "2", "--realizations", "1", "--max-gates", "2000000000000000000"],
        # The baseline draws nothing, so it takes no seed.
        ["baseline", "--seed", "5"],
        ["run", "--workers", "0"],
        ["run", "--phi", "1.0", "--lambda", "0.1,0,0"],
    ])
    def test_invalid_settings_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(UsageError):
            parse_args(argv)
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--lambda", "inf,0,0"],
        ["run", "--lambda", "0,-inf,0"],
    ])
    def test_non_finite_lambda_rejected(self, argv):
        # Rejected as it is parsed, before the gate builder can warn about
        # its range or overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="finite"):
                parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["sweep-phi", "--phi-grid", "nan:1:0.1"],
        ["sweep-phi", "--phi-grid", "0:1:nan"],
        ["sweep-lambda", "--lambda-grid", "0:inf:0.5"],
    ])
    def test_non_finite_grid_rejected(self, argv):
        with pytest.raises(UsageError):
            parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["sweep-phi", "--phi-grid", "0:1:1e-6"],
        ["sweep-phi", "--phi-grid", "0:1:1e-12"],
        ["sweep-lambda", "--lambda-grid", "0:0:1e-300"],
    ])
    def test_oversized_grid_rejected(self, argv):
        with pytest.raises(UsageError, match="more than"):
            parse_args(argv)
        assert main(argv) == 1

    def test_grid_point_cap(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_grid(f"0:{MAX_GRID_POINTS}:1")


@pytest.mark.parametrize("module", [brachistochrone, entanglement, haar_baseline, protocol, qstate])
def test_public_names_reexported(module):
    for name in module.__all__:
        assert getattr(randent, name) is getattr(module, name), name


def test_cli_imports_no_executor():
    """The ensemble starts its own worker processes: importing the CLI loads no concurrent.futures."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys, randent.cli; print([m for m in sys.modules if m.split('.')[0] == 'concurrent'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestBaselineCommand:
    def test_two_qubit_linear_csv(self, tmp_path):
        out = tmp_path / "base.csv"
        assert main(["baseline", "--qubits", "2", "--measure", "linear",
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("#schema=1\n")
        assert "1,0.4\n" in text
        assert "global,0.4\n" in text

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "base6.csv"
        main(["baseline", "--qubits", "6", "--measure", "vonneumann", "--output", str(out)])
        header, rows = read_rows(out)
        assert header == ["m", "value"]
        from randent.haar_baseline import page_vn_baseline
        for row in rows[:-1]:
            m = int(row[0])
            assert float(row[1]) == page_vn_baseline(6, m)

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "base.json"
        main(["baseline", "--qubits", "4", "--output", str(out), "--format", "json"])
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["per_level"][0] == lubkin_linear_baseline(4, 1)


class TestRunCommand:
    def test_zero_gates_trajectory(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["run", "--qubits", "3", "--realizations", "2", "--max-gates", "0",
                     "--workers", "1", "--output", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["gate_index", "measure", "level", "mean_E", "delta_E"]
        # one gate-0 row per (measure, level+global): 2 * (1 + 1)
        assert len(rows) == 4
        for row in rows:
            assert row[0] == "0"
            assert float(row[3]) == 0.0
            assert float(row[4]) == 1.0
        report = tmp_path / "traj_report.csv"
        assert report.exists()
        _, rrows = read_rows(report)
        assert all(r[2] == "" for r in rrows)  # nothing converges in zero gates

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["run", *FAST_RUN, "--output", str(a)])
        main(["run", *FAST_RUN, "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_report.csv").read_bytes() == (tmp_path / "b_report.csv").read_bytes()

    def test_trajectory_round_trip(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["run", *FAST_RUN, "--output", str(out)])
        header, rows = read_rows(out)
        # re-parse and re-format: repr round-trips doubles exactly
        for row in rows:
            for field in (row[3], row[4]):
                assert repr(float(field)) == field

    def test_settings_reach_config_and_record(self, tmp_path):
        # Every ProtocolConfig field with a scalar default is one flag.
        values = {"seed": 7, "realizations": 3, "max_gates": 6, "eval_stride": 2,
                  "threshold": 0.25, "confirm_window": 1}
        scalar = {f.name for f in dataclasses.fields(ProtocolConfig)
                  if isinstance(f.default, (int, float))}
        assert set(randent.cli._SETTINGS) == scalar == set(values)
        assert all(value != getattr(ProtocolConfig, name) for name, value in values.items())
        out = tmp_path / "s.json"
        argv = ["run", "--qubits", "3", "--workers", "1", "--format", "json", "--output", str(out)]
        for name, value in values.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        config = parse_args(argv).config
        assert {name: getattr(config, name) for name in values} == values
        assert main(argv) == 0
        record = json.loads(out.read_text())["config"]
        assert {name: record[name] for name in values} == values

    def test_json_output(self, tmp_path):
        out = tmp_path / "t.json"
        main(["run", *FAST_RUN, "--format", "json", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["config"]["qubits"] == 3
        series = {(s["measure"], s["level"]): s for s in payload["series"]}
        assert series[("linear", "global")]["delta_E"][0] == 1.0
        assert len(payload["report"]) == len(payload["series"])

    def test_phi_gate_accepted(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["run", *FAST_RUN, "--phi", "1.0", "--measure", "linear",
                     "--output", str(out)])
        assert code == 0
        out = tmp_path / "p.json"
        assert main(["run", *FAST_RUN, "--phi", "1.0", "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["gate"] == {"kind": "entangler", "phi": 1.0}

    def test_unwritable_output(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("ensemble started")

        monkeypatch.setattr(randent.cli, "run_ensemble", no_work)
        monkeypatch.setattr(brachistochrone, "run_ensemble", no_work)
        missing = tmp_path / "missing_dir" / "t.csv"
        directory = tmp_path / "adir"
        directory.mkdir()
        # A CSV run also writes r_report.csv beside r.csv.
        (tmp_path / "r_report.csv").mkdir()
        cases = [(c, out) for c in ("run", "sweep-phi", "sweep-lambda") for out in (missing, directory)]
        for command, out in [*cases, ("run", tmp_path / "r.csv")]:
            assert main([command, *FAST_RUN, "--output", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("i/o error:"), err
        # An existing file's own permission decides, else its directory's.
        # os.access stands in for file modes, which root ignores.
        locked = tmp_path / "locked"
        locked.mkdir()
        for path in (locked / "old.csv", locked / "r.csv", locked / "r_report.csv", tmp_path / "s_report.csv"):
            path.write_text("")
        refused = {locked, locked / "old.csv", tmp_path / "s_report.csv"}
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) not in refused)
        commands = ("run", "sweep-phi", "sweep-lambda")
        cases = [(c, locked / name) for c in commands for name in ("old.csv", "new.csv")]
        for command, out in [*cases, ("run", tmp_path / "s.csv")]:
            assert main([command, *FAST_RUN, "--output", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("i/o error:"), err
        for command in commands:
            with pytest.raises(AssertionError, match="ensemble started"):
                main([command, *FAST_RUN, "--output", str(locked / "r.csv")])

    def test_require_convergence_failure(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["run", "--qubits", "3", "--realizations", "2", "--max-gates", "10",
                     "--workers", "1", "--phi", "0", "--measure", "linear",
                     "--require-convergence", "--output", str(out)])
        assert code == 3
        assert out.exists()  # outputs still written

    @pytest.mark.parametrize("exc, code", [
        (SpectrumError("marginal eigenvalue -0.5 below -1e-10"), 4),
        (WorkerError("a worker process ended abruptly"), 5),
        (KeyboardInterrupt(), 130),
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"), 6),
    ])
    def test_failure_exit_codes(self, exc, code, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(randent.cli, "run_ensemble", fail)
        assert main(["run", *FAST_RUN, "--output", str(tmp_path / "t.csv")]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_series_order(self, tmp_path):
        gates = 4
        argv = ["run", "--qubits", "4", "--realizations", "2", "--max-gates", str(gates - 1),
                "--workers", "1"]
        main([*argv, "--output", str(tmp_path / "t.csv")])
        main([*argv, "--format", "json", "--output", str(tmp_path / "t.json")])
        order = [(m, level) for m in ("linear", "vonneumann") for level in ("1", "2", "global")]
        _, rows = read_rows(tmp_path / "t.csv")
        assert [(r[1], r[2]) for r in rows] == [key for key in order for _ in range(gates)]
        _, rows = read_rows(tmp_path / "t_report.csv")
        assert [(r[0], r[1]) for r in rows] == order
        payload = json.loads((tmp_path / "t.json").read_text())
        assert [(s["measure"], s["level"]) for s in payload["series"]] == order
        assert [(r["measure"], r["level"]) for r in payload["report"]] == order


class TestSweepCommands:
    PHI_ARGV = ["sweep-phi", "--qubits", "3", "--realizations", "16", "--max-gates", "60",
                "--threshold", "0.2", "--confirm-window", "5",
                "--workers", "1", "--phi-grid", "0:1.5707963267948966:0.7853981633974483"]
    LAMBDA_ARGV = ["sweep-lambda", "--qubits", "3", "--realizations", "16",
                   "--max-gates", "60", "--threshold", "0.2", "--confirm-window", "5",
                   "--workers", "1",
                   "--lambda-grid", "0:0.7853981633974483:0.7853981633974483"]

    def test_sweep_phi_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([*self.PHI_ARGV, "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1].startswith("#argmin_gates=")
        assert lines[2].startswith("#argmin_time=")
        header, rows = read_rows(out)
        assert header == ["phi", "n_gates", "t_phi", "t_phys"]
        assert rows[0][1] == "" and rows[0][3] == ""  # phi=0 never converges
        assert float(rows[0][2]) == 0.0

    def test_sweep_phi_json(self, tmp_path):
        main([*self.PHI_ARGV, "--output", str(tmp_path / "sweep.csv")])
        assert main([*self.PHI_ARGV, "--format", "json", "--output", str(tmp_path / "sweep.json")]) == 0
        payload = json.loads((tmp_path / "sweep.json").read_text())
        meta = dict(ln[1:].split("=") for ln in (tmp_path / "sweep.csv").read_text().splitlines()[1:3])
        assert payload["argmin_gates"] == cell(meta["argmin_gates"])
        assert payload["argmin_time"] == cell(meta["argmin_time"])
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert payload["rows"] == [{k: cell(v) for k, v in zip(header, row)} for row in rows]

    def test_sweep_lambda_csv(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = main([*self.LAMBDA_ARGV, "--output", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["lambda_x", "lambda_y", "lambda_z", "n_gates"]
        assert rows[0][3] == ""  # lambda 0 is the identity
        assert rows[1][3] != ""

    def test_sweep_lambda_json(self, tmp_path):
        main([*self.LAMBDA_ARGV, "--output", str(tmp_path / "lam.csv")])
        assert main([*self.LAMBDA_ARGV, "--format", "json", "--output", str(tmp_path / "lam.json")]) == 0
        payload = json.loads((tmp_path / "lam.json").read_text())
        _, rows = read_rows(tmp_path / "lam.csv")
        expected = [{"lambda": [cell(v) for v in row[:3]], "n_gates": cell(row[3])} for row in rows]
        assert payload["rows"] == expected


class TestPooledRun:
    """A pooled run ends its worker processes, however it ends, with one stderr line on failure."""

    ARGV = ["run", "--qubits", "3", "--realizations", "4", "--max-gates", "20", "--workers", "2",
            "--measure", "linear"]

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_clean_run(self, tmp_path, capfd):
        assert main([*self.ARGV, "--output", str(tmp_path / "t.csv")]) == 0
        assert capfd.readouterr().err == ""
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("how, code", [("raise", 4), ("exit", 5)])
    def test_worker_failure(self, how, code, monkeypatch, tmp_path, capfd):
        parent = os.getpid()
        profile = protocol._profile_values

        def failing(*args):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(1)
                raise SpectrumError("marginal eigenvalue -0.5 below -1e-10")
            return profile(*args)

        monkeypatch.setattr(protocol, "_profile_values", failing)
        assert main([*self.ARGV, "--output", str(tmp_path / "t.csv")]) == code
        assert len(capfd.readouterr().err.splitlines()) == 1
        assert not multiprocessing.active_children()

    def test_interrupt_during_round(self, monkeypatch, tmp_path, capfd):
        parent = os.getpid()
        recv = multiprocessing.connection.Connection.recv

        def interrupted(self):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return recv(self)

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", interrupted)
        assert main([*self.ARGV, "--output", str(tmp_path / "t.csv")]) == 130
        assert capfd.readouterr().err.splitlines() == ["interrupted"]
        assert not multiprocessing.active_children()

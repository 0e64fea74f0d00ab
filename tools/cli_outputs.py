#!/usr/bin/env python3
"""Run a fixed list of randent command lines on one source tree and keep every byte they leave.

    python3 tools/cli_outputs.py SRC OUT

SRC is a directory holding the ``randent`` package (a checkout's ``src``).
Each invocation runs in a fresh interpreter with ``PYTHONPATH=SRC`` and one
BLAS thread, after setting any module constants it names, and leaves in
``OUT/<k>/`` its output files, ``argv.txt``, ``stdout.txt``, ``stderr.txt``
and ``exit.txt``.  The text files name SRC and OUT as ``<SRC>`` and
``<OUT>``, so the outputs of two trees compare with ``diff -r``:

    git archive <rev> src | tar -x -C <dir>
    python3 tools/cli_outputs.py <dir>/src <out-rev>
    python3 tools/cli_outputs.py src <out-here>
    diff -r <out-rev> <out-here>

The list spans every command, both formats, every geometry, pooled and
single-process runs, multi-pass layouts and the exit codes 0, 1, 2 and 3.
It takes about 20 s on two cores.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# (argv, {randent.protocol constant: value}[, layout]); "--output" takes a
# file name in the invocation's own directory.  A layout names what the
# invocation's passes are, on two cores (tests/test_cli_outputs.py checks
# it; this tool does not read it): the points of each group in order, the
# realizations of each pass of a group, whether a group's last pass adds to
# the sums of the passes before it, that pass's probe spacing h, and
# whether any look-back runs.
_SWEEP_N4 = ["sweep-phi", "--qubits", "4", "--realizations", "50", "--max-gates", "600"]
_SWEEP_SMALL = ["sweep-phi", "--qubits", "4", "--realizations", "40", "--max-gates", "200"]
_LAMBDA = ["sweep-lambda", "--qubits", "4", "--realizations", "40", "--max-gates", "200"]
CASES = [
    # The benchmark's three workloads (perfbench/run.py), seed 42.
    ([*_SWEEP_N4, "--workers", "1", "--seed", "42", "--output", "sweep.csv"], {}),
    (["run", "--qubits", "6", "--realizations", "25", "--max-gates", "400", "--measure", "both",
      "--workers", "1", "--seed", "42", "--output", "run.csv"], {}),
    (["run", "--qubits", "10", "--realizations", "8", "--max-gates", "60", "--measure", "linear",
      "--format", "json", "--workers", "2", "--seed", "42", "--output", "run.json"], {}),
    ([*_SWEEP_N4, "--workers", "2", "--seed", "42", "--output", "sweep.csv"], {}),
    # Probe spacing h = 0, and h = 3 at stride 2.
    ([*_SWEEP_SMALL, "--confirm-window", "0", "--output", "sweep.csv"], {},
     dict(groups=(11,), passes=(40,), carry=False, h=0, looks=False)),
    ([*_SWEEP_SMALL, "--confirm-window", "3", "--eval-stride", "2", "--threshold", "0.05",
      "--format", "json", "--output", "sweep.json"], {},
     dict(groups=(11,), passes=(40,), carry=False, h=3, looks=True)),
    ([*_LAMBDA, "--geometry", "local-open", "--format", "json", "--output", "lambda.json"], {}),
    ([*_LAMBDA, "--geometry", "local-periodic", "--workers", "2", "--output", "lambda.csv"], {}),
    # phi = 0 is the identity gate, which never converges: exit 3.
    (["sweep-phi", "--qubits", "3", "--realizations", "20", "--max-gates", "60",
      "--phi-grid", "0:1.5:0.75", "--require-convergence", "--output", "sweep.csv"], {}),
    (["run", "--qubits", "5", "--realizations", "30", "--max-gates", "100", "--geometry",
      "local-open", "--phi", "1.0", "--measure", "vonneumann", "--workers", "2",
      "--format", "json", "--output", "run.json"], {}),
    (["run", "--qubits", "4", "--realizations", "20", "--max-gates", "90", "--measure", "linear",
      "--eval-stride", "3", "--workers", "1", "--format", "json", "--output", "run.json"], {}),
    (["baseline", "--qubits", "6", "--measure", "vonneumann", "--output", "baseline.csv"], {}),
    (["baseline", "--qubits", "7", "--format", "json", "--output", "baseline.json"], {}),
    # Usage error: exit 1.
    (["run", "--phi", "1.0", "--lambda", "0.1,0,0", "--output", "run.csv"], {}),
    # Slices that hold a few states each: one-point groups in several
    # passes, each slice in several batches.
    ([*_SWEEP_SMALL, "--workers", "2", "--output", "sweep.csv"],
     {"_HELD_ENTRIES": 7 * (16 + 64), "_BATCH_ENTRIES": 3 << 4},
     dict(groups=(1,) * 11, passes=(14, 13, 13), carry=True, h=0, looks=False)),
    (["run", "--qubits", "4", "--realizations", "30", "--max-gates", "60", "--measure", "both",
      "--workers", "2", "--output", "run.csv"],
     {"_HELD_ENTRIES": 4 * (16 + 64), "_BATCH_ENTRIES": 2 << 4},
     dict(groups=(1,), passes=(8, 8, 7, 7), carry=True, h=0, looks=False)),
    # One-point groups in passes of 3 and 2 whose last adds to the first's
    # sums and probes every 4th gate (h = 3) in one-realization slices,
    # each holding its state, checkpoint, stream and 4 steps' draws:
    # 2 * 16 + 64 + 17 * 4 = 164 entries.
    (["sweep-phi", "--qubits", "4", "--realizations", "5", "--max-gates", "200",
      "--threshold", "0.2", "--confirm-window", "3", "--workers", "2", "--output", "sweep.csv"],
     {"_HELD_ENTRIES": 164},
     dict(groups=(1,) * 11, passes=(3, 2), carry=True, h=3, looks=True)),
    # Groups of 3 points whose slices each run 20 one-realization chunks
    # and probe every 11th gate (h = 10), holding states across chunks.
    ([*_SWEEP_SMALL, "--workers", "2", "--output", "sweep.csv"], {"_BATCH_ENTRIES": 3 << 4},
     dict(groups=(3, 3, 3, 2), passes=(40,), carry=False, h=10, looks=True)),
    # Room for two copies of 10 points' states and their draws in one
    # slice: groups of 10 points and 1, each probing every 11th gate
    # (h = w = 10).
    (["sweep-phi", "--qubits", "6", "--realizations", "30", "--max-gates", "150", "--workers", "1",
      "--output", "sweep.csv"],
     {"_HELD_ENTRIES": 48000},
     dict(groups=(10, 1), passes=(30,), carry=False, h=10, looks=True)),
    # Probes every 4th gate in two slices: several points pass their probes
    # in one round and look back together, and points leave between probes.
    ([*_SWEEP_SMALL, "--confirm-window", "3", "--workers", "2", "--output", "sweep.csv"], {},
     dict(groups=(11,), passes=(40,), carry=False, h=3, looks=True)),
    # Exit 3 from a run and from a JSON sweep, each with the identity gate.
    (["run", "--qubits", "3", "--realizations", "10", "--max-gates", "40", "--phi", "0",
      "--require-convergence", "--output", "run.csv"], {}),
    (["sweep-lambda", "--qubits", "3", "--realizations", "10", "--max-gates", "60",
      "--lambda-grid", "0:0.7:0.35", "--threshold", "0.05", "--require-convergence",
      "--format", "json", "--output", "lambda.json"], {}),
    # An output in a missing directory: exit 2, before any work.
    (["run", "--qubits", "3", "--realizations", "4", "--max-gates", "20",
      "--output", "missing/run.csv"], {}),
]

# Runs in the fresh interpreter: sys.argv[1] is {"argv": [...], "patch": {...}}.
_CHILD = """\
import json, sys
import randent.cli, randent.protocol
spec = json.loads(sys.argv[1])
for name, value in spec["patch"].items():
    setattr(randent.protocol, name, value)
sys.exit(randent.cli.main(spec["argv"]))
"""

_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_case(src: Path, out: Path, k: int, argv: list[str], patch: dict) -> int:
    where = out / str(k)
    where.mkdir(parents=True)
    argv = list(argv)
    at = argv.index("--output") + 1
    argv[at] = str(where / argv[at])
    env = {**os.environ, **_THREAD_ENV, "PYTHONPATH": str(src)}
    spec = json.dumps({"argv": argv, "patch": patch})
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, spec], cwd=where, env=env, capture_output=True, text=True
    )

    def placed(text: str) -> str:
        # The longer path first, in case one holds the other.
        for path, name in sorted(((str(src), "<SRC>"), (str(out), "<OUT>")), key=lambda p: -len(p[0])):
            text = text.replace(path, name)
        return text

    texts = {
        "argv.txt": "\n".join(argv) + "\n" + json.dumps(patch, sort_keys=True) + "\n",
        "stdout.txt": proc.stdout,
        "stderr.txt": proc.stderr,
        "exit.txt": f"{proc.returncode}\n",
    }
    for name, text in texts.items():
        (where / name).write_text(placed(text), encoding="utf-8")
    return proc.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    src, out = (Path(a).resolve() for a in args)
    if not (src / "randent" / "cli.py").is_file():
        print(f"error: no randent package in {src}", file=sys.stderr)
        return 1
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 1
    for k, (case_argv, patch, *_) in enumerate(CASES):
        code = run_case(src, out, k, case_argv, patch)
        print(f"{k}: exit {code}: randent {' '.join(case_argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

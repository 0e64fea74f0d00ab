#!/usr/bin/env python3
"""Benchmark of the randent command line: three fixed invocations.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-phi-n4 --seed 42 --seconds 30 --trace 0

The loop is closed with one client: one CLI call at a time, each in a fresh
interpreter (``child.py``), until ``--seconds`` is used up.  With
``--trace 0`` the calls are untraced and the last line of output carries the
end-to-end metrics (medians over the calls).  With ``--trace 1`` untraced and
traced calls alternate and the last line carries the per-layer metrics of
``layers.py``.  Every call's output is checked: against the stored reference
for the default seed, and against seed-independent invariants for any seed.
Earlier lines hold a report with sample counts, quartiles, failures, null
reasons and the provenance of the run.  README.md in this directory maps the
metrics to layers and workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
DEFAULT_SEED = 42

sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402
import outputs  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_REPS = 3  # untraced calls per run, even past --seconds
CALL_TIMEOUT_S = 60  # about five times the slowest traced call
HARD_LIMIT_S = 90  # start no call after this, whatever MIN_REPS says


@dataclass(frozen=True)
class Workload:
    subcommand: str
    qubits: int
    realizations: int
    max_gates: int
    workers: int
    output: str
    angles: int = 1
    extra: tuple[str, ...] = ()
    threshold: float = 0.01  # the CLI's default --threshold

    @property
    def kind(self) -> str:
        if self.subcommand == "sweep-phi":
            return "sweep-csv"
        return "run-json" if self.output.endswith(".json") else "run-csv"

    @property
    def nominal_steps(self) -> int:
        """Realization-gate steps the invocation asks for: R * G * angles."""
        return self.realizations * self.max_gates * self.angles

    def argv(self, seed: int, out_dir: Path, workers: int | None = None) -> list[str]:
        return [
            self.subcommand,
            "--qubits", str(self.qubits),
            "--realizations", str(self.realizations),
            "--max-gates", str(self.max_gates),
            *self.extra,
            "--workers", str(workers or self.workers),
            "--seed", str(seed),
            "--output", str(out_dir / self.output),
        ]


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    # Default pi/12..11pi/12 grid: 11 angles.
    "sweep-phi-n4": Workload("sweep-phi", 4, 50, 600, 1, "sweep.csv", angles=11),
    "run-n6-both": Workload("run", 6, 25, 400, 1, "run.csv", extra=("--measure", "both")),
    "run-n10-w2": Workload(
        "run", 10, 8, 60, 2, "run.json", extra=("--measure", "linear", "--format", "json")
    ),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer times that do not overlap: their sum approaches the traced wall
# time (in a pooled run, the parent's time plus every worker's busy time).
STAGE_TIMES = (
    "qstate.haar_s", "protocol.pick_pair_s", "protocol.draw_self_s", "protocol.apply_s",
    "protocol.ensemble_self_s", "protocol.convergence_s", "entanglement.eig_s",
    "entanglement.vn_s", "entanglement.gram_s", "entanglement.subsystem_s",
    "haar_baseline.baseline_s", "cli.self_s", "cli.write_s",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Bytecode is cached next to the sources, as an installed package has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def spawn_child(argv, trace: bool, work: Path) -> dict | None:
    """Run child.py once; returns its result, or None after a crash or timeout."""
    spec = {"argv": argv, "trace": trace, "trace_dir": str(work), "result": str(work / "result.json")}
    spec["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=work,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write(f"call timed out after {CALL_TIMEOUT_S} s: {argv}\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
        return None
    return json.loads((work / "result.json").read_text())


def remove_tmp_root() -> None:
    """Remove the scratch directory once no run is using it (each call removes its own)."""
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass


def load_reference(name: str) -> dict:
    return json.loads((BENCH_DIR / "reference" / f"{name}.json").read_text())


def invoke(wl: Workload, seed: int, trace: bool, reference, workers: int | None = None) -> dict:
    """One checked CLI call: its measurements, and the reason it failed (or None)."""
    work = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        out = spawn_child(wl.argv(seed, work, workers), trace, work)
        if out is None:
            return {"failure": "crashed or timed out"}
        if out["rc"] != 0:
            out["failure"] = f"exit code {out['rc']}"
            return out
        try:
            parsed = outputs.PARSERS[wl.kind](work / wl.output)
            out["failure"] = outputs.check(parsed, wl.kind, wl.max_gates, wl.threshold, reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out["failure"] = f"unreadable output: {exc!r}"
        out["output_bytes"] = sum(
            p.stat().st_size for p in work.iterdir() if p.name != "result.json"
        )
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def probe_setup() -> float:
    work = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        out = spawn_child(None, False, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        raise RuntimeError("interpreter with randent failed to start")
    return out["setup_s"]


def good(calls: list[dict]) -> list[dict]:
    return [c for c in calls if c.get("failure") is None]


def summary(values: list[float]) -> dict:
    """Sample count, median, quartiles and the highest percentile with ten samples beyond it."""
    if not values:
        return {"n": 0}
    med, tail, pct = layers.tail(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": med, "q1": q[0], "q3": q[2], f"p{pct}": tail, "values": values}


def provenance(wl: Workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    digest = hashlib.sha256()
    for path in sorted((SRC / "randent").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git or "not a git checkout",
        "src_sha256": digest.hexdigest(),
        "thread_env": THREAD_ENV,
        "seed": seed,
        "workers": wl.workers,
        "workers_exceed_nproc": wl.workers > nproc,
    }


def run_untraced(wl, seed, seconds, reference):
    start = time.monotonic()
    probe_setup()  # warm-up: bytecode and file caches
    setups, calls = [], []
    while True:
        t0 = time.monotonic()
        # Set-up is sampled twice per call, spread over the run: by a
        # set-up-only interpreter and by the call's own interpreter.
        setups.append(probe_setup())
        calls.append(invoke(wl, seed, False, reference))
        now = time.monotonic()
        if now - start > HARD_LIMIT_S:
            break
        if len(calls) >= MIN_REPS and now - start + (now - t0) > seconds:
            break
    ok = good(calls)
    setups += [c["setup_s"] for c in ok]
    stats = {
        "wall_s": summary([c["wall_s"] for c in ok]),
        "cpu_s": summary([c["cpu_s"] for c in ok]),
        "setup_s": summary(setups),
        "peak_rss_mb": summary([c["peak_rss_mb"] for c in ok]),
    }
    metrics = {
        name: {"value": stats[name].get("median"), "unit": unit} for name, unit in END_TO_END.items()
    }
    if ok:
        rate = wl.nominal_steps / stats["wall_s"]["median"]
        stats["nominal_steps_per_s"] = rate
    return calls, metrics, stats


def run_traced(wl, seed, seconds, reference):
    start = time.monotonic()
    plain, traced, single = [], [], []
    while True:
        t0 = time.monotonic()
        plain.append(invoke(wl, seed, False, reference))
        traced.append(invoke(wl, seed, True, reference))
        if wl.workers > 1:
            # Busy time of the same work on one worker, for parallel efficiency.
            single.append(invoke(wl, seed, True, reference, workers=1))
        now = time.monotonic()
        if now - start > HARD_LIMIT_S or now - start + (now - t0) > seconds:
            break
    calls = plain + traced + single
    snaps = [c["trace"] for c in good(traced)]
    per_call = [layers.layer_metrics(s) for s in snaps]
    metrics, nulls = {}, {}
    for name, (unit, _, _) in layers.LAYER_METRICS.items():
        vals = [m[name][0] for m in per_call if m[name][0] is not None]
        reasons = {m[name][2] for m in per_call if m[name][2]}
        metrics[name] = {"value": _median(vals) if vals else None, "unit": unit}
        if reasons or not vals:
            nulls[name] = "; ".join(sorted(reasons)) or "no successful traced call"
    # Per-angle times pooled over the traced calls.
    if "brachistochrone.angle_s_p50" not in nulls:
        pooled = [x for s in snaps for x in s["samples"].get("brachistochrone.angle", [])]
        p50, ptail, pct = layers.tail(pooled)
        metrics["brachistochrone.angle_s_p50"]["value"] = p50
        metrics["brachistochrone.angle_s_ptail"]["value"] = ptail
        metrics["brachistochrone.angle_tail_pct"]["value"] = pct
    metrics["cli.output_bytes"] = {
        "value": _median([c["output_bytes"] for c in good(traced)]) if snaps else None,
        "unit": "B",
    }
    metrics["protocol.parallel_efficiency"] = {
        "value": parallel_efficiency(wl, snaps, [c["trace"] for c in good(single)]),
        "unit": "ratio",
    }
    walls = [c["wall_s"] for c in good(plain)]
    metrics["trace_overhead_s"] = {
        "value": (statistics.median([c["wall_s"] for c in good(traced)]) - statistics.median(walls))
        if snaps and walls else None,
        "unit": "s",
    }
    repeat = {
        name: sorted({m[name][0] for m in per_call}, key=str) for name in layers.EXACT_COUNTS
    }
    stage_times = {n: metrics[n]["value"] for n in STAGE_TIMES if metrics[n]["value"] is not None}
    stage_sum = sum(stage_times.values())
    stats = {
        "traced_wall_s": summary([c["wall_s"] for c in good(traced)]),
        "stage_sum_s": stage_sum,
        "stage_shares": {n: v / stage_sum for n, v in stage_times.items()} if stage_sum else {},
        "traced_calls": len(snaps),
        "untraced_calls": len(walls),
        "exact_counts_repeat": all(len(v) <= 1 for v in repeat.values()),
        "exact_counts": repeat,
        "null_reasons": nulls,
        "missing_stages": sorted({site for s in snaps for v in s["missing"].values() for site in v}),
    }
    return calls, metrics, stats


def _median(values):
    """Median; of whole numbers, a whole number that occurred (counts stay exact)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def parallel_efficiency(wl, snaps, singles):
    """One-worker busy time over workers x ensemble time at the workload's worker count."""
    spans = ("protocol.run_batch", "protocol.run_ensemble")
    if not snaps or any(s["missing"].get(span) for s in snaps + singles for span in spans):
        return None
    ensemble = statistics.median([s["total"]["protocol.run_ensemble"] for s in snaps])
    source = singles if wl.workers > 1 else snaps
    if not source:
        return None
    busy = statistics.median([s["total"]["protocol.run_batch"] for s in source])
    return busy / (wl.workers * ensemble)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "randent" / "cli.py").is_file():
        print(f"error: no randent sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    prov = provenance(wl, args.seed)
    if prov["workers_exceed_nproc"]:
        print(f"warning: --workers {wl.workers} exceeds nproc {prov['nproc']}", file=sys.stderr)
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        runner = run_traced if args.trace else run_untraced
        calls, metrics, stats = runner(wl, args.seed, args.seconds, reference)
    finally:
        remove_tmp_root()
    failures = [c["failure"] for c in calls if c.get("failure") is not None]
    report = {
        "workload": args.workload,
        "argv": wl.argv(args.seed, Path("OUT")),
        "nominal_steps": wl.nominal_steps,
        "trace": args.trace,
        "attempted": len(calls),
        "failed": len(failures),
        "failed_frac": len(failures) / len(calls),
        "failures": sorted(set(failures)),
        "checked_against_reference": reference is not None,
        "stats": stats,
        "provenance": prov,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer trace of the randent engine.

Each stage is a module-level function, wrapped where its caller looks it
up (``randent.protocol.pick_pair`` is what ``_run_chunk`` calls) and
restored afterwards, so no file of the program changes.  A wrapper adds
its call's wall time to the stage's total and to the child time of the
enclosing traced call; a stage's self time is its total minus that child
time.  Counts of work are computed at the same boundaries from argument
shapes.

Pool workers run ``_traced_ensemble_worker`` in place of
``randent.protocol._ensemble_worker``.  It traces the task and writes its
totals to a file in the trace directory, which the parent merges after the
CLI call returns.  Worker times are summed over workers.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

TRACE_DIR_ENV = "RANDENT_BENCH_TRACE_DIR"

# (span, module, attribute): every site at which a span is recorded.  A span
# may have several sites when several callers import the same function.
STAGES = (
    ("protocol.run_ensemble", "randent.cli", "run_ensemble"),
    ("protocol.run_ensemble", "randent.brachistochrone", "run_ensemble"),
    ("brachistochrone.sweep", "randent.cli", "sweep_phi"),
    ("brachistochrone.angle", "randent.brachistochrone", "_converged_count"),
    ("protocol.convergence", "randent.brachistochrone", "convergence_gate_count"),
    ("protocol.convergence", "randent.cli", "convergence_report"),
    ("cli.write", "randent.cli", "_write_lines"),
    ("cli.write", "randent.cli", "_write_json"),
    ("protocol.worker", "randent.protocol", "_ensemble_worker"),
    ("protocol.run_batch", "randent.protocol", "_run_batch"),
    ("haar_baseline.baseline", "randent.protocol", "baseline_level"),
    ("protocol.run_chunk", "randent.protocol", "_run_chunk"),
    ("protocol.pick_pair", "randent.protocol", "pick_pair"),
    ("qstate.haar", "randent.protocol", "_orthonormalize_columns"),
    ("protocol.apply", "randent.protocol", "_apply_pair_batch"),
    ("entanglement.profile", "randent.protocol", "_profile_values"),
    ("entanglement.level", "randent.entanglement", "_level_values"),
    ("entanglement.subsystem", "randent.entanglement", "_subsystem_matrix"),
    ("entanglement.eig", "numpy.linalg", "eigvalsh"),
    ("entanglement.vn", "randent.entanglement", "_vn_from_spectrum"),
)

# Spans whose single call durations are kept, not just their total.
_SAMPLED = {"brachistochrone.angle"}


def _count_apply(counts, amps, num_qubits, ii, jj, mats):
    counts["gate_steps"] += len(ii)
    counts["apply_groups"] += int(np.unique(ii * num_qubits + jj).size)
    # Complex128 amplitudes, read once and written once.
    counts["apply_bytes"] += len(ii) * amps.shape[1] * 32


def _count_subsystem(counts, amps, num_qubits, kept):
    d_kept = 1 << len(kept)
    d_env = 1 << (num_qubits - len(kept))
    counts["rdm_count"] += amps.shape[0]
    # psi @ psi^H: d_kept^2 * d_env complex multiply-adds of 8 flops each.
    counts["gram_flops"] += amps.shape[0] * 8 * d_kept * d_kept * d_env


def _count_eig(counts, a, *rest, **kw):
    counts["eig_matrices"] += math.prod(np.shape(a)[:-2])


_COUNTERS = {
    "protocol.apply": _count_apply,
    "entanglement.subsystem": _count_subsystem,
    "entanglement.eig": _count_eig,
}

# The tracer whose wrappers are installed in this process, if any.  Pool
# workers reach it from _traced_ensemble_worker, which must be a
# module-level function so that the pool can pickle it.
_active: Tracer | None = None


class Tracer:
    """Wraps the stage functions, accumulates span totals and work counts."""

    def __init__(self, stages=STAGES, trace_dir: str | os.PathLike | None = None):
        self.stages = tuple(stages)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.missing: dict[str, list[str]] = defaultdict(list)
        self._originals: dict[tuple[str, str], object] = {}
        self.reset()

    def reset(self) -> None:
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.worker_busy: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []

    # -- patching ---------------------------------------------------------
    def install(self) -> "Tracer":
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        for span, module, attr in self.stages:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing[span].append(f"{module}.{attr}")
                continue
            self._originals[(module, attr)] = fn
            if span == "protocol.worker":
                wrapped = _traced_ensemble_worker
            else:
                wrapped = self._wrap(span, fn)
            setattr(mod, attr, wrapped)
        if self.trace_dir is not None:
            os.environ[TRACE_DIR_ENV] = str(self.trace_dir)
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        for (module, attr), fn in self._originals.items():
            setattr(importlib.import_module(module), attr, fn)
        if self.trace_dir is not None:
            os.environ.pop(TRACE_DIR_ENV, None)
        if _active is self:
            _active = None

    def _wrap(self, span, fn):
        counter = _COUNTERS.get(span)

        def wrapper(*args, **kwargs):
            return self.call(span, fn, *args, _counter=counter, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------
    def call(self, span, fn, *args, _counter=None, **kwargs):
        """Run fn inside a span; its time also counts as child time of the caller."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.child[span] += self._stack.pop()
            self.total[span] += dt
            self.calls[span] += 1
            if self._stack:
                self._stack[-1] += dt
            if span in _SAMPLED:
                self.samples[span].append(dt)
            if _counter is not None:
                _counter(self.counts, *args, **kwargs)

    # -- pool workers -----------------------------------------------------
    def _dump_worker(self) -> None:
        if self.trace_dir is None:
            return
        path = self.trace_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def merge_workers(self) -> None:
        """Add the totals that pool workers wrote to the trace directory."""
        if self.trace_dir is None:
            return
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            part = json.loads(path.read_text())
            for key in ("total", "child"):
                for span, v in part[key].items():
                    getattr(self, key)[span] += v
            self.calls.update(part["calls"])
            self.counts.update(part["counts"])
            for span, v in part["samples"].items():
                self.samples[span].extend(v)
            pid = path.name.split("-")[1]
            self.worker_busy[pid] += part["total"].get("protocol.run_batch", 0.0)
            path.unlink()

    def snapshot(self) -> dict:
        """Plain-data copy of the accumulated totals."""
        return {
            "total": dict(self.total),
            "child": dict(self.child),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "worker_busy": dict(self.worker_busy),
            "missing": {k: list(v) for k, v in self.missing.items()},
        }


def _traced_ensemble_worker(args):
    """Stand-in for ``randent.protocol._ensemble_worker`` inside pool workers."""
    tracer = _active
    if tracer is None:  # a worker started without the parent's memory (spawn)
        tracer = Tracer(trace_dir=os.environ.get(TRACE_DIR_ENV)).install()
    # A forked worker inherits the parent's open spans and totals.
    tracer.reset()
    original = tracer._originals[("randent.protocol", "_ensemble_worker")]
    try:
        return tracer.call("protocol.worker", original, args)
    finally:
        tracer._dump_worker()
        tracer.reset()


# -- per-layer metrics ------------------------------------------------------

def tail(samples):
    """Median, and the highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentiles.  With fewer than twenty samples no percentile
    from 50 up has ten beyond it, and the tail is the median itself.
    """
    if not samples:
        return 0.0, 0.0, 50
    xs = sorted(samples)
    n = len(xs)
    pct = max(50, (100 * (n - 10)) // n)
    rank = max(1, math.ceil(pct * n / 100))
    return statistics.median(xs), xs[rank - 1], pct


def _self(s, span):
    return s["total"].get(span, 0.0) - s["child"].get(span, 0.0)


def _tot(s, span):
    return s["total"].get(span, 0.0)


def _calls(s, span):
    return s["calls"].get(span, 0)


def _count(s, key):
    return s["counts"].get(key, 0)


def _ensemble_self(s):
    # In a pooled run the parent waits on the workers; the slowest worker's
    # busy time is the computation on that path, the rest is overhead.
    return _self(s, "protocol.run_ensemble") - max(s["worker_busy"].values(), default=0.0)


# name -> (unit, spans it reads, how it is derived from a snapshot)
LAYER_METRICS = {
    "qstate.haar_s": ("s", ["qstate.haar"], lambda s: _tot(s, "qstate.haar")),
    "qstate.haar_calls": ("count", ["qstate.haar"], lambda s: _calls(s, "qstate.haar")),
    "protocol.pick_pair_s": ("s", ["protocol.pick_pair"], lambda s: _tot(s, "protocol.pick_pair")),
    "protocol.pick_pair_calls": ("count", ["protocol.pick_pair"], lambda s: _calls(s, "protocol.pick_pair")),
    "protocol.draw_self_s": ("s", ["protocol.run_chunk"], lambda s: _self(s, "protocol.run_chunk")),
    "protocol.apply_s": ("s", ["protocol.apply"], lambda s: _tot(s, "protocol.apply")),
    "protocol.apply_groups": ("count", ["protocol.apply"], lambda s: _count(s, "apply_groups")),
    "protocol.gate_steps": ("count", ["protocol.apply"], lambda s: _count(s, "gate_steps")),
    "protocol.apply_bytes": ("B", ["protocol.apply"], lambda s: _count(s, "apply_bytes")),
    "protocol.ensemble_self_s": ("s", ["protocol.run_ensemble", "protocol.run_batch", "protocol.worker"], _ensemble_self),
    "protocol.convergence_s": ("s", ["protocol.convergence"], lambda s: _tot(s, "protocol.convergence")),
    "entanglement.eig_s": ("s", ["entanglement.eig"], lambda s: _tot(s, "entanglement.eig")),
    "entanglement.eig_matrices": ("count", ["entanglement.eig"], lambda s: _count(s, "eig_matrices")),
    "entanglement.vn_s": ("s", ["entanglement.vn"], lambda s: _tot(s, "entanglement.vn")),
    "entanglement.gram_s": ("s", ["entanglement.level"], lambda s: _self(s, "entanglement.level")),
    "entanglement.subsystem_s": ("s", ["entanglement.subsystem"], lambda s: _tot(s, "entanglement.subsystem")),
    "entanglement.profile_calls": ("count", ["entanglement.profile"], lambda s: _calls(s, "entanglement.profile")),
    "entanglement.rdm_count": ("count", ["entanglement.subsystem"], lambda s: _count(s, "rdm_count")),
    "entanglement.gram_flops": ("flop", ["entanglement.subsystem"], lambda s: _count(s, "gram_flops")),
    "haar_baseline.baseline_s": ("s", ["haar_baseline.baseline"], lambda s: _tot(s, "haar_baseline.baseline")),
    "brachistochrone.angle_s_p50": ("s", ["brachistochrone.angle"], lambda s: tail(s["samples"].get("brachistochrone.angle", []))[0]),
    "brachistochrone.angle_s_ptail": ("s", ["brachistochrone.angle"], lambda s: tail(s["samples"].get("brachistochrone.angle", []))[1]),
    "brachistochrone.angle_tail_pct": ("pct", ["brachistochrone.angle"], lambda s: tail(s["samples"].get("brachistochrone.angle", []))[2]),
    "cli.self_s": ("s", ["cli.main", "protocol.run_ensemble", "brachistochrone.sweep", "protocol.convergence", "cli.write"], lambda s: _self(s, "cli.main")),
    "cli.write_s": ("s", ["cli.write"], lambda s: _tot(s, "cli.write")),
}

# Counts that must repeat exactly between two traced runs of one invocation.
EXACT_COUNTS = (
    "protocol.gate_steps",
    "protocol.apply_groups",
    "protocol.pick_pair_calls",
    "entanglement.rdm_count",
    "entanglement.eig_matrices",
)


def layer_metrics(snapshot: dict) -> dict[str, tuple[float | None, str, str | None]]:
    """Per-layer metrics of one traced call: name -> (value, unit, reason if null)."""
    out = {}
    for name, (unit, spans, derive) in LAYER_METRICS.items():
        gone = [site for span in spans for site in snapshot["missing"].get(span, [])]
        if gone:
            out[name] = (None, unit, "missing " + ", ".join(gone))
        else:
            out[name] = (derive(snapshot), unit, None)
    return out

"""Random entangling circuit: ensemble runs, convergence, and decay rates.

Each protocol step picks a qubit pair (by geometry), applies the fixed
two-qubit gate, then applies a fresh Haar-random U(2) rotation to each of
the two qubits.  Realization r consumes only the stream (seed, r), so runs
are reproducible and safe to execute in parallel; ensemble aggregation is
a fixed-order reduction, making results independent of the worker count.
"""
from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .entanglement import Measure, _profile_values
from .haar_baseline import baseline_level
from .qstate import (
    MAX_QUBITS,
    StateVector,
    _apply_pair_batch,
    _complex_gaussian,
    _orthonormalize_columns,
    rng_stream,
)

__all__ = [
    "Geometry",
    "ProtocolConfig",
    "Trajectory",
    "ConvergenceEntry",
    "ConvergenceReport",
    "pick_pair",
    "step",
    "record_gate_indices",
    "run_realization",
    "run_ensemble",
    "convergence_gate_count",
    "fit_decay_rate",
    "convergence_report",
]

# Cap on per-batch amplitude memory (complex128 entries).
_BATCH_ENTRIES = 1 << 22


class Geometry(enum.Enum):
    """How the target pair of each step is drawn."""

    NONLOCAL = "nonlocal"
    LOCAL_OPEN = "local-open"
    LOCAL_PERIODIC = "local-periodic"


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    num_qubits: int
    fixed_gate: np.ndarray
    geometry: Geometry = Geometry.NONLOCAL
    realizations: int = 1000
    max_gates: int = 400
    eval_stride: int = 1
    seed: int = 42
    measures: tuple[Measure, ...] = (Measure.LINEAR,)
    threshold: float = 0.01
    confirm_window: int = 10

    def __post_init__(self):
        if not 2 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [2, {MAX_QUBITS}], got {self.num_qubits}")
        gate = np.asarray(self.fixed_gate, dtype=complex)
        if gate.shape != (4, 4):
            raise ValueError(f"fixed_gate must be 4x4, got shape {gate.shape}")
        # Written so that a NaN deviation fails too.
        if not np.max(np.abs(gate.conj().T @ gate - np.eye(4))) <= 1e-12:
            raise ValueError("fixed_gate is not unitary")
        object.__setattr__(self, "fixed_gate", gate)
        if self.realizations < 1:
            raise ValueError(f"realizations must be >= 1, got {self.realizations}")
        if self.max_gates < 0:
            raise ValueError(f"max_gates must be >= 0, got {self.max_gates}")
        if self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.measures:
            raise ValueError("measures must be nonempty")
        object.__setattr__(self, "measures", tuple(self.measures))
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.confirm_window < 0:
            raise ValueError(f"confirm_window must be >= 0, got {self.confirm_window}")


def pick_pair(geometry: Geometry, num_qubits: int, rng: np.random.Generator) -> tuple[int, int]:
    """Draw the target pair for one step; one integer draw from the stream."""
    n = num_qubits
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    if geometry is Geometry.NONLOCAL:
        p = int(rng.integers(n * (n - 1)))
        i, j = divmod(p, n - 1)
        if j >= i:
            j += 1
        return i, j
    if geometry is Geometry.LOCAL_OPEN:
        k = int(rng.integers(n - 1))
        return k, k + 1
    k = int(rng.integers(n))
    return k, (k + 1) % n


def _draw_steps(geometry: Geometry, num_qubits: int, rngs, gate: np.ndarray):
    """Draws of one protocol step for each stream: pairs (ii, jj), (V_i (x) V_j) @ gate.

    Each stream gives one pick_pair draw, then one block of normals covering
    V_i then V_j, in the same order as two consecutive sample_haar_u2 draws.
    """
    b = len(rngs)
    ii = np.empty(b, dtype=np.int64)
    jj = np.empty(b, dtype=np.int64)
    z = np.empty((b, 2, 2, 2, 2))
    for r, rng in enumerate(rngs):
        ii[r], jj[r] = pick_pair(geometry, num_qubits, rng)
        z[r] = rng.standard_normal((2, 2, 2, 2))
    v = _orthonormalize_columns(_complex_gaussian(z))
    kron = np.einsum("rab,rcd->racbd", v[:, 0], v[:, 1]).reshape(b, 4, 4)
    return ii, jj, kron @ gate


def step(state: StateVector, config: ProtocolConfig, rng: np.random.Generator) -> StateVector:
    """One protocol step: fixed gate on a drawn pair, then fresh V_i and V_j.

    A batch of one through the ensemble engine's draw and kernel.
    """
    n = state.num_qubits
    ii, jj, mats = _draw_steps(config.geometry, n, [rng], config.fixed_gate)
    _apply_pair_batch(state.amplitudes[np.newaxis], n, ii, jj, mats)
    return state


def record_gate_indices(config: ProtocolConfig) -> np.ndarray:
    """Gate counts at which entanglement is recorded: 0, stride, 2*stride, ..."""
    return np.arange(0, config.max_gates + 1, config.eval_stride, dtype=np.int64)


def _run_batch(config: ProtocolConfig, indices) -> np.ndarray:
    """Per-realization entanglement series for the given realization indices.

    Returns (len(indices), T, len(measures), floor(N/2)).  Realizations are
    simulated side by side, but every per-realization value is bitwise
    identical to a batch of one: the random draws come from per-realization
    streams and the batched linear algebra has no cross-realization
    reductions.
    """
    indices = [int(i) for i in indices]
    n = config.num_qubits
    dim = 1 << n
    rec = record_gate_indices(config)
    n_meas = len(config.measures)
    levels = n // 2
    out = np.empty((len(indices), rec.size, n_meas, levels))
    sub = max(1, _BATCH_ENTRIES // dim)
    for lo in range(0, len(indices), sub):
        chunk = indices[lo : lo + sub]
        out[lo : lo + len(chunk)] = _run_chunk(config, chunk, rec)
    return out


def _run_chunk(config: ProtocolConfig, indices: list[int], rec: np.ndarray) -> np.ndarray:
    n = config.num_qubits
    dim = 1 << n
    b = len(indices)
    rngs = [rng_stream(config.seed, i) for i in indices]
    amps = np.zeros((b, dim), dtype=complex)
    amps[:, 0] = 1.0
    out = np.empty((b, rec.size, len(config.measures), n // 2))
    pos = 0
    if rec.size and rec[0] == 0:
        out[:, 0] = _profile_values(amps, n, config.measures)
        pos = 1
    for g in range(1, config.max_gates + 1):
        ii, jj, mats = _draw_steps(config.geometry, n, rngs, config.fixed_gate)
        _apply_pair_batch(amps, n, ii, jj, mats)
        if pos < rec.size and g == rec[pos]:
            out[:, pos] = _profile_values(amps, n, config.measures)
            pos += 1
    return out


def run_realization(config: ProtocolConfig, realization_index: int) -> dict[Measure, np.ndarray]:
    """Entanglement series of one realization, keyed by measure, shape (T, floor(N/2)).

    Starts from |00...0> and consumes only the stream
    (config.seed, realization_index), so the series is bit-reproducible.
    """
    if not 0 <= realization_index < config.realizations:
        raise ValueError(
            f"realization_index {realization_index} out of range for R={config.realizations}"
        )
    vals = _run_batch(config, [realization_index])[0]
    return {meas: vals[:, k, :] for k, meas in enumerate(config.measures)}


def _ensemble_worker(args):
    config, indices = args
    return _run_batch(config, indices)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ensemble-mean entanglement vs gate count, with Haar-baseline deltas."""

    num_qubits: int
    gate_indices: np.ndarray
    measures: tuple[Measure, ...]
    level_means: dict[Measure, np.ndarray] = field(repr=False)  # (T, floor(N/2))
    baselines: dict[Measure, np.ndarray] = field(repr=False)  # (floor(N/2),)

    @property
    def num_levels(self) -> int:
        return self.num_qubits // 2

    def baseline_value(self, measure: Measure, level: int | None = None) -> float:
        """Haar baseline for one level, or the global mean when level is None."""
        table = self.baselines[measure]
        if level is None:
            return float(table.mean())
        return float(table[level - 1])

    def mean_series(self, measure: Measure, level: int | None = None) -> np.ndarray:
        """Ensemble mean <E> at each recorded gate count."""
        means = self.level_means[measure]
        if level is None:
            return means.mean(axis=1)
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level must be in [1, {self.num_levels}] or None, got {level}")
        return means[:, level - 1]

    def delta_series(self, measure: Measure, level: int | None = None) -> np.ndarray:
        """Normalized distance to saturation, (E_haar - <E>) / E_haar."""
        baseline = self.baseline_value(measure, level)
        return (baseline - self.mean_series(measure, level)) / baseline


def run_ensemble(config: ProtocolConfig, workers: int | None = None) -> Trajectory:
    """Average the per-realization series over R independent realizations.

    The result is bitwise independent of the worker count: workers return
    per-realization values which are reassembled in realization order
    before the mean is taken.
    """
    r = config.realizations
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, r))
    all_indices = np.arange(r)
    if workers == 1:
        values = _run_batch(config, all_indices)
    else:
        chunks = [c for c in np.array_split(all_indices, workers) if c.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_ensemble_worker, [(config, c) for c in chunks]))
        values = np.concatenate(parts, axis=0)
    means = values.mean(axis=0)  # (T, n_measures, levels)
    level_means = {meas: means[:, k, :] for k, meas in enumerate(config.measures)}
    baselines = {
        meas: np.array(
            [baseline_level(config.num_qubits, m, meas) for m in range(1, config.num_qubits // 2 + 1)]
        )
        for meas in config.measures
    }
    return Trajectory(
        num_qubits=config.num_qubits,
        gate_indices=record_gate_indices(config),
        measures=config.measures,
        level_means=level_means,
        baselines=baselines,
    )


def convergence_gate_count(
    traj: Trajectory,
    measure: Measure,
    level: int | None = None,
    threshold: float = 0.01,
    confirm_window: int = 10,
) -> int | None:
    """First recorded gate count with delta <= threshold, confirmed.

    Confirmation requires the next confirm_window recorded points to stay
    at or below the threshold; returns None when no confirmed crossing
    exists within the recorded range.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if confirm_window < 0:
        raise ValueError(f"confirm_window must be >= 0, got {confirm_window}")
    delta = traj.delta_series(measure, level)
    ok = delta <= threshold
    run_length = 0
    first = None
    for k in range(ok.size - 1, -1, -1):
        run_length = run_length + 1 if ok[k] else 0
        if run_length >= confirm_window + 1:
            first = k
    return int(traj.gate_indices[first]) if first is not None else None


def fit_decay_rate(
    traj: Trajectory,
    measure: Measure,
    level: int | None = None,
    fit_hi: float = 0.5,
    fit_lo: float = 0.02,
) -> float | None:
    """Exponential decay rate of delta per gate, from a log-linear fit.

    Ordinary least squares of ln(delta) against gate count, restricted to
    recorded points with delta in [fit_lo, fit_hi].  Returns None when
    fewer than 5 points fall in the window or the fitted rate is not
    positive.
    """
    if not fit_hi > fit_lo > 0.0:
        raise ValueError(f"need fit_hi > fit_lo > 0, got ({fit_hi}, {fit_lo})")
    delta = traj.delta_series(measure, level)
    mask = (delta >= fit_lo) & (delta <= fit_hi)
    if int(mask.sum()) < 5:
        return None
    slope = np.polyfit(traj.gate_indices[mask], np.log(delta[mask]), 1)[0]
    rate = -float(slope)
    return rate if rate > 0.0 else None


@dataclass(frozen=True)
class ConvergenceEntry:
    measure: Measure
    level: int | None  # None is the global measure
    n_gates: int | None  # None when not converged
    decay_rate: float | None  # None when unfit
    fit_hi: float
    fit_lo: float


@dataclass(frozen=True)
class ConvergenceReport:
    threshold: float
    confirm_window: int
    entries: tuple[ConvergenceEntry, ...]

    def entry(self, measure: Measure, level: int | None = None) -> ConvergenceEntry:
        for e in self.entries:
            if e.measure is measure and e.level == level:
                return e
        raise KeyError(f"no entry for ({measure}, {level})")


def convergence_report(
    traj: Trajectory,
    threshold: float = 0.01,
    confirm_window: int = 10,
    fit_hi: float = 0.5,
    fit_lo: float = 0.02,
) -> ConvergenceReport:
    """Convergence gate count and decay rate for every level and the global value."""
    entries = []
    for measure in traj.measures:
        for level in [*range(1, traj.num_levels + 1), None]:
            entries.append(
                ConvergenceEntry(
                    measure=measure,
                    level=level,
                    n_gates=convergence_gate_count(traj, measure, level, threshold, confirm_window),
                    decay_rate=fit_decay_rate(traj, measure, level, fit_hi, fit_lo),
                    fit_hi=fit_hi,
                    fit_lo=fit_lo,
                )
            )
    return ConvergenceReport(
        threshold=threshold, confirm_window=confirm_window, entries=tuple(entries)
    )

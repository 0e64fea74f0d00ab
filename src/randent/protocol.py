"""Random entangling circuit: ensemble runs, convergence, and decay rates.

Each protocol step picks a qubit pair (by geometry), applies the fixed
two-qubit gate, then applies a fresh Haar-random U(2) rotation to each of
the two qubits.  Realization r consumes only the stream (seed, r), so runs
are reproducible and safe to execute in parallel; ensemble aggregation is
a fixed-order reduction, making results independent of the worker count.
"""
from __future__ import annotations

import contextlib
import enum
import multiprocessing
import operator
import os
import signal
from concurrent.futures.process import BrokenProcessPool
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

# Most amplitudes (complex128 entries) one numpy call advances.
_BATCH_ENTRIES = 1 << 22

# Most amplitudes one process holds at once (256 MiB), each realization's
# random stream (about 1 KB) counted as 64 more: a slice above this is run
# in parts, each to max_gates, and cannot stop early.
_HELD_ENTRIES = 1 << 24

# Largest gate cap: gate counts are int64.
_MAX_GATES = 1 << 62

# Most recorded gate counts (max_gates // eval_stride + 1).  Every recorded
# gate keeps its means in memory and writes its rows: a run at N=2, R=1
# takes about 0.2 ms and 0.6 KB per recorded gate (measured at 2^16), so
# 2^20 of them take minutes and under 1 GB.
_MAX_RECORDED = 1 << 20


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
        for name in ("num_qubits", "realizations", "max_gates", "eval_stride", "seed", "confirm_window"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if not isinstance(self.geometry, Geometry):
            raise ValueError(f"geometry must be a Geometry, got {self.geometry!r}")
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
        if self.max_gates > _MAX_GATES:
            raise ValueError(f"max_gates must be <= {_MAX_GATES}, got {self.max_gates}")
        if self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")
        recorded = self.max_gates // self.eval_stride + 1
        if recorded > _MAX_RECORDED:
            raise ValueError(
                f"max_gates // eval_stride + 1 = {recorded} recorded gates exceeds {_MAX_RECORDED};"
                " lower max_gates or raise eval_stride"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        measures = self.measures
        if not isinstance(measures, (tuple, list)) or not all(isinstance(m, Measure) for m in measures):
            raise ValueError(f"measures must be Measure members, got {measures!r}")
        if not measures or len(set(measures)) < len(measures):
            raise ValueError(f"measures must be nonempty and distinct, got {measures!r}")
        object.__setattr__(self, "measures", tuple(measures))
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
    if geometry is Geometry.LOCAL_PERIODIC:
        k = int(rng.integers(n))
        return k, (k + 1) % n
    raise ValueError(f"geometry must be a Geometry, got {geometry!r}")


def _draw_steps(geometry: Geometry, num_qubits: int, rngs):
    """Draws of one protocol step for each stream: pairs (ii, jj) and V_i (x) V_j.

    Each stream gives one pick_pair draw, then one block of normals covering
    V_i then V_j, in the same order as two consecutive sample_haar_u2 draws.
    The fixed gate is left out, so that every point sharing the streams
    applies its own: the step's matrix is (V_i (x) V_j) @ gate.
    """
    b = len(rngs)
    ii = np.empty(b, dtype=np.int64)
    jj = np.empty(b, dtype=np.int64)
    z = np.empty((b, 2, 2, 2, 2))
    for r, rng in enumerate(rngs):
        ii[r], jj[r] = pick_pair(geometry, num_qubits, rng)
        z[r] = rng.standard_normal((2, 2, 2, 2))
    v = _orthonormalize_columns(_complex_gaussian(z))
    return ii, jj, np.einsum("rab,rcd->racbd", v[:, 0], v[:, 1]).reshape(b, 4, 4)


def step(state: StateVector, config: ProtocolConfig, rng: np.random.Generator) -> StateVector:
    """One protocol step: fixed gate on a drawn pair, then fresh V_i and V_j.

    A batch of one through the ensemble engine's draw and kernel.
    """
    n = state.num_qubits
    ii, jj, kron = _draw_steps(config.geometry, n, [rng])
    _apply_pair_batch(state.amplitudes[np.newaxis], n, ii, jj, kron @ config.fixed_gate)
    return state


def record_gate_indices(config: ProtocolConfig) -> np.ndarray:
    """Gate counts at which entanglement is recorded: 0, stride, 2*stride, ..., up to max_gates.

    Counted in integers: arange(0, stop, step) sizes itself in floating point
    and drops the last count of a large range, such as stop 2*10^18 + 1, step 10^18.
    A stride above max_gates, which need not fit in int64, records gate 0 only.
    """
    count = config.max_gates // config.eval_stride + 1
    return np.arange(count, dtype=np.int64) * min(config.eval_stride, config.max_gates + 1)


class _Chunk:
    """Realizations simulated side by side at every live point.

    A point is config with its own fixed gate; all points share the
    realizations' streams.  Holds the streams, the points' gates (points, 4,
    4), their amplitudes (points, realizations, 2^N) and the gates applied.
    """

    def __init__(self, config: ProtocolConfig, indices, gates):
        self.rngs = [rng_stream(config.seed, int(i)) for i in indices]
        self.fixed = np.array(gates, dtype=complex)
        self.amps = np.zeros((len(self.fixed), len(self.rngs), 1 << config.num_qubits), dtype=complex)
        self.amps[:, :, 0] = 1.0
        self.applied = 0


def _chunks(config: ProtocolConfig, indices, gates) -> list[_Chunk]:
    """Fresh chunks over the realization indices, in order, each at most one batch over all points."""
    sub = max(1, _BATCH_ENTRIES // (len(gates) << config.num_qubits))
    return [_Chunk(config, indices[lo : lo + sub], gates) for lo in range(0, len(indices), sub)]


def _run_batch(config: ProtocolConfig, chunks, rec) -> np.ndarray:
    """Advance all chunks together through the recorded gates rec and stack their values.

    Returns (len(rec), points, realizations, len(measures), floor(N/2)):
    each gate count in rec is reached by every chunk before any chunk goes
    on.  Realizations and points are simulated side by side, but every
    value is bitwise identical to a batch of one: the random draws come
    from per-realization streams and the batched linear algebra has no
    cross-row reductions.
    """
    return np.stack([np.concatenate([_run_chunk(config, chunk, g) for chunk in chunks], axis=1) for g in rec])


def _run_chunk(config: ProtocolConfig, chunk: _Chunk, g) -> np.ndarray:
    """Step the chunk to gate count g (not below chunk.applied) and return its values there.

    Each gate draws once per stream and advances every point's rows in one
    kernel call.
    """
    n = config.num_qubits
    points, b, dim = chunk.amps.shape
    amps = chunk.amps.reshape(points * b, dim)
    while chunk.applied < g:
        ii, jj, kron = _draw_steps(config.geometry, n, chunk.rngs)
        mats = (kron @ chunk.fixed[:, np.newaxis]).reshape(-1, 4, 4)
        _apply_pair_batch(amps, n, np.tile(ii, points), np.tile(jj, points), mats)
        chunk.applied += 1
    return _profile_values(amps, n, config.measures).reshape(points, b, len(config.measures), -1)


def run_realization(config: ProtocolConfig, realization_index: int) -> dict[Measure, np.ndarray]:
    """Entanglement series of one realization, keyed by measure, shape (T, floor(N/2)).

    Starts from |00...0> and consumes only the stream
    (config.seed, realization_index), so the series is bit-reproducible.
    """
    if not 0 <= realization_index < config.realizations:
        raise ValueError(
            f"realization_index {realization_index} out of range for R={config.realizations}"
        )
    chunks = _chunks(config, [realization_index], [config.fixed_gate])
    vals = _run_batch(config, chunks, record_gate_indices(config))[:, 0, 0]
    return {meas: vals[:, k, :] for k, meas in enumerate(config.measures)}


def _slice(config: ProtocolConfig, gates, parts):
    """Answer function of one slice of the realizations at every point of a group.

    answer(live, rec) keeps the points of the boolean mask live, steps to
    each gate count in rec and returns the values (len(rec), points,
    realizations, n_measures, levels).  A slice of one part is held between
    answers; a slice of several holds one part at a time, from gate 0, so
    it is asked once, for every recorded gate.
    """
    held = _chunks(config, parts[0], gates) if len(parts) == 1 else None

    def answer(live, rec):
        if held is None:
            return np.concatenate([_run_batch(config, _chunks(config, p, gates), rec) for p in parts], axis=2)
        if not all(live):
            for chunk in held:
                chunk.fixed, chunk.amps = chunk.fixed[live], chunk.amps[live]
        return _run_batch(config, held, rec)

    return answer


def _ensemble_worker(args):
    """Body of a slice's worker process: answers the requests on its connection until None.

    An exception raised by a request is sent back as its answer.
    """
    config, gates, parts, conn = args
    # The parent handles an interrupt, and ends its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    answer = _slice(config, gates, parts)
    while (request := conn.recv()) is not None:
        try:
            conn.send(answer(*request))
        except Exception as exc:
            conn.send(exc)


@contextlib.contextmanager
def _slices(config: ProtocolConfig, gates, parts):
    """Yields a function that asks a group's slices (live, rec) and returns their answers in order.

    One slice, of parts[0], is held in this process.  More run in one
    worker process each: an exception a worker answers is raised here, and
    a worker that is gone raises BrokenProcessPool.  On leaving, each
    worker is sent None, or ended if the block raised, and joined.
    """
    if len(parts) == 1:
        answer = _slice(config, gates, parts[0])
        yield lambda request: [answer(*request)]
        return
    workers = []

    def ask(request):
        try:
            for _, conn in workers:
                conn.send(request)
            answers = [conn.recv() for _, conn in workers] if request is not None else []
        except (EOFError, OSError) as exc:
            raise BrokenProcessPool("a worker process ended abruptly") from exc
        for got in answers:
            if isinstance(got, Exception):
                raise got
        return answers

    try:
        for slice_parts in parts:
            conn, child = multiprocessing.Pipe()
            # Resolved as each process is made, so a stand-in put under the name runs there.
            proc = multiprocessing.Process(
                target=_ensemble_worker, args=((config, gates, slice_parts, child),), daemon=True
            )
            proc.start()
            child.close()
            workers.append((proc, conn))
        yield ask
        ask(None)
    except BaseException:
        for proc, _ in workers:
            proc.terminate()
        raise
    finally:
        for proc, conn in workers:
            proc.join()
            conn.close()


def _delta(means, baselines):
    """(E_haar - <E>) / E_haar, each averaged over the last axis: means (..., k), baselines (k,)."""
    baseline = float(baselines.mean())
    return (baseline - means.mean(axis=-1)) / baseline


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ensemble means and Haar deltas vs gate count per level; level None is the global mean."""

    num_qubits: int
    gate_indices: np.ndarray
    measures: tuple[Measure, ...]
    level_means: dict[Measure, np.ndarray] = field(repr=False)  # (T, floor(N/2))
    baselines: dict[Measure, np.ndarray] = field(repr=False)  # (floor(N/2),)

    @property
    def num_levels(self) -> int:
        return self.num_qubits // 2

    @property
    def levels(self) -> tuple[int | None, ...]:
        """(1, ..., num_levels, None): every level, then the global value."""
        return (*range(1, self.num_levels + 1), None)

    def _columns(self, level: int | None) -> slice:
        """Columns averaged for a level in the per-level arrays: its own, or all of them."""
        if level is None:
            return slice(None)
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level must be in [1, {self.num_levels}] or None, got {level}")
        return slice(level - 1, level)

    def baseline_value(self, measure: Measure, level: int | None = None) -> float:
        """Haar baseline for one level, or the global mean when level is None."""
        return float(self.baselines[measure][self._columns(level)].mean())

    def mean_series(self, measure: Measure, level: int | None = None) -> np.ndarray:
        """Ensemble mean <E> at each recorded gate count."""
        return self.level_means[measure][:, self._columns(level)].mean(axis=1)

    def delta_series(self, measure: Measure, level: int | None = None) -> np.ndarray:
        """Normalized distance to saturation, (E_haar - <E>) / E_haar."""
        cols = self._columns(level)
        return _delta(self.level_means[measure][:, cols], self.baselines[measure][cols])


def run_ensemble(config: ProtocolConfig, workers: int | None = None, *, gates=None):
    """Average the per-realization series over R independent realizations.

    Without gates, returns the trajectory of config up to max_gates.  With
    gates, returns one trajectory per gate, of config with that fixed gate,
    each ending at the last gate of the confirm window of its first
    confirmed crossing of the global linear delta, judged as
    convergence_gate_count judges it with config.threshold and
    config.confirm_window: bitwise that prefix of the point's full run.

    Points share their realizations' streams, so one draw per stream per
    gate serves every point of a group; _ensemble_means lays out the
    slices, groups and rounds, over min(workers, R, cores) processes.  The
    result is bitwise independent of the worker count and of the layout;
    workers=None means one process per core.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    baselines = {
        meas: np.array(
            [baseline_level(config.num_qubits, m, meas) for m in range(1, config.num_qubits // 2 + 1)]
        )
        for meas in config.measures
    }
    if gates is None:
        series = _ensemble_means(config, [config.fixed_gate], workers)
    else:
        if Measure.LINEAR not in config.measures:
            raise ValueError("gates are judged on the linear measure, which config.measures lacks")
        series = _ensemble_means(config, list(gates), workers, baselines[Measure.LINEAR])
    rec = record_gate_indices(config)
    trajs = [
        Trajectory(
            num_qubits=config.num_qubits,
            gate_indices=rec[: len(kept)],
            measures=config.measures,
            level_means={meas: np.array(kept)[:, k, :] for k, meas in enumerate(config.measures)},
            baselines=baselines,
        )
        for kept in series
    ]
    return trajs[0] if gates is None else trajs


def _ensemble_means(config: ProtocolConfig, gates, workers: int | None, baseline=None) -> list[list[np.ndarray]]:
    """Each point's ensemble means (n_measures, levels) at the recorded gates it reaches.

    Each point is config with one of gates as its fixed gate.  The
    realizations are split into min(workers, R, cores) slices, each holding
    every point of a group (see _slices).  Groups run one after another,
    sized so that a slice is held within _HELD_ENTRIES, each realization
    counted as points * 2^N amplitudes plus 64 for its random stream, and
    so that one realization's points fit in one batch.  A slice above that
    runs in parts, all in one round.  Otherwise a round takes at most
    _BATCH_ENTRIES >> 4 values and, given the global linear baseline, ends
    no later than the earliest close of a confirm window; a point stops
    when its window closes.  Each gate's values are summed in realization
    order by a cumsum, so every layout gives the same bits.
    """
    r, n = config.realizations, config.num_qubits
    slices = np.array_split(np.arange(r), min(workers or r, r, os.cpu_count() or 1))
    size = max(1, min(_HELD_ENTRIES // len(slices[0]) - 64, _BATCH_ENTRIES) >> n)
    width = r * len(config.measures) * (n // 2)
    rec = record_gate_indices(config)
    window = config.confirm_window
    out = []
    for lo in range(0, len(gates), size):
        group = gates[lo : lo + size]
        per_part = max(1, _HELD_ENTRIES // ((len(group) << n) + 64))
        parts = [np.array_split(s, -(-len(s) // per_part)) for s in slices]
        kept = [[] for _ in group]
        runs = [0] * len(group)
        live, mask, done = list(range(len(group))), [True] * len(group), 0
        with _slices(config, group, parts) as ask:
            while live and done < len(rec):
                k = len(rec) - done
                if len(parts[0]) == 1:
                    k = min(k, max(1, (_BATCH_ENTRIES >> 4) // (width * len(live))))
                    if baseline is not None:
                        k = min(k, window + 1 - max(runs[a] for a in live))
                vals = np.concatenate(ask((mask, rec[done : done + k])), axis=2)
                done += k
                for means in np.cumsum(vals, axis=2)[:, :, -1] / r:
                    passed = [False] * len(live)
                    if baseline is not None:
                        linear = means[:, config.measures.index(Measure.LINEAR)]
                        passed = _delta(linear, baseline) <= config.threshold
                    for a, mean, ok in zip(live, means, passed):
                        if runs[a] <= window:
                            kept[a].append(mean)
                            runs[a] = runs[a] + 1 if ok else 0
                mask = [runs[a] <= window for a in live]
                live = [a for a, ok in zip(live, mask) if ok]
        out += kept
    return out


def _first_confirmed(passes, confirm_window: int) -> int | None:
    """Index of the first pass that starts confirm_window + 1 consecutive passes.

    The flags are consumed lazily, up to the one that closes the window, so
    a stream that computes them stops there.
    """
    run = 0
    for k, ok in enumerate(passes):
        run = run + 1 if ok else 0
        if run > confirm_window:
            return k - confirm_window
    return None


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
    first = _first_confirmed(traj.delta_series(measure, level) <= threshold, confirm_window)
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
        for level in traj.levels:
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

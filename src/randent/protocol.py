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
import numbers
import operator
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .entanglement import Measure, _profile_values
from .haar_baseline import baseline_level
from .qstate import (
    MAX_QUBITS,
    StateVector,
    _BATCH_ENTRIES,
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
    "WorkerError",
    "pick_pair",
    "step",
    "record_gate_indices",
    "run_realization",
    "run_ensemble",
    "convergence_gate_count",
    "fit_decay_rate",
    "convergence_report",
    "FIT_WINDOW",
]

# Most amplitudes one process holds at once (256 MiB), each realization's
# random stream (about 1 KB) counted as 64 more, and a judged sweep's
# checkpoint and saved draws as well (see _ensemble_means): an ensemble
# whose slices would hold more runs in passes, each slice of which holds at
# most this.
_HELD_ENTRIES = 1 << 24

# Largest gate cap: gate counts are int64.
_MAX_GATES = 1 << 62

# Most recorded gate counts (max_gates // eval_stride + 1).  Every recorded
# gate keeps its means in memory and writes its rows: a run at N=2, R=1
# takes about 0.2 ms and 0.6 KB per recorded gate (measured at 2^16), so
# 2^20 of them take minutes and under 1 GB.
_MAX_RECORDED = 1 << 20

# The deltas fit_decay_rate fits, (hi, lo): those in [lo, hi].
FIT_WINDOW = (0.5, 0.02)

# The measure a grid of gates is judged on, by its global delta, and the
# only one a judged grid runs (see run_ensemble).
_JUDGED = Measure.LINEAR


class WorkerError(RuntimeError):
    """A worker process of an ensemble ended before it answered."""


class Geometry(enum.Enum):
    """How the target pair of each step is drawn."""

    NONLOCAL = "nonlocal"
    LOCAL_OPEN = "local-open"
    LOCAL_PERIODIC = "local-periodic"


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """One ensemble run, and the rule its convergence gate count is judged by.

    That count is the first recorded gate count whose delta is at or below
    threshold, in (0, 1), and stays there for the next confirm_window
    recorded gates; a run with no such confirmed crossing has none.  Every
    field is checked here, once.
    """

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
        if not isinstance(self.threshold, numbers.Real):
            raise ValueError(f"threshold must be a real number, got {self.threshold!r}")
        object.__setattr__(self, "threshold", float(self.threshold))
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
    """The draws (ii, jj, kron) of one protocol step for each stream, kron = V_i (x) V_j (streams, 4, 4).

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
    return ii, jj, np.einsum("rab,rcd->racbd", v[:, 0], v[:, 1]).reshape(b, 4, 4)


def _at_points(ii, jj, kron, gates):
    """Kernel arguments (ii, jj, mats) of one step's draws at every point, one of gates (points, 4, 4).

    Every point shares the draws; rows are point-major, and a row's matrix
    is kron @ gate.
    """
    points = len(gates)
    return np.tile(ii, points), np.tile(jj, points), (kron @ gates[:, np.newaxis]).reshape(-1, 4, 4)


def _replayed(draws, gates):
    """Kernel arguments of each saved draw (ii, jj, kron) at every point, one of gates, in order.

    Each step's products are taken as it is replayed: all of them at once
    would hold 16 entries per point, realization and step, as much as the
    checkpoint itself at N = 4 for every step.
    """
    return (_at_points(*draw, gates) for draw in draws)


def step(state: StateVector, config: ProtocolConfig, rng: np.random.Generator) -> StateVector:
    """One protocol step: fixed gate on a drawn pair, then fresh V_i and V_j.

    A batch of one through the ensemble engine's draw and kernel.
    """
    n = state.num_qubits
    steps = _at_points(*_draw_steps(config.geometry, n, [rng]), config.fixed_gate[np.newaxis])
    _apply_pair_batch(state.amplitudes[np.newaxis], n, *steps)
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
    4), their amplitudes (points, realizations, 2^N) and the gates applied;
    and a checkpoint: a copy of the amplitudes at gate count at, or None,
    with the draws of each step since it, which is stale once every live
    point was asked at the gate applied, or a look-back used it (see
    _run_chunk).
    """

    def __init__(self, config: ProtocolConfig, indices, gates):
        self.rngs = [rng_stream(config.seed, int(i)) for i in indices]
        self.fixed = np.array(gates, dtype=complex)
        self.amps = np.zeros((len(self.fixed), len(self.rngs), 1 << config.num_qubits), dtype=complex)
        self.amps[:, :, 0] = 1.0
        self.applied = 0
        self.stale, self.check, self.at, self.draws = True, None, 0, []


def _chunks(config: ProtocolConfig, indices, gates) -> list[_Chunk]:
    """Fresh chunks over the realization indices, in order, each at most one batch over all points."""
    sub = max(1, _BATCH_ENTRIES // (len(gates) << config.num_qubits))
    return [_Chunk(config, indices[lo : lo + sub], gates) for lo in range(0, len(indices), sub)]


def _run_batch(config: ProtocolConfig, chunks, rec, rows) -> np.ndarray:
    """Bring all chunks together to the recorded gates rec and stack the values asked for.

    rows holds one boolean per point for each gate of rec, the points
    profiled there.  Returns one block per True of rows, in row-major
    order, (asked, realizations, len(measures), floor(N/2)); each gate
    count in rec is reached by every chunk before any chunk goes on, asked
    or not.  A request whose gates are below the chunks' is a look-back:
    each chunk narrows its checkpoint to the points rows asks for and
    replays its saved draws on those rows (see _run_chunk), which leaves
    the checkpoint stale.  Realizations and points are simulated side by
    side, but every value is bitwise identical to a batch of one: the
    random draws come from per-realization streams and the batched linear
    algebra has no cross-row reductions.
    """
    if len(rec) and rec[0] < chunks[0].applied:
        points = rows.any(axis=0)
        rows = rows[:, points]
        for chunk in chunks:
            chunk.check, chunk.draws = chunk.check[points], _replayed(chunk.draws, chunk.fixed[points])
            chunk.stale = True
    return np.concatenate([
        np.concatenate([_run_chunk(config, chunk, g, want) for chunk in chunks], axis=1)
        for g, want in zip(rec, rows)
    ])


def _run_chunk(config: ProtocolConfig, chunk: _Chunk, g, rows) -> np.ndarray:
    """The chunk's values at gate count g at the points of the boolean mask rows, and only those.

    At or above chunk.applied, the chunk steps to g, each gate drawing once
    per stream and advancing every point's rows in one kernel call.  It
    first drops a stale checkpoint; then, unless rows asks for every point,
    it copies its state as the checkpoint if it holds none, and it keeps
    the draws of each step while it holds one.  Below chunk.applied is a
    look-back (see _run_batch): the checkpoint's rows step on to g in place
    with the saved draws, so no stream is drawn twice.  Returns (asked,
    realizations, n_measures, levels), empty if rows asks for none.
    """
    n = config.num_qubits
    b, dim = chunk.amps.shape[1:]
    every = all(rows)
    if g >= chunk.applied:
        if chunk.stale:
            chunk.check, chunk.draws = None, []
        if not every and chunk.check is None:
            chunk.check, chunk.at = chunk.amps.copy(), chunk.applied
        while chunk.applied < g:
            draw = _draw_steps(config.geometry, n, chunk.rngs)
            _apply_pair_batch(chunk.amps.reshape(-1, dim), n, *_at_points(*draw, chunk.fixed))
            if chunk.check is not None:
                chunk.draws.append(draw)
            chunk.applied += 1
        chunk.stale, state = every, chunk.amps
    else:
        state = chunk.check
        while chunk.at < g:
            _apply_pair_batch(state.reshape(-1, dim), n, *next(chunk.draws))
            chunk.at += 1
    shape = (-1, b, len(config.measures), n // 2)
    if not any(rows):
        return np.empty((0, *shape[1:]))
    # Every row asked: profiled in place, not copied.
    asked = state if every else state[rows]
    return _profile_values(asked.reshape(-1, dim), n, config.measures).reshape(shape)


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
    rec = record_gate_indices(config)
    vals = _run_batch(config, chunks, rec, np.ones((len(rec), 1), dtype=bool))[:, 0]
    return {meas: vals[:, k, :] for k, meas in enumerate(config.measures)}


def _slice(config: ProtocolConfig, gates, indices):
    """Answer function of the realizations indices, held at every point of a group.

    answer(live, rec, rows) keeps the points whose ids (positions in gates)
    are in live, then returns the values at each gate count in rec of the
    live points rows asks for, and only those (see _run_batch), (asked,
    realizations, n_measures, levels).
    """
    held = _chunks(config, indices, gates)
    ids = list(range(len(gates)))

    def answer(live, rec, rows):
        keep = [a in live for a in ids]
        ids[:] = live
        if not all(keep):
            for chunk in held:
                chunk.fixed, chunk.amps = chunk.fixed[keep], chunk.amps[keep]
                chunk.check = None if chunk.stale else chunk.check[keep]
        return _run_batch(config, held, rec, rows)

    return answer


def _ensemble_worker(args):
    """Body of a slice's worker process: answers the requests on its connection until None.

    An exception raised by a request is sent back as its answer.
    """
    config, gates, indices, conn = args
    # The parent handles an interrupt, and ends its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    answer = _slice(config, gates, indices)
    while (request := conn.recv()) is not None:
        try:
            conn.send(answer(*request))
        except Exception as exc:
            conn.send(exc)


@contextlib.contextmanager
def _slices(config: ProtocolConfig, gates, slices):
    """Yields a function that asks a pass's slices a request and returns their answers in order.

    A request is the arguments of a slice's answer function.  Each slice is
    an array of realization indices, held (see _slice).  A single slice is
    held in this process; two or more run in one worker process each, for
    this pass only, and this process holds none: holding one of them here
    as well was measured to raise a pooled run's peak memory by 13-16 %
    and not its speed.  An exception a worker answers is raised here, and
    a worker that is gone raises WorkerError.  On leaving, each worker is
    sent None, or ended if the block raised, and joined.
    """
    if len(slices) == 1:
        answer = _slice(config, gates, slices[0])
        yield lambda request: [answer(*request)]
        return
    workers = []

    def ask(request):
        try:
            for _, conn in workers:
                conn.send(request)
            answers = [conn.recv() for _, conn in workers] if request is not None else []
        except (EOFError, OSError) as exc:
            raise WorkerError("a worker process ended abruptly") from exc
        for got in answers:
            if isinstance(got, Exception):
                raise got
        return answers

    try:
        for indices in slices:
            conn, child = multiprocessing.Pipe()
            # Resolved as each process is made, so a stand-in put under the name runs there.
            proc = multiprocessing.Process(
                target=_ensemble_worker, args=((config, gates, indices, child),), daemon=True
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

    config: ProtocolConfig  # the run that made it, whose rule judges its convergence
    gate_indices: np.ndarray
    level_means: dict[Measure, np.ndarray] = field(repr=False)  # (T, floor(N/2))
    baselines: dict[Measure, np.ndarray] = field(repr=False)  # (floor(N/2),)

    @property
    def num_levels(self) -> int:
        return self.config.num_qubits // 2

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

    def mean_series(self, measure: Measure, level: int | None = None) -> np.ndarray:
        """Ensemble mean <E> at each recorded gate count."""
        return self.level_means[measure][:, self._columns(level)].mean(axis=1)

    def delta_series(self, measure: Measure, level: int | None = None) -> np.ndarray:
        """Normalized distance to saturation, (E_haar - <E>) / E_haar."""
        cols = self._columns(level)
        return _delta(self.level_means[measure][:, cols], self.baselines[measure][cols])


def run_ensemble(config: ProtocolConfig, workers: int | None = None, *, gates=None):
    """Average the per-realization series over R independent realizations.

    Without gates, returns the trajectory of config at every recorded gate
    up to max_gates.  With gates, returns one trajectory per gate, of
    config with that fixed gate and the one measure _JUDGED names, whatever
    config.measures holds, holding the recorded gates its global delta was
    judged at, in gate order (see _pass), each row bitwise that of the
    point's full run.  It ends at the last gate of the confirm window of
    the first confirmed crossing, count + confirm_window * eval_stride, or
    at the last recorded gate.  Its judged gates run without gaps back to
    its last failing one, so convergence_gate_count, by the rule of the
    point's config that the trajectory carries, gives the full run's
    count.

    Points share their realizations' streams, so one draw per stream per
    gate serves every point of a group; _ensemble_means lays out the
    groups, passes, slices and rounds, over at most min(workers, R, cores)
    processes at a time.  The result is bitwise independent of the worker
    count and of the layout; workers=None means one process per core.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if gates is not None:
        config = replace(config, measures=(_JUDGED,))
    baselines = {
        meas: np.array(
            [baseline_level(config.num_qubits, m, meas) for m in range(1, config.num_qubits // 2 + 1)]
        )
        for meas in config.measures
    }
    judge = None if gates is None else baselines[_JUDGED]
    points = [config] if gates is None else [replace(config, fixed_gate=gate) for gate in gates]
    series = _ensemble_means(config, [point.fixed_gate for point in points], workers, judge)
    trajs = [
        Trajectory(
            config=point,
            gate_indices=at,
            level_means={meas: means[:, k, :] for k, meas in enumerate(config.measures)},
            baselines=baselines,
        )
        for point, (at, means) in zip(points, series)
    ]
    return trajs[0] if gates is None else trajs


def _ensemble_means(config: ProtocolConfig, gates, workers: int | None, judge) -> list:
    """Each point's recorded gate counts (T,) and its ensemble means (T, n_measures, levels) there.

    Each point is config with one of gates as its fixed gate.  Groups of
    points run one after another, sized so that one realization's points
    fit in one batch and, when they fit, so that min(workers, R, cores)
    slices hold all R realizations within _HELD_ENTRIES each, a
    realization counted as points * 2^N amplitudes plus 64 for its random
    stream; when judged with w > 0, as two copies of those amplitudes (its
    states and their checkpoint) plus 64 and the saved draws.  A group
    above that runs its realizations in passes of at most as many slices
    as hold it by the first count, each held (see _slices).  Every pass is
    one _pass.  The last is given judge (None for a run) and judges each
    point at the gates it picks, with probe spacing h = w if its slices
    hold it by the second count and 0 if not; every other pass is given
    None and sums every point at every recorded gate, the next pass adding
    its values after those sums.  The sums are divided by R once, at the
    end, so every layout gives the same bits.
    """
    r, n, w = config.realizations, config.num_qubits, config.confirm_window
    procs = min(workers or r, r, os.cpu_count() or 1)
    # A judged realization with w > 0 also holds a checkpoint of its points'
    # states and the draws of at most (w + 1) * stride steps, 17 entries each.
    copies, saved = 1, 0
    if judge is not None and w:
        copies, saved = 2, 17 * min((w + 1) * config.eval_stride, config.max_gates)
    size = max(1, min((_HELD_ENTRIES // -(-r // procs) - 64 - saved) // copies, _BATCH_ENTRIES) >> n)
    rec = record_gate_indices(config)
    out = []
    for lo in range(0, len(gates), size):
        group = gates[lo : lo + size]
        entries = (len(group) << n) + 64
        per_pass = procs * max(1, _HELD_ENTRIES // entries)
        passes = np.array_split(np.arange(r), -(-r // per_pass))
        sums = None
        for p, indices in enumerate(passes):
            slices = np.array_split(indices, min(procs, len(indices)))
            width = len(indices) * len(config.measures) * (n // 2)
            judging = judge if p == len(passes) - 1 else None
            held = len(slices[0]) * (copies * (len(group) << n) + 64 + saved)
            h = w if judging is not None and held <= _HELD_ENTRIES else 0
            with _slices(config, group, slices) as ask:
                sums = _pass(config, ask, len(group), width, sums, judging, h)
        out += [(rec[at], rows / r) for at, rows in sums]
    return out


def _pass(config: ProtocolConfig, ask, points, width, before, judge, h) -> list:
    """Each point's judged positions in the recorded gates, and its realization sums there.

    A request names the live points by id, and the slices answer only the
    rows it asks for, each summed in realization order after before, the
    answer of the pass before (None in the first).  A round takes at most
    _BATCH_ENTRIES >> 4 values, or one recorded gate.  A row's columns are
    summed alike, however many there are.  judge is None, or the levels'
    baselines of the measure in column 0, the one _JUDGED names (see
    run_ensemble).  Without it h is 0: every point is judged at every
    recorded gate, and none stops.  With it, a row passes when the global
    delta of its column 0 is at or below config.threshold; a point's run is
    its passes in a row, and its window closes when the run exceeds
    config.confirm_window (w).  The probe gates are the recorded-gate
    positions h, 2h + 1, 3h + 2, ... and the last; as h <= w, every run of
    w + 1 recorded gates holds one.  A point whose run is open is judged at
    the next gate.  Any other point is judged at the next probe gate; if
    that passes, at every gate since its last judged one too, so its run is
    the passes in a row ending at the probe.  A trajectory's judged gates
    thus run without gaps back to its last failing one, and a point stops
    where its window closes, at its count + w * stride.  A point is
    profiled at every gate of a round if its run is open at the start, else
    at probe gates only, and a round ends no later than the next probe
    gate.  A probe gate's row asks for every live point, so a slice's
    checkpoint (see _run_chunk) is at or before every gate a passing probe
    looks back over.  h = 0 judges every gate.
    """
    rec = record_gate_indices(config)
    r, window = config.realizations, len(rec) if judge is None else config.confirm_window
    sums = [{} for _ in range(points)]  # realization sums, by position
    judged = [[] for _ in range(points)]  # positions, in gate order
    runs = [0] * points
    live, done = list(range(points)), 0

    def request(lo, hi, rows):
        at = [(live[c], lo + t) for t, c in np.argwhere(rows).tolist()]
        vals = np.concatenate(ask((live, rec[lo:hi], rows)), axis=1)
        if before is not None and at:
            # The carry comes first in realization order: carry + v0, then + v1, ...
            vals[:, 0] += [before[a][1][t] for a, t in at]
        # A copy, so that the rows kept do not hold the whole cumsum.
        for (a, t), row in zip(at, np.cumsum(vals, axis=1)[:, -1].copy()):
            sums[a][t] = row

    def probe(t):
        """The first probe gate's position at or after t."""
        return min(t + h - t % (h + 1), len(rec) - 1)

    def passes(a, t):
        return judge is not None and _delta(sums[a][t][0] / r, judge) <= config.threshold

    def judge_at(a, t):
        runs[a] = runs[a] + 1 if passes(a, t) else 0
        judged[a].append(t)

    while live and done < len(rec):
        # A row adds at most one to a run, so only a round's last row closes a window.
        k = min(
            len(rec) - done,
            max(1, (_BATCH_ENTRIES >> 4) // (width * len(live))),
            window + 1 - max(runs[a] for a in live),
            probe(done) + 1 - done if h else len(rec),
        )
        rows = np.array([[runs[a] > 0 or probe(t) == t for a in live] for t in range(done, done + k)])
        request(done, done + k, rows)
        done += k
        back = {}
        for a in live:
            t = judged[a][-1] + 1 if judged[a] else 0
            while t < done:
                # The gate a is judged at next: t while its run is open, else the next probe.
                q = t if runs[a] else probe(t)
                if q not in sums[a]:
                    break
                if q > t and passes(a, q):
                    back[a] = t  # a passing probe, the round's last row: look back to t
                    break
                judge_at(a, q)  # past a failing probe, the gates before it stay unjudged
                t = q + 1
        missing = {(a, u) for a, t in back.items() for u in range(t, done - 1) if u not in sums[a]}
        if missing:
            lo = min(u for _, u in missing)
            rows = np.array([[(a, u) in missing for a in live] for u in range(lo, done - 1)])
            request(lo, done - 1, rows)
        for a, t in back.items():
            for u in range(t, done):
                judge_at(a, u)
        live = [a for a in live if runs[a] <= window]
    return [(ts, np.array([sums[a][t] for t in ts])) for a, ts in enumerate(judged)]


def convergence_gate_count(traj: Trajectory, measure: Measure, level: int | None = None) -> int | None:
    """Convergence gate count of a series by the rule of traj.config (see ProtocolConfig).

    None when no confirmed crossing exists within the recorded range.
    """
    window = traj.config.confirm_window
    run = 0
    for k, ok in enumerate(traj.delta_series(measure, level) <= traj.config.threshold):
        run = run + 1 if ok else 0
        if run > window:
            return int(traj.gate_indices[k - window])
    return None


def fit_decay_rate(traj: Trajectory, measure: Measure, level: int | None = None) -> float | None:
    """Exponential decay rate of delta per gate, from a log-linear fit.

    Ordinary least squares of ln(delta) against gate count, restricted to
    recorded points with delta in [lo, hi] of FIT_WINDOW.  Returns None when
    fewer than 5 points fall in the window or the fitted rate is not
    positive.
    """
    hi, lo = FIT_WINDOW
    delta = traj.delta_series(measure, level)
    mask = (delta >= lo) & (delta <= hi)
    if int(mask.sum()) < 5:
        return None
    slope = np.polyfit(traj.gate_indices[mask], np.log(delta[mask]), 1)[0]
    rate = -float(slope)
    return rate if rate > 0.0 else None


@dataclass(frozen=True)
class ConvergenceEntry:
    n_gates: int | None  # None when not converged
    decay_rate: float | None  # None when unfit


def convergence_report(traj: Trajectory) -> dict[tuple[Measure, int | None], ConvergenceEntry]:
    """Convergence gate count and decay rate of each series, keyed by (measure, level) in series order."""
    report = {}
    for measure in traj.config.measures:
        for level in traj.levels:
            n_gates = convergence_gate_count(traj, measure, level)
            report[measure, level] = ConvergenceEntry(n_gates, fit_decay_rate(traj, measure, level))
    return report

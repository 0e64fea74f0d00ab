"""Protocol steps, ensemble runs, convergence detection, and rate fits."""
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randent.brachistochrone
import randent.protocol
from randent.brachistochrone import sweep_phi
from randent.entanglement import Measure, global_entanglement
from randent.haar_baseline import haar_global_baseline
from randent.protocol import (
    ConvergenceEntry,
    Geometry,
    ProtocolConfig,
    Trajectory,
    convergence_gate_count,
    convergence_report,
    fit_decay_rate,
    pick_pair,
    record_gate_indices,
    run_ensemble,
    run_realization,
    step,
)
from randent.qstate import (
    StateVector,
    canonical_gate,
    entangler_gate,
    rng_stream,
    sample_haar_u2,
)


def make_config(**kw):
    defaults = dict(
        num_qubits=3,
        fixed_gate=entangler_gate(math.pi / 3),
        realizations=4,
        max_gates=20,
        measures=(Measure.LINEAR,),
        seed=99,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def synthetic_trajectory(delta, stride=1, **rule):
    """Single-level trajectory whose delta series reproduces the given values, judged by rule."""
    delta = np.asarray(delta, dtype=float)
    return Trajectory(
        config=make_config(num_qubits=2, eval_stride=stride, **rule),
        gate_indices=np.arange(delta.size) * stride,
        level_means={Measure.LINEAR: (1.0 - delta)[:, None]},
        baselines={Measure.LINEAR: np.array([1.0])},
    )


def synthetic_flags(passes, **rule):
    """Synthetic trajectory whose delta is at or below the default threshold exactly where passes is True."""
    return synthetic_trajectory([0.001 if ok else 1.0 for ok in passes], **rule)


class TestPickPair:
    def test_nonlocal_two_qubits(self):
        rng = rng_stream(40)
        for _ in range(50):
            pair = pick_pair(Geometry.NONLOCAL, 2, rng)
            assert sorted(pair) == [0, 1]
        with pytest.raises(ValueError, match="at least 2 qubits"):
            pick_pair(Geometry.NONLOCAL, 1, rng)

    def test_local_open_support_and_uniformity(self):
        rng = rng_stream(41)
        n_draws = 100_000
        counts = {}
        for _ in range(n_draws):
            pair = pick_pair(Geometry.LOCAL_OPEN, 4, rng)
            counts[pair] = counts.get(pair, 0) + 1
        assert set(counts) == {(0, 1), (1, 2), (2, 3)}
        p = 1 / 3
        se = math.sqrt(p * (1 - p) * n_draws)
        for c in counts.values():
            assert abs(c - n_draws * p) < 4 * se

    def test_local_periodic_includes_wraparound(self):
        rng = rng_stream(42)
        pairs = {pick_pair(Geometry.LOCAL_PERIODIC, 4, rng) for _ in range(5000)}
        assert pairs == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_nonlocal_uniform_over_ordered_pairs(self):
        rng = rng_stream(43)
        n_draws = 100_000
        counts = np.zeros((3, 3))
        for _ in range(n_draws):
            i, j = pick_pair(Geometry.NONLOCAL, 3, rng)
            counts[i, j] += 1
        assert counts.diagonal().sum() == 0
        p = 1 / 6
        se = math.sqrt(p * (1 - p) * n_draws)
        offdiag = counts[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(offdiag - n_draws * p) < 4 * se)

    def test_geometry_checked(self):
        # A string used to fall through to the local-periodic branch.
        rng = rng_stream(44)
        with pytest.raises(ValueError, match="geometry"):
            pick_pair("nonlocal", 4, rng)
        # Nothing was drawn.
        assert rng.integers(1 << 30) == rng_stream(44).integers(1 << 30)


class TestStep:
    def test_identity_gate_keeps_separable(self):
        config = make_config(num_qubits=2, fixed_gate=np.eye(4, dtype=complex))
        rng = rng_stream(44)
        s = StateVector.basis_state(2, 0)
        for _ in range(10):
            step(s, config, rng)
            prof = global_entanglement(s, Measure.LINEAR)
            assert prof.global_value < 1e-12

    def test_entangler_step_is_maximal_regardless_of_rotations(self):
        config = make_config(num_qubits=2, fixed_gate=entangler_gate(math.pi / 4))
        for r in range(100):
            s = StateVector.basis_state(2, 0)
            step(s, config, rng_stream(45, r))
            prof = global_entanglement(s, Measure.LINEAR)
            assert abs(prof.per_level[0] - 1.0) < 1e-10

    def test_norm_preserved(self):
        config = make_config(num_qubits=4, max_gates=50)
        rng = rng_stream(46)
        s = StateVector.basis_state(4, 0)
        for _ in range(50):
            step(s, config, rng)
        assert abs(s.norm() - 1.0) < 1e-12


class TestRunRealization:
    def test_zero_gates_single_record(self):
        config = make_config(max_gates=0)
        series = run_realization(config, 0)
        arr = series[Measure.LINEAR]
        assert arr.shape == (1, 1)
        assert np.all(arr == 0.0)

    def test_bit_identical_reruns(self):
        config = make_config(max_gates=15, measures=(Measure.LINEAR, Measure.VON_NEUMANN))
        a = run_realization(config, 2)
        b = run_realization(config, 2)
        for meas in config.measures:
            np.testing.assert_array_equal(a[meas], b[meas])

    def test_matches_sequential_steps(self):
        # step is a batch of one through the engine's draw and kernel, so
        # the two agree bit for bit.
        for geometry in Geometry:
            config = make_config(num_qubits=4, max_gates=25, geometry=geometry,
                                 measures=(Measure.LINEAR, Measure.VON_NEUMANN))
            series = run_realization(config, 1)
            rng = rng_stream(config.seed, 1)
            s = StateVector.basis_state(4, 0)
            for g in range(1, 26):
                step(s, config, rng)
                for meas in config.measures:
                    prof = global_entanglement(s, meas)
                    np.testing.assert_array_equal(series[meas][g], prof.per_level)

    def test_desk_scale_convergence(self):
        config = make_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), max_gates=200, seed=7
        )
        series = run_realization(config, 0)
        final = series[Measure.LINEAR][-1].mean()
        target = haar_global_baseline(4, Measure.LINEAR).global_value
        assert abs(final - target) < 0.1

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            run_realization(make_config(realizations=2), 2)


class TestRunEnsemble:
    def test_single_realization_equals_ensemble(self):
        config = make_config(realizations=1, max_gates=12)
        traj = run_ensemble(config, workers=1)
        series = run_realization(config, 0)
        np.testing.assert_array_equal(
            traj.level_means[Measure.LINEAR], series[Measure.LINEAR]
        )

    def test_delta_starts_at_exactly_one(self):
        traj = run_ensemble(make_config(max_gates=5), workers=1)
        for level in (1, None):
            assert traj.delta_series(Measure.LINEAR, level)[0] == 1.0

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        # R above 8 at N = 3 with one measure meets numpy's pairwise sum on
        # one-gate slices.  A batch of 3 realizations gives every process
        # several chunks (forked workers inherit the patched value).  Three
        # cores let three workers run three slices.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for batch_entries in (randent.protocol._BATCH_ENTRIES, 3 << 3):
            monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", batch_entries)
            for measures in [(Measure.LINEAR,), (Measure.VON_NEUMANN,)]:
                config = make_config(num_qubits=3, realizations=13, max_gates=30, measures=measures)
                t1 = run_ensemble(config, workers=1)
                for workers in (2, 3):
                    other = run_ensemble(config, workers=workers)
                    np.testing.assert_array_equal(
                        t1.level_means[measures[0]], other.level_means[measures[0]]
                    )

    def test_held_states_bounded(self, monkeypatch):
        # With at most 5 held states, 13 realizations run in passes: of 5, 4
        # and 4 in this process, or of 7 and 6, each in two workers' slices
        # (4 and 3, then 3 and 3).  Both give the bits of the run that holds
        # them all, also for a measure other than the linear one.
        configs = [
            make_config(num_qubits=3, realizations=13, max_gates=30, measures=measures)
            for measures in [(Measure.LINEAR,), (Measure.VON_NEUMANN,)]
        ]
        wholes = [run_ensemble(config, workers=1) for config in configs]
        held = []
        chunks = randent.protocol._chunks

        def recording(config, indices, gates):
            held.append(len(indices))
            return chunks(config, indices, gates)

        monkeypatch.setattr(randent.protocol, "_chunks", recording)
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 5 * ((1 << 3) + 64))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for config, whole in zip(configs, wholes):
            (measure,) = config.measures
            held.clear()
            for workers in (1, 2):
                parts = run_ensemble(config, workers=workers)
                np.testing.assert_array_equal(whole.level_means[measure], parts.level_means[measure])
            assert held == [5, 4, 4], measure

    def test_round_values_bounded(self, monkeypatch):
        # Two passes of 3 realizations: no call returns more than the round
        # budget of values, or than one recorded gate's values.
        config = make_config(num_qubits=3, realizations=6, max_gates=200)
        whole = run_ensemble(config, workers=1)
        shapes = []
        run_batch = randent.protocol._run_batch

        def recording(config, chunks, rec, *rest):
            vals = run_batch(config, chunks, rec, *rest)
            shapes.append(vals.shape)
            return vals

        monkeypatch.setattr(randent.protocol, "_run_batch", recording)
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", 1 << 12)
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 3 * ((1 << 3) + 64))
        passes = run_ensemble(config, workers=1)
        np.testing.assert_array_equal(
            whole.level_means[Measure.LINEAR], passes.level_means[Measure.LINEAR]
        )
        assert {shape[1] for shape in shapes} == {3}
        assert sum(shape[0] for shape in shapes) == 2 * (config.max_gates + 1)
        budget = (1 << 12) >> 4
        assert all(shape[0] == 1 or math.prod(shape) <= budget for shape in shapes), shapes

    def test_batch_returns_only_asked_rows(self, monkeypatch):
        # Three chunks of at most two realizations; gates 2, 3, 5 and the
        # last ask for no point, gate 1 for two points, gate 4 for one.
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", 2 * 3 << 4)
        config = make_config(num_qubits=4, realizations=5, max_gates=6,
                             measures=(Measure.LINEAR, Measure.VON_NEUMANN))
        gates = [entangler_gate(phi) for phi in (0.4, 1.1, 2.0)]
        rec = record_gate_indices(config)
        rows = np.zeros((len(rec), len(gates)), dtype=bool)
        rows[1, [0, 2]] = rows[4, 1] = True
        chunks = randent.protocol._chunks(config, range(5), gates)
        asked = randent.protocol._run_batch(config, chunks, rec, rows)
        assert len(chunks) == 3 and [chunk.applied for chunk in chunks] == [rec[-1]] * 3
        every = randent.protocol._run_batch(
            config, randent.protocol._chunks(config, range(5), gates), rec, np.ones_like(rows)
        )
        assert asked.shape == (3, 5, 2, 2)
        np.testing.assert_array_equal(asked, every.reshape(len(rec), len(gates), 5, 2, 2)[rows])

    def test_batch_holds_the_gates_not_fully_asked(self, monkeypatch):
        # Three chunks of at most two realizations, stride 2.  Gate 0 asks
        # for no point, so the state at 0 is the checkpoint, and gate 2 asks
        # for one, so its two steps are saved.  The look-back to 0 leaves
        # the checkpoint stale, and stepping to gate 4, which asks for every
        # point, drops it; gates 6 and 8 ask for two, so the state at 4 is
        # the checkpoint, with the four steps since it.
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", 2 * 3 << 3)
        run_batch = randent.protocol._run_batch
        config = make_config(num_qubits=3, realizations=5, max_gates=8, eval_stride=2)
        gates = [entangler_gate(phi) for phi in (0.4, 1.1, 2.0)]
        rec = record_gate_indices(config)
        rows = np.array([[0, 0, 0], [0, 1, 0], [1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=bool)
        every = run_batch(config, randent.protocol._chunks(config, range(5), gates), rec,
                          np.ones_like(rows)).reshape(len(rec), len(gates), 5, 1, 1)
        chunks = randent.protocol._chunks(config, range(5), gates)
        assert len(chunks) == 3

        def checkpoints():
            return [(chunk.at, len(chunk.draws)) if chunk.check is not None else None for chunk in chunks]

        held = [(0, 0), (0, 2), None, (4, 2), (4, 4)]
        for k, g in enumerate(rec):
            run_batch(config, chunks, rec[k : k + 1], rows[k : k + 1])
            assert checkpoints() == [held[k]] * 3, g
            if k == 1:
                back = run_batch(config, chunks, rec[:1], np.ones_like(rows[:1]))
                np.testing.assert_array_equal(back, every[0])
        back = run_batch(config, chunks, rec[3:4], rows[2:3])
        np.testing.assert_array_equal(back, every[3])
        assert [chunk.applied for chunk in chunks] == [8] * 3

        chunks = randent.protocol._chunks(config, range(5), gates)
        run_batch(config, chunks, rec, np.ones_like(rows))
        assert checkpoints() == [None] * 3 and all(chunk.draws == [] for chunk in chunks)

    @pytest.mark.parametrize("geometry", list(Geometry))
    @pytest.mark.parametrize("num_qubits", [3, 4, 5, 6])
    def test_replay_is_bitwise_the_full_batch(self, num_qubits, geometry, monkeypatch):
        # Gates 0 and 2 ask for every point, so no checkpoint is taken; gates
        # 4, 6 and 8 ask for point 0 only, so the state at 2 is the
        # checkpoint and the eight steps after it are saved.  The look-back
        # replays realizations 1, 4 and 5 (two chunks) at points 1 and 2 from
        # it: every state it profiles and every value are those of the batch
        # of all six realizations, which asks for every row at every gate.
        config = make_config(num_qubits=num_qubits, geometry=geometry, realizations=6, max_gates=10,
                             eval_stride=2, measures=(Measure.LINEAR, Measure.VON_NEUMANN))
        gates = [entangler_gate(1.1), canonical_gate([0.7, 0.4, 0.1]), entangler_gate(math.pi / 2)]
        rec = record_gate_indices(config)
        run_batch = randent.protocol._run_batch
        states = []
        profile = randent.protocol._profile_values

        def recording(amps, num_qubits, measures):
            states.append(amps.copy())
            return profile(amps, num_qubits, measures)

        monkeypatch.setattr(randent.protocol, "_profile_values", recording)
        chunks = randent.protocol._chunks(config, range(6), gates)
        ones = np.ones((1, 3), dtype=bool)
        every = [run_batch(config, chunks, rec[k : k + 1], ones) for k in range(len(rec))]
        every = np.array(every).reshape(len(rec), 3, 6, 2, num_qubits // 2)
        full_states = np.array(states).reshape(len(rec), 3, 6, -1)
        subset = [1, 4, 5]
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", 2 * 3 << num_qubits)
        chunks = randent.protocol._chunks(config, subset, gates)
        assert [len(chunk.rngs) for chunk in chunks] == [2, 1]
        rows = np.ones((len(rec), 3), dtype=bool)
        rows[2:5, 1:] = False
        run_batch(config, chunks, rec, rows)
        assert [(chunk.at, len(chunk.draws)) for chunk in chunks] == [(2, 8)] * 2
        back = np.array([[0, 1, 1], [0, 0, 1], [0, 1, 0]], dtype=bool)
        states.clear()
        got = run_batch(config, chunks, rec[2:5], back)
        assert all(chunk.stale for chunk in chunks)
        want = every[2:5][:, :, subset][back]
        np.testing.assert_array_equal(got, want)
        # Each (gate, chunk) profiles its asked rows at once, point-major.
        replayed = np.concatenate([
            np.concatenate([states.pop(0).reshape(int(row.sum()), len(part), -1) for part in ([1, 4], [5])],
                           axis=1)
            for row in back
        ])
        np.testing.assert_array_equal(replayed, full_states[2:5][:, :, subset][back])

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, workers, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(multiprocessing.Process, "start", no_work)
        monkeypatch.setattr(randent.protocol, "_run_batch", no_work)
        for gates in (None, [make_config().fixed_gate]):
            with pytest.raises(ValueError, match="workers"):
                run_ensemble(make_config(), workers=workers, gates=gates)

    @pytest.mark.parametrize("level", [0, -1, 3, 5])
    def test_level_checked(self, level):
        traj = run_ensemble(make_config(num_qubits=4, realizations=2, max_gates=3), workers=1)
        for series in (traj.mean_series, traj.delta_series):
            with pytest.raises(ValueError, match="level must be"):
                series(Measure.LINEAR, level)

    def test_mean_entries_bounded(self):
        config = make_config(num_qubits=4, realizations=6, max_gates=40,
                             measures=(Measure.LINEAR, Measure.VON_NEUMANN))
        traj = run_ensemble(config, workers=1)
        for meas in config.measures:
            arr = traj.level_means[meas]
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0 + 1e-12)

    def test_eval_stride_indices(self):
        config = make_config(max_gates=10, eval_stride=3)
        traj = run_ensemble(config, workers=1)
        np.testing.assert_array_equal(traj.gate_indices, [0, 3, 6, 9])


def test_local_unitary_invariance():
    # Extra single-qubit rotations between evaluations must not move any
    # recorded entanglement value.
    config = make_config(num_qubits=3, max_gates=50)
    rng = rng_stream(47)
    extra = rng_stream(48)
    s = StateVector.basis_state(3, 0)
    t = StateVector.basis_state(3, 0)
    for _ in range(50):
        step(s, config, rng)
        t.amplitudes[:] = s.amplitudes
        for q in range(3):
            t.apply_single(sample_haar_u2(extra), q)
        for meas in Measure:
            a = global_entanglement(s, meas)
            b = global_entanglement(t, meas)
            np.testing.assert_allclose(a.per_level, b.per_level, atol=1e-10)


class TestConvergenceGateCount:
    def test_constant_series_never_converges(self):
        traj = synthetic_trajectory(np.ones(300))
        assert convergence_gate_count(traj, Measure.LINEAR) is None

    def test_exponential_crossing(self):
        n = np.arange(300)
        traj = synthetic_trajectory(np.exp(-0.05 * n), threshold=0.01)
        # ln(100)/0.05 = 92.1, so the first index at or below 0.01 is 93
        assert convergence_gate_count(traj, Measure.LINEAR) == 93

    def test_half_threshold(self):
        n = np.arange(300)
        traj = synthetic_trajectory(np.exp(-0.05 * n), threshold=0.5)
        assert convergence_gate_count(traj, Measure.LINEAR) == 14

    def test_confirmation_rejects_brief_dip(self):
        delta = np.ones(60)
        delta[10:15] = 0.001  # five-point dip, too short for a 10-point window
        delta[30:] = 0.001
        traj = synthetic_trajectory(delta)
        assert convergence_gate_count(traj, Measure.LINEAR) == 30

    def test_window_must_fit_in_series(self):
        delta = np.ones(20)
        delta[15:] = 0.001  # crossing too close to the end to confirm
        traj = synthetic_trajectory(delta, confirm_window=10)
        assert convergence_gate_count(traj, Measure.LINEAR) is None
        traj = synthetic_trajectory(delta, confirm_window=4)
        assert convergence_gate_count(traj, Measure.LINEAR) == 15

    def test_negative_window_rejected(self):
        # A bad rule is refused before anything is counted.
        with pytest.raises(ValueError, match="confirm_window"):
            synthetic_trajectory(np.ones(30), confirm_window=-1)
        for threshold in (0.0, 1.0):
            with pytest.raises(ValueError, match="threshold"):
                synthetic_trajectory(np.ones(30), threshold=threshold)

    def test_window_closes_at_first_full_run(self):
        traj = synthetic_flags([True, False, True, True, True, False, True], confirm_window=2)
        assert convergence_gate_count(traj, Measure.LINEAR) == 2

    def test_zero_window_takes_first_pass(self):
        traj = synthetic_flags([False, False, True], confirm_window=0)
        assert convergence_gate_count(traj, Measure.LINEAR) == 2

    def test_no_confirmed_run(self):
        traj = synthetic_flags([True, True, False, True], confirm_window=2)
        assert convergence_gate_count(traj, Measure.LINEAR) is None

    def test_stride_scales_reported_index(self):
        n = np.arange(150)
        traj = synthetic_trajectory(np.exp(-0.05 * 2 * n), stride=2, threshold=0.01)
        crossing = convergence_gate_count(traj, Measure.LINEAR)
        assert crossing == 94  # first recorded even index past 92.1


_GATES = st.one_of(
    st.just(np.eye(4, dtype=complex)),  # never entangles
    st.just(entangler_gate(math.pi)),  # local phases only: never entangles
    st.floats(0.1, math.pi - 0.1).map(entangler_gate),
    st.tuples(*[st.floats(0.0, math.pi / 4)] * 3).map(canonical_gate),
)


def _full_run(config):
    """The run to max_gates, from each realization's own run summed in realization order."""
    r = config.realizations
    series = np.stack([run_realization(config, i)[Measure.LINEAR] for i in range(r)])
    baselines = haar_global_baseline(config.num_qubits, Measure.LINEAR).per_level
    return Trajectory(
        config=config,
        gate_indices=record_gate_indices(config),
        level_means={Measure.LINEAR: np.cumsum(series, axis=0)[-1] / r},
        baselines={Measure.LINEAR: np.array(baselines)},
    )


def _assert_common_rows(early, full):
    """At each gate both trajectories hold, their rows are bitwise equal; early's gates are in order."""
    assert np.all(np.diff(early.gate_indices) > 0)
    _, mine, theirs = np.intersect1d(early.gate_indices, full.gate_indices, return_indices=True)
    np.testing.assert_array_equal(
        early.level_means[Measure.LINEAR][mine], full.level_means[Measure.LINEAR][theirs]
    )
    return mine.size


def _count(traj):
    return convergence_gate_count(traj, Measure.LINEAR)


class TestUntilConverged:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        num_qubits=st.integers(2, 5),
        realizations=st.integers(1, 16),  # above 8 at N = 2, 3 meets numpy's pairwise sum
        geometry=st.sampled_from(list(Geometry)),
        eval_stride=st.integers(1, 3),
        confirm_window=st.integers(0, 10),
        max_gates=st.integers(0, 80),
        threshold=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
        seed=st.integers(0, 2**16),
        gate=_GATES,
    )
    def test_prefix_of_full_run(self, gate, **kw):
        config = ProtocolConfig(fixed_gate=gate, measures=(Measure.LINEAR,), **kw)
        full = _full_run(config)
        (early,) = run_ensemble(config, workers=1, gates=[gate])
        want = _count(full)
        assert _count(early) == want
        if want is None:
            assert early.gate_indices[-1] == full.gate_indices[-1]
        else:
            assert early.gate_indices[-1] == want + config.confirm_window * config.eval_stride
        # Every gate judged is a recorded gate of the full run, with its row.
        assert _assert_common_rows(early, full) == early.gate_indices.size

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        num_qubits=st.integers(2, 5),
        realizations=st.integers(1, 16),
        geometry=st.sampled_from(list(Geometry)),
        eval_stride=st.integers(1, 3),
        confirm_window=st.integers(0, 10),
        max_gates=st.integers(0, 80),
        threshold=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
        seed=st.integers(0, 2**16),
        gates=st.lists(_GATES, min_size=1, max_size=4),
    )
    def test_grid_matches_one_gate_runs(self, gates, **kw):
        config = ProtocolConfig(fixed_gate=gates[0], measures=(Measure.LINEAR,), **kw)
        grid = run_ensemble(config, workers=1, gates=gates)
        assert len(grid) == len(gates)
        for gate, traj in zip(gates, grid):
            point = replace(config, fixed_gate=gate)
            (alone,) = run_ensemble(point, workers=1, gates=[gate])
            np.testing.assert_array_equal(traj.gate_indices, alone.gate_indices)
            np.testing.assert_array_equal(
                traj.level_means[Measure.LINEAR], alone.level_means[Measure.LINEAR]
            )
            assert _count(traj) == _count(_full_run(point))

    @pytest.mark.parametrize("window", [0, 3])
    def test_pooled_and_batched_runs_are_cut_alike(self, monkeypatch, window):
        config = make_config(
            num_qubits=4, realizations=6, max_gates=120, threshold=0.05, confirm_window=window
        )
        gates = [entangler_gate(phi) for phi in (math.pi / 3, math.pi / 2, 0.3, math.pi)]
        streamed = run_ensemble(config, workers=1, gates=gates)
        counts = [_count(traj) for traj in streamed]
        assert streamed[0].gate_indices[-1] == counts[0] + window < config.max_gates
        assert counts[-1] is None and streamed[-1].gate_indices[-1] == config.max_gates
        runs = {
            # Every point, in two realization slices, one per worker process.
            "pooled": lambda: run_ensemble(config, workers=2, gates=gates),
            # Fewer points than workers: the same slices, each stopped at its window.
            "spread": lambda: run_ensemble(config, workers=3, gates=gates[:2]) + streamed[2:],
            # Two chunks per group, still held at once: the run stops at each window.
            "batched": lambda: run_ensemble(config, workers=1, gates=gates),
            # Groups of one point, each in two passes: the first runs to max_gates,
            # the last stops at the window.  Its slice leaves no room for a
            # checkpoint and its draws, so it judges every gate.
            "passes": lambda: run_ensemble(config, workers=1, gates=gates),
        }
        for name, run in runs.items():
            if name == "batched":
                monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", (4 * 6 << 4) - 1)
            if name == "passes":
                monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 6 * ((1 << 4) + 64) - 1)
            for other, want in zip(run(), streamed, strict=True):
                assert _count(other) == _count(want), name
                assert other.gate_indices[-1] == want.gate_indices[-1], name
                assert _assert_common_rows(other, want) > 0, name
                if name == "passes":
                    np.testing.assert_array_equal(
                        other.gate_indices, np.arange(other.gate_indices[-1] + 1)
                    )

    @pytest.mark.parametrize("workers, sizes", [(1, [2, 2, 1]), (2, [3, 2])])
    def test_judged_pass_after_a_carry_is_cut_alike(self, pass_log, monkeypatch, workers, sizes):
        # Room for two one-point realizations: groups of one point, each in
        # passes of the given sizes.  The last pass adds its values to the
        # sums before it, and its slices hold one realization each, with room
        # for a checkpoint and the draws of w + 1 = 4 steps: it probes every
        # fourth gate (h = w = 3); in all, three probes pass and look back.
        config = make_config(num_qubits=4, realizations=5, max_gates=200, seed=42, threshold=0.2,
                             confirm_window=3)
        gates = [entangler_gate(phi) for phi in (math.pi / 3, math.pi / 2, 0.3, math.pi)]
        whole = run_ensemble(config, workers=1, gates=gates)
        assert [_count(traj) for traj in whole] == [4, 9, 24, None]
        pass_log.clear()
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 2 * (1 << 4) + 64 + 17 * 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        got = run_ensemble(config, workers=workers, gates=gates)
        assert [entry.realizations for entry in pass_log] == sizes * len(gates)
        assert {(entry.carry, entry.h) for entry in pass_log[len(sizes) - 1 :: len(sizes)]} == {(True, 3)}
        assert len(pass_log.replays) == 3
        for other, want in zip(got, whole, strict=True):
            assert _count(other) == _count(want)
            assert other.gate_indices[-1] == want.gate_indices[-1]
            assert _assert_common_rows(other, want) > 0

    def _judged_alone(self, measures):
        # Whatever measures the config holds, a judged grid runs the linear
        # measure alone, and judges the same gates with the same rows.
        gates = [entangler_gate(phi) for phi in (math.pi / 3, math.pi / 2, 0.3)]
        config = make_config(num_qubits=4, realizations=12, max_gates=150, seed=5, threshold=0.05,
                             confirm_window=4)
        alone = run_ensemble(config, workers=1, gates=gates)
        assert [_count(traj) for traj in alone] == [13, 12, 79]
        grid = run_ensemble(replace(config, measures=measures), workers=1, gates=gates)
        for want, got in zip(alone, grid, strict=True):
            assert got.config.measures == (Measure.LINEAR,)
            assert _count(got) == _count(want)
            np.testing.assert_array_equal(got.gate_indices, want.gate_indices)
            np.testing.assert_array_equal(
                got.level_means[Measure.LINEAR], want.level_means[Measure.LINEAR]
            )

    def test_needs_linear_measure(self):
        # A config without the linear measure is judged on it all the same.
        self._judged_alone((Measure.VON_NEUMANN,))

    def test_judged_column_need_not_be_first(self):
        # The linear measure second: the extra measure is dropped, not judged.
        self._judged_alone((Measure.VON_NEUMANN, Measure.LINEAR))

    def test_judged_by_its_own_rule(self):
        # A judged trajectory has gaps; counted by any rule but its own it
        # can read a wrong count, or none.
        gates = [entangler_gate(phi) for phi in (math.pi / 3, math.pi / 2, 0.3)]
        config = make_config(num_qubits=4, realizations=8, max_gates=200, seed=2, threshold=0.05)
        grid = run_ensemble(config, workers=1, gates=gates)
        for gate, traj in zip(gates, grid, strict=True):
            np.testing.assert_array_equal(traj.config.fixed_gate, gate)
            assert _count(traj) == _count(_full_run(traj.config))
        assert [_count(traj) for traj in grid] == [11, 20, 50]

    def test_pass_sums_every_column_after_a_carry(self):
        # The slices may answer more columns than config.measures: each is
        # summed in realization order, the carry of the pass before first.
        config = make_config(num_qubits=4, realizations=6, max_gates=12)
        rec = record_gate_indices(config)
        rng = np.random.default_rng(7)

        def values(realizations):
            # (gate, point, realization, column, level), spread over 16
            # decades so that the order of a sum shows in its bits.
            shape = (len(rec), 2, realizations, 3, 2)
            return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)

        def ask_from(vals):
            def ask(request):
                live, gates, rows = request
                return np.array_split(vals[gates][:, live][rows], 2, axis=1)

            return ask

        first, second = values(4), values(2)
        before = randent.protocol._pass(config, ask_from(first), 2, 4, None, None, 0)
        got = randent.protocol._pass(config, ask_from(second), 2, 2, before, None, 0)
        ordered = np.concatenate([first, second], axis=2)
        for a, (ts, sums) in enumerate(got):
            assert list(ts) == list(range(len(rec)))
            want = ordered[:, a, 0]
            for r in range(1, 6):
                want = want + ordered[:, a, r]
            np.testing.assert_array_equal(sums, want)
        backward = ordered[:, :, ::-1].cumsum(axis=2)[:, :, -1]
        assert not np.array_equal(backward, np.stack([sums for _, sums in got], axis=1))


class TestProbeGates:
    """The last pass judges a point at every (h + 1)-th recorded gate, looking back by replay."""

    GRID = [entangler_gate(phi) for phi in (math.pi / 6, math.pi / 3, math.pi / 2, 2.5)]

    def grid_config(self):
        return make_config(num_qubits=4, realizations=20, max_gates=300, seed=42, threshold=0.02,
                           confirm_window=10)

    @staticmethod
    def held_entries(config, points):
        """The least _HELD_ENTRIES at which a one-slice pass of config at points gets h = w.

        Each realization holds two copies of the points' states (live and
        checkpoint), 64 entries for its stream and 17 for each of the w + 1
        steps' draws saved since the checkpoint.
        """
        steps = (config.confirm_window + 1) * config.eval_stride
        return config.realizations * (2 * points * (1 << config.num_qubits) + 64 + 17 * steps)

    def test_fewer_rows_profiled_than_every_gate(self, monkeypatch):
        config = self.grid_config()
        rows = []
        profile = randent.protocol._profile_values

        def counting(amps, num_qubits, measures):
            rows.append(len(amps))
            return profile(amps, num_qubits, measures)

        monkeypatch.setattr(randent.protocol, "_profile_values", counting)
        probed = run_ensemble(config, workers=1, gates=self.GRID)
        probed_rows = sum(rows)
        rows.clear()
        # One entry short of room for two copies of one point's states: groups
        # of one point, each with h = 0, which judges every gate.
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", self.held_entries(config, 1) - 1)
        every = run_ensemble(config, workers=1, gates=self.GRID)
        assert [_count(t) for t in probed] == [_count(t) for t in every]
        assert None not in [_count(t) for t in every]
        assert probed_rows < sum(rows)

    @pytest.mark.parametrize("h", [3, 10])
    def test_held_states_within_spacing(self, h, pass_log, monkeypatch):
        # w = h.  With room for two copies of the four points' states, one
        # group probes every (w + 1)-th gate, each chunk holding at most one
        # checkpoint, a copy of its states, and the draws of at most w + 1
        # steps.  One entry less, and groups of 3 and 1 points get h = w.
        config = replace(self.grid_config(), confirm_window=h)
        want = [_count(t) for t in run_ensemble(config, workers=1, gates=self.GRID)]
        held = []
        run_chunk = randent.protocol._run_chunk

        def recording(config, chunk, g, rows):
            vals = run_chunk(config, chunk, g, rows)
            if chunk.check is not None and g == chunk.applied:  # a forward step
                held.append((chunk.check.size / chunk.amps.size, len(chunk.draws)))
            return vals

        monkeypatch.setattr(randent.protocol, "_run_chunk", recording)
        room = self.held_entries(config, 4)
        for entries, groups in [(room, [h]), (room - 1, [h, h])]:
            monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", entries)
            held.clear()
            pass_log.clear()
            got = run_ensemble(config, workers=1, gates=self.GRID)
            assert [_count(t) for t in got] == want
            assert [entry.h for entry in pass_log] == groups
            assert max(held) == (1.0, h + 1)

    def test_crossing_between_probes_found_by_look_back(self, monkeypatch):
        # w = 10 and room for a checkpoint: probes at positions 10, 21, ...
        # The probe at 10 fails and the one at 21 passes; looking back, 11
        # passes, 12 to 15 fail and the crossing is at 16.
        config = make_config(num_qubits=4, realizations=8, max_gates=150, seed=3, threshold=0.05,
                             confirm_window=10)
        full = run_ensemble(config, workers=1)
        assert _count(full) == 16
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for workers in (1, 2):
            (traj,) = run_ensemble(config, workers=workers, gates=[config.fixed_gate])
            assert _count(traj) == 16
            # Nothing below the failing probe is judged; from it on, every gate.
            np.testing.assert_array_equal(traj.gate_indices, np.arange(10, 27))
            np.testing.assert_array_equal(
                traj.level_means[Measure.LINEAR], full.level_means[Measure.LINEAR][10:27]
            )


@st.composite
def _schedules(draw):
    """(points, positions, h, window, budget, flags): a pass's rule, and each point's verdict at every position."""
    positions = draw(st.integers(1, 40))
    window = draw(st.integers(0, 12))
    # Verdicts in runs, so that windows close as well as break.
    runs = st.lists(st.tuples(st.booleans(), st.integers(1, 14)), min_size=1, max_size=8)
    flags = [
        ([ok for ok, n in spans for _ in range(n)] * positions)[:positions]
        for spans in draw(st.lists(runs, min_size=1, max_size=4))
    ]
    return len(flags), positions, draw(st.integers(0, window)), window, draw(st.integers(1, 60)), flags


class TestJudge:
    """The schedule of a pass alone (protocol._judge), driven by synthetic verdicts, with no engine."""

    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(case=_schedules())
    def test_schedule(self, case):
        points, positions, h, window, budget, flags = case
        probes = {t for t in range(positions) if t % (h + 1) == h or t == positions - 1}
        asked = set()
        # The forward rounds' end, and the positions every live point was asked at, with 0 (the first checkpoint).
        done, every = 0, [0]

        def answer(live, lo, rows):
            nonlocal done
            assert len(rows) and rows.shape[1] == len(live)  # no request is empty
            at = {(live[c], lo + t) for t, c in np.argwhere(rows).tolist()}
            assert not at & asked  # no row is asked twice
            asked.update(at)
            if lo == done:  # a forward round, ending no later than the next probe when h > 0
                span = range(lo, lo + len(rows))
                assert not h or span[-1] <= min(p for p in probes if p >= lo)
                for c in range(len(live)):
                    # At every position if the point's run is open, else at probes only.
                    mine = {t for t in span if rows[t - lo, c]}
                    assert mine in (set(span), probes & set(span))
                every.extend(t for t in span if rows[t - lo].all())
                done = span[-1] + 1
            else:  # a look-back, from the checkpoint of the probe at done - 1
                assert at and lo + len(rows) == done - 1
                assert lo >= max(t for t in every if t < done - 1)
            return {(a, t): flags[a][t] for a, t in at}

        judged = randent.protocol._judge(points, positions, h, window, lambda n: max(1, budget // n), answer)
        for a, ts in enumerate(judged):
            assert {(a, t) for t in ts} <= asked
            failed = [t for t in ts if not flags[a][t]]
            # Without gaps back to the last failing position.
            start = failed[-1] if failed else 0
            assert start in ts and ts[ts.index(start) :] == list(range(start, ts[-1] + 1))
            # Counted on the judged positions, as on the full sequence.
            want = _count(synthetic_flags(flags[a], confirm_window=window))
            judged_only = synthetic_flags([flags[a][t] for t in ts], confirm_window=window)
            assert _count(replace(judged_only, gate_indices=np.array(ts))) == want
            assert ts[-1] == (positions - 1 if want is None else want + window)


class TestJudgedMeasure:
    """A grid is judged on the one measure protocol._JUDGED names, whatever it is."""

    PHIS = (math.pi / 6, math.pi / 3, math.pi / 2, 2.5)

    @pytest.mark.parametrize("layout", ["one", "pooled", "passes"])
    def test_grid_judged_on_von_neumann(self, monkeypatch, layout):
        config = make_config(num_qubits=4, realizations=20, max_gates=300, seed=42, threshold=0.05,
                             confirm_window=3)
        full = [
            run_ensemble(replace(config, fixed_gate=entangler_gate(phi),
                                 measures=(Measure.VON_NEUMANN,)), workers=1)
            for phi in self.PHIS
        ]
        counts = [convergence_gate_count(traj, Measure.VON_NEUMANN) for traj in full]
        # The linear counts are [17, 13, 13, 20].
        assert counts == [15, 9, 13, 20]
        monkeypatch.setattr(randent.protocol, "_JUDGED", Measure.VON_NEUMANN)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if layout == "passes":
            # One-point groups in two passes of ten realizations, the last
            # adding to the first's sums and judging every gate (h = 0).
            monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 10 * ((1 << 4) + 64))
        grids = []

        def recording(*args, **kwargs):
            grids.append(run_ensemble(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(randent.brachistochrone, "run_ensemble", recording)
        table = sweep_phi(config, self.PHIS, workers=2 if layout == "pooled" else 1)
        assert [row.n_gates for row in table.rows] == counts
        for got, want in zip(grids[0], full, strict=True):
            assert got.config.measures == (Measure.VON_NEUMANN,)
            assert got.gate_indices[-1] < want.gate_indices[-1]
            np.testing.assert_array_equal(
                got.level_means[Measure.VON_NEUMANN],
                want.level_means[Measure.VON_NEUMANN][got.gate_indices // config.eval_stride],
            )


_S = np.diag([1, 1j])
_SZ = _S @ np.diag([1, -1])


def _mirror_draws(monkeypatch):
    """Wrap every step's draws (ii, jj, kron): kron becomes (S^dag (x) S^dag) kron (SZ (x) SZ).

    S = diag(1, i).  Forked workers inherit the patch, and a look-back
    replays the wrapped draws it saved.
    """
    draw = randent.protocol._draw_steps
    left, right = np.kron(_S.conj(), _S.conj()), np.kron(_SZ, _SZ)

    def mirrored(geometry, num_qubits, rngs):
        ii, jj, kron = draw(geometry, num_qubits, rngs)
        return ii, jj, left @ kron @ right

    monkeypatch.setattr(randent.protocol, "_draw_steps", mirrored)


class TestMirror:
    """The phi <-> pi - phi symmetry, checked through the engine.

    entangler_gate(pi - phi) = -(Z S^dag (x) Z S^dag) entangler_gate(phi) (S (x) S),
    so with mirrored draws (see _mirror_draws) a step at pi - phi takes
    (S^dag)^(x)N |psi> to minus (S^dag)^(x)N times the step at phi of |psi>.
    From |0...0>, every state of a realization at pi - phi is then the one
    at phi up to local unitaries and a sign, so every entanglement value
    agrees.  The mirror only relabels Haar draws, so every ensemble product
    of the entangler family is symmetric under phi <-> pi - phi in the limit.
    """

    def test_gate_identity(self):
        for phi in (0.0, 0.4, math.pi / 2, 2.0, math.pi):
            want = -np.kron(_SZ.conj(), _SZ.conj()) @ entangler_gate(phi) @ np.kron(_S, _S)
            np.testing.assert_allclose(entangler_gate(math.pi - phi), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_states_differ_by_local_phases(self, geometry, monkeypatch):
        n, phi, gates = 4, 1.1, 40
        config = make_config(num_qubits=n, geometry=geometry, fixed_gate=entangler_gate(phi))
        state, rng, plain = StateVector.basis_state(n, 0), rng_stream(7), []
        for _ in range(gates):
            plain.append(step(state, config, rng).amplitudes.copy())
        _mirror_draws(monkeypatch)
        config = replace(config, fixed_gate=entangler_gate(math.pi - phi))
        state, rng = StateVector.basis_state(n, 0), rng_stream(7)
        # (S^dag)^(x)N is diagonal: (-i)^k on a basis state with k ones.
        local = (-1j) ** np.array([bin(b).count("1") for b in range(1 << n)])
        for want in plain:
            got = step(state, config, rng).amplitudes
            phase = np.vdot(local * want, got)
            assert abs(abs(phase) - 1.0) < 1e-12
            np.testing.assert_allclose(got, phase * local * want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("geometry", list(Geometry))
    def test_ensemble_means_mirror(self, n, geometry, monkeypatch):
        # The plain side in this process, the mirrored side in two workers.
        phi = 0.3 + 0.2 * n
        both = (Measure.LINEAR, Measure.VON_NEUMANN)
        config = make_config(num_qubits=n, geometry=geometry, realizations=6, max_gates=30,
                             measures=both, fixed_gate=entangler_gate(phi))
        plain = run_ensemble(config, workers=1)
        _mirror_draws(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if n == 4 and geometry is Geometry.NONLOCAL:
            # One realization per slice: three passes of two slices.
            monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", (1 << n) + 64)
        config = replace(config, fixed_gate=entangler_gate(math.pi - phi))
        mirrored = run_ensemble(config, workers=2)
        np.testing.assert_array_equal(mirrored.gate_indices, plain.gate_indices)
        for measure in both:
            np.testing.assert_allclose(
                mirrored.level_means[measure], plain.level_means[measure], rtol=0, atol=1e-12
            )

    def test_sweep_counts_mirror(self, monkeypatch):
        # w = 4 probes every 5th recorded gate, and a passing probe looks back
        # by replaying the saved, mirrored draws.
        grid = [math.pi / 6, math.pi / 3, math.pi / 2 - 0.1, 2.0]
        config = make_config(num_qubits=4, realizations=40, max_gates=400, seed=42,
                             threshold=0.01, confirm_window=4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        plain = [row.n_gates for row in sweep_phi(config, grid, workers=2).rows]
        _mirror_draws(monkeypatch)
        replays = []
        replayed = randent.protocol._replayed

        def counting(draws, gates):
            replays.append(len(gates))
            return replayed(draws, gates)

        monkeypatch.setattr(randent.protocol, "_replayed", counting)
        mirrored = sweep_phi(config, [math.pi - phi for phi in grid], workers=1)
        assert [row.n_gates for row in mirrored.rows] == plain
        assert None not in plain
        assert replays


class TestFitDecayRate:
    def test_exact_exponential(self):
        n = np.arange(200)
        traj = synthetic_trajectory(np.exp(-0.05 * n))
        rate = fit_decay_rate(traj, Measure.LINEAR)
        assert abs(rate - 0.05) < 1e-10

    def test_noisy_exponential(self):
        rng = rng_stream(49)
        n = np.arange(200)
        noise = 1.0 + 0.01 * (2.0 * rng.random(200) - 1.0)
        traj = synthetic_trajectory(np.exp(-0.05 * n) * noise)
        rate = fit_decay_rate(traj, Measure.LINEAR)
        assert abs(rate - 0.05) / 0.05 < 0.05

    def test_constant_series_unfit(self):
        assert fit_decay_rate(synthetic_trajectory(np.ones(100)), Measure.LINEAR) is None

    def test_growing_series_unfit(self):
        delta = np.linspace(0.03, 0.4, 100)
        assert fit_decay_rate(synthetic_trajectory(delta), Measure.LINEAR) is None

    def test_too_few_points_unfit(self):
        delta = np.concatenate([np.ones(50), np.full(4, 0.1), np.full(50, 1e-6)])
        assert fit_decay_rate(synthetic_trajectory(delta), Measure.LINEAR) is None


def test_convergence_report_layout():
    config = make_config(num_qubits=4, realizations=3, max_gates=10,
                         measures=(Measure.LINEAR, Measure.VON_NEUMANN))
    traj = run_ensemble(config, workers=1)
    report = convergence_report(traj)
    # Two measures x (m=1, m=2, global), in series order.
    assert list(report) == [(meas, level) for meas in config.measures for level in (1, 2, None)]
    assert report[Measure.LINEAR, None] == ConvergenceEntry(
        convergence_gate_count(traj, Measure.LINEAR), fit_decay_rate(traj, Measure.LINEAR)
    )
    with pytest.raises(KeyError):
        report[Measure.LINEAR, 3]


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(num_qubits=1)
    with pytest.raises(ValueError):
        make_config(fixed_gate=np.ones((4, 4)))
    with pytest.raises(ValueError):
        make_config(threshold=1.5)
    # The rule is checked here only: a bad one is refused before anything is counted.
    for threshold in (0.0, 1.0, "0.01", None, 1j):
        with pytest.raises(ValueError, match="threshold"):
            make_config(threshold=threshold)
    assert type(make_config(threshold=np.float32(0.25)).threshold) is float
    with pytest.raises(ValueError, match="confirm_window"):
        make_config(confirm_window=-1)
    with pytest.raises(ValueError):
        make_config(realizations=0)
    with pytest.raises(ValueError):
        make_config(eval_stride=0)
    with pytest.raises(ValueError):
        make_config(seed=-1)
    with pytest.raises(ValueError):
        make_config(fixed_gate=np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="4x4"):
        make_config(fixed_gate=np.eye(3))
    with pytest.raises(ValueError, match="max_gates"):
        make_config(max_gates=-1)
    # Wrong types used to run the wrong physics without an error.
    with pytest.raises(ValueError, match="measures"):
        make_config(measures=("linear",))
    with pytest.raises(ValueError, match="measures"):
        make_config(measures=(Measure.LINEAR, Measure.LINEAR))
    with pytest.raises(ValueError, match="geometry"):
        make_config(geometry="nonlocal")
    with pytest.raises(ValueError, match="eval_stride"):
        make_config(eval_stride=1.5)
    with pytest.raises(ValueError, match="num_qubits"):
        make_config(num_qubits=3.0)
    assert make_config(max_gates=np.int64(6)).max_gates == 6
    # Gate counts are int64; a larger cap used to fail inside numpy.
    with pytest.raises(ValueError, match="max_gates"):
        make_config(max_gates=10**20)
    with pytest.raises(ValueError, match="max_gates"):
        make_config(max_gates=np.iinfo(np.int64).max)
    # The recorded gates are capped; a stride brings a large cap back under it.
    cap = randent.protocol._MAX_RECORDED
    assert len(record_gate_indices(make_config(max_gates=cap - 1))) == cap
    with pytest.raises(ValueError, match="recorded gates"):
        make_config(max_gates=cap)
    with pytest.raises(ValueError, match="recorded gates"):
        make_config(max_gates=2 * 10**18)
    assert len(record_gate_indices(make_config(max_gates=2 * 10**18, eval_stride=10**18))) == 3

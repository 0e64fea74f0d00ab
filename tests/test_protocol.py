"""Protocol steps, ensemble runs, convergence detection, and rate fits."""
import math
import multiprocessing
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randent.protocol
from randent.entanglement import Measure, global_entanglement
from randent.haar_baseline import haar_global_baseline
from randent.protocol import (
    Geometry,
    ProtocolConfig,
    Trajectory,
    convergence_gate_count,
    convergence_report,
    fit_decay_rate,
    pick_pair,
    _first_confirmed,
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


def synthetic_trajectory(delta, stride=1):
    """Single-level trajectory whose delta series reproduces the given values."""
    delta = np.asarray(delta, dtype=float)
    return Trajectory(
        num_qubits=2,
        gate_indices=np.arange(delta.size) * stride,
        measures=(Measure.LINEAR,),
        level_means={Measure.LINEAR: (1.0 - delta)[:, None]},
        baselines={Measure.LINEAR: np.array([1.0])},
    )


class TestPickPair:
    def test_nonlocal_two_qubits(self):
        rng = rng_stream(40)
        for _ in range(50):
            pair = pick_pair(Geometry.NONLOCAL, 2, rng)
            assert sorted(pair) == [0, 1]

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
        # With at most 5 held states, 13 realizations run in parts, each to
        # max_gates: of 5, 4 and 4 in this process, or of 4 and 3, and 3 and
        # 3, in two workers' slices.  Both give the bits of the run that
        # holds them all.
        config = make_config(num_qubits=3, realizations=13, max_gates=30)
        whole = run_ensemble(config, workers=1)
        held = []
        chunks = randent.protocol._chunks

        def recording(config, indices, gates):
            held.append(len(indices))
            return chunks(config, indices, gates)

        monkeypatch.setattr(randent.protocol, "_chunks", recording)
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 5 * ((1 << 3) + 64))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for workers in (1, 2):
            parts = run_ensemble(config, workers=workers)
            np.testing.assert_array_equal(
                whole.level_means[Measure.LINEAR], parts.level_means[Measure.LINEAR]
            )
        assert held == [5, 4, 4]

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
        for series in (traj.baseline_value, traj.mean_series, traj.delta_series):
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
        traj = synthetic_trajectory(np.exp(-0.05 * n))
        # ln(100)/0.05 = 92.1, so the first index at or below 0.01 is 93
        assert convergence_gate_count(traj, Measure.LINEAR, threshold=0.01) == 93

    def test_half_threshold(self):
        n = np.arange(300)
        traj = synthetic_trajectory(np.exp(-0.05 * n))
        assert convergence_gate_count(traj, Measure.LINEAR, threshold=0.5) == 14

    def test_confirmation_rejects_brief_dip(self):
        delta = np.ones(60)
        delta[10:15] = 0.001  # five-point dip, too short for a 10-point window
        delta[30:] = 0.001
        traj = synthetic_trajectory(delta)
        assert convergence_gate_count(traj, Measure.LINEAR) == 30

    def test_window_must_fit_in_series(self):
        delta = np.ones(20)
        delta[15:] = 0.001  # crossing too close to the end to confirm
        traj = synthetic_trajectory(delta)
        assert convergence_gate_count(traj, Measure.LINEAR, confirm_window=10) is None
        assert convergence_gate_count(traj, Measure.LINEAR, confirm_window=4) == 15

    def test_negative_window_rejected(self):
        traj = synthetic_trajectory(np.ones(30))
        with pytest.raises(ValueError):
            convergence_gate_count(traj, Measure.LINEAR, confirm_window=-1)

    def test_stride_scales_reported_index(self):
        n = np.arange(150)
        traj = synthetic_trajectory(np.exp(-0.05 * 2 * n), stride=2)
        crossing = convergence_gate_count(traj, Measure.LINEAR, threshold=0.01)
        assert crossing == 94  # first recorded even index past 92.1


class TestFirstConfirmed:
    def test_stops_at_closing_flag(self):
        flags = iter([True, False, True, True, True, False, True])
        assert _first_confirmed(flags, confirm_window=2) == 2
        assert list(flags) == [False, True]

    def test_zero_window_takes_first_pass(self):
        assert _first_confirmed([False, False, True], confirm_window=0) == 2

    def test_no_confirmed_run(self):
        assert _first_confirmed([True, True, False, True], confirm_window=2) is None


_GATES = st.one_of(
    st.just(np.eye(4, dtype=complex)),  # never entangles
    st.just(entangler_gate(math.pi)),  # local phases only: never entangles
    st.floats(0.1, math.pi - 0.1).map(entangler_gate),
    st.tuples(*[st.floats(0.0, math.pi / 4)] * 3).map(canonical_gate),
)


def _full_run(config):
    """The run to max_gates, in parts of one realization, each run through every recorded gate in one round."""
    with mock.patch.object(randent.protocol, "_HELD_ENTRIES", 0):
        return run_ensemble(config, workers=1)


def _assert_prefix(early, full):
    t = early.gate_indices.size
    np.testing.assert_array_equal(early.gate_indices, full.gate_indices[:t])
    np.testing.assert_array_equal(
        early.level_means[Measure.LINEAR], full.level_means[Measure.LINEAR][:t]
    )


def _count(traj, config):
    return convergence_gate_count(
        traj, Measure.LINEAR, None, config.threshold, config.confirm_window
    )


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
        # The reference runs its parts to max_gates, not gate by gate to the window.
        full = _full_run(config)
        (early,) = run_ensemble(config, workers=1, gates=[gate])
        want = _count(full, config)
        assert _count(early, config) == want
        if want is None:
            assert early.gate_indices.size == full.gate_indices.size
        else:
            assert early.gate_indices[-1] == want + config.confirm_window * config.eval_stride
        _assert_prefix(early, full)

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
            assert _count(traj, config) == _count(_full_run(point), config)

    @pytest.mark.parametrize("window", [0, 3])
    def test_pooled_and_batched_runs_are_cut_alike(self, monkeypatch, window):
        config = make_config(
            num_qubits=4, realizations=6, max_gates=120, threshold=0.05, confirm_window=window
        )
        gates = [entangler_gate(phi) for phi in (math.pi / 3, math.pi / 2, 0.3, math.pi)]
        streamed = run_ensemble(config, workers=1, gates=gates)
        assert streamed[0].gate_indices.size < config.max_gates + 1
        assert streamed[-1].gate_indices.size == config.max_gates + 1
        runs = {
            # Every point, in two realization slices, one per worker process.
            "pooled": lambda: run_ensemble(config, workers=2, gates=gates),
            # Fewer points than workers: the same slices, each stopped at its window.
            "spread": lambda: run_ensemble(config, workers=3, gates=gates[:2]) + streamed[2:],
        }
        for name, run in runs.items():
            for other, want in zip(run(), streamed, strict=True):
                np.testing.assert_array_equal(other.gate_indices, want.gate_indices, err_msg=name)
                np.testing.assert_array_equal(
                    other.level_means[Measure.LINEAR], want.level_means[Measure.LINEAR], err_msg=name
                )
        # Two chunks per group, still held at once: the run stops at each window.
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", (4 * 6 << 4) - 1)
        batched = run_ensemble(config, workers=1, gates=gates)
        # Groups of one point, each in two parts run to max_gates and cut.
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 6 * ((1 << 4) + 64) - 1)
        parts = run_ensemble(config, workers=1, gates=gates)
        for other in (batched, parts):
            for traj, want in zip(other, streamed, strict=True):
                np.testing.assert_array_equal(traj.gate_indices, want.gate_indices)
                np.testing.assert_array_equal(
                    traj.level_means[Measure.LINEAR], want.level_means[Measure.LINEAR]
                )

    def test_needs_linear_measure(self):
        config = make_config(measures=(Measure.VON_NEUMANN,))
        with pytest.raises(ValueError):
            run_ensemble(config, workers=1, gates=[config.fixed_gate])


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
    assert len(report.entries) == 2 * 3  # two measures x (m=1, m=2, global)
    entry = report.entry(Measure.LINEAR, None)
    assert entry.level is None
    with pytest.raises(KeyError):
        report.entry(Measure.LINEAR, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(num_qubits=1)
    with pytest.raises(ValueError):
        make_config(fixed_gate=np.ones((4, 4)))
    with pytest.raises(ValueError):
        make_config(threshold=1.5)
    with pytest.raises(ValueError):
        make_config(realizations=0)
    with pytest.raises(ValueError):
        make_config(eval_stride=0)
    with pytest.raises(ValueError):
        make_config(seed=-1)
    with pytest.raises(ValueError):
        make_config(fixed_gate=np.full((4, 4), np.nan))
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

"""Optimal gate times, physical time, and the sweep assembly."""
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import randent.brachistochrone
import randent.protocol
from randent.brachistochrone import (
    _converged_count,
    assemble_sweep_table,
    optimal_gate_time,
    physical_time,
    sweep_lambda,
    sweep_phi,
)
from randent.entanglement import Measure
from randent.protocol import Geometry, ProtocolConfig, run_ensemble
from randent.qstate import entangler_gate


def base_config(**kw):
    defaults = dict(
        num_qubits=3,
        fixed_gate=np.eye(4, dtype=complex),
        geometry=Geometry.NONLOCAL,
        realizations=16,
        max_gates=80,
        seed=17,
        measures=(Measure.LINEAR,),
        threshold=0.2,
        confirm_window=5,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


class TestOptimalGateTime:
    def test_zero(self):
        assert optimal_gate_time(0.0) == 0.0

    def test_half_pi(self):
        assert abs(optimal_gate_time(math.pi / 2) - math.pi * math.sqrt(3 / 8)) < 1e-12

    def test_pi(self):
        assert abs(optimal_gate_time(math.pi) - math.pi / math.sqrt(2)) < 1e-12

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, math.pi, 1000)
        times = [optimal_gate_time(p) for p in grid]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_omega_rescaling_exact(self):
        for phi in np.linspace(0.1, math.pi, 25):
            assert optimal_gate_time(phi, 2.0) == optimal_gate_time(phi, 1.0) / 2.0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            optimal_gate_time(-0.1)
        with pytest.raises(ValueError):
            optimal_gate_time(math.pi + 0.1)
        with pytest.raises(ValueError):
            optimal_gate_time(1.0, omega=0.0)
        for omega in (math.inf, math.nan, 1e-320):
            with pytest.raises(ValueError):
                optimal_gate_time(1.0, omega)
        assert math.isfinite(optimal_gate_time(1.0, 1e-306))
        with pytest.raises(ValueError):
            physical_time(400, 1.0, 1e-306)
        # Too large for a float: the product overflows.
        with pytest.raises(ValueError, match="not finite"):
            physical_time(10**400, 1.0)


class TestPhysicalTime:
    def test_zero_gates(self):
        assert physical_time(0, 1.0) == 0.0

    def test_hundred_at_pi(self):
        assert abs(physical_time(100, math.pi) - 100 * math.pi / math.sqrt(2)) < 1e-9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            physical_time(-1, 1.0)


class TestAssembleSweepTable:
    def test_argmins_and_unconverged_rows(self):
        phis = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        counts = [None, 30, 20, 25]
        table = assemble_sweep_table(phis, counts)
        assert table.rows[0].n_gates is None
        assert table.rows[0].t_phys is None
        assert table.rows[0].t_phi == 0.0
        assert table.argmin_gates == math.pi / 2
        # 30 * t(pi/4) = 44.1 < 20 * t(pi/2) = 38.5 is false; check actual values
        t_phys = [r.t_phys for r in table.rows[1:]]
        best = phis[1 + int(np.argmin(t_phys))]
        assert table.argmin_time == best

    def test_all_unconverged(self):
        table = assemble_sweep_table([0.0, math.pi], [None, None])
        assert table.argmin_gates is None
        assert table.argmin_time is None

    def test_omega_halves_times_argmins_fixed(self):
        phis = [math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        counts = [28, 20, 26]
        one = assemble_sweep_table(phis, counts, omega=1.0)
        two = assemble_sweep_table(phis, counts, omega=2.0)
        for a, b in zip(one.rows, two.rows):
            assert b.t_phi == a.t_phi / 2.0
            assert b.t_phys == a.t_phys / 2.0
        assert one.argmin_gates == two.argmin_gates
        assert one.argmin_time == two.argmin_time

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_sweep_table([0.5, 1.0, 1.5], [10, 12])


class TestSweeps:
    def test_phi_zero_row_never_converges(self):
        table = sweep_phi(base_config(), [0.0, math.pi / 4], workers=1)
        assert table.rows[0].n_gates is None
        assert table.rows[1].n_gates is not None
        assert table.argmin_gates == math.pi / 4

    def test_phi_pi_never_converges(self):
        # The angle-pi entangler is a product of local phases, so it cannot
        # entangle anything.
        config = base_config(num_qubits=4, realizations=2, max_gates=200)
        table = sweep_phi(config, [math.pi], workers=1)
        assert table.rows[0].n_gates is None

    def test_lambda_sweep_rows(self):
        rows = sweep_lambda(base_config(), [0.0, math.pi / 4], workers=1)
        assert rows[0].lam == (0.0, 0.0, 0.0)
        assert rows[0].n_gates is None  # identity gate
        assert rows[1].n_gates is not None

    def test_worker_count_does_not_change_tables(self):
        grid = [0.0, math.pi / 4, math.pi / 2, math.pi]
        assert sweep_phi(base_config(), grid, workers=1) == sweep_phi(base_config(), grid, workers=2)
        lams = [0.0, math.pi / 8, math.pi / 4]
        assert sweep_lambda(base_config(), lams, workers=1) == sweep_lambda(
            base_config(), lams, workers=2
        )
        # One point: its realizations are sliced over the workers.
        assert sweep_phi(base_config(), grid[1:2], workers=1) == sweep_phi(
            base_config(), grid[1:2], workers=2
        )

    def test_traced_pooled_sweep(self, monkeypatch):
        # A tracer wraps these names in local closures, which cannot be pickled.
        grid = [0.5, 1.0, 1.5]
        want = sweep_phi(base_config(), grid, workers=1)
        for name in ("_converged_count", "run_ensemble"):
            fn = getattr(randent.brachistochrone, name)

            def wrapper(*args, _fn=fn, **kwargs):
                return _fn(*args, **kwargs)

            monkeypatch.setattr(randent.brachistochrone, name, wrapper)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sweep_phi(base_config(), grid, workers=2) == want

    @pytest.fixture
    def started(self, monkeypatch):
        procs = []
        start = multiprocessing.Process.start

        def counting(self):
            procs.append(self)
            return start(self)

        monkeypatch.setattr(multiprocessing.Process, "start", counting)
        return procs

    @pytest.mark.parametrize(
        "workers, points, cores, want", [(4, 5, 3, 3), (3, 5, 8, 3), (6, 8, 2, 2)]
    )
    def test_pool_capped_at_cores(self, workers, points, cores, want, started, monkeypatch):
        # Eight realizations: the cap comes from the workers or the cores.
        config = base_config(realizations=8, max_gates=8)
        grid = [k * math.pi / points for k in range(points)]
        serial = sweep_phi(config, grid, workers=1)
        run = run_ensemble(config, workers=1)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert sweep_phi(config, grid, workers=workers) == serial
        assert len(started) == want
        np.testing.assert_array_equal(
            run_ensemble(config, workers=workers).level_means[Measure.LINEAR],
            run.level_means[Measure.LINEAR],
        )
        assert len(started) == 2 * want
        assert not multiprocessing.active_children()

    def test_pool_capped_at_realizations(self, started, monkeypatch):
        config = base_config(realizations=2, max_gates=8)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        run_ensemble(config, workers=4)
        sweep_lambda(config, [0.0, math.pi / 8, math.pi / 4], workers=4)
        assert len(started) == 2 + 2


@pytest.mark.parametrize("workers", [0, -5])
def test_workers_below_one_rejected(workers, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(multiprocessing.Process, "start", no_work)
    monkeypatch.setattr(randent.protocol, "_run_batch", no_work)
    with pytest.raises(ValueError, match="workers"):
        sweep_phi(base_config(), [math.pi / 4, math.pi / 2], workers=workers)
    with pytest.raises(ValueError, match="workers"):
        sweep_lambda(base_config(), [math.pi / 4], workers=workers)


class TestEarlyExit:
    """A sweep point simulates up to its confirm window and no further."""

    @pytest.fixture
    def gate_steps(self, monkeypatch):
        steps = []
        kernel = randent.protocol._apply_pair_batch

        def counting(amps, num_qubits, ii, jj, mats):
            steps.append(len(ii))
            return kernel(amps, num_qubits, ii, jj, mats)

        monkeypatch.setattr(randent.protocol, "_apply_pair_batch", counting)
        return steps

    def test_converging_point_stops_at_window(self, gate_steps):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        assert n is not None and n + config.confirm_window < config.max_gates
        assert sum(gate_steps) == (n + config.confirm_window) * config.realizations

    def test_point_above_one_batch_stops_at_window(self, gate_steps, monkeypatch):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        gate_steps.clear()
        # Two chunks, of 49 realizations and of one, advance together.
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", (50 << 4) - 1)
        assert _converged_count(config) == n
        assert sum(gate_steps) == (n + config.confirm_window) * config.realizations

    def test_pooled_point_stops_at_window(self, monkeypatch):
        # A one-point grid slices its realizations over two processes, and
        # each slice stops at the window: the steps are counted across them.
        steps = multiprocessing.Value("q", 0)
        here = []
        parent = os.getpid()
        kernel = randent.protocol._apply_pair_batch

        def counting(amps, num_qubits, ii, jj, mats):
            with steps.get_lock():
                steps.value += len(ii)
            if os.getpid() == parent:
                here.append(len(ii))
            return kernel(amps, num_qubits, ii, jj, mats)

        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        monkeypatch.setattr(randent.protocol, "_apply_pair_batch", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _converged_count(config, workers=2) == n
        assert steps.value == (n + config.confirm_window) * config.realizations
        assert not here

    def test_point_above_held_states_runs_in_full(self, gate_steps, monkeypatch):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        gate_steps.clear()
        # Parts of 25 realizations are not held at once: each runs to the cap.
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 50 * ((1 << 4) + 64) - 1)
        assert _converged_count(config) == n
        assert sum(gate_steps) == config.max_gates * config.realizations

    @pytest.fixture
    def pick_pairs(self, monkeypatch):
        calls = []
        draw = randent.protocol.pick_pair

        def counting(*args):
            calls.append(1)
            return draw(*args)

        monkeypatch.setattr(randent.protocol, "pick_pair", counting)
        return calls

    def grid_config(self):
        return base_config(
            num_qubits=4, realizations=20, max_gates=300, seed=42, threshold=0.02, confirm_window=4,
        )

    def test_grid_points_share_draws(self, gate_steps, pick_pairs):
        config = self.grid_config()
        phis = [math.pi / 6, math.pi / 3, math.pi / 2, 2.5]
        counts = [_converged_count(replace(config, fixed_gate=entangler_gate(p))) for p in phis]
        assert None not in counts
        gate_steps.clear()
        pick_pairs.clear()
        table = sweep_phi(config, phis, workers=1)
        assert [row.n_gates for row in table.rows] == counts
        steps = [(n + config.confirm_window) * config.realizations for n in counts]
        assert sum(gate_steps) == sum(steps)
        assert len(pick_pairs) == max(steps)

    def test_grid_split_into_groups(self, gate_steps, monkeypatch):
        config = self.grid_config()
        phis = [math.pi / 6, math.pi / 3, math.pi / 2, 2.5, math.pi]
        table = sweep_phi(config, phis, workers=1)
        steps = sum(gate_steps)
        held = []
        chunks = randent.protocol._chunks

        def recording(config, indices, gates):
            held.append(len(gates))
            return chunks(config, indices, gates)

        monkeypatch.setattr(randent.protocol, "_chunks", recording)
        # Two points' realizations fit in the cap, three do not.
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 20 * (2 * (1 << 4) + 64))
        gate_steps.clear()
        assert sweep_phi(config, phis, workers=1) == table
        assert held == [2, 2, 1]
        assert sum(gate_steps) == steps

    def test_unconverged_point_runs_to_cap(self, gate_steps):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi), realizations=8, max_gates=200
        )
        assert _converged_count(config) is None
        assert sum(gate_steps) == config.max_gates * config.realizations

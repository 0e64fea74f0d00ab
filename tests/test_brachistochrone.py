"""Optimal gate times, physical time, and the sweep assembly."""
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

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


def field_terms():
    """(Z1 + Z2)/2 and (X1 X2 - Y1 Y2)/2, the two terms of the gate-time model's Hamiltonian."""
    one, x, z = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    y = np.array([[0, -1j], [1j, 0]])
    return (np.kron(z, one) + np.kron(one, z)) / 2, (np.kron(x, x) - np.kron(y, y)) / 2


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

    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
    def test_precessing_field_reaches_the_gate(self, omega):
        # On the {|00>, |11>} block, a field of magnitude sqrt(2) omega in
        # the x-z plane precessing about y at nu = 2 a / T, a = pi - phi, is
        # constant in the frame that turns with it, so U(T) is the product
        # of two exponentials; on {|01>, |10>} it is the identity.
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0])
        rng = np.random.default_rng(7)
        for phi in [math.pi, *(math.pi - rng.uniform(0.0, math.pi, 51))]:
            t = optimal_gate_time(phi, omega)
            a = math.pi - phi
            block = expm(-1j * a * sy) @ expm(-1j * t * (math.sqrt(2) * omega * sz - a / t * sy))
            u = np.eye(4, dtype=complex)
            u[np.ix_([0, 3], [0, 3])] = block
            assert np.abs(u - entangler_gate(phi)).max() < 1e-12, phi

    def test_precessing_field_integrated(self):
        # H(t) = sqrt(2) omega [cos(nu t) (Z1 + Z2)/2 + sin(nu t) (X1 X2 - Y1 Y2)/2]
        # on two qubits, by the midpoint rule in 20,000 steps (error 2.3e-9).
        phi, omega, steps = 1.1, 1.0, 20_000
        t = optimal_gate_time(phi, omega)
        nu = 2 * (math.pi - phi) / t
        field, coupling = field_terms()
        mid = (np.arange(steps) + 0.5) * t / steps
        h = math.sqrt(2) * omega * (np.cos(nu * mid)[:, None, None] * field
                                    + np.sin(nu * mid)[:, None, None] * coupling)
        energies, vecs = np.linalg.eigh(h)
        u = np.eye(4, dtype=complex)
        for k in range(steps):
            u = (vecs[k] * np.exp(-1j * t / steps * energies[k])) @ vecs[k].conj().T @ u
        assert np.abs(u - entangler_gate(phi)).max() < 1e-8

    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
    def test_two_pulses_bound_the_time(self, omega):
        # Two constant pulses of the sqrt(2) omega field, each a half turn
        # on the {|00>, |11>} block about axes pi - phi apart in its x-z
        # plane, make the gate in pi / (sqrt(2) omega) at every phi: an
        # upper bound on the optimal time, which meets it at phi = pi.
        field, coupling = field_terms()
        tau = math.pi / (2 * math.sqrt(2) * omega)
        bound = 2 * tau

        def pulse(a):
            return expm(-1j * tau * math.sqrt(2) * omega * (math.cos(a) * field + math.sin(a) * coupling))

        rng = np.random.default_rng(11)
        for phi in [math.pi, *(math.pi - rng.uniform(0.0, math.pi, 50))]:
            a = rng.uniform(0.0, 2 * math.pi)
            u = pulse(a + math.pi - phi) @ pulse(a)
            assert np.abs(u - entangler_gate(phi)).max() < 1e-12, phi
            assert optimal_gate_time(phi, omega) <= bound + 1e-12, phi
        assert abs(optimal_gate_time(math.pi, omega) - bound) < 1e-12

    @pytest.mark.parametrize("phi", [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    def test_no_field_is_faster(self, phi):
        # Numerical optimal control on the {|00>, |11>} block, where the two
        # field terms act as sigma_z and sigma_x: K = 40 constant segments of
        # duration t / K, each a field of magnitude m sqrt(2) omega, m in
        # [0, 1], at its own angle in the x-z plane, maximizing
        # Re tr(W^+ U) / 2 (1 only at U = W) from six seeded starts, each a
        # field turning at a random rate, by L-BFGS-B with exact gradients.
        # A piecewise-constant field follows the precessing one only
        # approximately, so 1 % more time than optimal_gate_time reaches
        # the gate to 1e-8, and the optimal time itself to 1e-6; 1 % less
        # stays 1e-5 or more short of it.
        from scipy.optimize import minimize

        k, omega = 40, 1.0
        sx, sz = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
        target = entangler_gate(phi)[np.ix_([0, 3], [0, 3])]

        def infidelity(params, tau):
            turn = params[k:] * math.sqrt(2) * omega * tau
            axis = np.cos(params[:k])[:, None, None] * sz + np.sin(params[:k])[:, None, None] * sx
            d_axis = np.cos(params[:k])[:, None, None] * sx - np.sin(params[:k])[:, None, None] * sz
            c, s = np.cos(turn)[:, None, None], np.sin(turn)[:, None, None]
            u = c * np.eye(2) - 1j * s * axis
            du = [-1j * s * d_axis, math.sqrt(2) * omega * tau * (-s * np.eye(2) - 1j * c * axis)]
            before, after = [np.eye(2)], [target.conj().T]  # U_j...U_1 and W^+ U_K...U_j+1
            for j in range(k):
                before.append(u[j] @ before[-1])
                after.append(after[-1] @ u[k - 1 - j])
            after.reverse()
            grad = [np.real(np.trace(after[j + 1] @ d[j] @ before[j])) / 2 for d in du for j in range(k)]
            return 1 - np.real(np.trace(after[0])) / 2, -np.array(grad)

        def best(t):
            rng, mid, out = np.random.default_rng(5), (np.arange(k) + 0.5) / k, []
            for _ in range(6):
                start = rng.uniform(0, 2 * math.pi) + rng.uniform(-2 * math.pi, 2 * math.pi) * mid
                res = minimize(infidelity, np.concatenate([start, np.ones(k)]), args=(t / k,), jac=True,
                               method="L-BFGS-B", bounds=[(None, None)] * k + [(0, 1)] * k,
                               options=dict(maxiter=5000, ftol=0, gtol=1e-14))
                out.append(res.fun)
            return min(out)

        t = optimal_gate_time(phi, omega)
        assert best(1.01 * t) < 1e-8
        assert best(t) < 1e-6
        assert best(0.99 * t) > 1e-5

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


@pytest.mark.parametrize("omega", [0.0, 1e-307])
def test_sweep_checks_times_before_any_ensemble(omega, monkeypatch):
    # At omega 1e-307 each gate time is finite, but not the time of max_gates of them.
    def no_work(*args, **kwargs):
        raise AssertionError("ensemble started")

    monkeypatch.setattr(randent.brachistochrone, "_converged_counts", no_work)
    with pytest.raises(ValueError, match="omega"):
        sweep_phi(base_config(), [math.pi / 4, math.pi / 2], omega=omega, workers=1)


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

    def test_converging_point_stops_at_window(self, gate_steps, pass_log):
        # Each realization steps forward to the window's last gate, and the
        # one look-back replays ten gate steps of each realization on top.
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        assert n is not None and n + config.confirm_window < config.max_gates
        assert pass_log.replays == [10 * config.realizations]
        assert sum(gate_steps) == (n + config.confirm_window) * config.realizations + sum(pass_log.replays)

    def test_point_above_one_batch_stops_at_window(self, gate_steps, pass_log, monkeypatch):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        gate_steps.clear()
        pass_log.clear()
        # Two chunks, of 49 realizations and of one, advance together.
        monkeypatch.setattr(randent.protocol, "_BATCH_ENTRIES", (50 << 4) - 1)
        assert _converged_count(config) == n
        assert pass_log.replays == [10 * config.realizations]
        assert sum(gate_steps) == (n + config.confirm_window) * config.realizations + sum(pass_log.replays)

    def test_pooled_point_stops_at_window(self, pass_log, monkeypatch):
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
        pass_log.clear()
        monkeypatch.setattr(randent.protocol, "_apply_pair_batch", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _converged_count(config, workers=2) == n
        assert pass_log.replays == [10 * config.realizations]
        assert steps.value == (n + config.confirm_window) * config.realizations + sum(pass_log.replays)
        assert not here

    def test_point_above_held_states_stops_in_last_pass(self, gate_steps, monkeypatch):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi / 2), realizations=50,
            max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        n = _converged_count(config)
        gate_steps.clear()
        # Two passes of 25 realizations: the first runs to the cap, the last
        # stops at the window.
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 50 * ((1 << 4) + 64) - 1)
        assert _converged_count(config) == n
        assert sum(gate_steps) == config.max_gates * 25 + (n + config.confirm_window) * 25

    def test_pooled_sweep_in_passes(self, monkeypatch):
        # Each point's 50 realizations take two passes of 25, each pass in
        # two worker processes: the first pass runs to the cap, the last
        # stops at the window.  The steps are counted across the processes.
        config = base_config(
            num_qubits=4, realizations=50, max_gates=600, seed=42, threshold=0.01, confirm_window=10,
        )
        phis = [math.pi / 2, math.pi / 3]
        table = sweep_phi(config, phis, workers=1)
        counts = [row.n_gates for row in table.rows]
        assert None not in counts
        steps = multiprocessing.Value("q", 0)
        kernel = randent.protocol._apply_pair_batch

        def counting(amps, num_qubits, ii, jj, mats):
            with steps.get_lock():
                steps.value += len(ii)
            return kernel(amps, num_qubits, ii, jj, mats)

        monkeypatch.setattr(randent.protocol, "_apply_pair_batch", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # Slices of at most 13 realizations are held: passes of at most 26.
        monkeypatch.setattr(randent.protocol, "_HELD_ENTRIES", 13 * ((1 << 4) + 64))
        assert sweep_phi(config, phis, workers=2) == table
        want = [config.max_gates * 25 + (n + config.confirm_window) * 25 for n in counts]
        assert steps.value == sum(want)

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

    def test_grid_points_share_draws(self, gate_steps, pick_pairs, pass_log):
        config = self.grid_config()
        phis = [math.pi / 6, math.pi / 3, math.pi / 2, 2.5]
        counts = [_converged_count(replace(config, fixed_gate=entangler_gate(p))) for p in phis]
        assert None not in counts
        gate_steps.clear()
        pick_pairs.clear()
        pass_log.clear()
        table = sweep_phi(config, phis, workers=1)
        assert [row.n_gates for row in table.rows] == counts
        steps = [(n + config.confirm_window) * config.realizations for n in counts]
        assert sum(gate_steps) == sum(steps) + sum(pass_log.replays)
        assert len(pick_pairs) == max(steps)

    def test_grid_split_into_groups(self, gate_steps, pass_log, monkeypatch):
        config = self.grid_config()
        phis = [math.pi / 6, math.pi / 3, math.pi / 2, 2.5, math.pi]
        table = sweep_phi(config, phis, workers=1)
        # Each point steps forward to its window's last gate, or to the cap.
        steps = sum(
            (config.max_gates if n is None else n + config.confirm_window) * config.realizations
            for n in (row.n_gates for row in table.rows)
        )
        assert sum(gate_steps) == steps + sum(pass_log.replays)
        held = []
        chunks = randent.protocol._chunks

        def recording(config, indices, gates):
            held.append(len(gates))
            return chunks(config, indices, gates)

        monkeypatch.setattr(randent.protocol, "_chunks", recording)
        # Two copies of two points' realizations, with their streams and the
        # draws of w + 1 steps, fit in the cap; those of three points do not.
        monkeypatch.setattr(
            randent.protocol, "_HELD_ENTRIES", 20 * (2 * 2 * (1 << 4) + 64 + 17 * (config.confirm_window + 1))
        )
        gate_steps.clear()
        pass_log.clear()
        assert sweep_phi(config, phis, workers=1) == table
        assert held == [2, 2, 1]
        assert sum(gate_steps) == steps + sum(pass_log.replays)

    def test_unconverged_point_runs_to_cap(self, gate_steps):
        config = base_config(
            num_qubits=4, fixed_gate=entangler_gate(math.pi), realizations=8, max_gates=200
        )
        assert _converged_count(config) is None
        assert sum(gate_steps) == config.max_gates * config.realizations

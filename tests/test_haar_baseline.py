"""Closed-form Haar baselines and the Monte Carlo oracle."""
import math

import numpy as np
import pytest

import randent.haar_baseline as haar_baseline
from randent.entanglement import EntanglementProfile, Measure
from randent.haar_baseline import (
    haar_global_baseline,
    lubkin_linear_baseline,
    monte_carlo_baseline,
    page_vn_baseline,
    sample_haar_state,
)
from randent.qstate import MAX_QUBITS, rng_stream


class TestLubkin:
    def test_two_qubits(self):
        assert abs(lubkin_linear_baseline(2, 1) - 0.4) < 1e-15

    def test_six_three(self):
        assert abs(lubkin_linear_baseline(6, 3) - 392 / 455) < 1e-15

    def test_approaches_one_in_n(self):
        prev = 0.0
        for n in range(2, 20, 2):
            val = lubkin_linear_baseline(n, 1)
            assert val > prev
            prev = val
        assert prev < 1.0
        assert lubkin_linear_baseline(24, 1) > 0.999

    def test_range_check(self):
        with pytest.raises(ValueError):
            lubkin_linear_baseline(4, 3)
        with pytest.raises(ValueError, match="num_qubits"):
            lubkin_linear_baseline(MAX_QUBITS + 1, 1)


class TestPage:
    def test_two_qubits(self):
        # d_A = d_B = 2: 1/3 + 1/4 - 1/4 = 1/3 nats
        assert abs(page_vn_baseline(2, 1) - (1 / 3) / math.log(2)) < 1e-14

    def test_six_one_near_maximal(self):
        assert 0.9 < page_vn_baseline(6, 1) < 1.0

    def test_strictly_below_one(self):
        for n in range(2, 13):
            for m in range(1, n // 2 + 1):
                assert 0.0 < page_vn_baseline(n, m) < 1.0


class TestGlobalBaseline:
    def test_two_qubit_tables(self):
        lin = haar_global_baseline(2, Measure.LINEAR)
        assert isinstance(lin, EntanglementProfile)
        assert lin.per_level == (lubkin_linear_baseline(2, 1),)
        assert abs(lin.global_value - 0.4) < 1e-15
        von = haar_global_baseline(2, Measure.VON_NEUMANN)
        assert abs(von.global_value - 0.48089834696298783) < 1e-12

    def test_qubit_cap(self):
        # Unbounded, the von Neumann table at N=40 would sum about 2*10^13 harmonic terms.
        with pytest.raises(ValueError, match="num_qubits"):
            haar_global_baseline(MAX_QUBITS + 1, Measure.LINEAR)

    def test_monotone_in_n(self):
        assert (
            haar_global_baseline(8, Measure.LINEAR).global_value
            > haar_global_baseline(4, Measure.LINEAR).global_value
        )

    def test_vn_orderings_at_six(self):
        table = haar_global_baseline(6, Measure.VON_NEUMANN)
        assert table.per_level[0] > table.per_level[1] > table.per_level[2]
        for m in (1, 2, 3):
            assert page_vn_baseline(8, m) > page_vn_baseline(6, m)

    def test_values_inside_unit_interval(self):
        for n in (2, 4, 6, 8):
            for meas in Measure:
                t = haar_global_baseline(n, meas)
                assert all(0.0 < v < 1.0 for v in t.per_level)


class TestSampleHaarState:
    def test_normalized(self):
        rng = rng_stream(30)
        for n in (1, 3, 6):
            s = sample_haar_state(n, rng)
            assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-12

    def test_first_amplitude_moment(self):
        rng = rng_stream(31)
        n_samples = 100_000
        vals = np.empty(n_samples)
        for k in range(n_samples):
            vals[k] = abs(sample_haar_state(4, rng).amplitudes[0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(n_samples)
        assert abs(vals.mean() - 1 / 16) < 4 * se


class TestMonteCarlo:
    def test_matches_lubkin_two_qubits(self):
        est = monte_carlo_baseline(2, 1, Measure.LINEAR, 10_000, rng_stream(32))
        assert abs(est.mean - 0.4) < 3 * est.std_error

    def test_matches_lubkin_six_three(self):
        est = monte_carlo_baseline(6, 3, Measure.LINEAR, 10_000, rng_stream(33))
        assert abs(est.mean - lubkin_linear_baseline(6, 3)) < 3 * est.std_error

    def test_matches_page_four_two(self):
        est = monte_carlo_baseline(4, 2, Measure.VON_NEUMANN, 10_000, rng_stream(34))
        assert abs(est.mean - page_vn_baseline(4, 2)) < 3 * est.std_error

    def test_error_scaling(self):
        small = monte_carlo_baseline(3, 1, Measure.LINEAR, 2_000, rng_stream(35))
        big = monte_carlo_baseline(3, 1, Measure.LINEAR, 8_000, rng_stream(36))
        assert abs(big.std_error / small.std_error - 0.5) < 0.2 * 0.5

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_baseline(2, 1, Measure.LINEAR, 50, rng_stream(37))

    @pytest.mark.parametrize(
        "n, samples, want", [(16, 200, [64, 64, 64, 8]), (12, 2500, [1024, 1024, 452])]
    )
    def test_batches_bounded_by_amplitudes(self, n, samples, want, monkeypatch):
        # Stand-ins that allocate nothing large record the states of each batch.
        batches = []

        def amplitudes(num_qubits, count, rng):
            batches.append(count)
            return np.zeros((count, 1))

        monkeypatch.setattr(haar_baseline, "_haar_amplitudes", amplitudes)
        monkeypatch.setattr(haar_baseline, "_level_values", lambda z, *args: np.zeros((len(z), 1)))
        monte_carlo_baseline(n, 1, Measure.LINEAR, samples, rng_stream(39))
        assert batches == want

    @pytest.mark.parametrize("budget", [1, 7 << 6])
    def test_batch_size_leaves_values(self, budget, monkeypatch):
        cases = [(n, m, meas) for n, m in ((4, 2), (6, 3)) for meas in Measure]
        want = [monte_carlo_baseline(*case, 300, rng_stream(40)) for case in cases]
        monkeypatch.setattr(haar_baseline, "_BATCH_ENTRIES", budget)
        assert [monte_carlo_baseline(*case, 300, rng_stream(40)) for case in cases] == want


def test_global_profile_of_random_states_matches_table():
    # Mean global linear value over sampled states against the analytic table.
    from randent.entanglement import global_entanglement

    rng = rng_stream(38)
    vals = np.empty(2000)
    for k in range(2000):
        vals[k] = global_entanglement(sample_haar_state(4, rng), Measure.LINEAR).global_value
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    target = haar_global_baseline(4, Measure.LINEAR).global_value
    assert abs(vals.mean() - target) < 3 * se

"""Bipartitions, marginals, and the two entanglement measures."""
import math

import numpy as np
import pytest

import randent.entanglement as entanglement
from randent.cli import main
from randent.entanglement import (
    Measure,
    SpectrumError,
    _level_values,
    _profile_values,
    enumerate_bipartitions,
    global_entanglement,
    level_entanglement,
    linear_entropy,
    reduced_density_matrix,
    von_neumann_entropy,
)
from randent.qstate import MAX_QUBITS, StateVector, rng_stream


def random_state(n, rng):
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, z / np.linalg.norm(z))


def bell_state():
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def ghz_state(n):
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = amp[-1] = 2**-0.5
    return StateVector(n, amp)


def brute_force_rdm(state, kept):
    """Partial trace via the dense outer product, independent of the library path."""
    n = state.num_qubits
    kept = sorted(kept)
    m = len(kept)
    rho_full = np.outer(state.amplitudes, state.amplitudes.conj())
    env = [q for q in range(n) if q not in kept]
    rho = np.zeros((1 << m, 1 << m), dtype=complex)
    for a in range(1 << n):
        for b in range(1 << n):
            if any((a >> q) & 1 != (b >> q) & 1 for q in env):
                continue
            s = sum(((a >> q) & 1) << t for t, q in enumerate(kept))
            sp = sum(((b >> q) & 1) << t for t, q in enumerate(kept))
            rho[s, sp] += rho_full[a, b]
    return rho


class TestEnumerateBipartitions:
    def test_balanced_six(self):
        parts = enumerate_bipartitions(6, 3)
        assert len(parts) == 10
        assert all(p[0] == 0 for p in parts)

    def test_unbalanced_six(self):
        assert len(enumerate_bipartitions(6, 1)) == 6

    def test_two_qubits(self):
        assert enumerate_bipartitions(2, 1) == [(0,)]

    @pytest.mark.parametrize("n,m", [(6, 0), (6, 4), (4, 3), (MAX_QUBITS + 1, 1)])
    def test_range(self, n, m):
        with pytest.raises(ValueError):
            enumerate_bipartitions(n, m)


class TestReducedDensityMatrix:
    def test_product_state_pure(self):
        s = StateVector.basis_state(3, 0)
        for kept in [(0,), (1,), (0, 2)]:
            rho = reduced_density_matrix(s, kept)
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_bell_marginal_maximally_mixed(self):
        rho = reduced_density_matrix(bell_state(), (0,))
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_matches_brute_force(self):
        rng = rng_stream(20)
        s = random_state(4, rng)
        for kept in [(0,), (2,), (1, 3), (0, 1), (0, 2, 3)]:
            rho = reduced_density_matrix(s, kept)
            ref = brute_force_rdm(s, kept)
            np.testing.assert_allclose(rho, ref, atol=1e-12)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rho), np.linalg.eigvalsh(ref), atol=1e-12
            )

    def test_invariants(self):
        rng = rng_stream(21)
        s = random_state(5, rng)
        rho = reduced_density_matrix(s, (1, 3))
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            reduced_density_matrix(bell_state(), (0, 0))
        with pytest.raises(ValueError):
            reduced_density_matrix(bell_state(), (2,))


class TestEntropies:
    def test_pure_gives_zero(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert linear_entropy(rho) == 0.0
        assert von_neumann_entropy(rho) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_maximally_mixed_gives_one(self, m):
        rho = np.eye(1 << m, dtype=complex) / (1 << m)
        assert abs(linear_entropy(rho) - 1.0) < 1e-12
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_bell_marginal(self):
        rho = reduced_density_matrix(bell_state(), (0,))
        assert abs(linear_entropy(rho) - 1.0) < 1e-12
        assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.0 + 1e-9, -1e-9]).astype(complex)
        with pytest.raises(SpectrumError):
            von_neumann_entropy(bad)

    def test_zero_iff_pure(self):
        rng = rng_stream(22)
        for _ in range(20):
            s = random_state(4, rng)
            rho = reduced_density_matrix(s, (0, 1))
            purity = np.trace(rho @ rho).real
            lin = linear_entropy(rho)
            assert (lin < 1e-10) == (purity > 1 - 1e-10)


class TestLevelAndGlobal:
    def test_separable_all_zero(self):
        s = StateVector.basis_state(4, 0)
        for m in (1, 2):
            for meas in Measure:
                assert level_entanglement(s, m, meas) == 0.0

    def test_bell_level_one(self):
        assert abs(level_entanglement(bell_state(), 1, Measure.LINEAR) - 1.0) < 1e-12

    def test_ghz4_level_one(self):
        assert abs(level_entanglement(ghz_state(4), 1, Measure.LINEAR) - 1.0) < 1e-12

    def test_global_profile_separable(self):
        prof = global_entanglement(StateVector.basis_state(5, 0), Measure.LINEAR)
        assert prof.per_level == (0.0, 0.0)
        assert prof.global_value == 0.0

    def test_global_profile_bell(self):
        prof = global_entanglement(bell_state(), Measure.VON_NEUMANN)
        assert abs(prof.per_level[0] - 1.0) < 1e-12
        assert abs(prof.global_value - 1.0) < 1e-12

    def test_entries_bounded(self):
        rng = rng_stream(23)
        for _ in range(10):
            s = random_state(5, rng)
            for meas in Measure:
                prof = global_entanglement(s, meas)
                assert all(0.0 <= v <= 1.0 + 1e-12 for v in prof.per_level)


def test_complement_spectrum_symmetry():
    rng = rng_stream(24)
    for n in (3, 4, 5, 6):
        s = random_state(n, rng)
        for kept in enumerate_bipartitions(n, n // 2):
            comp = tuple(q for q in range(n) if q not in kept)
            w_kept = np.linalg.eigvalsh(reduced_density_matrix(s, kept))
            w_comp = np.linalg.eigvalsh(reduced_density_matrix(s, comp))
            k = min(len(w_kept), len(w_comp))
            np.testing.assert_allclose(
                np.sort(w_kept)[::-1][:k], np.sort(w_comp)[::-1][:k], atol=1e-10
            )


def test_meyer_wallach_equivalence():
    # E^(1) under the linear measure equals the average single-qubit linear
    # entropy computed through an independent partial-trace path.
    rng = rng_stream(25)
    for n in (2, 3, 4, 5):
        s = random_state(n, rng)
        expected = np.mean(
            [2.0 * (1.0 - np.trace(brute_force_rdm(s, (q,)) @ brute_force_rdm(s, (q,))).real)
             for q in range(n)]
        )
        assert abs(level_entanglement(s, 1, Measure.LINEAR) - expected) < 1e-12


def test_permutation_invariance():
    rng = rng_stream(26)
    n = 4
    s = random_state(n, rng)
    perm = [2, 0, 3, 1]
    mapped = np.empty_like(s.amplitudes)
    for b in range(1 << n):
        b2 = sum(((b >> q) & 1) << perm[q] for q in range(n))
        mapped[b2] = s.amplitudes[b]
    t = StateVector(n, mapped)
    for m in (1, 2):
        for meas in Measure:
            assert abs(
                level_entanglement(s, m, meas) - level_entanglement(t, m, meas)
            ) < 1e-10


def random_batch(n, count, rng):
    return np.array([random_state(n, rng).amplitudes for _ in range(count)])


def _skewed_eigvalsh(monkeypatch, batch_row, subset):
    """Patch eigvalsh to give one marginal a negative eigenvalue.

    The marginal is that of batch_row in the stack at position subset among
    all the stacks of marginals eigvalsh gets, counted from the patch on.
    """
    real = np.linalg.eigvalsh
    seen = [0]

    def skewed(a):
        w = real(a)
        lo = seen[0]
        seen[0] += a.shape[1]
        if lo <= subset < seen[0]:
            w[batch_row, subset - lo, 0] = -1e-6
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", skewed)


class TestLevelPass:
    """The batched level pass against one marginal at a time."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_per_subset_entropies(self, n):
        rng = rng_stream(30 + n)
        amps = random_batch(n, 5, rng)
        states = [StateVector(n, a) for a in amps]
        for m in range(1, n // 2 + 1):
            parts = enumerate_bipartitions(n, m)
            got = _level_values(amps, n, m, (Measure.LINEAR, Measure.VON_NEUMANN))
            for s, row in zip(states, got):
                rhos = [reduced_density_matrix(s, kept) for kept in parts]
                lin = sum(linear_entropy(rho) for rho in rhos) / len(parts)
                vn = sum(von_neumann_entropy(rho) for rho in rhos) / len(parts)
                np.testing.assert_allclose(row, [lin, vn], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("budget", [1, 8 * 16 * 3, 8 * 16 * 7])
    def test_split_blocks_same_bits(self, budget, monkeypatch):
        # N=6, B=8: a budget of 1 makes one call per subset; 8*16*3 and
        # 8*16*7 hold 3 and 7 of level 2's fifteen 4x4 stacks per call, and
        # one of level 3's ten 8x8 stacks.
        rng = rng_stream(38)
        amps = random_batch(6, 8, rng)
        measures = (Measure.LINEAR, Measure.VON_NEUMANN)
        whole = _profile_values(amps, 6, measures)
        real = np.linalg.eigvalsh
        calls = []

        def counted(a):
            calls.append(a.shape[:2])
            return real(a)

        monkeypatch.setattr(entanglement, "_GRAM_ENTRIES", budget)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        split = _profile_values(amps, 6, measures)
        assert len(calls) > 3
        assert sum(k for _, k in calls) == 6 + 15 + 10
        np.testing.assert_array_equal(split, whole)

    @pytest.mark.parametrize("budget", [None, 8 * 8 * 4])
    def test_bad_spectrum_in_batch_raises(self, budget, monkeypatch):
        rng = rng_stream(39)
        amps = random_batch(5, 8, rng)
        assert np.isfinite(_level_values(amps, 5, 2, (Measure.VON_NEUMANN,))).all()
        if budget is not None:
            monkeypatch.setattr(entanglement, "_GRAM_ENTRIES", budget)
        _skewed_eigvalsh(monkeypatch, batch_row=5, subset=7)
        with pytest.raises(SpectrumError):
            _level_values(amps, 5, 2, (Measure.LINEAR, Measure.VON_NEUMANN))

    def test_bad_spectrum_exits_4(self, monkeypatch, tmp_path, capsys):
        _skewed_eigvalsh(monkeypatch, batch_row=2, subset=1)
        argv = ["run", "--qubits", "4", "--realizations", "4", "--max-gates", "3",
                "--measure", "vonneumann", "--workers", "1", "--output", str(tmp_path / "t.csv")]
        assert main(argv) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

"""Statevector, gate constructors, and Haar sampling."""
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import kstest

from randent.qstate import (
    StateVector,
    _apply_pair_batch,
    _orthonormalize_columns,
    canonical_gate,
    entangler_gate,
    rng_stream,
    sample_haar_u2,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
PAULIS = {
    "x": X,
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def embed_two(gate, qubit_i, qubit_j, n):
    """Dense 2^n x 2^n embedding of a two-qubit gate, built index by index."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bi = (col >> qubit_i) & 1
        bj = (col >> qubit_j) & 1
        base = col & ~(1 << qubit_i) & ~(1 << qubit_j)
        for bi2 in (0, 1):
            for bj2 in (0, 1):
                row = base | (bi2 << qubit_i) | (bj2 << qubit_j)
                full[row, col] += gate[2 * bi2 + bj2, 2 * bi + bj]
    return full


def random_state(n, rng):
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, z / np.linalg.norm(z))


def random_u4(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBasisState:
    def test_two_qubit_zero(self):
        s = StateVector.basis_state(2, 0)
        np.testing.assert_array_equal(s.amplitudes, [1, 0, 0, 0])

    def test_one(self):
        s = StateVector.basis_state(1, 1)
        np.testing.assert_array_equal(s.amplitudes, [0, 1])

    def test_three_qubit_five(self):
        s = StateVector.basis_state(3, 5)
        expected = np.zeros(8)
        expected[5] = 1
        np.testing.assert_array_equal(s.amplitudes, expected)

    @pytest.mark.parametrize("n,idx", [(0, 0), (25, 0), (2, 4), (2, -1)])
    def test_out_of_range(self, n, idx):
        with pytest.raises(ValueError):
            StateVector.basis_state(n, idx)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            StateVector(1, [1.0, 1.0])


class TestApplySingle:
    def test_x_flips_qubit0(self):
        s = StateVector.basis_state(2, 0).apply_single(X, 0)
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_identity_keeps_state(self):
        rng = rng_stream(1)
        s = random_state(3, rng)
        before = s.amplitudes.copy()
        s.apply_single(np.eye(2), 1)
        np.testing.assert_array_equal(s.amplitudes, before)

    def test_hadamard(self):
        s = StateVector.basis_state(1, 0).apply_single(H, 0)
        np.testing.assert_allclose(s.amplitudes, [2**-0.5, 2**-0.5], atol=1e-15)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            StateVector.basis_state(2, 0).apply_single(X, 2)


class TestApplyTwo:
    def test_cnot_truth_table(self):
        # |10>_{i,j} with i=0 control: bit0=1, bit1=0 is index 1 -> index 3
        s = StateVector.basis_state(2, 1).apply_two(CNOT, 0, 1)
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_identity(self):
        rng = rng_stream(2)
        s = random_state(3, rng)
        before = s.amplitudes.copy()
        s.apply_two(np.eye(4), 0, 2)
        np.testing.assert_array_equal(s.amplitudes, before)

    def test_matches_dense_embedding_n3(self):
        rng = rng_stream(3)
        gate = random_u4(rng)
        s = random_state(3, rng)
        expected = embed_two(gate, 0, 2, 3) @ s.amplitudes
        s.apply_two(gate, 0, 2)
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-13)

    def test_embedding_all_pairs(self):
        rng = rng_stream(4)
        for n in (2, 3, 4):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    gate = random_u4(rng)
                    s = random_state(n, rng)
                    expected = embed_two(gate, i, j, n) @ s.amplitudes
                    s.apply_two(gate, i, j)
                    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_batch_of_every_pair(self, n):
        # One kernel call, one row per ordered pair, each with its own gate.
        rng = rng_stream(40 + n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        ii = np.array([i for i, _ in pairs])
        jj = np.array([j for _, j in pairs])
        mats = np.array([random_u4(rng) for _ in pairs])
        start = np.array([random_state(n, rng).amplitudes for _ in pairs])
        amps = start.copy()
        _apply_pair_batch(amps, n, ii, jj, mats)
        for r, (i, j) in enumerate(pairs):
            np.testing.assert_allclose(amps[r], embed_two(mats[r], i, j, n) @ start[r], atol=1e-12)
            alone = start[r : r + 1].copy()
            _apply_pair_batch(alone, n, ii[r : r + 1], jj[r : r + 1], mats[r : r + 1])
            np.testing.assert_array_equal(amps[r], alone[0])

    def test_inverse_restores(self):
        rng = rng_stream(5)
        gate = random_u4(rng)
        s = random_state(4, rng)
        before = s.amplitudes.copy()
        s.apply_two(gate, 1, 3).apply_two(gate.conj().T, 1, 3)
        np.testing.assert_allclose(s.amplitudes, before, atol=1e-10)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            StateVector.basis_state(2, 0).apply_two(CNOT, 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StateVector.basis_state(2, 0).apply_two(CNOT, 0, 2)


class TestHaarSampling:
    def test_unitary(self):
        rng = rng_stream(6)
        for _ in range(50):
            v = sample_haar_u2(rng)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_matches_qr_phase_fix(self):
        rng = rng_stream(7)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        np.testing.assert_allclose(_orthonormalize_columns(z), q, atol=1e-13)

    def test_transition_probability_uniform(self):
        rng = rng_stream(8)
        n = 100_000
        p = np.array([abs(sample_haar_u2(rng)[0, 0]) ** 2 for _ in range(n)])
        se = p.std(ddof=1) / math.sqrt(n)
        assert abs(p.mean() - 0.5) < 4 * se
        stat = kstest(p, "uniform").statistic
        assert stat < 1.628 / math.sqrt(n)  # 1% critical value

    def test_left_invariance(self):
        rng = rng_stream(9)
        n = 100_000
        p = np.array([abs((H @ sample_haar_u2(rng))[0, 0]) ** 2 for _ in range(n)])
        stat = kstest(p, "uniform").statistic
        assert stat < 1.628 / math.sqrt(n)

    def test_batched_draw_matches_sequential(self):
        # The ensemble engine draws V_i and V_j as one (2,2,2,2) block; it
        # must consume the stream exactly like two single draws.
        a = rng_stream(123, 5)
        b = rng_stream(123, 5)
        w = a.standard_normal((2, 2, 2, 2))
        np.testing.assert_array_equal(w[0], b.standard_normal((2, 2, 2)))
        np.testing.assert_array_equal(w[1], b.standard_normal((2, 2, 2)))
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_streams_reproducible_and_distinct(self):
        x = rng_stream(42, 3).standard_normal(8)
        y = rng_stream(42, 3).standard_normal(8)
        z = rng_stream(42, 4).standard_normal(8)
        np.testing.assert_array_equal(x, y)
        assert not np.array_equal(x, z)


class TestCanonicalGate:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(canonical_gate((0, 0, 0)), np.eye(4), atol=1e-15)

    def test_quarter_pi_on_00(self):
        w = canonical_gate((math.pi / 4, 0, 0))
        out = w @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([2**-0.5, 0, 0, -1j * 2**-0.5])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_matrix_exponential(self):
        rng = rng_stream(10)
        for _ in range(20):
            lam = rng.uniform(0, math.pi / 4, size=3)
            gen = sum(
                lam[k] * np.kron(p, p) for k, p in enumerate(PAULIS.values())
            )
            np.testing.assert_allclose(
                canonical_gate(lam), expm(-1j * gen), atol=1e-10
            )

    def test_unitary_on_grid(self):
        vals = np.linspace(0, math.pi / 4, 5)
        for lx in vals:
            for ly in vals:
                for lz in vals:
                    w = canonical_gate((lx, ly, lz))
                    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)

    def test_out_of_range_warns(self):
        with pytest.warns(UserWarning):
            canonical_gate((1.0, 0, 0))
        # A non-finite component is refused before the range warning.
        for bad in (math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    canonical_gate((bad, 0, 0))


class TestEntanglerGate:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(entangler_gate(0.0), np.eye(4), atol=1e-15)

    def test_first_column(self):
        phi = 0.7
        u = entangler_gate(phi)
        np.testing.assert_allclose(
            u[:, 0], [math.cos(phi), 0, 0, -math.sin(phi)], atol=1e-15
        )
        np.testing.assert_allclose(u[:, 3], [math.sin(phi), 0, 0, math.cos(phi)], atol=1e-15)

    def test_quarter_pi_makes_bell(self):
        s = StateVector.basis_state(2, 0).apply_two(entangler_gate(math.pi / 4), 0, 1)
        np.testing.assert_allclose(
            s.amplitudes, [2**-0.5, 0, 0, -(2**-0.5)], atol=1e-12
        )

    def test_unitary_on_grid(self):
        for phi in np.linspace(0, math.pi, 100):
            u = entangler_gate(phi)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("phi", [-0.1, math.pi + 0.1])
    def test_range_enforced(self, phi):
        with pytest.raises(ValueError):
            entangler_gate(phi)


def test_norm_drift_small():
    rng = rng_stream(11)
    s = StateVector.basis_state(4, 0)
    gate = canonical_gate((math.pi / 4, 0, 0))
    for _ in range(1000):
        s.apply_two(gate, 0, 1)
        s.apply_single(sample_haar_u2(rng), int(rng.integers(4)))
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-9

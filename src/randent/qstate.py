"""Dense statevector simulation of N-qubit pure states.

Basis convention is little endian: bit k of an amplitude index holds the
state of qubit k, so qubit 0 is the least significant bit.  Two-qubit gate
matrices are indexed by 2*(bit of the first target) + (bit of the second
target), i.e. the first target qubit is the high bit of the 4x4 index.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "StateVector",
    "rng_stream",
    "sample_haar_u2",
    "canonical_gate",
    "entangler_gate",
]

MAX_QUBITS = 24

# Most amplitudes (complex128 entries) one numpy call advances or measures,
# 64 MiB: 4096 states at N=10, 64 at N=16.
_BATCH_ENTRIES = 1 << 22

# Bell basis columns: (|00>+|11>)/sqrt2, (|00>-|11>)/sqrt2,
# (|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2.  The entries are 1 / math.sqrt(2.0),
# one ulp below _GINIBRE_SCALE; each constant fixes output bits, so the two
# stay distinct.
_BELL = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, -1.0],
        [1.0, -1.0, 0.0, 0.0],
    ]
) / math.sqrt(2.0)

_GINIBRE_SCALE = 2.0 ** -0.5


def rng_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Deterministic random stream for (seed, index).

    Streams with the same pair are bit-identical; distinct indices give
    statistically independent streams (numpy SeedSequence spawn keys).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


class StateVector:
    """Normalized complex amplitudes of an N-qubit pure state."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes):
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
        amp = np.array(amplitudes, dtype=complex)
        if amp.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, got shape {amp.shape}"
            )
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        # Written so that a NaN norm fails too.
        if not abs(norm_sq - 1.0) <= 1e-10:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        self.num_qubits = num_qubits
        self.amplitudes = amp

    @classmethod
    def basis_state(cls, num_qubits: int, index: int = 0) -> "StateVector":
        """Computational basis state |index> of num_qubits qubits."""
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
        dim = 1 << num_qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(num_qubits, amp)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def apply_single(self, gate, qubit: int) -> "StateVector":
        """Apply a 2x2 unitary to one qubit, in place over the amplitude array."""
        g = np.asarray(gate, dtype=complex)
        if g.shape != (2, 2):
            raise ValueError(f"single-qubit gate must be 2x2, got {g.shape}")
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range for {self.num_qubits} qubits")
        view = self.amplitudes.reshape(-1, 2, 1 << qubit)
        a = view[:, 0, :].copy()
        b = view[:, 1, :].copy()
        view[:, 0, :] = g[0, 0] * a + g[0, 1] * b
        view[:, 1, :] = g[1, 0] * a + g[1, 1] * b
        return self

    def apply_two(self, gate, qubit_i: int, qubit_j: int) -> "StateVector":
        """Apply a 4x4 unitary to (qubit_i, qubit_j); qubit_i is the high bit.

        In place, O(2^N) work, no dense embedding: a batch of one through
        the ensemble engine's kernel.
        """
        g = np.asarray(gate, dtype=complex)
        if g.shape != (4, 4):
            raise ValueError(f"two-qubit gate must be 4x4, got {g.shape}")
        n = self.num_qubits
        if qubit_i == qubit_j:
            raise ValueError("two-qubit gate targets must differ")
        if not (0 <= qubit_i < n and 0 <= qubit_j < n):
            raise ValueError(f"qubit pair ({qubit_i}, {qubit_j}) out of range for {n} qubits")
        _apply_pair_batch(
            self.amplitudes[np.newaxis], n, np.array([qubit_i]), np.array([qubit_j]), g[np.newaxis]
        )
        return self


def _apply_pair_batch(amps, num_qubits, ii, jj, mats):
    """Apply per-row 4x4 gates to per-row target pairs of amps (B, 2^N), in place.

    One gather of each row's four target slices (B, 4, 2^(N-2)), one
    batched matmul, one scatter back; amps must flatten without a copy.  A
    slice's columns are the indices whose target bits are zero, in
    increasing order, so a row's arithmetic does not depend on the other
    rows or the batch size.
    """
    n = num_qubits
    flat = amps.reshape(-1, copy=False)
    base = np.arange(1 << (n - 2))
    lo = np.minimum(ii, jj)[:, np.newaxis]
    hi = np.maximum(ii, jj)[:, np.newaxis]
    # Insert a zero bit at lo, then at hi: x + ((x >> p) << p) shifts the
    # bits at and above p up by one.
    cols = base >> lo << lo
    cols += base
    cols += cols >> hi << hi
    cols += (np.arange(len(ii)) << n)[:, np.newaxis]
    bit_i = 1 << ii
    bit_j = 1 << jj
    # Row k of the 4x4 index sets the target bits 2*b_i + b_j = k.
    targets = np.stack([np.zeros_like(bit_i), bit_j, bit_i, bit_i | bit_j], axis=1)
    idx = cols[:, np.newaxis, :] + targets[:, :, np.newaxis]
    flat[idx] = mats @ flat[idx]


def _complex_gaussian(w: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians from real normal pairs on the last axis of w."""
    return (w[..., 0] + 1j * w[..., 1]) * _GINIBRE_SCALE


def _orthonormalize_columns(z: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on the two columns of z, shape (..., 2, 2).

    Equals the QR factor whose triangular part has a real positive diagonal
    (the R diagonal entries come out as column norms, which are positive),
    so Ginibre input gives Haar-distributed output.  Pure elementwise ops:
    results are bitwise independent of any leading batch shape.
    """
    a00 = z[..., 0, 0]
    a10 = z[..., 1, 0]
    a01 = z[..., 0, 1]
    a11 = z[..., 1, 1]
    n0 = np.sqrt(np.abs(a00) ** 2 + np.abs(a10) ** 2)
    q00 = a00 / n0
    q10 = a10 / n0
    p = np.conj(q00) * a01 + np.conj(q10) * a11
    w0 = a01 - p * q00
    w1 = a11 - p * q10
    n1 = np.sqrt(np.abs(w0) ** 2 + np.abs(w1) ** 2)
    q01 = w0 / n1
    q11 = w1 / n1
    out = np.empty(z.shape, dtype=complex)
    out[..., 0, 0] = q00
    out[..., 1, 0] = q10
    out[..., 0, 1] = q01
    out[..., 1, 1] = q11
    return out


def sample_haar_u2(rng: np.random.Generator) -> np.ndarray:
    """Draw a 2x2 unitary from the Haar measure on U(2).

    Ginibre draw followed by column orthonormalization with the phase
    convention that fixes the triangular factor's diagonal real positive.
    """
    return _orthonormalize_columns(_complex_gaussian(rng.standard_normal((2, 2, 2))))


def canonical_gate(lam) -> np.ndarray:
    """Nonlocal two-qubit gate exp(-i sum_k lam_k sigma_k (x) sigma_k).

    Built exactly from its Bell-basis spectral decomposition; the four Bell
    states are simultaneous eigenvectors of the sigma_k (x) sigma_k terms.
    Finite values of lam outside the symmetry-reduced range [0, pi/4] are
    accepted with a warning: the reduction is a convenience, not a
    constraint.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (3,):
        raise ValueError(f"lam must have three components, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"lam must be finite, got {tuple(lam.tolist())}")
    lx, ly, lz = (float(v) for v in lam)
    # Slack absorbs decimal-entry rounding of the pi/4 boundary.
    if lam.min() < -1e-9 or lam.max() > math.pi / 4 + 1e-9:
        warnings.warn(
            f"lambda ({lx}, {ly}, {lz}) outside the symmetry-reduced range [0, pi/4]",
            stacklevel=2,
        )
    phases = np.exp(
        -1j * np.array([lx - ly + lz, -lx + ly + lz, lx + ly - lz, -(lx + ly + lz)])
    )
    return (_BELL * phases) @ _BELL.T


def entangler_gate(phi: float) -> np.ndarray:
    """One-parameter entangler rotating in the {|00>, |11>} subspace.

    First column is cos(phi)|00> - sin(phi)|11>; phi=0 gives the identity.
    """
    phi = float(phi)
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must be in [0, pi], got {phi!r}")
    c = math.cos(phi)
    s = math.sin(phi)
    return np.array(
        [
            [c, 0.0, 0.0, s],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-s, 0.0, 0.0, c],
        ],
        dtype=complex,
    )

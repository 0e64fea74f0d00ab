"""Bipartitions, reduced density matrices, and multipartite entanglement.

The per-level measure E^(m) averages a bipartite entropy over all subsets
of m qubits versus the rest; the global measure averages E^(m) over
m = 1..floor(N/2).  At m = N/2 only one subset of each complementary pair
is enumerated (the one containing qubit 0): complementary marginals of a
pure state share a spectrum, so the half enumeration is exact.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .qstate import StateVector

__all__ = [
    "Measure",
    "SpectrumError",
    "EntanglementProfile",
    "enumerate_bipartitions",
    "reduced_density_matrix",
    "linear_entropy",
    "von_neumann_entropy",
    "level_entanglement",
    "global_entanglement",
]

# Eigenvalues of a marginal below this are treated as a numerical defect,
# not roundoff.
_EIG_FLOOR = -1e-10


class Measure(enum.Enum):
    """Entropy used to score the mixedness of a marginal."""

    LINEAR = "linear"
    VON_NEUMANN = "vonneumann"


class SpectrumError(RuntimeError):
    """A marginal density matrix eigenvalue fell below the roundoff floor."""


@dataclass(frozen=True)
class EntanglementProfile:
    """Per-level averages E^(m), m = 1..floor(N/2), for one measure."""

    measure: Measure
    per_level: tuple[float, ...]

    @property
    def global_value(self) -> float:
        return sum(self.per_level) / len(self.per_level)


def _check_level(num_qubits: int, m: int) -> None:
    if not 1 <= m <= num_qubits // 2:
        raise ValueError(f"m must be in [1, {num_qubits // 2}] for {num_qubits} qubits, got {m}")


def enumerate_bipartitions(num_qubits: int, m: int) -> list[tuple[int, ...]]:
    """All nonequivalent m-qubit subsets of an N-qubit system.

    Returns C(N, m) subsets, or C(N, m)/2 when m = N/2 (one canonical
    representative per complementary pair: the subset containing qubit 0).
    """
    _check_level(num_qubits, m)
    combos = itertools.combinations(range(num_qubits), m)
    if 2 * m == num_qubits:
        return [c for c in combos if c[0] == 0]
    return list(combos)


def _subsystem_matrix(amps: np.ndarray, num_qubits: int, kept) -> np.ndarray:
    """Reshape batched amplitudes (B, 2^N) to (B, 2^m, 2^(N-m)).

    Row index bits are the kept qubits, little endian (bit t of the row is
    the t-th smallest kept qubit); columns enumerate the environment.
    """
    kept = sorted(kept)
    n = num_qubits
    t = amps.reshape((amps.shape[0],) + (2,) * n)
    kept_axes = [1 + (n - 1 - q) for q in reversed(kept)]
    env_axes = [ax for ax in range(1, n + 1) if ax not in kept_axes]
    t = t.transpose([0] + kept_axes + env_axes)
    return t.reshape(amps.shape[0], 1 << len(kept), -1)


def _linear_from_purity(purity: np.ndarray, m: int) -> np.ndarray:
    d = 1 << m
    return np.clip(d / (d - 1) * (1.0 - purity), 0.0, 1.0)


def _vn_from_spectrum(w: np.ndarray, m: int) -> np.ndarray:
    """Normalized base-2 von Neumann entropy from eigenvalues w (..., d)."""
    low = float(w.min())
    if low < _EIG_FLOOR:
        raise SpectrumError(f"marginal eigenvalue {low} below {_EIG_FLOOR}")
    p = np.clip(w, 0.0, 1.0)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    return np.clip(-(p * logs).sum(axis=-1) / m, 0.0, 1.0)


def _level_values(amps: np.ndarray, num_qubits: int, m: int, measures) -> np.ndarray:
    """Level-m entanglement of each batched state, per measure: (B, len(measures))."""
    parts = enumerate_bipartitions(num_qubits, m)
    acc = np.zeros((amps.shape[0], len(measures)))
    for kept in parts:
        psi = _subsystem_matrix(amps, num_qubits, kept)
        rho = psi @ np.conj(np.swapaxes(psi, 1, 2))
        for k, measure in enumerate(measures):
            if measure is Measure.LINEAR:
                purity = np.einsum("rab,rab->r", rho, np.conj(rho)).real
                acc[:, k] += _linear_from_purity(purity, m)
            else:
                acc[:, k] += _vn_from_spectrum(np.linalg.eigvalsh(rho), m)
    return acc / len(parts)


def _profile_values(amps: np.ndarray, num_qubits: int, measures) -> np.ndarray:
    """All levels for each batched state: (B, len(measures), floor(N/2))."""
    levels = num_qubits // 2
    out = np.empty((amps.shape[0], len(measures), levels))
    for m in range(1, levels + 1):
        out[:, :, m - 1] = _level_values(amps, num_qubits, m, measures)
    return out


def reduced_density_matrix(state: StateVector, kept) -> np.ndarray:
    """Marginal density matrix of the kept qubits, tracing out the rest."""
    kept = tuple(sorted(kept))
    n = state.num_qubits
    if len(kept) != len(set(kept)) or not kept:
        raise ValueError(f"kept qubits must be distinct and nonempty, got {kept}")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"kept qubits {kept} out of range for {n} qubits")
    psi = _subsystem_matrix(state.amplitudes[np.newaxis, :], n, kept)
    return (psi @ np.conj(np.swapaxes(psi, 1, 2)))[0]


def _infer_m(rho: np.ndarray) -> int:
    d = rho.shape[0]
    if rho.ndim != 2 or rho.shape != (d, d) or d & (d - 1) or d < 2:
        raise ValueError(f"density matrix must be 2^m x 2^m with m >= 1, got shape {rho.shape}")
    return d.bit_length() - 1


def linear_entropy(rho: np.ndarray) -> float:
    """Normalized linear entropy (2^m/(2^m-1)) (1 - Tr rho^2), clamped to [0, 1].

    The purity is the squared Frobenius norm; no eigensolve.
    """
    m = _infer_m(rho)
    purity = float(np.linalg.norm(rho, "fro") ** 2)
    return float(_linear_from_purity(np.asarray(purity), m))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy per qubit, base 2, so the maximum is exactly 1."""
    m = _infer_m(rho)
    w = np.linalg.eigvalsh(rho)
    return float(_vn_from_spectrum(w, m))


def level_entanglement(state: StateVector, m: int, measure: Measure) -> float:
    """E^(m): the chosen entropy averaged over all level-m bipartitions."""
    return float(_level_values(state.amplitudes[np.newaxis, :], state.num_qubits, m, (measure,))[0, 0])


def global_entanglement(state: StateVector, measure: Measure) -> EntanglementProfile:
    """Full profile E^(1)..E^(floor(N/2)); the global value is their mean."""
    if state.num_qubits < 2:
        raise ValueError("global entanglement needs at least 2 qubits")
    vals = _profile_values(state.amplitudes[np.newaxis, :], state.num_qubits, (measure,))[0, 0]
    return EntanglementProfile(measure=measure, per_level=tuple(float(v) for v in vals))

"""Haar-average entanglement saturation values.

Closed forms for both measures, each cross-checkable against a Monte Carlo
oracle that samples Haar-random pure states directly:

* linear measure: Lubkin's exact average marginal purity,
  <Tr rho^2> = (2^m + 2^(N-m)) / (2^N + 1), pushed through the linear
  entropy normalization;
* von Neumann measure: Page's exact average subsystem entropy for
  d_A = 2^m <= d_B = 2^(N-m),
  <S> = sum_{k=d_B+1}^{d_A d_B} 1/k - (d_A - 1)/(2 d_B) nats,
  converted to base 2 and normalized per qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import EntanglementProfile, Measure, _check_level, _level_values
from .qstate import StateVector, _BATCH_ENTRIES

__all__ = [
    "MonteCarloEstimate",
    "lubkin_linear_baseline",
    "page_vn_baseline",
    "baseline_level",
    "haar_global_baseline",
    "sample_haar_state",
    "monte_carlo_baseline",
]

_MAX_SAMPLE_QUBITS = 16


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float


def lubkin_linear_baseline(num_qubits: int, m: int) -> float:
    """Haar average of the normalized linear entropy of an m-qubit marginal.

    The average purity (d_a + d_b)/(d_a d_b + 1) composed with the
    normalization d_a/(d_a - 1) simplifies to d_a (d_b - 1)/(d_a d_b + 1),
    evaluated as a single integer ratio for exactness.
    """
    _check_level(num_qubits, m)
    d_a = 1 << m
    d_b = 1 << (num_qubits - m)
    return d_a * (d_b - 1) / (d_a * d_b + 1)


def page_vn_baseline(num_qubits: int, m: int) -> float:
    """Haar average of the per-qubit base-2 von Neumann entropy of an m-qubit marginal."""
    _check_level(num_qubits, m)
    d_a = 1 << m
    d_b = 1 << (num_qubits - m)
    # Direct harmonic summation, chunked to bound the transient arrays.
    total = 0.0
    lo = d_b + 1
    while lo <= d_a * d_b:
        hi = min(lo + (1 << 16), d_a * d_b + 1)
        total += float(np.sum(1.0 / np.arange(lo, hi)))
        lo = hi
    nats = total - (d_a - 1) / (2.0 * d_b)
    return nats / math.log(2.0) / m


def baseline_level(num_qubits: int, m: int, measure: Measure) -> float:
    if measure is Measure.LINEAR:
        return lubkin_linear_baseline(num_qubits, m)
    return page_vn_baseline(num_qubits, m)


def haar_global_baseline(num_qubits: int, measure: Measure) -> EntanglementProfile:
    """Per-level Haar baselines for m = 1..floor(N/2) plus their mean."""
    if num_qubits < 2:
        raise ValueError(f"need at least 2 qubits, got {num_qubits}")
    per_level = tuple(
        baseline_level(num_qubits, m, measure) for m in range(1, num_qubits // 2 + 1)
    )
    return EntanglementProfile(per_level=per_level)


def _haar_amplitudes(num_qubits: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of count Haar-random pure states, (count, 2^N).

    Each state is a normalized vector of complex Gaussians; drawing count
    states at once consumes the stream exactly like count single draws.
    """
    if not 1 <= num_qubits <= _MAX_SAMPLE_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {_MAX_SAMPLE_QUBITS}], got {num_qubits}")
    w = rng.standard_normal((count, 1 << num_qubits, 2))
    z = w[..., 0] + 1j * w[..., 1]
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def sample_haar_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state: normalized vector of standard complex Gaussians."""
    return StateVector(num_qubits, _haar_amplitudes(num_qubits, 1, rng)[0])


def monte_carlo_baseline(
    num_qubits: int,
    m: int,
    measure: Measure,
    samples: int,
    rng: np.random.Generator,
) -> MonteCarloEstimate:
    """Estimate the level-m Haar average by sampling random pure states.

    States are drawn in chunks of at most _BATCH_ENTRIES amplitudes
    (at least one state) from the single stream, which consumes the
    generator exactly like one draw per state.
    """
    _check_level(num_qubits, m)
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    values = np.empty(samples)
    chunk = max(1, _BATCH_ENTRIES >> num_qubits)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        z = _haar_amplitudes(num_qubits, b, rng)
        values[done : done + b] = _level_values(z, num_qubits, m, (measure,))[:, 0]
        done += b
    std = float(values.std(ddof=1))
    return MonteCarloEstimate(mean=float(values.mean()), std_error=std / math.sqrt(samples))

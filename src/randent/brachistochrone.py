"""Time-optimal gate durations and the gate-count vs physical-time sweep.

The entangler gate with angle phi admits a closed-form minimum duration
under a finite-energy constraint: omega * t = pi * sqrt(x (1 - x/2)) with
x = phi/pi.  Total physical time of a protocol run is the gate count times
that duration, which shifts the optimum away from the pure gate-count one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import ProtocolConfig, convergence_gate_count, run_ensemble
from .qstate import canonical_gate, entangler_gate

__all__ = [
    "SweepRow",
    "SweepTable",
    "LambdaRow",
    "optimal_gate_time",
    "physical_time",
    "assemble_sweep_table",
    "sweep_phi",
    "sweep_lambda",
]


def optimal_gate_time(phi: float, omega: float = 1.0) -> float:
    """Minimum duration of the angle-phi entangler, in units with hbar = 1.

    The time of the precessing-field solution of Carlini, Hosoya, Koike &
    Okudaira, PRL 96, 060503 (2006), for H(t) = B(t) (Z1 + Z2)/2 +
    J(t) (X1 X2 - Y1 Y2)/2 under the constraint B^2 + J^2 = 2 omega^2.  H
    acts only on the {|00>, |11>} block, as a field of magnitude
    sqrt(2) omega in its x-z plane; precessing about the block's y axis at
    nu = 2 (pi - phi) / t, it makes entangler_gate(phi) at t (tested).
    A numerical optimal-control search over fields under the constraint
    (tested, 40 piecewise-constant segments) reaches the gate in 1.01 t
    and stays at least 1e-5 short of it in 0.99 t.  The
    model times the gate itself, with no free local unitaries, so
    t(phi) != t(pi - phi) although the two gates are locally equivalent.
    """
    phi = float(phi)
    if not 0.0 <= phi <= math.pi:
        raise ValueError(f"phi must be in [0, pi], got {phi!r}")
    if not 0.0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    x = phi / math.pi
    t = math.pi * math.sqrt(x * (1.0 - x / 2.0)) / omega
    if not math.isfinite(t):
        raise ValueError(f"gate time at phi={phi!r}, omega={omega!r} is not finite")
    return t


def physical_time(n_gates: int, phi: float, omega: float = 1.0) -> float:
    """Total run duration: gate count times the optimal per-gate time."""
    if n_gates < 0:
        raise ValueError(f"n_gates must be >= 0, got {n_gates}")
    try:
        t = n_gates * optimal_gate_time(phi, omega)
    except OverflowError:  # an integer too large for a float
        t = math.inf
    if not math.isfinite(t):
        raise ValueError(f"time of {n_gates} gates at phi={phi!r}, omega={omega!r} is not finite")
    return t


def _check_phi_times(max_gates: int, phi_grid, omega: float) -> None:
    """Raise the ValueError of any angle whose time at max_gates gates is invalid or not finite."""
    for phi in phi_grid:
        physical_time(max_gates, phi, omega)


@dataclass(frozen=True)
class SweepRow:
    phi: float
    n_gates: int | None  # None when not converged
    t_phi: float
    t_phys: float | None  # None when not converged


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    argmin_gates: float | None  # phi minimizing n_gates among converged rows
    argmin_time: float | None  # phi minimizing t_phys among converged rows


@dataclass(frozen=True)
class LambdaRow:
    lam: tuple[float, float, float]
    n_gates: int | None


def assemble_sweep_table(phis, gate_counts, omega: float = 1.0) -> SweepTable:
    """Build sweep rows and locate both optima from per-angle gate counts."""
    rows = []
    for phi, n in zip(phis, gate_counts, strict=True):
        t_phi = optimal_gate_time(phi, omega)
        t_phys = physical_time(n, phi, omega) if n is not None else None
        rows.append(SweepRow(phi=float(phi), n_gates=n, t_phi=t_phi, t_phys=t_phys))
    converged = [r for r in rows if r.n_gates is not None]
    argmin_gates = min(converged, key=lambda r: r.n_gates).phi if converged else None
    argmin_time = min(converged, key=lambda r: r.t_phys).phi if converged else None
    return SweepTable(rows=tuple(rows), argmin_gates=argmin_gates, argmin_time=argmin_time)


def _converged_count(config: ProtocolConfig, workers: int = 1) -> int | None:
    """Confirmed gate count of config's own gate, on the judged measure: a grid of one point."""
    return _converged_counts(config, [config.fixed_gate], workers)[0]


def _converged_counts(base_config: ProtocolConfig, gates, workers: int | None) -> list[int | None]:
    """Gate count at each grid point, one per fixed gate, of the global series of the judged measure.

    Each point's config is base_config with that gate and the one measure
    protocol._JUDGED names, and each trajectory is counted on the measure
    its own config carries.  One run_ensemble call runs them all: the
    points of a group advance in lockstep, sharing streams, pairs and
    draws, their realizations sliced over the workers, and each stops at
    its crossing.
    """
    trajs = run_ensemble(base_config, workers, gates=gates)
    return [convergence_gate_count(traj, traj.config.measures[0]) for traj in trajs]


def sweep_phi(
    base_config: ProtocolConfig,
    phi_grid,
    omega: float = 1.0,
    workers: int | None = None,
) -> SweepTable:
    """Run the ensemble for each entangler angle and tabulate both optima.

    Convergence is judged on the global series of the one measure
    protocol._JUDGED names (linear), and only that measure runs, whatever
    base_config.measures holds.  The base config's seed is reused at every
    grid point, so ensemble noise is correlated across angles and the
    argmin comparison is sharper than independent seeding would give; the
    angles of a group also share their draws, so each stream draws once
    per gate for all of them.  A grid point stops as its confirm window
    closes; one not converged by max_gates has no gate count.  Every
    point's realizations are split over min(workers, R, cores) processes
    (see _converged_counts).  The longest time a row can report is checked
    for each angle before any ensemble runs.

    Every ensemble product of the entangler family is symmetric under phi
    <-> pi - phi, for every measure, level and geometry: with each step's
    Haar draws relabelled, a realization at pi - phi is the one at phi up
    to local unitaries (tested).  So the counts at phi and pi - phi differ
    by Monte Carlo noise alone, and on a mirror-symmetric grid the limit
    argmin_time is at or below pi/2, as optimal_gate_time increases on
    (0, pi].
    """
    _check_phi_times(base_config.max_gates, phi_grid, omega)
    counts = _converged_counts(base_config, [entangler_gate(phi) for phi in phi_grid], workers)
    return assemble_sweep_table(phi_grid, counts, omega)


def sweep_lambda(
    base_config: ProtocolConfig,
    lambda_grid,
    workers: int | None = None,
) -> list[LambdaRow]:
    """Gate counts over a grid of canonical gates (lam, 0, 0).

    No duration accompanies these rows: the closed-form optimal time is
    only available for the entangler family.
    """
    vecs = [(float(lam), 0.0, 0.0) for lam in lambda_grid]
    counts = _converged_counts(base_config, [canonical_gate(vec) for vec in vecs], workers)
    return [LambdaRow(lam=vec, n_gates=n) for vec, n in zip(vecs, counts, strict=True)]

"""Feasibility of concurrent transmissions under SINR, power, delay and energy caps.

A rate choice per link fixes per-link SINR targets. With the normalized
interference matrix F (F[i,j] = target_i * g[j,i] / g[i,i] off the diagonal,
0 on it) and u (u_i = target_i * N / g[i,i]), some power vector meets all
targets at once exactly when the spectral radius of F is below one; then the
component-wise minimum power vector solves (I - F) p = u and meets every
target with equality (Foschini & Miljanic 1993).

F is nonnegative, so I - F is a Z-matrix, and Gaussian elimination without
pivoting on I - F has all pivots > 0 exactly when rho(F) < 1: the pivots are
ratios of consecutive leading principal minors, and a Z-matrix is a
nonsingular M-matrix exactly when all of those are positive (Berman &
Plemmons 1979, ch. 6). One elimination on Python floats therefore gives both
the verdict and the minimum powers, for any number of links, without
computing rho. The pivot that decides is about proportional to 1 - rho, so
within about 1e-12 of rho = 1 the verdict rests on rounding; further away it
agrees with an eigensolve (property-tested for up to five links).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import GainMatrix, RadioConfig, RateTable, ValidationError

__all__ = [
    "Verdict",
    "FeasibilityReport",
    "NumericalError",
    "min_power_vector",
    "check_targets",
    "check_rate_vector",
    "achieved_sinr",
]


class NumericalError(RuntimeError):
    """A float computation broke down: the elimination for the minimum power
    vector, a channel draw whose gains leave the float range, or continuous
    pricing whose slot bounds or capacity targets leave it."""


class Verdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_SPECTRAL = "infeasible_spectral"
    INFEASIBLE_MAX_POWER = "infeasible_max_power"
    INFEASIBLE_DELAY = "infeasible_delay"
    INFEASIBLE_ENERGY = "infeasible_energy"


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict plus the minimum power vector (present whenever it exists).

    ``min_powers`` is set whenever the spectral condition holds (every pivot
    of the elimination on I - F is > 0, that is rho(F) < 1), even if a later
    power/delay/energy check fails. Within about 1e-12 of rho = 1 the
    spectral verdict rests on rounding. The checks run in a fixed order
    (spectral, max power, delay, energy) so the verdict labels are
    deterministic; any single failure already means the vector is infeasible.
    """

    verdict: Verdict
    min_powers: tuple[float, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.FEASIBLE


def min_power_vector(gains: GainMatrix, sinr_targets, noise: float) -> tuple[float, ...] | None:
    """Component-wise minimum powers meeting the given per-link SINR targets.

    Targets are jointly achievable iff rho(F) < 1 (strictly); otherwise the
    result is None. The test is the pivot criterion of the module docstring:
    I - F and u are built row by row, in Python floats, from the columns
    ``gains.cols`` and eliminated without pivoting, and the first pivot
    that is not > 0 gives None, as does a non-finite entry of F
    (an overflowing target). At the returned vector every link meets its
    target with equality, and any other feasible power vector dominates it
    component-wise. One link gives p = u exactly; for two links the only
    pivot after the first is 1 - F[0,1]*F[1,0].

    No returned power is below its link's interference-free power
    u_i = t_i * noise / g_ii, compared as floats: the elimination only adds
    non-negative terms to u, and back-substitution only adds non-negative
    terms and divides by pivots in (0, 1], each step rounding monotonically.
    The level ceilings of ``lttf`` rest on this.

    Close to rho = 1 the powers lose accuracy (a relative error of a few
    eps / (1 - rho)) but still meet every target to a relative 1e-9; within
    about 1e-12 of rho = 1 the verdict itself rests on rounding.

    Raises NumericalError if back-substitution gives a non-finite or
    non-positive power although every pivot is > 0 (as when an overflowing
    target meets a single link); that signals numerical breakdown rather than
    infeasibility, and must never be reported as a silent wrong answer.
    """
    t = sinr_targets.tolist() if isinstance(sinr_targets, np.ndarray) else sinr_targets
    cols = gains.cols
    n = len(cols)
    try:
        valid = len(t) == n
        if valid:
            for x in t:
                if not x > 0:
                    valid = False
                    break
    except TypeError:  # a scalar, or a nested list
        valid = False
    if not valid:
        raise ValidationError("one SINR target > 0 per link required")
    # row i of I - F from column i of g: F[i][j] = g[j][i] * (t_i / g[i][i])
    isfinite = math.isfinite
    a, u = [], []
    for i, col in enumerate(cols):
        ti = t[i]
        gii = col[i]
        s = ti / gii
        row = [-(x * s) for x in col]
        row[i] = 1.0
        for x in row:
            if not isfinite(x):
                return None
        a.append(row)
        u.append(ti * noise / gii)
    for c in range(n):
        pivot_row = a[c]
        pivot = pivot_row[c]
        if not pivot > 0:
            return None
        for r in range(c + 1, n):
            row = a[r]
            m = row[c] / pivot
            for j in range(c + 1, n):
                row[j] -= m * pivot_row[j]
            u[r] -= m * u[c]
    p = u
    for i in range(n - 1, -1, -1):
        row = a[i]
        s = p[i]
        for j in range(i + 1, n):
            s -= row[j] * p[j]
        s /= row[i]
        if not 0 < s < math.inf:
            raise NumericalError("non-finite or non-positive minimum power")
        p[i] = s
    return tuple(p)


def check_targets(
    gains: GainMatrix,
    sinr_targets,
    radio: RadioConfig,
    times,
    delays,
    energies,
) -> FeasibilityReport:
    """Ordered constraint check for explicit SINR targets and per-link times.

    Checks, in order: existence of a power solution (rho(F) < 1, by the
    pivots of ``min_power_vector``), p <= p_max per link, time <= delay per
    link, time * power <= energy per link. The first failing check fixes the
    verdict. ``times``, ``delays`` and ``energies`` are sequences of one
    value per link, checked against ``gains.n`` before the kernel runs: a
    scalar or a wrong length raises ValidationError at every verdict.
    """
    try:
        valid = len(times) == len(delays) == len(energies) == gains.n
    except TypeError:  # a scalar
        valid = False
    if not valid:
        raise ValidationError("one time, delay and energy per link required")
    powers = min_power_vector(gains, sinr_targets, radio.noise_power)
    if powers is None:
        return FeasibilityReport(Verdict.INFEASIBLE_SPECTRAL)
    if max(powers) > radio.p_max:
        return FeasibilityReport(Verdict.INFEASIBLE_MAX_POWER, powers)
    for x, d in zip(times, delays):
        if x > d:
            return FeasibilityReport(Verdict.INFEASIBLE_DELAY, powers)
    for x, y, e in zip(times, powers, energies):
        if x * y > e:
            return FeasibilityReport(Verdict.INFEASIBLE_ENERGY, powers)
    return FeasibilityReport(Verdict.FEASIBLE, powers)


def check_rate_vector(
    nodes,
    gains: GainMatrix,
    rates,
    table: RateTable,
    radio: RadioConfig,
) -> FeasibilityReport:
    """Feasibility of one discrete rate vector for a subset of nodes.

    Every rate must be an exact entry of the table; its SINR threshold becomes
    the link's target. Node order must match the gain matrix rows.
    """
    nodes = list(nodes)
    rates = list(rates)
    if len(nodes) != gains.n or len(rates) != gains.n:
        raise ValidationError("nodes, rates and gain matrix sizes must agree")
    targets = [table.threshold_for_rate(r) for r in rates]
    times = [n.packet_bits / r for n, r in zip(nodes, rates)]
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]
    return check_targets(gains, targets, radio, times, delays, energies)


def achieved_sinr(gains: GainMatrix, powers, noise: float) -> np.ndarray:
    """Per-link SINR produced by a given power vector: each link's desired
    power over the noise plus the interference summed over the other links
    alone, so that no term cancels at high SNR."""
    g_t = np.array(gains.cols)  # g_t[k, l] is the gain from link l to link k
    received = g_t * np.asarray(powers, dtype=float)
    desired = np.diag(received).copy()
    np.fill_diagonal(received, 0.0)
    return desired / (noise + received.sum(axis=1))

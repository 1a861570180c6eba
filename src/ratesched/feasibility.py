"""Feasibility of concurrent transmissions under SINR, power, delay and energy caps.

A rate choice per link fixes per-link SINR targets. Whether any power vector
can meet all targets at once reduces to the spectral radius of the normalized
interference matrix F being below one; when it is, the component-wise minimum
power vector solves the linear system (I - F) p = u and meets every target
with equality.

Nearly every system priced is one or two links, and those have closed forms
evaluated on Python floats: one link has rho = 0 and p = u; two links with
a = F[0,1] and b = F[1,0] have rho = sqrt(a*b) and, by Cramer's rule,
p = (u0 + a*u1, u1 + b*u0) / (1 - a*b). Three or more links take a dense
eigensolve and a linear solve.
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
    "spectral_radius",
    "min_power_vector",
    "check_targets",
    "check_rate_vector",
    "achieved_sinr",
]


class NumericalError(RuntimeError):
    """A float computation broke down: the linear solve for the minimum power
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

    ``min_powers`` is set whenever the spectral condition holds, even if a
    later power/delay/energy check fails. The checks run in a fixed order
    (spectral, max power, delay, energy) so the verdict labels are
    deterministic; any single failure already means the vector is infeasible.
    """

    verdict: Verdict
    spectral_radius: float
    min_powers: np.ndarray | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.FEASIBLE


def spectral_radius(f: np.ndarray) -> float:
    """Largest eigenvalue magnitude of the normalized interference matrix.

    Computed with a dense eigensolve. The matrices here are tiny (one row per
    concurrent link), so this is both faster and more robust than iterative
    estimates, which stall on the cyclic interference pattern of two links.
    With a zero diagonal the small cases have closed forms, which
    ``min_power_vector`` uses instead of this function: rho = 0 for one link
    and rho = sqrt(f[0,1] * f[1,0]) for two.
    """
    n = f.shape[0]
    if n <= 1:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(f))))


def _interference_system(gains: GainMatrix, targets: np.ndarray, noise: float):
    """Build F and u with F[i,j] = target_i * g[j,i] / g[i,i], u_i = target_i*N/g[i,i]."""
    g = gains.g
    diag = np.diag(g)
    f = (g.T * (targets / diag)[:, None]).copy()
    np.fill_diagonal(f, 0.0)
    u = targets * noise / diag
    return f, u


def min_power_vector(
    gains: GainMatrix, sinr_targets, noise: float
) -> tuple[np.ndarray | None, float]:
    """Component-wise minimum powers meeting the given per-link SINR targets.

    Returns ``(powers, rho)`` where ``rho`` is the spectral radius of the
    normalized interference matrix. Targets are jointly achievable iff
    ``rho < 1`` (strictly); otherwise ``powers`` is None. At the returned
    vector every link meets its target with equality, and any other feasible
    power vector dominates it component-wise. An overflowing (infinite)
    target gives ``(None, inf)`` when it makes an entry of the interference
    matrix non-finite, and NumericalError for a single link.

    One and two links use the closed forms of the module docstring; more
    links use ``spectral_radius`` and a dense solve. Close to rho = 1 the
    powers lose accuracy (for two links a relative error of a few
    eps / (1 - a*b)) but still meet every target to a relative 1e-9; within
    about 1e-12 of rho = 1 the verdict itself rests on rounding.

    Raises NumericalError if the solve fails or returns a non-finite or
    non-positive power even though ``rho < 1``; that signals numerical
    breakdown rather than infeasibility, and must never be reported as a
    silent wrong answer.
    """
    targets = np.asarray(sinr_targets, dtype=float)
    if targets.shape != (gains.n,):
        raise ValidationError("one SINR target per link required")
    t = targets.tolist()
    if not all(x > 0 for x in t):
        raise ValidationError("SINR targets must be > 0")
    if gains.n == 1:
        return _checked_powers([t[0] * noise / gains.g.item()], 0.0), 0.0
    if gains.n == 2:
        return _two_links(gains.g.tolist(), t, noise)
    f, u = _interference_system(gains, targets, noise)
    if not np.all(np.isfinite(f)):
        return None, math.inf
    rho = spectral_radius(f)
    if not rho < 1.0:
        return None, rho
    try:
        powers = np.linalg.solve(np.eye(gains.n) - f, u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular interference system despite spectral radius {rho}"
        ) from exc
    return _checked_powers(powers.tolist(), rho), rho


def _two_links(g, t, noise: float) -> tuple[np.ndarray | None, float]:
    """Closed-form two-link system, with the operation order of ``_interference_system``."""
    (g00, g01), (g10, g11) = g
    t0, t1 = t
    a = g10 * (t0 / g00)
    b = g01 * (t1 / g11)
    if not (math.isfinite(a) and math.isfinite(b)):
        return None, math.inf
    rho = math.sqrt(a * b)
    if not rho < 1.0:
        return None, rho
    det = 1.0 - a * b
    u0 = t0 * noise / g00
    u1 = t1 * noise / g11
    return _checked_powers([(u0 + a * u1) / det, (u1 + b * u0) / det], rho), rho


def _checked_powers(powers: list, rho: float) -> np.ndarray:
    if not all(math.isfinite(p) and p > 0 for p in powers):
        raise NumericalError(
            f"non-finite or non-positive minimum power with spectral radius {rho}"
        )
    return np.array(powers)


def check_targets(
    gains: GainMatrix,
    sinr_targets,
    radio: RadioConfig,
    times,
    delays,
    energies,
) -> FeasibilityReport:
    """Ordered constraint check for explicit SINR targets and per-link times.

    Checks, in order: existence of a power solution (spectral radius < 1),
    p <= p_max per link, time <= delay per link, time * power <= energy per
    link. The first failing check fixes the verdict. ``times``, ``delays``
    and ``energies`` hold one value per link, or one scalar for all links.
    """
    powers, rho = min_power_vector(gains, sinr_targets, radio.noise_power)
    if powers is None:
        return FeasibilityReport(Verdict.INFEASIBLE_SPECTRAL, rho)
    p = powers.tolist()
    if any(x > radio.p_max for x in p):
        return FeasibilityReport(Verdict.INFEASIBLE_MAX_POWER, rho, powers)
    n = gains.n
    times = _per_link(times, n)
    if any(x > d for x, d in zip(times, _per_link(delays, n))):
        return FeasibilityReport(Verdict.INFEASIBLE_DELAY, rho, powers)
    if any(x * y > e for x, y, e in zip(times, p, _per_link(energies, n))):
        return FeasibilityReport(Verdict.INFEASIBLE_ENERGY, rho, powers)
    return FeasibilityReport(Verdict.FEASIBLE, rho, powers)


def _per_link(values, n: int) -> list:
    """``values`` as n Python floats; a scalar stands for every link."""
    v = np.asarray(values, dtype=float).tolist()
    if not isinstance(v, list):
        return [v] * n
    if len(v) != n:
        raise ValidationError("one time, delay and energy per link required")
    return v


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
    targets = np.array([table.threshold_for_rate(r) for r in rates])
    times = np.array([n.packet_bits / r for n, r in zip(nodes, rates)])
    delays = np.array([n.delay_bound for n in nodes])
    energies = np.array([n.energy_budget for n in nodes])
    return check_targets(gains, targets, radio, times, delays, energies)


def achieved_sinr(gains: GainMatrix, powers, noise: float) -> np.ndarray:
    """Per-link SINR produced by a given power vector."""
    g = gains.g
    p = np.asarray(powers, dtype=float)
    received = g.T @ p
    desired = np.diag(g) * p
    return desired / (noise + received - desired)

#!/usr/bin/env python3
"""Minimum transmit powers for concurrent links.

Fixing each link's SINR target turns "can these links transmit together?"
into a linear-algebra question: the normalized interference matrix F must have
spectral radius below one. One Gaussian elimination on I - F answers it: the
targets are feasible exactly when every pivot is positive, and the same
elimination yields the unique component-wise minimum power vector, which meets
every target with equality.
"""

import numpy as np

from ratesched import GainMatrix, achieved_sinr, min_power_vector

NOISE = 1e-8  # W

# Two symmetric links; beta is the cross-gain relative to the desired gain.
# With targets gamma, rho(F) = gamma * beta, so beta >= 0.1 is infeasible.
g_desired = 1e-6
for beta in (0.01, 0.05, 0.09, 0.2):
    gains = GainMatrix(g_desired * np.array([[1.0, beta], [beta, 1.0]]))
    targets = [10.0, 10.0]  # 10 dB each
    powers = min_power_vector(gains, targets, NOISE)
    if powers is None:
        print(f"beta={beta:4.2f}: infeasible, no power vector can meet both targets")
        continue
    sinr = achieved_sinr(gains, powers, NOISE)
    print(f"beta={beta:4.2f}: feasible, powers = {np.round(powers, 4)} W, "
          f"achieved SINR = {sinr.round(6)}")

print()

# The closed form for the symmetric pair: p = gamma*N0 / (g * (1 - gamma*beta))
beta = 0.05
expected = 10.0 * NOISE / (g_desired * (1 - 10.0 * beta))
print(f"closed form at beta=0.05: {expected} W")

# Asymmetric example: the link with the weaker desired gain pays more, and
# raising one target raises everyone's minimum power.
gains = GainMatrix([[2e-6, 1e-8], [5e-8, 5e-7]])
for targets in ([10.0, 10.0], [10.0, 31.6]):
    powers = min_power_vector(gains, targets, NOISE)
    print(f"targets {targets}: powers {np.round(powers, 4)} W")

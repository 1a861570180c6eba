#!/usr/bin/env python3
"""Discrete rate ladders.

A ladder maps SINR thresholds to transmission rates through the AWGN capacity
formula r = W * log2(1 + gamma). A link may use a level only when its SINR
reaches the threshold, so higher rates cost disproportionately more power.
"""

import math

from ratesched import build_rate_table, disc4_table, disc8_table

W = 100e6  # Hz

for name, table in (("disc4", disc4_table(W)), ("disc8", disc8_table(W))):
    print(f"{name}: {table.num_levels} usable levels "
          f"(dropped thresholds: {table.dropped_db})")
    for q in range(table.num_levels):
        g = table.threshold(q)
        print(f"  level {q}: {10 * math.log10(g):5.1f} dB -> "
              f"{table.rate(q) / 1e6:8.2f} Mbit/s")
    print()

# A 100-bit packet at each disc4 level:
table = disc4_table(W)
print("time to move 100 bits at each disc4 level:")
for q in range(table.num_levels):
    print(f"  level {q}: {100 / table.rate(q) * 1e9:7.2f} ns")

# Custom ladders work the same way; the -inf dB entry means "stay silent"
# and never becomes an assignable rate.
custom = build_rate_table([-math.inf, 3.0, 12.0], W)
print(f"\ncustom ladder rates: {[round(r / 1e6, 1) for _, r in custom.levels]} Mbit/s")

#!/usr/bin/env python3
"""Random topologies and channel gains.

Sensors and controllers land uniformly in a square sized by the sensor
density; each sensor attaches to its nearest controller. Link gains combine
log-distance path loss (70 dB at 1 m, exponent 3.5), 4 dB log-normal
shadowing, and unit-mean exponential fading, so the expected received power
matches the large-scale level. Identical seeds reproduce identical draws.
"""

import numpy as np

from ratesched import (
    generate_topology,
    mean_gain,
    path_loss_db,
    realize_channel,
    topology_from_json,
    topology_to_json,
)

topo = generate_topology(n_sensors=8, n_controllers=3, density=5.0, seed=42)
print(f"side: {topo.side:.3f} m for 8 sensors at 5 /m^2")
print(f"controller of each sensor: {topo.controller_of}")

print("\npath loss and mean gain by distance:")
for d in (0.05, 0.3, 1.0, 3.0, 10.0):
    print(f"  {d:5.2f} m: {path_loss_db(d):6.1f} dB -> mean gain {mean_gain(d):.3e}")

chan = realize_channel(topo, seed=7)
print(f"\ngain matrix shape (sensor x controller): {chan.gains.shape}")
own = [chan.gains[i, topo.controller_of[i]] for i in range(8)]
print(f"own-link gains: {np.array(own).round(12)}")

sub = chan.link_gains([0, 3, 5])
# the matrix keeps its entries column by column: cols[k][l] is entry (l, k)
print(f"subset gain matrix for links (0, 3, 5):\n{np.array(sub.cols).T}")

# draws are reproducible and serializable
again = realize_channel(topo, seed=7)
print(f"\nsame seed reproduces gains: {np.array_equal(chan.gains, again.gains)}")
restored = topology_from_json(topology_to_json(topo))
print(f"topology JSON round-trips: {np.array_equal(restored.sensors, topo.sensors)}")

# the fading factor really is unit-mean
big = generate_topology(1000, 100, 5.0, seed=1)
draws = realize_channel(big, seed=2)
print(f"mean fading over {draws.fading.size} draws: {draws.fading.mean():.4f}")
print(f"shadowing std: {draws.shadowing_db.std():.3f} dB")

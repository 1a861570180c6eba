#!/usr/bin/env python3
"""Building a TDMA frame.

Four sensors: one reports every subframe, three report every other subframe.
Slot prices are pinned directly (in milliseconds) so the scheduling logic is
easy to follow: only nodes 2 and 3 can share a slot, at 0.30 ms. The schedulers
see the rate model only through such a pricer; a TablePricer or a
ContinuousPricer over a gain matrix would take the place of the FixedPricer.

Both heuristics first spread nodes over subframes (longest solo transmission
first), then group nodes of equal period inside each subframe. The frame's
quality is its maximum total active length; the exhaustive scheduler confirms
0.45 ms is optimal here.
"""

from ratesched import (
    FixedPricer,
    NodeSpec,
    exhaustive_schedule,
    schedule,
    sna_assign,
    validate_instance,
)

MS = 1e-3

periods = {1: 1, 2: 2, 3: 2, 4: 2}
controllers = {1: 0, 2: 0, 3: 1, 4: 2}
nodes = [
    NodeSpec(id=i, controller_id=controllers[i], packet_bits=100.0,
             period=periods[i], delay_bound=MS)
    for i in sorted(periods)
]
inst = validate_instance(nodes)

pricer = FixedPricer(inst, {
    (1,): 0.15 * MS,
    (2,): 0.20 * MS,
    (3,): 0.25 * MS,
    (4,): 0.30 * MS,
    (2, 3): 0.30 * MS,
})

print("subframe offsets chosen by sorted node assignment:")
print(f"  {sna_assign(pricer)}")

for strategy in ("sna-mla", "sna-mua"):
    frame, metrics = schedule(pricer, strategy)
    print(f"\n{strategy}: max active {metrics.max_active / MS:.2f} ms")
    for m, groups in enumerate(frame.groups):
        slots = ", ".join(f"{ids} @ {alloc.slot / MS:.2f} ms" for ids, alloc in groups)
        print(f"  subframe {m}: {slots}  "
              f"(total {metrics.active_lengths[m] / MS:.2f} ms)")

_, optimum = exhaustive_schedule(pricer)
print(f"\nexhaustive optimum: {optimum.max_active / MS:.2f} ms")

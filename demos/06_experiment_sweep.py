#!/usr/bin/env python3
"""A small end-to-end sweep.

For each sensor count, 40 random topologies are scheduled under the
continuous model and both discrete ladders, with both heuristics. Each
schedule's maximum total active length is normalized by a continuous-rate
reference: the exhaustive optimum where tractable, otherwise the better
continuous heuristic. Seeds where any configured run is infeasible (for
example a node that cannot reach the 10 dB floor of the 4-level ladder) drop
out of every average. The first dropped seed is then replayed alone with
``draw_seed``, and the pricer of the model that dropped it says which node
it is.

The same sweep is available from the command line:

    ratesched-sim --config config.json --out results.csv
"""

from ratesched import (
    ContinuousPricer,
    ExperimentConfig,
    InfeasibleInstanceError,
    TablePricer,
    disc4_table,
    disc8_table,
    draw_seed,
    emit_results,
    run_experiment,
    validate_instance,
)

cfg = ExperimentConfig.from_dict({
    "n_sensors": [4, 6],
    "n_controllers": 3,
    "density": 5.0,
    "seeds": 40,
    "master_seed": 11,
    "rate_models": ["cont", "disc4", "disc8"],
    "strategies": ["sna-mla", "sna-mua"],
})

results = run_experiment(cfg)

print(f"{'n':>3} {'strategy':>8} {'model':>6} {'seeds':>5} {'mean norm':>10} {'std':>7}")
for row in results.rows:
    print(f"{row['value']:>3} {row['strategy'][4:]:>8} {row['rate_model']:>6} "
          f"{row['seed_count']:>5} {row['mean_norm']:>10.4f} {row['std_norm']:>7.4f}")

print("\nreference used per sweep point:")
for (var, value), counts in results.reference_counts.items():
    print(f"  {var}={value}: {counts}")

record = next(r for r in results.per_seed if r["dropped"] not in (None, "numerical"))
model = record["dropped"]
point = cfg.sweep()[1].index(record["value"])
nodes, gains = draw_seed(cfg, point, record["seed_index"])
inst = validate_instance(nodes)
if model == "cont":
    pricer = ContinuousPricer(inst, gains, cfg.radio)
else:
    ladder = {"disc4": disc4_table, "disc8": disc8_table}[model](cfg.radio.bandwidth_hz)
    pricer = TablePricer(inst, gains, ladder, cfg.radio)
try:
    pricer.offsets()
except InfeasibleInstanceError as exc:
    # the pricer knows no model name; the sweep charges the drop to this one
    print(f"\nseed {record['seed_index']} at {record['sweep_var']}={record['value']}, "
          f"replayed: {InfeasibleInstanceError(exc.node_id, model)}, {exc.reason.name}")
    if (exc.node_id, exc.reason.name) != (record["node"], record["reason"]):
        raise SystemExit(f"the sweep dropped node {record['node']} for {record['reason']}")
else:
    raise SystemExit(f"seed dropped under {model}, but its {model} pricer finds every solo")

emit_results(results, "sweep_results.csv")
print("\nwrote sweep_results.csv")

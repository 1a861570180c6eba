"""Check that two revisions give byte-identical sweep results.

Run from the repository root, for example:

    python3 tools/same_results.py --base HEAD~1 --head HEAD

Both revisions are exported with ``bench_pairs.export``, so only committed
files are compared. In each tree the ratesched CLI (``ratesched.cli.main``,
under ``DRIVER``) runs every workload config of ``perfbench/workloads.json``
(the head tree's file, for both sides) twice: as it is, where no energy
budget binds, and with ``energy_scale`` 1e-4 (files named
``<workload>-energy1e-4-<seed>``), where checks end in ``INFEASIBLE_ENERGY``
and seeds are dropped for it. Each runs at four master seeds: the
workload's default and held-out seeds, 1001 and 20262, each written into
the sweep's config file as ``master_seed``. Each sweep leaves three files:
its CSV; a ``.refs`` file with the CLI's exit code and its stderr, which
prints every sweep point's ``reference_counts`` (reference kinds,
infeasible seeds per rate model, numerical drops); and a ``.per_seed.json``
file with the sweep's ``ExperimentResults.per_seed`` records. Those hold each
seed's ``max_active``, the node and reason of each drop and each pricer's
work counts, so a change to one seed's result, to why it drops or to the
checks, prices or allocator calls it takes shows there, even where the
CSV's means round it away. ``DRIVER`` records ``per_seed`` as
``run_experiment`` returns it to the CLI. The ``EDGE_CONFIGS`` then run the
same way, each at ``EDGE_SEED`` alone.

The tool judges results and reports work. Every file is reported against
the other side as ``same``, ``diff``, or, for a ``.per_seed.json`` file
whose records are equal once their ``counts`` are removed, ``moved``: the
results agree and only the work differs. The line before the last gives the
number of sweeps whose work moved, and the last ``N of M files differ``,
where a moved file is not counted as differing. The exit status is 1 if any
file differs, and 2, before any tree is exported, if ``--base`` or
``--head`` names no commit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import commits, export

EXTRA_SEEDS = (1001, 20262)

# At this energy_scale the per-packet energy budgets of the default radio and
# periods bind; at 1.0 they never do.
BINDING_ENERGY_SCALE = 1e-4

# Inputs at the edges of the seed draw and of the solo triage, beyond the
# workloads': one node and one controller; a density sweep; a density at
# which some seeds' gains underflow to 0, so that they are dropped as
# numerical; period and packet sets of integers beyond int64; table models
# alone and in reverse order, so that the model a drop is charged to shows;
# a fixed delay bound short enough to shut the lowest ladder levels out; and
# energy budgets on which every continuous solo binds, without a guess.
EDGE_CONFIGS = {
    "edge-one-node": {"n_sensors": 1, "n_controllers": 1, "seeds": 20},
    "edge-density-sweep": {"n_sensors": 6, "density": [1.0, 5.0, 50.0], "seeds": 10},
    "edge-underflow": {"n_sensors": 4, "density": [5.0, 1e-180], "seeds": 20},
    "edge-huge-integers": {
        "n_sensors": 4,
        "seeds": 20,
        "period_set": [2**70, 2**72],
        "packet_bits_set": [50, 2**70],
    },
    "edge-tables-reversed": {"n_sensors": [4, 8], "seeds": 20, "rate_models": ["disc8", "disc4"]},
    "edge-short-delay": {"n_sensors": 4, "seeds": 20, "delay_rule": 2e-7},
    "edge-energy-1e-6": {
        "n_sensors": [2, 6], "seeds": 20, "energy_scale": 1e-6, "rate_models": ["cont"],
    },
}
EDGE_SEED = 20262

# ``python -c DRIVER PER_SEED_PATH CLI_ARGS...``: the CLI, with every
# ``run_experiment`` result's ``per_seed`` written to PER_SEED_PATH as JSON.
DRIVER = """
import json, sys
from ratesched import cli
run = cli.run_experiment
def recording(cfg):
    results = run(cfg)
    with open(sys.argv[1], "w") as fh:
        json.dump(results.per_seed, fh, indent=1)
    return results
cli.run_experiment = recording
sys.exit(cli.main(sys.argv[2:]))
"""


def sweep(tree: Path, workload: str, config: dict, seed: int) -> tuple[Path, Path, Path]:
    """Run one workload sweep in ``tree``; its CSV, ``.refs`` and
    ``.per_seed.json`` paths."""
    out = tree / "same-results"
    out.mkdir(exist_ok=True)
    config_path = out / f"{workload}-{seed}.json"
    config_path.write_text(json.dumps(dict(config, master_seed=seed)))
    csv_path = out / f"{workload}-{seed}.csv"
    per_seed_path = out / f"{workload}-{seed}.per_seed.json"
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(per_seed_path), "--config", str(config_path),
         "--out", str(csv_path)],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True,
    )
    refs_path = out / f"{workload}-{seed}.refs"
    refs_path.write_text(f"exit {proc.returncode}\n{proc.stderr}")
    return csv_path, refs_path, per_seed_path


def contents(path: Path) -> bytes | None:
    # the CLI writes no CSV when every seed is infeasible (exit 3), and no
    # sweep runs on a config error (exit 2)
    return path.read_bytes() if path.exists() else None


def results_of(data: bytes) -> str:
    """A ``.per_seed.json`` file's records with their ``counts`` removed, as
    JSON text, so that NaN compares equal to itself."""
    records = json.loads(data)
    return json.dumps([{k: v for k, v in r.items() if k != "counts"} for r in records])


def verdict(base_path: Path, head_path: Path) -> str:
    """``same``, ``moved`` (per-seed records that differ in their counts
    alone) or ``diff``."""
    base, head = contents(base_path), contents(head_path)
    if base == head:
        return "same"
    if head_path.name.endswith(".per_seed.json") and None not in (base, head):
        if results_of(base) == results_of(head):
            return "moved"
    return "diff"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision of the base side")
    parser.add_argument("--head", default="HEAD", help="revision of the head side")
    args = parser.parse_args(argv)
    revs = commits(parser, args)

    differ = files = moved = 0
    with tempfile.TemporaryDirectory(prefix="same-results-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for side, rev in revs.items():
            export(rev, trees[side])
        workloads = json.loads((trees["head"] / "perfbench" / "workloads.json").read_text())
        runs = []
        for workload, spec in workloads.items():
            variants = {
                workload: spec["config"],
                f"{workload}-energy1e-4": dict(spec["config"], energy_scale=BINDING_ENERGY_SCALE),
            }
            for name, config in variants.items():
                for seed in (spec["default_seed"], spec["held_out_seed"], *EXTRA_SEEDS):
                    runs.append((name, config, seed))
        runs += [(name, config, EDGE_SEED) for name, config in EDGE_CONFIGS.items()]
        for name, config, seed in runs:
            base = sweep(trees["base"], name, config, seed)
            head = sweep(trees["head"], name, config, seed)
            for base_path, head_path in zip(base, head):
                word = verdict(base_path, head_path)
                differ += word == "diff"
                moved += word == "moved"
                files += 1
                print(word, head_path.name, flush=True)
    print(f"work moved in {moved} of {len(runs)} sweeps")
    print(f"{differ} of {files} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Interleaved timing of two revisions' sweeps in one process.

Run from the repository root, for example:

    python3 tools/ab_sweeps.py --base HEAD~1 --head HEAD --reps 14 --sweeps 4

Both revisions are exported with ``bench_pairs.export``, so only committed
files are timed. Each tree's ``ratesched`` package is imported under its own
name (``ratesched_base``, ``ratesched_head``), which works because the
package imports its own modules only relatively. For every workload of the
head tree's ``perfbench/workloads.json``, each rep runs a set of
``--sweeps`` sweeps on each side, at master seeds ``seed * 1000 + r`` for
r = 0, 1, ... as perfbench numbers them, and the side that runs first
alternates from one rep to the next. The two sides share the process and
alternate every set, so a drift of the machine's speed falls on both alike;
a perfbench run, by contrast, times only about a second of sweeps.

After the timed reps, each side runs one more set, untimed, that counts
its ``check_targets`` calls (those of ``lttf`` and ``continuous_optimal``),
its ``feasibility.min_power_vector`` calls (one per check, plus any made
bare), its ``scheduling._candidates`` calls (one per enumerated
population or period class) and its calls of the ``scheduling._ALLOCATORS``
(one per population that ``schedule`` allocates), so that a speed-up is
reported next to the work it saved, a change that trades checks for bare
kernel calls shows both, and a grouping-layer change shows the
enumerations and the allocated populations it saved. Each side then counts
its checks in the same set once more at ``energy_scale``
``same_results.BINDING_ENERGY_SCALE``, where energy budgets bind and
continuous solos take other paths than at the workloads' own scale.
Each count is the ``call_count`` of a ``mock.Mock(wraps=...)`` spy that
``mock.patch`` puts at the counted name for the set, the way the tests
count library calls. The check, kernel and allocator counts equal
perfbench's traced ``feasibility.check.calls``,
``feasibility.kernel.calls`` and ``scheduling.mla.calls`` plus
``scheduling.mua.calls`` on the same sweeps.

Per workload it prints the median over reps of base time / head time, the
reps the head side won, each side's median set time, check, kernel,
candidate and allocator counts, its checks at the binding energy scale
(``checks@1e-4``), the base side's set-time quartiles, whether the head
side passes ``bench_pairs.gain_rule`` on set time (it won at least nine
tenths of the reps, and the medians differ by more than the base side's
interquartile range), and whether both sides gave the same rows and
per-seed records in every set.
The exit status is 1 if any set differed. It is 2, before any sweep runs,
for fewer than two reps (which give no quartiles), fewer than one sweep, a
seed below 0 or a workload that the head tree does not define; only the
last needs the trees exported first.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from bench_pairs import export, gain_rule, spread
from same_results import BINDING_ENERGY_SCALE

SIDES = ("base", "head")


def load(src: Path, name: str):
    """The ``ratesched`` package under ``src``, imported as ``name``."""
    package = src / "ratesched"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def compare(packages: dict, config: dict, seed: int, reps: int, sweeps: int) -> dict:
    """Alternate ``reps`` sets of ``sweeps`` sweeps of ``config`` between the
    ``base`` and ``head`` packages: each side's seconds per set, and its
    ``check_targets``, kernel, ``_candidates`` and allocator calls in one
    untimed set (``count_calls``), its ``check_targets`` calls in that set
    at ``BINDING_ENERGY_SCALE``, the median base/head ratio, the head
    side's wins, each side's ``spread`` of set times, ``gain_rule`` on them
    and whether every set's results were the same on both sides."""

    def configs(package, **fields):
        return [
            package.ExperimentConfig.from_dict(dict(config, master_seed=seed * 1000 + r, **fields))
            for r in range(sweeps)
        ]

    cfgs = {side: configs(packages[side]) for side in SIDES}
    seconds = {side: [] for side in SIDES}
    same = True
    for rep in range(reps):
        results = {}
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            run = packages[side].run_experiment
            start = time.perf_counter()
            results[side] = [run(cfg) for cfg in cfgs[side]]
            seconds[side].append(time.perf_counter() - start)
        same &= all(
            (a.rows, a.per_seed) == (b.rows, b.per_seed)
            for a, b in zip(results["base"], results["head"])
        )
    ratios = [b / h for b, h in zip(seconds["base"], seconds["head"])]
    head_wins = sum(r > 1.0 for r in ratios)
    spreads = {side: spread(seconds[side]) for side in SIDES}
    counted = {side: count_calls(packages[side], cfgs[side]) for side in SIDES}
    binding = {}
    for side in SIDES:
        binding_cfgs = configs(packages[side], energy_scale=BINDING_ENERGY_SCALE)
        binding[side] = count_calls(packages[side], binding_cfgs)
    return {
        "seconds": seconds,
        "checks": {side: counted[side][0] for side in SIDES},
        "binding_checks": {side: binding[side][0] for side in SIDES},
        "kernel": {side: counted[side][1] for side in SIDES},
        "candidates": {side: counted[side][2] for side in SIDES},
        "allocators": {side: counted[side][3] for side in SIDES},
        "ratio": statistics.median(ratios),
        "head_wins": head_wins,
        "reps": reps,
        "spread": spreads,
        "gain_rule": gain_rule(head_wins, reps, spreads["base"], spreads["head"]),
        "same_results": same,
    }


def count_calls(package, cfgs) -> tuple[int, int, int, int]:
    """The ``check_targets`` calls that ``package``'s subset solvers make in
    one set of sweeps of ``cfgs``, the ``feasibility.min_power_vector``
    calls of that set, made by those checks or bare, its
    ``scheduling._candidates`` calls and its calls of the allocators in
    ``scheduling._ALLOCATORS``, each read from a ``mock.Mock(wraps=...)``
    spy that the ``with`` block removes again, also when a sweep raises."""
    allocation, feasibility, scheduling = (
        package.allocation, package.feasibility, package.scheduling
    )
    allocators = {name: mock.Mock(wraps=fn) for name, fn in scheduling._ALLOCATORS.items()}
    with (
        mock.patch.object(allocation, "check_targets", wraps=allocation.check_targets) as checks,
        mock.patch.object(
            feasibility, "min_power_vector", wraps=feasibility.min_power_vector
        ) as kernel,
        mock.patch.object(scheduling, "_candidates", wraps=scheduling._candidates) as candidates,
        mock.patch.dict(scheduling._ALLOCATORS, allocators),
    ):
        for cfg in cfgs:
            package.run_experiment(cfg)
    allocated = sum(spy.call_count for spy in allocators.values())
    return checks.call_count, kernel.call_count, candidates.call_count, allocated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision of the base side")
    parser.add_argument("--head", default="HEAD", help="revision of the head side")
    parser.add_argument("--reps", type=int, default=14, help="sets per side and workload")
    parser.add_argument("--sweeps", type=int, default=4, help="sweeps per set")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of the sweeps")
    parser.add_argument("--workload", action="append", help="workload to time (default: all)")
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2, for quartiles")
    if args.sweeps < 1:
        parser.error("--sweeps must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    differ = False
    with tempfile.TemporaryDirectory(prefix="ab-sweeps-") as tmp:
        packages = {}
        for side in SIDES:
            tree = Path(tmp) / side
            export(getattr(args, side), tree)
            packages[side] = load(tree / "src", f"ratesched_{side}")
        workloads = json.loads((Path(tmp) / "head" / "perfbench" / "workloads.json").read_text())
        unknown = sorted(set(args.workload or ()) - workloads.keys())
        if unknown:
            parser.error(f"--workload {', '.join(unknown)} not in the head tree's workloads")
        for name in args.workload or workloads:
            out = compare(packages, workloads[name]["config"], args.seed, args.reps, args.sweeps)
            differ |= not out["same_results"]
            base, head = out["spread"]["base"], out["spread"]["head"]
            print(
                f"{name}: base/head {out['ratio']:.3f}, head won {out['head_wins']} of "
                f"{out['reps']}, median set {base['median']:.3f} s / {head['median']:.3f} s, "
                f"checks {out['checks']['base']} / {out['checks']['head']}, "
                f"kernel {out['kernel']['base']} / {out['kernel']['head']}, "
                f"candidates {out['candidates']['base']} / {out['candidates']['head']}, "
                f"allocator {out['allocators']['base']} / {out['allocators']['head']}, "
                f"checks@1e-4 {out['binding_checks']['base']} / {out['binding_checks']['head']}, "
                f"base quartiles {base['q1']:.3f} / {base['median']:.3f} / {base['q3']:.3f} s, "
                f"gain rule {'yes' if out['gain_rule'] else 'no'}, "
                f"{'same' if out['same_results'] else 'DIFFERENT'} results",
                flush=True,
            )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

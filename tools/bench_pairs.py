"""Paired perfbench runs of two commits, summarised as one BENCH_<n>.json.

Run from the repository root, for example:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --seeds 601-610 \\
        --trace-seed 601 --out BENCH_6.json

The committed files of each revision are exported with ``git archive`` into
a temporary directory, so uncommitted edits are never measured and both
sides are built from source the way the benchmark builds them. For every
workload of ``BENCHMARK.json`` and every seed, its benchmark command runs
once in each tree with ``--trace 0`` for its ``run_seconds``; the side that
runs first alternates from one seed to the next, so drift of the machine's
speed falls on both sides alike.
With ``--trace-seed`` each tree also makes one ``--trace 1`` run per
workload, and every metric it prints is kept, including those that are not
``per_layer`` metrics of ``BENCHMARK.json`` (``scheduling.exhaustive.self_s``).
Every printed metric whose unit is ``count`` (``scheduling.mla.calls`` among
them) is then compared between the two traced runs, and ``counts_moved``
maps each one that differs to its ``[base, head]`` values; it is empty when
both sides did the same work.

The summary holds, per workload and end-to-end metric, each side's runs,
median and quartiles (``statistics.quantiles``, inclusive method), the
number of pairs the head side won (ties count for neither), the ratio of the
medians and ``gain_rule``: the head won at least nine tenths of the pairs and
the medians differ by more than the base side's interquartile range.
Every run's ``correct``, ``failed``, ``cpu_per_wall`` and ``max_rss_mb``
(``run_bench``) are kept; once the summary is written,
the exit status is 1 if a timed or traced run was incorrect or failed a seed.

Fewer than two seeds, a reversed seed range, a ``--trace-seed`` below 0 or
a ``--base`` or ``--head`` that names no commit exit with status 2 before
any tree is exported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# What the summary keeps of every run besides its metrics.
RUN_KEYS = ("correct", "failed", "attempted", "cpu_per_wall", "max_rss_mb")


def commits(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict[str, str]:
    """``{"base": hash, "head": hash}``: the commits that ``args.base`` and
    ``args.head`` name. A revision that names no commit ends the run through
    ``parser.error`` (exit status 2), so call this before any export."""
    revs = {}
    for side in ("base", "head"):
        rev = getattr(args, side)
        proc = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            parser.error(f"--{side} {rev!r} names no commit")
        revs[side] = proc.stdout.strip()
    return revs


def export(rev: str, dest: Path) -> None:
    """Committed files of ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def parse_seeds(text: str) -> list[int]:
    """``601-610`` or ``601,605,607`` (or a mix) as a list of ints.

    Raises ``argparse.ArgumentTypeError`` for a reversed range and for fewer
    than two seeds, which give no quartiles to summarise."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first, last = int(lo), int(hi or lo)
        if last < first:
            raise argparse.ArgumentTypeError(f"reversed seed range {part!r}")
        seeds.extend(range(first, last + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} names fewer than two seeds")
    return seeds


def run_bench(tree: Path, command: list, workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run in ``tree``: its final JSON line plus every printed
    ``name value unit`` line, as ``{name: value}`` under ``printed`` and
    ``{name: unit}`` under ``units``.

    Two figures come from the run's ``os.wait4`` usage, which covers the
    benchmark process and every process it reaped, such as a sweep's forked
    children: ``cpu_per_wall``, their CPU seconds per wall second of the run,
    and ``max_rss_mb``, the largest resident set of any one of them. The
    benchmark's own ``peak_rss_mb`` counts its process alone. On Linux both
    peaks start at that of the process that spawned the run, this one."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [*command, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree, stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = (f.read().decode(errors="replace") for f in (out, err))
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["cpu_per_wall"] = (usage.ru_utime + usage.ru_stime) / wall
    result["max_rss_mb"] = usage.ru_maxrss / 1024.0
    printed, units = {}, {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 2:
            try:
                printed[fields[0]] = float(fields[1])
            except ValueError:
                continue
            units[fields[0]] = " ".join(fields[2:])
    result["printed"], result["units"] = printed, units
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def gain_rule(wins: int, pairs: int, base: dict, head: dict) -> bool:
    """Whether the head side won at least nine tenths of ``pairs`` and the
    medians of its and the base side's ``spread`` differ by more than the
    base side's interquartile range."""
    return wins >= 0.9 * pairs and abs(head["median"] - base["median"]) > base["q3"] - base["q1"]


def summarise(metric: dict, pairs: list[dict]) -> dict:
    """Both sides of one end-to-end metric over the pairs of one workload."""
    name, higher = metric["name"], metric["better"] == "higher"
    base = [p["base"]["metrics"][name]["value"] for p in pairs]
    head = [p["head"]["metrics"][name]["value"] for p in pairs]
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    b, h = spread(base), spread(head)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "base": b,
        "head": h,
        "head_wins": wins,
        "pairs": len(pairs),
        "median_ratio": h["median"] / b["median"],
        "gain_rule": gain_rule(wins, len(pairs), b, h),
    }


def counts_moved(base: dict, head: dict) -> dict:
    """``{name: [base, head]}`` for every metric whose unit is ``count`` on
    either of the two traced runs ``base`` and ``head`` (``run_bench``
    results) and whose printed values differ; one printed on one side only
    is None on the other."""
    moved = {}
    for name in sorted(base["units"].keys() | head["units"].keys()):
        if "count" in (base["units"].get(name), head["units"].get(name)):
            values = [run["printed"].get(name) for run in (base, head)]
            if values[0] != values[1]:
                moved[name] = values
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="revision of the base side")
    parser.add_argument("--head", default="HEAD", help="revision of the head side")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="at least two seeds, e.g. 601-610")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one --trace 1 run per side and workload")
    parser.add_argument("--out", required=True, help="summary JSON file")
    args = parser.parse_args(argv)
    if args.trace_seed is not None and args.trace_seed < 0:
        parser.error("--trace-seed must be at least 0")
    revs = commits(parser, args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = args.seeds
    summary = {
        "base": revs["base"],
        "head": revs["head"],
        "command": bench["command"],
        "seconds": seconds,
        "seeds": seeds,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        for workload in workloads:
            pairs = []
            for j, seed in enumerate(seeds):
                order = ("base", "head") if j % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], bench["command"], workload, seed,
                                           seconds, 0)
                    pair[side].pop("printed")
                pairs.append(pair)
                print(workload, seed, *(
                    f"{side} {pair[side]['metrics']['seeds_per_s']['value']:.1f}"
                    for side in ("base", "head")), file=sys.stderr, flush=True)
            entry = {
                "end_to_end": {m["name"]: summarise(m, pairs) for m in bench["end_to_end"]},
                "runs": [
                    {"seed": p["seed"], "first": p["first"],
                     **{side: {key: p[side][key] for key in RUN_KEYS} for side in revs}}
                    for p in pairs
                ],
            }
            if args.trace_seed is not None:
                entry["trace"] = {"seed": args.trace_seed}
                traced = {}
                for side in revs:
                    traced[side] = run = run_bench(trees[side], bench["command"], workload,
                                                   args.trace_seed, seconds, 1)
                    entry["trace"][side] = dict(run["printed"], **{k: run[k] for k in RUN_KEYS})
                entry["counts_moved"] = counts_moved(traced["base"], traced["head"])
            summary["workloads"][workload] = entry
            Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    entries = summary["workloads"].values()
    runs = [*(pair[side] for entry in entries for pair in entry["runs"] for side in revs),
            *(entry["trace"][side] for entry in entries if "trace" in entry for side in revs)]
    return 0 if all(run["correct"] and run["failed"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

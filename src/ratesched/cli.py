"""Command-line experiment runner.

Reads a JSON config, the one source of settings (the master seed too), runs
the sweep and writes aggregated results. Exit codes: 0 on success, 2 on
configuration errors or an unwritable output path (checked first too), 3,
writing nothing, when every seed of every sweep point was unusable
(infeasible, or dropped on a NumericalError).
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiment import ConfigError, ExperimentConfig, emit_results, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratesched-sim",
        description="Run seeded TDMA scheduling experiments over random topologies.",
    )
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out) or not os.path.isdir(out_dir):
        print(f"cannot write {args.out}: a directory, or in a missing one", file=sys.stderr)
        return 2
    results = run_experiment(cfg)
    for (var, value), counts in results.reference_counts.items():
        causes = [f"{model} {c}" for model, c in counts["infeasible_by_model"].items()]
        if counts["numerical"]:
            causes.append(f"numerical {counts['numerical']}")
        split = f" ({', '.join(causes)})" if causes else ""
        print(
            f"{var}={value}: exhaustive reference on {counts['exhaustive']} seeds, "
            f"heuristic reference on {counts['heuristic']}, "
            f"{counts['infeasible']} infeasible{split}",
            file=sys.stderr,
        )
    if results.all_infeasible:
        print("all seeds infeasible", file=sys.stderr)
        return 3
    try:
        emit_results(results, args.out, args.format)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

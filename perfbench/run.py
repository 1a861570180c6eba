"""Seeded-sweep benchmark of ratesched: throughput, set-up, memory and layers.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

A run sweeps the named workload (``perfbench/workloads.json``) with
``run_experiment``: sweep r uses master seed ``seed * 1000 + r``, and the
number of sweeps is fixed by ``--seconds`` and the workload's nominal sweep
time, so that a run does the same work whatever the speed of the code under
test. The load is a closed loop in one process: each sweep, and each seed in
it, starts after the previous one finishes.

With ``--trace 0`` the sweeps run untraced and the run reports the end-to-end
metrics; with ``--trace 1`` untraced and traced sweeps of the same seeds
alternate and the run reports the per-layer metrics of ``perfbench/layers.py``.
Either way it checks the output:

* every row of every sweep is consistent (seed counts, finite norms);
* the sweep at the workload's default seed matches the committed
  ``perfbench/expected/<workload>.csv`` (integer columns exactly, float columns
  within ``REL_TOL``);
* with ``--trace 1``, every traced sweep writes the same bytes as the untraced
  sweep of the same seed; tracing sweep 0 again in the same process gives the
  same bytes and identical work counts; and ``python -m ratesched.cli`` on the
  default-seed config, a run of the same workload in a fresh process, exits 0
  and writes the same bytes as the library path.

Every line but the last is a report for people; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Artefacts (CSV files, the run report, spans) go to
``perfbench/out/``.
"""

import os

# One BLAS thread: the sweep is single-threaded Python over tiny matrices, and
# OpenBLAS would otherwise start one thread per core on its own.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import io
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Largest relative deviation of a float result column from the expected CSV
# that still counts as the same result.
REL_TOL = 1e-6
# Fewest fresh interpreters started to time set-up; the median is reported.
MIN_SETUP_PROBES = 7
SUBPROCESS_TIMEOUT_S = 150

FLOAT_COLUMNS = ("mean_norm", "std_norm", "mean_max_active_s")
INT_COLUMNS = ("seed_count", "infeasible_count")
KEY_COLUMNS = ("sweep_var", "value", "strategy", "rate_model")


def load_workloads() -> dict:
    with open(BENCH_DIR / "workloads.json") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    """``BENCHMARK.json``: run length and the metrics the last line reports."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """Book-keeping of one benchmark run: attempted and failed seeds, problems."""

    def __init__(self, workload: str, spec: dict, seed: int):
        self.workload = workload
        self.spec = spec
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        cfg = self.config(seed)
        self.seeds_per_sweep = cfg.seeds * len(cfg.sweep()[1])

    def config(self, master_seed: int):
        from ratesched.experiment import ExperimentConfig

        return ExperimentConfig.from_dict(dict(self.spec["config"], master_seed=master_seed))

    def fail(self, seeds: int, problem: str) -> None:
        """Count ``seeds`` attempted seeds as failed (never more than attempted)."""
        self.failed = min(self.attempted, self.failed + seeds)
        self.problems.append(problem)

    def sweep(self, master_seed: int, label: str):
        """One ``run_experiment`` call: (csv bytes or None, wall seconds)."""
        from ratesched import experiment

        cfg = self.config(master_seed)
        n = self.seeds_per_sweep
        self.attempted += n
        t0 = time.perf_counter()
        try:
            results = experiment.run_experiment(cfg)
        except Exception:
            wall = time.perf_counter() - t0
            self.fail(n, f"{label}: run_experiment raised\n{traceback.format_exc()}")
            return None, wall
        wall = time.perf_counter() - t0
        path = OUT / f"{self.workload}-{label}.csv"
        experiment.emit_results(results, path)
        data = path.read_bytes()
        bad = row_problems(data, cfg.seeds)
        if bad:
            self.fail(n, f"{label}: inconsistent rows: {bad}")
        return data, wall

    def same_bytes(self, a, b, seeds: int, what: str) -> None:
        if a is not None and b is not None and a != b:
            self.fail(seeds, f"{what}: CSV bytes differ")


def parse_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def row_problems(data: bytes, seeds: int) -> list[str]:
    """Consistency of every result row, valid for any seed."""
    out = []
    for row in parse_rows(data):
        where = "/".join(row[c] for c in KEY_COLUMNS)
        kept, infeasible = int(row["seed_count"]), int(row["infeasible_count"])
        if kept + infeasible != seeds:
            out.append(f"{where}: {kept} kept + {infeasible} infeasible != {seeds} seeds")
        for col in FLOAT_COLUMNS:
            value = float(row[col])
            if kept and not (math.isfinite(value) and value >= 0.0):
                out.append(f"{where}: {col}={value}")
            if not kept and not math.isnan(value):
                out.append(f"{where}: {col}={value} without kept seeds")
        if kept and float(row["mean_max_active_s"]) <= 0.0:
            out.append(f"{where}: non-positive mean_max_active_s")
    return out


def compare_expected(data: bytes, expected: bytes) -> tuple[list[str], float]:
    """Problems against the expected CSV and the largest float relative error."""
    got, want = parse_rows(data), parse_rows(expected)
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"], math.inf
    problems, worst = [], 0.0
    for g, w in zip(got, want):
        where = "/".join(w[c] for c in KEY_COLUMNS)
        if any(g[c] != w[c] for c in KEY_COLUMNS + INT_COLUMNS):
            problems.append(f"{where}: got {[g[c] for c in KEY_COLUMNS + INT_COLUMNS]}")
            continue
        for col in FLOAT_COLUMNS:
            a, e = float(g[col]), float(w[col])
            if math.isnan(a) and math.isnan(e):
                continue
            err = abs(a - e) / abs(e) if e else abs(a)
            if math.isnan(err):
                err = math.inf
            worst = max(worst, err)
    if worst > REL_TOL:
        problems.append(f"float columns deviate by {worst:.3g} > {REL_TOL:g}")
    return problems, worst


def master_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def sweep_count(seconds: int, spec: dict) -> int:
    return max(1, round(seconds / spec["nominal_sweep_s"]))


def setup_probe(config_path: Path) -> float:
    """Wall time of a fresh interpreter importing ratesched and parsing and
    validating the workload config, i.e. everything before the first seed.

    The wait blocks in ``waitpid``: ``subprocess`` with a timeout polls at up
    to 50 ms intervals, which would quantise the time. An alarm kills a probe
    that hangs instead.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(SUBPROCESS_TIMEOUT_S)
    try:
        code = proc.wait()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def untraced_window(run: Run, sweeps: int, config_path: Path):
    """The timed sweeps, with set-up probes before, between and after them so
    that the set-up median samples the machine over the whole run.

    Returns the per-sweep walls, the seeds they completed and the probe times.
    """
    walls, done = [], 0
    probes = [setup_probe(config_path)]
    for r in range(sweeps):
        data, wall = run.sweep(master_seed(run.seed, r), f"sweep{r}")
        if data is not None:
            walls.append(wall)
            done += run.seeds_per_sweep
        probes.append(setup_probe(config_path))
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(setup_probe(config_path))
    return walls, done, probes


def traced_window(run: Run, sweeps: int):
    """Untraced and traced sweeps of the same seeds, alternating."""
    import layers

    tracers, untraced, traced_walls = [], [], []
    n = run.seeds_per_sweep
    for r in range(sweeps):
        plain, wall_u = run.sweep(master_seed(run.seed, r), f"sweep{r}")
        tracer = layers.Tracer()
        with layers.traced(tracer):
            data, wall_t = run.sweep(master_seed(run.seed, r), f"sweep{r}-traced")
        run.same_bytes(plain, data, n, f"traced sweep {r}")
        if plain is not None and data is not None:
            untraced.append(wall_u)
            traced_walls.append(wall_t)
            tracers.append(tracer)
    again = layers.Tracer()
    with layers.traced(again):
        data, _ = run.sweep(master_seed(run.seed, 0), "sweep0-traced-repeat")
    if tracers and data is not None:
        first = layers.exact_counts(tracers[0], layers.span_stats(tracers[0]))
        second = layers.exact_counts(again, layers.span_stats(again))
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            run.fail(n, f"work counts differ between two traced runs of sweep 0: {diff}")
    return tracers, sum(untraced), sum(traced_walls)


def check_default_seed(run: Run) -> tuple[bytes | None, float]:
    """Sweep at the workload's default seed against the expected CSV; returns
    its bytes and the largest relative error of a float column."""
    data, _ = run.sweep(run.spec["default_seed"], "default-seed")
    worst = math.inf
    expected_path = BENCH_DIR / "expected" / f"{run.workload}.csv"
    if data is not None:
        problems, worst = compare_expected(data, expected_path.read_bytes())
        if problems:
            run.fail(run.seeds_per_sweep, f"default-seed sweep vs {expected_path.name}: {problems}")
    return data, worst


def check_cli(run: Run, config_path: Path, library_bytes: bytes | None) -> None:
    """``python -m ratesched.cli`` on the default-seed config, in a fresh
    process, must exit 0 and write the bytes the library path wrote."""
    n = run.seeds_per_sweep
    cli_out = OUT / f"{run.workload}-cli.csv"
    cli_out.unlink(missing_ok=True)
    run.attempted += n
    cmd = [sys.executable, "-m", "ratesched.cli", "--config", str(config_path),
           "--out", str(cli_out)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        run.fail(n, f"ratesched.cli exited {proc.returncode}: {proc.stderr[-2000:]}")
    else:
        run.same_bytes(library_bytes, cli_out.read_bytes(), n, "ratesched.cli vs library")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas_info = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python_threads": threading.active_count(),
    }


def main(argv=None) -> int:
    workloads = load_workloads()
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"],
                        help="nominal length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ratesched" / "__init__.py").is_file():
        print(f"perfbench: no ratesched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ratesched

    if Path(ratesched.__file__).resolve().parent != (SRC / "ratesched").resolve():
        print(f"perfbench: imported ratesched from {ratesched.__file__}", file=sys.stderr)
        return 2

    spec = workloads[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    if seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, spec, seed)
    config_path = OUT / f"{args.workload}-config.json"
    config_path.write_text(json.dumps(dict(spec["config"], master_seed=spec["default_seed"])))
    sweeps = sweep_count(args.seconds, spec)
    report = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace}

    if args.trace == 0:
        walls, done, setup_times = untraced_window(run, sweeps, config_path)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _, worst = check_default_seed(run)
        values = {
            "seeds_per_s": (done / sum(walls) if walls else 0.0, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_share": (run.failed / run.attempted, "share"),
            "result_max_rel_err": (worst, "share"),
        }
        report.update(sweep_walls_s=walls, setup_times_s=setup_times)
        wanted = [m["name"] for m in bench["end_to_end"]]
    else:
        import layers

        tracers, untraced_wall, traced_wall = traced_window(run, math.ceil(sweeps / 3))
        values = layers.layer_metrics(tracers, untraced_wall, traced_wall)
        for name in spec["expect_zero"]:
            if values[name][0] != 0:
                run.problems.append(f"{name} = {values[name][0]}, expected 0")
        for name in layers.ALWAYS_WORKING + tuple(spec["expect_nonzero"]):
            if values[name][0] == 0:
                run.problems.append(f"{name} = 0, expected work")
        if tracers:
            layers.save_spans(OUT / f"{args.workload}-seed{seed}-spans.npz", tracers)
        data, worst = check_default_seed(run)
        check_cli(run, config_path, data)
        values["failed_share"] = (run.failed / run.attempted, "share")
        values["result_max_rel_err"] = (worst, "share")
        wanted = [m["name"] for m in bench["per_layer"]]

    for name, (value, unit) in values.items():
        print(f"{name:42s} {value!r:>24} {unit}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    correct = not run.problems
    report.update(environment=environment(),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in values.items()},
                  problems=run.problems, attempted=run.attempted, failed=run.failed)
    with open(OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

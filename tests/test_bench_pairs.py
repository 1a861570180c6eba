import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def test_parse_seeds():
    assert bench_pairs.parse_seeds("601-603,607") == [601, 602, 603, 607]
    assert bench_pairs.parse_seeds("5,9") == [5, 9]
    # a reversed range, one seed, or none gives no quartiles to summarise
    for text in ("1601-1004", "1601", "1601-1601", "", "x"):
        with pytest.raises((bench_pairs.argparse.ArgumentTypeError, ValueError)):
            bench_pairs.parse_seeds(text)


def test_bad_seeds_exit_2_before_any_export(tmp_path, monkeypatch, capsys):
    def no_export(rev, dest):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    for text in ("1601-1004", "1601"):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["--seeds", text, "--out", str(tmp_path / "b.json")])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_negative_trace_seed_exits_2_before_any_export(tmp_path, monkeypatch, capsys):
    # perfbench refuses --seed -1, which would only show after every timed
    # pair of the first workload had run
    def no_export(rev, dest):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--seeds", "1-2", "--trace-seed", "-1",
                          "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2 and "--trace-seed" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


# a benchmark command whose runs report (correct, failed) by their --trace,
# (True, 0) for a --trace it is not given
FAKE_BENCH = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
correct, failed = {outcomes}.get(args["--trace"], (True, 0))
print(json.dumps({{"correct": correct, "attempted": 4, "failed": failed,
                  "metrics": {{"seeds_per_s": {{"value": float(args["--seed"])}}}}}}))
"""


@pytest.mark.parametrize("side, outcomes, status", [
    ("head", {}, 0),
    ("head", {"0": (False, 0)}, 1),
    ("head", {"1": (True, 1)}, 1),
    ("head", {"0": (True, 1)}, 1),
    ("head", {"1": (False, 0)}, 1),
    ("base", {"0": (False, 0)}, 1),
], ids=["all-correct", "timed-run-incorrect", "traced-run-failed-a-seed",
        "timed-run-failed-a-seed", "traced-run-incorrect", "base-run-incorrect"])
def test_incorrect_run_exits_1_after_the_summary(tmp_path, monkeypatch, side, outcomes, status):
    # perfbench exits 0 with "correct": false or failed seeds, and the
    # medians of such runs summarise wrong outputs; only the runs of
    # ``side`` report ``outcomes``
    metric = {"name": "seeds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench.py"], "run_seconds": 1,
        "workloads": [{"name": "w"}], "end_to_end": [metric]}))
    revs = {"a": "base", "b": "head"}

    def fake_export(rev, dest):
        dest.mkdir()
        bad = outcomes if revs[rev] == side else {}
        (dest / "bench.py").write_text(FAKE_BENCH.format(outcomes=bad))

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", fake_export)
    out = tmp_path / "b.json"
    assert bench_pairs.main(["--base", "a", "--head", "b", "--seeds", "1-2",
                             "--trace-seed", "3", "--out", str(out)]) == status
    entry = json.loads(out.read_text())["workloads"]["w"]
    for name in revs.values():
        timed, traced = (outcomes.get(t, (True, 0)) if name == side else (True, 0)
                         for t in ("0", "1"))
        assert [(run[name]["correct"], run[name]["failed"]) for run in entry["runs"]] == [timed] * 2
        assert (entry["trace"][name]["correct"], entry["trace"][name]["failed"]) == traced
        for run in [entry["trace"][name]] + [run[name] for run in entry["runs"]]:
            assert run["cpu_per_wall"] > 0 and run["max_rss_mb"] > 0


def traced_run(**metrics):
    """A ``run_bench`` result that printed ``metrics``, each ``(value, unit)``."""
    return {"printed": {k: float(v) for k, (v, _) in metrics.items()},
            "units": {k: u for k, (_, u) in metrics.items()}}


def test_counts_moved_compares_every_printed_count():
    # the allocator call counts are not per_layer metrics of BENCHMARK.json,
    # yet a grouping-layer change shows in them; times and shares that move
    # are not counts, and a count on one side only is None on the other
    base = traced_run(**{
        "scheduling.mla.calls": (782, "count"),
        "scheduling.mua.calls": (782, "count"),
        "feasibility.check.calls": (892, "count"),
        "scheduling.mla.total_s": (0.5, "s"),
        "scheduling.price.hit_ratio": (0.7, "share"),
        "experiment.seed.calls": (300, "count"),
    })
    head = traced_run(**{
        "scheduling.mla.calls": (208, "count"),
        "scheduling.mua.calls": (208, "count"),
        "feasibility.check.calls": (892, "count"),
        "scheduling.mla.total_s": (0.2, "s"),
        "scheduling.price.hit_ratio": (0.9, "share"),
        "scheduling.sna_assign.calls": (300, "count"),
    })
    assert bench_pairs.counts_moved(base, head) == {
        "experiment.seed.calls": [300.0, None],
        "scheduling.mla.calls": [782.0, 208.0],
        "scheduling.mua.calls": [782.0, 208.0],
        "scheduling.sna_assign.calls": [None, 300.0],
    }
    assert bench_pairs.counts_moved(base, base) == {}


def test_run_bench_keeps_each_printed_unit(tmp_path):
    script = tmp_path / "bench.py"
    script.write_text(
        "print('scheduling.mla.calls 208 count')\n"
        "print('allocation.continuous.probes_per_call 1.5 count/call')\n"
        "print('PROBLEM: none')\n"
        "print('{\"correct\": true}')\n"
    )
    run = bench_pairs.run_bench(tmp_path, [sys.executable, str(script)], "w", 1, 1, 1)
    assert run["correct"] is True
    assert run["printed"] == {"scheduling.mla.calls": 208.0,
                              "allocation.continuous.probes_per_call": 1.5}
    assert run["units"] == {"scheduling.mla.calls": "count",
                            "allocation.continuous.probes_per_call": "count/call"}


# a benchmark command that forks a child, which holds 64 MB more than the
# command's own peak RSS and spins for 0.3 CPU seconds, and reports the
# child's CPU seconds and peak RSS and its own peak RSS. On Linux a process
# starts with the peak RSS of the process that spawned it, so the command's
# own peak can be the test process's.
FORKING_BENCH = """import json, os, resource, time
def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
own = peak_mb()
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    ballast = b"x" * (int(own + 64) << 20)
    t0 = time.process_time()
    while time.process_time() - t0 < 0.3:
        pass
    os.write(write, json.dumps([time.process_time(), peak_mb()]).encode())
    os._exit(0)
os.close(write)
child_cpu, child_rss = json.loads(os.read(read, 256))
os.waitpid(pid, 0)
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "child_cpu_s": {"value": child_cpu}, "child_rss_mb": {"value": child_rss},
    "peak_rss_mb": {"value": peak_mb()}}}))
"""


def test_run_bench_counts_the_cpu_and_memory_of_forked_children(tmp_path):
    # the benchmark's peak_rss_mb is its own process's; a forked child's
    # memory and CPU seconds show only in the run's wait4 usage
    script = tmp_path / "bench.py"
    script.write_text(FORKING_BENCH)
    t0 = time.perf_counter()
    run = bench_pairs.run_bench(tmp_path, [sys.executable, str(script)], "w", 1, 1, 0)
    wall = time.perf_counter() - t0
    metrics = {name: metric["value"] for name, metric in run["metrics"].items()}
    assert run["max_rss_mb"] >= metrics["child_rss_mb"] > metrics["peak_rss_mb"] + 60
    assert run["cpu_per_wall"] * wall >= metrics["child_cpu_s"] >= 0.3


def test_summarise_gain_rule():
    def summary(better, base, head):
        metric = {"name": "m", "unit": "u", "better": better, "bound": 0.25}
        pairs = [{side: {"metrics": {"m": {"value": v}}} for side, v in (("base", b), ("head", h))}
                 for b, h in zip(base, head)]
        return bench_pairs.summarise(metric, pairs)

    base = [100.0 + i for i in range(10)]  # quartiles 102.25 / 104.5 / 106.75
    # 10 of 10 wins, the medians 10 apart against a base IQR of 4.5
    out = summary("higher", base, [b + 10 for b in base])
    assert (out["head_wins"], out["pairs"], out["gain_rule"]) == (10, 10, True)
    assert (out["base"]["q1"], out["base"]["median"], out["base"]["q3"]) == (102.25, 104.5, 106.75)
    assert out["median_ratio"] == 114.5 / 104.5
    # 9 of 10 wins is enough with a gap wider than the IQR, not with one inside it
    assert summary("higher", base, [b + 10 for b in base[:9]] + [base[9] - 1])["gain_rule"]
    out = summary("higher", base, [b + 1 for b in base[:9]] + [base[9] - 1])
    assert (out["head_wins"], out["gain_rule"]) == (9, False)
    # a tie counts for neither side
    out = summary("higher", base, [base[0]] + [b + 10 for b in base[1:]])
    assert (out["head_wins"], out["gain_rule"]) == (9, True)
    assert summary("higher", base, base)["head_wins"] == 0
    # for a lower-is-better metric a lower head value wins
    out = summary("lower", base, [b - 10 for b in base])
    assert (out["head_wins"], out["gain_rule"], out["median_ratio"]) == (10, True, 94.5 / 104.5)
    out = summary("lower", base, [b + 10 for b in base])
    assert (out["head_wins"], out["gain_rule"]) == (0, False)

import sys
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

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

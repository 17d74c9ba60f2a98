"""tools/bench_pairs.py: the alternation of the paired runs and the win
and quartile arithmetic, with a stubbed child runner."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _result(failed=0, **values):
    return {"failed": failed, "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def test_pairs_alternate_which_side_goes_first(bp):
    calls = []

    def runner(checkout, workload, seed):
        calls.append(checkout)
        return _result(cert_ref=float(len(calls)))

    P, C = Path("parent"), Path("change")
    parent, change = bp.collect(P, C, "w", 3, 4, runner=runner)
    assert calls == [P, C, C, P, P, C, C, P]
    # each side keeps its own runs, in pair order
    assert [r["metrics"]["cert_ref"]["value"] for r in parent] == [1.0, 4.0, 5.0, 8.0]
    assert [r["metrics"]["cert_ref"]["value"] for r in change] == [2.0, 3.0, 6.0, 7.0]


def test_quartiles_interpolate_linearly(bp):
    assert bp.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bp.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("better,change_wins,parent_wins", [("lower", 2, 1), ("higher", 1, 2)])
def test_wins_follow_better_and_ties_count_for_neither(bp, better, change_wins, parent_wins):
    parent = [_result(m=v) for v in (5.0, 5.0, 5.0, 5.0)]
    change = [_result(m=v) for v in (4.0, 5.0, 6.0, 3.0)]
    row = bp.compare({"name": "m", "better": better}, parent, change)
    assert (row["change_wins"], row["parent_wins"], row["pairs"]) == (change_wins, parent_wins, 4)
    assert row["parent"] == (5.0, 5.0, 5.0)
    assert row["change"] == (3.75, 4.5, 5.25)
    assert row["rel"] == pytest.approx(-0.1)
    assert row["gap_over_parent_iqr"]  # 0.5 > 0


def test_pairs_missing_a_metric_are_skipped_and_failures_counted(bp):
    parent = [_result(m=2.0), _result(failed=1), {"failed": None, "metrics": {}}]
    change = [_result(m=1.0), _result(m=1.0), _result(m=1.0)]
    row = bp.compare({"name": "m", "better": "lower"}, parent, change)
    assert row["pairs"] == 1 and row["change_wins"] == 1
    assert bp.compare({"name": "other", "better": "lower"}, parent, change) is None
    assert (bp.failed(parent), bp.failed(change)) == (2, 0)


def test_main_prints_every_declared_metric(bp, monkeypatch, capsys, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "cert_ref", "better": "lower"}, {"name": "cert_headroom", "better": "higher"}]}))
    values = iter([6.0, 5.0, 5.0, 6.1, 6.2, 4.9])
    monkeypatch.setattr(bp, "run_side", lambda *a: _result(cert_ref=next(values), cert_headroom=2.5))
    assert bp.main([str(tmp_path), str(tmp_path), "--workload", "w", "--seed", "0",
                    "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "wins 3/3 (parent 0)" in out[1] and "> parent IQR" in out[1]
    assert "wins 0/3 (parent 0)" in out[2]
    assert out[3].split() == ["failed:", "0", "/", "0"]
    assert len(json.loads(out[-1])["parent"]) == 3

"""The summary of tools/bench_pairs.py, the paired benchmark runner."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [{"wall_s": w, "peak_rss_mb": m} for w, m in [(1.0, 54.5), (2.0, 54.4), (3.0, 54.6), (4.0, 54.5)]]
    change = [{"wall_s": w, "peak_rss_mb": m} for w, m in [(0.5, 50.0), (2.0, 54.5), (3.5, 50.1), (1.0, 50.2)]]
    summary = bench_pairs.summarize(parent, change, {"wall_s": "lower", "peak_rss_mb": "lower"})
    wall, rss = summary["wall_s"], summary["peak_rss_mb"]
    # pair 2 ties on wall_s: it counts for neither side
    assert (wall["won"], wall["lost"], wall["pairs"]) == (2, 1, 4)
    assert (rss["won"], rss["lost"]) == (3, 1)
    # inclusive quartiles of 1, 2, 3, 4
    assert (wall["parent"]["q1"], wall["parent"]["median"], wall["parent"]["q3"]) == (1.75, 2.5, 3.25)
    assert wall["change"]["values"] == [0.5, 2.0, 3.5, 1.0]
    # a metric where higher is better counts the other way, and one the
    # directions do not name is lower-is-better
    flipped = bench_pairs.summarize(parent, change, {"wall_s": "higher"})
    assert (flipped["wall_s"]["won"], flipped["wall_s"]["lost"]) == (1, 2)
    assert flipped["peak_rss_mb"]["better"] == "lower"
    json.dumps(summary, allow_nan=False)


def test_summary_needs_paired_runs():
    with pytest.raises(ValueError, match="paired runs"):
        bench_pairs.summarize([{"wall_s": 1.0}], [], {})


def test_checkouts_at_paths_of_unequal_length_are_refused(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    assert bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload", "cone"]) == 2
    assert "differ in length" in capsys.readouterr().err


def test_a_checkout_holding_bytecode_is_refused_and_runs_compile(tmp_path, capsys, monkeypatch):
    for name in ("pa", "pb"):
        (tmp_path / name / "src" / "hypernse").mkdir(parents=True)
    cache = tmp_path / "pb" / "src" / "hypernse" / "__pycache__"
    cache.mkdir()
    assert bench_pairs.main([str(tmp_path / "pa"), str(tmp_path / "pb"), "--workload", "cone"]) == 2
    assert str(cache) in capsys.readouterr().err
    # every run leaves bytecode unwritten, so each process compiles the sources
    envs = []

    def run(argv, cwd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(argv, 0, stdout='{"failed": 0}\n', stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.run_bench(str(tmp_path / "pa"), "cone", 0, 1) == {"failed": 0}
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]


def test_the_change_fails_when_it_fails_a_larger_share_of_repetitions():
    def failed_more(parent, change):
        (fp, ap), (fc, ac) = parent, change
        return bench_pairs.failed_more({"parent": fp, "change": fc}, {"parent": ap, "change": ac})

    assert failed_more((0, 10), (1, 10))
    assert not failed_more((0, 10), (0, 10))
    assert not failed_more((1, 10), (1, 10))
    assert not failed_more((2, 10), (1, 10))
    # shares, not counts: 2 of 20 is the parent's 1 of 10, 2 of 10 is more
    assert not failed_more((1, 10), (2, 20))
    assert failed_more((1, 20), (2, 10))


def _fake_checkouts(tmp_path):
    """Two checkouts at paths of one length; the change's BENCHMARK.json
    says wall_s is lower-is-better."""
    paths = []
    for name in ("pa", "pb"):
        (tmp_path / name / "src" / "hypernse").mkdir(parents=True)
        paths.append(str(tmp_path / name))
    doc = {"end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (tmp_path / "pb" / "BENCHMARK.json").write_text(json.dumps(doc))
    return paths


def test_several_workloads_run_in_every_pair_with_one_summary_each(tmp_path, capsys, monkeypatch):
    parent, change = _fake_checkouts(tmp_path)
    calls = []

    def run_bench(checkout, workload, seed, seconds):
        side = "parent" if checkout == parent else "change"
        calls.append((side, workload))
        # the change fails one repetition of lattice per run, and is faster
        failed = int((side, workload) == ("change", "lattice"))
        wall = {"parent": 1.0, "change": 0.9}[side]
        return {"failed": failed, "attempted": 10, "metrics": {"wall_s": {"value": wall}}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    assert bench_pairs.main([parent, change, "--workload", "cone,lattice", "--pairs", "2"]) == 1
    # every pair runs every workload on both sides, its own side first each time
    assert calls == [("parent", "cone"), ("change", "cone"), ("parent", "lattice"), ("change", "lattice"),
                     ("change", "cone"), ("parent", "cone"), ("change", "lattice"), ("parent", "lattice")]
    out = capsys.readouterr()
    summaries = [json.loads(line) for line in out.out.splitlines() if line.startswith("{")]
    assert [s["workload"] for s in summaries] == ["cone", "lattice"]
    assert all(s["metrics"]["wall_s"]["won"] == 2 for s in summaries)
    assert summaries[0]["failed"] == {"parent": 0, "change": 0}
    assert summaries[1]["failed"] == {"parent": 0, "change": 2}
    assert summaries[1]["attempted"] == {"parent": 20, "change": 20}
    assert "on lattice" in out.err and "on cone" not in out.err
    # the last line is still the last workload's summary, and a list whose
    # workloads all pass exits 0
    assert json.loads(out.out.splitlines()[-1])["workload"] == "lattice"
    assert bench_pairs.main([parent, change, "--workload", "cone", "--pairs", "1"]) == 0


@pytest.mark.parametrize("workloads", ["cone,,lattice", "cone,cone", "cone,"])
def test_a_malformed_workload_list_is_refused(workloads, tmp_path, capsys, monkeypatch):
    parent, change = _fake_checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: pytest.fail("ran a workload"))
    assert bench_pairs.main([parent, change, "--workload", workloads]) == 2
    assert "distinct workloads" in capsys.readouterr().err

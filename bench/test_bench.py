"""Tests of the benchmark's span arithmetic, metric names and bundle checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

import check
import run
import spans

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_the_union_of_children():
    s = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, 0),
        _span("c", 3.0, 6.0, 0),  # overlaps b: the overlap counts once
        _span("d", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        _span("e", 2.0, 3.0, 1),  # grandchild: subtracted from b only
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    agg = spans.aggregate(s + [_span("e", 20.0, 22.5)])
    assert agg["e"] == pytest.approx({"calls": 2, "s": 3.5, "self_s": 3.5})
    assert spans.covered_length([(5.0, 5.0), (1.0, 2.0), (1.5, 3.0)]) == pytest.approx(2.0)


def _pair_run():
    """cli.main > stage_cone > evolve_pair with one sample and two pair steps."""
    s = [_span("cli.main", 0.0, 100.0), _span("cli.stage_cone", 1.0, 99.0, 0)]
    s.append(_span("dynamics.evolve_pair", 2.0, 98.0, 1))
    t = 3.0
    for parent_name in ("sample", "step", "step", "step", "step"):
        parent = 2
        if parent_name == "step":
            s.append(_span("dynamics.step", t, t + 10.0, 2))
            parent = len(s) - 1
        for _ in range(2):
            s.append(_span("spectral.bilinear_B", t + 1.0, t + 4.0, parent))
            t += 4.0
        t += 8.0
    return s


def test_layer_metrics_count_B_per_pair_step_and_stage_coverage():
    m = spans.layer_metrics(_pair_run(), {"spectral.FourierField": 7})
    assert m["dynamics.B_per_pair_step"][0] == pytest.approx(10 / 2)
    assert m["spectral.bilinear_B.calls"][0] == 10
    assert m["spectral.bilinear_B.ms_per_call"][0] == pytest.approx(3000.0)
    assert m["dynamics.step.calls"][0] == 4
    assert m["cli.stage_coverage"][0] == pytest.approx(0.98)
    assert m["cli.unattributed_s"][0] == pytest.approx(2.0)
    assert m["spectral.FourierField.count"][0] == 7


def test_benchmark_json_names_every_reported_metric():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = set(spans.layer_metrics(_pair_run(), {}))
    per_layer |= {f"{fn}.ms_at_M{M}" for M in spans.SWEEP_M for fn in ("spectral.bilinear_B", "dynamics.step")}
    per_layer |= {"cli.cpu_s", "trace.overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: wl.why for name, wl in run.WORKLOADS.items()
    }


# ---------------------------------------------------------------------------
# bundle checks on a real lattice run


@pytest.fixture(scope="module")
def lattice_bundle(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench") / "good")
    rep = run.run_cli(run.WORKLOADS["lattice"], 0, out)
    assert rep.rc == 0
    return out, rep


def _edit(path, old, new):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


TAMPERS = {
    "strip count": ("pipeline.json", '"lattice_hits": 3736', '"lattice_hits": 3737'),
    "gap record": ("gap_records.csv", "\n5,8,3\n", "\n5,9,4\n"),
    "annulus point": ("sparse_annulus_points.csv", "j1,j2\n", "j1,j2\n0,1\n"),
}


def _tampered(good, tmp_path, name, old, new):
    bad = str(tmp_path / "tampered")
    shutil.copytree(good, bad)
    _edit(os.path.join(bad, name), old, new)
    return bad


def test_good_bundles_pass_at_reference_and_other_seeds(lattice_bundle):
    good, rep = lattice_bundle
    for seed in (0, 7):
        bundles = run.Bundles("lattice", seed)
        bundles.account(rep, good, "first")
        bundles.account(rep, good, "again")
        assert (bundles.attempted, bundles.failed, bundles.problems) == (2, 0, [])


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_tampered_bundle_counts_as_failed(lattice_bundle, tmp_path, tamper):
    good, rep = lattice_bundle
    bad = _tampered(good, tmp_path, *TAMPERS[tamper])
    # first of its run, so only the content check can catch it
    bundles = run.Bundles("lattice", 0)
    bundles.account(rep, bad, "tampered")
    assert (bundles.attempted, bundles.failed) == (1, 1)


def test_bundle_differing_only_in_bytes_counts_as_failed(lattice_bundle, tmp_path):
    good, rep = lattice_bundle
    bad = _tampered(good, tmp_path, "pipeline.json", "{\n", "{\n\n")
    bundles = run.Bundles("lattice", 0)
    bundles.account(rep, good, "good")
    bundles.account(rep, bad, "reformatted")
    assert (bundles.attempted, bundles.failed) == (2, 1)
    assert bundles.problems == ["reformatted: bundle differs byte-wise from the first of this run"]


def test_nonzero_exit_counts_as_failed(lattice_bundle):
    good, rep = lattice_bundle
    bundles = run.Bundles("lattice", 0)
    bundles.account(run.Rep(1, rep.wall_s, rep.peak_rss_mb, rep.cpu_s), good, "crashed")
    assert (bundles.attempted, bundles.failed) == (1, 1)


def test_oracle_matches_brute_force_enumeration():
    lo, hi = 24.5, 50.0
    brute = {
        (a, b) for a in range(-8, 9) for b in range(-8, 9) if (a, b) != (0, 0) and lo <= a * a + b * b <= hi
    }
    assert check.lattice_points(lo, hi) == brute
    assert check.min_separation({(0, 5), (3, 4), (5, 0)}) == pytest.approx(10**0.5)
    assert check.min_separation({(1, 0)}) == float("inf")

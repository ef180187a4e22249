"""Smoke test of tools/lattice_scales.py, the lattice stages' scale measurements."""

import json
import pathlib
import subprocess
import sys

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "lattice_scales.py"


def test_quick_scales_report_every_case():
    done = subprocess.run([sys.executable, str(PATH), "--quick", "--repeat", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["quick"] is True
    assert list(summary["cases"]) == [
        "record_gaps(1e7)", "record_gaps(1e8)", "strip_statistics(1e8)",
        "strip_statistics(1e10)", "find_sparse_annulus(1e12)", "annulus_points(1e6, 3000)",
    ]
    for case in summary["cases"].values():
        assert case["repeat"] == 1
        assert 0 < case["min_s"] == case["median_s"] == case["max_s"]
        assert case["peak_mib"] > 0
    assert summary["cases"]["record_gaps(1e7)"]["args"] == [10**5]


def test_repeat_below_one_is_refused():
    done = subprocess.run([sys.executable, str(PATH), "--repeat", "0"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "--repeat" in done.stderr

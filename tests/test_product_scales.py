"""Smoke test of tools/product_scales.py, the warm-call table of the solver's
product and its transform kernel."""

import json
import pathlib
import subprocess
import sys

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "product_scales.py"


def test_quick_scales_report_every_block():
    done = subprocess.run([sys.executable, str(PATH), "--quick", "--repeat", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert (summary["quick"], summary["repeat"]) == (True, 1)
    # the kernel's own grid, the one grid rule: smallest 2-3-5-smooth N >= 3K + 1
    assert {K: block["N"] for K, block in summary["blocks"].items()} == {"8": 25, "16": 50, "33": 100}
    for block in summary["blocks"].values():
        assert block["workspace_mib"] > 0
        for call in ("prepared_half", "curl_product"):
            case = block[call]
            assert 0 < case["min_s"] == case["median_s"] == case["max_s"]
            assert case["peak_mib"] > 0


def test_repeat_below_one_is_refused():
    done = subprocess.run([sys.executable, str(PATH), "--repeat", "0"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "--repeat" in done.stderr

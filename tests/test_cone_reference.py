"""The cone workload's bundles against the benchmark's recorded reference.

bench/check.py holds the cone trace columns V, dVdt and margin of seeds 0
and 1 to a relative tolerance of 1e-9 of each column's largest magnitude.
This runs the same check in the test suite, so a change of solver arithmetic
meets that tolerance here as well as in the benchmark.  The checker and its
reference are loaded as they are; nothing under bench/ is written.

At these settings the band decays by about e^-632 per step, and the first
row's dVdt is dominated by the dissipation: a prepared product set to zero
still passes this check.  The oracle tests of test_truncation, not this one,
hold the product itself.
"""

import importlib.util
import os

import pytest

from hypernse.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
# the settings of the `cone` workload in bench/run.py
CONE_WORKLOAD = ["cone-check", "--mu", "1e4", "--s", "0.15", "--T", "0.01"]


def _load_check():
    """bench/check.py as a module of its own name, without putting bench/ on
    the import path (its tests import it as `check`)."""
    spec = importlib.util.spec_from_file_location("hypernse_bench_check", os.path.join(BENCH, "check.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_cone_bundle_matches_the_benchmark_reference(tmp_path, seed):
    check = _load_check()
    reference = check.load_reference()
    assert str(seed) in reference["cone"]["seeds"]
    out = tmp_path / f"cone-seed{seed}"
    rc = main([*CONE_WORKLOAD, "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    assert check.check_bundle("cone", seed, str(out), "cone.json", reference) == []

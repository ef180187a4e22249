"""The package surface that the benchmark's traced runs use.

bench/run.py --trace 1 imports bench/spans.py, wraps the package's public
functions with its Tracer and runs a grid-size sweep that builds
SpectralParams(s=...) and CutoffProfile(), calls step with five arguments and
bilinear_B on its "two-thirds" route.  A change of any of these breaks the
traced benchmark without failing a test of the package, so this runs the
tracer's installation and the sweep, at one small grid, as they are; nothing
under bench/ is written.  It runs in a fresh interpreter because install()
rebinds the package's functions for the rest of the process.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# argv: the directory holding the package, bench/spans.py, the output file
_SWEEP = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("hypernse_bench_spans", sys.argv[2])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
spans.install(spans.Tracer())
spans.SWEEP_M = (8,)
sys.exit(spans._sweep(sys.argv[3], 0))
"""


def test_the_traced_benchmark_sweep_runs_on_the_package(tmp_path):
    out = tmp_path / "sweep.json"
    src = ROOT / "src"
    subprocess.run([sys.executable, "-c", _SWEEP, str(src), str(ROOT / "bench" / "spans.py"), str(out)],
                   capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"spectral.bilinear_B.ms_at_M8", "dynamics.step.ms_at_M8"}
    for ms, reps in result.values():
        assert ms > 0.0 and reps >= 5

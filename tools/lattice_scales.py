"""Time and traced peak of the lattice stages at scales the benchmark does not run.

    python3 tools/lattice_scales.py --repeat 5
    python3 tools/lattice_scales.py --quick --repeat 1

The cases are record_gaps at 1e7 and 1e8, strip_statistics at 1e8 and 1e10,
find_sparse_annulus at 1e12 and annulus_points(1e6, 3000), all at s = 0.15;
--quick runs each at a small scale instead, as a smoke test, under the same
name; the JSON line gives each case's arguments.  Each case runs
--repeat times in this one process: once timed with tracemalloc off, then
once more under tracemalloc for its traced peak.  Per case it prints the
median and range of the wall times and the median traced peak, then all
cases as strict JSON on one line.  BLAS and OpenMP are pinned to one thread
before numpy loads, and the package comes from src/ beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hypernse import lattice  # noqa: E402

# (name, function, full-scale arguments, quick arguments)
CASES = [
    ("record_gaps(1e7)", lattice.record_gaps, (10**7,), (10**5,)),
    ("record_gaps(1e8)", lattice.record_gaps, (10**8,), (10**6,)),
    ("strip_statistics(1e8)", lattice.strip_statistics, (1e8, 0.15), (1e5, 0.15)),
    ("strip_statistics(1e10)", lattice.strip_statistics, (1e10, 0.15), (1e6, 0.15)),
    ("find_sparse_annulus(1e12)", lattice.find_sparse_annulus, (1e12, 0.15), (1e6, 0.15)),
    ("annulus_points(1e6, 3000)", lattice.annulus_points, (1e6, 3000.0), (1e4, 30.0)),
]


def measure(func, args: tuple, repeat: int) -> dict:
    """Wall times and tracemalloc peaks of repeat calls of func(*args)."""
    times, peaks = [], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            func(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "peak_mib": statistics.median(peaks) / 2**20,
        "repeat": repeat,
        "args": list(args),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--quick", action="store_true", help="small scales, as a smoke test")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 2
    results = {}
    for name, func, full, quick in CASES:
        r = results[name] = measure(func, quick if args.quick else full, args.repeat)
        print(f"{name:27s} {1e3 * r['median_s']:9.1f} ms ({1e3 * r['min_s']:.1f}-"
              f"{1e3 * r['max_s']:.1f})  traced peak {r['peak_mib']:7.2f} MiB", flush=True)
    print(json.dumps({"quick": args.quick, "cases": results}, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

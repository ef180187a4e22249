"""Warm-call time and traced peak of the solver's product and its transform
kernel, at blocks the benchmark does not run.

    python3 tools/product_scales.py --repeat 7
    python3 tools/product_scales.py --quick --repeat 1

For the blocks K = 102, 318 and 1 002 (--quick: 8, 16 and 33) it prints the
kernel's grid N (spectral._workspace) and the size of the square's
workspace, then for the solver's product truncation._prepared_half and the
square spectral._curl_product: the median and range of --repeat warm wall
times with tracemalloc off, and the median traced peak of --repeat more
warm calls, each under its own tracemalloc.  The workspace is taken before
the calls, and a first call, untimed, fills the block's other caches, so a
traced peak is what one call takes beyond them, its result included.  The input is a
divergence-free random field at K (decay 2), the product's parameters
SpectralParams(M=K).  Then all blocks as strict JSON on one line.  BLAS and
OpenMP are pinned to one thread before numpy loads, and the package comes
from src/ beside this directory.  K = 1 002 holds about 0.5 GiB.
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

import numpy as np  # noqa: E402

from hypernse.spectral import SpectralParams, _curl_product, _workspace, random_field  # noqa: E402
from hypernse.truncation import _prepared_half  # noqa: E402

BLOCKS = (102, 318, 1002)
QUICK_BLOCKS = (8, 16, 33)


def measure(call, repeat: int) -> dict:
    """Wall times and tracemalloc peaks of repeat warm calls of call()."""
    call()
    times, peaks = [], []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "max_s": max(times),
        "peak_mib": statistics.median(peaks) / 2**20,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--quick", action="store_true", help="small blocks, as a smoke test")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 2
    results = {}
    for K in QUICK_BLOCKS if args.quick else BLOCKS:
        u = random_field(K, np.random.default_rng(K), decay=2.0).coeffs
        params = SpectralParams(M=K)
        N, *buffers = _workspace(2, K)
        r = results[str(K)] = {
            "N": N,
            "workspace_mib": sum(b.nbytes for b in buffers) / 2**20,
            "prepared_half": measure(lambda: _prepared_half(u, params), args.repeat),
            "curl_product": measure(lambda: _curl_product(u), args.repeat),
        }
        print(f"K = {K} (N = {N}), workspace {r['workspace_mib']:.2f} MiB", flush=True)
        for name in ("prepared_half", "curl_product"):
            m = r[name]
            print(f"  {name:14s} {1e3 * m['median_s']:9.2f} ms ({1e3 * m['min_s']:.2f}-"
                  f"{1e3 * m['max_s']:.2f})  traced peak {m['peak_mib']:8.2f} MiB", flush=True)
    print(json.dumps({"quick": args.quick, "repeat": args.repeat, "blocks": results}, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end and per-layer benchmark of the hypernse CLI.

    python3 bench/run.py --workload cone --seed 0 --seconds 40 --trace 0

With --trace 0 the workload's CLI command runs again and again, one fresh
process at a time, for about --seconds (at least MIN_REPS times), and the
end-to-end metrics are reported: wall_s, the mean wall time of the command
over the repetitions; peak_rss_mb, the median of its peak resident memory;
and setup_s, the median time for a fresh interpreter to import hypernse.cli
and resolve the workload's configuration.  wall_s is a mean, not a median,
because the shared host alternates between speeds about 30% apart for ten
seconds or so at a time: repetition times are then bimodal, and the median
of a dozen of them jumps from one mode to the other between runs.

With --trace 1 the command runs once untraced and once in-process under the
tracer of spans.py, then a grid-size sweep runs; the per-layer metrics come
from these.

Every bundle is checked by check.py, and the bundles of one run must be
byte-identical.  A repetition that exits non-zero or fails either check counts
as failed.  The program is always taken from src/ beside this directory, with
BLAS and OpenMP pinned to one thread.  Each metric is printed on its own line
with its unit and sample count, then the environment; the last line is the
JSON result.  The full record is also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 2
SETUP_PER_GROUP = 3
# every run must finish within 180 s, whatever --seconds asks for
RUN_CEILING_S = 140.0
REP_TIMEOUT_S = 120.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    config: dict  # configuration keys, passed as --key value flags
    report: str  # report file name in the bundle
    why: str

    def cli_args(self, seed: int, out: str) -> list[str]:
        args = list(self.command)
        for key, value in self.config.items():
            args += [f"--{key.replace('_', '-')}", value]
        return args + ["--seed", str(seed), "--out", out]


WORKLOADS = {
    "cone": Workload(
        ("cone-check",),
        {"mu": "1e4", "s": "0.15", "T": "0.01"},
        "cone.json",
        "cone traces of the prepared solver at M_run=152; bilinear_B dominates, lattice work is negligible",
    ),
    "averaging": Workload(
        ("averaging-check",),
        {"mu": "1e6", "s": "0.15", "M": "32", "samples": "20"},
        "averaging.json",
        "restricted-operator norms at mu=1e6; cancellation_defect dominates and bilinear_B is never called",
    ),
    "lattice": Workload(
        ("pipeline", "--stages", "gaps,sparse,strips"),
        {"mu": "1e8", "s": "0.15", "gap_limit": "10000000"},
        "pipeline.json",
        "lattice only: gap sieve, sparse-annulus scan and strip count at mu=1e8, no random input",
    ),
}

ENV_PROBE = """
import json, sys
import numpy
import hypernse, hypernse.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "blas": blas, "hypernse_file": hypernse.__file__}))
"""

SETUP_PROBE = """
import json, sys
import hypernse.cli
hypernse.cli.resolve_config(None, json.loads(sys.argv[1]))
"""


def work_root() -> str:
    path = os.path.join(ROOT, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclasses.dataclass
class Rep:
    rc: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


def run_process(argv: list[str], cwd: str) -> Rep:
    """Run argv to completion; wall time from spawn to exit, rusage of that child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Rep(proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def run_cli(wl: Workload, seed: int, out: str) -> Rep:
    return run_process([sys.executable, "-m", "hypernse.cli", *wl.cli_args(seed, out)], ROOT)


def probe(code: str, *args: str) -> tuple[float, str]:
    """Run a python snippet in a fresh interpreter; (wall seconds, stdout)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(done.stderr.strip().splitlines()[-1] if done.stderr else "probe failed")
    return wall, done.stdout


def environment() -> dict:
    """Versions, core count and thread pins; also checks src/ is what runs."""
    _, out = probe(ENV_PROBE)
    env = json.loads(out)
    if not os.path.abspath(env.pop("hypernse_file")).startswith(SRC + os.sep):
        raise RuntimeError("hypernse was not imported from src/ beside the benchmark")
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    tree = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "hypernse")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                tree.update(name.encode() + b"\0" + fh.read())
    return {
        "git_rev": rev,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        **env,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "platform": platform.platform(),
    }


class Bundles:
    """Checks each bundle and compares its bytes with the first of the run."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.reference = check.load_reference()
        self.first_digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def account(self, rep: Rep, bundle: str, label: str) -> None:
        """Count one repetition, failed if it exited non-zero or its bundle is wrong."""
        self.attempted += 1
        if rep.rc != 0:
            bad = [f"exit code {rep.rc}"]
        else:
            bad = check.check_bundle(self.name, self.seed, bundle, self.wl.report, self.reference)
            digest = check.bundle_digest(bundle)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                bad.append("bundle differs byte-wise from the first of this run")
        if bad:
            self.failed += 1
            self.problems += [f"{label}: {b}" for b in bad]


def measure_setup(wl: Workload, seed: int) -> list[float]:
    overrides = json.dumps({**wl.config, "seed": str(seed)})
    return [probe(SETUP_PROBE, overrides)[0] for _ in range(SETUP_PER_GROUP)]


def end_to_end(name: str, seed: int, seconds: int, workdir: str) -> tuple[dict, Bundles, dict]:
    """Repeat the command for about `seconds`; set-up probes before, after the
    first repetition and at the end, so they sample the same stretch of time.
    A repetition is started if it is expected to end at most half a
    repetition past the budget, so runs of long commands fill it on average."""
    wl = WORKLOADS[name]
    bundles = Bundles(name, seed)
    setup = measure_setup(wl, seed)
    reps: list[Rep] = []
    budget = min(seconds, RUN_CEILING_S)
    start = time.perf_counter()
    while True:
        bundle = os.path.join(workdir, f"rep{len(reps)}")
        rep = run_cli(wl, seed, bundle)
        bundles.account(rep, bundle, f"rep{len(reps)}")
        shutil.rmtree(bundle, ignore_errors=True)
        reps.append(rep)
        if len(reps) == 1:
            setup += measure_setup(wl, seed)
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= MIN_REPS and time.perf_counter() - start + typical / 2 > budget:
            break
    setup += measure_setup(wl, seed)
    n = len(reps)
    metrics = {
        "wall_s": (statistics.fmean(r.wall_s for r in reps), "s", n),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in reps), "MiB", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    samples = {"wall_s": [r.wall_s for r in reps], "setup_s": setup}
    return metrics, bundles, samples


def traced(name: str, seed: int, workdir: str) -> tuple[dict, Bundles, list]:
    wl = WORKLOADS[name]
    bundles = Bundles(name, seed)
    bundle = os.path.join(workdir, "untraced")
    plain = run_cli(wl, seed, bundle)
    bundles.account(plain, bundle, "untraced")
    bundle = os.path.join(workdir, "traced")
    trace_path = os.path.join(workdir, "spans.json")
    rep = run_process(
        [sys.executable, os.path.join(HERE, "spans.py"), "run", trace_path, "--",
         *wl.cli_args(seed, bundle)],
        ROOT,
    )
    bundles.account(rep, bundle, "traced")
    with open(trace_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = spans.layer_metrics(doc["spans"], doc["counts"])
    sweep_path = os.path.join(workdir, "sweep.json")
    sweep = run_process([sys.executable, os.path.join(HERE, "spans.py"), "sweep", sweep_path, str(seed)], ROOT)
    if sweep.rc != 0:
        raise RuntimeError(f"grid-size sweep exited {sweep.rc}")
    with open(sweep_path, encoding="utf-8") as fh:
        for metric, (ms, n) in json.load(fh).items():
            metrics[metric] = (ms, "ms", n)
    metrics["cli.cpu_s"] = (plain.cpu_s, "s", 1)
    metrics["trace.overhead_frac"] = (rep.wall_s / plain.wall_s - 1.0, "frac", 1)
    coverage = metrics["cli.stage_coverage"][0]
    if coverage < spans.STAGE_COVERAGE_MIN:
        print(f"warning: cli.stage_* spans cover {coverage:.3f} of cli.main", file=sys.stderr)
    return metrics, bundles, spans.top_self_times(doc["spans"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypernse", "cli.py")):
        print(f"error: no hypernse sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(work_root(), f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        env = environment()  # the first import also writes the bytecode caches
        if args.trace:
            metrics, bundles, top = traced(args.workload, args.seed, workdir)
            samples = {}
        else:
            metrics, bundles, samples = end_to_end(args.workload, args.seed, args.seconds, workdir)
            top = []
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = bundles.failed / bundles.attempted
    for name, (value, unit, n) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit:6s} n={n}")
    print(f"{'failed_frac':45s} {failed_frac:>16.6g} {'frac':6s} n={bundles.attempted}")
    for name, self_s in top:
        print(f"top self time: {name} {self_s:.4f} s")
    for problem in bundles.problems:
        print(f"check: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": bundles.failed == 0,
        "attempted": bundles.attempted,
        "failed": bundles.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = dict(vars(args), env=env, failed_frac=failed_frac, problems=bundles.problems,
                  samples={name: n for name, (_, _, n) in metrics.items()}, sample_values=samples, **result)
    with open(os.path.join(work_root(), f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

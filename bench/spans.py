"""Traced, in-process runs of the hypernse CLI for the per-layer metrics.

The tracer wraps the public functions of the hypernse modules at every place
a module binds them (``cli`` imports ``find_sparse_annulus`` from ``lattice``,
``dynamics`` imports ``bilinear_B`` from ``spectral``, and so on), so calls
between modules are seen as well as calls from the CLI.  Each call records a
span: name, start, end and the index of its parent span.  Spans are kept in
memory and written once, when the traced command has finished.  Nothing under
``src/`` is edited; the wrapping happens at run time in this process only.

Run as a script, in a fresh interpreter with the thread pins set by run.py:

    python3 bench/spans.py run OUT.json -- <hypernse CLI arguments>
    python3 bench/spans.py sweep OUT.json SEED

``run`` executes one CLI command under the tracer and writes its spans and
counts; its exit code is the command's.  ``sweep`` times ``bilinear_B`` (the
two-thirds route) and one ``step`` at several grid sizes, untraced.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time

MODULES = ("lattice", "spectral", "truncation", "dynamics", "averaging", "cli")
STAGES = ("gaps", "sparse", "strips", "cone", "averaging")
SWEEP_M = (32, 64, 128, 152)
# cli.stage_* spans must cover at least this share of cli.main
STAGE_COVERAGE_MIN = 0.95


class Tracer:
    """In-memory span recorder: one dict per call, parents by list index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        """Return fn wrapped in a span named name.

        probe(bound_arguments, result) may return extra fields for the span.
        """
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.update(probe(signature.bind(*args, **kwargs), result))
            return result

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _probe_sparse(bound, result) -> dict:
    """Bins the sparse-annulus scan visited and rejected, from the returned m0."""
    bound.apply_defaults()
    m_start = bound.arguments.get("m_start", 0)
    if result is None:  # every bin m_start..J was rejected, J = floor(mu^{1/2})
        last = math.isqrt(int(bound.arguments["mu"]))
        return {"bins_visited": last - m_start + 1, "bins_rejected": last - m_start + 1}
    return {"bins_visited": result.m0 - m_start + 1, "bins_rejected": result.m0 - m_start}


PROBES = {"lattice.find_sparse_annulus": _probe_sparse}


def install(tracer: Tracer) -> None:
    """Wrap every public function of MODULES wherever a hypernse module binds it."""
    replacements = {}
    for short in MODULES:
        mod = importlib.import_module(f"hypernse.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            replacements[obj] = tracer.wrap(name, obj, PROBES.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "hypernse" and not modname.startswith("hypernse."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
    # fields are built thousands of times: count them; profiles are rare and slow: time them
    field = importlib.import_module("hypernse.spectral").FourierField
    field.__init__ = tracer.count("spectral.FourierField", field.__init__)
    profile = importlib.import_module("hypernse.truncation").CutoffProfile
    profile.__init__ = tracer.wrap("truncation.CutoffProfile", profile.__init__)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span, its duration minus the part of it that its children cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[i]
        ]
        out.append(s["end"] - s["start"] - covered_length(clipped))
    return out


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    agg: dict[str, dict] = collections.defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        a = agg[s["name"]]
        a["calls"] += 1
        a["s"] += s["end"] - s["start"]
        a["self_s"] += own
    return dict(agg)


def _has_ancestor(spans: list[dict], i: int, prefix: str) -> bool:
    """True when some ancestor of span i has a name starting with prefix."""
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"].startswith(prefix):
            return True
        p = spans[p]["parent"]
    return False


def _module(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one traced command: name -> (value, unit, samples)."""
    agg = aggregate(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str, int]] = {}

    def put(metric, value, unit, n):
        out[metric] = (value, unit, n)

    def total(fn):
        a = agg.get(fn, zero)
        put(f"{fn}.s", a["s"], "s", a["calls"])

    def self_s(fn):
        a = agg.get(fn, zero)
        put(f"{fn}.self_s", a["self_s"], "s", a["calls"])

    def calls(fn):
        a = agg.get(fn, zero)
        put(f"{fn}.calls", a["calls"], "count", a["calls"])

    def ms_per_call(fn):
        a = agg.get(fn, zero)
        put(f"{fn}.ms_per_call", 1e3 * a["s"] / a["calls"] if a["calls"] else 0.0, "ms", a["calls"])

    # lattice
    sparse = [s for s in spans if s["name"] == "lattice.find_sparse_annulus"]
    visited = sum(s.get("bins_visited", 0) for s in sparse)
    rejected = sum(s.get("bins_rejected", 0) for s in sparse)
    total("lattice.find_sparse_annulus")
    calls("lattice.find_sparse_annulus")
    put("lattice.bins_visited", visited, "count", len(sparse))
    put("lattice.bins_rejected_frac", rejected / visited if visited else 0.0, "frac", visited)
    total("lattice.strip_statistics")
    total("lattice.record_gaps")
    for fn in ("lattice.eigenvalues_with_multiplicity", "lattice.min_pairwise_distance"):
        total(fn)
        calls(fn)
    stage_spans = [s for s in spans if s["name"].startswith("cli.stage_")]
    stage_s = sum(s["end"] - s["start"] for s in stage_spans)
    lattice_s = sum(
        s["end"] - s["start"]
        for i, s in enumerate(spans)
        if _module(s) == "lattice"
        and (s["parent"] is None or _module(spans[s["parent"]]) != "lattice")
        and _has_ancestor(spans, i, "cli.stage_")
    )
    put("lattice.stage_share", lattice_s / stage_s if stage_s else 0.0, "frac", len(stage_spans))

    # spectral
    calls("spectral.bilinear_B")
    self_s("spectral.bilinear_B")
    ms_per_call("spectral.bilinear_B")
    self_s("spectral.leray_project")
    self_s("spectral.apply_A_power")
    n_fields = counts.get("spectral.FourierField", 0)
    put("spectral.FourierField.count", n_fields, "count", n_fields)
    total("spectral.choose_cutoff")

    # truncation
    calls("truncation.apply_W")
    self_s("truncation.apply_W")
    n_profiles = agg.get("truncation.CutoffProfile", zero)["calls"]
    put("truncation.CutoffProfile.count", n_profiles, "count", n_profiles)
    total("truncation.CutoffProfile")

    # dynamics
    calls("dynamics.step")
    ms_per_call("dynamics.step")
    self_s("dynamics.evolve_pair")
    pair_steps = sum(
        1 for i, s in enumerate(spans)
        if s["name"] == "dynamics.step" and _has_ancestor(spans, i, "dynamics.evolve_pair")
    ) / 2
    b_in_pairs = sum(
        1 for i, s in enumerate(spans)
        if s["name"] == "spectral.bilinear_B" and _has_ancestor(spans, i, "dynamics.evolve_pair")
    )
    put("dynamics.B_per_pair_step", b_in_pairs / pair_steps if pair_steps else 0.0, "count", int(pair_steps))

    # averaging
    calls("averaging.cancellation_defect")
    ms_per_call("averaging.cancellation_defect")
    total("averaging.assemble_restricted_operator")
    total("averaging.restricted_norm")

    # cli
    for st in STAGES:
        total(f"cli.stage_{st}")
    total("cli.main")
    main_s = agg.get("cli.main", zero)["s"]
    put("cli.unattributed_s", main_s - stage_s, "s", 1)
    put("cli.stage_coverage", stage_s / main_s if main_s else 0.0, "frac", len(stage_spans))
    return out


def top_self_times(spans: list[dict], n: int = 5) -> list[tuple[str, float]]:
    agg = aggregate(spans)
    ranked = sorted(agg.items(), key=lambda kv: kv[1]["self_s"], reverse=True)
    return [(name, a["self_s"]) for name, a in ranked[:n]]


# ---------------------------------------------------------------------------
# subprocess entry points


def _run(out_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    import hypernse.cli

    install(tracer)
    try:
        rc = hypernse.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return rc


def _median_ms(fn, min_reps: int = 5, min_seconds: float = 0.3) -> tuple[float, int]:
    fn()  # warm caches (FFT plans, wavenumber grids)
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), len(times)


def _sweep(out_path: str, seed: int) -> int:
    import numpy as np

    from hypernse.dynamics import SimConfig, step
    from hypernse.spectral import SpectralParams, bilinear_B, random_field, sobolev_norm
    from hypernse.truncation import CutoffProfile

    rng = np.random.default_rng(seed)
    profile = CutoffProfile()
    config = SimConfig()
    out = {}
    for M in SWEEP_M:
        params = SpectralParams(M=M, s=0.15)
        u = random_field(M, rng, divergence_free=True, decay=4.5)
        u = u * (0.5 / sobolev_norm(u, 3.0 + params.epsilon))
        out[f"spectral.bilinear_B.ms_at_M{M}"] = _median_ms(lambda: bilinear_B(u, u, "two-thirds"))
        out[f"dynamics.step.ms_at_M{M}"] = _median_ms(lambda: step(u, None, params, config, profile))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "run" and argv[2] == "--":
        return _run(argv[1], argv[3:])
    if len(argv) == 3 and argv[0] == "sweep":
        return _sweep(argv[1], int(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

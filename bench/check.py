"""Correctness checks on the bundles the benchmark's CLI runs write.

Every bundle is checked in three ways:

* Certificates that do not depend on the seed are compared exactly against
  reference values recorded at the commit that added this benchmark: m0,
  lambda and n_points of the sparse annulus, lambda_N, the band dimension and
  window_certified of the cutoff, the gap records and the strip counts.
* Seed-free invariants: the annulus and the projector window are
  re-certified here by enumeration and brute-force pairwise distances,
  independent of the package; traces and norms are finite; cancellation
  defects are at most DEFECT_MAX.
* For the seeds that have reference values (the CLI default 0 and the
  held-out 1), the cone trace columns V, dVdt and margin and the sampled
  averaging norms must match within RTOL.  Trace entries are compared
  relative to the largest magnitude in their column: after the first step
  the pair difference is at rounding level, so those entries carry no
  digits a change of FFT rounding must keep.  Norms are compared per value.

Byte-identity between repeated runs is checked by comparing bundle_digest.

    python3 bench/check.py record    # re-record bench/reference.json
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys

RTOL = 1e-9
DEFECT_MAX = 1e-13
REFERENCE_SEEDS = (0, 1)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
TRACE_COLUMNS = ("V", "dVdt", "margin")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def bundle_digest(bundle_dir: str) -> str:
    """sha256 over every file name and its bytes, in sorted order."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(bundle_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, bundle_dir).encode())
            h.update(b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# independent lattice oracle


def lattice_points(lo: float, hi: float) -> set[tuple[int, int]]:
    """All j != 0 with lo <= |j|^2 <= hi, by enumeration over j1."""
    n_min, n_max = max(math.ceil(lo), 1), math.floor(hi)
    out = set()
    a = 0
    while a * a <= n_max:
        b_hi = math.isqrt(n_max - a * a)
        rest = n_min - a * a
        b_lo = 0 if rest <= 0 else math.isqrt(rest - 1) + 1
        for b in range(b_lo, b_hi + 1):
            for p in {(a, b), (-a, b), (a, -b), (-a, -b)}:
                if p != (0, 0):
                    out.add(p)
        a += 1
    return out


def min_separation(points) -> float:
    """Smallest pairwise distance by brute force; inf below two points."""
    pts = sorted(points)
    best = None
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1 :]:
            d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
            if best is None or d2 < best:
                best = d2
    return math.inf if best is None else math.sqrt(best)


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# per-part checks; each appends human-readable problems to `bad`


def _certificates(results: dict, workload: str) -> dict:
    """The seed-free certificate values of one report, by name."""
    sp = results["sparse"]
    out = {"sparse.m0": sp["m0"], "sparse.lambda": sp["lambda"], "sparse.n_points": sp["n_points"]}
    if workload == "cone":
        out["cutoff.lambda_N"] = results["cutoff"]["lambda_N"]
        out["cutoff.window_certified"] = results["cutoff"]["window_certified"]
    elif workload == "averaging":
        out["averaging.lambda_N"] = results["lambda_N"]
        out["averaging.dimension"] = results["dimension"]
        out["averaging.window_certified"] = results["window_certified"]
    else:
        out["strips.strip_count"] = results["strips"]["strip_count"]
        out["strips.lattice_hits"] = results["strips"]["lattice_hits"]
    return out


def _gap_records(bundle: str) -> list[list[int]]:
    rows = _read_csv(os.path.join(bundle, "gap_records.csv"))
    return [[int(r["lower"]), int(r["upper"]), int(r["gap"])] for r in rows]


def _check_sparse(sp: dict, bundle: str, bad: list) -> None:
    if not sp.get("found"):
        bad.append("no sparse annulus found")
        return
    mu, s = sp["mu"], sp["s"]
    rows = _read_csv(os.path.join(bundle, sp["csv"]))
    listed = {(int(r["j1"]), int(r["j2"])) for r in rows}
    expected = lattice_points(sp["lambda"] - sp["half_width"], sp["lambda"] + sp["half_width"])
    if listed != expected or len(rows) != sp["n_points"]:
        bad.append("annulus point list differs from the enumerated annulus")
    sep = min_separation(expected)
    thr = max(mu ** (s / 2.0), sp["lambda"] ** (s / 2.0))
    if not sep > thr:
        bad.append(f"annulus not sparse: separation {sep} <= {thr}")
    if sep != sp["min_separation"]:
        bad.append(f"reported min_separation {sp['min_separation']} != {sep}")


def _check_window(sp: dict, lambda_N: int, k: float, certified: bool, bad: list) -> None:
    thr = max(sp["lambda"] ** (sp["s"] / 2.0), float(lambda_N) ** (sp["s"] / 2.0))
    ok = min_separation(lattice_points(float(lambda_N) - k, float(lambda_N) + k)) > thr
    if ok != certified:
        bad.append(f"window_certified={certified} but the oracle says {ok}")


def _close(got: list[float], want: list[float], scale: float | None = None) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        ref = abs(w) if scale is None else scale
        if not math.isfinite(g) or abs(g - w) > RTOL * ref:
            return False
    return True


def _cone_values(results: dict, bundle: str, bad: list) -> dict:
    """Trace columns per delta; checks shape and finiteness."""
    values = {}
    runs = results.get("runs", [])
    if results.get("skipped") or len(runs) != 2:
        bad.append("cone stage skipped or missing runs")
        return values
    for run in runs:
        rows = _read_csv(os.path.join(bundle, run["trace_csv"]))
        cols = {c: [float(r[c]) for r in rows] for c in TRACE_COLUMNS}
        if len(rows) != run["n_samples"] or not all(
            math.isfinite(x) for col in cols.values() for x in col
        ):
            bad.append(f"trace {run['trace_csv']} is short or not finite")
        values[f"{run['delta']:g}"] = cols
    return values


def _averaging_values(results: dict, cfg: dict, bad: list) -> dict:
    if results.get("skipped"):
        bad.append(f"averaging skipped: {results.get('reason')}")
        return {}
    norms = [n for _, n in results["sampled_norms"]]
    if len(norms) != cfg["samples"] or not all(math.isfinite(n) and n >= 0 for n in norms):
        bad.append("sampled norms missing, negative or not finite")
    defects = results["cancellation_defects"]
    if not defects or not all(d <= DEFECT_MAX for d in defects):
        bad.append(f"cancellation defect above {DEFECT_MAX}: {max(defects, default=None)}")
    return {"norms": norms}


def extract(workload: str, bundle: str, report_name: str) -> tuple[dict, list[str]]:
    """Read one bundle: its reference-comparable values and invariant problems."""
    bad: list[str] = []
    with open(os.path.join(bundle, report_name), encoding="utf-8") as fh:
        report = json.load(fh)
    results = report["results"]
    _check_sparse(results["sparse"], bundle, bad)
    values = {"certificates": _certificates(results, workload)}
    if workload == "cone":
        cut = results["cutoff"]
        _check_window(results["sparse"], cut["lambda_N"], cut["k"], cut["window_certified"], bad)
        values["traces"] = _cone_values(results, bundle, bad)
    elif workload == "averaging":
        _check_window(results["sparse"], results["lambda_N"], results["k"], results["window_certified"], bad)
        values.update(_averaging_values(results, report["config"], bad))
    else:
        values["gap_records"] = _gap_records(bundle)
        gaps = [g for _, _, g in values["gap_records"]]
        if gaps != sorted(set(gaps)) or len(gaps) != results["gaps"]["n_records"]:
            bad.append("gap records are not strictly increasing or miscounted")
    return values, bad


def check_bundle(workload: str, seed: int, bundle: str, report_name: str, reference: dict) -> list[str]:
    """Problems found in one bundle; an empty list means it is correct."""
    try:
        values, bad = extract(workload, bundle, report_name)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable bundle: {exc!r}"]
    ref = reference[workload]
    if values["certificates"] != ref["certificates"]:
        bad.append(f"certificates {values['certificates']} != reference {ref['certificates']}")
    if workload == "lattice" and values["gap_records"] != ref["gap_records"]:
        bad.append("gap records differ from the reference")
    by_seed = ref.get("seeds", {}).get(str(seed))
    if by_seed is None:
        return bad
    if workload == "cone":
        for delta, cols in by_seed["traces"].items():
            got = values["traces"].get(delta, {})
            for c, want in cols.items():
                scale = max(abs(x) for x in want)
                if not _close(got.get(c, []), want, scale):
                    bad.append(f"trace delta={delta} column {c} outside rtol {RTOL}")
    elif workload == "averaging" and not _close(values.get("norms", []), by_seed["norms"]):
        bad.append(f"sampled norms outside rtol {RTOL} of the reference")
    return bad


# ---------------------------------------------------------------------------
# recording


def record() -> int:
    """Run every workload at the reference seeds and write reference.json."""
    import tempfile

    import run

    reference = {}
    for name, wl in run.WORKLOADS.items():
        entry: dict = {"seeds": {}}
        seeds = REFERENCE_SEEDS if name != "lattice" else REFERENCE_SEEDS[:1]
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=run.work_root()) as tmp:
                rep = run.run_cli(wl, seed, tmp)
                if rep.rc != 0:
                    print(f"{name} seed {seed}: exit {rep.rc}", file=sys.stderr)
                    return 1
                values, bad = extract(name, tmp, wl.report)
            if bad:
                print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                return 1
            if entry.get("certificates", values["certificates"]) != values["certificates"]:
                print(f"{name}: certificates depend on the seed", file=sys.stderr)
                return 1
            entry["certificates"] = values["certificates"]
            if name == "lattice":
                entry["gap_records"] = values["gap_records"]
            elif name == "cone":
                entry["seeds"][str(seed)] = {"traces": values["traces"]}
            else:
                entry["seeds"][str(seed)] = {"norms": values["norms"]}
        reference[name] = entry
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(record())

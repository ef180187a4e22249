"""Paired end-to-end benchmark runs of two checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workload cone,averaging,lattice --pairs 10 --seconds 20

Runs bench/run.py --trace 0 in each checkout, pair after pair, alternating
which side goes first, with the same workload, seed and --seconds on both.
--workload takes one workload or a comma-separated list; each pair then
runs every listed workload on both sides, in the order given, with the
pair's side first each time.
The two checkout paths must have the same length: the path is part of what
each benchmarked process loads, and a longer one moves peak_rss_mb by about
0.19 MiB.  Both sides run with PYTHONDONTWRITEBYTECODE=1, so every repetition
compiles the sources, and a checkout whose src/hypernse holds a __pycache__
is refused: Python reads cached bytecode even with that variable set, and
the side that does reads about 1 MiB lower.

Per metric it prints each side's median and quartiles and the number of
pairs the change won: a pair is won when the change's value is better in the
direction BENCHMARK.json gives for the metric (lower when it names none), and
a tie counts for neither side.  Then it prints each side's failed and
attempted repetitions, and then the summary as strict JSON on one line; it
does so for each workload in turn, so the last line is the last workload's
summary.  It exits 1 when, on any workload, the change failed a larger share
of its repetitions than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values, by the inclusive
    method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """The summary of paired runs: parent[i] and change[i] are the metric
    values ({name: value}) of pair i, and better maps a metric to "lower" or
    "higher".  Per metric, each side's quartiles and the pairs the change won
    and lost; ties count for neither."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need paired runs, got {len(parent)} and {len(change)}")
    out = {}
    for name in parent[0]:
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)]
        gains = [sign * (c - p) for p, c in pairs]
        sides = {}
        for side, values in (("parent", [p for p, _ in pairs]), ("change", [c for _, c in pairs])):
            q1, med, q3 = quartiles(values)
            sides[side] = {"median": med, "q1": q1, "q3": q3, "values": values}
        out[name] = {
            **sides,
            "better": "lower" if sign < 0 else "higher",
            "won": sum(g > 0 for g in gains),
            "lost": sum(g < 0 for g in gains),
            "pairs": len(pairs),
        }
    return out


def failed_more(failed: dict[str, int], attempted: dict[str, int]) -> bool:
    """Whether the change failed a larger share of its attempted repetitions
    than the parent; failed and attempted count them per side."""
    return failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]


def run_bench(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One bench/run.py --trace 0 run in checkout, compiling the sources in
    every process: its JSON result line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def metric_directions(checkout: str) -> dict[str, str]:
    """Metric name -> "lower" or "higher" from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["better"] for m in doc.get("end_to_end", [])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list of workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    workloads = args.workload.split(",")
    if "" in workloads or len(set(workloads)) != len(workloads):
        print(f"error: --workload {args.workload!r} must list distinct workloads, "
              "separated by single commas", file=sys.stderr)
        return 2
    if len(parent) != len(change):
        print(f"error: checkout paths differ in length ({len(parent)} and {len(change)} "
              "characters), which moves peak_rss_mb", file=sys.stderr)
        return 2
    for checkout in (parent, change):
        cache = os.path.join(checkout, "src", "hypernse", "__pycache__")
        if os.path.isdir(cache):
            print(f"error: {cache} holds cached bytecode, which the runs would read instead of "
                  "compiling the sources; remove it", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    runs = {wl: {"parent": [], "change": []} for wl in workloads}
    failed = {wl: {"parent": 0, "change": 0} for wl in workloads}
    attempted = {wl: {"parent": 0, "change": 0} for wl in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for wl in workloads:
            for side in order:
                try:
                    result = run_bench(parent if side == "parent" else change, wl, args.seed, args.seconds)
                except (RuntimeError, json.JSONDecodeError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                failed[wl][side] += result["failed"]
                attempted[wl][side] += result["attempted"]
                runs[wl][side].append({k: m["value"] for k, m in result["metrics"].items()})
            last = {side: runs[wl][side][-1] for side in order}
            print(f"pair {i + 1}/{args.pairs} {wl} ({order[0]} first): "
                  + "  ".join(f"{k} {last['parent'][k]:.4g} -> {last['change'][k]:.4g}" for k in last["parent"]),
                  flush=True)
    directions = metric_directions(change)
    status = 0
    for wl in workloads:
        summary = summarize(runs[wl]["parent"], runs[wl]["change"], directions)
        for name, s in summary.items():
            p, c = s["parent"], s["change"]
            print(f"{wl} {name:12s} parent {p['median']:.4f} ({p['q1']:.4f}-{p['q3']:.4f})  "
                  f"change {c['median']:.4f} ({c['q1']:.4f}-{c['q3']:.4f})  "
                  f"{s['better']} is better; change won {s['won']}, lost {s['lost']} of {s['pairs']}")
        f, a = failed[wl], attempted[wl]
        print(f"{wl} failed repetitions: parent {f['parent']} of {a['parent']}, "
              f"change {f['change']} of {a['change']}")
        print(json.dumps({"workload": wl, "seed": args.seed, "seconds": args.seconds,
                          "failed": f, "attempted": a, "metrics": summary}, allow_nan=False))
        if failed_more(f, a):
            print(f"error: on {wl}, the change failed a larger share of its repetitions than the parent",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

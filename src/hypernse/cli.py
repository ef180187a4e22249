"""Command-line pipeline: lattice searches, simulation, cone and averaging checks.

Configuration is a flat UTF-8 key=value file with # comments; command-line
flags override file values, and anything left unset falls back to documented
defaults.  Every report embeds the fully resolved configuration and the
package version so a run can be reproduced bitwise from its own output.

One table names every stage with the stages it depends on: cone and
averaging take the sparse annulus that the sparse stage certified, so a run
searches for it once.  A single command runs its stage plus the stages that
stage depends on (cone-check and averaging-check include sparse, whose
summary lands in their report); pipeline --stages runs the listed stages in
table order and exits 2 when a listed stage's dependency is not listed.

Mathematical negative findings (no sparse annulus, rejected cutoff, negative
cone margins, averaging bound exceeded) are data: they land in the reports
and the exit status stays 0.  Only engineering failures (bad config, missing
stage dependencies, I/O) exit nonzero.

Outputs go under a timestamped directory beneath --out, the
HYPERNSE_OUTPUT_DIR environment variable, or ./runs, in that order of
preference; passing --out uses that directory directly, which keeps repeated
runs byte-comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .averaging import check_averaging, draw_averaging_samples
from .dynamics import (
    BlowUpError,
    SimConfig,
    cone_report,
    evolve,
    evolve_pair,
    perturbed_copy,
)
from .lattice import (
    SparseAnnulus,
    annulus_points,
    find_sparse_annulus,
    min_pairwise_distance,
    record_gaps,
    strip_statistics,
)
from .spectral import (
    DEALIAS_MODES,
    FourierField,
    SpectralParams,
    choose_cutoff,
    inner_product,
    random_field,
    save_field_csv,
    sobolev_norm,
)

PERTURBATION_DELTAS = (1e-3, 1e-1)

_DEFAULTS: dict[str, object] = {
    "mu": 1e4,
    "s": None,  # midpoint of (3 - 2 beta, 1/6) once beta is known
    "beta": 1.45,
    "nu": 1.0,
    "rho": 1.0,
    "M": 16,
    "dt": 1e-3,
    "T": 0.5,
    "integrator": "eif",
    "dealias": "two-thirds",
    "seed": 0,
    "include_nonlinear": True,
    "record_every": 1,
    "gap_limit": 1_000_000,
    "samples": 8,
    "ic_amplitude": 0.5,
    "forcing_amplitude": 0.1,
}

_BOOL_KEYS = {"include_nonlinear"}
_INT_KEYS = {"M", "seed", "record_every", "gap_limit", "samples"}
_STR_KEYS = {"integrator", "dealias"}


class ConfigError(ValueError):
    """Configuration rejected; the message names the violated invariant."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one pipeline run."""

    mu: float
    s: float
    beta: float
    nu: float
    rho: float
    M: int
    dt: float
    T: float
    integrator: str
    dealias: str
    seed: int
    include_nonlinear: bool
    record_every: int
    gap_limit: int
    samples: int
    ic_amplitude: float
    forcing_amplitude: float

    def spectral_params(self, M: int | None = None) -> SpectralParams:
        return SpectralParams(
            beta=self.beta,
            nu=self.nu,
            M=self.M if M is None else M,
            s=self.s,
            rho=self.rho,
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(
            dt=self.dt,
            T=self.T,
            integrator=self.integrator,
            dealias=self.dealias,
            seed=self.seed,
            include_nonlinear=self.include_nonlinear,
            record_every=self.record_every,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _coerce(key: str, raw: object) -> object:
    if key in _BOOL_KEYS:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key} must be boolean, got {raw!r}")
    if key in _INT_KEYS:
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if key in _STR_KEYS:
        return str(raw).strip()
    try:
        return float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _parse_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {text!r}"
                    )
                key, value = text.split("=", 1)
                key = key.strip()
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return out


def resolve_config(
    config_path: str | None = None, overrides: dict[str, object] | None = None
) -> RunConfig:
    """Merge defaults, config file, and flag overrides, then validate.

    Validation constructs the embedded parameter objects, so their invariants
    (supercritical exponent range, sparsity exponent window, positive steps)
    fail fast here with the violated constraint named in the error.
    """
    merged: dict[str, object] = dict(_DEFAULTS)
    if config_path is not None:
        merged.update(_parse_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        merged[key] = value
    resolved: dict[str, object] = {}
    for key, value in merged.items():
        if key == "s" and value is None:
            continue
        resolved[key] = _coerce(key, value)
    if "s" not in resolved:
        beta = float(resolved["beta"])
        resolved["s"] = ((3.0 - 2.0 * beta) + 1.0 / 6.0) / 2.0
    cfg = RunConfig(**resolved)  # type: ignore[arg-type]
    try:
        cfg.spectral_params()
        cfg.sim_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not cfg.mu >= 2:
        raise ConfigError(f"mu must be >= 2, got {cfg.mu}")
    if cfg.gap_limit < 2:
        raise ConfigError(f"gap_limit must be >= 2, got {cfg.gap_limit}")
    if cfg.samples < 1:
        raise ConfigError(f"samples must be >= 1, got {cfg.samples}")
    if cfg.ic_amplitude < 0 or cfg.forcing_amplitude < 0:
        raise ConfigError("amplitudes must be nonnegative")
    return cfg


# ---------------------------------------------------------------------------
# report plumbing


def _run_directory(out_flag: str | None, command: str) -> str:
    if out_flag:
        path = out_flag
    else:
        base = os.environ.get("HYPERNSE_OUTPUT_DIR", "runs")
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = os.path.join(base, f"{stamp}-{command}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(command: str, cfg: RunConfig, results: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": cfg.to_dict(),
        "results": results,
    }


def _warn_near_integer_bounds(lam: float, k: float) -> None:
    for bound in (lam - k, lam + k):
        frac = abs(bound - round(bound))
        if 0.0 < frac < 1e-9:
            warnings.warn(
                f"annulus bound {bound!r} lies within 1e-9 of an integer; "
                "membership at the edge is decided by exact comparison",
                RuntimeWarning,
                stacklevel=3,
            )


def _write_points_csv(path: str, points) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j1,j2\n")
        for p in points:
            fh.write(f"{p.j1},{p.j2}\n")
    return path


# ---------------------------------------------------------------------------
# stages: each writes its own files and returns (summary, product): the
# JSON-ready summary for the report, and the object that the stages depending
# on it take as arguments (None when no stage depends on it)


def stage_gaps(cfg: RunConfig, outdir: str) -> tuple[dict, None]:
    records = record_gaps(cfg.gap_limit)
    csv_path = os.path.join(outdir, "gap_records.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("lower,upper,gap\n")
        for r in records:
            fh.write(f"{r.lower},{r.upper},{r.gap}\n")
    last = records[-1] if records else None
    return {
        "limit": cfg.gap_limit,
        "n_records": len(records),
        "largest": None
        if last is None
        else {"lower": last.lower, "upper": last.upper, "gap": last.gap},
        "csv": os.path.basename(csv_path),
    }, None


def stage_annulus(lam: float, k: float, outdir: str) -> dict:
    _warn_near_integer_bounds(lam, k)
    pts = annulus_points(lam, k)
    csv_path = _write_points_csv(os.path.join(outdir, "annulus_points.csv"), pts)
    sep = min_pairwise_distance(pts)
    return {
        "lambda": lam,
        "k": k,
        "n_points": len(pts),
        "min_separation": sep,
        "csv": os.path.basename(csv_path),
    }


def stage_sparse(cfg: RunConfig, outdir: str) -> tuple[dict, SparseAnnulus | None]:
    ann = find_sparse_annulus(cfg.mu, cfg.s)
    if ann is None:
        return {"found": False, "mu": cfg.mu, "s": cfg.s}, None
    csv_path = _write_points_csv(
        os.path.join(outdir, "sparse_annulus_points.csv"), ann.points
    )
    return {
        "found": True,
        "mu": ann.mu,
        "s": ann.s,
        "m0": ann.m0,
        "lambda": ann.lam,
        "half_width": ann.half_width,
        "separation_threshold": ann.separation_threshold,
        "certified_threshold": ann.certified_threshold,
        "min_separation": ann.min_separation,
        "n_points": len(ann.points),
        "width_ratio": ann.width_ratio,
        "csv": os.path.basename(csv_path),
    }, ann


def stage_strips(cfg: RunConfig, outdir: str) -> tuple[dict, None]:
    stats = strip_statistics(cfg.mu, cfg.s)
    return {
        "mu": stats.mu,
        "s": stats.s,
        "strip_count": stats.strip_count,
        "lattice_hits": stats.lattice_hits,
    }, None


def _initial_field(
    cfg: RunConfig, params: SpectralParams, rng: np.random.Generator
) -> FourierField:
    u = random_field(params.M, rng, divergence_free=True, decay=4.5)
    norm = sobolev_norm(u, 3.0 + params.epsilon)
    if norm > 0 and cfg.ic_amplitude > 0:
        u = u * (cfg.ic_amplitude / norm)
    return u


def _forcing_field(
    cfg: RunConfig, params: SpectralParams, rng: np.random.Generator
) -> FourierField | None:
    if cfg.forcing_amplitude == 0.0:
        return None
    f = random_field(params.M, rng, divergence_free=True, decay=5.0)
    norm = math.sqrt(inner_product(f, f))
    if norm == 0.0:
        return None
    return f * (cfg.forcing_amplitude / norm)


def stage_simulate(cfg: RunConfig, outdir: str) -> tuple[dict, None]:
    params = cfg.spectral_params()
    sim = cfg.sim_config()
    rng = np.random.default_rng(cfg.seed)
    u0 = _initial_field(cfg, params, rng)
    forcing = _forcing_field(cfg, params, rng)
    save_field_csv(u0, os.path.join(outdir, "initial_field.csv"))
    try:
        traj = evolve(u0, forcing, params, sim)
    except BlowUpError as exc:
        return {
            "blow_up": True,
            "message": str(exc),
            "n_steps": sim.n_steps,
        }, None
    save_field_csv(traj.fields[-1], os.path.join(outdir, "final_field.csv"))
    csv_path = os.path.join(outdir, "trajectory.csv")
    s_norm = 3.0 + params.epsilon
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("t,energy,regularity_norm\n")
        for t, u in zip(traj.times, traj.fields):
            fh.write(
                f"{t:.17g},{inner_product(u, u):.17g},"
                f"{sobolev_norm(u, s_norm):.17g}\n"
            )
    final = traj.fields[-1]
    return {
        "blow_up": False,
        "n_steps": sim.n_steps,
        "n_recorded": len(traj),
        "final_energy": inner_product(final, final),
        "final_regularity_norm": sobolev_norm(final, s_norm),
        "trajectory_csv": os.path.basename(csv_path),
    }, None


def _decision_summary(decision) -> dict:
    return {
        "strict_accepted": decision.accepted,
        "reason": decision.reason,
        "window_certified": decision.window_certified,
        "window_min_separation": decision.window_min_separation,
        "window_threshold": decision.window_threshold,
        "lambda_N": decision.family.lambda_N,
        "lambda_next": decision.family.lambda_next,
        "k": decision.family.k,
        "gap": decision.gap,
        "k_over_lambda_s": decision.k_over_lambda_s,
    }


def stage_cone(
    cfg: RunConfig, outdir: str, ann: SparseAnnulus | None
) -> tuple[dict, None]:
    if ann is None:
        return {"skipped": True, "reason": "no sparse annulus was certified"}, None
    decision = choose_cutoff(ann)
    summary: dict = {"cutoff": _decision_summary(decision)}
    if not decision.window_certified:
        summary.update(
            skipped=True,
            reason="projector window failed sparsity re-certification",
        )
        return summary, None
    fam = decision.family
    # headroom factor keeps the band inside the two-thirds product mask, so
    # band-mode nonlinear interactions are not dealiased away
    M_run = int(math.ceil(1.5 * math.sqrt(fam.lambda_N + fam.k))) + 2
    params = cfg.spectral_params(M=M_run)
    sim = cfg.sim_config()
    rng = np.random.default_rng(cfg.seed)
    u1 = _initial_field(cfg, params, rng)
    forcing = _forcing_field(cfg, params, rng)
    runs = []
    for delta in PERTURBATION_DELTAS:
        u2 = perturbed_copy(u1, fam, delta, rng, where="band")
        trace = evolve_pair(u1, u2, forcing, params, sim, fam)
        tag = f"{delta:g}".replace(".", "p")
        trace_path = os.path.join(outdir, f"cone_trace_delta_{tag}.csv")
        trace.to_csv(trace_path)
        rep = cone_report(trace)
        rep["delta"] = delta
        rep["trace_csv"] = os.path.basename(trace_path)
        runs.append(rep)
    summary.update(skipped=False, truncation=M_run, runs=runs)
    return summary, None


def stage_averaging(
    cfg: RunConfig, outdir: str, ann: SparseAnnulus | None
) -> tuple[dict, None]:
    if ann is None:
        return {"skipped": True, "reason": "no sparse annulus was certified"}, None
    params = cfg.spectral_params()
    rng = np.random.default_rng(cfg.seed)
    samples = draw_averaging_samples(params, cfg.samples, rng)
    try:
        report = check_averaging(samples, ann, params, seed=cfg.seed)
    except ValueError as exc:
        return {"skipped": True, "reason": str(exc)}, None
    csv_path = os.path.join(outdir, "averaging_norms.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,norm,within_bound\n")
        for (i, n), ok in zip(report.sampled_norms, report.pass_flags):
            fh.write(f"{i},{n:.17g},{int(ok)}\n")
    out = report.to_dict()
    out["skipped"] = False
    out["norms_csv"] = os.path.basename(csv_path)
    return out, None


# ---------------------------------------------------------------------------
# command wiring


def _stage_table() -> dict[str, tuple]:
    """Stage name -> (stage function, the stages whose products it takes).

    Listed in dependency order.  Built at call time, so each function is the
    module's current binding and a tracer that rebinds stage_* sees the call.
    """
    return {
        "gaps": (stage_gaps, ()),
        "sparse": (stage_sparse, ()),
        "strips": (stage_strips, ()),
        "simulate": (stage_simulate, ()),
        "cone": (stage_cone, ("sparse",)),
        "averaging": (stage_averaging, ("sparse",)),
    }


PIPELINE_STAGES = tuple(_stage_table())


def _run_stages(cfg: RunConfig, outdir: str, names, table: dict) -> dict[str, dict]:
    """Run the named stages in table order; return their summaries by name."""
    summaries: dict[str, dict] = {}
    products: dict[str, object] = {}
    for name, (stage, deps) in table.items():
        if name in names:
            summaries[name], products[name] = stage(
                cfg, outdir, *(products[d] for d in deps)
            )
    return summaries


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--out", help="output directory (default: timestamped)")
    p.add_argument("--mu", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--integrator", choices=("eif", "imex"))
    p.add_argument("--dealias", choices=DEALIAS_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--include-nonlinear", dest="include_nonlinear",
                   choices=("true", "false"))
    p.add_argument("--record-every", dest="record_every", type=int)
    p.add_argument("--gap-limit", dest="gap_limit", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--ic-amplitude", dest="ic_amplitude", type=float)
    p.add_argument("--forcing-amplitude", dest="forcing_amplitude", type=float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypernse",
        description="Lattice searches, prepared-equation simulation, and "
        "cone/averaging diagnostics for the supercritical hyperviscous "
        "flow on the periodic plane.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lattice = sub.add_parser("lattice", help="integer lattice searches")
    lsub = lattice.add_subparsers(dest="lattice_command", required=True)
    for name, descr in (
        ("gaps", "record gaps between sums of two squares"),
        ("sparse", "search for a certified sparse annulus"),
        ("strips", "strip-union cardinality statistics"),
    ):
        lp = lsub.add_parser(name, help=descr)
        _add_override_flags(lp)
        if name == "gaps":
            lp.add_argument("--limit", type=int, help="alias for --gap-limit")
    ann = lsub.add_parser("annulus", help="list lattice points in an annulus")
    _add_override_flags(ann)
    ann.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="annulus center |j|^2")
    ann.add_argument("--k", type=float, required=True,
                     help="annulus half-width")

    for name, descr in (
        ("simulate", "integrate the prepared equation"),
        ("cone-check", "pair evolution and cone-inequality margins"),
        ("averaging-check", "restricted operator norms on a sparse annulus"),
        ("pipeline", "run all stages in dependency order"),
    ):
        p = sub.add_parser(name, help=descr)
        _add_override_flags(p)
        if name == "pipeline":
            p.add_argument(
                "--stages",
                default=",".join(PIPELINE_STAGES),
                help="comma-separated subset of: " + ", ".join(PIPELINE_STAGES),
            )
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    out = {}
    for key in _DEFAULTS:
        if hasattr(args, key):
            out[key] = getattr(args, key)
    if getattr(args, "limit", None) is not None:
        out["gap_limit"] = args.limit
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    if command == "lattice":
        command = f"lattice-{args.lattice_command}"
    try:
        cfg = resolve_config(args.config, _overrides_from_args(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    table = _stage_table()
    if command == "pipeline":
        target = None
        names = [s.strip() for s in args.stages.split(",") if s.strip()]
        unknown = [s for s in names if s not in table]
        if unknown:
            print(f"unknown stage(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        missing = [
            f"{s} requires {d}" for s in names for d in table[s][1] if d not in names
        ]
        if missing:
            print(f"stage dependency error: {'; '.join(missing)}", file=sys.stderr)
            return 2
    else:
        # lattice-gaps -> gaps, cone-check -> cone, simulate -> simulate; a
        # single command runs its stage and the stages that stage depends on
        target = command.removeprefix("lattice-").removesuffix("-check")
        names = {target, *table[target][1]} if target in table else set()

    try:
        outdir = _run_directory(args.out, command)
        if target == "annulus":  # takes --lambda/--k; no stage depends on it
            results = stage_annulus(args.lam, args.k, outdir)
        else:
            results = _run_stages(cfg, outdir, names, table)
        if target in table:
            # the target's summary is the report, its dependencies' sit alongside
            report = results.pop(target)
            report.update(results)
            results = report
        _write_json(os.path.join(outdir, f"{target or command}.json"),
                    _report(command, cfg, results))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    print(outdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

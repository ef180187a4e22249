"""Command-line pipeline: lattice searches, simulation, cone and averaging checks.

Configuration is a flat UTF-8 key=value file with # comments; command-line
flags override file values, and anything left unset falls back to documented
defaults.  The fields of RunConfig are the one list of settings: each names
one file key and one flag (--gap-limit for gap_limit), and file values and
flag values go through one parser.  A value that is not of the field's type, a
non-finite number, or one that breaks a parameter invariant exits 2 naming
the key.  Every report embeds the fully resolved configuration and the
package version so a run can be reproduced bitwise from its own output.

One table names every stage with the stages it depends on: cone and
averaging take the sparse annulus that the sparse stage certified, so a run
searches for it once.  A single command runs its stage plus the stages that
stage depends on (cone-check and averaging-check include sparse, whose
summary lands in their report); pipeline --stages runs the listed stages in
table order and exits 2 when a listed stage's dependency is not listed.

The sparse stage's annulus carries its certified projector window: lambda_N,
lambda_next and the half-width k from which cone and averaging build their
cutoff family.  The scan passes over any bin whose window is not sparse, so
neither stage has a cutoff to reject; the window_certified key of their
reports is true by construction.

Mathematical negative findings (no sparse annulus, a blow-up, negative cone
margins, averaging bound exceeded) are data: they land in the reports and
the exit status stays 0.  Only engineering failures (bad config, missing
stage dependencies, I/O) exit nonzero.

The two-thirds rule lives here alone: simulate and cone draw at M (cone at
M_run), cut the fields to the block floor(2M/3) that the two-thirds product
reads and writes, and step that block, where the padded product is the same
(Orszag 1971).

Every CSV file goes through one writer, _write_csv: a header line, then one
line per row, floats at 17 significant digits, which read back as the same
doubles.  The cone traces take TRACE_COLUMNS as their header; the field
snapshots of simulate hold the positive modes of the block.

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
    TRACE_COLUMNS,
    BlowUpError,
    SimConfig,
    cone_report,
    evolve,
    evolve_pairs,
    perturbed_copy,
)
from .lattice import (
    _NORM_BOUND,
    AnnulusFamily,
    SparseAnnulus,
    annulus_points,
    find_sparse_annulus,
    min_pairwise_distance,
    record_gaps,
    strip_statistics,
)
from .spectral import (
    CutoffFamily,
    FourierField,
    SpectralParams,
    _pairing,
    _random_coeffs,
    inner_product,
    random_field,
    sobolev_norm,
    two_thirds_limit,
    wavenumbers,
)

PERTURBATION_DELTAS = (1e-3, 1e-1)


class ConfigError(ValueError):
    """Configuration rejected; the message names the violated invariant."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one pipeline run.

    The field list is the one declaration of a setting: its name is the config
    file key and, with dashes for underscores, the --flag; its type picks the
    parser; its default applies when neither sets it.  Settings that
    SpectralParams or SimConfig own take their defaults from those classes.
    An unset s is the midpoint of (3 - 2 beta, 1/6).  Construction validates
    by building SpectralParams, SimConfig and the annulus family, and checks
    the settings that only the run reads.
    """

    mu: float = 1e4
    s: float | None = None
    beta: float = SpectralParams.beta
    nu: float = SpectralParams.nu
    rho: float = SpectralParams.rho
    M: int = SpectralParams.M
    dt: float = SimConfig.dt
    T: float = SimConfig.T
    seed: int = 0
    include_nonlinear: bool = SimConfig.include_nonlinear
    record_every: int = SimConfig.record_every
    gap_limit: int = 1_000_000
    samples: int = 8
    ic_amplitude: float = 0.5
    forcing_amplitude: float = 0.1

    def __post_init__(self) -> None:
        if self.s is None:
            object.__setattr__(self, "s", ((3.0 - 2.0 * self.beta) + 1.0 / 6.0) / 2.0)
        if self.M < 3:
            raise ValueError(f"M must be at least 3, for a stepped block floor(2M/3) >= 2, got {self.M}")
        self.spectral_params()
        self.sim_config()
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        AnnulusFamily(self.mu, self.s)
        if self.gap_limit < 2:
            raise ValueError(f"gap_limit must be >= 2, got {self.gap_limit}")
        if self.gap_limit >= _NORM_BOUND:
            raise ValueError(f"gap_limit must be below 2^52, got {self.gap_limit}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.ic_amplitude < 0 or self.forcing_amplitude < 0:
            raise ValueError("amplitudes must be nonnegative")

    def _take(self, cls):
        return cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})

    def spectral_params(self, M: int | None = None) -> SpectralParams:
        params = self._take(SpectralParams)
        return params if M is None else dataclasses.replace(params, M=M)

    def sim_config(self) -> SimConfig:
        return self._take(SimConfig)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# setting name -> declared type name ("float | None" for s reads as "float")
_TYPES = {f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: object) -> object:
    """raw (a flag or file string, or an already typed value) as key's type."""
    kind = _TYPES[key]
    text = str(raw).strip()
    if kind == "bool":
        if isinstance(raw, bool):
            return raw
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key} must be boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


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
                if key not in _TYPES:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return out


def resolve_config(
    config_path: str | None = None, overrides: dict[str, object] | None = None
) -> RunConfig:
    """Merge defaults, config file, and flag overrides, then validate.

    File values and overrides (None meaning unset) go through one parser.
    Constructing the RunConfig builds the embedded parameter objects, so their
    invariants (supercritical exponent range, sparsity exponent window,
    positive steps, a scan range below the enumerator bound) fail fast here
    with the violated constraint named in the error.
    """
    merged = {} if config_path is None else _parse_config_file(config_path)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        merged[key] = value
    values = {key: _coerce(key, value) for key, value in merged.items()}
    try:
        return RunConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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


def _strict_json(obj):
    """obj with each non-finite float replaced by the string "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    return str(float(obj)) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
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


def _write_csv(path: str, header: tuple[str, ...], rows) -> str:
    """One header line, then one line per row: floats as .17g, which reads
    back as the same double, and ints with str.  Returns the file name."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")
    return os.path.basename(path)


def _write_field_csv(path: str, u: FourierField) -> None:
    """A snapshot of u: j1, j2 and the real and imaginary parts of u1 and u2
    per lexicographically positive mode (j1 > 0, or j1 = 0 and j2 > 0), in
    lexicographic order; the conjugate modes follow from reality."""
    J1, J2, _ = wavenumbers(u.M)
    positive = (J1 > 0) | ((J1 == 0) & (J2 > 0))
    c1, c2 = u.coeffs[:, positive]
    rows = zip(J1[positive], J2[positive], c1.real, c1.imag, c2.real, c2.imag)
    _write_csv(path, ("j1", "j2", "re_u1", "im_u1", "re_u2", "im_u2"), rows)


# ---------------------------------------------------------------------------
# stages: each writes its own files and returns (summary, product): the
# JSON-ready summary for the report, and the object that the stages depending
# on it take as arguments (None when no stage depends on it)


def stage_gaps(cfg: RunConfig, outdir: str) -> tuple[dict, None]:
    records = record_gaps(cfg.gap_limit)
    rows = ((r.lower, r.upper, r.gap) for r in records)
    csv = _write_csv(os.path.join(outdir, "gap_records.csv"), ("lower", "upper", "gap"), rows)
    last = records[-1] if records else None
    return {
        "limit": cfg.gap_limit,
        "n_records": len(records),
        "largest": None
        if last is None
        else {"lower": last.lower, "upper": last.upper, "gap": last.gap},
        "csv": csv,
    }, None


def stage_annulus(lam: float, k: float, pts: np.ndarray, outdir: str) -> dict:
    """Report the points annulus_points(lam, k) returned."""
    _warn_near_integer_bounds(lam, k)
    csv = _write_csv(os.path.join(outdir, "annulus_points.csv"), ("j1", "j2"), pts)
    sep = min_pairwise_distance(pts)
    return {
        "lambda": lam,
        "k": k,
        "n_points": len(pts),
        "min_separation": sep,
        "csv": csv,
    }


def stage_sparse(cfg: RunConfig, outdir: str) -> tuple[dict, SparseAnnulus | None]:
    ann = find_sparse_annulus(cfg.mu, cfg.s)
    if ann is None:
        return {"found": False, "mu": cfg.mu, "s": cfg.s}, None
    csv = _write_csv(os.path.join(outdir, "sparse_annulus_points.csv"), ("j1", "j2"), ann.points)
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
        "csv": csv,
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
    # scaled into a new array: scaling the drawn one in place raised the cone
    # workload's peak resident memory by 0.23 MiB (the heap's layout, not the
    # live set, sets that peak)
    u = random_field(params.M, rng, divergence_free=True, decay=4.5)
    norm = sobolev_norm(u, 3.0 + params.epsilon)
    if norm > 0 and cfg.ic_amplitude > 0:
        u = u * (cfg.ic_amplitude / norm)
    return u


def _forcing_field(
    cfg: RunConfig, params: SpectralParams, rng: np.random.Generator, K: int
) -> FourierField | None:
    if cfg.forcing_amplitude == 0.0:
        return None
    c = _random_coeffs(params.M, rng, decay=5.0)
    norm = math.sqrt(_pairing(c, c))
    if norm == 0.0:
        return None
    c *= cfg.forcing_amplitude / norm
    return FourierField._wrap(params.M, c).block(K)


def stage_simulate(cfg: RunConfig, outdir: str) -> tuple[dict, None]:
    # drawn at M, stepped on its two-thirds block K
    K = two_thirds_limit(cfg.M)
    draw = cfg.spectral_params()
    rng = np.random.default_rng(cfg.seed)
    u0 = _initial_field(cfg, draw, rng).block(K)
    forcing = _forcing_field(cfg, draw, rng, K)
    params = cfg.spectral_params(M=K)
    sim = cfg.sim_config()
    _write_field_csv(os.path.join(outdir, "initial_field.csv"), u0)
    summary = {"truncation": K, "draw_truncation": cfg.M, "n_steps": sim.n_steps}
    try:
        traj = evolve(u0, forcing, params, sim)
    except BlowUpError as exc:
        summary.update(blow_up=True, message=str(exc))
        return summary, None
    _write_field_csv(os.path.join(outdir, "final_field.csv"), traj.fields[-1])
    s_norm = 3.0 + params.epsilon
    # an overflowed row is reported as a blow-up below
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [
            (t, inner_product(u, u), sobolev_norm(u, s_norm))
            for t, u in zip(traj.times, traj.fields)
        ]
    csv = _write_csv(
        os.path.join(outdir, "trajectory.csv"), ("t", "energy", "regularity_norm"), rows
    )
    # finite coefficients whose energy or norm overflows have left the range
    # of floating point all the same
    bad = [t for t, *diag in rows if not all(map(math.isfinite, diag))]
    summary.update(
        blow_up=bool(bad),
        n_recorded=len(traj),
        final_energy=rows[-1][1],
        final_regularity_norm=rows[-1][2],
        trajectory_csv=csv,
    )
    if bad:
        summary["message"] = f"non-finite energy or H^{s_norm:g} norm from t = {bad[0]:.6g}"
    return summary, None


def _cutoff_summary(ann: SparseAnnulus) -> dict:
    return {
        # the scan returns no annulus whose window fails
        "window_certified": True,
        "window_min_separation": ann.window_min_separation,
        "window_threshold": ann.certified_threshold,
        "lambda_N": ann.lambda_N,
        "lambda_next": ann.lambda_next,
        "k": ann.half_width,
        "gap": ann.lambda_next - ann.lambda_N,
        "k_over_lambda_s": ann.half_width / ann.lambda_N**ann.s,
    }


def _cone_truncations(fam: CutoffFamily) -> tuple[int, int]:
    """(M_run, K): the cone stage draws at M_run and steps the block
    K = floor(2 M_run / 3), which holds the band |j| <= sqrt(lambda_N + k)."""
    M_run = int(math.ceil(1.5 * math.sqrt(fam.lambda_N + fam.k))) + 2
    return M_run, two_thirds_limit(M_run)


def stage_cone(
    cfg: RunConfig, outdir: str, ann: SparseAnnulus | None
) -> tuple[dict, None]:
    if ann is None:
        return {"skipped": True, "reason": "no sparse annulus was certified"}, None
    fam = CutoffFamily(ann.lambda_N, ann.lambda_next, ann.half_width)
    summary: dict = {"cutoff": _cutoff_summary(ann)}
    # drawn at M_run, stepped on its two-thirds block K, which holds the band
    M_run, K = _cone_truncations(fam)
    draw = cfg.spectral_params(M=M_run)
    params = cfg.spectral_params(M=K)
    sim = cfg.sim_config()
    rng = np.random.default_rng(cfg.seed)
    u1 = _initial_field(cfg, draw, rng)
    forcing = _forcing_field(cfg, draw, rng, K)
    copies = [perturbed_copy(u1, fam, delta, rng, where="band").block(K) for delta in PERTURBATION_DELTAS]
    # hand the initial states and the forcing over without keeping them:
    # evolve_pairs frees each state after its first step, and the forcing
    # once it holds its half
    members = [u1.block(K), copies, forcing]
    del u1, copies, forcing
    failure = None
    try:
        traces = evolve_pairs(members.pop(0), members.pop(0), members.pop(), params, sim, fam)
    except BlowUpError as exc:
        # traces holds the pairs that finished before the first failed one
        traces, failure = exc.traces, str(exc)
    runs = []
    for delta, trace in zip(PERTURBATION_DELTAS, traces):
        tag = f"{delta:g}".replace(".", "p")
        cols = [getattr(trace, c) for c in TRACE_COLUMNS]
        rep = cone_report(trace)
        rep["delta"] = delta
        rep["trace_csv"] = _write_csv(
            os.path.join(outdir, f"cone_trace_delta_{tag}.csv"), TRACE_COLUMNS, zip(*cols)
        )
        runs.append(rep)
        # finite states whose diagnostics overflow have left the range of
        # floating point all the same; the first such trace names it
        bad = np.argwhere(~np.isfinite(cols).T)
        if bad.size and "message" not in summary:
            (row, col), csv = bad[0], rep["trace_csv"]
            summary.update(blow_up=True, message=f"non-finite {TRACE_COLUMNS[col]} "
                           f"in {csv} from t = {trace.t[row]:.6g}")
    if failure is not None:
        summary.update(blow_up=True, message=summary.get("message", failure))
    summary.update(
        skipped=False,
        truncation=K,
        draw_truncation=M_run,
        # the run takes whole steps, so its horizon may differ from the requested T
        n_steps=sim.n_steps,
        t_end=sim.n_steps * sim.dt,
        # nu lambda_next^beta dt: the decay exponent per step of the slowest
        # mode above the band; far above 1, the band decays to rounding in a step
        stiffness=params.nu * float(fam.lambda_next) ** params.beta * sim.dt,
        runs=runs,
    )
    return summary, None


def stage_averaging(
    cfg: RunConfig, outdir: str, ann: SparseAnnulus | None
) -> tuple[dict, None]:
    if ann is None:
        return {"skipped": True, "reason": "no sparse annulus was certified"}, None
    params = cfg.spectral_params()
    rng = np.random.default_rng(cfg.seed)
    samples = draw_averaging_samples(params, cfg.samples, rng)
    report = check_averaging(samples, ann, params, seed=cfg.seed)
    rows = ((i, n, int(ok)) for (i, n), ok in zip(report.sampled_norms, report.pass_flags))
    csv = _write_csv(
        os.path.join(outdir, "averaging_norms.csv"), ("sample_id", "norm", "within_bound"), rows
    )
    out = report.to_dict()
    out["skipped"] = False
    out["norms_csv"] = csv
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


def _override_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, declared once for parents=."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--out", help="output directory (default: timestamped)")
    # one flag per setting, parsed like a config file value by resolve_config
    for key, kind in _TYPES.items():
        p.add_argument(f"--{key.replace('_', '-')}", metavar=kind.upper())
    return p


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
    flags = [_override_flags()]

    lattice = sub.add_parser("lattice", help="integer lattice searches")
    lsub = lattice.add_subparsers(dest="lattice_command", required=True)
    for name, descr in (
        ("gaps", "record gaps between sums of two squares"),
        ("sparse", "search for a certified sparse annulus"),
        ("strips", "strip-union cardinality statistics"),
    ):
        lsub.add_parser(name, help=descr, parents=flags)
    ann = lsub.add_parser("annulus", help="list lattice points in an annulus", parents=flags)
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
        p = sub.add_parser(name, help=descr, parents=flags)
        if name == "pipeline":
            p.add_argument(
                "--stages",
                default=",".join(PIPELINE_STAGES),
                help="comma-separated subset of: " + ", ".join(PIPELINE_STAGES),
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    if command == "lattice":
        command = f"lattice-{args.lattice_command}"
    try:
        cfg = resolve_config(args.config, {key: getattr(args, key) for key in _TYPES})
        if command == "lattice-annulus":  # checks its bounds before any write
            points = annulus_points(args.lam, args.k)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    table = _stage_table()
    if command == "pipeline":
        target = None
        names = [s.strip() for s in args.stages.split(",") if s.strip()]
        if not names:
            print(f"empty stage list {args.stages!r}: name at least one of "
                  f"{', '.join(table)}", file=sys.stderr)
            return 2
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
            results = stage_annulus(args.lam, args.k, points, outdir)
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

"""Time stepping for the prepared dissipative equation and cone diagnostics.

The evolved system is

    du/dt + nu * A^beta u + B(W(u), W(u)) = f,

with A = -Laplacian acting diagonally as |j|^2 in Fourier space and W the
amplitude truncation from :mod:`hypernse.truncation`.  The linear part is
stiff, so both integrators treat it implicitly or exactly:

* ``"eif"``   integrating-factor Heun.  Coefficients are multiplied by
  exp(-nu |j|^(2 beta) dt) exactly, and the nonlinearity is advanced with a
  two-stage second-order rule.  A pure linear solve is reproduced to rounding.
* ``"imex"``  Crank-Nicolson on the linear part, Heun (explicit predictor,
  trapezoidal corrector) on the nonlinearity.

Pair evolution records the cone quantity V = ||high part||^2 - ||low part||^2
of the difference of two solutions together with its analytic time derivative,
so the contraction inequality can be checked against the trace afterwards.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    DEALIAS_MODES,
    CutoffFamily,
    FourierField,
    SpectralParams,
    apply_A_power,
    bilinear_B,
    inner_product,
    laplacian_power,
    random_field,
    sobolev_norm,
)
from .truncation import _DEFAULT_PROFILE, CutoffProfile, apply_W


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the range of floating point."""


@dataclass(frozen=True)
class SimConfig:
    """Integration settings shared by every simulation entry point.

    dt                time step
    T                 final time (number of steps is round(T / dt))
    integrator        "eif" or "imex"
    dealias           dealias route handed to bilinear_B
    seed              seed for any randomized initial data
    include_nonlinear when False the quadratic term is dropped and the flow
                      is exactly linear; used by decay and identity tests
    record_every      trajectory / trace sampling stride in steps
    """

    dt: float = 1e-3
    T: float = 0.5
    integrator: str = "eif"
    dealias: str = "two-thirds"
    seed: int = 0
    include_nonlinear: bool = True
    record_every: int = 1

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.integrator not in ("eif", "imex"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dealias not in DEALIAS_MODES:
            raise ValueError(f"unknown dealias route {self.dealias!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        n = int(round(self.T / self.dt))
        return max(n, 1)


def _B_of_W(
    u: FourierField,
    params: SpectralParams,
    config: SimConfig,
    profile: CutoffProfile,
) -> FourierField | None:
    """B(W(u), W(u)), or None when the configuration drops the nonlinearity."""
    if not config.include_nonlinear:
        return None
    w = apply_W(u, params, profile)
    return bilinear_B(w, w, dealias=config.dealias)


def _forced(b: FourierField | None, forcing: FourierField | None, M: int) -> FourierField:
    """f - b, where b = B(W(u), W(u)) or None; a missing f counts as zero."""
    if b is not None:
        out = -b
        if forcing is not None:
            out = out + forcing
        return out
    if forcing is not None:
        return forcing
    return FourierField.zeros(M)


def _nonlinear_rhs(
    u: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    profile: CutoffProfile,
) -> FourierField:
    """Everything except the dissipative term: f - B(W(u), W(u))."""
    return _forced(_B_of_W(u, params, config, profile), forcing, u.M)


def rhs_prepared(
    u: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    profile: CutoffProfile | None = None,
) -> FourierField:
    """Full right-hand side f - nu A^beta u - B(W(u), W(u))."""
    profile = profile or _DEFAULT_PROFILE
    out = _nonlinear_rhs(u, forcing, params, config, profile)
    return out - apply_A_power(u, params.beta) * params.nu


def _decay_factors(params: SpectralParams, M: int, dt: float) -> np.ndarray:
    return np.exp(-params.nu * dt * laplacian_power(M, params.beta))


def _check_finite(u: FourierField, t: float) -> None:
    if not np.all(np.isfinite(u.coeffs)):
        raise BlowUpError(f"non-finite coefficients at t = {t:.6g}")


def step(
    u: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    profile: CutoffProfile | None = None,
    *,
    n0: FourierField | None = None,
) -> FourierField:
    """Advance one time step with the integrator named in config.

    n0, when given, is f - B(W(u), W(u)) at u, for a caller that already has
    it; it must be exactly what the step would compute itself.
    """
    profile = profile or _DEFAULT_PROFILE
    dt = config.dt
    if n0 is None:
        n0 = _nonlinear_rhs(u, forcing, params, config, profile)
    if config.integrator == "eif":
        E = _decay_factors(params, u.M, dt)
        # Exact linear propagation: with v = e^{t nu A^beta} u the equation
        # becomes dv/dt = e^{t nu A^beta} N(u), and Heun in v gives
        #   u* = E (u + dt N(u)),  u+ = E u + (dt/2) (E N(u) + N(u*)).
        pred = FourierField(u.M, (u.coeffs + dt * n0.coeffs) * E)
        n1 = _nonlinear_rhs(pred, forcing, params, config, profile)
        out = FourierField(
            u.M, u.coeffs * E + 0.5 * dt * (n0.coeffs * E + n1.coeffs)
        )
    else:
        a = 0.5 * dt * params.nu * laplacian_power(u.M, params.beta)
        pred = FourierField(u.M, (u.coeffs + dt * n0.coeffs) / (1.0 + 2.0 * a))
        n1 = _nonlinear_rhs(pred, forcing, params, config, profile)
        out = FourierField(
            u.M,
            ((1.0 - a) * u.coeffs + 0.5 * dt * (n0.coeffs + n1.coeffs))
            / (1.0 + a),
        )
    return out


@dataclass
class Trajectory:
    """Sampled solution path: times[i] is the time of fields[i]."""

    times: np.ndarray
    fields: list[FourierField]

    def __len__(self) -> int:
        return len(self.fields)


def evolve(
    u0: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    profile: CutoffProfile | None = None,
) -> Trajectory:
    """Integrate from u0, sampling every record_every steps (and the endpoint)."""
    profile = profile or _DEFAULT_PROFILE
    times = [0.0]
    fields = [u0]
    u = u0
    n = config.n_steps
    # a state that overflows raises BlowUpError below, so the overflow itself
    # needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n + 1):
            u = step(u, forcing, params, config, profile)
            t = i * config.dt
            _check_finite(u, t)
            if i % config.record_every == 0 or i == n:
                times.append(t)
                fields.append(u)
    return Trajectory(np.asarray(times), fields)


# ---------------------------------------------------------------------------
# pair evolution and the cone trace

TRACE_COLUMNS = ("t", "V", "dVdt", "norm_v_sq", "alpha", "rhs_bound", "margin")


@dataclass
class ConeTrace:
    """Cone diagnostics for the difference v = u1 - u2 of two solutions.

    Per sample, with p / q the parts of v at eigenvalues <= lambda_N / above:

    V          ||q||^2 - ||p||^2
    dVdt       analytic derivative
                 -2 nu (||A^{beta/2} q||^2 - ||A^{beta/2} p||^2)
                 + 2 (F(u1) - F(u2), A^{1/2} p - A^{1/2} q)
               where F(u) = A^{-1/2} B(W(u), W(u))
    norm_v_sq  ||v||^2
    alpha      (lambda_{N+1}^beta + lambda_N^beta) / 2, the decay rate tested
    rhs_bound  -(lambda_N^{beta-1} / 8) ||v||^2
    margin     rhs_bound - (dVdt + 2 alpha V); the cone inequality
               dVdt + 2 alpha V <= rhs_bound holds iff margin >= 0
    """

    t: np.ndarray
    V: np.ndarray
    dVdt: np.ndarray
    norm_v_sq: np.ndarray
    alpha: np.ndarray
    rhs_bound: np.ndarray
    margin: np.ndarray
    lambda_N: int
    lambda_next: int
    k: float
    beta: float
    nu: float
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        cols = [getattr(self, name) for name in TRACE_COLUMNS]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for row in zip(*cols):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @classmethod
    def from_csv(cls, path, **metadata) -> "ConeTrace":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != ",".join(TRACE_COLUMNS):
                raise ValueError(f"unrecognized trace header: {header!r}")
            data = [
                [float(x) for x in line.strip().split(",")]
                for line in fh
                if line.strip()
            ]
        arr = np.asarray(data, dtype=np.float64).reshape(-1, len(TRACE_COLUMNS))
        kwargs = {
            name: arr[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)
        }
        kwargs.update(
            lambda_N=metadata.pop("lambda_N", 0),
            lambda_next=metadata.pop("lambda_next", 0),
            k=metadata.pop("k", 0.0),
            beta=metadata.pop("beta", 0.0),
            nu=metadata.pop("nu", 1.0),
            meta=metadata,
        )
        return cls(**kwargs)


def _cone_sample(
    u1: FourierField,
    u2: FourierField,
    b1: FourierField | None,
    b2: FourierField | None,
    params: SpectralParams,
    family: CutoffFamily,
    low_mask: np.ndarray,
    alpha: float,
) -> tuple[float, float, float, float, float]:
    """One trace row; b1, b2 are B(W(u), W(u)) of the members, None when the
    nonlinearity is off."""
    v = u1 - u2
    pc = v.coeffs * low_mask
    qc = v.coeffs * (1.0 - low_mask)
    p = FourierField(v.M, pc)
    q = FourierField(v.M, qc)
    norm_p2 = inner_product(p, p)
    norm_q2 = inner_product(q, q)
    V = norm_q2 - norm_p2
    diss = -2.0 * params.nu * (
        sobolev_norm(q, params.beta) ** 2 - sobolev_norm(p, params.beta) ** 2
    )
    if b1 is not None:
        f1 = apply_A_power(b1, -0.5)
        f2 = apply_A_power(b2, -0.5)
        drive = 2.0 * inner_product(
            f1 - f2, apply_A_power(p, 0.5) - apply_A_power(q, 0.5)
        )
    else:
        drive = 0.0
    dVdt = diss + drive
    norm_v2 = norm_p2 + norm_q2
    rhs = -(family.lambda_N ** (params.beta - 1.0) / 8.0) * norm_v2
    margin = rhs - (dVdt + 2.0 * alpha * V)
    return V, dVdt, norm_v2, rhs, margin


def evolve_pair(
    u1_0: FourierField,
    u2_0: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    family: CutoffFamily,
    profile: CutoffProfile | None = None,
) -> ConeTrace:
    """Co-evolve two solutions and record the cone diagnostics of u1 - u2.

    Both solutions see the same forcing and the same integrator settings; the
    diagnostic nonlinearity is evaluated through the same dealias route as the
    stepper so the recorded derivative matches the discrete flow.
    """
    if u1_0.M != u2_0.M:
        raise ValueError("pair members must share a truncation")
    profile = profile or _DEFAULT_PROFILE
    M = u1_0.M
    low_mask = family.low.mask(M).astype(np.float64)
    alpha = 0.5 * (
        float(family.lambda_next) ** params.beta
        + float(family.lambda_N) ** params.beta
    )
    # B(W(u), W(u)) is evaluated once per member and state: the trace row and
    # the next step's f - B share it, and only that one field is held between
    # steps
    u1, u2 = u1_0, u2_0
    b1 = _B_of_W(u1, params, config, profile)
    b2 = _B_of_W(u2, params, config, profile)
    rows = [(0.0,) + _cone_sample(u1, u2, b1, b2, params, family, low_mask, alpha)]
    n = config.n_steps
    # as in evolve: an overflowed state raises BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n + 1):
            u1 = step(u1, forcing, params, config, profile, n0=_forced(b1, forcing, M))
            u2 = step(u2, forcing, params, config, profile, n0=_forced(b2, forcing, M))
            t = i * config.dt
            _check_finite(u1, t)
            _check_finite(u2, t)
            b1 = _B_of_W(u1, params, config, profile)
            b2 = _B_of_W(u2, params, config, profile)
            if i % config.record_every == 0 or i == n:
                rows.append(
                    (t,) + _cone_sample(u1, u2, b1, b2, params, family, low_mask, alpha)
                )
    arr = np.asarray(rows, dtype=np.float64)
    return ConeTrace(
        t=arr[:, 0],
        V=arr[:, 1],
        dVdt=arr[:, 2],
        norm_v_sq=arr[:, 3],
        alpha=np.full(arr.shape[0], alpha),
        rhs_bound=arr[:, 4],
        margin=arr[:, 5],
        lambda_N=family.lambda_N,
        lambda_next=family.lambda_next,
        k=family.k,
        beta=params.beta,
        nu=params.nu,
    )


def cone_report(trace: ConeTrace) -> dict:
    """Summarize a cone trace: worst margin, where, and the symbolic gap check.

    The linear part of the inequality reduces to
    lambda_{N+1}^beta - lambda_N^beta >= lambda_N^{beta-1} / 8, which is
    checked symbolically from the metadata; the trace margins account for the
    nonlinear drive as well.  A sample whose pair difference is exactly zero
    (norm_v_sq == 0, e.g. absorbed by rounding into overflow-scale fields)
    carries no evidence: it is counted in degenerate_samples and never as
    satisfied.
    """
    worst = int(np.argmin(trace.margin))
    lam_n = float(trace.lambda_N)
    lam_next = float(trace.lambda_next)
    linear_gap_ok = bool(
        lam_next ** trace.beta - lam_n ** trace.beta
        >= lam_n ** (trace.beta - 1.0) / 8.0
    )
    degenerate = trace.norm_v_sq == 0.0
    satisfied = (trace.margin >= 0.0) & ~degenerate
    return {
        "n_samples": int(trace.t.size),
        "min_margin": float(trace.margin[worst]),
        "worst_time": float(trace.t[worst]),
        "fraction_satisfied": float(np.mean(satisfied)),
        "all_satisfied": bool(np.all(satisfied)),
        "degenerate_samples": int(np.count_nonzero(degenerate)),
        "linear_gap_ok": linear_gap_ok,
        "lambda_N": int(trace.lambda_N),
        "lambda_next": int(trace.lambda_next),
        "alpha": float(trace.alpha[0]) if trace.alpha.size else 0.0,
    }


# ---------------------------------------------------------------------------
# tracking and absorption

# leading share of the samples treated as transient: dropped from the tracking
# rate fit, and ignored by the absorbing-radius estimate
TRACKING_SKIP_FRACTION = 0.2
ABSORBING_TRANSIENT_FRACTION = 0.5


def tracking_distance(traj_a: Trajectory, traj_b: Trajectory) -> dict:
    """Distance ||a(t) - b(t)|| along two sampled paths plus a fitted rate.

    The exponential rate is the least-squares slope of log distance over the
    samples after dropping the leading TRACKING_SKIP_FRACTION (transient).
    Samples where the distance has hit exact zero are excluded from the fit.
    """
    if len(traj_a) != len(traj_b):
        raise ValueError("trajectories have different sample counts")
    if not np.array_equal(traj_a.times, traj_b.times):
        raise ValueError("trajectories sampled at different times")
    t = traj_a.times
    d = np.array(
        [
            np.sqrt(inner_product(a - b, a - b))
            for a, b in zip(traj_a.fields, traj_b.fields)
        ]
    )
    start = int(np.floor(TRACKING_SKIP_FRACTION * d.size))
    tail_t, tail_d = t[start:], d[start:]
    keep = tail_d > 0.0
    if np.count_nonzero(keep) >= 2:
        slope, intercept = np.polyfit(tail_t[keep], np.log(tail_d[keep]), 1)
        rate = float(slope)
    else:
        rate = float("-inf")
    return {
        "times": t,
        "distances": d,
        "rate": rate,
        "initial_distance": float(d[0]),
        "final_distance": float(d[-1]),
    }


def estimate_absorbing_radius(
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    n_samples: int = 4,
    ic_scale: float = 1.0,
    profile: CutoffProfile | None = None,
) -> float:
    """Empirical absorbing radius in the H^{3+epsilon} norm.

    Runs n_samples trajectories from randomized initial data of size about
    ic_scale and returns the largest norm observed after the transient.  Warns
    when some trajectory is still growing at the horizon, since then the
    estimate is only a lower bound.
    """
    profile = profile or _DEFAULT_PROFILE
    s_norm = 3.0 + params.epsilon
    rng = np.random.default_rng(config.seed)
    radius = 0.0
    still_growing = False
    for _ in range(n_samples):
        u0 = random_field(params.M, rng, decay=3.0)
        n0 = np.sqrt(inner_product(u0, u0))
        if n0 > 0:
            u0 = u0 * (ic_scale * rng.uniform(0.2, 1.0) / n0)
        traj = evolve(u0, forcing, params, config, profile)
        norms = np.array([sobolev_norm(u, s_norm) for u in traj.fields])
        start = int(np.floor(ABSORBING_TRANSIENT_FRACTION * norms.size))
        tail = norms[start:]
        radius = max(radius, float(np.max(tail)))
        if tail.size >= 3 and tail[-1] > 1.05 * np.min(tail):
            still_growing = True
    if still_growing:
        warnings.warn(
            "trajectory norm still growing at the time horizon; "
            "absorbing radius estimate is a lower bound",
            RuntimeWarning,
            stacklevel=2,
        )
    return radius


def perturbed_copy(
    u: FourierField,
    family: CutoffFamily,
    amplitude: float,
    rng: np.random.Generator,
    where: str = "band",
) -> FourierField:
    """Return u plus a random divergence-free perturbation of given size.

    where selects the spectral support: "band" (the certified window),
    "low" (at or below the cutoff) or "high" (above it).
    """
    selector = {
        "band": family.band,
        "low": family.low,
        "high": family.high,
    }
    try:
        proj = selector[where]
    except KeyError:
        raise ValueError(f"unknown perturbation support {where!r}") from None
    noise = random_field(u.M, rng, decay=0.0)
    mask = proj.mask(u.M).astype(np.float64)
    nc = noise.coeffs * mask
    pert = FourierField(u.M, nc)
    size = np.sqrt(inner_product(pert, pert))
    if size == 0.0:
        raise ValueError(f"no modes available for support {where!r}")
    return u + pert * (amplitude / size)

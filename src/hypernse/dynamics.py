"""Time stepping for the prepared dissipative equation and cone diagnostics.

The evolved system is

    du/dt + nu * A^beta u + B(W(u), W(u)) = f,

with A = -Laplacian acting diagonally as |j|^2 in Fourier space and W the
amplitude truncation from :mod:`hypernse.truncation`, which has one cutoff
profile; the tests build others only to test psi.  The linear part is
stiff, so both integrators treat it implicitly or exactly:

* ``"eif"``   integrating-factor Heun.  Coefficients are multiplied by
  exp(-nu |j|^(2 beta) dt) exactly, and the nonlinearity is advanced with a
  two-stage second-order rule.  A pure linear solve is reproduced to rounding.
* ``"imex"``  Crank-Nicolson on the linear part, Heun (explicit predictor,
  trapezoidal corrector) on the nonlinearity.

One time loop steps a list of members, one member at a time, and evaluates
B(W(u), W(u)) once per member and state, for the record and, as f - B, for
the next step; it keeps B until that step, and each old state and its f - B
are dropped as soon as the step has used them.  A member whose state leaves the range of floating point is
dropped with the members after it, and the loop reports it as a
BlowUpError.  The loop computes the integrator's linear factors once per
run, and a step forms its predictor and update in place, in the operation
order of the formulas, on arrays it has just created and that no one else
references, before FourierField._wrap seals them: the fields stay immutable
to every caller.  evolve runs the loop on one member and keeps the states.
evolve_pairs runs it on one reference and its copies, so the reference is
stepped once however many copies share it, and records for each pair the
cone quantity V = ||high part||^2 - ||low part||^2 of reference - copy with
its analytic time derivative, so the contraction inequality can be checked
against the trace afterwards; a trace row is read from one density
|v_hat[j]|^2 of the difference.  step is the same step for a caller that
holds only u; its fifth argument accepts None or the one profile, because
the grid-size sweep of bench/spans.py still passes CutoffProfile().
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    DEALIAS_MODES,
    CutoffFamily,
    FourierField,
    SpectralParams,
    _pairing,
    apply_A_power,
    inner_product,
    laplacian_power,
    random_field,
)
from .truncation import _PROFILE, prepared_product


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the range of floating point.  From
    evolve_pairs, traces holds the ConeTraces of the pairs before the first
    failed one."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.traces: list = []


@dataclass(frozen=True)
class SimConfig:
    """Integration settings shared by every simulation entry point.

    dt                time step
    T                 final time (number of steps is round(T / dt))
    integrator        "eif" or "imex"
    dealias           dealias route of the product B(W(u), W(u))
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
        if not np.isfinite(self.T / self.dt):
            raise ValueError(f"T / dt must be finite, got {self.T} / {self.dt}")
        if self.integrator not in ("eif", "imex"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dealias not in DEALIAS_MODES:
            raise ValueError(f"unknown dealias route {self.dealias!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        n = int(round(self.T / self.dt))
        return max(n, 1)


def _product(u: FourierField, params: SpectralParams, config: SimConfig) -> FourierField | None:
    """b = B(W(u), W(u)), or None when the nonlinearity is dropped."""
    return prepared_product(u, params, config.dealias) if config.include_nonlinear else None


def _drive(b: FourierField | None, forcing: FourierField | None, M: int) -> FourierField:
    """f - b for a b from _product; a missing f or b counts as zero."""
    if b is None:
        return FourierField.zeros(M) if forcing is None else forcing
    return -b if forcing is None else forcing - b


def rhs_prepared(
    u: FourierField, forcing: FourierField | None, params: SpectralParams, config: SimConfig
) -> FourierField:
    """Full right-hand side f - nu A^beta u - B(W(u), W(u))."""
    out = _drive(_product(u, params, config), forcing, u.M)
    return out - apply_A_power(u, params.beta) * params.nu


def _linear_factors(M: int, params: SpectralParams, config: SimConfig) -> tuple:
    """The integrator's linear factors, computed once per run: (E,) with
    E = exp(-nu dt A^beta) for "eif", (1 + 2a, 1 - a, 1 + a) with
    a = (dt / 2) nu A^beta for "imex"."""
    if config.integrator == "eif":
        return (np.exp(-params.nu * config.dt * laplacian_power(M, params.beta)),)
    a = 0.5 * config.dt * params.nu * laplacian_power(M, params.beta)
    return 1.0 + 2.0 * a, 1.0 - a, 1.0 + a


def _advance(
    u: FourierField,
    n0: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    factors: tuple,
) -> FourierField:
    """One step from u, given n0 = f - B(W(u), W(u)) at u and the run's
    _linear_factors; each update is formed in place, in the formulas' order."""
    dt = config.dt
    c = np.multiply(dt, n0.coeffs)
    c += u.coeffs
    if config.integrator == "eif":
        (E,) = factors
        # Exact linear propagation: with v = e^{t nu A^beta} u the equation
        # becomes dv/dt = e^{t nu A^beta} N(u), and Heun in v gives
        #   u* = E (u + dt N(u)),  u+ = E u + (dt/2) (E N(u) + N(u*)).
        c *= E
        n1 = _drive(_product(FourierField._wrap(u.M, c), params, config), forcing, u.M)
        c = np.multiply(n0.coeffs, E)
        c += n1.coeffs
        np.multiply(0.5 * dt, c, out=c)
        c += u.coeffs * E
        return FourierField._wrap(u.M, c)
    # u* = (u + dt N(u)) / (1 + 2a),
    # u+ = ((1 - a) u + (dt/2) (N(u) + N(u*))) / (1 + a)
    twice_a_plus_one, one_minus_a, one_plus_a = factors
    c /= twice_a_plus_one
    n1 = _drive(_product(FourierField._wrap(u.M, c), params, config), forcing, u.M)
    c = np.add(n0.coeffs, n1.coeffs)
    np.multiply(0.5 * dt, c, out=c)
    c += one_minus_a * u.coeffs
    c /= one_plus_a
    return FourierField._wrap(u.M, c)


def step(
    u: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    profile: object = None,
) -> FourierField:
    """Advance one time step with the integrator named in config; profile
    is None or the one cutoff profile (see the module docstring)."""
    if profile is not None and profile != _PROFILE:
        raise ValueError(f"the prepared equation has one cutoff profile, not {profile}")
    n0 = _drive(_product(u, params, config), forcing, u.M)
    return _advance(u, n0, forcing, params, config, _linear_factors(u.M, params, config))


def _run(
    states: list[FourierField],
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    record: Callable[[float, int, list[FourierField], list], None],
) -> BlowUpError | None:
    """Step the members of states, in place, config.n_steps times.  At t = 0,
    every record_every steps and at the end, record(t, j, states, bs) is
    called for member j as soon as its state states[j] and its
    bs[j] = B(W(u), W(u)) are at t; so are those of the members before it.

    Members advance one at a time.  Each member's b is kept until its next
    step forms f - b from it, and each old state and its f - b are dropped
    as soon as the step has used them.  A member whose state goes non-finite
    is dropped with every member after it.  The loop ends when fewer than
    min(2, len(states)) members are left, since a lone member runs by itself
    but a copy needs the member before it, and returns the BlowUpError of
    the last drop, or None.  An overflow needs no warning: a non-finite
    record is the caller's to report.  A forcing at another truncation than
    the members' is a ValueError, raised before any product."""
    n = config.n_steps
    needed = min(len(states), 2)
    M = states[0].M
    if forcing is not None and forcing.M != M:
        raise ValueError(f"forcing truncation M = {forcing.M} != member truncation M = {M}")
    factors = _linear_factors(M, params, config)
    bs: list = [None] * len(states)
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n + 1):
            for j in range(len(states)):
                if i:
                    n0 = _drive(bs[j], forcing, M)
                    bs[j] = None
                    states[j] = _advance(states[j], n0, forcing, params, config, factors)
                    del n0
                    if not np.all(np.isfinite(states[j].coeffs)):
                        del states[j:], bs[j:]
                        failure = BlowUpError(f"non-finite coefficients at t = {i * config.dt:.6g}")
                        break
                bs[j] = _product(states[j], params, config)
                if i % config.record_every == 0 or i == n:
                    record(i * config.dt, j, states, bs)
            if len(states) < needed:
                break
    return failure


@dataclass
class Trajectory:
    """Sampled solution path: times[i] is the time of fields[i]."""

    times: np.ndarray
    fields: list[FourierField]

    def __len__(self) -> int:
        return len(self.fields)


def evolve(
    u0: FourierField, forcing: FourierField | None, params: SpectralParams, config: SimConfig
) -> Trajectory:
    """Integrate from u0, sampling every record_every steps (and the endpoint)."""
    times, fields = [], []

    def keep(t, j, states, bs):
        times.append(t)
        fields.append(states[0])

    failure = _run([u0], forcing, params, config, keep)
    if failure is not None:
        raise failure
    return Trajectory(np.asarray(times), fields)


# ---------------------------------------------------------------------------
# pair evolution and the cone trace

TRACE_COLUMNS = (
    "t", "V", "dVdt", "norm_v_sq", "alpha", "rhs_bound", "margin", "norm_u_sq"
)


@dataclass
class ConeTrace:
    """Cone diagnostics for the difference v = u1 - u2 of two solutions.

    Per sample, with p / q the parts of v at eigenvalues <= lambda_N / above:

    V          ||q||^2 - ||p||^2
    dVdt       analytic derivative
                 -2 nu (||A^{beta/2} q||^2 - ||A^{beta/2} p||^2)
                 + 2 (F(u1) - F(u2), A^{1/2} p - A^{1/2} q)
               where F(u) = A^{-1/2} B(W(u), W(u)); A^{-1/2} and A^{1/2}
               cancel mode by mode, so the drive is evaluated as
               2 (B(W(u1), W(u1)) - B(W(u2), W(u2)), p - q), which equals
               the form above to rounding (1e-13 relative)
    norm_v_sq  ||v||^2
    alpha      (lambda_{N+1}^beta + lambda_N^beta) / 2, the decay rate tested
    rhs_bound  -(lambda_N^{beta-1} / 8) ||v||^2
    margin     rhs_bound - (dVdt + 2 alpha V); the cone inequality
               dVdt + 2 alpha V <= rhs_bound holds iff margin >= 0
    norm_u_sq  max(||u1||^2, ||u2||^2), the scale against which ||v||^2 is
               resolved (see cone_report)
    """

    t: np.ndarray
    V: np.ndarray
    dVdt: np.ndarray
    norm_v_sq: np.ndarray
    alpha: np.ndarray
    rhs_bound: np.ndarray
    margin: np.ndarray
    norm_u_sq: np.ndarray
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
) -> tuple[float, float, float, float, float, float]:
    """One trace row (V, dVdt, norm_v_sq, rhs_bound, margin, norm_u_sq); b1,
    b2 are B(W(u), W(u)) of the members, None when the nonlinearity is off.
    ||p||^2, ||q||^2 and (weighted by |j|^{2 beta}) their A^{beta/2} norms are
    dot products of one density |v_hat[j]|^2 of v = u1 - u2 with the masks;
    the drive 2 (b1 - b2, p - q) is one real pairing with v (2 low - 1)."""
    v = u1.coeffs - u2.coeffs
    w = v.view(np.float64).reshape(2, *low_mask.shape, 2)
    dens = np.einsum("ijkl,ijkl->jk", w, w)
    high = 1.0 - low_mask
    norm_p2, norm_q2 = _pairing(dens, low_mask), _pairing(dens, high)
    V = norm_q2 - norm_p2
    dens *= laplacian_power(u1.M, params.beta)
    diss = -2.0 * params.nu * (_pairing(dens, high) - _pairing(dens, low_mask))
    if b1 is not None:
        v *= low_mask - high
        drive = 2.0 * _pairing(b1.coeffs - b2.coeffs, v)
    else:
        drive = 0.0
    dVdt = diss + drive
    norm_v2 = norm_p2 + norm_q2
    rhs = -(family.lambda_N ** (params.beta - 1.0) / 8.0) * norm_v2
    margin = rhs - (dVdt + 2.0 * alpha * V)
    norm_u2 = max(inner_product(u1, u1), inner_product(u2, u2))
    return V, dVdt, norm_v2, rhs, margin, norm_u2


def evolve_pairs(
    reference: FourierField,
    copies: list[FourierField],
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    family: CutoffFamily,
) -> list[ConeTrace]:
    """Co-evolve reference and its copies; one ConeTrace of the cone
    diagnostics of reference - copy per copy.

    All members see the same forcing and the same integrator settings, and
    the reference is stepped once for every copy; the diagnostic nonlinearity
    is evaluated through the same dealias route as the stepper so the
    recorded derivative matches the discrete flow.  A copy that goes
    non-finite fails its pair and every later one, a failed reference fails
    them all, and the other pairs are stepped to the end; then BlowUpError
    names the time at which the first failed pair failed, and its traces are
    those of the pairs before it.  The function keeps no initial state past
    the first step, so a caller that hands them over without keeping its own
    references gets their memory back.
    """
    if not copies:
        raise ValueError("evolve_pairs needs at least one copy")
    if any(u.M != reference.M for u in copies):
        raise ValueError("pair members must share a truncation")
    low_mask = family.low.mask(reference.M).astype(np.float64)
    alpha = 0.5 * (
        float(family.lambda_next) ** params.beta
        + float(family.lambda_N) ** params.beta
    )
    rows = [[] for _ in copies]
    states = [reference, *copies]
    del reference, copies

    def sample(t, j, states, bs):
        if j:
            rows[j - 1].append(
                (t,) + _cone_sample(states[0], states[j], bs[0], bs[j], params, family, low_mask, alpha)
            )

    failure = _run(states, forcing, params, config, sample)
    # a row is t and _cone_sample's values: every column but the constant alpha
    names = [c for c in TRACE_COLUMNS if c != "alpha"]
    traces = []
    # after a failure, states holds the reference and the copies before the
    # first failed one, or nothing when the reference failed
    for pair_rows in rows[: max(len(states) - 1, 0)]:
        arr = np.asarray(pair_rows, dtype=np.float64)
        traces.append(ConeTrace(
            **dict(zip(names, arr.T)),
            alpha=np.full(arr.shape[0], alpha),
            lambda_N=family.lambda_N,
            lambda_next=family.lambda_next,
            k=family.k,
            beta=params.beta,
            nu=params.nu,
        ))
    if failure is not None:
        failure.traces = traces
        raise failure
    return traces


def cone_report(trace: ConeTrace) -> dict:
    """Summarize a cone trace: worst margin, where, and the symbolic gap check.

    The linear part of the inequality reduces to
    lambda_{N+1}^beta - lambda_N^beta >= lambda_N^{beta-1} / 8, which is
    checked symbolically from the metadata; the trace margins account for the
    nonlinear drive as well.  A sample whose pair difference is not resolved
    against the pair members, norm_v_sq <= eps^2 norm_u_sq with eps the
    float64 machine epsilon, carries no evidence: the difference is rounding
    noise of the members (or exactly zero, e.g. absorbed into overflow-scale
    fields).  It is counted in degenerate_samples and never as satisfied, and
    min_margin and worst_time are taken over the other rows only (None when
    every row is degenerate).
    """
    lam_n = float(trace.lambda_N)
    lam_next = float(trace.lambda_next)
    linear_gap_ok = bool(
        lam_next ** trace.beta - lam_n ** trace.beta
        >= lam_n ** (trace.beta - 1.0) / 8.0
    )
    eps = np.finfo(np.float64).eps
    degenerate = trace.norm_v_sq <= eps * eps * trace.norm_u_sq
    satisfied = (trace.margin >= 0.0) & ~degenerate
    resolved = np.flatnonzero(~degenerate)
    worst = resolved[np.argmin(trace.margin[resolved])] if resolved.size else None
    return {
        "n_samples": int(trace.t.size),
        "min_margin": None if worst is None else float(trace.margin[worst]),
        "worst_time": None if worst is None else float(trace.t[worst]),
        "fraction_satisfied": float(np.mean(satisfied)),
        "all_satisfied": bool(np.all(satisfied)),
        "degenerate_samples": int(np.count_nonzero(degenerate)),
        "linear_gap_ok": linear_gap_ok,
        "lambda_N": int(trace.lambda_N),
        "lambda_next": int(trace.lambda_next),
        "alpha": float(trace.alpha[0]) if trace.alpha.size else 0.0,
    }


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

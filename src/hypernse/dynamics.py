"""Time stepping for the prepared dissipative equation and cone diagnostics.

The evolved system is

    du/dt + nu * A^beta u + B(W(u), W(u)) = f,

with A = -Laplacian acting diagonally as |j|^2 in Fourier space and W the
amplitude truncation from :mod:`hypernse.truncation`, with its one fixed
cutoff profile.  The linear part is
stiff, so the integrator propagates it exactly: integrating-factor Heun
multiplies the coefficients by exp(-nu |j|^(2 beta) dt) and advances the
nonlinearity with a two-stage second-order rule, so a pure linear solve is
reproduced to rounding.  B is truncation's one product, over the whole
truncation M; a caller that wants the two-thirds rule steps the block
floor(2M/3) of its fields, as cli does.

One time loop steps a list of members, one member at a time, on the
coefficient arrays of the fields: each state, its B(W(u), W(u)) and the
forcing are halves (2, 2M+1, M+1), the layout of a field (spectral), so the
loop takes each member's coefficients as they are and wraps each recorded
state as a field.  The loop evaluates B(W(u), W(u)) once per member and
state, for the record and, as f - B, for the next step; it keeps B until that
step, which forms f - B in B's own array, and each old state and its f - B
are dropped as soon as the step has used them.  With the product off, f - B
is the forcing's coefficients themselves, which nothing writes.  A member
whose state leaves the range of floating point is dropped with the members
after it, and the loop reports it as a BlowUpError.  The loop computes the
integrating factor once per run, and a step forms its predictor and update
in place, in the operation order of the formulas, on arrays the loop owns:
a product it has just formed, or an array the step has just created; no
state is written once made.
evolve runs the loop on one member and keeps the states.  evolve_pairs runs
it on one reference and its copies, so the reference is stepped once however
many copies share it, and records for each pair the cone quantity
V = ||high part||^2 - ||low part||^2 of reference - copy with its analytic
time derivative, so the contraction inequality can be checked against the
trace afterwards; a trace row is read from one density |v_hat[j]|^2 of the
difference, weighted 1 on the column j2 = 0 and 2 beyond it, which counts
each mode j2 > 0 with its conjugate.  step is the same step for a caller that
holds only u; its fifth argument is None or CutoffProfile(), which is
always the one profile, kept because the grid-size sweep of bench/spans.py
passes it; anything else is refused.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .spectral import (
    CutoffFamily,
    FourierField,
    SpectralParams,
    _field_pairing,
    _pairing,
    _random_coeffs,
    apply_A_power,
    laplacian_power,
)
from .truncation import _PROFILE, _prepared_half


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
    include_nonlinear when False the quadratic term is dropped and the flow
                      is exactly linear; used by decay and identity tests
    record_every      trajectory / trace sampling stride in steps
    """

    dt: float = 1e-3
    T: float = 0.5
    include_nonlinear: bool = True
    record_every: int = 1

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not np.isfinite(self.T / self.dt):
            raise ValueError(f"T / dt must be finite, got {self.T} / {self.dt}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        n = int(round(self.T / self.dt))
        return max(n, 1)


def _product(h: np.ndarray, params: SpectralParams, config: SimConfig) -> np.ndarray | None:
    """b = B(W(u), W(u)) for the coefficients h of u, or None when the
    nonlinearity is dropped."""
    return _prepared_half(h, params) if config.include_nonlinear else None


def _drive(b: np.ndarray | None, forcing: np.ndarray | None, shape: tuple) -> np.ndarray:
    """f - b for a b from _product, formed in b's own array; a missing f or b
    counts as zero.  Without b it is new zeros or the forcing itself, which
    the caller must not write."""
    if b is None:
        return np.zeros(shape, dtype=np.complex128) if forcing is None else forcing
    return np.negative(b, out=b) if forcing is None else np.subtract(forcing, b, out=b)


def _forcing_coeffs(forcing: FourierField | None, M: int) -> np.ndarray | None:
    """The coefficients of a forcing for members at truncation M; a forcing
    at another truncation is a ValueError."""
    if forcing is None:
        return None
    if forcing.M != M:
        raise ValueError(f"forcing truncation M = {forcing.M} != member truncation M = {M}")
    return forcing.coeffs


def rhs_prepared(
    u: FourierField, forcing: FourierField | None, params: SpectralParams, config: SimConfig
) -> FourierField:
    """Full right-hand side f - nu A^beta u - B(W(u), W(u))."""
    out = _drive(_product(u.coeffs, params, config), _forcing_coeffs(forcing, u.M), u.coeffs.shape)
    return FourierField._wrap(u.M, out) - apply_A_power(u, params.beta) * params.nu


def _linear_factor(M: int, params: SpectralParams, config: SimConfig) -> np.ndarray:
    """E = exp(-nu dt A^beta), computed once per run."""
    lam = laplacian_power(M, params.beta)
    # the exponent is 0 at j = 0, where -nu dt overflowed to -inf would give
    # -inf * 0 = NaN; elsewhere -nu dt |j|^(2 beta) may overflow to -inf,
    # whose exp, 0, is the exact decay
    x = np.zeros(lam.shape)
    with np.errstate(over="ignore"):
        np.multiply(-params.nu * config.dt, lam, out=x, where=lam > 0)
    return np.exp(x)


def _advance(
    u: np.ndarray,
    n0: np.ndarray,
    forcing: np.ndarray | None,
    params: SpectralParams,
    config: SimConfig,
    E: np.ndarray,
) -> np.ndarray:
    """One step from the state u, given n0 = f - B(W(u), W(u)) at u and the
    run's _linear_factor E; each update is formed in place, in the formulas'
    order, and returned as a new array.  n0 is not written: it is the forcing
    itself when the product is off.  Forming the update in n0's array, or in
    the predictor's once the product has read it, raised the cone workload's
    peak resident memory by 0.5 to 0.75 MiB: the heap's layout, not the live
    set, sets that peak.

    Exact linear propagation: with v = e^{t nu A^beta} u the equation becomes
    dv/dt = e^{t nu A^beta} N(u), and Heun in v gives
      u* = E (u + dt N(u)),  u+ = E u + (dt/2) (E N(u) + N(u*))."""
    dt = config.dt
    c = np.multiply(dt, n0)
    c += u
    c *= E
    n1 = _drive(_product(c, params, config), forcing, u.shape)
    c = np.multiply(n0, E)
    c += n1
    np.multiply(0.5 * dt, c, out=c)
    c += u * E
    return c


def step(
    u: FourierField,
    forcing: FourierField | None,
    params: SpectralParams,
    config: SimConfig,
    profile: object = None,
) -> FourierField:
    """Advance one time step; profile is None or CutoffProfile(), the one
    cutoff profile (see the module docstring)."""
    if profile is not None and profile != _PROFILE:
        raise ValueError(f"the prepared equation has one cutoff profile, not {profile}")
    f = _forcing_coeffs(forcing, u.M)
    n0 = _drive(_product(u.coeffs, params, config), f, u.coeffs.shape)
    return FourierField._wrap(u.M, _advance(u.coeffs, n0, f, params, config, _linear_factor(u.M, params, config)))


def _run(
    states: list,
    forcing: np.ndarray | None,
    params: SpectralParams,
    config: SimConfig,
    record: Callable[[float, int, list[np.ndarray], list], None],
) -> BlowUpError | None:
    """Step the members of states, in place, config.n_steps times, under the
    forcing coefficients from _forcing_coeffs: the FourierFields in states
    are replaced by their coefficients, and every later state is such an
    array.  At t = 0, every record_every steps and at the end,
    record(t, j, states, bs) is called for member j as soon as its state
    states[j] and its bs[j] = B(W(u), W(u)) are at t; so are those of the
    members before it.  A record may read these arrays, and keep the states,
    which no step writes, but not the products: the loop writes f - b into b.

    Members advance one at a time.  Each member's b is kept until its next
    step forms f - b in it, and each old state and its f - b are dropped as
    soon as the step has used them.  A member whose state goes non-finite
    is dropped with every member after it.  The loop ends when fewer than
    min(2, len(states)) members are left, since a lone member runs by itself
    but a copy needs the member before it, and returns the BlowUpError of
    the last drop, or None.  An overflow needs no warning: a non-finite
    record is the caller's to report."""
    n = config.n_steps
    needed = min(len(states), 2)
    M = states[0].M
    for j, u in enumerate(states):
        states[j] = u.coeffs
    del u  # a field no caller keeps is freed here, and its array by its first step
    E = _linear_factor(M, params, config)
    bs: list = [None] * len(states)
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n + 1):
            for j in range(len(states)):
                if i:
                    n0 = _drive(bs[j], forcing, states[j].shape)
                    bs[j] = None
                    states[j] = _advance(states[j], n0, forcing, params, config, E)
                    del n0
                    if not np.all(np.isfinite(states[j])):
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
    times, fields, M = [], [], u0.M

    def keep(t, j, states, bs):
        times.append(t)
        fields.append(FourierField._wrap(M, states[0]))

    failure = _run([u0], _forcing_coeffs(forcing, M), params, config, keep)
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
    beta: float


def _cone_masks(M: int, params: SpectralParams, family: CutoffFamily) -> tuple[np.ndarray, ...]:
    """The arrays a cone trace row reads, built once per run: the low and
    high masks weighted 1 on the column j2 = 0 and 2 beyond it, where each
    mode stands for itself and its conjugate, the sign mask low - high and
    the symbol |j|^{2 beta}."""
    low = family.mask(M, "low")
    weight = np.full(low.shape, 2.0)
    weight[:, 0] = 1.0
    low = weight * low
    high = weight - low
    return low, high, low - high, laplacian_power(M, params.beta)


def _masked_sum(dens: np.ndarray, mask: np.ndarray) -> float:
    """sum dens * mask, pairwise: at mu = 1e4 the margin is about 4e-4 of the
    2 alpha V it is taken from, so one unit in the last place of V moves it
    by several 1e-13 of itself, and a sum in one pass (_pairing) rounds V by
    more than a pairwise one."""
    return float(np.sum(dens * mask))


def _cone_sample(
    h1: np.ndarray,
    h2: np.ndarray,
    b1: np.ndarray | None,
    b2: np.ndarray | None,
    params: SpectralParams,
    family: CutoffFamily,
    masks: tuple[np.ndarray, ...],
    alpha: float,
) -> tuple[float, float, float, float, float, float]:
    """One trace row (V, dVdt, norm_v_sq, rhs_bound, margin, norm_u_sq) from
    the coefficients h1, h2 of the members; b1, b2 are those of their
    B(W(u), W(u)), None when the nonlinearity is off, and masks is
    _cone_masks of the run.  ||p||^2, ||q||^2 and (weighted by |j|^{2 beta})
    their A^{beta/2} norms are sums of one density |v_hat[j]|^2 of
    v = u1 - u2 times the weighted masks; the drive 2 (b1 - b2, p - q) is one
    real pairing with v times the sign mask."""
    low, high, sign, lam = masks
    v = h1 - h2
    w = v.view(np.float64).reshape(*v.shape, 2)
    dens = np.einsum("ijkl,ijkl->jk", w, w)
    norm_p2, norm_q2 = _masked_sum(dens, low), _masked_sum(dens, high)
    V = norm_q2 - norm_p2
    dens *= lam
    diss = -2.0 * params.nu * (_masked_sum(dens, high) - _masked_sum(dens, low))
    if b1 is not None:
        v *= sign
        drive = 2.0 * _pairing(b1 - b2, v)
    else:
        drive = 0.0
    dVdt = diss + drive
    norm_v2 = norm_p2 + norm_q2
    rhs = -(family.lambda_N ** (params.beta - 1.0) / 8.0) * norm_v2
    margin = rhs - (dVdt + 2.0 * alpha * V)
    norm_u2 = max(_field_pairing(h1, h1), _field_pairing(h2, h2))
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

    All members see the same forcing and the same step settings, and
    the reference is stepped once for every copy; the diagnostic nonlinearity
    is the stepper's own product, so the recorded derivative matches the
    discrete flow.  A copy that goes
    non-finite fails its pair and every later one, a failed reference fails
    them all, and the other pairs are stepped to the end; then BlowUpError
    names the time at which the first failed pair failed, and its traces are
    those of the pairs before it.  The function keeps no initial state past
    its first step, so a caller that hands the members over without keeping
    its own references gets their memory back.
    """
    if not copies:
        raise ValueError("evolve_pairs needs at least one copy")
    if any(u.M != reference.M for u in copies):
        raise ValueError("pair members must share a truncation")
    forcing = _forcing_coeffs(forcing, reference.M)
    masks = _cone_masks(reference.M, params, family)
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
                (t,) + _cone_sample(states[0], states[j], bs[0], bs[j], params, family, masks, alpha)
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
            beta=params.beta,
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

    where selects the spectral support, a part of CutoffFamily.mask: "band"
    (the certified window), "low" (at or below the cutoff) or "high" (above
    it).
    """
    # in place: at the cone stage's draw truncation every temporary adds to
    # the run's peak memory
    c = _random_coeffs(u.M, rng)
    c *= family.mask(u.M, where)
    size = np.sqrt(_field_pairing(c, c))
    if size == 0.0:
        raise ValueError(f"no modes available for support {where!r}")
    c *= amplitude / size
    c += u.coeffs
    return FourierField._wrap(u.M, c)

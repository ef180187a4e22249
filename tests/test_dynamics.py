"""Time stepping, pair evolution, cone diagnostics, long-run statistics."""

import dataclasses
import math

import numpy as np
import pytest

import hypernse.cli
import hypernse.dynamics
from hypernse import (
    BlowUpError,
    ConeTrace,
    CutoffProfile,
    FourierField,
    SimConfig,
    SpectralParams,
    apply_A_power,
    cone_report,
    evolve,
    evolve_pairs,
    inner_product,
    perturbed_copy,
    random_field,
    rhs_prepared,
    sobolev_norm,
    step,
)
from hypernse.cli import RunConfig, resolve_config
from hypernse.dynamics import TRACE_COLUMNS, _cone_masks, _cone_sample
from hypernse.lattice import find_sparse_annulus
from hypernse.spectral import CutoffFamily, laplacian_power
from hypernse.truncation import prepared_product

PARAMS = SpectralParams(M=8)
FAMILY = CutoffFamily(lambda_N=8, lambda_next=9, k=2.0)


def single_mode(j, amps, M=8) -> FourierField:
    return FourierField.from_modes(M, {tuple(j): tuple(amps)})


def shear_field(M=8) -> FourierField:
    """u = (sin x2, 0): a stationary profile once forced against dissipation."""
    return FourierField.from_modes(M, {(0, 1): (-0.5j, 0.0)})


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(record_every=0)
    with pytest.raises(ValueError, match="T / dt must be finite"):
        SimConfig(T=1e308, dt=1e-10)
    assert SimConfig(dt=1e-3, T=0.5).n_steps == 500


def test_config_rejects_a_negative_seed():
    # the seed is the run's setting: SimConfig has none, RunConfig checks it
    assert "seed" not in {f.name for f in dataclasses.fields(SimConfig)}
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).seed == 0


def test_step_takes_only_the_one_cutoff_profile():
    """step's fifth argument, which the grid-size sweep passes, is None or
    the prepared equation's profile; anything else is refused."""
    u = random_field(8, np.random.default_rng(12), decay=2.0)
    cfg = SimConfig()
    want = step(u, None, PARAMS, cfg).coeffs
    assert np.array_equal(step(u, None, PARAMS, cfg, CutoffProfile()).coeffs, want)
    with pytest.raises(ValueError, match="one cutoff profile"):
        step(u, None, PARAMS, cfg, object())


def test_integrating_factor_is_exact_on_linear_flow():
    u0 = single_mode((0, 3), (4.0 + 1.0j, 0.0))
    cfg = SimConfig(dt=1e-2, T=0.3, include_nonlinear=False)
    traj = evolve(u0, None, PARAMS, cfg)
    lam = 9.0
    for t, u in zip(traj.times, traj.fields):
        exact = u0.coeffs * math.exp(-PARAMS.nu * lam**PARAMS.beta * t)
        num = np.max(np.abs(u.coeffs - exact))
        assert num <= 1e-12 * np.max(np.abs(exact) + 1e-300)


@pytest.mark.parametrize("forced", [False, True])
def test_step_is_bitwise_the_closed_form_update(forced):
    """step against the formulas written out of place, with
    N(u) = f - B(W(u), W(u)) and E = exp(-nu dt A^beta):
      u* = E (u + dt N(u)),  u+ = E u + (dt/2) (E N(u) + N(u*))."""
    rng = np.random.default_rng(11)
    u = random_field(8, rng, decay=2.0) * 3.0
    f = random_field(8, rng, decay=3.0) * 5.0 if forced else None
    cfg = SimConfig(dt=2e-3, T=0.01)
    dt, lam = cfg.dt, laplacian_power(8, PARAMS.beta)

    def N(c):
        b = prepared_product(FourierField(8, c), PARAMS).coeffs
        return -b if f is None else f.coeffs - b

    c = u.coeffs
    E = np.exp(-PARAMS.nu * dt * lam)
    star = (c + dt * N(c)) * E
    want = c * E + 0.5 * dt * (N(c) * E + N(star))
    assert np.array_equal(step(u, f, PARAMS, cfg).coeffs, want)


def test_a_linear_forced_run_never_writes_its_forcing():
    """Without the product the step's f - b is the run's forcing itself, which
    no step may write: every recorded state is bitwise the closed form
    u+ = E u + (dt/2) (E f + f) built out of place, which a forcing written
    by one step would change in every later one."""
    rng = np.random.default_rng(14)
    u = random_field(8, rng, decay=2.0) * 3.0
    f = random_field(8, rng, decay=3.0) * 5.0
    cfg = SimConfig(dt=2e-3, T=0.008, include_nonlinear=False)
    E = np.exp(-PARAMS.nu * cfg.dt * laplacian_power(8, PARAMS.beta))
    want = [u.coeffs]
    for _ in range(cfg.n_steps):
        want.append(want[-1] * E + 0.5 * cfg.dt * (f.coeffs * E + f.coeffs))
    traj = evolve(u, f, PARAMS, cfg)
    assert len(traj) == len(want) == 5
    assert all(np.array_equal(a.coeffs, b) for a, b in zip(traj.fields, want))


def test_integrating_factor_route_is_second_order():
    rng = np.random.default_rng(0)
    u0 = random_field(8, rng, decay=4.0)
    f = random_field(8, rng, decay=6.0) * 0.1
    ref = evolve(u0, f, PARAMS, SimConfig(dt=2.5e-5, T=0.02)).fields[-1]
    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        out = evolve(u0, f, PARAMS, SimConfig(dt=dt, T=0.02)).fields[-1]
        errs.append(sobolev_norm(out - ref, 0.0))
    slope = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2, errs


def test_steady_shear_is_a_fixed_point_of_the_rhs():
    u0 = shear_field()
    forcing = apply_A_power(u0, PARAMS.beta) * PARAMS.nu
    cfg = SimConfig(dt=1e-4, T=0.01)
    r = rhs_prepared(u0, forcing, PARAMS, cfg)
    assert np.max(np.abs(r.coeffs)) <= 1e-12
    traj = evolve(u0, forcing, PARAMS, cfg)
    drift = max(np.max(np.abs(u.coeffs - u0.coeffs)) for u in traj.fields)
    assert drift <= 1e-10


def test_evolve_records_requested_samples():
    u0 = shear_field()
    cfg = SimConfig(dt=1e-3, T=0.01, record_every=3)
    traj = evolve(u0, None, PARAMS, cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.01)
    assert len(traj) == len(traj.times)
    # steps 3, 6, 9 plus endpoints
    assert list(np.round(traj.times / 1e-3).astype(int)) == [0, 3, 6, 9, 10]


def test_blow_up_raises():
    # the truncation keeps the nonlinearity bounded, so non-finite states can
    # only enter through overflow-scale forcing
    rng = np.random.default_rng(1)
    u0 = random_field(8, rng)
    f = random_field(8, rng) * 1e308
    cfg = SimConfig(dt=1.0, T=3.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError):
        evolve(u0, f, PARAMS, cfg)


def test_blow_up_of_one_pair_member_raises():
    # only the member holding a coefficient near the float maximum leaves the
    # range at the first step: u + dt (f - B) overflows at j = (0, 1)
    params = SpectralParams(M=8, nu=1e-12)
    rng = np.random.default_rng(2)
    small = random_field(8, rng, decay=4.0) * 1e-3
    big = small + single_mode((0, 1), (1.7e308, 0.0))
    other = small * 2.0
    forcing = single_mode((0, 1), (1e307, 0.0))
    cfg = SimConfig(dt=1.0, T=2.0)
    # a failed reference fails every pair, a failed first copy the later ones
    for reference, copies in ((small, [big]), (big, [small]), (big, [other, small]), (small, [big, other])):
        with pytest.raises(BlowUpError, match="at t = 1$") as info:
            evolve_pairs(reference, copies, forcing, params, cfg, FAMILY)
        assert info.value.traces == []
    # a failed later copy leaves the pairs before it whole
    with pytest.raises(BlowUpError, match="at t = 1$") as info:
        evolve_pairs(small, [other, big], forcing, params, cfg, FAMILY)
    (got,) = info.value.traces
    want = evolve_pairs(small, [other], forcing, params, cfg, FAMILY)[0]
    for name in TRACE_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_evolve_pairs_checks_its_members():
    u = shear_field()
    with pytest.raises(ValueError, match="at least one copy"):
        evolve_pairs(u, [], None, PARAMS, SimConfig(T=0.002), FAMILY)
    with pytest.raises(ValueError, match="pair members must share a truncation"):
        evolve_pairs(u, [u, shear_field(M=10)], None, PARAMS, SimConfig(T=0.002), FAMILY)


def count_products(monkeypatch) -> list:
    """The list that gains one entry per product the time loop takes, at the
    loop's product entry point."""
    products = []
    real = hypernse.dynamics._prepared_half

    def counted(*args, **kwargs):
        products.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(hypernse.dynamics, "_prepared_half", counted)
    return products


@pytest.mark.parametrize("nonlinear", [True, False])
@pytest.mark.parametrize("entry", ["evolve", "evolve_pairs"])
def test_a_forcing_at_another_truncation_is_refused_before_any_product(monkeypatch, entry, nonlinear):
    products = count_products(monkeypatch)
    u = random_field(8, np.random.default_rng(5), decay=2.0)
    forcing = random_field(12, np.random.default_rng(6), decay=2.0)
    cfg = SimConfig(T=0.002, include_nonlinear=nonlinear)
    with pytest.raises(ValueError, match="forcing truncation M = 12 != member truncation M = 8"):
        if entry == "evolve":
            evolve(u, forcing, PARAMS, cfg)
        else:
            evolve_pairs(u, [u * 1.5], forcing, PARAMS, cfg, FAMILY)
    assert products == []


@pytest.mark.parametrize("entry", ["evolve", "evolve_pairs"])
@pytest.mark.parametrize("which", ["reference", "copy", "forcing"])
def test_a_field_that_is_not_real_is_refused_before_any_product(monkeypatch, entry, which):
    """A field holds the half j2 >= 0, which determines a real field; a
    full-plane array, whose modes j2 < 0 need not be the conjugates, is
    refused when the field is built, so no member or forcing that is not
    real reaches the loop."""
    products = count_products(monkeypatch)
    rng = np.random.default_rng(5)
    fields = {name: random_field(8, rng, decay=2.0) for name in ("reference", "copy", "forcing")}
    # one mode without its conjugate, on the full plane
    lopsided = np.zeros((2, 17, 17), dtype=np.complex128)
    lopsided[:, 8 + 1, 8 + 2] = 0.5
    cfg = SimConfig(T=0.002)
    with pytest.raises(ValueError, match=r"coeffs shape \(2, 17, 17\) != \(2, 17, 9\), the half j2 >= 0"):
        fields[which] = FourierField(8, lopsided)
        if entry == "evolve":
            # evolve's one member stands for the reference or the copy
            member = fields["copy" if which == "copy" else "reference"]
            evolve(member, fields["forcing"], PARAMS, cfg)
        else:
            evolve_pairs(fields["reference"], [fields["copy"]], fields["forcing"], PARAMS, cfg, FAMILY)
    assert products == []


def test_evolve_survives_a_mode_whose_scaled_amplitude_overflows():
    # W zeroes the mode (theta vanishes beyond the outer radius), so the
    # truncated nonlinearity stays bounded and the state finite
    params = SpectralParams(M=8, rho=1e-12)
    rng = np.random.default_rng(3)
    u0 = random_field(8, rng, decay=4.0) * 1e-14 + single_mode((0, 3), (1e300, 0.0))
    traj = evolve(u0, None, params, SimConfig(dt=1e-3, T=2e-3))
    assert all(np.all(np.isfinite(u.coeffs)) for u in traj.fields)


def test_determinism_bitwise():
    cfg = SimConfig(dt=1e-3, T=0.02)
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    u1 = random_field(8, rng1)
    u2 = random_field(8, rng2)
    t1 = evolve(u1, None, PARAMS, cfg)
    t2 = evolve(u2, None, PARAMS, cfg)
    for a, b in zip(t1.fields, t2.fields):
        assert np.array_equal(a.coeffs, b.coeffs)


def band_pair():
    """Two copies differing by one mode above the cutoff."""
    base = shear_field()
    q = single_mode((0, 3), (1e-3 * (1.0 + 0.5j), 0.0))
    return base + q, base


def test_pair_trace_matches_linear_decay():
    """With the nonlinearity off, V(t) = V(0) exp(-2 nu lambda^beta t)."""
    u1, u2 = band_pair()
    cfg = SimConfig(dt=1e-3, T=0.05, include_nonlinear=False)
    tr = evolve_pairs(u1, [u2], None, PARAMS, cfg, FAMILY)[0]
    lam = 9.0
    v0 = tr.V[0]
    expect = v0 * np.exp(-2.0 * PARAMS.nu * lam**PARAMS.beta * tr.t)
    assert np.max(np.abs(tr.V - expect)) <= 1e-8 * abs(v0)


def reference_pair_rows(u1, u2, forcing, params, cfg, fam):
    """Pair trace rows by plain step() calls, with B(W(u), W(u)) recomputed
    for every sample instead of shared with the next step; each row is read
    from the coefficients of the states and products."""
    M = params.M
    masks = _cone_masks(M, params, fam)
    alpha = 0.5 * (float(fam.lambda_next) ** params.beta + float(fam.lambda_N) ** params.beta)

    def row(t, a, b):
        ba = bb = None
        if cfg.include_nonlinear:
            ba = prepared_product(a, params).coeffs
            bb = prepared_product(b, params).coeffs
        return (t,) + _cone_sample(a.coeffs, b.coeffs, ba, bb, params, fam, masks, alpha)

    rows = [row(0.0, u1, u2)]
    n = cfg.n_steps
    for i in range(1, n + 1):
        u1 = step(u1, forcing, params, cfg)
        u2 = step(u2, forcing, params, cfg)
        if i % cfg.record_every == 0 or i == n:
            rows.append(row(i * cfg.dt, u1, u2))
    return np.asarray(rows)


def reference_path(u, forcing, params, cfg):
    """The recorded times and states of evolve, by plain step() calls."""
    times, fields = [0.0], [u]
    n = cfg.n_steps
    for i in range(1, n + 1):
        u = step(u, forcing, params, cfg)
        if i % cfg.record_every == 0 or i == n:
            times.append(i * cfg.dt)
            fields.append(u)
    return np.asarray(times), fields


@pytest.mark.parametrize(
    "forced, nonlinear, record_every",
    [
        (False, True, 1),
        (True, True, 3),
        (True, True, 1),
        (False, True, 3),
        (True, False, 3),
        (False, False, 1),
    ],
)
def test_evolve_pair_is_bitwise_the_plain_step_loop(forced, nonlinear, record_every):
    rng = np.random.default_rng(6)
    u2 = random_field(8, rng, decay=3.0)
    u1 = u2 + single_mode((0, 3), (1e-2, 0.0))
    forcing = random_field(8, rng, decay=4.0) * 5.0 if forced else None
    u3 = u1 + random_field(8, rng, decay=2.0) * 1e-2
    cfg = SimConfig(dt=1e-3, T=0.01, include_nonlinear=nonlinear, record_every=record_every)
    # one reference, two copies: each trace is its pair's on its own
    traces = evolve_pairs(u1, [u2, u3], forcing, PARAMS, cfg, FAMILY)
    assert len(traces) == 2
    for copy, tr in zip((u2, u3), traces):
        ref = reference_pair_rows(u1, copy, forcing, PARAMS, cfg, FAMILY)
        got = np.column_stack(
            [tr.t, tr.V, tr.dVdt, tr.norm_v_sq, tr.rhs_bound, tr.margin, tr.norm_u_sq]
        )
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
    traj = evolve(u1, forcing, PARAMS, cfg)
    times, fields = reference_path(u1, forcing, PARAMS, cfg)
    assert np.array_equal(traj.times, times)
    assert len(traj.fields) == len(fields)
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(traj.fields, fields))


def test_pair_trace_alpha_and_columns():
    u1, u2 = band_pair()
    cfg = SimConfig(dt=1e-3, T=0.01)
    tr = evolve_pairs(u1, [u2], None, PARAMS, cfg, FAMILY)[0]
    expect_alpha = 0.5 * (9.0**PARAMS.beta + 8.0**PARAMS.beta)
    assert np.all(tr.alpha == expect_alpha)
    assert tr.lambda_N == 8 and tr.lambda_next == 9
    n = len(tr.t)
    for name in ("V", "dVdt", "norm_v_sq", "alpha", "rhs_bound", "margin", "norm_u_sq"):
        assert len(getattr(tr, name)) == n


def test_pair_derivative_matches_central_difference():
    rng = np.random.default_rng(2)
    u2 = random_field(8, rng, decay=4.0) * 0.1
    u1 = u2 + single_mode((0, 3), (1e-2, 0.0))
    cfg = SimConfig(dt=5e-4, T=0.02)
    tr = evolve_pairs(u1, [u2], None, PARAMS, cfg, FAMILY)[0]
    cd = (tr.V[2:] - tr.V[:-2]) / (tr.t[2:] - tr.t[:-2])
    err = np.abs(cd - tr.dVdt[1:-1])
    scale = np.max(np.abs(tr.dVdt)) + 1e-300
    assert np.max(err) <= 5e-3 * scale


def test_cone_report_fields():
    u1, u2 = band_pair()
    cfg = SimConfig(dt=1e-3, T=0.01, include_nonlinear=False)
    tr = evolve_pairs(u1, [u2], None, PARAMS, cfg, FAMILY)[0]
    rep = cone_report(tr)
    assert rep["n_samples"] == len(tr.t)
    assert rep["lambda_N"] == 8
    assert rep["linear_gap_ok"] == (9.0**PARAMS.beta - 8.0**PARAMS.beta >= 8.0 ** (PARAMS.beta - 1.0) / 8.0)
    assert 0.0 <= rep["fraction_satisfied"] <= 1.0
    assert rep["all_satisfied"] == (rep["fraction_satisfied"] == 1.0)


def test_cone_report_worst_row_skips_degenerate_rows():
    """A rounding-noise row with the smallest margin is not the worst row."""
    ones = np.ones(4)
    tr = ConeTrace(
        t=np.array([0.0, 0.01, 0.02, 0.03]),
        V=-ones,
        dVdt=ones,
        # rows 1 and 3 are unresolved against ||u||^2 = 1
        norm_v_sq=np.array([1e-2, 1e-40, 1e-3, 0.0]),
        alpha=ones,
        rhs_bound=-ones,
        margin=np.array([0.5, 6.2e-31, 0.25, -1.0]),
        norm_u_sq=ones,
        lambda_N=8,
        lambda_next=9,
        beta=PARAMS.beta,
    )
    rep = cone_report(tr)
    assert rep["degenerate_samples"] == 2
    assert rep["min_margin"] == 0.25
    assert rep["worst_time"] == 0.02
    tr.norm_v_sq = np.zeros(4)
    rep = cone_report(tr)
    assert rep["min_margin"] is None and rep["worst_time"] is None
    assert rep["fraction_satisfied"] == 0.0


def test_perturbed_copy_supports():
    rng = np.random.default_rng(3)
    base = shear_field(M=10)
    fam = CutoffFamily(lambda_N=25, lambda_next=26, k=3.0)
    from hypernse.spectral import wavenumbers

    _, _, LAM = wavenumbers(10)
    for where, sel in (
        ("band", (LAM >= 22.0) & (LAM <= 28.0)),
        ("low", (LAM > 0) & (LAM <= 25.0)),
        ("high", LAM > 25.0),
    ):
        pert = perturbed_copy(base, fam, 1e-3, rng, where=where)
        diff = pert.coeffs - base.coeffs
        assert np.all(diff[:, ~sel] == 0.0)
        size = math.sqrt(inner_product(FourierField(10, diff), FourierField(10, diff)))
        assert size == pytest.approx(1e-3, rel=1e-9)
    with pytest.raises(ValueError, match="unknown part 'middle'"):
        perturbed_copy(base, fam, 1e-3, rng, where="middle")


def test_cone_drive_is_the_A_power_form_to_rounding():
    """A trace row against its definition, with p and q built from the masks;
    A^{-1/2} and A^{1/2} cancel mode by mode in the drive."""
    rng = np.random.default_rng(8)
    params = SpectralParams(M=16)
    fam = CutoffFamily(lambda_N=25, lambda_next=26, k=3.0)
    low_mask = fam.mask(16, "low").astype(np.float64)
    masks = _cone_masks(16, params, fam)
    alpha = 0.5 * (26.0**params.beta + 25.0**params.beta)
    pairs = []
    for _ in range(5):
        u2 = random_field(16, rng, decay=3.0) * 3.0
        pairs.append((u2 + random_field(16, rng, decay=2.0) * 0.1, u2))
    # a resolved pair whose difference barely reaches above the cutoff:
    # ||q||^2 is about 1e-8 ||p||^2
    d = random_field(16, rng, decay=2.0) * 0.1
    d_low, d_high = (FourierField(16, d.coeffs * fam.mask(16, part)) for part in ("low", "high"))
    shrink = 1e-4 * math.sqrt(inner_product(d_low, d_low) / inner_product(d_high, d_high))
    pairs.append((u2 + d_low + d_high * shrink, u2))
    for u1, u2 in pairs:
        b1, b2 = prepared_product(u1, params), prepared_product(u2, params)
        h1, h2, hb1, hb2 = (x.coeffs for x in (u1, u2, b1, b2))
        row = _cone_sample(h1, h2, hb1, hb2, params, fam, masks, alpha)
        diss = _cone_sample(h1, h2, None, None, params, fam, masks, alpha)[1]
        v = (u1 - u2).coeffs
        p = FourierField(16, v * low_mask)
        q = FourierField(16, v * (1.0 - low_mask))
        norm_p2, norm_q2 = inner_product(p, p), inner_product(q, q)
        drive = 2.0 * inner_product(
            apply_A_power(b1, -0.5) - apply_A_power(b2, -0.5),
            apply_A_power(p, 0.5) - apply_A_power(q, 0.5),
        )
        assert abs(drive) > 1e-3 * abs(diss)
        assert abs((row[1] - diss) - drive) <= 1e-13 * abs(drive)
        V = norm_q2 - norm_p2
        dvdt = drive - 2.0 * params.nu * (
            sobolev_norm(q, params.beta) ** 2 - sobolev_norm(p, params.beta) ** 2
        )
        rhs = -(25.0 ** (params.beta - 1.0) / 8.0) * (norm_p2 + norm_q2)
        want = (
            V, dvdt, norm_p2 + norm_q2, rhs, rhs - (dvdt + 2.0 * alpha * V),
            max(inner_product(u1, u1), inner_product(u2, u2)),
        )
        assert np.allclose(row, want, rtol=1e-13, atol=0.0)


def test_cone_report_counts_unresolved_differences_as_degenerate():
    u1, u2 = band_pair()
    cfg = SimConfig(dt=1e-3, T=0.003, include_nonlinear=False)
    tr = evolve_pairs(u1, [u2], None, PARAMS, cfg, FAMILY)[0]
    assert np.array_equal(
        tr.norm_u_sq,
        [max(inner_product(a, a), inner_product(b, b))
         for a, b in zip(evolve(u1, None, PARAMS, cfg).fields,
                         evolve(u2, None, PARAMS, cfg).fields)],
    )
    eps2 = np.finfo(np.float64).eps ** 2
    # hold the members and shrink the difference: at eps^2 ||u||^2 and below
    # a row is rounding noise, above it a row is evidence
    tr.norm_v_sq = tr.norm_u_sq * np.array([1.0, eps2 * 1.01, eps2, 0.0])
    tr.margin = np.ones(4)
    rep = cone_report(tr)
    assert rep["degenerate_samples"] == 2
    assert rep["fraction_satisfied"] == 0.5
    assert rep["all_satisfied"] is False


# ---------------------------------------------------------------------------
# an independent full-plane oracle of the time loop


def full_plane(h: np.ndarray) -> np.ndarray:
    """The full plane [..., j1+M, j2+M] of the real field whose half is h."""
    return np.concatenate([np.conj(h[..., ::-1, :0:-1]), h], axis=-1)


def full_plane_symbol(M: int, p: float) -> np.ndarray:
    """(|j|^2)^p on the full plane, 0 at j = 0."""
    r = np.arange(-M, M + 1, dtype=np.float64)
    lam = r[:, None] ** 2 + r**2
    return np.where(lam > 0, lam, 1.0) ** p * (lam > 0)


def oracle_states(u, forcing, params, cfg, product):
    """The recorded states of a Heun loop over full-plane coefficient arrays,
    the formulas of test_step_is_bitwise_the_closed_form_update;
    product(field) is B(W(u), W(u))."""
    M, dt = u.M, cfg.dt
    E = np.exp(-params.nu * dt * full_plane_symbol(M, params.beta))

    def N(c):
        b = full_plane(product(FourierField(M, c[:, :, M:])).coeffs)
        return -b if forcing is None else full_plane(forcing.coeffs) - b

    c = full_plane(u.coeffs)
    states = [c]
    for i in range(1, cfg.n_steps + 1):
        star = (c + dt * N(c)) * E
        c = c * E + 0.5 * dt * (N(c) * E + N(star))
        if i % cfg.record_every == 0 or i == cfg.n_steps:
            states.append(c)
    return states


def oracle_rows(u1, u2, forcing, params, cfg, fam, product):
    """Cone trace rows of the pair by the defining formulas on the full
    plane: p and q are v = u1 - u2 at and above the cutoff."""
    M, beta = u1.M, params.beta
    lam = full_plane_symbol(M, beta)
    eig = full_plane_symbol(M, 1.0)
    low = (eig > 0) & (eig <= fam.lambda_N)
    alpha = 0.5 * (float(fam.lambda_next) ** beta + float(fam.lambda_N) ** beta)
    rows = []
    for c1, c2 in zip(oracle_states(u1, forcing, params, cfg, product),
                      oracle_states(u2, forcing, params, cfg, product)):
        v = c1 - c2
        dens = np.sum(np.abs(v) ** 2, axis=0)
        norm_p2, norm_q2 = np.sum(dens[low]), np.sum(dens[~low])
        V = norm_q2 - norm_p2
        diss = -2.0 * params.nu * (np.sum((lam * dens)[~low]) - np.sum((lam * dens)[low]))
        db = (full_plane(product(FourierField(M, c1[:, :, M:])).coeffs)
              - full_plane(product(FourierField(M, c2[:, :, M:])).coeffs))
        dVdt = diss + 2.0 * np.sum(np.real(db * np.conj(np.where(low, v, -v))))
        rhs = -(fam.lambda_N ** (beta - 1.0) / 8.0) * (norm_p2 + norm_q2)
        norm_u2 = max(np.sum(np.abs(c1) ** 2), np.sum(np.abs(c2) ** 2))
        rows.append((V, dVdt, norm_p2 + norm_q2, rhs, rhs - (dVdt + 2.0 * alpha * V), norm_u2))
    return dict(zip(("V", "dVdt", "norm_v_sq", "rhs_bound", "margin", "norm_u_sq"), np.array(rows).T))


@pytest.mark.parametrize("forced", [False, True])
def test_evolve_is_bitwise_the_full_plane_oracle(forced):
    rng = np.random.default_rng(13)
    u = random_field(8, rng, decay=2.0) * 3.0
    f = random_field(8, rng, decay=3.0) * 5.0 if forced else None
    cfg = SimConfig(dt=2e-3, T=0.01, record_every=2)
    traj = evolve(u, f, PARAMS, cfg)
    want = oracle_states(u, f, PARAMS, cfg, lambda w: prepared_product(w, PARAMS))
    assert len(traj.fields) == len(want) == 4
    # the full-plane loop steps each conjugate with its mode, bit for bit
    assert all(np.array_equal(full_plane(a.coeffs), b) for a, b in zip(traj.fields, want))


def cone_stage_members():
    """The cone stage's members at mu = 1e3, where the rows after the first
    are resolved: drawn at M_run and cut to the block K."""
    cfg = resolve_config(None, {"mu": "1e3", "s": "0.15", "T": "0.005"})
    ann = find_sparse_annulus(cfg.mu, cfg.s)
    fam = CutoffFamily(ann.lambda_N, ann.lambda_next, ann.half_width)
    M_run, K = hypernse.cli._cone_truncations(fam)
    rng = np.random.default_rng(cfg.seed)
    draw = cfg.spectral_params(M=M_run)
    u1 = hypernse.cli._initial_field(cfg, draw, rng)
    forcing = hypernse.cli._forcing_field(cfg, draw, rng, K)
    copies = [perturbed_copy(u1, fam, d, rng, where="band").block(K) for d in hypernse.cli.PERTURBATION_DELTAS]
    return u1.block(K), copies, forcing, cfg.spectral_params(M=K), cfg.sim_config(), fam


def test_evolve_pairs_matches_the_full_plane_oracle():
    """The trace columns against the oracle's to 1e-12 of each column's
    largest magnitude; the half-plane row reorders the sums.  The first row
    is the dissipation of the drawn perturbation, which the first step damps
    by about e^-22, so it and the later rows, which the product drives, are
    each held to their own largest magnitude.  The oracle with its product
    set to zero is far off on the later rows of the first pair, so the
    comparison sees the product; in the second pair the damped perturbation
    still outweighs the product on the second row."""
    u1, copies, forcing, params, cfg, fam = cone_stage_members()
    traces = evolve_pairs(u1, copies, forcing, params, cfg, fam)
    for copy, tr in zip(copies, traces, strict=True):
        want = oracle_rows(u1, copy, forcing, params, cfg, fam, lambda w: prepared_product(w, params))
        for rows in (slice(0, 1), slice(1, None)):
            for name, col in want.items():
                got = getattr(tr, name)[rows]
                assert np.max(np.abs(got - col[rows])) <= 1e-12 * np.max(np.abs(col[rows])), name
    linear = oracle_rows(u1, copies[0], forcing, params, cfg, fam, lambda w: FourierField.zeros(w.M))
    later = traces[0].dVdt[1:]
    assert np.max(np.abs(later - linear["dVdt"][1:])) > 1e-6 * np.max(np.abs(later))

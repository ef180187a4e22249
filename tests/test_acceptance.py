"""End-to-end acceptance runs.

Each test exercises one numbered acceptance criterion at its stated tolerance
and records a single [PASS]/[FAIL] line, printed in the terminal summary.
The heavy certified-annulus and averaging computations are shared through
module fixtures so the whole file stays under a minute.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from hypernse import (
    FourierField,
    SimConfig,
    SpectralParams,
    apply_A_power,
    apply_W,
    apply_W_prime,
    averaging_trend,
    bilinear_B,
    check_averaging,
    draw_averaging_samples,
    evolve,
    evolve_pairs,
    find_sparse_annulus,
    inner_product,
    is_representable,
    leray_project,
    nonlinearity_F,
    nonlinearity_F_prime,
    nonlinearity_h2_bound,
    power_gap_lower_bound,
    random_field,
    record_gaps,
    rhs_prepared,
    sobolev_norm,
    strip_statistics,
    trilinear_b,
    w_image_h2_bound,
)
from hypernse.cli import main as cli_main
from hypernse.spectral import CutoffFamily, _curl_product, two_thirds_mask

S_SPARSE = 0.15
SCALES = (1.0e4, 1.0e5, 1.0e6)


@pytest.fixture
def record(request):
    def _rec(num: int, label: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}"
        if detail:
            line += f" [{detail}]"
        request.config._acceptance_lines[request.node.name] = line

    return _rec


@pytest.fixture(scope="module")
def certified_annuli():
    """The three certified sparse annuli, with search wall times."""
    out = {}
    for mu in SCALES:
        t0 = time.perf_counter()
        ann = find_sparse_annulus(mu, S_SPARSE)
        out[mu] = (ann, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def averaging_reports(certified_annuli):
    """check_averaging with 20 samples and 20 cancellation pairs per scale."""
    params = SpectralParams(M=32, s=S_SPARSE)
    reports = []
    for mu in SCALES:
        ann, _ = certified_annuli[mu]
        rng = np.random.default_rng(int(mu))
        samples = draw_averaging_samples(params, 20, rng)
        reports.append(
            check_averaging(samples, ann, params, n_cancellation_pairs=20)
        )
    return reports


def brute_min_separation(points) -> float:
    best = math.inf
    pts = points.tolist()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]))
    return best


def test_criterion_01_certified_sparse_annuli(record, certified_annuli):
    label = "sparse annulus certification at mu = 1e4, 1e5, 1e6"
    ok = True
    bits = []
    for mu in SCALES:
        ann, elapsed = certified_annuli[mu]
        if ann is None:
            ok = False
            bits.append(f"mu={mu:g}: none")
            continue
        sep = brute_min_separation(ann.points)
        thr = max(mu ** (S_SPARSE / 2.0), ann.lam ** (S_SPARSE / 2.0))
        here = sep > thr and elapsed <= 60.0
        ok = ok and here
        bits.append(
            f"mu={mu:g}: n={len(ann.points)} sep={sep:.3g} thr={thr:.3g} {elapsed:.2f}s"
        )
    record(1, label, ok, "; ".join(bits))
    assert ok, bits


def test_criterion_02_strip_hit_growth(record):
    label = "strip hit counts grow no faster than the target exponent"
    hits = [strip_statistics(mu, S_SPARSE).lattice_hits for mu in SCALES]
    slope = float(np.polyfit(np.log(SCALES), np.log(hits), 1)[0])
    target = 3.0 * S_SPARSE + 0.15
    ok = all(h > 0 for h in hits) and slope <= target
    record(2, label, ok, f"hits={hits} slope={slope:.3f} target<={target:.2f}")
    assert ok, (hits, slope)


def test_criterion_03_gap_records(record):
    label = "record gaps between sums of two squares up to 1e6"
    t0 = time.perf_counter()
    recs = record_gaps(1_000_000)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 10.0 and len(recs) > 0
    gaps = [r.gap for r in recs]
    ok = ok and all(b > a for a, b in zip(gaps, gaps[1:]))
    for r in recs:
        ok = ok and is_representable(r.lower) and is_representable(r.upper)
        ok = ok and not any(
            is_representable(n) for n in range(r.lower + 1, r.upper)
        )
    ok = ok and (recs[0].lower, recs[0].upper) == (2, 4)
    record(3, label, ok, f"{len(recs)} records, last gap {gaps[-1]}, {elapsed:.2f}s")
    assert ok


def test_criterion_04_spectral_identities(record):
    label = "projection and product identities on 100 random fields"
    rng = np.random.default_rng(4)
    worst_leray = worst_b = worst_pad = worst_tt = 0.0
    for i in range(100):
        M = 16 if i % 2 else 8
        w = random_field(M, rng, divergence_free=False)
        p1 = leray_project(w)
        p2 = leray_project(p1)
        scale = max(float(np.max(np.abs(p1.coeffs))), 1e-300)
        worst_leray = max(
            worst_leray, float(np.max(np.abs(p1.coeffs - p2.coeffs))) / scale
        )
        u = random_field(8, rng)
        v = random_field(8, rng)
        den = sobolev_norm(u, 0.0) * sobolev_norm(v, 1.0) * sobolev_norm(v, 0.0)
        worst_b = max(worst_b, abs(trilinear_b(u, v, v)) / max(den, 1e-300))
        # the kernel on the whole truncation K = M, on its padded grid
        bp = _curl_product(u.coeffs, v.coeffs)
        bd = bilinear_B(u, v, dealias="direct")
        bscale = max(float(np.max(np.abs(bd.coeffs))), 1e-300)
        worst_pad = max(
            worst_pad, float(np.max(np.abs(bp - bd.coeffs))) / bscale
        )
        btt = bilinear_B(u, v, dealias="two-thirds")
        ref = two_thirds_mask(
            bilinear_B(two_thirds_mask(u), two_thirds_mask(v), dealias="direct")
        )
        tscale = max(float(np.max(np.abs(ref.coeffs))), 1e-300)
        worst_tt = max(
            worst_tt, float(np.max(np.abs(btt.coeffs - ref.coeffs))) / tscale
        )
    ok = (
        worst_leray <= 1e-14
        and worst_b <= 1e-10
        and worst_pad <= 1e-12
        and worst_tt <= 1e-12
    )
    record(
        4,
        label,
        ok,
        f"leray={worst_leray:.1e} b(u,v,v)={worst_b:.1e} "
        f"pad={worst_pad:.1e} tt={worst_tt:.1e}",
    )
    assert ok


def test_criterion_05_power_gap_inequality(record):
    label = "eigenvalue power gap lower bound on 1e5 random triples"
    rng = np.random.default_rng(5)
    n = 100_000
    x = 10.0 ** rng.uniform(-3.0, 6.0, size=n)
    y = 10.0 ** rng.uniform(-3.0, 6.0, size=n)
    y[: n // 10] = 0.0  # include the degenerate edge
    betas = rng.uniform(1.0, 3.0, size=n)
    violations = 0
    for i in range(n):
        a, b = (x[i], y[i]) if x[i] >= y[i] else (y[i], x[i])
        lhs, rhs = power_gap_lower_bound(a, b, betas[i])
        if lhs < rhs:
            violations += 1
    ok = violations == 0
    record(5, label, ok, f"violations={violations}/{n}")
    assert ok


def test_criterion_06_truncation_identity_and_ceilings(record):
    label = "truncation identity on the ball; H2 ceilings when saturated"
    params = SpectralParams(M=8)
    s_norm = 3.0 + params.epsilon
    rng = np.random.default_rng(6)
    worst_id = 0.0
    for _ in range(1000):
        u = random_field(8, rng, decay=s_norm + 1.0)
        u = u * (params.rho * rng.uniform(0.05, 0.95) / sobolev_norm(u, s_norm))
        w = apply_W(u, params)
        scale = max(float(np.max(np.abs(u.coeffs))), 1e-300)
        worst_id = max(worst_id, float(np.max(np.abs(w.coeffs - u.coeffs))) / scale)
    wb = w_image_h2_bound(params)
    fb = nonlinearity_h2_bound(params)
    worst_w = worst_f = 0.0
    for _ in range(100):
        size = 10.0 ** rng.uniform(1.0, 3.0)
        u = random_field(8, rng, decay=1.0)
        u = u * (size * params.rho / sobolev_norm(u, s_norm))
        worst_w = max(worst_w, sobolev_norm(apply_W(u, params), 2.0))
        worst_f = max(worst_f, sobolev_norm(nonlinearity_F(u, params), 2.0))
    ok = worst_id <= 1e-13 and worst_w <= wb and worst_f <= fb
    record(
        6,
        label,
        ok,
        f"id={worst_id:.1e} W: {worst_w:.3g}<={wb:.3g} F: {worst_f:.3g}<={fb:.3g}",
    )
    assert ok


def transition_shell_field(params, rng) -> FourierField:
    """Drawn on the full plane, made real, and stored by its half."""
    M = params.M
    K = 2 * M + 1
    r = np.arange(-M, M + 1, dtype=np.float64)
    scale = (r[:, None] ** 2 + r**2) ** ((3.0 + params.epsilon) / 2.0) / params.rho
    targets = rng.uniform(1.3, 3.5, size=(2, K, K))
    phases = np.exp(2j * math.pi * rng.uniform(size=(2, K, K)))
    cc = np.zeros((2, K, K), dtype=np.complex128)
    nz = scale > 0
    cc[:, nz] = (targets * phases)[:, nz] / scale[nz]
    cc = 0.5 * (cc + np.conj(cc[:, ::-1, ::-1]))
    cc[:, M, M] = 0.0
    return leray_project(FourierField(M, cc[:, :, M:]))


def test_criterion_07_gateaux_derivatives(record):
    label = "Gateaux derivative slopes and weak-form agreement"
    params = SpectralParams(M=8)
    s_norm = 3.0 + params.epsilon
    rng = np.random.default_rng(7)
    hs = (1e-2, 1e-3, 1e-4)

    def slope(base, derivative, func):
        errs = []
        for h in hs:
            fd = (func(base + v * h) - func(base)) * (1.0 / h)
            errs.append(sobolev_norm(fd - derivative, 0.0))
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    u = transition_shell_field(params, rng)
    v = random_field(8, rng)
    v = v * (1.0 / sobolev_norm(v, s_norm))
    sw = slope(u, apply_W_prime(u, v, params), lambda x: apply_W(x, params))
    sf = slope(
        u, nonlinearity_F_prime(u, v, params), lambda x: nonlinearity_F(x, params)
    )
    worst_weak = 0.0
    for _ in range(5):
        uu = transition_shell_field(params, rng)
        vv = random_field(8, rng)
        ww = random_field(8, rng)
        strong = inner_product(
            nonlinearity_F_prime(uu, vv, params), ww
        )
        wu = apply_W(uu, params)
        dw = apply_W_prime(uu, vv, params)
        aw = apply_A_power(ww, -0.5)
        weak = trilinear_b(dw, wu, aw) + trilinear_b(wu, dw, aw)
        worst_weak = max(
            worst_weak, abs(strong - weak) / max(abs(strong), abs(weak), 1.0)
        )
    ok = 0.9 <= sw <= 1.1 and 0.9 <= sf <= 1.1 and worst_weak <= 1e-10
    record(
        7, label, ok, f"slopes W'={sw:.3f} F'={sf:.3f} weak={worst_weak:.1e}"
    )
    assert ok


def test_criterion_08_window_cancellation(record, averaging_reports):
    label = "low-frequency products cancel on every certified window"
    ok = True
    bits = []
    for rep in averaging_reports:
        worst = max(rep.cancellation_defects)
        n = len(rep.cancellation_defects)
        ok = ok and n >= 20 and worst <= 1e-13
        bits.append(f"lam={rep.lambda_N}: {n} pairs, max={worst:.1e}")
    record(8, label, ok, "; ".join(bits))
    assert ok, bits


def test_criterion_09_restricted_norm_decay(record, averaging_reports):
    label = "restricted operator norms decay across the three scales"
    trend = averaging_trend(list(averaging_reports))
    target = -S_SPARSE / 2.0 + 0.1
    ok = all(len(r.sampled_norms) >= 20 for r in averaging_reports)
    ok = ok and trend["slope"] <= target
    # the per-sample bound comparison is reported, not required
    fractions = [f"{r.pass_fraction:.2f}" for r in averaging_reports]
    record(
        9,
        label,
        ok,
        f"slope={trend['slope']:.3f} target<={target:.3f} "
        f"norms={['%.3g' % r.max_norm for r in averaging_reports]} "
        f"bound_pass={fractions}",
    )
    assert ok, trend


def test_criterion_10_pair_trace_integrity(record):
    label = "pair trace: derivative order, exact decay, fixed point"
    params = SpectralParams(M=8)
    fam = CutoffFamily(lambda_N=8, lambda_next=9, k=2.0)

    # (a) analytic dV/dt against central differences, second order in dt
    rng = np.random.default_rng(10)
    base = random_field(8, rng, decay=4.0) * 0.1
    bump = FourierField.from_modes(8, {(0, 3): (1e-2, 0.0)})
    errs = []
    dts = (2e-3, 1e-3, 5e-4)
    for dt in dts:
        cfg = SimConfig(dt=dt, T=0.04)
        tr = evolve_pairs(base + bump, [base], None, params, cfg, fam)[0]
        cd = (tr.V[2:] - tr.V[:-2]) / (tr.t[2:] - tr.t[:-2])
        errs.append(float(np.max(np.abs(cd - tr.dVdt[1:-1]))))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok_a = 1.8 <= slope <= 2.2

    # (b) a single mode above the cutoff decays at its exact linear rate
    q = FourierField.from_modes(8, {(0, 3): (0.3 + 0.1j, 0.0)})
    cfg = SimConfig(dt=1e-3, T=0.05, include_nonlinear=False)
    tr = evolve_pairs(q, [FourierField.zeros(8)], None, params, cfg, fam)[0]
    expect = tr.V[0] * np.exp(-2.0 * params.nu * 9.0**params.beta * tr.t)
    ok_b = float(np.max(np.abs(tr.V - expect))) <= 1e-8 * abs(tr.V[0])

    # (c) forced shear stays put: rhs residual and 100-step drift
    shear = FourierField.from_modes(8, {(0, 1): (-0.5j, 0.0)})
    forcing = apply_A_power(shear, params.beta) * params.nu
    cfg = SimConfig(dt=1e-4, T=0.01)
    resid = float(np.max(np.abs(rhs_prepared(shear, forcing, params, cfg).coeffs)))
    traj = evolve(shear, forcing, params, cfg)
    drift = max(float(np.max(np.abs(u.coeffs - shear.coeffs))) for u in traj.fields)
    ok_c = resid <= 1e-10 and drift <= 1e-10

    ok = ok_a and ok_b and ok_c
    record(
        10,
        label,
        ok,
        f"cd slope={slope:.3f}; decay ok={ok_b}; resid={resid:.1e} drift={drift:.1e}",
    )
    assert ok, (slope, ok_b, resid, drift)


def test_criterion_11_pipeline_determinism(record, tmp_path):
    label = "full pipeline is bitwise deterministic"
    args = [
        "pipeline",
        "--mu", "10000",
        "--beta", "1.45",
        "--s", "0.15",
        "--seed", "0",
        "--M", "12",
        "--dt", "0.001",
        "--T", "0.004",
        "--samples", "4",
        "--gap-limit", "200000",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(args + ["--out", str(out1)])
    rc2 = cli_main(args + ["--out", str(out2)])
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    same_names = names1 == names2
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names1, shallow=False)
    ok = rc1 == 0 and rc2 == 0 and same_names and not mismatch and not errors
    record(
        11,
        label,
        ok,
        f"{len(names1)} files, {len(match)} identical, mismatched={mismatch}",
    )
    assert ok, (rc1, rc2, names1, mismatch, errors)

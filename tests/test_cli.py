"""Command line entry points: config resolution, bundles, exit codes."""

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import hypernse.cli
import hypernse.dynamics
import hypernse.spectral
import hypernse.truncation
from hypernse import CutoffFamily, FourierField, evolve, evolve_pairs, find_sparse_annulus, perturbed_copy
from hypernse.cli import ConfigError, main, resolve_config
from hypernse.dynamics import TRACE_COLUMNS

# a certified annulus at mu = 50 keeps the cone run at M = 8 (drawn at 13)
SMALL = ["--mu", "50", "--s", "0.15", "--M", "8", "--T", "0.002",
         "--samples", "2", "--gap-limit", "1000"]


def test_defaults():
    cfg = resolve_config(None, {})
    assert cfg.mu == 1.0e4
    assert cfg.beta == 1.45
    assert cfg.s == pytest.approx((3.0 - 2.0 * 1.45 + 1.0 / 6.0) / 2.0)
    assert cfg.include_nonlinear is True


def test_default_values_and_types_are_pinned():
    assert [(k, v, type(v)) for k, v in resolve_config(None, {}).to_dict().items()] == [
        ("mu", 10000.0, float),
        ("s", 0.13333333333333336, float),
        ("beta", 1.45, float),
        ("nu", 1.0, float),
        ("rho", 1.0, float),
        ("M", 16, int),
        ("dt", 0.001, float),
        ("T", 0.5, float),
        ("seed", 0, int),
        ("include_nonlinear", True, bool),
        ("record_every", 1, int),
        ("gap_limit", 1000000, int),
        ("samples", 8, int),
        ("ic_amplitude", 0.5, float),
        ("forcing_amplitude", 0.1, float),
    ]


# one non-default value per setting, as a file or a flag would spell it
SETTING_STRINGS = {
    "mu": "500", "s": "0.1", "beta": "1.47", "nu": "2", "rho": "0.5",
    "M": "12", "dt": "1e-4", "T": "0.1", "seed": "3", "include_nonlinear": "no",
    "record_every": "2", "gap_limit": "1000", "samples": "3",
    "ic_amplitude": "0.25", "forcing_amplitude": "0",
}


# every subcommand, with the arguments it requires besides the setting flags
SUBCOMMANDS = (
    ["lattice", "gaps"], ["lattice", "sparse"], ["lattice", "strips"],
    ["lattice", "annulus", "--lambda", "25", "--k", "1"],
    ["simulate"], ["cone-check"], ["averaging-check"], ["pipeline"],
)


@pytest.mark.parametrize("key", sorted(SETTING_STRINGS))
def test_file_key_and_flag_resolve_alike(tmp_path, key):
    assert set(SETTING_STRINGS) == set(resolve_config(None, {}).to_dict())
    value = SETTING_STRINGS[key]
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    from_file = resolve_config(str(path), {})
    parser = hypernse.cli._build_parser()
    for command in SUBCOMMANDS:
        args = parser.parse_args(command + [f"--{key.replace('_', '-')}", value])
        from_flag = resolve_config(None, {k: getattr(args, k) for k in SETTING_STRINGS})
        assert from_file == from_flag, command
    assert from_file != resolve_config(None, {})


def test_s_tracks_overridden_beta():
    cfg = resolve_config(None, {"beta": 1.47})
    assert cfg.s == pytest.approx((3.0 - 2.0 * 1.47 + 1.0 / 6.0) / 2.0)
    # explicit s wins over the derived midpoint
    cfg2 = resolve_config(None, {"beta": 1.47, "s": 0.1})
    assert cfg2.s == 0.1


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\nmu = 500\nseed = 3\n")
    cfg = resolve_config(str(path), {})
    assert cfg.mu == 500.0 and cfg.seed == 3
    cfg = resolve_config(str(path), {"mu": 600.0})
    assert cfg.mu == 600.0 and cfg.seed == 3


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 500\nbogus = 1\n")
    with pytest.raises(ConfigError) as ei:
        resolve_config(str(path), {})
    assert "bogus" in str(ei.value)
    assert "2" in str(ei.value)  # line number


def test_invalid_parameters_name_the_invariant():
    with pytest.raises(ConfigError) as ei:
        resolve_config(None, {"beta": 1.3})
    assert "17/12" in str(ei.value)
    with pytest.raises(ConfigError) as ei:
        resolve_config(None, {"s": 0.3})
    assert "1/6" in str(ei.value)
    with pytest.raises(ConfigError):
        resolve_config(None, {"samples": 0})


def test_gaps_command_writes_bundle(tmp_path):
    out = tmp_path / "gaps"
    rc = main(["lattice", "gaps", "--gap-limit", "10000", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "gaps.json").read_text())
    assert report["command"] == "lattice-gaps"
    assert report["config"]["gap_limit"] == 10000
    lines = (out / "gap_records.csv").read_text().splitlines()
    assert lines[0] == "lower,upper,gap"
    assert lines[1] == "2,4,2"


def test_annulus_command(tmp_path):
    out = tmp_path / "ann"
    rc = main(["lattice", "annulus", "--lambda", "25", "--k", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "annulus.json").read_text())
    assert report["results"]["lambda"] == 25.0
    rows = (out / "annulus_points.csv").read_text().splitlines()
    assert rows[0] == "j1,j2"
    assert len(rows) - 1 == report["results"]["n_points"]


def test_sparse_command(tmp_path):
    out = tmp_path / "sp"
    rc = main(["lattice", "sparse", "--mu", "10000", "--s", "0.15", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "sparse.json").read_text())
    res = report["results"]
    assert res["found"] is True
    assert res["n_points"] == 16
    assert res["min_separation"] == 4.0
    assert res["lambda"] == pytest.approx(10005.97, abs=0.01)
    rows = (out / "sparse_annulus_points.csv").read_text().splitlines()
    assert len(rows) - 1 == 16


def test_simulate_command(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--M", "8",
            "--T", "0.01",
            "--dt", "0.001",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "simulate.json").read_text())
    assert report["results"]["blow_up"] is False
    # drawn at M = 8, stepped on its two-thirds block
    assert (report["results"]["truncation"], report["results"]["draw_truncation"]) == (5, 8)
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,energy,regularity_norm"
    assert len(traj) == 12  # header + 11 samples
    assert (out / "final_field.csv").exists()


def test_write_csv_floats_read_back_bit_exactly(tmp_path):
    values = (1.0 / 3.0, 5e-324, -0.0, 1e308, np.float64(0.1) * 3.0, -2.5e-310)
    name = hypernse.cli._write_csv(str(tmp_path / "x.csv"), ("i", "x"), enumerate(values))
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[0] == "i,x"
    for i, (line, x) in enumerate(zip(lines[1:], values, strict=True)):
        j, text = line.split(",")
        assert int(j) == i
        back = float(text)
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x), text


def read_field_csv(path, M: int) -> FourierField:
    """The field a snapshot holds: one row per stored mode, every mode
    j2 >= 0 of the truncation M but j = 0, each once."""
    lines = path.read_text().splitlines()
    assert lines[0] == "j1,j2,re_u1,im_u1,re_u2,im_u2"
    c = np.zeros((2, 2 * M + 1, M + 1), dtype=np.complex128)
    seen = set()
    for j1, j2, *parts in (line.split(",") for line in lines[1:]):
        x = [float(p) for p in parts]
        seen.add((int(j1), int(j2)))
        c[:, int(j1) + M, int(j2)] = complex(x[0], x[1]), complex(x[2], x[3])
    assert len(seen) == len(lines) - 1 == (2 * M + 1) * (M + 1) - 1
    return FourierField(M, c)


def simulate_states(M: int, T: str, seed: int = 0) -> tuple[FourierField, FourierField]:
    """simulate's initial and final states at M, T and seed, drawn at M and
    stepped on the block K = floor(2M/3) as stage_simulate does."""
    cfg = resolve_config(None, {"M": M, "T": T, "seed": seed})
    K = hypernse.spectral.two_thirds_limit(M)
    draw = cfg.spectral_params()
    rng = np.random.default_rng(cfg.seed)
    u0 = hypernse.cli._initial_field(cfg, draw, rng).block(K)
    forcing = hypernse.cli._forcing_field(cfg, draw, rng, K)
    return u0, evolve(u0, forcing, cfg.spectral_params(M=K), cfg.sim_config()).fields[-1]


def test_initial_field_csv_rebuilds_the_drawn_field(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--M", "8", "--T", "0.002", "--out", str(out)]) == 0
    # the field drawn at M = 8, cut to the block K = 5 that simulate steps
    u0, _ = simulate_states(8, "0.002")
    got = read_field_csv(out / "initial_field.csv", 5)
    assert np.array_equal(got.coeffs.view(np.uint64), u0.coeffs.view(np.uint64))


def test_the_snapshots_rebuild_the_stepped_states_bit_for_bit(tmp_path):
    # the column j2 = 0 of a stepped state is kept whole, rounding drift and
    # all, so the snapshot writes all of it
    out = tmp_path / "sim"
    assert main(["simulate", "--M", "24", "--T", "0.02", "--seed", "3", "--out", str(out)]) == 0
    u0, final = simulate_states(24, "0.02", seed=3)
    assert final.reality_defect() > 0.0
    for name, want in (("initial_field.csv", u0), ("final_field.csv", final)):
        got = read_field_csv(out / name, 16)
        assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64)), name


def _two_thirds_product(monkeypatch) -> None:
    """Make the time loop's product the two-thirds rule at the members' own
    truncation M: W and the product on the block K = floor(2M/3), on the
    two-thirds grid of M, embedded in zeros; the full-grid run that the cut
    runs replace."""

    def two_thirds(h, params):
        M = h.shape[-1] - 1
        K, N = hypernse.spectral._route_grid(M, "two-thirds")
        w = hypernse.truncation._truncate(h[:, M - K : M + K + 1, : K + 1], params)
        out = np.zeros(h.shape, dtype=np.complex128)
        out[:, M - K : M + K + 1, : K + 1] = hypernse.spectral._quadratic_fft(w, N)
        return out

    monkeypatch.setattr(hypernse.dynamics, "_prepared_half", two_thirds)


@pytest.mark.parametrize("M", [12, 16])
def test_the_cut_simulate_run_matches_the_full_grid_run(tmp_path, monkeypatch, M):
    # simulate's draws stepped at M with the two-thirds rule: on the block
    # K = floor(2M/3) the cut run is the same run bit for bit, since the
    # product on K transforms on the two-thirds grid N >= 3K + 1 (25 at
    # M = 12, 32 at M = 16), and the modes outside K never reach it
    cfg = resolve_config(None, {"M": M, "T": "0.05"})
    params = cfg.spectral_params()
    rng = np.random.default_rng(cfg.seed)
    u0 = hypernse.cli._initial_field(cfg, params, rng)
    forcing = hypernse.cli._forcing_field(cfg, params, rng, M)
    with monkeypatch.context() as patched:
        _two_thirds_product(patched)
        full = evolve(u0, forcing, params, cfg.sim_config()).fields[-1]
    out = tmp_path / "cut"
    assert main(["simulate", "--M", str(M), "--T", "0.05", "--out", str(out)]) == 0
    assert cfg.sim_config().n_steps == 50
    # the snapshot rows of the block, the modes the cut run steps
    hypernse.cli._write_field_csv(str(tmp_path / "full.csv"), full.block(hypernse.spectral.two_thirds_limit(M)))
    assert (out / "final_field.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_the_dealias_setting_is_gone(tmp_path, capsys):
    # one product route: neither the flag nor the file key exists
    with pytest.raises(SystemExit) as ei:
        main(["simulate", "--dealias", "padded", "--out", str(tmp_path / "x")])
    assert ei.value.code == 2
    path = tmp_path / "run.cfg"
    path.write_text("dealias = padded\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "y")]) == 2
    assert "unknown key 'dealias'" in capsys.readouterr().err


def test_simulate_at_an_overflowing_decay_rate_takes_the_exact_decay(tmp_path):
    # nu dt |j|^(2 beta) overflows to inf; exp(-inf) = 0 is the exact factor
    out = tmp_path / "stiff"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--nu", "1e308", "--T", "0.002", "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "simulate.json").read_text())["results"]
    assert results["blow_up"] is False
    assert math.isfinite(results["final_energy"]) and math.isfinite(results["final_regularity_norm"])


def test_simulate_at_an_overflowing_viscosity_step_keeps_the_zero_mode(tmp_path):
    # -nu dt itself overflows to -inf; the factor at j = 0 stays 1, not
    # exp(-inf * 0) = NaN
    out = tmp_path / "stiff"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--nu", "1e308", "--dt", "10", "--T", "10", "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "simulate.json").read_text())["results"]
    assert results["blow_up"] is False
    assert math.isfinite(results["final_energy"]) and math.isfinite(results["final_regularity_norm"])


def _strict_loads(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_simulate_reports_overflowed_diagnostics_as_blow_up(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--forcing-amplitude", "1e308", "--T", "0.01",
               "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "simulate.json").read_text())["results"]
    assert results["blow_up"] is True
    assert "non-finite" in results["message"]
    assert results["final_energy"] == "inf"


def test_an_overflowed_amplitude_scale_is_neither_an_error_nor_a_blow_up(tmp_path):
    # at rho = 1e-308, |j|^{3+eps} / rho overflows; W is 0 at the zero
    # coefficients there, not 0 * inf = NaN
    out = tmp_path / "avg"
    rc = main(["averaging-check", "--mu", "1e4", "--s", "0.15", "--rho", "1e-308",
               "--samples", "2", "--out", str(out)])
    assert rc == 0
    norms = _strict_loads((out / "averaging.json").read_text())["results"]["sampled_norms"]
    assert len(norms) == 2
    assert all(isinstance(n, float) and math.isfinite(n) for _, n in norms)
    out = tmp_path / "sim"
    rc = main(["simulate", "--M", "8", "--T", "0.002", "--rho", "1e-308", "--out", str(out)])
    assert rc == 0
    assert _strict_loads((out / "simulate.json").read_text())["results"]["blow_up"] is False


def test_reports_encode_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "r.json"
    hypernse.cli._write_json(
        str(path), {"a": math.inf, "b": [-math.inf, (math.nan, 1.5)], "c": None}
    )
    assert _strict_loads(path.read_text()) == {
        "a": "inf", "b": ["-inf", ["nan", 1.5]], "c": None
    }


def test_pipeline_stage_subset_and_bitwise_determinism(tmp_path):
    args = [
        "pipeline",
        "--mu", "10000",
        "--s", "0.15",
        "--gap-limit", "50000",
        "--stages", "gaps,sparse,strips",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names1 = sorted(os.listdir(out1))
    assert names1 == sorted(os.listdir(out2))
    assert "pipeline.json" in names1
    for name in names1:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_pipeline_rejects_unknown_stage(tmp_path):
    rc = main(["pipeline", "--stages", "gaps,nonsense", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("stages", [",", ""])
def test_pipeline_rejects_an_empty_stage_list(tmp_path, capsys, stages):
    out = tmp_path / "x"
    assert main(["pipeline", "--stages", stages, "--out", str(out)]) == 2
    assert "empty stage list" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_cone_requires_sparse(tmp_path):
    rc = main(["pipeline", "--stages", "cone", "--out", str(tmp_path / "x")])
    assert rc == 2
    rc = main(["pipeline", "--stages", "averaging", "--out", str(tmp_path / "y")])
    assert rc == 2


@pytest.mark.parametrize(
    "command", [["cone-check"], ["averaging-check"], ["pipeline"]]
)
def test_sparse_annulus_is_searched_once(tmp_path, monkeypatch, command):
    calls = []
    search = hypernse.cli.find_sparse_annulus

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(hypernse.cli, "find_sparse_annulus", counted)
    assert main(command + SMALL + ["--out", str(tmp_path / "x")]) == 0
    assert len(calls) == 1


def test_single_command_matches_pipeline_subset(tmp_path):
    single, piped = tmp_path / "single", tmp_path / "piped"
    assert main(["averaging-check"] + SMALL + ["--out", str(single)]) == 0
    assert main(["pipeline", "--stages", "sparse,averaging"] + SMALL
                + ["--out", str(piped)]) == 0
    one = json.loads((single / "averaging.json").read_text())["results"]
    both = json.loads((piped / "pipeline.json").read_text())["results"]
    assert one["skipped"] is False
    assert one.pop("sparse") == both["sparse"]
    assert one == both["averaging"]
    for name in ("averaging_norms.csv", "sparse_annulus_points.csv"):
        assert (single / name).read_bytes() == (piped / name).read_bytes()


def test_cone_check_does_not_count_a_vanished_difference(tmp_path):
    # overflow-scale forcing absorbs the pair difference: ||v||^2 is exactly 0
    # from the first step on, so those samples are no evidence for the cone
    out = tmp_path / "deg"
    rc = main(["cone-check", "--mu", "1e3", "--s", "0.15", "--T", "0.002",
               "--forcing-amplitude", "1e308", "--out", str(out)])
    assert rc == 0
    runs = json.loads((out / "cone.json").read_text())["results"]["runs"]
    assert len(runs) == 2
    for run in runs:
        assert run["n_samples"] == 3
        assert run["degenerate_samples"] == 2
        assert run["all_satisfied"] is False
        assert run["fraction_satisfied"] == pytest.approx(1.0 / 3.0)


def test_cone_check_counts_a_rounding_level_difference_as_degenerate(tmp_path):
    # at mu = 1e4 the band decays by exp(-nu lambda^beta dt) ~ e^-630 per step,
    # so after the first step ||v||^2 / ||u||^2 is below eps^2: rounding noise
    out = tmp_path / "noise"
    rc = main(["cone-check", "--mu", "1e4", "--s", "0.15", "--T", "0.002",
               "--out", str(out)])
    assert rc == 0
    runs = json.loads((out / "cone.json").read_text())["results"]["runs"]
    assert len(runs) == 2
    for run in runs:
        assert run["n_samples"] == 3
        assert run["degenerate_samples"] == 2
        assert run["all_satisfied"] is False
        lines = (out / run["trace_csv"]).read_text().splitlines()
        assert lines[0].split(",")[-1] == "norm_u_sq"
        rows = [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]
        eps2 = 2.0**-104
        assert [r["norm_v_sq"] <= eps2 * r["norm_u_sq"] for r in rows] == [False, True, True]


def test_trace_csv_round_trip(tmp_path, monkeypatch):
    # the trace files hold the traces evolve_pairs returned, bit for bit
    traces = []
    real = hypernse.cli.evolve_pairs

    def kept(*args):
        traces.extend(real(*args))
        return traces

    monkeypatch.setattr(hypernse.cli, "evolve_pairs", kept)
    out = tmp_path / "trace"
    assert main(["cone-check", *SMALL, "--out", str(out)]) == 0
    runs = json.loads((out / "cone.json").read_text())["results"]["runs"]
    assert len(runs) == len(traces) == 2
    for run, trace in zip(runs, traces):
        lines = (out / run["trace_csv"]).read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        back = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.array_equal(back, np.column_stack([getattr(trace, c) for c in TRACE_COLUMNS]))


def test_cone_check_reports_a_blow_up(tmp_path):
    out = tmp_path / "blow"
    rc = main(["cone-check", "--mu", "1e3", "--s", "0.15", "--T", "10", "--dt", "10",
               "--forcing-amplitude", "1e308", "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "cone.json").read_text())["results"]
    assert results["blow_up"] is True
    assert "non-finite" in results["message"]
    assert results["runs"] == []


def _cone_check_with_bumps(monkeypatch, out, bumps, T):
    """cone-check at mu = 50 with bumps[m] added at mode (0, 1) of member m
    (0 the reference, 1 and 2 the copies) and a forcing that pushes that mode
    up by 1e306 per step (dt = 1, nu = 1e-12): a bump near the float maximum
    overflows after a number of steps set by its size."""
    def bump(M, member):
        return FourierField.from_modes(M, {(0, 1): (bumps.get(member, 0.0), 0.0)})

    real_initial, real_copy = hypernse.cli._initial_field, hypernse.cli.perturbed_copy
    monkeypatch.setattr(hypernse.cli, "_initial_field",
                        lambda cfg, params, rng: real_initial(cfg, params, rng) + bump(params.M, 0))
    monkeypatch.setattr(hypernse.cli, "_forcing_field",
                        lambda cfg, params, rng, K: FourierField.from_modes(K, {(0, 1): (1e306, 0.0)}))

    def copy(u, fam, delta, rng, where):
        member = 1 + hypernse.cli.PERTURBATION_DELTAS.index(delta)
        return real_copy(u, fam, delta, rng, where=where) + bump(u.M, member) - bump(u.M, 0)

    monkeypatch.setattr(hypernse.cli, "perturbed_copy", copy)
    rc = main(["cone-check", "--mu", "50", "--s", "0.15", "--nu", "1e-12", "--dt", "1",
               "--T", str(T), "--out", str(out)])
    assert rc == 0
    return _strict_loads((out / "cone.json").read_text())["results"]


def test_cone_check_keeps_the_pairs_before_a_failed_copy(monkeypatch, tmp_path):
    # copy 2 is non-finite from the start; the reference and copy 1 run on
    results = _cone_check_with_bumps(monkeypatch, tmp_path / "c2", {2: math.nan}, T=3)
    assert results["blow_up"] is True
    assert [run["delta"] for run in results["runs"]] == [1e-3]
    assert results["runs"][0]["n_samples"] == 4
    assert (tmp_path / "c2" / "cone_trace_delta_0p001.csv").exists()
    assert not (tmp_path / "c2" / "cone_trace_delta_0p1.csv").exists()


def test_cone_check_fails_every_pair_with_the_reference(monkeypatch, tmp_path):
    results = _cone_check_with_bumps(monkeypatch, tmp_path / "ref", {0: 1.79e308}, T=3)
    assert results["blow_up"] is True
    assert results["message"] == "non-finite coefficients at t = 1"
    assert results["runs"] == []


def test_cone_check_names_the_first_pair_that_failed(monkeypatch, tmp_path):
    # copy 2 overflows at the first step, copy 1 only at the tenth; the report
    # names pair 1, as a run of the pairs one after the other would
    results = _cone_check_with_bumps(monkeypatch, tmp_path / "order",
                                     {1: 1.70e308, 2: 1.79e308}, T=12)
    assert results["blow_up"] is True
    assert results["message"] == "non-finite coefficients at t = 10"
    assert results["runs"] == []


def test_cone_check_steps_the_shared_reference_once(monkeypatch, tmp_path):
    # each member takes 2n + 1 products over n steps: one at every state and
    # one at every predictor
    calls = []
    real = hypernse.dynamics._prepared_half

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(hypernse.dynamics, "_prepared_half", counted)
    rc = main(["cone-check", "--mu", "50", "--s", "0.15", "--T", "0.003",
               "--out", str(tmp_path / "count")])
    assert rc == 0
    n = 3
    assert len(calls) == (1 + len(hypernse.cli.PERTURBATION_DELTAS)) * (2 * n + 1)


@pytest.mark.parametrize("T, n_steps, t_end", [(1e-9, 1, 0.001), (0.0025, 2, 0.002)])
def test_cone_check_reports_the_horizon_it_ran(tmp_path, T, n_steps, t_end):
    # the run takes whole steps of dt = 1e-3: at least one, and T / dt rounded
    out = tmp_path / "horizon"
    rc = main(["cone-check", "--mu", "50", "--s", "0.15", "--T", repr(T), "--out", str(out)])
    assert rc == 0
    report = _strict_loads((out / "cone.json").read_text())
    results = report["results"]
    assert report["config"]["T"] == T
    assert results["n_steps"] == n_steps
    assert results["t_end"] == pytest.approx(t_end, rel=1e-15)
    for run in results["runs"]:
        rows = (out / run["trace_csv"]).read_text().splitlines()[1:]
        assert len(rows) == n_steps + 1
        assert float(rows[-1].split(",")[0]) == results["t_end"]
    cut = results["cutoff"]
    nu, beta, dt = report["config"]["nu"], report["config"]["beta"], report["config"]["dt"]
    assert results["stiffness"] == pytest.approx(nu * cut["lambda_next"] ** beta * dt, rel=1e-15)


def test_cone_check_reports_the_stiffness_of_the_cone_workload(tmp_path):
    # nu lambda_next^beta dt at mu = 1e4: the band decays by about e^-632 per step
    out = tmp_path / "stiff"
    rc = main(["cone-check", "--mu", "1e4", "--s", "0.15", "--T", "0.001", "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "cone.json").read_text())["results"]
    assert results["cutoff"]["lambda_next"] == 10009
    assert results["stiffness"] == pytest.approx(10009**1.45 * 1e-3, rel=1e-15)
    assert 631 < results["stiffness"] < 633


def test_cone_check_steps_the_two_thirds_block_of_the_cone_workload(tmp_path):
    # fields drawn at M_run = 153 are stepped on its two-thirds block K = 102,
    # where the padded product is the two-thirds product at 153 (grid N = 320)
    out = tmp_path / "block"
    rc = main(["cone-check", "--mu", "1e4", "--s", "0.15", "--T", "0.001", "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "cone.json").read_text())["results"]
    assert (results["truncation"], results["draw_truncation"]) == (102, 153)


@pytest.mark.parametrize("mu", [50, 1e3, 1e4, 1e5])
def test_the_band_lies_inside_the_stepped_block(mu):
    # a band mode outside the block would be cut away with the perturbation
    ann = find_sparse_annulus(mu, 0.15)
    fam = CutoffFamily(ann.lambda_N, ann.lambda_next, ann.half_width)
    M_run, K = hypernse.cli._cone_truncations(fam)
    band = fam.mask(M_run, "band")
    inside = np.zeros_like(band)
    inside[M_run - K : M_run + K + 1, : K + 1] = True
    assert band.any()
    assert not np.any(band & ~inside)


def _cone_workload(tmp_path):
    """The cone workload's configuration and annulus, with every cached grid
    and symbol of the spectral engine cleared."""
    cfg = resolve_config(None, {"mu": "1e4", "s": "0.15", "T": "0.01"})
    ann = find_sparse_annulus(cfg.mu, cfg.s)
    for module in (hypernse.spectral, hypernse.truncation):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    return cfg, str(tmp_path), ann


def _cache_sizes() -> dict:
    return {f"{module.__name__}.{name}": f.cache_info().currsize
            for module in (hypernse.spectral, hypernse.truncation)
            for name, f in vars(module).items() if hasattr(f, "cache_info")}


def test_cone_draws_leave_no_grid_cached(monkeypatch, tmp_path):
    # a grid at the draw truncation M_run = 153 would outlive the draws, and
    # at mu = 1e6 one such grid is 69 MiB; the draws fill no cache at all
    seen = {}

    def draws_only(*args):
        seen.update(_cache_sizes())
        return []

    cfg, outdir, ann = _cone_workload(tmp_path)
    monkeypatch.setattr(hypernse.cli, "evolve_pairs", draws_only)
    hypernse.cli.stage_cone(cfg, outdir, ann)
    assert seen and all(size == 0 for size in seen.values()), seen


def test_cone_stage_runs_in_a_smaller_working_set(tmp_path):
    # traced peak above entry from cleared caches: 15.5 to 16.3 MiB with a
    # full-block forcing kept beside its half, the step's f - b in new
    # arrays, a cached grid at M_run and the draws' full-plane temporaries;
    # 12.9 to 13.8 MiB without them
    cfg, outdir, ann = _cone_workload(tmp_path)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        hypernse.cli.stage_cone(cfg, outdir, ann)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 14.5 * 2**20


# largest difference between the cut cone run and the full-grid run, relative
# to each trace column's largest magnitude; the outer modes of u1, which the
# cut drops, move norm_u_sq by 1.8e-12 at mu = 1e3
CUT_TOL = 1e-11


def _trace_columns(path) -> dict:
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return dict(zip(lines[0].split(","), np.array(rows).T))


def _assert_columns_close(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, col in want.items():
        assert np.max(np.abs(got[name] - col)) <= CUT_TOL * np.max(np.abs(col)), name


def test_the_cut_cone_run_matches_the_full_grid_run(tmp_path, monkeypatch):
    # the full-grid run: the stage's draws at M_run, stepped there with the
    # two-thirds rule; at mu = 1e3 the rows after the first are resolved
    args = {"mu": "1e3", "s": "0.15", "T": "0.005"}
    cfg = resolve_config(None, args)
    ann = find_sparse_annulus(cfg.mu, cfg.s)
    fam = CutoffFamily(ann.lambda_N, ann.lambda_next, ann.half_width)
    M_run, K = hypernse.cli._cone_truncations(fam)
    params = cfg.spectral_params(M=M_run)
    rng = np.random.default_rng(cfg.seed)
    u1 = hypernse.cli._initial_field(cfg, params, rng)
    forcing = hypernse.cli._forcing_field(cfg, params, rng, M_run)
    copies = [perturbed_copy(u1, fam, d, rng, where="band") for d in hypernse.cli.PERTURBATION_DELTAS]
    with monkeypatch.context() as patched:
        _two_thirds_product(patched)
        full = evolve_pairs(u1, copies, forcing, params, cfg.sim_config(), fam)
    flags = [x for key, value in args.items() for x in (f"--{key}", value)]
    out = tmp_path / "cut"
    assert main(["cone-check", *flags, "--out", str(out)]) == 0
    results = _strict_loads((out / "cone.json").read_text())["results"]
    assert (results["truncation"], results["draw_truncation"]) == (K, M_run) == (33, 50)
    for run, want in zip(results["runs"], full, strict=True):
        got = _trace_columns(out / run["trace_csv"])
        _assert_columns_close(got, {name: getattr(want, name) for name in got})


def test_cone_check_reports_overflowed_diagnostics_as_blow_up(tmp_path):
    # the states stay finite, but max(||u1||^2, ||u2||^2) overflows from t = 0
    out = tmp_path / "big"
    rc = main(["cone-check", "--mu", "1e3", "--s", "0.15", "--ic-amplitude", "1e300",
               "--T", "0.002", "--out", str(out)])
    assert rc == 0
    results = _strict_loads((out / "cone.json").read_text())["results"]
    assert results["blow_up"] is True
    assert results["message"] == (
        "non-finite norm_u_sq in cone_trace_delta_0p001.csv from t = 0"
    )
    assert len(results["runs"]) == 2


@pytest.mark.parametrize(
    "args, named",
    [
        (["lattice", "sparse", "--mu", "inf"], "mu must be finite"),
        (["lattice", "strips", "--mu", "inf"], "mu must be finite"),
        (["simulate", "--T", "inf"], "T must be finite"),
        (["simulate", "--dt", "inf", "--T", "1"], "dt must be finite"),
        (["simulate", "--nu", "inf"], "nu must be finite"),
        (["averaging-check", "--rho", "inf"], "rho must be finite"),
        (["simulate", "--seed", "-1"], "seed must be >= 0"),
        (["cone-check", "--seed", "-1"], "seed must be >= 0"),
        (["averaging-check", "--seed", "-1"], "seed must be >= 0"),
        (["lattice", "gaps", "--seed", "-1"], "seed must be >= 0"),
        (["lattice", "sparse", "--mu", "1e16"], "2^52"),
        (["lattice", "annulus", "--lambda", "inf", "--k", "1"], "must be finite"),
        (["lattice", "annulus", "--lambda", "25", "--k", "nan"], "must be finite"),
        (["lattice", "annulus", "--lambda", "5", "--k", "10"], "lam > k >= 0"),
        (["lattice", "annulus", "--lambda", "1e17", "--k", "1"], "lam + k < 2^52"),
        # flag values go through the config file's parser
        (["simulate", "--include-nonlinear", "maybe"], "include_nonlinear must be boolean"),
        (["simulate", "--M", "1e3"], "M must be an integer"),
        # the step count round(T / dt) must exist
        (["simulate", "--T", "1e308", "--dt", "1e-10"], "T / dt must be finite"),
        (["simulate", "--T", "1e300", "--dt", "1e-300"], "T / dt must be finite"),
        (["cone-check", "--mu", "1e3", "--s", "0.15", "--T", "1e308", "--dt", "1e-10"],
         "T / dt must be finite"),
        (["lattice", "gaps", "--gap-limit", str(2**52)], "gap_limit must be below 2^52"),
        # simulate steps the block floor(2M/3), which SpectralParams needs >= 2
        (["simulate", "--M", "2"], "floor(2M/3) >= 2"),
    ],
)
def test_hostile_inputs_exit_2_naming_the_invariant(tmp_path, capsys, args, named):
    out = tmp_path / "x"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("configuration error: ") and named in err
    assert not out.exists()


def test_bad_flag_value_exits_2(tmp_path):
    rc = main(["simulate", "--beta", "1.3", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_unwritable_output_exits_1(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    rc = main(["lattice", "gaps", "--gap-limit", "100", "--out", str(blocker / "sub")])
    assert rc == 1


def test_output_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPERNSE_OUTPUT_DIR", str(tmp_path / "env_runs"))
    rc = main(["lattice", "gaps", "--gap-limit", "100"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert str(tmp_path / "env_runs") in printed
    runs = os.listdir(tmp_path / "env_runs")
    assert len(runs) == 1
    assert runs[0].endswith("lattice-gaps")


def test_reports_carry_no_timestamps(tmp_path):
    out = tmp_path / "g"
    main(["lattice", "gaps", "--gap-limit", "1000", "--out", str(out)])
    report = json.loads((out / "gaps.json").read_text())
    assert set(report) == {"command", "version", "config", "results"}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert "hypernse" in capsys.readouterr().out

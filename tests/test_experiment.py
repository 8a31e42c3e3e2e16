"""Configuration, orchestration, persistence, CLI, and determinism tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsfsim import cli
from nsfsim import diagnostics as dg
from nsfsim import experiment as ex
from nsfsim import stationary as st
from nsfsim import thermo
from nsfsim.grids import FluidState, Grid1D, Grid2D


# ---------------------------------------------------------------------------
# Configuration parsing and validation
# ---------------------------------------------------------------------------


def test_minimal_config_gets_defaults():
    config = ex.parse_config_text("m0 = 2.0\ndomain.n = 32\n")
    assert config["m0"] == 2.0
    assert config["domain.n"] == 32
    assert config["transport.beta"] == 7.0
    assert config["perturbation.family"] == "none"


def test_unknown_key_is_fatal_with_line():
    with pytest.raises(ex.ConfigError) as err:
        ex.parse_config_text("m0 = 1.0\nmystery_knob = 3\n")
    assert err.value.code == "unknown-key"
    assert "line 2" in str(err.value)
    assert "mystery_knob" in str(err.value)


def test_beta_below_bound_rejected_with_distinct_code():
    with pytest.raises(ex.ConfigError) as err:
        ex.parse_config_text("transport.beta = 5.5\n")
    assert err.value.code == "beta-range"
    assert "beta > 6" in str(err.value)


def test_semantic_violations_have_distinct_codes():
    cases = {
        "m0 = -1\n": "mass-positive",
        "perturbation.amplitude = -0.5\n": "amplitude-negative",
        "theta_bottom = 0\n": "temperature-positive",
        "domain.kind = sphere\n": "domain-kind",
        "cfl = 1.5\n": "cfl-range",
        "perturbation.family = spikes\n": "perturbation-family",
    }
    for text, code in cases.items():
        with pytest.raises(ex.ConfigError) as err:
            ex.parse_config_text(text)
        assert err.value.code == code, text


def test_parse_error_reports_line():
    with pytest.raises(ex.ConfigError) as err:
        ex.parse_config_text("m0 = 1.0\nnot a key value line\n")
    assert err.value.code == "parse"
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("bad_value", ["'\\x'", "'a' 'b'", "'it's'", "'run#1"])
def test_quoted_value_that_is_not_one_string_literal_is_a_parse_error(bad_value):
    with pytest.raises(ex.ConfigError) as err:
        ex.parse_config_text(f"m0 = 1.0\nlabel = {bad_value}\n")
    assert err.value.code == "parse"
    assert "line 2" in str(err.value)


def test_type_error_reports_key():
    with pytest.raises(ex.ConfigError) as err:
        ex.parse_config_text("domain.n = twelve\n")
    assert err.value.code == "value-type"
    assert "domain.n" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ex.ConfigError) as err:
        ex.parse_config_text("m0 = 1.0\nm0 = 2.0\n")
    assert err.value.code == "duplicate-key"


def test_preset_then_overrides():
    config = ex.parse_config_text("preset = rb-1d-small\nhorizon = 1.0\n")
    assert config["domain.n"] == 128
    assert config["horizon"] == 1.0
    assert config["theta_bottom"] == 1.05


def test_missing_file():
    with pytest.raises(ex.ConfigError) as err:
        ex.load_config("/nonexistent/path.cfg")
    assert err.value.code == "missing-file"


def test_comments_and_blank_lines():
    config = ex.parse_config_text("# a comment\n\nm0 = 1.5  # trailing\n")
    assert config["m0"] == 1.5


def every_key_config():
    """A config that sets every key of the schema, away from its default
    where validation allows; its label holds a quote, so ``repr`` writes it
    in double quotes."""
    mapping = {
        "label": "it's every key", "seed": 5, "output_dir": "elsewhere", "gas.p_inf": 1.5, "gas.a": 2.5,
        "gas.pm_gain": 0.5, "gas.z_max_validate": 500.0, "transport.mu0": 0.5, "transport.eta0": 0.25,
        "transport.kappa0": 2.0, "transport.beta": 8.0, "domain.kind": "slab", "domain.n": 64, "domain.nx": 16,
        "domain.nz": 12, "domain.lx": 3.0, "m0": 2.5, "theta_bottom": 1.1, "theta_top": 0.9,
        "theta_bottom_wobble": 0.01, "g": 0.02, "gx": 0.001, "stationary_solver": "newton",
        "perturbation.family": "velocity-kick", "perturbation.amplitude": 0.02, "horizon": 0.5, "cfl": 0.3,
        "dt_min": 1.0e-9, "dt_max": 5.0e-3, "max_retries": 4, "cadence": 0.05, "snapshots": "none",
        "snapshot_every": 3, "convection": "upwind",
    }
    assert set(mapping) == set(ex._SCHEMA)
    return ex.config_from_mapping(mapping)


# string values that ``repr`` writes with a ``#``, an escape or both quote kinds
AWKWARD_STRINGS = {
    "label-hash": {"label": "run#1"},
    "label-backslash": {"label": "a\\b"},
    "label-tab": {"label": "a\tb"},
    "label-both-quotes": {"label": "both'\"q"},
    "output-dir-hash": {"output_dir": "out/#2"},
}


@pytest.mark.parametrize("name", [*sorted(ex.PRESETS), "every-key", *AWKWARD_STRINGS])
def test_stored_config_text_reads_back_as_its_config(name):
    if name in AWKWARD_STRINGS:
        config = ex.config_from_mapping(AWKWARD_STRINGS[name])
    else:
        config = every_key_config() if name == "every-key" else ex.config_from_mapping({}, preset=name)
    text = ex.resolved_config_text(config)
    assert ex.parse_config_text(text) == config
    # the types too, so that the text, and with it the config hash, is the same
    assert ex.resolved_config_text(ex.parse_config_text(text)) == text


def test_cli_run_from_a_stored_config_writes_the_same_csv(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["run", "--preset", "rb-2d-lateral", "--out", str(first)]) == 0
    stored = first / "rb-2d-lateral.config.txt"
    assert cli.main(["validate", str(stored)]) == 0
    assert cli.main(["run", str(stored), "--out", str(second)]) == 0
    assert (second / "rb-2d-lateral.csv").read_bytes() == (first / "rb-2d-lateral.csv").read_bytes()
    hashes = [json.loads((out / "rb-2d-lateral.manifest.json").read_text())["config_hash"] for out in (first, second)]
    assert hashes[0] == hashes[1]


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip_1d(tmp_path):
    grid = Grid1D(n=16, theta_bottom=1.2, theta_top=0.9)
    rng = np.random.default_rng(0)
    state = FluidState(
        grid=grid, t=0.375, rho=rng.uniform(0.5, 2.0, 16),
        theta=rng.uniform(0.5, 2.0, 16),
        u=np.concatenate([[0.0], rng.standard_normal(15), [0.0]]),
    )
    path = tmp_path / "snap.npz"
    ex.save_snapshot(path, state)
    back = ex.load_snapshot(path)
    assert back.t == state.t
    assert np.array_equal(back.rho, state.rho)
    assert np.array_equal(back.theta, state.theta)
    assert np.array_equal(back.u, state.u)
    assert back.grid.theta_bottom == 1.2


def test_snapshot_roundtrip_2d(tmp_path):
    nx, nz = 6, 5
    tb = 1.0 + 0.01 * np.arange(nx)
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=tb, theta_top=1.0)
    rng = np.random.default_rng(1)
    w = np.zeros((nx, nz + 1))
    w[:, 1:-1] = rng.standard_normal((nx, nz - 1))
    state = FluidState(
        grid=grid, t=1.25, rho=rng.uniform(0.5, 2.0, (nx, nz)),
        theta=rng.uniform(0.5, 2.0, (nx, nz)), u=rng.standard_normal((nx, nz)), w=w,
    )
    path = tmp_path / "snap2d.npz"
    ex.save_snapshot(path, state)
    back = ex.load_snapshot(path)
    for name in ("rho", "theta", "u", "w"):
        assert np.array_equal(getattr(back, name), getattr(state, name))
    assert np.array_equal(back.grid.wall_theta("bottom"), tb)


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------


def short_static(tmp_path, label="static", **overrides):
    mapping = {"preset": "static-sanity", "horizon": "0.2", "label": label}
    mapping.update({k: str(v) for k, v in overrides.items()})
    preset = mapping.pop("preset")
    return ex.config_from_mapping(mapping, preset=preset), tmp_path


def test_run_experiment_static_sanity(tmp_path):
    config, _ = short_static(tmp_path)
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    assert all(Path(p).exists() for p in manifest.artifacts)
    # fixed point: the relative-energy column stays at rounding level
    csv = ex.read_csv(tmp_path / "static.csv")
    assert np.max(np.abs(csv["relative_energy"])) <= 1e-10
    # config hash matches the stored bytes
    stored = (tmp_path / "static.config.txt").read_bytes()
    import hashlib

    assert manifest.config_hash == hashlib.sha256(stored).hexdigest()


def test_run_determinism_byte_identical(tmp_path):
    config, _ = short_static(tmp_path, label="det")
    ex.run_experiment(config, output_dir=tmp_path / "a")
    ex.run_experiment(config, output_dir=tmp_path / "b")
    a = (tmp_path / "a" / "det.csv").read_bytes()
    b = (tmp_path / "b" / "det.csv").read_bytes()
    assert a == b


def test_manifest_written_on_stationary_failure(tmp_path):
    config = ex.config_from_mapping(
        {"label": "doomed", "theta_bottom": "60.0", "theta_top": "0.02", "g": "-5.0", "domain.n": "16",
         "stationary_solver": "newton", "horizon": "0.1"}
    )
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status.startswith("failed:stationary")
    assert manifest.error
    path = tmp_path / "doomed.manifest.json"
    assert path.exists()
    parsed = ex.RunManifest.from_json(path.read_text())
    assert parsed.status == manifest.status


def test_compare_runs_identical_and_schema_guard(tmp_path):
    config, _ = short_static(tmp_path, label="cmp")
    m1 = ex.run_experiment(config, output_dir=tmp_path / "a")
    m2 = ex.run_experiment(config, output_dir=tmp_path / "b")
    report = ex.compare_runs(m1, m2)
    assert report["_identical"] == 1.0
    assert max(v for k, v in report.items() if not k.startswith("_")) == 0.0
    # schema mismatch
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("t,weird\n0.0,1.0\n")
    m_bad = ex.RunManifest(
        label="bad", config_hash="", toolkit_version="", started_at="", finished_at="",
        status="ok", artifacts=[str(bad_csv)],
    )
    with pytest.raises(ValueError):
        ex.compare_runs(m1, m_bad)


def test_sweep_runs_each_value(tmp_path):
    config, _ = short_static(tmp_path, label="swp", horizon=0.05)
    manifests = ex.sweep(config, "perturbation.amplitude", ["0.0", "0.001"], output_dir=tmp_path)
    assert len(manifests) == 2
    assert all(m.status == "ok" for m in manifests)
    assert manifests[0].label != manifests[1].label


def test_perturbations_preserve_mass_and_traces():
    for family in ("density-bump", "thermal-bump", "velocity-kick", "random-smooth"):
        config = ex.config_from_mapping(
            {"preset": "rb-1d-small", "perturbation.family": family, "horizon": "0"},
            preset="rb-1d-small",
        )
        gas, transport = ex.build_models(config)
        problem = ex.build_problem(config)
        reference = ex.solve_reference(config, problem, gas, transport)
        state = ex.make_initial_state(config, reference)
        assert abs(state.total_mass() - config["m0"]) < 1e-12
        assert state.u[0] == 0.0 and state.u[-1] == 0.0
        assert np.all(state.rho > 0.0) and np.all(state.theta > 0.0)


SOLVER_OF_MODE = {"static": "static_uniform", "pipeline": "solve_rb_pipeline", "newton": "solve_stationary_newton"}


@pytest.mark.parametrize(
    "preset, overrides, mode",
    [
        (None, {"domain.kind": "column", "domain.n": 16}, "static"),
        (None, {"domain.kind": "slab"}, "static"),
        ("rb-2d-topology", {}, "pipeline"),
        ("rb-2d-lateral", {}, "newton"),  # plates that vary along x
        ("rb-2d-topology", {"gx": 0.001}, "newton"),  # tilted gravity
    ],
)
def test_auto_solver_is_the_explicit_mode_it_picks(preset, overrides, mode, monkeypatch):
    # auto calls the solvers the explicit mode calls and gives its reference
    # bit for bit, fields and counters
    calls = []
    for name in SOLVER_OF_MODE.values():
        solver = getattr(st, name)
        monkeypatch.setattr(st, name, lambda *a, _solver=solver, _name=name, **k: calls.append(_name) or _solver(*a, **k))
    references = []
    for chosen in ("auto", mode):
        config = ex.config_from_mapping(dict(overrides, stationary_solver=chosen), preset=preset)
        gas, transport = ex.build_models(config)
        references.append(ex.solve_reference(config, ex.build_problem(config), gas, transport))
    half = len(calls) // 2
    assert calls[:half] == calls[half:] and calls[-1] == SOLVER_OF_MODE[mode]
    auto, explicit = references
    for a, b in zip((auto.rho, auto.theta, *auto.velocity), (explicit.rho, explicit.theta, *explicit.velocity)):
        assert np.array_equal(a, b)
    assert auto.counters == explicit.counters and auto.iterations == explicit.iterations


def test_epsilon_warning_recorded(tmp_path):
    config = ex.config_from_mapping(
        {"label": "warm", "theta_bottom": "1.5", "theta_top": "1.0", "domain.n": "16",
         "horizon": "0.0", "stationary_solver": "pipeline"}
    )
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert any("perturbative regime" in w for w in manifest.warnings)


@pytest.mark.parametrize("viscosity, grows", [("0.003", True), ("0.01", False)])
def test_manifest_warns_when_the_relative_energy_grows(tmp_path, viscosity, grows):
    # at mu0 = kappa0 = 0.003 the 12x10 slab's acoustic modes grow at the
    # run's own dt: the relative energy goes 2.4e-4 -> 7.3e-4 over t in
    # [2, 5], a run that still ends with status ok; at 0.01 it decays
    config = ex.config_from_mapping(
        {"transport.mu0": viscosity, "transport.kappa0": viscosity, "horizon": "5"}, preset="rb-2d-topology"
    )
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    growth = [w for w in manifest.warnings if "relative energy grows" in w]
    assert len(growth) == int(grows)
    if grows:
        assert manifest.counters["relative_energy_final"] > 2.0 * manifest.counters["relative_energy_initial"]


def test_energy_growth_ignores_the_transient_and_rounding():
    def records(pairs):
        return [dg.DiagnosticsRecord(t, *([0.0] * 2), e, *([0.0] * 13)) for t, e in pairs]

    # a rise before t = 1 is the transient; a later one of 1e-13 is rounding
    assert ex.energy_growth(records([(0.0, 1.0), (0.5, 2.0), (1.0, 1e-3), (1.5, 1e-3 + 1e-13)]), 1e-12) is None
    rise = ex.energy_growth(records([(1.0, 3e-4), (2.0, 1e-4), (3.0, 2e-4), (4.0, 1.5e-4)]), 1e-12)
    assert rise == (pytest.approx(1e-4), 3.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "ok.cfg"
    path.write_text("preset = static-sanity\n")
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "configuration ok" in out


def test_cli_validate_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("transport.beta = 5.5\n")
    assert cli.main(["validate", str(path)]) == 2
    assert "beta" in capsys.readouterr().err


def test_cli_run_with_overrides(tmp_path, capsys):
    code = cli.main(
        ["run", "--preset", "static-sanity", "--set", "horizon=0.05",
         "--set", "label=clirun", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "clirun.manifest.json").exists()
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["status"] == "ok"


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_cli_output_under_a_regular_file_is_config_error(verb, tmp_path, capsys):
    # the output directory cannot be made: a configuration error, exit 2,
    # with its own code, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = [verb, "--preset", "static-sanity", "--set", "horizon=0.05", "--out", str(blocker / "out")]
    if verb == "sweep":
        args += ["--param", "seed", "--values", "1,2"]
    assert cli.main(args) == 2
    assert "[output-dir]" in capsys.readouterr().err
    with pytest.raises(ex.ConfigError, match="output-dir"):
        ex.run_experiment(ex.config_from_mapping({"horizon": "0.05"}, preset="static-sanity"), blocker / "out")


def test_cli_unknown_override_is_config_error(tmp_path):
    assert cli.main(["run", "--preset", "static-sanity", "--set", "nope=1", "--out", str(tmp_path)]) == 2


def test_cli_compare(tmp_path, capsys):
    for sub in ("a", "b"):
        cli.main(
            ["run", "--preset", "static-sanity", "--set", "horizon=0.05",
             "--set", "label=c", "--out", str(tmp_path / sub)]
        )
    code = cli.main(
        ["compare", str(tmp_path / "a" / "c.manifest.json"), str(tmp_path / "b" / "c.manifest.json")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "_identical = 1" in out


@pytest.mark.parametrize("text", [None, "", "[1, 2]", '{"label": "x"}'])
def test_cli_compare_unreadable_manifest_is_config_error(tmp_path, capsys, text):
    # missing, not JSON, not an object, missing fields: one line, exit 2
    bad = tmp_path / "bad.manifest.json"
    if text is not None:
        bad.write_text(text)
    assert cli.main(["compare", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:") and "bad.manifest.json" in err[0]


def test_cli_compare_manifest_without_its_csv_is_config_error(tmp_path, capsys):
    gone = tmp_path / "gone.csv"
    manifest = ex.RunManifest(label="x", config_hash="", toolkit_version="", started_at="",
                              finished_at="", status="ok", artifacts=[str(gone)])
    path = tmp_path / "x.manifest.json"
    path.write_text(manifest.to_json())
    assert cli.main(["compare", str(path), str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "gone.csv" in err[0]


def test_cli_solver_failure_exit_code(tmp_path):
    code = cli.main(
        ["run", "--preset", "static-sanity", "--out", str(tmp_path),
         "--set", "theta_bottom=60.0", "--set", "theta_top=0.02", "--set", "g=-5.0",
         "--set", "domain.n=16", "--set", "stationary_solver=newton"]
    )
    assert code == 3


def _run_small_column(tmp_path, label, *overrides):
    args = ["run", "--preset", "rb-1d-small", "--out", str(tmp_path), "--set", f"label={label}",
            "--set", "domain.n=16", "--set", "horizon=0.05"]
    for item in overrides:
        args += ["--set", item]
    code = cli.main(args)
    return code, ex.RunManifest.from_json((tmp_path / f"{label}.manifest.json").read_text())


def test_stationary_runtime_error_writes_failed_manifest(tmp_path, monkeypatch):
    def hydrostatic_without_convergence(*args, **kwargs):
        raise RuntimeError("Failed to converge after 200 iterations")

    monkeypatch.setattr(st, "_hydrostatic_newton", hydrostatic_without_convergence)
    code, manifest = _run_small_column(tmp_path, "no-bracket", "stationary_solver=pipeline")
    assert code == 3
    assert manifest.status == "failed:stationary"
    assert "Failed to converge" in manifest.error


def test_simulate_value_error_writes_failed_manifest_and_closes_csv(tmp_path, monkeypatch):
    def no_temperature(*args, **kwargs):
        raise ValueError("energy below the cold curve")

    closed = []
    close = ex.CsvSink.close

    def recording_close(self):
        closed.append(self.path)
        close(self)

    monkeypatch.setattr(thermo, "temperature_from_energy", no_temperature)
    monkeypatch.setattr(ex.CsvSink, "close", recording_close)
    code, manifest = _run_small_column(tmp_path, "no-theta")
    assert code == 3
    assert manifest.status == "failed:simulate"
    assert "cold curve" in manifest.error
    assert closed == [tmp_path / "no-theta.csv"]


def test_compare_runs_refinement_deviation_shrinks(tmp_path):
    # moving 64->128 and then 128->256 cells shrinks the relative-energy
    # curve deviation by at least 1.5x
    manifests = {}
    for n in (64, 128, 256):
        config = ex.config_from_mapping(
            {"domain.n": str(n), "horizon": "2.0", "label": f"ref{n}"}, preset="rb-1d-small"
        )
        manifests[n] = ex.run_experiment(config, output_dir=tmp_path / str(n))
    coarse = ex.compare_runs(manifests[64], manifests[128])["relative_energy"]
    fine = ex.compare_runs(manifests[128], manifests[256])["relative_energy"]
    assert coarse >= 1.5 * fine


def test_sweep_lateral_epsilon_scaling(tmp_path):
    # terminal stationary flow magnitude roughly doubles per wobble doubling
    config = ex.config_from_mapping({}, preset="rb-2d-lateral")
    manifests = ex.sweep(
        config, "theta_bottom_wobble", ["0.001", "0.002", "0.004"], output_dir=tmp_path
    )
    umaxes = [m.counters["stationary_u_max"] for m in manifests]
    assert all(m.status == "ok" for m in manifests)
    for a, b in zip(umaxes[:-1], umaxes[1:]):
        assert 2.0 / 1.5 <= b / a <= 2.0 * 1.5


def test_cli_invariant_violation_exit_code(tmp_path):
    # a deliberately degenerate gas fails hypothesis certification: the run
    # completes but reports the invariant violation through exit code 1
    code = cli.main(
        ["run", "--preset", "static-sanity", "--out", str(tmp_path),
         "--set", "gas.pm_gain=0.0", "--set", "horizon=0.05", "--set", "label=degen"]
    )
    assert code == 1
    manifest = ex.RunManifest.from_json((tmp_path / "degen.manifest.json").read_text())
    assert manifest.status == "invariant-violation"
    assert manifest.invariants["hypotheses_pass"] is False


def test_snapshot_cadence_writes_listed_series(tmp_path):
    config, _ = short_static(tmp_path, label="snaps", snapshot_every=2, cadence=0.05)
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    series = [p for p in manifest.artifacts if ".t" in Path(p).name and p.endswith(".npz")]
    assert len(series) >= 2
    assert all(Path(p).exists() for p in series)
    state = ex.load_snapshot(series[-1])
    assert state.rho.shape == (64,)


def test_cli_sweep_verb(tmp_path, capsys):
    code = cli.main(
        ["sweep", "--preset", "rb-2d-lateral", "--param", "theta_bottom_wobble",
         "--values", "0.001,0.002", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 2
    assert all(entry["status"] == "ok" for entry in lines)


def test_manifest_records_stationary_newton_counters(tmp_path):
    config = ex.config_from_mapping({}, preset="rb-2d-lateral")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    counters = manifest.counters
    trace = counters["stationary_residual_trace"]
    assert len(trace) == counters["stationary_iterations"] + 1 and trace[-1] <= 1.0e-9
    assert 0 < counters["stationary_jacobian_colours"] <= 40
    assert 1 <= counters["stationary_jacobians"] <= counters["stationary_iterations"]
    assert counters["stationary_residual_calls"] >= counters["stationary_jacobians"] * (
        counters["stationary_jacobian_colours"] + 1
    ) + counters["stationary_iterations"] + 1
    assert counters["stationary_lu_fill"] > 0
    assert not any("floor step" in w for w in manifest.warnings)
    # timings stay out of the CSV
    header = (tmp_path / "rb-2d-lateral.csv").read_text().splitlines()[0]
    assert not any(word in header for word in ("time_s", "wall", "seconds"))


def test_manifest_records_slab_step_counters(tmp_path):
    config = ex.config_from_mapping({"horizon": "0.05"}, preset="rb-2d-topology")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    counters = manifest.counters
    # one velocity and at least one heat solve per step, most of them with
    # kept factors
    assert 2 <= counters["step_factorisations"] < counters["steps"]
    assert counters["step_refinements"] > 0
    assert counters["heat_chords"] > 0
    assert counters["dt_min_clamps"] == 0
    # the 12x10 slab's acoustic step lies above dt_max from the first step on
    assert counters["dt_max_clamps"] == counters["steps"]
    assert counters["heat_backtracks"] == 0
    assert counters["hydrostatic_halvings"] == 0


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("rb-2d-topology", {"domain.nx": "32", "domain.nz": "24", "horizon": "0.02", "seed": "7"}),
        ("rb-1d-small", {"horizon": "0.05"}),
    ],
    ids=["slab-convection", "rb-1d-small"],
)
def test_manifest_counts_no_dt_max_clamps_below_dt_max(tmp_path, preset, overrides):
    # the acoustic step of these runs stays below dt_max, so no step counts
    config = ex.config_from_mapping(overrides, preset=preset)
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok" and manifest.counters["steps"] > 0
    assert manifest.counters["dt_max_clamps"] == 0


def test_manifest_records_hydrostatic_halvings(tmp_path):
    # strong gravity on an isothermal column makes the pipeline's hydrostatic
    # Newton halve two steps to keep the density positive
    config = ex.config_from_mapping({"domain.n": "32", "g": "30", "horizon": "0"}, preset="static-sanity")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    assert manifest.counters["hydrostatic_halvings"] == 2


# the manifest counters the README documents: every run carries all of them,
# those of a solver or stepper that did not run at their zeroed defaults
MANIFEST_COUNTERS = {
    "epsilon_report",
    "stationary_iterations",
    "stationary_mass_error",
    "stationary_u_max",
    "stationary_theta_dev",
    "stationary_residual_trace",
    "stationary_jacobian_colours",
    "stationary_jacobians",
    "stationary_residual_calls",
    "stationary_refinements",
    "stationary_lu_fill",
    "hydrostatic_halvings",
    "steps",
    "retries",
    "step_factorisations",
    "step_refinements",
    "heat_backtracks",
    "heat_chords",
    "dt_min_clamps",
    "dt_max_clamps",
    "wall_time",
    "relative_energy_initial",
    "relative_energy_final",
}


@pytest.mark.parametrize(
    "preset, overrides",
    [("rb-1d-small", {"horizon": "0.05"}), ("rb-2d-topology", {"horizon": "0.05"}), ("rb-2d-lateral", {})],
    ids=["column", "slab", "lateral-horizon-0"],
)
def test_manifest_carries_exactly_the_documented_counters(tmp_path, preset, overrides):
    manifest = ex.run_experiment(ex.config_from_mapping(overrides, preset=preset), output_dir=tmp_path)
    assert manifest.status == "ok"
    assert set(manifest.counters) == MANIFEST_COUNTERS
    if manifest.counters["steps"] == 0:
        stepper = ("step_factorisations", "step_refinements", "heat_backtracks", "heat_chords")
        assert all(manifest.counters[name] == 0 for name in stepper + ("dt_min_clamps", "dt_max_clamps"))


def test_lateral_newton_at_24x16_factors_one_jacobian(tmp_path):
    config = ex.config_from_mapping({"domain.nx": "24", "domain.nz": "16"}, preset="rb-2d-lateral")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    assert manifest.counters["stationary_jacobians"] == 1


def test_lateral_newton_at_24x16_solves_on_x_fourier_blocks_alone(tmp_path, monkeypatch):
    # the slab's Jacobian at the uniform guess is block-circulant but for the
    # plates: refinement from its x-Fourier blocks serves every solve, and
    # the Newton takes the iterations and the one Jacobian it took on SuperLU
    factored = []
    monkeypatch.setattr(st, "splu", lambda *args, **options: factored.append(args))
    config = ex.config_from_mapping({"domain.nx": "24", "domain.nz": "16"}, preset="rb-2d-lateral")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok" and factored == []
    counters = manifest.counters
    assert counters["stationary_iterations"] == 4 and counters["stationary_jacobians"] == 1
    assert counters["stationary_refinements"] > 0
    # the dense block of wavenumber 0, 4 nz rows bordered, and the band of
    # wavenumbers 1..12, each of 4 nz - 1 columns of 2 kl + ku + 1 = 28 rows
    assert counters["stationary_lu_fill"] == 64**2 + 12 * 63 * 28


def test_lateral_newton_at_24x16_fills_at_most_0_8_of_colamd(tmp_path, monkeypatch):
    # the nested-dissection column order against splu's default COLAMD
    # ordering of the same bordered Jacobian, as counts of stored LU nonzeros;
    # every refinement from the x-Fourier blocks gives up, so SuperLU serves
    real = st.splu
    factored = []

    def kept(matrix, **options):
        factored.append((matrix, real(matrix, **options)))
        return factored[-1][1]

    monkeypatch.setattr(st, "splu", kept)
    monkeypatch.setattr(st, "refine", lambda direction, a, b: (None, 0))
    config = ex.config_from_mapping({"domain.nx": "24", "domain.nz": "16"}, preset="rb-2d-lateral")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    fill = manifest.counters["stationary_lu_fill"]
    assert len(factored) == manifest.counters["stationary_jacobians"]
    matrix, lu = factored[-1]
    assert fill == lu.nnz
    assert fill <= 0.8 * real(matrix).nnz


def test_manifest_warns_on_armijo_floor_acceptances(tmp_path, monkeypatch):
    real = ex.solve_reference

    def floored(*args):
        state = real(*args)
        state.floor_steps = 2
        return state

    monkeypatch.setattr(ex, "solve_reference", floored)
    config = ex.config_from_mapping({}, preset="rb-2d-lateral")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    assert any("accepted 2 line-search step(s) at the floor step" in w for w in manifest.warnings)


def test_cli_import_loads_neither_quadrature_nor_root_finding():
    # scipy.integrate serves only custom entropy kernels and scipy.optimize
    # only the rk4 hydrostatic shooting; a fresh `nsfsim` run imports neither
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, nsfsim.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"

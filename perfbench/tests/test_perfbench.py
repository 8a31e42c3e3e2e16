"""Checks of the benchmark itself: its contract, gates, tracer and smoke mode.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import steadiness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from nsfsim import diagnostics, experiment, operators, simulator, stationary, thermo  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    assert list(steadiness.SMOKE_SEEDS) == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    listed = [m["name"] for m in SPEC["per_layer"]]
    # catalogue.json gives the layer of every per-layer metric
    assert set(listed) <= set(workloads.CATALOGUE["per_layer"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    every = names + [m["name"] for m in SPEC["end_to_end"]] + listed
    assert len(every) == len(set(every)) and all(NAME.match(n) for n in every)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert workloads.CATALOGUE["claim"] is None


def test_smoke_passes_every_gate():
    assert steadiness.main(["--smoke"]) == 0


def _manifest(status="ok", invariants=None, counters=None):
    return experiment.RunManifest(
        label="x", config_hash="", toolkit_version="", started_at="", finished_at="", status=status,
        artifacts=[], counters=counters or {}, invariants=invariants or {"mass_constant": True},
    )


def _write_series(path, t, re_values):
    rows = ["t,relative_energy"] + [f"{a!r},{b!r}" for a, b in zip(t, re_values)]
    path.write_text("\n".join(rows) + "\n")


def test_decay_and_slab_gates_reject_wrong_series(tmp_path):
    decay = workloads.WORKLOADS["column-decay"]
    config = decay.config(workloads.DECAY_PINNED_SEED)
    pinned = workloads.DECAY_CHECKPOINTS
    t = [0.0, *pinned]
    good = [workloads.DECAY_RE0, *pinned.values()]
    _write_series(tmp_path / "column-decay.csv", t, good)
    assert decay.check(config, _manifest(), tmp_path) == []
    _write_series(tmp_path / "column-decay.csv", t, [*good[:-1], good[-1] * 1.01])
    assert decay.check(config, _manifest(), tmp_path)
    assert decay.check(config, _manifest(status="failed:simulate"), tmp_path)
    assert decay.check(config, _manifest(invariants={"mass_constant": False}), tmp_path)

    slab = workloads.WORKLOADS["slab-convection"]
    config = slab.config(workloads.SLAB_PINNED_SEED)
    re0 = workloads.SLAB_RE_FINAL / 0.78
    _write_series(tmp_path / "slab-convection.csv", [0.0, 0.02], [re0, workloads.SLAB_RE_FINAL])
    assert slab.check(config, _manifest(), tmp_path) == []
    _write_series(tmp_path / "slab-convection.csv", [0.0, 0.02], [re0, 1.2 * workloads.SLAB_RE_FINAL])
    assert slab.check(config, _manifest(), tmp_path)
    _write_series(tmp_path / "slab-convection.csv", [0.0, 0.01], [re0, workloads.SLAB_RE_FINAL])
    assert slab.check(config, _manifest(), tmp_path)


def test_stationary_gate_rejects_a_perturbed_reference(tmp_path):
    hydro = workloads.WORKLOADS["column-hydrostatic"]
    config = hydro.config(1)
    manifest = experiment.run_experiment(config, output_dir=tmp_path)
    assert hydro.check(config, manifest, tmp_path) == []
    path = tmp_path / "column-hydrostatic.reference.npz"
    state = experiment.load_snapshot(path)
    state.rho = state.rho * (1.0 + 1.0e-6 * np.sin(np.arange(state.rho.size)))
    experiment.save_snapshot(path, state)
    assert hydro.check(config, manifest, tmp_path)


def _attributes():
    owners = (thermo, operators, simulator, stationary, diagnostics, experiment, experiment.CsvSink,
              np.linalg, Path)
    return {id(o): dict(vars(o)) for o in owners}


def test_tracer_restores_attributes_and_accounts_for_the_traced_time(tmp_path):
    before = _attributes()
    config = experiment.config_from_mapping(
        {"domain.n": "32", "horizon": "0.2", "label": "tiny"}, preset="rb-1d-small"
    )
    trace = tracing.Tracer("test")
    with tracing.traced_nsfsim(trace):
        manifest = experiment.run_experiment(config, output_dir=tmp_path)
    after = _attributes()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        assert all(after[key][name] is value for name, value in attrs.items())
    assert manifest.status == "ok"
    metrics = tracing.layer_metrics(trace, bytes_written=1)
    assert metrics["simulator.steps"] == manifest.counters["steps"]
    assert metrics["diagnostics.records"] > 1 and metrics["thermo.calls"] > 0
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_metric(trace, section):
    name = "slab-convection"
    done = subprocess.run(
        SPEC["command"] + ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[section])
    if trace:
        record = json.loads((BENCH / "_runs" / f"result-{name}-seed3-trace1.json").read_text())
        layer = record["per_layer"]
        # the pre-simulation part of the slab run is a few percent of its wall time
        assert layer["experiment.prepare_s"] < 0.5 * layer["trace.untraced_wall_s"]

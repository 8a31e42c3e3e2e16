"""Experiment configuration, orchestration, and persistence.

A run is described by a flat ``key = value`` text file with a strict schema
(unknown keys are fatal, each semantic violation carries a distinct error
code).  One experiment = build models -> certify the closure hypotheses ->
solve the stationary reference -> perturb -> integrate with diagnostics
streaming to CSV -> write snapshots and a manifest.

Reproducibility contract: the same resolved configuration and seed produce
byte-identical CSV output.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import simulator as sim
from . import stationary as st
from . import thermo
from .grids import FluidState, Grid1D, Grid2D, StepControl

__all__ = [
    "ConfigError",
    "SolverStageError",
    "ExperimentConfig",
    "RunManifest",
    "PRESETS",
    "load_config",
    "parse_config_text",
    "config_from_mapping",
    "resolved_config_text",
    "run_experiment",
    "energy_growth",
    "compare_runs",
    "sweep",
    "save_snapshot",
    "load_snapshot",
    "build_models",
    "build_problem",
    "make_initial_state",
    "PERTURBATION_FAMILIES",
]

TOOLKIT_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Configuration rejection with a symbolic error code."""

    def __init__(self, code, message):
        super().__init__(f"[{code}] {message}")
        self.code = code


class SolverStageError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

PERTURBATION_FAMILIES = (
    "none",
    "density-bump",
    "thermal-bump",
    "velocity-kick",
    "random-smooth",
)

# key -> (type, default)
_SCHEMA = {
    "label": (str, "run"),
    "seed": (int, 0),
    "output_dir": (str, "out"),
    "gas.p_inf": (float, 1.0),
    "gas.a": (float, 3.0),
    "gas.pm_gain": (float, 1.0),
    "gas.z_max_validate": (float, 1.0e3),
    "transport.mu0": (float, 1.0),
    "transport.eta0": (float, 0.0),
    "transport.kappa0": (float, 1.0),
    "transport.beta": (float, 7.0),
    "domain.kind": (str, "column"),
    "domain.n": (int, 128),
    "domain.nx": (int, 12),
    "domain.nz": (int, 10),
    "domain.lx": (float, 2.0),
    "m0": (float, 1.0),
    "theta_bottom": (float, 1.0),
    "theta_top": (float, 1.0),
    "theta_bottom_wobble": (float, 0.0),
    "g": (float, 0.0),
    "gx": (float, 0.0),
    "stationary_solver": (str, "auto"),
    "perturbation.family": (str, "none"),
    "perturbation.amplitude": (float, 0.0),
    "horizon": (float, 1.0),
    "cfl": (float, 0.4),
    "dt_min": (float, 1.0e-10),
    "dt_max": (float, 1.0e-2),
    "max_retries": (int, 8),
    "cadence": (float, 0.1),
    "snapshots": (str, "initial-final"),
    "snapshot_every": (int, 0),
    "convection": (str, "upwind"),
}

PRESETS = {
    "static-sanity": {
        "label": "static-sanity",
        "domain.kind": "column",
        "domain.n": 64,
        "m0": 1.0,
        "theta_bottom": 1.0,
        "theta_top": 1.0,
        "g": 0.0,
        "perturbation.family": "none",
        "perturbation.amplitude": 0.0,
        "horizon": 2.0,
        "cadence": 0.1,
        "seed": 1,
    },
    "rb-1d-small": {
        "label": "rb-1d-small",
        "domain.kind": "column",
        "domain.n": 128,
        "m0": 1.0,
        "theta_bottom": 1.05,
        "theta_top": 1.0,
        "g": 0.01,
        "perturbation.family": "random-smooth",
        "perturbation.amplitude": 0.01,
        "horizon": 50.0,
        "cadence": 0.25,
        "seed": 2024,
    },
    "rb-2d-topology": {
        "label": "rb-2d-topology",
        "domain.kind": "slab",
        "domain.nx": 12,
        "domain.nz": 10,
        "m0": 2.0,
        "theta_bottom": 1.05,
        "theta_top": 1.0,
        "g": 0.01,
        "perturbation.family": "random-smooth",
        "perturbation.amplitude": 0.01,
        "horizon": 0.2,
        "cadence": 0.05,
        "seed": 7,
    },
    "rb-2d-lateral": {
        "label": "rb-2d-lateral",
        "domain.kind": "slab",
        "domain.nx": 12,
        "domain.nz": 8,
        "m0": 2.0,
        "theta_bottom": 1.0,
        "theta_top": 1.0,
        "theta_bottom_wobble": 1.0e-3,
        "g": 0.01,
        "stationary_solver": "newton",
        "perturbation.family": "none",
        "horizon": 0.0,
        "seed": 11,
    },
}

# the documented perturbative regime; larger data get a manifest warning
EPSILON_WARN = 0.1
# after the initial transient the relative energy of a run must not grow
# (the paper's decay claim); a later rise beyond rounding gets a warning
GROWTH_AFTER = 1.0


def energy_growth(records, tol):
    """(rise, t) of the largest rise of the relative energy above its running
    minimum over the records at t >= ``GROWTH_AFTER``, or None when no rise
    exceeds ``tol``."""
    worst, low = None, np.inf
    for r in records:
        if r.t < GROWTH_AFTER:
            continue
        low = min(low, r.relative_energy)
        rise = r.relative_energy - low
        if rise > tol and (worst is None or rise > worst[0]):
            worst = (rise, r.t)
    return worst


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved, validated experiment description."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)


def _coerce(key, raw, lineno=None):
    typ, _ = _SCHEMA[key]
    where = f" (line {lineno})" if lineno is not None else ""
    try:
        if typ is int:
            value = int(str(raw))
        elif typ is float:
            value = float(str(raw))
        else:
            value = str(raw)
    except ValueError:
        raise ConfigError("value-type", f"key {key!r}: cannot parse {raw!r} as {typ.__name__}{where}")
    return value


def _validate_semantics(values):
    if values["transport.beta"] <= 6.0:
        raise ConfigError(
            "beta-range",
            f"transport.beta = {values['transport.beta']} rejected: the heat "
            "conductivity growth hypothesis requires beta > 6",
        )
    if values["m0"] <= 0.0:
        raise ConfigError("mass-positive", "m0 must be positive")
    if values["perturbation.amplitude"] < 0.0:
        raise ConfigError("amplitude-negative", "perturbation.amplitude must be >= 0")
    if values["theta_bottom"] <= 0.0 or values["theta_top"] <= 0.0:
        raise ConfigError("temperature-positive", "plate temperatures must be positive")
    if values["gas.p_inf"] <= 0.0 or values["gas.a"] <= 0.0:
        raise ConfigError("gas-positive", "gas.p_inf and gas.a must be positive")
    if values["transport.mu0"] <= 0.0 or values["transport.kappa0"] <= 0.0:
        raise ConfigError("transport-positive", "transport.mu0 and transport.kappa0 must be positive")
    if values["domain.kind"] not in ("column", "slab"):
        raise ConfigError("domain-kind", f"domain.kind must be 'column' or 'slab', got {values['domain.kind']!r}")
    if values["perturbation.family"] not in PERTURBATION_FAMILIES:
        raise ConfigError(
            "perturbation-family",
            f"unknown perturbation family {values['perturbation.family']!r}",
        )
    if values["stationary_solver"] not in ("auto", "static", "pipeline", "newton"):
        raise ConfigError("stationary-solver", f"unknown stationary solver {values['stationary_solver']!r}")
    if values["horizon"] < 0.0:
        raise ConfigError("horizon-negative", "horizon must be >= 0")
    if not 0.0 < values["cfl"] < 1.0:
        raise ConfigError("cfl-range", "cfl must lie in (0, 1)")
    if values["snapshots"] not in ("initial-final", "none"):
        raise ConfigError("snapshots-mode", f"unknown snapshots mode {values['snapshots']!r}")
    if values["convection"] not in ("upwind", "minmod"):
        raise ConfigError("convection-scheme", f"unknown convection scheme {values['convection']!r}")
    if values["convection"] == "minmod" and values["domain.kind"] != "column":
        raise ConfigError("convection-scheme", "minmod reconstruction is available on the column only")
    if values["snapshot_every"] < 0:
        raise ConfigError("snapshot-cadence", "snapshot_every must be >= 0")


def config_from_mapping(mapping, preset=None) -> ExperimentConfig:
    """Resolve a key-value mapping against the schema (preset first)."""
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("unknown-preset", f"unknown preset {preset!r}")
        values.update(PRESETS[preset])
    for key, raw in mapping.items():
        if key == "preset":
            continue
        if key not in _SCHEMA:
            raise ConfigError("unknown-key", f"unknown configuration key {key!r}")
        values[key] = _coerce(key, raw)
    _validate_semantics(values)
    return ExperimentConfig(values=values)


# a value that is one Python string literal, as ``repr`` writes a string,
# then at most a comment
_QUOTED = re.compile(r"""\s*('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")\s*(?:#.*)?""")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the canonical flat ``key = value`` format (# comments).  A
    value that is a string literal, as ``resolved_config_text`` writes
    strings with ``repr``, is read as the inverse of ``repr``: ``#`` and
    escapes included; any other value ends at the first ``#``, and one that
    starts with a quote without being one string literal is an error."""
    mapping = {}
    preset = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, _, rest = line.partition("=")
        quoted = _QUOTED.fullmatch(rest) if key.strip() and "#" not in key else None
        if quoted is not None:
            key = key.strip()
            try:
                raw = ast.literal_eval(quoted[1])
            except (SyntaxError, ValueError) as exc:
                raise ConfigError("parse", f"line {lineno}: bad string literal {quoted[1]}: {exc}") from exc
        else:
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError("parse", f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if not key or not raw:
                raise ConfigError("parse", f"line {lineno}: empty key or value")
            if raw[0] in "'\"":
                raise ConfigError("parse", f"line {lineno}: quoted value is not one string literal: {line!r}")
        if key in mapping or (key == "preset" and preset is not None):
            raise ConfigError("duplicate-key", f"line {lineno}: duplicate key {key!r}")
        if key == "preset":
            preset = raw
            continue
        if key not in _SCHEMA:
            raise ConfigError("unknown-key", f"line {lineno}: unknown configuration key {key!r}")
        mapping[key] = _coerce(key, raw, lineno)
    return config_from_mapping(mapping, preset=preset)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("missing-file", f"configuration file {path} does not exist")
    return parse_config_text(path.read_text())


def resolved_config_text(config: ExperimentConfig) -> str:
    """Canonical text of the fully resolved configuration (hashed, stored)."""
    lines = [f"{key} = {config.values[key]!r}" for key in sorted(config.values)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Model / problem construction
# ---------------------------------------------------------------------------


def build_models(config: ExperimentConfig):
    gas = thermo.GasModel(
        p_inf=config["gas.p_inf"],
        a=config["gas.a"],
        pm_gain=config["gas.pm_gain"],
        z_max_validate=config["gas.z_max_validate"],
    )
    transport = thermo.TransportModel(
        mu0=config["transport.mu0"],
        eta0=config["transport.eta0"],
        kappa0=config["transport.kappa0"],
        beta=config["transport.beta"],
    )
    return gas, transport


def build_problem(config: ExperimentConfig) -> st.ProblemConfig:
    if config["domain.kind"] == "column":
        grid = Grid1D(
            n=config["domain.n"],
            theta_bottom=config["theta_bottom"],
            theta_top=config["theta_top"],
        )
        g = config["g"] if config["g"] != 0.0 else None
    else:
        nx = config["domain.nx"]
        lx = config["domain.lx"]
        tb = np.full(nx, config["theta_bottom"])
        wobble = config["theta_bottom_wobble"]
        if wobble != 0.0:
            xc = (np.arange(nx) + 0.5) * (lx / nx)
            tb = tb + wobble * np.cos(2.0 * np.pi * xc / lx)
        grid = Grid2D(
            nx=nx,
            nz=config["domain.nz"],
            theta_bottom=tb,
            theta_top=config["theta_top"],
            lx=lx,
        )
        g = None
        if config["g"] != 0.0 or config["gx"] != 0.0:
            g = (config["gx"], config["g"])
    return st.ProblemConfig(grid=grid, m0=config["m0"], g=g)


def solve_reference(config: ExperimentConfig, problem, gas, transport) -> st.StationaryState:
    """The stationary reference by the configured solver; ``auto`` takes the
    static solver at epsilon = 0, else the pipeline where it applies, else
    Newton, which starts from the pipeline's state where that applies."""
    mode = config["stationary_solver"]
    applies = st._pipeline_applies(problem)
    if mode == "auto":
        mode = "static" if problem.epsilon_report == 0.0 else "pipeline" if applies else "newton"
    if mode == "static":
        return st.static_uniform(problem, gas, transport)
    if mode == "pipeline":
        return st.solve_rb_pipeline(problem, gas, transport)
    guess = st.solve_rb_pipeline(problem, gas, transport) if applies else None
    return st.solve_stationary_newton(problem, gas, transport, initial_guess=guess)


# ---------------------------------------------------------------------------
# Perturbation families (seeded, mass-neutral, trace-preserving)
# ---------------------------------------------------------------------------


def _smooth_modes_1d(rng, x, n_modes=3):
    out = np.zeros_like(x)
    for k in range(1, n_modes + 1):
        out += rng.standard_normal() * np.sin(np.pi * k * x) / k
    peak = float(np.max(np.abs(out)))
    return out / peak if peak > 0.0 else out


def make_initial_state(config: ExperimentConfig, reference: st.StationaryState) -> FluidState:
    """Perturb the stationary reference by the configured family.

    Density perturbations are mass-neutral; temperature and velocity
    perturbations vanish at the walls so traces are preserved exactly.
    """
    state = reference.copy()
    family = config["perturbation.family"]
    amp = config["perturbation.amplitude"]
    if family == "none" or amp == 0.0:
        return state
    rng = np.random.default_rng(config["seed"])
    grid = state.grid
    if grid.dimension == 1:
        x = grid.centers()
        xf = grid.faces()
        if family == "density-bump":
            bump = amp * np.exp(-(((x - 0.5) / 0.12) ** 2))
            state.rho = state.rho + (bump - bump.mean())
        elif family == "thermal-bump":
            state.theta = state.theta + amp * np.exp(-(((x - 0.5) / 0.12) ** 2)) * np.sin(np.pi * x)
        elif family == "velocity-kick":
            state.u[1:-1] = state.u[1:-1] + amp * np.sin(np.pi * xf[1:-1])
        else:  # random-smooth
            bump = amp * _smooth_modes_1d(rng, x)
            state.rho = state.rho + (bump - bump.mean())
            state.theta = state.theta + amp * _smooth_modes_1d(rng, x)
            state.u[1:-1] = state.u[1:-1] + amp * _smooth_modes_1d(rng, xf[1:-1])
    else:
        X, Z = np.meshgrid(grid.x_centers(), grid.z_centers(), indexing="ij")
        phase = 2.0 * np.pi * X / grid.lx
        window = np.sin(np.pi * Z)
        if family == "density-bump":
            bump = amp * np.exp(-(((X - 0.5 * grid.lx) / (0.12 * grid.lx)) ** 2) - ((Z - 0.5) / 0.12) ** 2)
            state.rho = state.rho + (bump - bump.mean())
        elif family == "thermal-bump":
            state.theta = state.theta + amp * np.exp(-(((X - 0.5 * grid.lx) / (0.12 * grid.lx)) ** 2)) * window
        elif family == "velocity-kick":
            state.u = state.u + amp * np.sin(phase) * window
            zf = np.arange(1, grid.nz) * grid.dz
            state.w[:, 1:-1] = state.w[:, 1:-1] + amp * np.sin(np.pi * zf)[None, :] * np.cos(phase[:, : grid.nz - 1])
        else:  # random-smooth
            bump = np.zeros_like(X)
            thp = np.zeros_like(X)
            for j in (1, 2):
                for k in (1, 2):
                    bump += rng.standard_normal() * np.cos(j * phase + rng.uniform(0, 2 * np.pi)) * np.sin(np.pi * k * Z) / (j * k)
                    thp += rng.standard_normal() * np.cos(j * phase + rng.uniform(0, 2 * np.pi)) * np.sin(np.pi * k * Z) / (j * k)
            bump *= amp / max(1e-300, float(np.max(np.abs(bump))))
            thp *= amp / max(1e-300, float(np.max(np.abs(thp))))
            state.rho = state.rho + (bump - bump.mean())
            state.theta = state.theta + thp
            state.u = state.u + amp * np.sin(phase) * window
    state.validate()
    return state


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_snapshot(path, state: FluidState):
    """Self-describing container with grid metadata; bit-exact round trip."""
    grid = state.grid
    if grid.dimension == 1:
        meta = {
            "dimension": 1,
            "n": grid.n,
            "theta_bottom": grid.theta_bottom,
            "theta_top": grid.theta_top,
            "length": grid.length,
            "t": state.t,
        }
        arrays = {"rho": state.rho, "theta": state.theta, "u": state.u}
    else:
        meta = {
            "dimension": 2,
            "nx": grid.nx,
            "nz": grid.nz,
            "lx": grid.lx,
            "lz": grid.lz,
            "t": state.t,
        }
        arrays = {
            "rho": state.rho,
            "theta": state.theta,
            "u": state.u,
            "w": state.w,
            "theta_bottom": grid.wall_theta("bottom"),
            "theta_top": grid.wall_theta("top"),
        }
    np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_snapshot(path) -> FluidState:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["dimension"] == 1:
            grid = Grid1D(
                n=meta["n"],
                theta_bottom=meta["theta_bottom"],
                theta_top=meta["theta_top"],
                length=meta["length"],
            )
            return FluidState(grid=grid, t=meta["t"], rho=data["rho"], theta=data["theta"], u=data["u"])
        grid = Grid2D(
            nx=meta["nx"],
            nz=meta["nz"],
            theta_bottom=data["theta_bottom"],
            theta_top=data["theta_top"],
            lx=meta["lx"],
            lz=meta["lz"],
        )
        return FluidState(
            grid=grid, t=meta["t"], rho=data["rho"], theta=data["theta"], u=data["u"], w=data["w"]
        )


class CsvSink:
    """Streams diagnostics records as CSV rows (shortest-round-trip floats)."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "w")
        self._fh.write(",".join(dg.RECORD_FIELDS) + "\n")

    def __call__(self, record):
        row = ",".join(repr(getattr(record, name)) for name in dg.RECORD_FIELDS)
        self._fh.write(row + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def read_csv(path):
    """CSV columns as a dict of float arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {name: data[:, k] for k, name in enumerate(header)}


@dataclass
class RunManifest:
    """Provenance record of one experiment run."""

    label: str
    config_hash: str
    toolkit_version: str
    started_at: str
    finished_at: str
    status: str
    artifacts: list
    counters: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    error: str = ""

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text) -> "RunManifest":
        return cls(**json.loads(text))


def _iso_now():
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, output_dir=None) -> RunManifest:
    """Execute one experiment; always writes a manifest, even on failure.

    Any exception raised in a stage ends the run with status
    ``failed:<stage>`` and the error text in the manifest.  An output
    directory that cannot be made, or the config text not written there,
    raises ConfigError ``output-dir`` before any stage.
    """
    out = Path(output_dir if output_dir is not None else config["output_dir"])
    label = config["label"]
    started = _iso_now()
    artifacts = []
    counters = {}
    invariants = {}
    warnings = []
    stage = "models"

    config_text = resolved_config_text(config)
    config_path = out / f"{label}.config.txt"
    try:
        out.mkdir(parents=True, exist_ok=True)
        config_path.write_text(config_text)
    except OSError as exc:
        raise ConfigError("output-dir", f"cannot write the run's output to {out}: {exc}") from exc
    artifacts.append(str(config_path))
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()

    def finish(status, error=""):
        manifest = RunManifest(
            label=label,
            config_hash=config_hash,
            toolkit_version=TOOLKIT_VERSION,
            started_at=started,
            finished_at=_iso_now(),
            status=status,
            artifacts=artifacts,
            counters=counters,
            invariants=invariants,
            warnings=warnings,
            error=error,
        )
        (out / f"{label}.manifest.json").write_text(manifest.to_json())
        return manifest

    try:
        gas, transport = build_models(config)

        stage = "validate-hypotheses"
        report = thermo.validate_hypotheses(gas)
        report_path = out / f"{label}.hypotheses.txt"
        report_path.write_text(report.to_text())
        artifacts.append(str(report_path))
        invariants["hypotheses_pass"] = report.passed

        stage = "stationary"
        problem = build_problem(config)
        eps = problem.epsilon_report
        counters["epsilon_report"] = eps
        if eps > EPSILON_WARN:
            warnings.append(
                f"epsilon_report = {eps:.3g} exceeds the documented perturbative regime ({EPSILON_WARN})"
            )
        reference = solve_reference(config, problem, gas, transport)
        ref_path = out / f"{label}.reference.npz"
        save_snapshot(ref_path, reference)
        artifacts.append(str(ref_path))
        counters["stationary_iterations"] = reference.iterations
        counters["stationary_mass_error"] = reference.mass_error
        counters["stationary_u_max"] = reference.max_velocity()
        counters["stationary_theta_dev"] = reference.proximity["theta_dev"]
        counters.update(reference.counters)
        if reference.floor_steps:
            warnings.append(
                f"stationary Newton accepted {reference.floor_steps} line-search step(s) "
                "at the floor step without a residual decrease"
            )
        invariants["stationary_mass_ok"] = reference.mass_error < 1.0e-10

        stage = "initial-state"
        initial = make_initial_state(config, reference)
        if config["snapshots"] != "none":
            ini_path = out / f"{label}.initial.npz"
            save_snapshot(ini_path, initial)
            artifacts.append(str(ini_path))

        stage = "simulate"
        csv_path = out / f"{label}.csv"
        meta_path = out / f"{label}.meta.jsonl"
        thresholds = dg.Thresholds.from_reference(reference)
        compute = dg.make_diagnostics(reference, gas, transport, thresholds)
        with open(meta_path, "w") as fh:
            fh.write(json.dumps({"kind": "gas", "p_inf": gas.p_inf, "a": gas.a, "pm_gain": gas.pm_gain}, sort_keys=True) + "\n")
            fh.write(
                json.dumps(
                    {
                        "kind": "transport",
                        "mu0": transport.mu0,
                        "eta0": transport.eta0,
                        "kappa0": transport.kappa0,
                        "beta": transport.beta,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            grid = problem.grid
            grid_meta = (
                {"kind": "grid", "dimension": 1, "n": grid.n}
                if grid.dimension == 1
                else {"kind": "grid", "dimension": 2, "nx": grid.nx, "nz": grid.nz, "lx": grid.lx}
            )
            fh.write(json.dumps(grid_meta, sort_keys=True) + "\n")
            fh.write(
                json.dumps(
                    {
                        "kind": "thresholds",
                        "theta_low": thresholds.theta_low,
                        "theta_high": thresholds.theta_high,
                        "rho_low": thresholds.rho_low,
                        "rho_high": thresholds.rho_high,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            fh.write(json.dumps({"kind": "columns", "names": dg.RECORD_FIELDS}, sort_keys=True) + "\n")
        artifacts.append(str(meta_path))

        with CsvSink(csv_path) as sink:
            snap_every = config["snapshot_every"]
            if snap_every > 0:
                sample_index = [0]
                inner_compute = compute

                def compute(state, _inner=inner_compute):
                    record = _inner(state)
                    if sample_index[0] % snap_every == 0:
                        snap_path = out / f"{label}.t{state.t:.6f}.npz"
                        save_snapshot(snap_path, state)
                        artifacts.append(str(snap_path))
                    sample_index[0] += 1
                    return record

            control = StepControl(
                cfl_target=config["cfl"],
                dt_min=config["dt_min"],
                dt_max=config["dt_max"],
                max_retries=config["max_retries"],
            )
            result = sim.run(
                initial,
                config["horizon"],
                control,
                gas,
                transport,
                problem.potential_field(),
                diagnostics=compute,
                cadence=config["cadence"],
                sinks=(sink,),
                keep_samples=False,
                convection=config["convection"],
            )
        artifacts.append(str(csv_path))

        counters.update(result.counters, steps=result.steps, retries=result.retries, wall_time=result.wall_time)
        if result.aborted:
            raise SolverStageError("simulate", result.abort_reason)

        records = result.records
        rel = [r.relative_energy for r in records]
        counters["relative_energy_initial"] = rel[0]
        counters["relative_energy_final"] = rel[-1]
        scale = max(1.0, records[0].total_energy)
        invariants["mass_constant"] = (
            max(abs(r.mass - records[0].mass) for r in records) <= 1.0e-12 * max(1.0, records[0].mass)
        )
        invariants["relative_energy_nonnegative"] = all(
            r.relative_energy >= -1.0e-12 * scale for r in records
        )
        invariants["entropy_production_nonnegative"] = all(
            r.entropy_production_integral >= 0.0 for r in records
        )
        invariants["dual_form_identity"] = all(
            abs(r.relative_energy_form_delta) <= 1.0e-12 * max(1.0, r.relative_energy, scale)
            for r in records
        )
        growth = energy_growth(records, 1.0e-12 * scale)
        if growth is not None:
            warnings.append(
                f"relative energy grows after t = {GROWTH_AFTER:g}: {growth[0]:.3g} above its "
                f"running minimum at t = {growth[1]:.6g}"
            )
        if config["snapshots"] != "none":
            fin_path = out / f"{label}.final.npz"
            save_snapshot(fin_path, result.final_state)
            artifacts.append(str(fin_path))
    except Exception as exc:
        return finish(f"failed:{stage}", str(exc))
    return finish("ok" if all(invariants.values()) else "invariant-violation")


def _manifest_csv(manifest: RunManifest):
    for path in manifest.artifacts:
        if path.endswith(".csv"):
            return path
    raise ValueError("manifest lists no CSV artifact")


def compare_runs(manifest_a: RunManifest, manifest_b: RunManifest) -> dict:
    """Column-wise maximum relative deviation between two runs' CSV series."""
    a = read_csv(_manifest_csv(manifest_a))
    b = read_csv(_manifest_csv(manifest_b))
    if sorted(a) != sorted(b):
        raise ValueError("CSV column schemas differ")
    report = {}
    for name in a:
        xa, xb = a[name], b[name]
        rows = min(xa.size, xb.size)
        if rows == 0:
            report[name] = 0.0
            continue
        xa, xb = xa[:rows], xb[:rows]
        scale = np.maximum(1.0, np.maximum(np.abs(xa), np.abs(xb)))
        report[name] = float(np.max(np.abs(xa - xb) / scale))
    report["_rows"] = float(rows)
    report["_identical"] = float(
        Path(_manifest_csv(manifest_a)).read_bytes() == Path(_manifest_csv(manifest_b)).read_bytes()
    )
    return report


def sweep(config: ExperimentConfig, param: str, values, output_dir=None):
    """Run the experiment once per parameter value; returns the manifests."""
    if param not in _SCHEMA:
        raise ConfigError("unknown-key", f"unknown sweep key {param!r}")
    out = Path(output_dir if output_dir is not None else config["output_dir"])
    manifests = []
    for k, value in enumerate(values):
        mapping = dict(config.values)
        mapping[param] = value
        mapping["label"] = f"{config['label']}-{param.replace('.', '-')}-{k}"
        sub = config_from_mapping({key: str(v) for key, v in mapping.items()})
        manifests.append(run_experiment(sub, output_dir=out / mapping["label"]))
    return manifests

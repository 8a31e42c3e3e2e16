"""Outside-in tracer for nsfsim.

Spans are recorded around calls into the package's modules by replacing
module (and class) attributes at run time and putting the originals back
afterwards, so no file of the package changes.  Every module looks up its
collaborators through the module object (``thermo.pressure``,
``ops.steady_residual_2d``, ``simulator.splu``), which is what makes the
replacement visible to callers inside the package.

A span is ``[id, parent_id, name, start, end, info]``; ids count from 1 and
0 is the root.  The layer of a span is the part of its name before the
first dot.  A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from nsfsim import diagnostics, experiment, operators, simulator, stationary, thermo

LAYERS = ("thermo", "operators", "simulator", "stationary", "diagnostics", "experiment")
RAISED = "raised"

# Helpers other modules call although they are not in __all__.
_THERMO_EXTRA = ("degeneracy", "_volumetric_energy_raw", "_volumetric_heat_capacity_raw")
_OPERATORS_EXTRA = ("_corner_mu",)
_IO = "experiment.io"


class Tracer:
    """Records spans in memory for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.paused = False
        self._stack = [0]
        self._layers = [None]  # layer of each span by id; 0 is the root
        self._patches = []

    def wrap(self, fn, name, info=None, result=None, entries_only=False):
        """``fn`` recording a span per call.

        ``info(args, kwargs, out)`` is stored on the span; ``result(out)``
        replaces the return value.  Both run after the span ends; a hook that
        calls traced code sets :attr:`paused` around the call.
        With ``entries_only`` a call made from inside a span of the same
        layer records nothing; its time stays in the caller's self time.
        """
        spans, stack, layers, clock = self.spans, self._stack, self._layers, time.perf_counter
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if self.paused or (entries_only and layers[parent] == layer):
                return fn(*args, **kwargs)
            span = [len(spans) + 1, parent, name, clock(), 0.0, None]
            spans.append(span)
            layers.append(layer)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = RAISED
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, out)
            if result is not None:
                out = result(out)
            return out

        return traced

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_traced(self, owner, attr, name, **hooks):
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

    def restore(self):
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_times(self) -> list:
        """Self time of every span, indexed by span id - 1."""
        covered = [0.0] * (len(self.spans) + 1)
        for _, parent, _, start, end, _ in self.spans:
            covered[parent] += end - start
        return [end - start - covered[sid] for sid, _, _, start, end, _ in self.spans]

    def write(self, path):
        """Write the spans as CSV, times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for sid, parent, name, start, end, _ in self.spans:
                fh.write(f"{self.run_id},{sid},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")


def _cells(args, kwargs, out):
    """Cells in one closure call: the size of the field after the model."""
    return getattr(args[1], "size", 1) if len(args) > 1 else 0


def _public_functions(module, extra=()):
    names = (*module.__all__, *extra)
    return [n for n in names if callable(getattr(module, n)) and not isinstance(getattr(module, n), type)]


class _TracedLU:
    """Stands in for scipy's SuperLU so that its solves are timed too."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


@contextmanager
def traced_nsfsim(tracer: Tracer):
    """Install spans at every layer boundary of nsfsim for the ``with`` body."""
    t = tracer
    try:
        for name in _public_functions(thermo, _THERMO_EXTRA):
            t.patch_traced(thermo, name, f"thermo.{name}", info=_cells, entries_only=True)
        for name in _public_functions(operators, _OPERATORS_EXTRA):
            t.patch_traced(operators, name, f"operators.{name}", entries_only=True)

        original_cfl = simulator.cfl_dt

        def viscous_limited(args, kwargs, dt):
            if len(args) < 4 or args[3] is None:
                return False
            # the same call without transport gives the acoustic bound alone
            t.paused = True
            try:
                return dt < original_cfl(*args[:3])
            finally:
                t.paused = False

        t.patch_traced(simulator, "run", "simulator.run")
        t.patch_traced(simulator, "step", "simulator.step", info=lambda a, k, out: a[1])
        t.patch_traced(simulator, "cfl_dt", "simulator.cfl_dt", info=viscous_limited)
        t.patch_traced(
            simulator,
            "splu",
            "simulator.splu",
            info=lambda a, k, lu: lu.L.nnz + lu.U.nnz,
            result=lambda lu: _TracedLU(lu, t.wrap(lu.solve, "simulator.splu_solve")),
        )

        def coo_with_traced_conversion(m):
            m.tocsc = t.wrap(m.tocsc, "simulator.coo_tocsc")
            return m

        t.patch_traced(simulator, "coo_matrix", "simulator.coo_matrix", result=coo_with_traced_conversion)
        t.patch_traced(simulator, "solve_banded", "simulator.solve_banded")

        for name in ("solve_rb_pipeline", "solve_stationary_newton", "solve_hydrostatic_density",
                     "solve_heat_profile_1d", "static_uniform"):
            t.patch_traced(stationary, name, f"stationary.{name}")
        original_brentq = stationary.brentq

        def brentq(f, *args, **kwargs):
            return original_brentq(t.wrap(f, "stationary.mass_shot"), *args, **kwargs)

        t.patch(stationary, "brentq", t.wrap(brentq, "stationary.brentq"))
        # only stationary's Newton calls the dense solver
        t.patch_traced(np.linalg, "solve", "stationary.dense_solve")

        t.patch_traced(
            diagnostics,
            "make_diagnostics",
            "diagnostics.make_diagnostics",
            result=lambda compute: t.wrap(compute, "diagnostics.record"),
        )

        for name in ("run_experiment", "solve_reference", "build_models", "build_problem", "make_initial_state"):
            t.patch_traced(experiment, name, f"experiment.{name}")
        t.patch_traced(experiment, "save_snapshot", f"{_IO}.save_snapshot")
        for name in ("__init__", "__call__", "close"):
            t.patch_traced(experiment.CsvSink, name, f"{_IO}.csv_{name.strip('_')}")
        t.patch_traced(pathlib.Path, "write_text", f"{_IO}.write_text")
        yield t
    finally:
        t.restore()


def _quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Every per-layer metric of one traced run, by name."""
    spans = tracer.spans
    self_s = tracer.self_times()
    layer = [name.split(".", 1)[0] for _, _, name, _, _, _ in spans]
    in_stationary = [False] * (len(spans) + 1)
    by_name = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    entries = defaultdict(int)
    thermo_cells = 0
    scalar_closure_calls = 0
    io_s = 0.0
    heat_calls = 0

    for k, (sid, parent, name, start, end, info) in enumerate(spans):
        by_name[name].append(k)
        layer_self[layer[k]] += self_s[k]
        parent_layer = layer[parent - 1] if parent else None
        parent_name = spans[parent - 1][2] if parent else ""
        in_stationary[sid] = in_stationary[parent] or layer[k] == "stationary"
        if parent_layer != layer[k]:
            entries[layer[k]] += 1
            if layer[k] == "thermo" and info != RAISED:
                thermo_cells += info
                scalar_closure_calls += info == 1 and in_stationary[parent]
        if name.startswith(_IO) and not parent_name.startswith(_IO):
            io_s += end - start
        if name.startswith("operators.kirchhoff_div_") and parent_name == "simulator.step":
            heat_calls += 1

    def duration(name):
        return sum(spans[k][4] - spans[k][3] for k in by_name[name])

    def calls(name):
        return len(by_name[name])

    steps = [spans[k] for k in by_name["simulator.step"]]
    accepted_dt = [s[5] for s in steps if s[5] != RAISED]
    step_ms = [1e3 * (s[4] - s[3]) for s in steps]
    cfl = [spans[k][5] for k in by_name["simulator.cfl_dt"]]
    lu_nnz = [spans[k][5] for k in by_name["simulator.splu"]]
    records_ms = [1e3 * (spans[k][4] - spans[k][3]) for k in by_name["diagnostics.record"]]
    n_steps = len(accepted_dt)
    root = spans[by_name["experiment.run_experiment"][0]]

    metrics = {
        "thermo.calls": entries["thermo"],
        "thermo.cells": thermo_cells,
        "thermo.ns_per_cell": 1e9 * layer_self["thermo"] / max(thermo_cells, 1),
        "thermo.temperature_from_energy_s": duration("thermo.temperature_from_energy"),
        "thermo.validate_hypotheses_s": duration("thermo.validate_hypotheses"),
        "operators.calls": entries["operators"],
        "operators.steady_residual_evals": calls("operators.steady_residual_1d")
        + calls("operators.steady_residual_2d"),
        "simulator.sim_s": duration("simulator.run"),
        "simulator.steps": n_steps,
        "simulator.retries": len(steps) - n_steps,
        "simulator.dt_median": statistics.median(accepted_dt) if accepted_dt else 0.0,
        "simulator.dt_min": min(accepted_dt, default=0.0),
        "simulator.step_ms_p50": _quantile(step_ms, 0.5),
        "simulator.step_ms_p99": _quantile(step_ms, 0.99),
        "simulator.step_self_s": sum(self_s[k] for k in by_name["simulator.step"]),
        "simulator.cfl_dt_s": duration("simulator.cfl_dt"),
        "simulator.heat_iters_per_step": heat_calls / max(n_steps, 1),
        "simulator.viscous_limited_frac": sum(cfl) / max(len(cfl), 1),
        "simulator.splu_calls": calls("simulator.splu"),
        "simulator.splu_s": duration("simulator.splu") + duration("simulator.splu_solve"),
        "simulator.coo_s": duration("simulator.coo_matrix") + duration("simulator.coo_tocsc"),
        "simulator.lu_nnz": sum(lu_nnz) / max(len(lu_nnz), 1),
        "simulator.banded_calls": calls("simulator.solve_banded"),
        "simulator.banded_s": duration("simulator.solve_banded"),
        "stationary.newton_s": duration("stationary.solve_stationary_newton"),
        "stationary.newton_iters": calls("stationary.dense_solve"),
        "stationary.dense_solve_s": duration("stationary.dense_solve"),
        "stationary.pipeline_s": duration("stationary.solve_rb_pipeline"),
        "stationary.hydrostatic_s": duration("stationary.solve_hydrostatic_density"),
        "stationary.mass_shots": calls("stationary.mass_shot"),
        "stationary.scalar_closure_calls": scalar_closure_calls,
        "diagnostics.records": len(records_ms),
        "diagnostics.record_ms": statistics.median(records_ms) if records_ms else 0.0,
        "experiment.stationary_s": duration("experiment.solve_reference"),
        "experiment.io_s": io_s,
        "experiment.bytes_written": bytes_written,
        "trace.wall_s": root[4] - root[3],
    }
    for name in LAYERS:
        metrics[f"{name}.self_s"] = layer_self[name]
    return metrics


def self_time_by_boundary(tracer: Tracer) -> dict:
    """Self time summed per span name, largest first."""
    totals = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        totals[span[2]] += own
    return dict(sorted(totals.items(), key=lambda item: -item[1]))

"""The periodic slab: plate-driven convection in two dimensions.

Demonstrates the horizontally periodic slab topology: a short perturbed run
on the vertically heated slab, then the stationary flow driven by a
laterally modulated bottom plate (the stationary velocity need not vanish
for nonconstant plate temperature), with its linear small-data scaling.

Run:  python demos/04_rayleigh_benard_slab.py
"""

import numpy as np

from nsfsim import diagnostics as dg
from nsfsim import experiment as ex
from nsfsim import simulator as sim
from nsfsim.grids import Grid2D, StepControl
from nsfsim.stationary import ProblemConfig, solve_stationary_newton
from nsfsim.thermo import GasModel, TransportModel

gas, trans = GasModel(), TransportModel()

print("== short perturbed run on the vertically heated slab ==")
config = ex.config_from_mapping({}, preset="rb-2d-topology")
problem = ex.build_problem(config)
reference = ex.solve_reference(config, problem, gas, trans)
initial = ex.make_initial_state(config, reference)
control = StepControl(cfl_target=config["cfl"], dt_min=config["dt_min"], dt_max=config["dt_max"])
result = sim.run(
    initial, config["horizon"], control, gas, trans, problem.potential_field(),
    diagnostics=dg.make_diagnostics(reference, gas, trans), cadence=config["cadence"],
    keep_samples=False,
)
print(f"  steps = {result.steps}, wall = {result.wall_time:.1f}s")
print("     t    relative energy      mass")
for r in result.records:
    print(f"  {r.t:5.2f}   {r.relative_energy:13.6e}   {r.mass:.12f}")

print("\n== stationary convection from a laterally modulated bottom plate ==")
print("   wobble eps   max|u_s|      max|theta_s - mean|")
for eps in (1e-3, 2e-3, 4e-3):
    nx, nz = 12, 8
    xc = (np.arange(nx) + 0.5) * (2.0 / nx)
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=1.0 + eps * np.cos(np.pi * xc), theta_top=1.0)
    cfg = ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.01))
    state = solve_stationary_newton(cfg, gas, trans)
    print(f"   {eps:9.1e}   {state.max_velocity():.4e}   {state.proximity['theta_dev']:.4e}")
print("   (both columns double per wobble doubling: the small-data linear regime)")

"""Decay of a perturbed heated column back to its stationary state.

Runs the one-dimensional convection scenario with a smooth seeded
perturbation and prints the relative-energy (Bregman-distance) history:
unconditional contraction toward the stationary reference, while total
mass stays constant and entropy production stays nonnegative.

Run:  python demos/03_decay_to_equilibrium.py
"""

import numpy as np

from nsfsim import diagnostics as dg
from nsfsim import experiment as ex
from nsfsim import simulator as sim
from nsfsim.grids import StepControl

config = ex.config_from_mapping({"horizon": "12.0"}, preset="rb-1d-small")
gas, trans = ex.build_models(config)
problem = ex.build_problem(config)
reference = ex.solve_reference(config, problem, gas, trans)
initial = ex.make_initial_state(config, reference)

control = StepControl(cfl_target=config["cfl"], dt_min=config["dt_min"], dt_max=config["dt_max"])
result = sim.run(
    initial,
    config["horizon"],
    control,
    gas,
    trans,
    problem.potential_field(),
    diagnostics=dg.make_diagnostics(reference, gas, trans),
    cadence=0.5,
    sample_every_step=True,  # per-step window for the inequality residuals
)

print(f"steps = {result.steps}, retries = {result.retries}, wall = {result.wall_time:.1f}s")
print("\n     t    relative energy    mass drift     entropy prod    |u-u_s| H1")
records = result.records
for r in records:
    bar = "#" * max(0, int(44 + 2 * np.log10(max(r.relative_energy, 1e-22))))
    print(
        f"  {r.t:5.1f}   {r.relative_energy:13.6e}   {abs(r.mass - records[0].mass):9.2e}"
        f"   {r.entropy_production_integral:12.6e}   {r.u_h1_sq:11.4e}  {bar}"
    )

er, br = dg.inequality_residuals(result.samples, reference, gas, trans, problem.potential_field())
print(f"\nwindowed inequality residuals: entropy = {er:+.3e}, ballistic = {br:+.3e}")
print(f"relative energy contraction: {records[-1].relative_energy / records[0].relative_energy:.3e}")

"""Stationary states of the heated column.

Solves the plate-driven conduction profile through the conductivity
primitive, stacks the hydrostatic density on top of it, and cross-checks the
composition against the damped Newton solve of the fully coupled system.

Run:  python demos/02_stationary_states.py
"""

import numpy as np

from nsfsim import operators as ops
from nsfsim.grids import Grid1D
from nsfsim.stationary import (
    ProblemConfig,
    solve_rb_pipeline,
    solve_stationary_newton,
    static_uniform,
)
from nsfsim.thermo import GasModel, TransportModel

gas, trans = GasModel(), TransportModel()

print("== uniform static state (constant plates, no potential) ==")
flat = static_uniform(ProblemConfig(grid=Grid1D(n=64), m0=2.0), gas, trans)
print(f"  rho = {flat.rho[0]}, theta = {flat.theta[0]}, residuals = {flat.residual_norms}")

print("\n== heated column: plates (1.05, 1.00), g = 0.01, m0 = 1 ==")
grid = Grid1D(n=128, theta_bottom=1.05, theta_top=1.0)
config = ProblemConfig(grid=grid, m0=1.0, g=0.01)
print(f"  data size epsilon = {config.epsilon_report:.4f}")

pipe = solve_rb_pipeline(config, gas, trans)
print(f"  pipeline residual norms : {pipe.residual_norms}")
print(f"  pipeline mass error     : {pipe.mass_error:.2e}")
(flux,) = ops.kirchhoff_fluxes_nd(grid, trans, pipe.theta)
print(f"  heat-flux variation     : {float(np.max(flux) - np.min(flux)):.2e} (constant to rounding)")

newton = solve_stationary_newton(config, gas, trans)
print(f"  newton iterations       : {newton.iterations}")
print(f"  newton residual norms   : {newton.residual_norms}")
gap = max(
    float(np.max(np.abs(newton.rho - pipe.rho))),
    float(np.max(np.abs(newton.theta - pipe.theta))),
    float(np.max(np.abs(newton.u))),
)
print(f"  newton vs pipeline      : {gap:.2e} (cross-solver agreement)")

print("\n  z-profile (every 16th cell):")
print("      x        rho_s      theta_s")
for k in range(0, 128, 16):
    print(f"   {grid.centers()[k]:6.4f}  {pipe.rho[k]:9.6f}  {pipe.theta[k]:9.6f}")

"""Discrete spatial operators on the staggered grids.

These stencils are the single source of truth for the semi-discrete system:
the time stepper advances them and the stationary solvers zero them, so a
stationary state is an exact fixed point of the stepper (to solver rounding).
Both sides call the same functions: ``mass_rhs_*`` for continuity,
``momentum_explicit_*`` and ``viscous_rhs_*`` for momentum, and
``energy_explicit_*`` (transport of rho*e, shear heating, pressure work) with
``kirchhoff_div_*`` for energy.  ``steady_residual_*`` combines them with the
stepper's signs; the 2-D velocity gradients, wall ghost reflection included,
come from ``strain_rates_2d`` alone.

Conventions
-----------
1-D: scalars ``q`` at centers (n,), velocity ``u`` at faces (n+1,) with wall
faces pinned to zero.  2-D (periodic x, walls in z): scalars (nx, nz);
``u[i, k]`` on the x-face west of cell (i, k); ``w[i, k]`` on the z-face below
cell (i, k), shape (nx, nz+1), wall rows pinned to zero.

Convection is first-order upwind (donor cell), pressure gradients are central
two-point differences, diffusion of heat runs through the conductivity
primitive K(theta) so a profile linear in K carries an exactly constant
discrete heat flux.
"""

from __future__ import annotations

import numpy as np

from . import thermo
from .grids import Grid1D, Grid2D

__all__ = [
    "upwind_flux_1d",
    "mass_rhs_1d",
    "momentum_explicit_1d",
    "viscous_rhs_1d",
    "viscous_banded_matrix_1d",
    "kirchhoff_fluxes_1d",
    "kirchhoff_div_1d",
    "shear_heating_1d",
    "energy_explicit_1d",
    "steady_residual_1d",
    "mass_rhs_2d",
    "strain_rates_2d",
    "momentum_explicit_2d",
    "viscous_rhs_2d",
    "kirchhoff_div_2d",
    "shear_heating_2d",
    "energy_explicit_2d",
    "steady_residual_2d",
    "column_viscosity",
]


def column_viscosity(transport, theta):
    """(4/3) mu + eta: the 1-D longitudinal viscous coefficient."""
    mu, eta = thermo.viscosities(transport, theta)
    return 4.0 / 3.0 * mu + eta


# ---------------------------------------------------------------------------
# 1-D column
# ---------------------------------------------------------------------------


def upwind_flux_1d(u, q, scheme: str = "upwind"):
    """Face flux of a center quantity q; wall faces carry zero.

    scheme="upwind" is the positivity-robust donor cell; "minmod" adds a
    second-order MUSCL reconstruction with the minmod limiter (slopes drop
    to zero at the wall-adjacent faces).
    """
    flux = np.zeros_like(u)
    ui = u[1:-1]
    if scheme == "upwind":
        flux[1:-1] = np.where(ui > 0.0, ui * q[:-1], ui * q[1:])
        return flux
    if scheme != "minmod":
        raise ValueError(f"unknown convection scheme {scheme!r}")
    jumps = np.diff(q)
    slope = np.zeros_like(q)
    left, right = jumps[:-1], jumps[1:]
    both = (left * right) > 0.0
    slope[1:-1] = np.where(both, np.sign(left) * np.minimum(np.abs(left), np.abs(right)), 0.0)
    q_left = q[:-1] + 0.5 * slope[:-1]
    q_right = q[1:] - 0.5 * slope[1:]
    flux[1:-1] = np.where(ui > 0.0, ui * q_left, ui * q_right)
    return flux


def mass_rhs_1d(grid: Grid1D, rho, u):
    flux = upwind_flux_1d(u, rho)
    return -(flux[1:] - flux[:-1]) / grid.dx


def momentum_explicit_1d(grid, gas, G, rho_pressure, theta, rho_inertia, u):
    """Explicit momentum tendencies at interior faces.

    Returns (conv, dpdx, grav): upwinded momentum convection, the central
    pressure gradient evaluated at ``rho_pressure`` (the already-updated
    density, which keeps the acoustic coupling neutrally stable), and the
    potential force with the same face density.
    """
    dx = grid.dx
    p = thermo.pressure(gas, rho_pressure, theta)
    dpdx = (p[1:] - p[:-1]) / dx
    if G is None:
        grav = np.zeros(grid.n - 1)
    else:
        rb = 0.5 * (rho_pressure[:-1] + rho_pressure[1:])
        grav = rb * (G[1:] - G[:-1]) / dx
    m = np.zeros(grid.n + 1)
    m[1:-1] = 0.5 * (rho_inertia[:-1] + rho_inertia[1:]) * u[1:-1]
    uc = 0.5 * (u[:-1] + u[1:])
    phi = np.where(uc > 0.0, uc * m[:-1], uc * m[1:])
    conv = (phi[1:] - phi[:-1]) / dx
    return conv, dpdx, grav


def viscous_rhs_1d(grid, transport, theta, u):
    """d/dx( ((4/3)mu + eta) du/dx ) at interior faces."""
    nu = column_viscosity(transport, theta)
    stress = nu * (u[1:] - u[:-1]) / grid.dx
    return (stress[1:] - stress[:-1]) / grid.dx


def viscous_banded_matrix_1d(grid, transport, theta, rho_face, dt):
    """Banded matrix of rho_face*u - dt * viscous(u) on interior faces.

    Returns ``ab`` in scipy solve_banded (1, 1) layout.
    """
    n = grid.n
    nu = column_viscosity(transport, theta)
    lam = dt / grid.dx**2
    diag = rho_face + lam * (nu[1:] + nu[:-1])
    upper = np.zeros(n - 1)
    lower = np.zeros(n - 1)
    upper[1:] = -lam * nu[1:-1]
    lower[:-1] = -lam * nu[1:-1]
    return np.vstack([upper, diag, lower])


def _wall_normal_fluxes(grid, transport, K, h):
    """K-differences across the faces along the last axis (spacing h); the
    wall faces close half-cells against the plate temperatures."""
    Kb = thermo.conductivity_primitive(transport, grid.wall_theta("bottom"))
    Kt = thermo.conductivity_primitive(transport, grid.wall_theta("top"))
    H = np.empty(K.shape[:-1] + (K.shape[-1] + 1,))
    H[..., 0] = (K[..., 0] - Kb) / (0.5 * h)
    H[..., 1:-1] = (K[..., 1:] - K[..., :-1]) / h
    H[..., -1] = (Kt - K[..., -1]) / (0.5 * h)
    return H


def kirchhoff_fluxes_1d(grid: Grid1D, transport, theta):
    """Discrete heat flux K-differences at every face, wall half-cells included."""
    return _wall_normal_fluxes(grid, transport, thermo.conductivity_primitive(transport, theta), grid.dx)


def kirchhoff_div_1d(grid, transport, theta):
    H = kirchhoff_fluxes_1d(grid, transport, theta)
    return (H[1:] - H[:-1]) / grid.dx


def shear_heating_1d(grid, transport, theta, u):
    """Viscous dissipation density ((4/3)mu + eta) (du/dx)^2 >= 0 at centers."""
    divu = (u[1:] - u[:-1]) / grid.dx
    return column_viscosity(transport, theta) * divu**2


def energy_explicit_1d(grid, gas, transport, rho_pressure, theta, evol, u, u_source, scheme="upwind"):
    """Explicit internal-energy tendencies (conv_e, heat, work) at centers.

    ``evol`` (rho*e) is transported by ``u``; the shear heating and the
    pressure work p(rho_pressure) div u use ``u_source``, which is the
    half-step velocity in the stepper and ``u`` in the steady residual.
    """
    conv_e = np.diff(upwind_flux_1d(u, evol, scheme)) / grid.dx
    heat = shear_heating_1d(grid, transport, theta, u_source)
    div = (u_source[1:] - u_source[:-1]) / grid.dx
    work = thermo.pressure(gas, rho_pressure, theta) * div
    return conv_e, heat, work


def steady_residual_1d(grid, gas, transport, G, rho, theta, u):
    """(continuity, momentum, energy) residuals of the semi-discrete system."""
    cont = -mass_rhs_1d(grid, rho, u)
    conv, dpdx, grav = momentum_explicit_1d(grid, gas, G, rho, theta, rho, u)
    mom = conv + dpdx - grav - viscous_rhs_1d(grid, transport, theta, u)
    evol = rho * thermo.internal_energy(gas, rho, theta)
    conv_e, heat, work = energy_explicit_1d(grid, gas, transport, rho, theta, evol, u, u)
    energy = conv_e - kirchhoff_div_1d(grid, transport, theta) - heat + work
    return cont, mom, energy


# ---------------------------------------------------------------------------
# 2-D slab (periodic x, walls z)
# ---------------------------------------------------------------------------


def _west(a):
    return np.roll(a, 1, axis=-2)


def _east(a):
    return np.roll(a, -1, axis=-2)


def mass_fluxes_2d(rho, u, w):
    """Donor-cell fluxes of a center quantity through x- and z-faces."""
    fx = np.where(u > 0.0, u * _west(rho), u * rho)
    fz = np.zeros_like(w)
    wi = w[:, 1:-1]
    fz[:, 1:-1] = np.where(wi > 0.0, wi * rho[:, :-1], wi * rho[:, 1:])
    return fx, fz


def _divergence_2d(grid: Grid2D, fx, fz):
    """Center divergence of a face field (x-faces periodic, z-faces walled)."""
    return (_east(fx) - fx) / grid.dx + (fz[:, 1:] - fz[:, :-1]) / grid.dz


def mass_rhs_2d(grid: Grid2D, rho, u, w):
    return -_divergence_2d(grid, *mass_fluxes_2d(rho, u, w))


def _corner_mu(grid: Grid2D, transport, mu_c):
    """mu at x-face/z-face crossings, shape (nx, nz+1), averaged from mu_c at
    the centers; the wall rows read the closure at theta_B."""
    mu = np.empty((grid.nx, grid.nz + 1))
    mu[:, 1:-1] = 0.25 * (
        mu_c[:, :-1] + mu_c[:, 1:] + _west(mu_c)[:, :-1] + _west(mu_c)[:, 1:]
    )
    walls = np.stack([grid.wall_theta("bottom"), grid.wall_theta("top")], axis=1)
    mu[:, [0, -1]] = thermo.viscosities(transport, 0.5 * (walls + _west(walls)))[0]
    return mu


def strain_rates_2d(grid: Grid2D, u, w):
    """(du/dx, dw/dz) at centers and (du/dz, dw/dx) at corners.

    At the walls du/dz reflects u across the no-slip wall (ghost value -u).
    Leading axes of ``u`` and ``w`` (a stack of fields) are carried through.
    """
    dz = grid.dz
    dudz = np.empty(u.shape[:-1] + (grid.nz + 1,))
    dudz[..., 1:-1] = (u[..., 1:] - u[..., :-1]) / dz
    dudz[..., 0] = 2.0 * u[..., 0] / dz
    dudz[..., -1] = -2.0 * u[..., -1] / dz
    return (_east(u) - u) / grid.dx, (w[..., 1:] - w[..., :-1]) / dz, dudz, (w - _west(w)) / grid.dx


def momentum_explicit_2d(grid, gas, G, rho_pressure, theta, rho_inertia, u, w):
    """Explicit tendencies (conv, dpdx, grav) for both momentum components.

    Output shapes: x-component (nx, nz); z-component (nx, nz+1) with zero
    wall rows.
    """
    dx, dz = grid.dx, grid.dz
    p = thermo.pressure(gas, rho_pressure, theta)

    rbu = 0.5 * (_west(rho_inertia) + rho_inertia)
    mu_mom = rbu * u
    uc = 0.5 * (u + _east(u))
    phix = np.where(uc > 0.0, uc * mu_mom, uc * _east(mu_mom))
    wc = 0.5 * (_west(w) + w)
    phiz = np.zeros((grid.nx, grid.nz + 1))
    wci = wc[:, 1:-1]
    phiz[:, 1:-1] = np.where(wci > 0.0, wci * mu_mom[:, :-1], wci * mu_mom[:, 1:])
    conv_u = (phix - _west(phix)) / dx + (phiz[:, 1:] - phiz[:, :-1]) / dz

    dpdx = (p - _west(p)) / dx
    rbu_p = 0.5 * (_west(rho_pressure) + rho_pressure)
    grav_u = rbu_p * (G - _west(G)) / dx if G is not None else np.zeros_like(u)

    mw = np.zeros_like(w)
    mw[:, 1:-1] = 0.5 * (rho_inertia[:, :-1] + rho_inertia[:, 1:]) * w[:, 1:-1]
    wcz = 0.5 * (w[:, :-1] + w[:, 1:])
    phi_wz = np.where(wcz > 0.0, wcz * mw[:, :-1], wcz * mw[:, 1:])
    uc2 = np.zeros_like(w)
    uc2[:, 1:-1] = 0.5 * (u[:, :-1] + u[:, 1:])
    phi_wx = np.where(uc2 > 0.0, uc2 * _west(mw), uc2 * mw)
    conv_w = np.zeros_like(w)
    conv_w[:, 1:-1] = (
        (_east(phi_wx) - phi_wx)[:, 1:-1] / dx
        + (phi_wz[:, 1:] - phi_wz[:, :-1]) / dz
    )

    dpdz = np.zeros_like(w)
    dpdz[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / dz
    grav_w = np.zeros_like(w)
    if G is not None:
        rbw_p = 0.5 * (rho_pressure[:, :-1] + rho_pressure[:, 1:])
        grav_w[:, 1:-1] = rbw_p * (G[:, 1:] - G[:, :-1]) / dz
    return (conv_u, dpdx, grav_u), (conv_w, dpdz, grav_w)


def viscous_rhs_2d(grid, transport, theta, u, w):
    """Full Newtonian stress divergence at the velocity nodes.

    ``u`` and ``w`` may be stacks of fields along leading axes; the
    viscosities are read from ``theta`` once and serve every field.
    """
    dx, dz = grid.dx, grid.dz
    mu_c, eta_c = thermo.viscosities(transport, theta)
    lam_c = eta_c - 2.0 / 3.0 * mu_c
    dudx, dwdz, dudz, dwdx = strain_rates_2d(grid, u, w)
    div = dudx + dwdz
    sxx = 2.0 * mu_c * dudx + lam_c * div
    szz = 2.0 * mu_c * dwdz + lam_c * div
    sxz = _corner_mu(grid, transport, mu_c) * (dudz + dwdx)
    vx = (sxx - _west(sxx)) / dx + (sxz[..., 1:] - sxz[..., :-1]) / dz
    vz = np.zeros_like(w)
    vz[..., 1:-1] = (_east(sxz) - sxz)[..., 1:-1] / dx + (szz[..., 1:] - szz[..., :-1]) / dz
    return vx, vz


def shear_heating_2d(grid, transport, theta, u, w):
    """S(theta, Du) : Du at centers; nonnegative by construction."""
    mu_c, eta_c = thermo.viscosities(transport, theta)
    dudx, dwdz, dudz, dwdx = strain_rates_2d(grid, u, w)
    div = dudx + dwdz
    dxz_sq = (0.5 * (dudz + dwdx)) ** 2
    dxz_sq_c = 0.25 * (
        (dxz_sq + _east(dxz_sq))[:, :-1] + (dxz_sq + _east(dxz_sq))[:, 1:]
    )
    return (
        2.0 * mu_c * (dudx**2 + dwdz**2 + 2.0 * dxz_sq_c)
        - 2.0 / 3.0 * mu_c * div**2
        + eta_c * div**2
    )


def kirchhoff_fluxes_2d(grid: Grid2D, transport, theta):
    K = thermo.conductivity_primitive(transport, theta)
    return (K - _west(K)) / grid.dx, _wall_normal_fluxes(grid, transport, K, grid.dz)


def kirchhoff_div_2d(grid, transport, theta):
    hx, hz = kirchhoff_fluxes_2d(grid, transport, theta)
    return (_east(hx) - hx) / grid.dx + (hz[:, 1:] - hz[:, :-1]) / grid.dz


def energy_explicit_2d(grid, gas, transport, rho_pressure, theta, evol, u, w, u_source, w_source):
    """Explicit internal-energy tendencies (conv_e, heat, work) at centers;
    the 2-D counterpart of ``energy_explicit_1d`` (donor-cell transport)."""
    conv_e = _divergence_2d(grid, *mass_fluxes_2d(evol, u, w))
    heat = shear_heating_2d(grid, transport, theta, u_source, w_source)
    work = thermo.pressure(gas, rho_pressure, theta) * _divergence_2d(grid, u_source, w_source)
    return conv_e, heat, work


def steady_residual_2d(grid, gas, transport, G, rho, theta, u, w):
    """(continuity, x-momentum, z-momentum (interior), energy) residuals."""
    cont = -mass_rhs_2d(grid, rho, u, w)
    (conv_u, dpdx, grav_u), (conv_w, dpdz, grav_w) = momentum_explicit_2d(
        grid, gas, G, rho, theta, rho, u, w
    )
    vx, vz = viscous_rhs_2d(grid, transport, theta, u, w)
    mom_u = conv_u + dpdx - grav_u - vx
    mom_w = (conv_w + dpdz - grav_w - vz)[:, 1:-1]
    evol = rho * thermo.internal_energy(gas, rho, theta)
    conv_e, heat, work = energy_explicit_2d(grid, gas, transport, rho, theta, evol, u, w, u, w)
    energy = conv_e - kirchhoff_div_2d(grid, transport, theta) - heat + work
    return cont, mom_u, mom_w, energy

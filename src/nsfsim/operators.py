"""Discrete spatial operators on the staggered grids.

These stencils are the single source of truth for the semi-discrete system:
the time stepper advances them and the stationary solvers zero them, so a
stationary state is an exact fixed point of the stepper (to solver rounding).
Both sides call the same functions: ``mass_rhs_nd`` for continuity,
``momentum_explicit_nd`` and ``viscous_rhs_*`` for momentum, and
``energy_explicit_nd`` (transport of rho*e, shear heating, pressure work) with
``kirchhoff_div_nd`` for energy.  ``steady_residual_*`` combines them with the
stepper's signs, evaluating every closure once: it checks rho and theta
once, computes p, mu and eta with the ``thermo`` ``_raw`` kernels and the
strain rates and their divergence once, and passes them to the private
kernels behind the public stencils, with which it agrees bit for bit (a
test pins this); the 2-D velocity gradients, wall ghost reflection included,
come from ``strain_rates_2d`` alone.  The slab's stress divergence is split
like the heat flux below: ``viscous_rhs_2d`` is ``stress_divergence_2d``, the
closure and a stress linear in the strains, on those strain rates, so that
the stepper computes the strains of its velocity probes once per grid.

Conventions
-----------
The last axis is wall-normal on both grids, and ``grid.dz`` is its spacing:
the column's only axis, the slab's z.  A stencil the two grids share
(``*_nd``) is written once along that axis with ``...`` indexing, and the
slab adds its periodic-x terms in front of it.  Velocities pass as
components, wall-normal last: the column's ``(u,)``, the slab's ``(u, w)``.

1-D: scalars ``q`` at centers (n,), velocity ``u`` at faces (n+1,) with wall
faces pinned to zero.  2-D (periodic x, walls in z): scalars (nx, nz);
``u[i, k]`` on the x-face west of cell (i, k); ``w[i, k]`` on the z-face below
cell (i, k), shape (nx, nz+1), wall rows pinned to zero.

Per dimension stays only what differs in arithmetic: the column's
longitudinal (4/3)mu + eta stress, its hand-banded matrix and its shear
heating against the slab's full stress (``viscous_*``, ``shear_heating_*``),
and in ``simulator`` the layout of the implicit solves (tridiagonal on the
column, band Cholesky on the slab) and ``cfl_dt``, whose two formulas round
dt differently.

Every stencil the steady residual uses also carries leading stack axes in
front of the grid axes: fields of shape (K, n) or (K, nx, nz) are K states,
evaluated row by row with the same arithmetic as K single calls, so that the
stationary Newton's finite differences evaluate all their perturbed states
in one call.  Wall data and the potential broadcast over the stack.

Convection is first-order upwind (donor cell), pressure gradients are central
two-point differences, diffusion of heat runs through the conductivity
primitive K(theta) so a profile linear in K carries an exactly constant
discrete heat flux: the closure K at the centers and the plates, then the
linear ``kirchhoff_stencil_nd``, which the stepper probes for its heat
Jacobian.
"""

from __future__ import annotations

import numpy as np

from . import thermo
from .grids import Grid2D

__all__ = [
    "upwind_flux_nd",
    "mass_rhs_nd",
    "momentum_explicit_nd",
    "kirchhoff_stencil_nd",
    "kirchhoff_fluxes_nd",
    "kirchhoff_div_nd",
    "shear_heating_nd",
    "energy_explicit_nd",
    "viscous_rhs_1d",
    "viscous_banded_matrix_1d",
    "shear_heating_1d",
    "steady_residual_1d",
    "strain_rates_2d",
    "stress_divergence_2d",
    "viscous_rhs_2d",
    "shear_heating_2d",
    "steady_residual_2d",
    "column_viscosity",
]


def _west(a):
    """The western neighbour a[i-1] of every x-face or cell (periodic axis -2)."""
    out = np.empty_like(a)
    out[..., 1:, :], out[..., 0, :] = a[..., :-1, :], a[..., -1, :]
    return out


def _east(a):
    """The eastern neighbour a[i+1] of every x-face or cell (periodic axis -2)."""
    out = np.empty_like(a)
    out[..., :-1, :], out[..., -1, :] = a[..., 1:, :], a[..., 0, :]
    return out


# ---------------------------------------------------------------------------
# Shared stencils: wall-normal along the last axis, the slab's x in front
# ---------------------------------------------------------------------------


def upwind_flux_nd(w, q, scheme: str = "upwind"):
    """Flux of a center quantity q through the wall-normal faces of ``w``;
    the wall faces carry zero.

    scheme="upwind" is the positivity-robust donor cell; "minmod" adds a
    second-order MUSCL reconstruction with the minmod limiter (slopes drop
    to zero at the wall-adjacent faces).
    """
    flux = np.zeros_like(w)
    wi = w[..., 1:-1]
    if scheme == "upwind":
        flux[..., 1:-1] = np.where(wi > 0.0, wi * q[..., :-1], wi * q[..., 1:])
        return flux
    if scheme != "minmod":
        raise ValueError(f"unknown convection scheme {scheme!r}")
    jumps = np.diff(q, axis=-1)
    slope = np.zeros_like(q)
    left, right = jumps[..., :-1], jumps[..., 1:]
    both = (left * right) > 0.0
    slope[..., 1:-1] = np.where(both, np.sign(left) * np.minimum(np.abs(left), np.abs(right)), 0.0)
    q_left = q[..., :-1] + 0.5 * slope[..., :-1]
    q_right = q[..., 1:] - 0.5 * slope[..., 1:]
    flux[..., 1:-1] = np.where(wi > 0.0, wi * q_left, wi * q_right)
    return flux


def _face_densities(rho, components):
    """rho averaged to the velocity nodes of each of the ``components``
    velocity components: the slab's x-faces, then the interior wall-normal
    faces."""
    normal = 0.5 * (rho[..., :-1] + rho[..., 1:])
    if components == 1:
        return (normal,)
    return 0.5 * (_west(rho) + rho), normal


def _mass_fluxes(q, vel, scheme="upwind"):
    """Fluxes of a center quantity through the faces of every velocity
    component: ``upwind_flux_nd`` through the wall-normal faces, with the
    slab's donor cell through its x-faces in front."""
    fz = upwind_flux_nd(vel[-1], q, scheme)
    if len(vel) == 1:
        return (fz,)
    u = vel[0]
    return np.where(u > 0.0, u * _west(q), u * q), fz


def _divergence(grid, fluxes):
    """Center divergence of face fields, one per component: the wall-normal
    difference, with the slab's periodic x-difference in front."""
    fz = fluxes[-1]
    div = (fz[..., 1:] - fz[..., :-1]) / grid.dz
    if len(fluxes) == 1:
        return div
    return (_east(fluxes[0]) - fluxes[0]) / grid.dx + div


def mass_rhs_nd(grid, rho, vel, scheme="upwind"):
    return -_divergence(grid, _mass_fluxes(rho, vel, scheme))


def momentum_explicit_nd(grid, gas, G, rho_pressure, theta, rho_inertia, vel, *, p=None):
    """Explicit tendencies (conv, grad p, grav) of every velocity component.

    Upwinded momentum convection, the central pressure gradient evaluated at
    ``rho_pressure`` (the already-updated density, which keeps the acoustic
    coupling neutrally stable), and the potential force with the same face
    density.  The wall-normal component comes at its interior faces; the
    slab's x-component, in front, at every x-face (nx, nz).  ``p`` is
    p(rho_pressure, theta) where the caller has it already.
    """
    w, dz = vel[-1], grid.dz
    if p is None:
        p = thermo.pressure(gas, rho_pressure, theta)
    rb_p, rb = _face_densities(rho_pressure, len(vel)), _face_densities(rho_inertia, len(vel))

    mw = np.zeros_like(w)
    mw[..., 1:-1] = rb[-1] * w[..., 1:-1]
    wc = 0.5 * (w[..., :-1] + w[..., 1:])
    phi_wz = np.where(wc > 0.0, wc * mw[..., :-1], wc * mw[..., 1:])
    conv_w = (phi_wz[..., 1:] - phi_wz[..., :-1]) / dz
    dpdz = (p[..., 1:] - p[..., :-1]) / dz
    grav_w = np.zeros_like(dpdz) if G is None else rb_p[-1] * (G[..., 1:] - G[..., :-1]) / dz
    if len(vel) == 1:
        return ((conv_w, dpdz, grav_w),)

    u, dx = vel[0], grid.dx
    mu_mom = rb[0] * u
    uc = 0.5 * (u + _east(u))
    phix = np.where(uc > 0.0, uc * mu_mom, uc * _east(mu_mom))
    phiz = upwind_flux_nd(0.5 * (_west(w) + w), mu_mom)
    conv_u = (phix - _west(phix)) / dx + _divergence(grid, (phiz,))
    dpdx = (p - _west(p)) / dx
    grav_u = np.zeros_like(u) if G is None else rb_p[0] * (G - _west(G)) / dx

    uc2 = np.zeros_like(w)
    uc2[..., 1:-1] = 0.5 * (u[..., :-1] + u[..., 1:])
    phi_wx = np.where(uc2 > 0.0, uc2 * _west(mw), uc2 * mw)
    conv_w = (_east(phi_wx) - phi_wx)[..., 1:-1] / dx + conv_w
    return (conv_u, dpdx, grav_u), (conv_w, dpdz, grav_w)


def kirchhoff_stencil_nd(grid, K, K_bottom, K_top):
    """K-differences at every face, linear in (K, K_bottom, K_top), one array
    per direction: the slab's periodic x-faces, then the wall-normal faces,
    whose wall half-cells close against the plate values.  K may be a stack."""
    h = grid.dz
    H = np.empty(K.shape[:-1] + (K.shape[-1] + 1,))
    H[..., 0] = (K[..., 0] - K_bottom) / (0.5 * h)
    H[..., -1] = (K_top - K[..., -1]) / (0.5 * h)
    H[..., 1:-1] = (K[..., 1:] - K[..., :-1]) / h
    if grid.dimension == 1:
        return (H,)
    return (K - _west(K)) / grid.dx, H


def kirchhoff_fluxes_nd(grid, transport, theta):
    """The heat flux: ``kirchhoff_stencil_nd`` on K(theta), plates included."""
    walls = (grid.wall_theta("bottom"), grid.wall_theta("top"))
    return kirchhoff_stencil_nd(grid, *(thermo.conductivity_primitive(transport, t) for t in (theta, *walls)))


def kirchhoff_div_nd(grid, transport, theta):
    return _divergence(grid, kirchhoff_fluxes_nd(grid, transport, theta))


def shear_heating_nd(grid, transport, theta, vel):
    """S(theta, Du) : Du at centers: the column's longitudinal form on
    ``(u,)``, the slab's full stress on ``(u, w)``."""
    heating = shear_heating_1d if len(vel) == 1 else shear_heating_2d
    return heating(grid, transport, theta, *vel)


def energy_explicit_nd(grid, gas, transport, rho_pressure, theta, evol, vel, vel_source, scheme="upwind", *, p=None):
    """Explicit internal-energy tendencies (conv_e, heat, work) at centers.

    ``evol`` (rho*e) is transported by ``vel``; the shear heating and the
    pressure work p(rho_pressure) div u use ``vel_source``, which is the
    half-step velocity in the stepper and ``vel`` in the steady residual.
    ``p`` is p(rho_pressure, theta) where the caller has it already: the
    stepper's momentum stage computes it too.
    """
    if p is None:
        p = thermo.pressure(gas, rho_pressure, theta)
    conv_e = _divergence(grid, _mass_fluxes(evol, vel, scheme))
    heat = shear_heating_nd(grid, transport, theta, vel_source)
    return conv_e, heat, p * _divergence(grid, vel_source)


def _steady_residual(grid, gas, transport, G, rho, theta, vel):
    """(continuity, *momentum, energy) residuals of one state, or row by row
    of a stack of states, with every closure evaluated once.

    rho and theta are checked once, here; p(rho, theta), mu, eta, the
    strain rates and their divergence are computed once and shared by the
    momentum tendencies, the stress divergence, the shear heating and the
    pressure work, through the ``thermo`` ``_raw`` kernels and the private
    kernels of the public stencils, so that the result equals the public
    stencils' composition bit for bit.
    """
    thermo._require_positive("theta", theta)
    thermo._require_positive("rho", rho)
    p = thermo._pressure_raw(gas, rho, theta)
    viscous, energy = _steady_sources(grid, gas, transport, rho, theta, vel, p)
    tendencies = momentum_explicit_nd(grid, gas, G, rho, theta, rho, vel, p=p)
    mom = [conv + dp - grav - v for (conv, dp, grav), v in zip(tendencies, viscous)]
    return (-mass_rhs_nd(grid, rho, vel), *mom, energy)


def _steady_sources(grid, gas, transport, rho, theta, vel, p):
    """(viscous, energy): the stress divergence of every velocity component
    at its interior nodes (``viscous_rhs_*``) and the energy residual, its
    shear heating (``shear_heating_*``) and pressure work sharing mu, eta,
    the strain rates and div u; the energy's temporaries end with this
    call, before the momentum's begin."""
    mu, eta = thermo._viscosities_raw(transport, theta)
    if len(vel) == 1:
        (u,), nu = vel, _column_viscosity(mu, eta)
        div = (u[..., 1:] - u[..., :-1]) / grid.dx
        viscous, heat = (_viscous_1d(grid, nu, u),), nu * div**2
    else:
        strains = strain_rates_2d(grid, *vel)
        div = strains[0] + strains[1]
        vx, vz = _stress_divergence_2d(grid, transport, mu, eta, strains, div)
        viscous, heat = (vx, vz[..., 1:-1]), _shear_heating_2d(mu, eta, strains, div)
    conv_e = _divergence(grid, _mass_fluxes(rho * thermo._internal_energy_raw(gas, rho, theta), vel))
    return viscous, conv_e - kirchhoff_div_nd(grid, transport, theta) - heat + p * div


# ---------------------------------------------------------------------------
# 1-D column: the longitudinal stress
# ---------------------------------------------------------------------------


def column_viscosity(transport, theta):
    """(4/3) mu + eta: the 1-D longitudinal viscous coefficient."""
    return _column_viscosity(*thermo.viscosities(transport, theta))


def _column_viscosity(mu, eta):
    return 4.0 / 3.0 * mu + eta


def viscous_rhs_1d(grid, transport, theta, u):
    """d/dx( ((4/3)mu + eta) du/dx ) at interior faces."""
    return _viscous_1d(grid, column_viscosity(transport, theta), u)


def _viscous_1d(grid, nu, u):
    """``viscous_rhs_1d`` from the ``column_viscosity`` nu."""
    stress = nu * (u[..., 1:] - u[..., :-1]) / grid.dx
    return (stress[..., 1:] - stress[..., :-1]) / grid.dx


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


def shear_heating_1d(grid, transport, theta, u):
    """Viscous dissipation density ((4/3)mu + eta) (du/dx)^2 >= 0 at centers."""
    divu = (u[..., 1:] - u[..., :-1]) / grid.dx
    return column_viscosity(transport, theta) * divu**2


def steady_residual_1d(grid, gas, transport, G, rho, theta, u):
    """(continuity, momentum, energy) residuals of the semi-discrete system."""
    return _steady_residual(grid, gas, transport, G, rho, theta, (u,))


# ---------------------------------------------------------------------------
# 2-D slab: the full stress
# ---------------------------------------------------------------------------


def _corner_mu(grid: Grid2D, transport, mu_c):
    """mu at x-face/z-face crossings, shape (..., nx, nz+1), averaged from
    mu_c at the centers; the wall rows read the closure at theta_B."""
    mu = np.empty(mu_c.shape[:-1] + (grid.nz + 1,))
    mu[..., 1:-1] = 0.25 * (
        mu_c[..., :-1] + mu_c[..., 1:] + _west(mu_c)[..., :-1] + _west(mu_c)[..., 1:]
    )
    walls = np.stack([grid.wall_theta("bottom"), grid.wall_theta("top")], axis=1)
    mu[..., [0, -1]] = thermo.viscosities(transport, 0.5 * (walls + _west(walls)))[0]
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


def stress_divergence_2d(grid, transport, theta, strains):
    """Full Newtonian stress divergence at the velocity nodes, from the
    ``strain_rates_2d`` of (u, w): the closure (mu and eta at the centers,
    mu at the corners) and the stress, linear in the strains.

    The strains may be stacks along leading axes; the viscosities are read
    from ``theta`` once and serve every field.
    """
    mu_c, eta_c = thermo.viscosities(transport, theta)
    return _stress_divergence_2d(grid, transport, mu_c, eta_c, strains, strains[0] + strains[1])


def _stress_divergence_2d(grid, transport, mu_c, eta_c, strains, div):
    """``stress_divergence_2d`` from mu and eta at the centers and div u."""
    dx, dz = grid.dx, grid.dz
    lam_c = eta_c - 2.0 / 3.0 * mu_c
    dudx, dwdz, dudz, dwdx = strains
    sxx = 2.0 * mu_c * dudx + lam_c * div
    szz = 2.0 * mu_c * dwdz + lam_c * div
    sxz = _corner_mu(grid, transport, mu_c) * (dudz + dwdx)
    vx = (sxx - _west(sxx)) / dx + (sxz[..., 1:] - sxz[..., :-1]) / dz
    vz = np.zeros(dwdx.shape)
    vz[..., 1:-1] = (_east(sxz) - sxz)[..., 1:-1] / dx + (szz[..., 1:] - szz[..., :-1]) / dz
    return vx, vz


def viscous_rhs_2d(grid, transport, theta, u, w):
    """``stress_divergence_2d`` of the strain rates of ``u`` and ``w``."""
    return stress_divergence_2d(grid, transport, theta, strain_rates_2d(grid, u, w))


def shear_heating_2d(grid, transport, theta, u, w):
    """S(theta, Du) : Du at centers; nonnegative by construction."""
    mu_c, eta_c = thermo.viscosities(transport, theta)
    strains = strain_rates_2d(grid, u, w)
    return _shear_heating_2d(mu_c, eta_c, strains, strains[0] + strains[1])


def _shear_heating_2d(mu_c, eta_c, strains, div):
    """``shear_heating_2d`` from mu and eta at the centers, the strain rates and div u."""
    dudx, dwdz, dudz, dwdx = strains
    dxz_sq = (0.5 * (dudz + dwdx)) ** 2
    dxz_sq_c = 0.25 * (
        (dxz_sq + _east(dxz_sq))[..., :-1] + (dxz_sq + _east(dxz_sq))[..., 1:]
    )
    return (
        2.0 * mu_c * (dudx**2 + dwdz**2 + 2.0 * dxz_sq_c)
        - 2.0 / 3.0 * mu_c * div**2
        + eta_c * div**2
    )


def steady_residual_2d(grid, gas, transport, G, rho, theta, u, w):
    """(continuity, x-momentum, z-momentum (interior), energy) residuals."""
    return _steady_residual(grid, gas, transport, G, rho, theta, (u, w))

"""Discrete spatial operators on the staggered grids.

These stencils are the single source of truth for the semi-discrete system:
the time stepper advances them and the stationary solvers zero them, so a
stationary state is an exact fixed point of the stepper (to solver rounding).
Both sides call the same functions: ``mass_rhs_nd`` for continuity,
``momentum_explicit_nd`` and ``viscous_rhs_nd`` for momentum, and
``energy_explicit_nd`` (transport of rho*e, shear heating, pressure work) with
``kirchhoff_div_nd`` for energy.  ``steady_residual_*`` combines them with the
stepper's signs, evaluating every closure once: it checks rho and theta
once, computes p, mu and eta with the ``thermo`` ``_raw`` kernels and the
strain rates and their divergence once, and passes them to the private
kernels behind the public stencils, with which it agrees bit for bit (a
test pins this); the velocity gradients, wall ghost reflection included,
come from ``strain_rates_nd`` alone.  The stress divergence is split like
the heat flux below: ``viscous_rhs_nd`` is ``stress_divergence_nd``, the
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

The stress is one too: the column's normal stress is the slab's own
szz = 2 mu w_z + (eta - 2 mu / 3) div u, and its shear heating the slab's
with the x and shear strains left out, so an x-uniform slab reproduces both
bit for bit (a test pins this).  Per dimension stays only, in
``simulator``, the layout of the implicit solves: tridiagonal on the column,
band Cholesky on the slab, both matrices read off these stencils.

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
    "strain_rates_nd",
    "stress_divergence_nd",
    "viscous_rhs_nd",
    "shear_heating_nd",
    "energy_explicit_nd",
    "steady_residual_1d",
    "steady_residual_2d",
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


# ---------------------------------------------------------------------------
# The viscous stress: the normal stress along the wall normal, the slab's x
# and shear terms in front
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


def strain_rates_nd(grid, vel):
    """The strain rates of the velocity components, wall-normal last: w_z at
    the centers, with the slab's u_x at the centers and u_z, w_x at the
    x-face/z-face crossings in front, (u_x, u_z, w_x, w_z).

    At the walls u_z reflects u across the no-slip wall (ghost value -u).
    Leading axes of the components (a stack of fields) are carried through.
    """
    w, dz = vel[-1], grid.dz
    dwdz = (w[..., 1:] - w[..., :-1]) / dz
    if len(vel) == 1:
        return (dwdz,)
    u = vel[0]
    dudz = np.empty(u.shape[:-1] + (u.shape[-1] + 1,))
    dudz[..., 1:-1] = (u[..., 1:] - u[..., :-1]) / dz
    dudz[..., 0] = 2.0 * u[..., 0] / dz
    dudz[..., -1] = -2.0 * u[..., -1] / dz
    return (_east(u) - u) / grid.dx, dudz, (w - _west(w)) / grid.dx, dwdz


def _strain_divergence(strains):
    """div u from ``strain_rates_nd``: w_z, the slab's u_x in front."""
    return strains[-1] if len(strains) == 1 else strains[0] + strains[-1]


def stress_divergence_nd(grid, transport, theta, strains):
    """The Newtonian stress divergence at the velocity nodes, from the
    ``strain_rates_nd`` of the velocity: the closure (mu and eta at the
    centers, the slab's mu at the corners) and the stress, linear in the
    strains.  One array per component, the wall-normal one at every face,
    zero at the walls.

    The strains may be stacks along leading axes; the viscosities are read
    from ``theta`` once and serve every field.
    """
    mu_c, eta_c = thermo.viscosities(transport, theta)
    return _stress_divergence_nd(grid, transport, mu_c, eta_c, strains, _strain_divergence(strains))


def _stress_divergence_nd(grid, transport, mu_c, eta_c, strains, div):
    """``stress_divergence_nd`` from mu and eta at the centers and div u: the
    normal stress szz = 2 mu w_z + (eta - 2 mu / 3) div u differenced along
    the wall normal, and on the slab sxx and the shear stress sxz in front."""
    dz = grid.dz
    lam_c = eta_c - 2.0 / 3.0 * mu_c
    szz = 2.0 * mu_c * strains[-1] + lam_c * div
    vz = np.zeros(szz.shape[:-1] + (szz.shape[-1] + 1,))
    vz[..., 1:-1] = (szz[..., 1:] - szz[..., :-1]) / dz
    if len(strains) == 1:
        return (vz,)
    dx = grid.dx
    dudx, dudz, dwdx, _ = strains
    sxx = 2.0 * mu_c * dudx + lam_c * div
    sxz = _corner_mu(grid, transport, mu_c) * (dudz + dwdx)
    vx = (sxx - _west(sxx)) / dx + (sxz[..., 1:] - sxz[..., :-1]) / dz
    vz[..., 1:-1] = (_east(sxz) - sxz)[..., 1:-1] / dx + vz[..., 1:-1]
    return vx, vz


def viscous_rhs_nd(grid, transport, theta, vel):
    """``stress_divergence_nd`` of the strain rates of the components ``vel``."""
    return stress_divergence_nd(grid, transport, theta, strain_rates_nd(grid, vel))


def shear_heating_nd(grid, transport, theta, vel):
    """S(theta, Du) : Du at the centers; nonnegative by construction."""
    mu_c, eta_c = thermo.viscosities(transport, theta)
    strains = strain_rates_nd(grid, vel)
    return _shear_heating_nd(mu_c, eta_c, strains, _strain_divergence(strains))


def _shear_heating_nd(mu_c, eta_c, strains, div):
    """``shear_heating_nd`` from mu and eta at the centers, the strain rates
    and div u: 2 mu |D|^2 - (2/3) mu div^2 + eta div^2, |D|^2 the square of
    w_z with the slab's u_x^2 in front and its 2 D_xz^2, averaged from the
    corners, behind."""
    sq = strains[-1] ** 2
    if len(strains) > 1:
        dudx, dudz, dwdx, _ = strains
        dxz_sq = (0.5 * (dudz + dwdx)) ** 2
        dxz_sq_c = 0.25 * (
            (dxz_sq + _east(dxz_sq))[..., :-1] + (dxz_sq + _east(dxz_sq))[..., 1:]
        )
        sq = dudx**2 + sq + 2.0 * dxz_sq_c
    div_sq = div**2
    return 2.0 * mu_c * sq - 2.0 / 3.0 * mu_c * div_sq + eta_c * div_sq


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
    at its interior nodes (``viscous_rhs_nd``) and the energy residual, its
    shear heating (``shear_heating_nd``) and pressure work sharing mu, eta,
    the strain rates and div u; the energy's temporaries end with this
    call, before the momentum's begin."""
    mu, eta = thermo._viscosities_raw(transport, theta)
    strains = strain_rates_nd(grid, vel)
    div = _strain_divergence(strains)
    *viscous, vz = _stress_divergence_nd(grid, transport, mu, eta, strains, div)
    heat = _shear_heating_nd(mu, eta, strains, div)
    conv_e = _divergence(grid, _mass_fluxes(rho * thermo._internal_energy_raw(gas, rho, theta), vel))
    return (*viscous, vz[..., 1:-1]), conv_e - kirchhoff_div_nd(grid, transport, theta) - heat + p * div


def steady_residual_1d(grid, gas, transport, G, rho, theta, u):
    """(continuity, momentum, energy) residuals of the semi-discrete system."""
    return _steady_residual(grid, gas, transport, G, rho, theta, (u,))


def steady_residual_2d(grid, gas, transport, G, rho, theta, u, w):
    """(continuity, x-momentum, z-momentum (interior), energy) residuals."""
    return _steady_residual(grid, gas, transport, G, rho, theta, (u, w))

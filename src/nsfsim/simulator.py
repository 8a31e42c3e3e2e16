"""Semi-implicit time integration of the evolutionary system.

One ``step`` serves the column and the slab; it calls the shared stencils
of ``operators`` on the velocity components and comprises, in order:

(i)   conservative first-order upwind update of rho (exact discrete mass
      conservation),
(ii)  momentum update: upwinded convection, central pressure gradient
      evaluated at the updated density (keeps the acoustic coupling neutrally
      stable), potential force, and a backward-Euler solve for the viscous
      stress with viscosities frozen at theta^n: the column's banded
      (4/3)mu + eta operator in 1-D, and in 2-D one coupled solve for (u, w)
      under the full stress, its matrix one ``stress_divergence_2d`` call on
      the kept strains of the velocity probes.  The stress is dissipative, so
      that matrix diag(rho_face) - dt div S is symmetric positive definite,
      a band of half-width 2 nx with the lattice nodes x-fastest; it is
      solved on the band-Cholesky factors ``SlabLU`` keeps, refined against
      the assembled matrix,
(iii) internal-energy stage: rho*e is advanced by the explicit tendencies of
      ``operators.energy_explicit_nd`` (upwind transport of rho*e and the
      sources S:Du - p div u at half-step velocities), the very function the
      steady residuals call; theta is recovered from rho*e by monotone scalar
      inversion per cell, which seeds the implicit Fourier diffusion, a
      Newton solve in theta through the conductivity primitive K(theta)
      (kappa ~ theta^beta is stiff).  The Kirchhoff stencil is linear in K,
      so div H(theta) = L K(theta) + b, L the stencil probed once per grid
      and b the plates' term, and the Jacobian diag(rho c) - dt L diag(kappa)
      is S diag(kappa) with S = diag(rho c / kappa) - dt L symmetric positive
      definite.  The column takes exact banded Newton steps.  The slab takes
      chord steps on the band-Cholesky factors of S that ``SlabLU`` keeps
      (S is a band of half-width nx with the cells x-fastest), refactors
      where a step would not cut the residual tenfold, and stops at its
      rounding floor (``_chord_heat``),
(iv)  boundary enforcement (no-slip walls, Dirichlet temperature traces).

The velocity matrix and L are read off their stencils by ``probing``: the
stencil's offset table, read on a 5x5 probe slab (``_stencil_table``),
gives a ``probing.Plan`` built once per grid (``_linear_plan``), whose
pattern is the stencil's own, without stored zeros.  A step's velocity
matrix is then one stress-divergence call on the probes' kept strains and
one gather.  Both slab matrices are factored by LAPACK's band Cholesky
(``dpbtrf``; Golub & Van Loan, Matrix Computations, sec. 4.3) from their
lower bands, which ``_band_map`` lays out once per grid.  Between steps a
matrix moves by 1e-4 to 2e-3 relative, so ``run`` keeps the factors for
the whole run (``SlabLU``) and reaches every sample time and the horizon
in equal steps (``_landing_dt``): no sliver step drops dt and makes the
kept factors refactor.

Negative density or temperature is never clamped: a failed step raises
``PositivityError`` and ``run`` retries with half the step, as it does
for ``ImplicitSolveError`` and ``thermo.TemperatureInversionError``.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import coo_matrix  # noqa: F401 (perfbench's tracer times simulator.coo_matrix)
from scipy.sparse.linalg import splu  # noqa: F401 (perfbench's tracer times simulator.splu)

from . import operators as ops
from . import probing, thermo
from .grids import FluidState, Grid2D, StepControl
from .stationary import _CHORD_CUT, solve_banded

__all__ = [
    "PositivityError",
    "ImplicitSolveError",
    "cfl_dt",
    "step",
    "run",
    "RunResult",
    "SlabLU",
]


class PositivityError(RuntimeError):
    """A step produced a nonpositive density/temperature; retriable."""

    def __init__(self, quantity, cell, value):
        super().__init__(f"{quantity} became nonpositive at cell {cell}: {value}")
        self.quantity = quantity
        self.cell = cell
        self.value = value


class ImplicitSolveError(RuntimeError):
    """The implicit diffusion solve failed to converge."""


def cfl_dt(state: FluidState, control: StepControl, gas) -> float:
    """Acoustic CFL estimate, clamped to [dt_min, dt_max].

    dt = cfl_target * min over cells of dx / (|u| + c_s) with the adiabatic
    sound speed from the thermodynamic partials.  The viscous stress is
    implicit in both dimensions, so it sets no bound.
    """
    g = state.grid
    cs = thermo.sound_speed(gas, state.rho, state.theta)
    if g.dimension == 1:
        speed = np.maximum(np.abs(state.u[:-1]), np.abs(state.u[1:])) + cs
        dt = control.cfl_target * float(np.min(g.dx / speed))
    else:
        ux = np.maximum(np.abs(state.u), np.abs(np.roll(state.u, -1, axis=0)))
        wz = np.maximum(np.abs(state.w[:, :-1]), np.abs(state.w[:, 1:]))
        rate = (ux + cs) / g.dx + (wz + cs) / g.dz
        dt = control.cfl_target * float(np.min(1.0 / rate))
    return float(np.clip(dt, control.dt_min, control.dt_max))


# ---------------------------------------------------------------------------
# Implicit heat solve (Newton in theta through the Kirchhoff stencil)
# ---------------------------------------------------------------------------

_HEAT_TOL = 1.0e-11
_HEAT_MAXITER = 50


def _positive_newton_update(theta, delta, solver):
    """theta - s * delta with s halved from 1 until every value is positive;
    ``solver.heat_backtracks`` counts the halvings.

    Raises ImplicitSolveError once s reaches its 1e-6 floor, so that the
    caller retries the step with a smaller dt instead of iterating on a
    non-positive temperature.
    """
    new = theta - delta
    shrink = 1.0
    while np.any(new <= 0.0):
        if shrink <= 1.0e-6:
            raise ImplicitSolveError("implicit heat solve: positivity backtrack reached its floor")
        shrink *= 0.5
        solver.heat_backtracks += 1
        new = theta - shrink * delta
    return new


def _linear_plan(lattice, fields, pad, table):
    """The ``probing.Plan`` of a stencil's offset ``table`` on an (nx, nz)
    ``lattice`` of alternating ``fields``, its probes padded by ``pad`` wall
    nodes at either end of z."""
    nx, nz = lattice
    at, place = probing.lattice(nx, nz, fields, pad)
    colour = probing.colouring(table, at, nx)
    return probing.Plan(*probing.pattern(table, at, at, nx), colour, nx * (nz + 2 * pad), place)


def _stencil_table(lattice, fields, pad, response):
    """The offset table of ``response``, a linear stencil on a stack of
    lattices laid out as in ``_linear_plan``, read at the zero state."""
    nx, nz = lattice
    at, _ = probing.lattice(nx, nz, fields)

    def fun(stack):
        padded = np.pad(stack.reshape(-1, nx, nz), ((0, 0), (0, 0), (pad, pad)))
        return response(padded)[..., pad : pad + nz].reshape(len(stack), -1)

    return probing.offsets(fun, [np.zeros(nx * nz)], at, at, nx)[0]


def _kirchhoff_divergence(grid, K, K_bottom=0.0, K_top=0.0):
    """The divergence of ``ops.kirchhoff_stencil_nd``."""
    return ops._divergence(grid, ops.kirchhoff_stencil_nd(grid, K, K_bottom, K_top))


def _heat_table():
    """The offset table of ``_kirchhoff_divergence`` on a 5x5 slab; on the
    column, a ring of one, its x offsets merge into the diagonal."""
    return _stencil_table((5, 5), 1, 0, lambda K: _kirchhoff_divergence(Grid2D(nx=5, nz=5), K))


def _heat_operator(grid):
    """L, ``_kirchhoff_divergence`` read off through a ``_linear_plan``, and
    its bands: div H(theta) has the Jacobian L diag(kappa).  On the column
    the bands are L's three in solve_banded (1, 1) layout, entry j in column
    j; on the slab L's lower band in the order of ``_x_fastest``, half-width
    nx, in LAPACK lower band storage (row d holds L[p + d, p])."""
    lattice = (1, grid.n) if grid.dimension == 1 else (grid.nx, grid.nz)
    plan = _linear_plan(lattice, 1, 0, _heat_table())
    probes = plan.probes(np.zeros(plan.size)).reshape(-1, *lattice)
    L = plan.matrix(_kirchhoff_divergence(grid, probes).ravel()[plan.gather])
    if grid.dimension == 1:
        return np.stack([np.append(0.0, L.diagonal(1)), L.diagonal(), np.append(L.diagonal(-1), 0.0)]), L
    return _lower_band(L.data, _band_map(plan, grid.nx)), L


def _x_fastest(field):
    """A slab field (nx, nz) flattened x-fastest, cell (i, k) at k nx + i: in
    this order L and S are bands of half-width nx, the periodic wrap
    included."""
    return field.T.ravel()


def _band_map(plan, nx):
    """Where ``plan``'s stored entries on and below the diagonal go in LAPACK
    lower band storage (row d holds A[p + d, p]) with its lattice nodes, nx
    along x, numbered x-fastest as in ``_x_fastest``: those entries, their
    flat places in the band's columns laid end to end, the band's shape,
    its half-width the pattern's largest x-fastest offset, and every node's
    x-fastest number."""
    place = _x_fastest(np.arange(plan.colour.size).reshape(nx, -1)).argsort()
    rows, cols = place[plan.indices], place[plan.cols]
    entries = np.flatnonzero(rows >= cols)
    offset, column = rows[entries] - cols[entries], cols[entries]
    depth = int(offset.max()) + 1
    return entries, column * depth + offset, (depth, plan.colour.size), place


def _lower_band(data, band_map):
    """The lower band of the matrix whose stored entries are ``data``, laid
    out by ``_band_map`` (``band_map``), in the Fortran order ``dpbtrf``
    factors in place."""
    entries, at, (depth, n), _ = band_map
    band = np.zeros(depth * n)
    band[at] = data[entries]
    return band.reshape(n, depth).T


def _heat_jacobian(grid, gas, transport, rho, theta, dt, operator=None):
    """The column's heat Jacobian diag(rho de/dtheta) - dt L diag(kappa) of
    the residual rho*e - dt * div H(theta) in solve_banded (1, 1) layout, L
    from ``_heat_operator`` (``operator``, if given, is its result)."""
    kappa = thermo._conductivity_raw(transport, theta)
    cap = thermo._volumetric_heat_capacity_raw(gas, rho, theta)
    bands = (_heat_operator(grid) if operator is None else operator)[0]
    jac = -dt * bands * kappa
    jac[1] += cap
    return jac


def _heat_divergence(grid, operator, plates):
    """div H as a function of K on the slab: L K + b, L from ``_heat_operator``
    (``operator``) and b the plates' term, the stencil's divergence at K = 0
    with the plates' K values ``plates``.  The stencil is linear in (K,
    K_bottom, K_top), so this is ``ops.kirchhoff_div_nd`` to rounding."""
    L, b = operator[1], _kirchhoff_divergence(grid, np.zeros((grid.nx, grid.nz)), *plates)
    return lambda K: (L @ K.ravel()).reshape(K.shape) + b


def _heat_factors(gas, transport, rho, theta, dt, band):
    """Band-Cholesky factors of S = diag(rho de/dtheta / kappa) - dt L at
    theta, L's lower band ``band`` from ``_heat_operator``, kept with kappa:
    the slab's heat Jacobian is S diag(kappa), and S is symmetric positive
    definite."""
    kappa = thermo._conductivity_raw(transport, theta)
    ab = -dt * band
    ab[0] += _x_fastest(thermo._volumetric_heat_capacity_raw(gas, rho, theta) / kappa)
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise ImplicitSolveError(f"implicit heat solve: S is not positive definite at row {info}")
    return factor, _x_fastest(kappa)


def _heat_direction(factors, resid):
    """S^-1 r / kappa for a slab residual r, with S and kappa from
    ``_heat_factors``."""
    factor, kappa = factors
    x, _ = dpbtrs(factor, _x_fastest(resid), lower=1)
    return (x / kappa).reshape(resid.shape[::-1]).T


def _implicit_heat(grid, gas, transport, rho, e_star, theta0, dt, solver=None):
    """Newton in theta for rho*e(rho, theta) - dt * div H(theta) = e_star,
    with the plates' K read once per solve.

    The column takes exact banded Newton steps until |r| <= _HEAT_TOL scale.
    On the slab div H goes through the kept L (``_heat_divergence``), and
    ``_chord_heat`` takes chord steps on the SPD factors ``solver`` keeps (a
    fresh ``SlabLU`` when none is given)."""
    if solver is None:
        solver = SlabLU()
    operator = solver.grid_operator("heat", grid)
    plates = [thermo.conductivity_primitive(transport, grid.wall_theta(w)) for w in ("bottom", "top")]
    divergence = _heat_divergence(grid, operator, plates) if grid.dimension == 2 else (
        lambda K: _kirchhoff_divergence(grid, K, *plates))

    def residual(th):
        K = thermo.conductivity_primitive(transport, th)
        return thermo._volumetric_energy_raw(gas, rho, th) - dt * divergence(K) - e_star

    tol = _HEAT_TOL * max(1.0, float(np.max(np.abs(e_star))))
    if grid.dimension == 2:
        band = operator[0]
        kept = solver._factors.get("heat")
        kept = kept if kept is not None and kept[0].shape == band.shape else None
        return _chord_heat(
            residual, lambda th: _heat_factors(gas, transport, rho, th, dt, band), kept, theta0, tol, solver
        )
    theta = theta0.copy()
    for _ in range(_HEAT_MAXITER):
        resid = residual(theta)
        if float(np.max(np.abs(resid))) <= tol:
            return theta
        delta = solve_banded((1, 1), _heat_jacobian(grid, gas, transport, rho, theta, dt, operator), resid)
        theta = _positive_newton_update(theta, delta, solver)
    raise ImplicitSolveError("implicit heat solve did not converge in 1-D")


def _chord_heat(residual, factor, kept, theta0, tol, solver):
    """The slab's heat Newton: chord steps theta - S0^-1 r / kappa0 on kept
    factors (Kelley, Iterative Methods for Linear and Nonlinear Equations,
    1995, sec. 5.4) under the stationary Newton's rule.  ``factor(theta)``
    makes new ones; ``solver`` keeps them and counts them and the chords.

    Above ``tol`` a trial is taken only if it is positive and cuts |r|
    tenfold (``_CHORD_CUT``); otherwise it is dropped, S is factored at
    theta and the exact step taken.  Within ``tol`` trials are taken while
    they more than halve |r|, and the first that does not is dropped: theta
    ends at its rounding floor, whichever factors served.  _HEAT_MAXITER
    counts the trials."""
    theta = theta0.copy()
    resid = residual(theta)
    norm = float(np.max(np.abs(resid)))
    for _ in range(_HEAT_MAXITER):
        if kept is not None:
            trial = theta - _heat_direction(kept, resid)
            if np.all(trial > 0.0):
                trial_resid = residual(trial)
                trial_norm = float(np.max(np.abs(trial_resid)))
                # strict, so an exact zero residual ends the solve; NaN
                # compares false, so a non-finite trial is never taken
                if trial_norm < (_CHORD_CUT if norm > tol else 0.5) * norm:
                    theta, resid, norm = trial, trial_resid, trial_norm
                    solver.heat_chords += 1
                    continue
            if norm <= tol:
                return theta
        kept = solver._factors["heat"] = factor(theta)
        solver.factorisations += 1
        theta = _positive_newton_update(theta, _heat_direction(kept, resid), solver)
        resid = residual(theta)
        norm = float(np.max(np.abs(resid)))
    raise ImplicitSolveError("implicit heat solve did not converge in 2-D")


# ---------------------------------------------------------------------------
# Implicit velocity solves
# ---------------------------------------------------------------------------


def _solve_velocity_1d(grid, transport, theta, rho_face, m_star, dt):
    ab = ops.viscous_banded_matrix_1d(grid, transport, theta, rho_face, dt)
    u = np.zeros(grid.n + 1)
    u[1:-1] = solve_banded((1, 1), ab, m_star)
    return u


def _interleave(u, w):
    """u (..., nx, nz) and w (..., nx, nz+1) on one lattice of half z-spacings,
    shape (..., nx, 2nz+1): w of face k at s = 2k, u of cell k at s = 2k+1."""
    lattice = np.empty(u.shape[:-1] + (2 * u.shape[-1] + 1,))
    lattice[..., 1::2] = u
    lattice[..., ::2] = w
    return lattice


def _velocity_table():
    """The offset table of ``ops.viscous_rhs_2d`` on a 5x5 slab at a random
    theta."""
    probe, transport = Grid2D(nx=5, nz=5), thermo.TransportModel(eta0=0.5)
    theta = 0.5 + np.random.default_rng(0).random((5, 5))

    def response(v):
        return _interleave(*ops.viscous_rhs_2d(probe, transport, theta, v[..., 1::2], v[..., ::2]))

    return _stencil_table((5, 9), 2, 1, response)


def _velocity_operator(grid):
    """The ``_linear_plan`` of u and the interior w, interleaved along z off
    the walls, the ``strain_rates_2d`` of its probes and its ``_band_map``:
    x-fastest, the matrix is a band of half-width 2 nx, the wrap included."""
    plan = _linear_plan((grid.nx, 2 * grid.nz - 1), 2, 1, _velocity_table())
    probes = plan.probes(np.zeros(plan.size)).reshape(-1, grid.nx, 2 * grid.nz + 1)
    return plan, ops.strain_rates_2d(grid, probes[..., 1::2], probes[..., ::2]), _band_map(plan, grid.nx)


def _velocity_matrix(grid, transport, theta, rho, dt, operator=None):
    """rho_face*v - dt*viscous_rhs_2d(theta, v) over the lattice nodes off
    the walls: one ``stress_divergence_2d`` call on the kept probe strains
    of ``_velocity_operator`` (``operator``, if given, is its result)."""
    plan, strains, _ = _velocity_operator(grid) if operator is None else operator
    rbu, rbw = ops._face_densities(rho, 2)
    data = -dt * _interleave(*ops.stress_divergence_2d(grid, transport, theta, strains)).ravel()[plan.gather]
    data[plan.diagonal] += _interleave(rbu, np.pad(rbw, ((0, 0), (1, 1))))[:, 1:-1].ravel()
    return plan.matrix(data)


def _solve_velocity_2d(grid, transport, theta, rho, m_star_u, m_star_w, dt, solver=None):
    """Backward-Euler solve of rho_face*v - dt*div S(theta, v) = m* for (u, w),
    with the factors and the coupling ``solver`` keeps (a fresh ``SlabLU``
    when none is given)."""
    if solver is None:
        solver = SlabLU()
    operator = solver.grid_operator("velocity", grid)
    a = _velocity_matrix(grid, transport, theta, rho, dt, operator)
    v = _interleave(m_star_u, m_star_w)
    v[:, 1:-1] = solver.solve(a, v[:, 1:-1].ravel(), operator[2]).reshape(grid.nx, -1)
    v[:, [0, -1]] = 0.0
    return v[:, 1::2].copy(), v[:, ::2].copy()


# ---------------------------------------------------------------------------
# Slab factors kept across steps
# ---------------------------------------------------------------------------

# Refinement stops at a normwise backward error |b - A x| / (|A| |x| + |b|)
# of 4 eps, max-norms throughout: on the slab at 32x24 to 128x96 a direct
# solve on band-Cholesky factors lands at 1.5e-16 to 4.9e-16, and refined
# sweeps level off at 6e-17 to 1.1e-16.  A bound on |b| alone would not
# scale with |A| |x|.
_REFINE_TOL = 4.0 * np.finfo(float).eps
_REFINE_MAX = 8


def _velocity_factors(a, band_map):
    """Band-Cholesky factors of the velocity matrix ``a``, read off its lower
    triangle in the layout of ``band_map`` (``_band_map``), and its nodes'
    x-fastest numbers.  The viscous stress is dissipative, so ``a`` is
    symmetric positive definite; where it is not, ImplicitSolveError."""
    factor, info = dpbtrf(_lower_band(a.data, band_map), lower=1, overwrite_ab=1)
    if info > 0:
        raise ImplicitSolveError(f"implicit velocity solve: the matrix is not positive definite at row {info}")
    return factor, band_map[3]


def _velocity_direction(factors, r):
    """A^-1 r through the factors of ``_velocity_factors``, r and the result
    in the lattice's own order."""
    factor, place = factors
    ordered = np.empty_like(r)
    ordered[place] = r
    x, _ = dpbtrs(factor, ordered, lower=1)
    return x[place]


class SlabLU:
    """The slab's factors, kept from one implicit solve to the next.

    The velocity keeps the band-Cholesky factors of its matrix
    (``_velocity_factors``): ``solve(a, b, band_map)`` starts from the
    factors last made and refines x <- x + A0^-1 (b - a x) against the
    current matrix ``a`` until the residual is at rounding level, a
    backward error of at most 4 eps (Kelley, Iterative Methods for Linear
    and Nonlinear Equations, 1995).  A sweep that cuts the residual less
    than tenfold (the stationary Newton's ``_CHORD_CUT``), a residual that
    is not finite, or ``_REFINE_MAX`` sweeps drop the factors; ``a`` is then
    factored anew and refined the same way, since the factors read only its
    lower triangle, so every solve meets the backward error.  A matrix that
    is not positive definite, or a stalled refinement on its own factors,
    raises ImplicitSolveError.  The heat keeps the band-Cholesky factors of
    its SPD form S with kappa (``_heat_factors``), which ``_chord_heat``
    makes and uses; both kinds count in ``factorisations``.

    ``run`` makes one per run and hands it to every ``step``; nothing is
    shared between instances, so concurrent runs stay independent.  On the
    column as on the slab it also keeps the probed heat operator, on the
    slab the velocity probe plan, its strains and its band layout
    (``grid_operator``), and it counts the heat Newton's positivity
    halvings and chord steps.
    """

    def __init__(self):
        self._factors = {}
        self._grid_operators = {}
        self.factorisations = 0
        self.refinements = 0
        # heat-Newton step halvings that keep theta positive, on either grid
        self.heat_backtracks = 0
        # accepted heat-Newton chord steps on the slab
        self.heat_chords = 0

    def grid_operator(self, kind, grid):
        """The ``_velocity_operator`` or the ``_heat_operator`` of ``grid``,
        built once per grid shape and spacing, which L and the probe strains
        hold."""
        key = (kind, grid.dx, grid.dz) + ((grid.n,) if grid.dimension == 1 else (grid.nx, grid.nz))
        if key not in self._grid_operators:
            self._grid_operators[key] = (_heat_operator if kind == "heat" else _velocity_operator)(grid)
        return self._grid_operators[key]

    def solve(self, a, b, band_map):
        """x with |b - a x| <= 4 eps (|a| |x| + |b|) for the velocity matrix
        ``a`` of a plan whose ``_band_map`` is ``band_map``."""
        kept = self._factors.pop("velocity", None)
        if kept is not None and kept[1].size == a.shape[0]:
            x = self._refine(kept, a, b)
            if x is not None:
                self._factors["velocity"] = kept
                return x
        del kept  # the old factors go before the new ones are made
        fresh = _velocity_factors(a, band_map)
        self.factorisations += 1
        x = self._refine(fresh, a, b)
        if x is None:
            raise ImplicitSolveError("implicit velocity solve: refinement on fresh factors stalled")
        self._factors["velocity"] = fresh
        return x

    def _refine(self, factors, a, b):
        """x with |b - a x| <= 4 eps (|a| |x| + |b|) from velocity factors of
        a nearby matrix, or None once a sweep stalls, the residual is not
        finite or the cap is hit."""
        x = _velocity_direction(factors, b)
        # the row sums of |a| in storage order, as abs(a).sum(axis=1) adds them
        a_norm = float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]).max())
        b_norm = last = float(np.max(np.abs(b)))
        for sweep in range(_REFINE_MAX + 1):
            r = b - a @ x
            norm = float(np.max(np.abs(r)))
            if norm <= _REFINE_TOL * (a_norm * float(np.max(np.abs(x))) + b_norm):
                return x
            if sweep == _REFINE_MAX or not norm <= _CHORD_CUT * last:
                break
            x += _velocity_direction(factors, r)
            self.refinements += 1
            last = norm
        return None


# ---------------------------------------------------------------------------
# One step
# ---------------------------------------------------------------------------


def _check_positive(name, arr):
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        bad = np.asarray(arr)
        cell = int(np.argmin(np.where(np.isfinite(bad), bad, -np.inf)))
        raise PositivityError(name, cell, float(bad.ravel()[cell]))


def step(
    state: FluidState,
    dt: float,
    gas,
    transport,
    G=None,
    convection: str = "upwind",
    *,
    solver: SlabLU | None = None,
) -> FluidState:
    """Advance one semi-implicit step of size dt; raises PositivityError on
    loss of positivity, ImplicitSolveError on solver failure and
    thermo.TemperatureInversionError on a failed inversion (all retriable).

    ``convection`` selects the 1-D transport reconstruction ("upwind" or
    "minmod"); the 2-D slab has donor-cell upwind only and raises
    ValueError for any other name.  ``solver`` keeps the slab's LU factors
    across calls; without one the step factors its own matrices."""
    grid = state.grid
    if grid.dimension == 2 and convection != "upwind":
        raise ValueError(f"the 2-D slab supports only upwind convection, not {convection!r}")
    if solver is None:
        solver = SlabLU()
    rho, theta, vel = state.rho, state.theta, state.velocity

    rho1 = rho + dt * ops.mass_rhs_nd(grid, rho, vel, convection)
    _check_positive("rho", rho1)

    tendencies = ops.momentum_explicit_nd(grid, gas, G, rho1, theta, rho, vel)
    interior = (*vel[:-1], vel[-1][..., 1:-1])
    m_star = [
        rho_face * v - dt * (conv + dp - grav)
        for rho_face, v, (conv, dp, grav) in zip(ops._face_densities(rho, len(vel)), interior, tendencies)
    ]
    if grid.dimension == 1:
        rb1 = ops._face_densities(rho1, 1)[0]
        vel_new = (_solve_velocity_1d(grid, transport, theta, rb1, *m_star, dt),)
    else:
        m_star[-1] = np.pad(m_star[-1], ((0, 0), (1, 1)))
        vel_new = _solve_velocity_2d(grid, transport, theta, rho1, *m_star, dt, solver)

    # stage (iii): rho*e advanced explicitly, checked against the zero-point
    # floor, inverted for theta, which seeds the implicit heat conduction
    evol = rho * thermo.internal_energy(gas, rho, theta)
    half = [0.5 * (v + v_new) for v, v_new in zip(vel, vel_new)]
    conv_e, heat, work = ops.energy_explicit_nd(
        grid, gas, transport, rho1, theta, evol, vel, half, convection
    )
    e_star = evol + dt * (-conv_e + heat - work)
    floor = thermo._zero_point_energy_raw(gas, rho1)
    if np.any(e_star <= floor):
        cell = int(np.argmin(e_star - floor))
        raise PositivityError("energy", cell, float((e_star - floor).ravel()[cell]))
    theta_star = thermo.temperature_from_energy(gas, rho1, e_star, guess=theta)
    theta_new = _implicit_heat(grid, gas, transport, rho1, e_star, theta_star, dt, solver)
    _check_positive("theta", theta_new)
    return FluidState(grid, state.t + dt, rho1, theta_new, *vel_new)


# ---------------------------------------------------------------------------
# Trajectory driver
# ---------------------------------------------------------------------------


# A sample time or the horizon counts as reached within this much time, and
# a remaining interval that many CFL steps cover but for it takes no more.
_LANDING_SLACK = 1.0e-12


def _landing_dt(remaining, dt_cfl):
    """The step that reaches a point ``remaining`` ahead in equal steps of
    at most ``dt_cfl`` (plus the slack): remaining / k with
    k = ceil((remaining - _LANDING_SLACK) / dt_cfl), at least 1.

    Recomputed every step, the last step of an interval has k = 1 and lands
    exactly, and an interval takes as many steps as clipping the step that
    reaches the point would; but no sliver step is left at the point, whose
    dt drop would make the kept slab LU factors refactor twice."""
    return float(remaining) / max(1, math.ceil((remaining - _LANDING_SLACK) / dt_cfl))


@dataclass
class RunResult:
    final_state: FluidState
    steps: int
    retries: int
    wall_time: float
    records: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""
    factorisations: int = 0  # slab LU factorisations (``SlabLU``)
    refinements: int = 0  # refinement sweeps with kept slab factors
    dt_min_clamps: int = 0  # accepted steps whose cfl_dt was raised to dt_min
    dt_max_clamps: int = 0  # accepted steps whose cfl_dt came back at dt_max
    heat_backtracks: int = 0  # heat-Newton step halvings for positivity
    heat_chords: int = 0  # accepted heat-Newton chord steps on the slab


def run(
    initial: FluidState,
    horizon: float,
    control: StepControl,
    gas,
    transport,
    G=None,
    diagnostics=None,
    cadence: float = 0.0,
    sinks=(),
    keep_samples: bool = True,
    sample_every_step: bool = False,
    convection: str = "upwind",
) -> RunResult:
    """Advance to ``t = horizon``, sampling diagnostics at the given cadence.

    Each step lands on the next sample time (or the horizon) in equal steps
    no longer than ``cfl_dt`` (``_landing_dt``).  ``diagnostics`` is a
    callable state -> record; records are streamed to every sink and
    collected in the result.  ``sample_every_step`` retains a
    (t, state) pair per accepted step (for windowed inequality residuals,
    whose time-quadrature error must shrink with the step).  On a positivity,
    implicit-solve or temperature-inversion failure the step is retried
    with dt/2 up to ``control.max_retries`` times, then the run aborts with
    the offending error recorded.  One ``SlabLU`` keeps the slab's factors
    across the whole run.
    """
    t_start = _time.perf_counter()
    state = initial
    result = RunResult(final_state=state, steps=0, retries=0, wall_time=0.0)
    solver = SlabLU()
    last_sampled = [-np.inf]

    def finish(st):
        result.final_state = st
        result.factorisations = solver.factorisations
        result.refinements = solver.refinements
        result.heat_backtracks = solver.heat_backtracks
        result.heat_chords = solver.heat_chords
        result.wall_time = _time.perf_counter() - t_start
        return result

    def sample(st):
        if diagnostics is None:
            return
        last_sampled[0] = st.t
        record = diagnostics(st)
        result.records.append(record)
        for sink in sinks:
            sink(record)
        if keep_samples and not sample_every_step:
            result.samples.append((st.t, st.copy()))

    sample(state)
    if sample_every_step and keep_samples:
        result.samples.append((state.t, state.copy()))
    next_sample = state.t + cadence if cadence > 0.0 else np.inf
    while state.t < horizon - _LANDING_SLACK:
        dt_cfl = cfl_dt(state, control, gas)
        at_min, at_max = dt_cfl <= control.dt_min, dt_cfl >= control.dt_max
        target = min(next_sample, horizon)
        dt = _landing_dt(target - state.t, dt_cfl)
        attempt = 0
        while True:
            try:
                new_state = step(state, dt, gas, transport, G, convection, solver=solver)
                break
            except (PositivityError, ImplicitSolveError, thermo.TemperatureInversionError) as exc:
                attempt += 1
                result.retries += 1
                if attempt > control.max_retries:
                    result.aborted = True
                    result.abort_reason = str(exc)
                    return finish(state)
                dt *= 0.5
        state = new_state
        result.steps += 1
        result.dt_min_clamps += at_min
        result.dt_max_clamps += at_max
        if sample_every_step and keep_samples:
            result.samples.append((state.t, state.copy()))
        if cadence > 0.0 and state.t >= next_sample - _LANDING_SLACK:
            sample(state)
            while next_sample <= state.t + _LANDING_SLACK:
                next_sample += cadence
    if last_sampled[0] < state.t - _LANDING_SLACK:
        sample(state)
    return finish(state)

"""Semi-implicit time integration of the evolutionary system.

One ``step`` serves the column and the slab; it calls the shared stencils
of ``operators`` on the velocity components and comprises, in order:

(i)   conservative first-order upwind update of rho (exact discrete mass
      conservation),
(ii)  momentum update: upwinded convection, central pressure gradient
      evaluated at the updated density (keeps the acoustic coupling neutrally
      stable), potential force, and a backward-Euler solve for the viscous
      stress with viscosities frozen at theta^n, its matrix
      diag(rho_face) - dt div S one ``stress_divergence_nd`` call on the kept
      strains of the velocity probes, one solve for all components.  The
      stress is dissipative, so the matrix is symmetric positive definite:
      tridiagonal on the column, solved afresh; on the slab a band of
      half-width 2 nx (u and w interleaved along z, the nodes x-fastest),
      solved on the band-Cholesky factors ``SlabLU`` keeps and refined
      against it,
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
      definite (a band of half-width nx on the slab), so Newton steps by
      S^-1 r / kappa: exact on the column, chord steps on the factors of S
      ``SlabLU`` keeps on the slab, refactored where a step would not cut
      the residual tenfold, down to the rounding floor (``_chord_heat``),
(iv)  boundary enforcement (no-slip walls, Dirichlet temperature traces).

The velocity matrix and L are read off their stencils by ``probing``: the
stencil's offset table, read on a 5x5 probe slab or, for the column's
velocity, a probe column (``_stencil_table``), gives a ``probing.Plan``
(``_linear_plan``), whose pattern is the stencil's own, without stored
zeros; each grid shape and spacing builds its plans once per process
(``probing.shared``).  A step's velocity matrix is then one
stress-divergence call on the probes' kept strains and one gather.  Both
matrices are laid out as lower bands by ``_band_map``, once per grid, and
one rule picks the solve (``_tridiagonal``): the column's tridiagonal
bands are solved afresh by LAPACK's ``dptsv``, the slab's wider bands by
one pair, ``_band_factors``, LAPACK's band Cholesky (``dpbtrf``; Golub &
Van Loan, Matrix Computations, sec. 4.3), and ``_band_direction``.
Between steps a matrix moves by 1e-4 to 2e-3 relative, so ``run`` keeps
those factors for the whole run (``SlabLU``) and reaches every sample time
and the horizon in equal steps (``_landing_dt``): no sliver step drops dt
and makes the kept factors refactor.

Negative density or temperature is never clamped: a failed step raises
``PositivityError`` and ``run`` retries with half the step, as it does
for ``ImplicitSolveError`` and ``thermo.TemperatureInversionError``.
"""

from __future__ import annotations

import functools
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dptsv
from scipy.sparse import coo_matrix  # noqa: F401 (perfbench's tracer times simulator.coo_matrix)
from scipy.sparse.linalg import splu  # noqa: F401 (perfbench's tracer times simulator.splu)

from . import operators as ops
from . import probing, thermo
from .grids import FluidState, Grid1D, Grid2D, StepControl
from .stationary import _CHORD_CUT, refine
from .stationary import solve_banded  # noqa: F401 (perfbench's tracer times simulator.solve_banded)

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

    dt = cfl_target * min over cells of 1 / rate, the rate the sum over the
    velocity components of (max |v| on the cell's two faces + c_s) / h: the
    wall-normal term, the slab's x term in front, with the adiabatic sound
    speed from the thermodynamic partials.  The viscous stress is implicit
    in both dimensions, so it sets no bound.
    """
    g = state.grid
    cs = thermo.sound_speed(gas, state.rho, state.theta)
    w = np.abs(state.velocity[-1])
    rate = (np.maximum(w[..., :-1], w[..., 1:]) + cs) / g.dz
    if g.dimension == 2:
        u = np.abs(state.u)
        rate = (np.maximum(u, ops._east(u)) + cs) / g.dx + rate
    dt = control.cfl_target * float(np.min(1.0 / rate))
    return float(np.clip(dt, control.dt_min, control.dt_max))


# ---------------------------------------------------------------------------
# Implicit heat solve (Newton in theta through the Kirchhoff stencil)
# ---------------------------------------------------------------------------

_HEAT_TOL = 1.0e-11
_HEAT_MAXITER = 50


def _positive_newton_update(theta, delta, solver):
    """theta - s * delta with s halved from 1 until every value is positive;
    ``solver.counts["heat_backtracks"]`` counts the halvings.

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
        solver.counts["heat_backtracks"] += 1
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
    lattices laid out as in ``_linear_plan``, read at the zero state and
    read-only: each table depends on no grid and is built once per process."""
    nx, nz = lattice
    at, _ = probing.lattice(nx, nz, fields)

    def fun(stack):
        padded = np.pad(stack.reshape(-1, nx, nz), ((0, 0), (0, 0), (pad, pad)))
        return response(padded)[..., pad : pad + nz].reshape(len(stack), -1)

    table = probing.offsets(fun, [np.zeros(nx * nz)], at, at, nx)[0]
    table.flags.writeable = False
    return table


def _kirchhoff_divergence(grid, K, K_bottom=0.0, K_top=0.0):
    """The divergence of ``ops.kirchhoff_stencil_nd``."""
    return ops._divergence(grid, ops.kirchhoff_stencil_nd(grid, K, K_bottom, K_top))


@functools.cache
def _heat_table():
    """The offset table of ``_kirchhoff_divergence`` on a 5x5 slab; on the
    column, a ring of one, its x offsets merge into the diagonal."""
    return _stencil_table((5, 5), 1, 0, lambda K: _kirchhoff_divergence(Grid2D(nx=5, nz=5), K))


def _grid_key(grid):
    """What a plan or L depends on: the grid's shape and spacing."""
    return (grid.dx, grid.dz) + grid.lattice


@probing.shared(_grid_key)
def _heat_operator(grid):
    """L, ``_kirchhoff_divergence`` read off through a ``_linear_plan``, its
    lower band and the cells' x-fastest numbers, the place of ``_band_map``:
    div H(theta) has the Jacobian L diag(kappa).  The band's half-width is
    nx on the slab and 1 on the column."""
    lattice = grid.lattice
    plan = _linear_plan(lattice, 1, 0, _heat_table())
    probes = plan.probes(np.zeros(plan.size)).reshape(-1, *lattice)
    L = plan.matrix(_kirchhoff_divergence(grid, probes).ravel()[plan.gather])
    band_map = _band_map(plan, lattice[0])
    return _lower_band(L.data, band_map), L, band_map[3]


def _band_map(plan, nx):
    """Where ``plan``'s stored entries on and below the diagonal go in LAPACK
    lower band storage (row d holds A[p + d, p]) with its lattice nodes, nx
    along x, numbered x-fastest (node (i, k) at k nx + i; in this order the
    slab's matrices are bands, the periodic wrap included): those entries,
    their flat places in the band's columns laid end to end, the band's
    shape, its half-width the pattern's largest x-fastest offset, and every
    node's x-fastest number, ``place``."""
    place = np.arange(plan.colour.size).reshape(nx, -1).T.ravel().argsort()
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


def _band_factors(ab, place):
    """Band-Cholesky factors of a symmetric positive definite matrix from its
    lower band ``ab`` (``_lower_band``; overwritten), with its nodes'
    x-fastest numbers ``place`` (``_band_map``); a matrix that is not
    positive definite raises ImplicitSolveError."""
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise ImplicitSolveError(f"implicit solve: the matrix is not positive definite at row {info}")
    return factor, place


def _band_direction(factors, r):
    """A^-1 r through the factors of ``_band_factors`` (and what is kept with
    them), r and the result in the lattice's own order."""
    factor, place = factors[:2]
    ordered = np.empty_like(r)
    ordered[place] = r
    x, _ = dpbtrs(factor, ordered, lower=1)
    return x[place]


def _tridiagonal(depth):
    """Whether a band of ``depth`` rows (``_band_map``) is the column's, solved
    afresh (``_tridiagonal_solve``) with exact heat-Newton steps, which cost
    it less than chords; wider bands are solved on ``SlabLU``'s factors."""
    return depth == 2


def _tridiagonal_solve(ab, r):
    """A^-1 r for the tridiagonal A of the lower band ``ab`` by LAPACK's ``dptsv``
    (L D L^T); an A that is not positive definite raises ImplicitSolveError."""
    *_, x, info = dptsv(ab[0], ab[1, :-1], r)
    if info > 0:
        raise ImplicitSolveError(f"implicit solve: the matrix is not positive definite at row {info}")
    return x


def _heat_divergence(grid, operator, plates):
    """div H of K, the plates' K values ``plates``: the stencil on the column,
    and on the slab (2.4x faster at 32x24) L K + b, L from ``_heat_operator``
    (``operator``) and b the stencil at K = 0, equal to rounding."""
    if grid.dimension == 1:
        return lambda K: _kirchhoff_divergence(grid, K, *plates)
    L, b = operator[1], _kirchhoff_divergence(grid, np.zeros(grid.lattice), *plates)
    return lambda K: (L @ K.ravel()).reshape(K.shape) + b


def _heat_band(gas, transport, rho, theta, dt, operator):
    """S = diag(rho de/dtheta / kappa) - dt L at theta as ``SlabLU.factor``
    takes it: its lower band, its order and kappa, L's band and order from
    ``_heat_operator`` (``operator``).  The heat Jacobian is S diag(kappa),
    and S is symmetric positive definite."""
    band, _, place = operator
    kappa = thermo._conductivity_raw(transport, theta).ravel()
    ab = -dt * band
    ab[0, place] += thermo._volumetric_heat_capacity_raw(gas, rho, theta).ravel() / kappa
    return ab, place, kappa


def _implicit_heat(grid, gas, transport, rho, e_star, theta0, dt, solver):
    """Newton in theta for rho*e(rho, theta) - dt * div H(theta) = e_star,
    with the plates' K read once per solve.

    Steps are S^-1 r / kappa (``_heat_band``): exact until |r| <= _HEAT_TOL
    scale on a tridiagonal S (``_tridiagonal``), else ``_chord_heat``; div H
    is ``_heat_divergence``; ``solver`` counts the positivity backtracks."""
    operator = _heat_operator(grid)
    plates = [thermo.conductivity_primitive(transport, grid.wall_theta(w)) for w in ("bottom", "top")]
    divergence = _heat_divergence(grid, operator, plates)

    def residual(th):
        K = thermo.conductivity_primitive(transport, th)
        return thermo._volumetric_energy_raw(gas, rho, th) - dt * divergence(K) - e_star

    tol = _HEAT_TOL * max(1.0, float(np.max(np.abs(e_star))))
    band = functools.partial(_heat_band, gas, transport, rho, dt=dt, operator=operator)
    if not _tridiagonal(len(operator[0])):
        return _chord_heat(residual, band, operator[2], theta0, tol, solver)
    theta = theta0.copy()
    for _ in range(_HEAT_MAXITER):
        resid = residual(theta)
        if float(np.max(np.abs(resid))) <= tol:
            return theta
        ab, _, kappa = band(theta)
        theta = _positive_newton_update(theta, _tridiagonal_solve(ab, resid) / kappa, solver)
    raise ImplicitSolveError("implicit heat solve did not converge in 1-D")


def _chord_heat(residual, band, place, theta0, tol, solver):
    """The slab's heat Newton: chord steps theta - S0^-1 r / kappa0 on kept
    factors (Kelley, Iterative Methods for Linear and Nonlinear Equations,
    1995, sec. 5.4) under the stationary Newton's rule.  ``solver`` keeps
    the factors made on the grid whose order is ``place`` and counts them
    and the chords; ``band(theta)`` is S at theta (``_heat_band``).

    Above ``tol`` a trial is taken only if it is positive and cuts |r|
    tenfold (``_CHORD_CUT``); otherwise it is dropped, S is factored at
    theta and the exact step taken.  Within ``tol`` trials are taken while
    they more than halve |r|, and the first that does not is dropped: theta
    ends at its rounding floor, whichever factors served.  _HEAT_MAXITER
    counts the trials."""

    def direction(factors, r):
        return (_band_direction(factors, r.ravel()) / factors[2]).reshape(r.shape)

    kept = solver.kept("heat", place)
    theta = theta0.copy()
    resid = residual(theta)
    norm = float(np.max(np.abs(resid)))
    for _ in range(_HEAT_MAXITER):
        if kept is not None:
            trial = theta - direction(kept, resid)
            if np.all(trial > 0.0):
                trial_resid = residual(trial)
                trial_norm = float(np.max(np.abs(trial_resid)))
                # strict, so an exact zero residual ends the solve; NaN
                # compares false, so a non-finite trial is never taken
                if trial_norm < (_CHORD_CUT if norm > tol else 0.5) * norm:
                    theta, resid, norm = trial, trial_resid, trial_norm
                    solver.counts["heat_chords"] += 1
                    continue
            if norm <= tol:
                return theta
        kept = solver.factor("heat", *band(theta))
        theta = _positive_newton_update(theta, direction(kept, resid), solver)
        resid = residual(theta)
        norm = float(np.max(np.abs(resid)))
    raise ImplicitSolveError("implicit heat solve did not converge in 2-D")


# ---------------------------------------------------------------------------
# Implicit velocity solves
# ---------------------------------------------------------------------------


def _interleave(*components):
    """The velocity components on one lattice of half z-spacings: the
    column's one is it; the slab's u (..., nx, nz) and w (..., nx, nz+1) give
    (..., nx, 2nz+1), w of face k at s = 2k, u of cell k at s = 2k+1."""
    if len(components) == 1:
        return components[0]
    u, w = components
    lattice = np.empty(u.shape[:-1] + (2 * u.shape[-1] + 1,))
    lattice[..., 1::2] = u
    lattice[..., ::2] = w
    return lattice


def _components(lattice, count):
    """The ``count`` velocity components ``_interleave`` put on ``lattice``:
    the column's is the lattice, the slab's u and w are copied out of it."""
    return (lattice,) if count == 1 else (lattice[..., 1::2].copy(), lattice[..., ::2].copy())


def _pad_walls(a):
    """``a`` at the interior wall-normal nodes, zero at the walls (``np.pad`` costs 10x)."""
    padded = np.zeros(a.shape[:-1] + (a.shape[-1] + 2,))
    padded[..., 1:-1] = a
    return padded


@functools.cache
def _velocity_table(dimension):
    """The offset table of ``ops.viscous_rhs_nd`` at a random theta, on a
    column of 6 cells (its 5 interior faces) or on a 5x5 slab (u and w
    interleaved)."""
    transport, rng = thermo.TransportModel(eta0=0.5), np.random.default_rng(0)
    probe, lattice = (Grid1D(n=6), (1, 5)) if dimension == 1 else (Grid2D(nx=5, nz=5), (5, 9))
    theta = 0.5 + rng.random(probe.lattice)

    def response(v):
        return _interleave(*ops.viscous_rhs_nd(probe, transport, theta, _components(v, dimension)))

    return _stencil_table(lattice, dimension, 1, response)


@probing.shared(_grid_key)
def _velocity_operator(grid):
    """The ``_linear_plan`` of the velocity nodes off the walls, its
    components interleaved along z, the ``strain_rates_nd`` of its probes
    and its ``_band_map``: the matrix is tridiagonal on the column and,
    x-fastest, a band of half-width 2 nx on the slab."""
    (nx, cells), count = grid.lattice, grid.dimension
    plan = _linear_plan((nx, count * cells - 1), count, 1, _velocity_table(count))
    probes = plan.probes(np.zeros(plan.size)).reshape(-1, nx, count * cells + 1)
    return plan, ops.strain_rates_nd(grid, _components(probes, count)), _band_map(plan, nx)


def _velocity_entries(grid, transport, theta, rho, dt):
    """The stored entries of rho_face*v - dt*viscous_rhs_nd(theta, v) over
    the velocity nodes off the walls, in the order of the plan of
    ``_velocity_operator``: one ``stress_divergence_nd`` call on its kept
    probe strains and one gather."""
    plan, strains, _ = _velocity_operator(grid)
    *faces, normal = ops._face_densities(rho, grid.dimension)
    data = -dt * _interleave(*ops.stress_divergence_nd(grid, transport, theta, strains)).ravel()[plan.gather]
    data[plan.diagonal] += _interleave(*faces, _pad_walls(normal))[..., 1:-1].ravel()
    return data


def _solve_velocity(grid, transport, theta, rho, m_star, dt, solver):
    """Backward-Euler solve of rho_face*v - dt*div S(theta, v) = m* for all
    components, m*'s wall-normal one at every face (walls unread): afresh if
    tridiagonal (``_tridiagonal``), else on the factors ``solver`` keeps."""
    plan, _, band_map = _velocity_operator(grid)
    data = _velocity_entries(grid, transport, theta, rho, dt)
    b = _interleave(*m_star)[..., 1:-1]
    if _tridiagonal(band_map[2][0]):
        x = _tridiagonal_solve(_lower_band(data, band_map), b.ravel())
    else:
        x = solver.solve(plan.matrix(data), b.ravel(), band_map)
    return _components(_pad_walls(x.reshape(b.shape)), len(m_star))


# ---------------------------------------------------------------------------
# Slab factors kept across steps
# ---------------------------------------------------------------------------


class SlabLU:
    """The slab's band-Cholesky factors, kept from one implicit solve to the
    next: ``factor(kind, ab, place)`` makes them (``_band_factors``), keeps
    them as the last of ``kind`` ("velocity" or "heat") and counts them, and
    ``kept(kind, place)`` serves them again.  The key is the band order
    ``place``, the very array of ``_band_map``: ``probing.shared`` builds
    one per grid shape and spacing, so no factors serve another grid.

    The velocity: ``solve(a, b, band_map)`` refines x <- x + A0^-1 (b - a x)
    on the kept factors against the current matrix ``a`` until the residual
    is at rounding level, a backward error of at most 4 eps, under the rule
    the stationary Newton's slab solve follows too (``stationary.refine``).
    A sweep that cuts the residual less than tenfold, a residual that is not
    finite, or the sweep cap drop the factors; ``a`` is then factored anew
    and refined the same way, since the factors read only its lower
    triangle.  A matrix that is not positive definite, or a stalled
    refinement on its own factors, raises ImplicitSolveError and keeps no
    velocity factors.  The heat: ``_chord_heat`` takes chord steps on the
    kept factors of S, kept with kappa (``_heat_band``).

    ``run`` makes one per run and hands it to every ``step``.  The
    read-only plans of a grid (the probed heat operator, the velocity probe
    plan with its strains, their band layouts) are shared by every instance
    in the process (``probing.shared``); the factors and the counts are
    not, so concurrent runs stay independent.  ``counts`` is the run's
    counter record, ``RunResult.counters``, keyed by the manifest's names:
    ``step_factorisations`` (velocity and heat alike), ``step_refinements``,
    ``heat_backtracks`` and ``heat_chords`` are counted where the work is
    done, and ``run`` counts ``dt_min_clamps`` and ``dt_max_clamps`` in it.
    """

    def __init__(self):
        self._factors = {}
        names = "step_factorisations step_refinements heat_backtracks heat_chords dt_min_clamps dt_max_clamps"
        self.counts = dict.fromkeys(names.split(), 0)

    def kept(self, kind, place):
        """The factors kept for ``kind`` if they were made in the order
        ``place`` (that very array), else None."""
        factors = self._factors.get(kind)
        return factors if factors is not None and factors[1] is place else None

    def factor(self, kind, ab, place, *extra):
        """``_band_factors`` of ``ab`` in the order ``place``, kept for
        ``kind`` with ``extra`` (the heat's kappa) and counted."""
        factors = self._factors[kind] = _band_factors(ab, place) + extra
        self.counts["step_factorisations"] += 1
        return factors

    def solve(self, a, b, band_map):
        """x with |b - a x| <= 4 eps (|a| |x| + |b|) for the velocity matrix
        ``a`` of a plan whose ``_band_map`` is ``band_map``."""
        place = band_map[3]
        factors = self.kept("velocity", place)
        while True:
            fresh = factors is None
            if fresh:
                self._factors.pop("velocity", None)  # the old factors go before the new ones are made
                factors = self.factor("velocity", _lower_band(a.data, band_map), place)
            x, sweeps = refine(functools.partial(_band_direction, factors), a, b)
            self.counts["step_refinements"] += sweeps
            if x is not None:
                return x
            if fresh:
                del self._factors["velocity"]
                raise ImplicitSolveError("implicit velocity solve: refinement on fresh factors stalled")
            factors = None


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
    ValueError for any other name.  ``solver`` keeps the slab's
    band-Cholesky factors across calls; without one the step factors its
    own matrices."""
    grid = state.grid
    if grid.dimension == 2 and convection != "upwind":
        raise ValueError(f"the 2-D slab supports only upwind convection, not {convection!r}")
    if solver is None:
        solver = SlabLU()
    rho, theta, vel = state.rho, state.theta, state.velocity

    rho1 = rho + dt * ops.mass_rhs_nd(grid, rho, vel, convection)
    _check_positive("rho", rho1)

    # the pressure of both stages: p(rho1, theta)
    p1 = thermo.pressure(gas, rho1, theta)
    tendencies = ops.momentum_explicit_nd(grid, gas, G, rho1, theta, rho, vel, p=p1)
    interior = (*vel[:-1], vel[-1][..., 1:-1])
    m_star = [
        rho_face * v - dt * (conv + dp - grav)
        for rho_face, v, (conv, dp, grav) in zip(ops._face_densities(rho, len(vel)), interior, tendencies)
    ]
    m_star[-1] = _pad_walls(m_star[-1])
    vel_new = _solve_velocity(grid, transport, theta, rho1, m_star, dt, solver)

    # stage (iii): rho*e advanced explicitly, checked against the zero-point
    # floor, inverted for theta, which seeds the implicit heat conduction
    evol = rho * thermo.internal_energy(gas, rho, theta)
    half = [0.5 * (v + v_new) for v, v_new in zip(vel, vel_new)]
    conv_e, heat, work = ops.energy_explicit_nd(grid, gas, transport, rho1, theta, evol, vel, half, convection, p=p1)
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
    dt drop would make the kept slab band-Cholesky factors refactor twice."""
    return float(remaining) / max(1, math.ceil((remaining - _LANDING_SLACK) / dt_cfl))


@dataclass
class RunResult:
    final_state: FluidState
    steps: int
    retries: int
    wall_time: float
    counters: dict  # the manifest's stepper counters, ``SlabLU.counts``
    records: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""


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
    across the whole run, and its ``counts`` are the result's ``counters``:
    there an accepted step counts in ``dt_min_clamps`` when its ``cfl_dt``
    came back at dt_min, in ``dt_max_clamps`` when at dt_max.
    """
    t_start = _time.perf_counter()
    state = initial
    solver = SlabLU()
    result = RunResult(final_state=state, steps=0, retries=0, wall_time=0.0, counters=solver.counts)
    last_sampled = [-np.inf]

    def finish(st):
        result.final_state = st
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
        result.counters["dt_min_clamps"] += at_min
        result.counters["dt_max_clamps"] += at_max
        if sample_every_step and keep_samples:
            result.samples.append((state.t, state.copy()))
        if cadence > 0.0 and state.t >= next_sample - _LANDING_SLACK:
            sample(state)
            while next_sample <= state.t + _LANDING_SLACK:
                next_sample += cadence
    if last_sampled[0] < state.t - _LANDING_SLACK:
        sample(state)
    return finish(state)

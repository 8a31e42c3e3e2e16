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
      the kept strains of the velocity probes, and solved with the sparse LU
      factors ``SlabLU`` keeps,
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

The velocity matrix and L are probed from their stencils through a
``_ProbePlan`` built once per grid: the colouring (``_probe_coupling``),
the probe stack, the coupling pattern's CSC arrays and each stored entry's
place in the stacked response.  A step's velocity matrix is then one
stress-divergence call on the probes' kept strains, one gather and a
``csc_matrix`` on the fixed arrays (1.0 ms at 32x24, against 4.8 ms
probing and converting COO -> CSC every step).  It stores the pattern's exact zeros, which
``SlabLU`` drops from the copy it factors.  The factors use a
minimum-degree ordering of A^T + A: at 32x24 the velocity LU takes 5.7 ms
and 88k nonzeros against 9.3 ms and 129k under COLAMD.  Between steps a
matrix moves by 1e-4 to 2e-3 relative, so ``run`` keeps the factors for
the whole run (``SlabLU``).  ``run`` also reaches every sample time and
the horizon in equal steps of at most the CFL step (``_landing_dt``), so no
sliver step drops dt and makes the kept factors refactor: the 5 steps of
a 32x24 ``rb-2d-topology`` run to t = 0.02 factor twice (velocity and
heat), not 15 times, and so do its 44 steps to t = 0.2 at cadence 0.05.

Negative density or temperature is never clamped: a failed step raises
``PositivityError`` and ``run`` retries with half the step, as it does
for ``ImplicitSolveError`` and ``thermo.TemperatureInversionError``.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, dpbtrf, dpbtrs
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from . import operators as ops
from . import thermo
from .grids import FluidState, StepControl
from .stationary import _CHORD_CUT

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


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded`` for ``l_and_u`` = (1, 1) only, without
    its input checks: LAPACK ``dgtsv``, the routine it calls, on the bands."""
    if l_and_u != (1, 1):
        raise ValueError("only tridiagonal (1, 1) systems are supported")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise LinAlgError(f"singular tridiagonal matrix: zero pivot at row {info}")
    return x


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


def _heat_operator(grid):
    """L, the divergence of ``ops.kirchhoff_stencil_nd`` at zero walls, probed
    through a ``_ProbePlan``: div H(theta) has the Jacobian L diag(kappa),
    the stencil being linear in K.  Returns L's bands and L.  On the column
    the bands are L's three in solve_banded (1, 1) layout, whose entry j
    lies in column j; on the slab they are L's lower band in the order of
    ``_x_fastest``, half-width nx, in LAPACK lower band storage (row d holds
    L[p + d, p])."""
    lattice = (1, grid.n) if grid.dimension == 1 else (grid.nx, grid.nz)
    plan = _ProbePlan(_probe_coupling(*lattice, reach=1), lattice)
    L = plan.matrix(ops._divergence(grid, ops.kirchhoff_stencil_nd(grid, plan.probes, 0.0, 0.0)))
    L.eliminate_zeros()  # the pattern is a superset; its exact zeros only add work
    if grid.dimension == 1:
        return np.stack([np.append(0.0, L.diagonal(1)), L.diagonal(), np.append(L.diagonal(-1), 0.0)]), L
    place = _x_fastest(np.arange(L.shape[0]).reshape(grid.nx, grid.nz)).argsort()  # each cell's x-fastest index
    entries = L.tocoo()
    rows, cols = place[entries.row], place[entries.col]
    lower = rows >= cols
    band = np.zeros((grid.nx + 1, L.shape[0]), order="F")
    band[rows[lower] - cols[lower], cols[lower]] = entries.data[lower]
    return band, L


def _x_fastest(field):
    """A slab field (nx, nz) flattened x-fastest, cell (i, k) at k nx + i: in
    this order L and S are bands of half-width nx, the periodic wrap
    included."""
    return field.T.ravel()


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
    L = operator[1]
    b = ops._divergence(grid, ops.kirchhoff_stencil_nd(grid, np.zeros((grid.nx, grid.nz)), *plates))
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
    if grid.dimension == 1:
        def divergence(K):
            return ops._divergence(grid, ops.kirchhoff_stencil_nd(grid, K, *plates))
    else:
        divergence = _heat_divergence(grid, operator, plates)

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


def _probe_coupling(nx, ns, reach):
    """Probe colours of an (nx, ns) lattice's unknowns, row-major, and the
    (rows, cols) they may couple, rows ascending.  A stencil row reaches one
    step in i (periodic; none when nx = 1) and ``reach`` in s, so s takes
    s mod (2 reach + 1) and i runs through blocks of 3 colours, then of 4
    (nx = 3a + 4b), one colour per column when nx is 5 or less: columns of
    one colour lie at least 3 apart around the ring, so no two unknowns of
    one colour share a row, the periodic wrap included.  From nx = 6 on
    that takes at most 4 x-colours."""
    span, m, i = 2 * reach + 1, nx - 4 * (nx % 3), np.arange(nx)
    ci = np.where(i < m, i % 3, (i - m) % 4) if m >= 0 else i
    colour = (span * ci[:, None] + np.arange(ns) % span).ravel()
    node = np.pad(np.arange(nx * ns).reshape(nx, ns), ((0, 0), (reach, reach)), constant_values=-1)
    rolled = [np.roll(node, -di, axis=0) for di in ((-1, 0, 1) if nx > 1 else (0,))]
    near = np.stack([r[:, reach + ds:reach + ds + ns] for r in rolled for ds in range(-reach, reach + 1)], axis=-1)
    coupled = near >= 0
    return colour, np.broadcast_to(node[:, reach:-reach, None], near.shape)[coupled], near[coupled]


class _ProbePlan:
    """How a linear operator on a lattice becomes a CSC matrix, fixed per grid.

    ``coupling`` (from ``_probe_coupling``) colours the unknowns of a
    lattice of ``shape``, padded by ``pad`` zero wall nodes along the last
    axis.  One colour's summed unit vectors return all its columns (Curtis,
    Powell & Reid 1974), exact to rounding, so the operator maps ``probes``,
    the stack of every colour's probe, in one call; ``matrix`` reads the
    coupling pattern off that response with one gather, no sort.
    """

    def __init__(self, coupling, shape, pad=0):
        colour, rows, cols = coupling
        n, n_colours = colour.size, colour.max() + 1
        node = np.arange(n)
        padded = node + pad * (2 * (node // shape[-1]) + 1)  # its place on the padded lattice
        self.probes = np.zeros((n_colours, *shape[:-1], shape[-1] + 2 * pad))
        self.probes.reshape(n_colours, -1)[colour, padded] = 1.0
        # the pairs in CSC order, the storage order of a COO -> CSC
        # conversion: that of their own indices (with the rows ascending, it
        # finds every column sorted)
        pattern = coo_matrix((np.arange(rows.size), (rows, cols)), shape=(n, n)).tocsc()
        pattern.sort_indices()
        col = cols[pattern.data]
        self.indices, self.indptr = pattern.indices, pattern.indptr
        self.diagonal = np.flatnonzero(pattern.indices == col)
        # each entry's place in the stacked response: the probe of its
        # column's colour, at its row's node
        self.gather = (colour * self.probes[0].size)[col] + padded[pattern.indices]

    def matrix(self, response, scale=1.0, diagonal=0.0):
        """CSC of ``diagonal`` plus ``scale`` times the operator whose
        response to ``probes`` is ``response``.  It stores the pattern's
        exact zeros and owns its index arrays."""
        data = scale * response.ravel()[self.gather]
        data[self.diagonal] += diagonal
        n = self.indptr.size - 1
        return csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))


def _velocity_operator(grid):
    """The ``_ProbePlan`` of the velocity unknowns, the lattice nodes off the
    walls, and the ``strain_rates_2d`` of its probes: both fixed per grid."""
    lattice = (grid.nx, 2 * grid.nz - 1)
    plan = _ProbePlan(_probe_coupling(*lattice, reach=2), lattice, pad=1)
    return plan, ops.strain_rates_2d(grid, plan.probes[..., 1::2], plan.probes[..., ::2])


def _velocity_matrix(grid, transport, theta, rho, dt, operator=None):
    """rho_face*v - dt*viscous_rhs_2d(theta, v) over the lattice nodes off
    the walls: one ``stress_divergence_2d`` call on the kept probe strains
    of ``_velocity_operator`` (``operator``, if given, is its result).  The
    matrix stores the coupling pattern's exact zeros."""
    plan, strains = _velocity_operator(grid) if operator is None else operator
    rbu, rbw = ops._face_densities(rho, 2)
    rho_face = _interleave(rbu, np.pad(rbw, ((0, 0), (1, 1))))[:, 1:-1].ravel()
    return plan.matrix(_interleave(*ops.stress_divergence_2d(grid, transport, theta, strains)), -dt, rho_face)


def _solve_velocity_2d(grid, transport, theta, rho, m_star_u, m_star_w, dt, solver=None):
    """Backward-Euler solve of rho_face*v - dt*div S(theta, v) = m* for (u, w),
    with the factors and the coupling ``solver`` keeps (a fresh ``SlabLU``
    when none is given)."""
    if solver is None:
        solver = SlabLU()
    a = _velocity_matrix(grid, transport, theta, rho, dt, solver.grid_operator("velocity", grid))
    v = _interleave(m_star_u, m_star_w)
    v[:, 1:-1] = solver.solve("velocity", a, v[:, 1:-1].ravel()).reshape(grid.nx, -1)
    v[:, [0, -1]] = 0.0
    return v[:, 1::2].copy(), v[:, ::2].copy()


# ---------------------------------------------------------------------------
# Slab LU factors kept across steps
# ---------------------------------------------------------------------------

# The velocity matrix is symmetric: a minimum-degree ordering of A^T + A with
# symmetric pivoting cuts the LU fill by about a third against the COLAMD
# default (George & Liu, SIAM Rev. 31, 1989).
_LU_ORDERING = dict(permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
# Refinement stops at a normwise backward error |b - A x| / (|A| |x| + |b|)
# of 4 eps, max-norms throughout: refined sweeps level off at 1e-16 to
# 1.7e-16 on the slab at 32x24 to 128x96, and a direct solve lands at 1.5e-16
# to 6.3e-16.  A fixed 1e-14 |b| is below the direct solve's own residual
# from 64x48 on (4.4e-14 |b| there, 1e-13 |b| at 128x96).
_REFINE_TOL = 4.0 * np.finfo(float).eps
_REFINE_MAX = 8


class SlabLU:
    """The slab's factors, kept from one implicit solve to the next.

    The velocity keeps sparse LU factors: ``solve(kind, a, b)`` starts from
    the factors last made for ``kind`` and refines x <- x + LU^-1 (b - a x)
    against the current matrix ``a`` until the residual is at rounding
    level, a backward error of at most 4 eps (Kelley, Iterative Methods for
    Linear and Nonlinear Equations, 1995).  A sweep that cuts the residual
    less than tenfold (the stationary Newton's ``_CHORD_CUT``), a residual
    that is not finite, or ``_REFINE_MAX`` sweeps drop the factors; ``a`` is
    then factored anew and solved directly, as when no factors are kept.
    The heat keeps the band-Cholesky factors of its SPD form S with kappa
    (``_heat_factors``), which ``_chord_heat`` makes and uses; both kinds
    count in ``factorisations``.

    ``run`` makes one per run and hands it to every ``step``; nothing is
    shared between instances, so concurrent runs stay independent.  On the
    column as on the slab it also keeps the probed heat operator, on the
    slab the velocity probe plan and its strains (``grid_operator``), and
    it counts the heat Newton's positivity halvings and chord steps.
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

    def solve(self, kind, a, b):
        kept = self._factors.pop(kind, None)
        if kept is not None and kept.shape == a.shape:
            x = self._refine(kept, a, b)
            if x is not None:
                self._factors[kind] = kept
                return x
        del kept  # the old factors go before the new ones are made
        nonzero = a.copy()
        nonzero.eliminate_zeros()  # stored zeros would only add fill
        lu = splu(nonzero, **_LU_ORDERING)
        self.factorisations += 1
        self._factors[kind] = lu
        return lu.solve(b)

    def _refine(self, lu, a, b):
        """x with |b - a x| <= 4 eps (|a| |x| + |b|) from factors of a nearby
        matrix, or None once a sweep stalls, the residual is not finite or
        the cap is hit."""
        x = lu.solve(b)
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
            x += lu.solve(r)
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

"""Stationary states: uniform static, Kirchhoff + hydrostatic pipeline, and
a damped Newton solve of the fully coupled discrete system.

The pipeline and the Newton solver zero the same stencils the time stepper
advances (``operators``), so their output is an exact fixed point of the
integrator.  The Newton solver enforces the prescribed total mass through one
scalar multiplier added to the continuity rows, which also removes their
structural redundancy (upwind fluxes telescope to zero over the domain).

Newton's Jacobian is a coloured finite difference (Curtis, Powell & Reid,
IMA J. Appl. Math. 13, 1974; Coleman & More, SIAM J. Numer. Anal. 20, 1983)
read off the residual by ``probing``: forward differences on a small probe
grid, at a random state and again with every velocity negated, give the
offsets by which each equation field couples to each unknown field, and
those give the pattern on the grid at hand and the colours, columns that
share no equation being perturbed together; a process builds this plan
once for each grid shape (``_newton_plan``).  An iteration evaluates one
perturbed state per colour plus one for the multiplier, a count fixed by
the stencils and not by the grid size (32 at 24x16 and 64x48), and all of
them are the rows of one stacked residual call.  The mass row is linear and
set exactly.  The whole bordered matrix is solved at once; the core block
alone is singular because the continuity rows telescope.  On a slab the
solve starts from small blocks, one per x wavenumber, of the Jacobian's
block-circulant part (T. Chan, SIAM J. Sci. Stat. Comput. 9, 1988),
banded in z and factored as one dense block and one stacked complex band
(``_XBlocks``): Newton's guess is x-invariant, so the Jacobian differs from
that part only through laterally varying plates, and refinement against the
Jacobian itself makes the solve exact.  Where a block is singular or the
refinement stalls, and always on a 1-D column, the Jacobian is factored
with ``splu``, its columns in a nested-dissection order of the grid
locations (a 1-D column keeps its z order), which SuperLU takes as given.
The factors are kept: later iterations first try a chord step with them
(Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
sec. 5.4), and a Jacobian is built and factored afresh only when that step
fails to cut the residual tenfold.

The pipeline solves its one discrete problem one way.  The temperature is
the Kirchhoff conduction profile between the column's plates, in closed
form through the inverse of the conductivity primitive K.  The density is
one damped Newton solve of the stepper's face balances and the mass row,
a bidiagonal system bordered by one row, solved in O(n) per iteration;
there is no other hydrostatic mode.

Every solver returns a ``StationaryState``, a ``grids.FluidState`` at t = 0
of owned fields plus the solver's report, which ``_finish`` writes for all
three; ``_pipeline_applies`` says where the pipeline solves the problem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgetrf, dgetrs, dgtsv, zgbtrf, zgbtrs
from scipy.sparse.linalg import splu

from . import operators as ops
from . import probing, thermo
from .grids import FluidState, Grid1D, Grid2D

__all__ = [
    "ProblemConfig",
    "StationaryState",
    "NewtonFailure",
    "ShootingFailure",
    "static_uniform",
    "solve_heat_profile_1d",
    "solve_hydrostatic_density",
    "solve_stationary_newton",
    "solve_rb_pipeline",
]


class NewtonFailure(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message + f" (residual trace: {trace})")
        self.trace = trace


class ShootingFailure(RuntimeError):
    """The pipeline's hydrostatic solve failed: the discrete Newton of
    ``solve_hydrostatic_density`` met a singular Jacobian, could not keep
    the density positive, or did not converge.  The name dates from an
    earlier shooting solver and is kept as public API."""


def _potential_from_gravity(grid, g):
    """G = g . x on the grid centers (1-D scalar g means G = g*x)."""
    if g is None:
        return None
    if grid.dimension == 1:
        return float(g) * grid.centers()
    gx, gz = (float(g[0]), float(g[1])) if np.ndim(g) else (0.0, float(g))
    X, Z = np.meshgrid(grid.x_centers(), grid.z_centers(), indexing="ij")
    return gx * X + gz * Z


@dataclass(frozen=True)
class ProblemConfig:
    """Domain, data, and total mass defining one stationary problem.

    ``grid`` carries the wall temperatures; ``g`` is the gravity strength
    (scalar along the column in 1-D, (gx, gz) or scalar gz in 2-D).
    """

    grid: object
    m0: float
    g: object = None

    def __post_init__(self):
        if self.m0 <= 0.0:
            raise ValueError("total mass m0 must be positive")

    def potential_field(self):
        return _potential_from_gravity(self.grid, self.g)

    def wall_theta_values(self) -> np.ndarray:
        g = self.grid
        return np.concatenate([np.ravel(g.wall_theta("bottom")), np.ravel(g.wall_theta("top"))])

    @property
    def theta_bar(self) -> float:
        """Reference constant boundary temperature (mean of the trace)."""
        return float(np.mean(self.wall_theta_values()))

    @property
    def epsilon_report(self) -> float:
        """max(|G|_C1, |theta_B - theta_bar|_inf): the data smallness measure."""
        walls = self.wall_theta_values()
        eps_theta = float(np.max(np.abs(walls - self.theta_bar)))
        G = self.potential_field()
        if G is None:
            return eps_theta
        grads = [np.diff(G, axis=-1) / self.grid.dz]  # the slab's x-differences in front
        if self.grid.dimension == 2:
            grads.insert(0, (G - ops._west(G)) / self.grid.dx)
        eps_g = float(np.max(np.abs(G)) + max(np.max(np.abs(g)) for g in grads))
        return max(eps_theta, eps_g)


def _stationary_counters():
    """The counter record of a stationary solve, ``StationaryState.counters``,
    keyed by the manifest's names, each empty or 0 until counted."""
    return {
        "stationary_residual_trace": [],  # Newton's residual max-norm per iterate
        "stationary_jacobian_colours": 0,
        "stationary_jacobians": 0,  # built and factored
        "stationary_residual_calls": 0,  # the pattern probe's calls included; a stack of K states counts K
        "stationary_refinements": 0,  # refinement sweeps against the exact Jacobian
        "stationary_lu_fill": 0,  # the entries the factors that served the last Jacobian store
        "hydrostatic_halvings": 0,  # the pipeline's hydrostatic positivity halvings
    }


@dataclass
class StationaryState(FluidState):
    """A stationary ``FluidState`` at t = 0 with its solver's report: the
    residual norms, mass error and proximity (``_finish``), the Newton
    iterations and the counters."""

    residual_norms: dict = field(default_factory=dict)
    mass_error: float = 0.0
    proximity: dict = field(default_factory=dict)
    iterations: int = 0
    floor_steps: int = 0  # Newton's Armijo steps accepted at the floor without a decrease
    counters: dict = field(default_factory=_stationary_counters)

    def max_velocity(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.velocity)


def _steady_residual(grid, gas, transport, G, rho, theta, vel):
    """(continuity, *momentum, energy) from ``ops.steady_residual_1d`` or
    ``_2d``, called through the module on the velocity components."""
    residual = ops.steady_residual_1d if grid.dimension == 1 else ops.steady_residual_2d
    return residual(grid, gas, transport, G, rho, theta, *vel)


def _residual_norms(state, gas, transport, G):
    return _norms(_steady_residual(state.grid, gas, transport, G, state.rho, state.theta, state.velocity))


def _norms(parts):
    """The max-norms of the residual parts (continuity, *momentum, energy)."""
    cont, *mom, energy = parts
    return {
        "continuity": float(np.max(np.abs(cont))),
        "momentum": max((float(np.max(np.abs(m))) for m in mom if m.size), default=0.0),
        "energy": float(np.max(np.abs(energy))),
    }


def _finish(config: ProblemConfig, state: StationaryState, residual_norms) -> StationaryState:
    """``state`` with the report every stationary solver ends with: the
    ``residual_norms``, the mass error and the proximity to the flat state."""
    rho_flat = config.m0 / config.grid.volume
    state.residual_norms = residual_norms
    state.mass_error = abs(state.total_mass() - config.m0)
    state.proximity = {
        "rho_dev": float(np.max(np.abs(state.rho - rho_flat))),
        "theta_dev": float(np.max(np.abs(state.theta - config.theta_bar))),
        "u_dev": state.max_velocity(),
        "epsilon": config.epsilon_report,
    }
    return state


# ---------------------------------------------------------------------------
# Closed-form static solution
# ---------------------------------------------------------------------------


def static_uniform(config: ProblemConfig, gas=None, transport=None) -> StationaryState:
    """rho = m0/|Omega|, theta = theta_B, u = 0 (constant data, no potential)."""
    grid = config.grid
    walls = config.wall_theta_values()
    if float(np.max(walls) - np.min(walls)) != 0.0:
        raise ValueError("static_uniform requires a constant boundary temperature")
    G = config.potential_field()
    if G is not None and float(np.max(np.abs(G - G.flat[0]))) != 0.0:
        raise ValueError("static_uniform requires a constant (removable) potential")
    cells = grid.field_shapes[0]
    state = StationaryState.at_rest(grid, np.full(cells, config.m0 / grid.volume), np.full(cells, float(walls[0])))
    norms = {} if gas is None or transport is None else _residual_norms(state, gas, transport, None)
    return _finish(config, state, norms)


# ---------------------------------------------------------------------------
# Kirchhoff heat profile
# ---------------------------------------------------------------------------


def solve_heat_profile_1d(transport, grid: Grid1D) -> np.ndarray:
    """Stationary conduction temperature at the cell centers of ``grid``
    between its plates.

    K(theta(x)) is linear in x between the plate values, so on a column of
    length L, theta(x) = K_inv((1 - x/L) K(Theta_B) + (x/L) K(Theta_U)).
    Because the discrete heat flux is a K-difference, this profile carries
    an exactly constant flux cell to cell (to inversion tolerance), wall
    half-cells included.
    """
    kb = float(thermo.conductivity_primitive(transport, np.float64(grid.theta_bottom)))
    kt = float(thermo.conductivity_primitive(transport, np.float64(grid.theta_top)))
    return thermo.invert_conductivity_primitive(transport, kb + (kt - kb) * (grid.centers() / grid.length))


# ---------------------------------------------------------------------------
# Hydrostatic density
# ---------------------------------------------------------------------------


_HYDROSTATIC_MAXITER = 100
_HYDROSTATIC_MASS_TOL = 1.0e-12


def solve_banded(ab, b):
    """``scipy.linalg.solve_banded((1, 1), ab, b)`` without its input
    checks: LAPACK ``dgtsv``, the routine it calls, on the bands."""
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise LinAlgError(f"singular tridiagonal matrix: zero pivot at row {info}")
    return x


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, imported on first use.  Nothing in the
    package calls it: it stays only because perfbench's tracer patches
    ``stationary.brentq`` and its self-tests expect the attribute."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


def solve_hydrostatic_density(gas, theta, g, m0: float, grid: Grid1D):
    """(rho, halvings): the density in the stepper's discrete hydrostatic
    balance with the cell temperatures ``theta`` under the scalar gravity
    ``g`` (G = g x), and the count of positivity halvings of the solve.

    A damped Newton zeros the n-1 face balances
    p(rho_{i+1}, theta_{i+1}) - p(rho_i, theta_i) = 0.5 (rho_i + rho_{i+1}) g dx
    together with the mass row sum(rho) dx = m0.  The Jacobian is
    bidiagonal and bordered by the mass row dx * (1, ..., 1).  Taking rho_0
    as the border unknown leaves a lower-bidiagonal block in
    rho_1..rho_{n-1}; it is solved for the residual and for the rho_0
    column, and the mass row then fixes the rho_0 increment: O(n) per
    iteration.  A step that would take a density nonpositive is halved.
    """
    n, dx = theta.size, grid.dx
    dG = float(g) * dx
    rho = np.full(n, m0 / (n * dx))
    converged, halvings = False, 0
    for _ in range(_HYDROSTATIC_MAXITER):
        p = thermo.pressure(gas, rho, theta)
        face = np.diff(p) - 0.5 * (rho[:-1] + rho[1:]) * dG
        if converged:
            break
        dp_drho, _ = thermo.pressure_partials(gas, rho, theta)
        below = -dp_drho[:-1] - 0.5 * dG  # d face_i / d rho_i
        above = dp_drho[1:] - 0.5 * dG  # d face_i / d rho_{i+1}
        # a tridiagonal solve with an empty upper band: LAPACK's general band
        # solver would cost more resident memory
        bands = np.vstack([np.zeros(n - 1), above, np.append(below[1:], 0.0)])
        border = np.zeros(n - 1)
        border[0] = below[0]
        try:
            y = solve_banded(bands, np.column_stack([-face, border]))
        except np.linalg.LinAlgError as exc:
            raise ShootingFailure(f"singular hydrostatic Jacobian: {exc}") from exc
        d0 = (m0 / dx - np.sum(rho) - np.sum(y[:, 0])) / (1.0 - np.sum(y[:, 1]))
        delta = np.concatenate([[d0], y[:, 0] - d0 * y[:, 1]])
        s = 1.0
        while not np.all(rho + s * delta > 0.0):
            s *= 0.5
            halvings += 1
            if s < 2.0**-20:
                raise ShootingFailure(
                    "hydrostatic Newton cannot keep the density positive (driven to the "
                    "vacuum pressure floor); parameters outside the perturbative regime"
                )
        rho = rho + s * delta
        converged = s == 1.0 and float(np.max(np.abs(delta))) <= 1.0e-12 * float(np.max(rho))
    else:
        raise ShootingFailure("hydrostatic Newton did not converge")
    balanced = np.all(np.abs(face) <= 1.0e-9 * np.maximum(1.0, np.abs(p[:-1])))
    if not balanced or abs(np.sum(rho) * dx - m0) > _HYDROSTATIC_MASS_TOL * max(1.0, m0):
        raise ShootingFailure("face balance or mass not met after the hydrostatic Newton solve")
    return rho, halvings


def _pipeline_applies(config: ProblemConfig) -> bool:
    """Whether ``solve_rb_pipeline`` solves the problem: always on a column;
    on a slab, with plates constant along x and gravity without an x
    component."""
    plates = (config.grid.wall_theta(which) for which in ("bottom", "top"))
    tilted = config.g is not None and np.ndim(config.g) and float(config.g[0]) != 0.0
    return all(float(np.ptp(theta)) == 0.0 for theta in plates) and not tilted


def solve_rb_pipeline(config: ProblemConfig, gas, transport) -> StationaryState:
    """Kirchhoff conduction + hydrostatic balance for vertical-gravity data.

    1-D directly; in 2-D the column solution broadcasts across the periodic
    direction, and a slab where it does not apply (``_pipeline_applies``:
    plates that vary along x, or gravity with an x component) raises
    ValueError.
    """
    grid = config.grid
    if not _pipeline_applies(config):
        raise ValueError("pipeline needs laterally constant plate temperatures and vertical gravity")
    col, m0_col = grid, config.m0
    if grid.dimension == 2:
        plates = (float(grid.wall_theta(which)[0]) for which in ("bottom", "top"))
        col, m0_col = Grid1D(grid.nz, *plates, length=grid.lz), config.m0 / grid.lx
    gval = 0.0 if config.g is None else (float(config.g[-1]) if np.ndim(config.g) else float(config.g))
    theta_col = solve_heat_profile_1d(transport, col)
    rho_col, halvings = solve_hydrostatic_density(gas, theta_col, gval, m0_col, col)
    # owned copies: a broadcast view would be read-only with zero strides
    rho, theta = (np.broadcast_to(a, grid.field_shapes[0]).copy() for a in (rho_col, theta_col))
    state = StationaryState.at_rest(grid, rho, theta)
    state.counters["hydrostatic_halvings"] = halvings
    return _finish(config, state, _residual_norms(state, gas, transport, config.potential_field()))


# ---------------------------------------------------------------------------
# Damped Newton on the coupled system
# ---------------------------------------------------------------------------


class _Layout:
    """Packed Newton vector of one grid and the grid site of every entry.

    Unknowns: rho, theta, u (2-D only), the wall-normal velocity without its
    pinned wall faces, then the mass multiplier lambda.  Equations:
    continuity, momentum, energy, then the mass row.  A 1-D column is laid
    out as a slab one cell wide whose velocity plays the part of w.  A cell
    and the faces west of and below it share the cell's location (i, k);
    ``unknowns`` and ``equations`` hold the ``probing`` site (field, i, k)
    of every core unknown and equation, the field the index of its block.
    """

    def __init__(self, grid):
        self.grid = grid
        self.nx, self.nz = grid.lattice
        self.n_cells = self.nx * self.nz
        cells = np.indices((self.nx, self.nz)).reshape(2, -1)
        faces = np.indices((self.nx, self.nz - 1)).reshape(2, -1) + np.array([[0], [1]])
        velocity = [cells] * (len(grid.field_shapes) - 2) + [faces]
        self.unknowns, self.equations = (
            np.concatenate([np.vstack([np.full(b.shape[1], f), b]) for f, b in enumerate(blocks)], axis=1)
            for blocks in ([cells, cells, *velocity], [cells, *velocity, cells])
        )
        self.size = self.equations.shape[1] + 1

    def pack(self, state, lam):
        """The packed vector of ``state`` and the multiplier ``lam``: rho,
        theta, the along-wall velocity, the wall-normal one at the interior
        faces."""
        *along, normal = state.velocity
        fields = [state.rho, state.theta, *along, normal[..., 1:-1]]
        return np.concatenate([np.ravel(a) for a in fields] + [[lam]])

    def unpack(self, x):
        """(rho, theta, velocity, lam), the fields in the shapes of
        ``grid.field_shapes``, the velocity components wall-normal last.

        ``x`` is one packed vector (size,) or a stack (K, size); the fields
        of a stack carry K in front and lam has shape (K,).
        """
        nc, lead = self.n_cells, x.shape[:-1]
        cells, *along_shapes, normal = self.grid.field_shapes
        rho, theta, *along = (
            x[..., j * nc : (j + 1) * nc].reshape(lead + shape)
            for j, shape in enumerate([cells, cells, *along_shapes])
        )
        wall_normal = np.zeros(lead + normal)
        wall_normal[..., 1:-1] = x[..., -1 - self.nx * (self.nz - 1) : -1].reshape(lead + normal[:-1] + (-1,))
        return rho, theta, (*along, wall_normal), x[..., -1]


def _residual(layout, x, gas, transport, G, m0, parts=None):
    """Packed residual of one state (size,) or, row by row, of a stack
    (K, size) in one stencil call: lam shifts each state's continuity rows
    and the mass row sums each state's densities.  A list ``parts`` takes
    the residuals (continuity, *momentum, energy) of a single state, before
    the shift."""
    rho, theta, velocity, lam = layout.unpack(x)
    grid = layout.grid
    cont, *rest = _steady_residual(grid, gas, transport, G, rho, theta, velocity)
    if parts is not None and x.ndim == 1:
        parts[:] = cont, *rest
    mass = np.sum(x[..., : layout.n_cells], axis=-1, keepdims=True) * grid.cell_volume - m0
    rows = [r.reshape(x.shape[:-1] + (-1,)) for r in (cont, *rest)]
    rows[0] = rows[0] + lam[..., None]
    return np.concatenate([*rows, mass], axis=-1)


@probing.shared(lambda dimension: dimension)
def _probe_table(dimension):
    """The residual's offset table and the states it evaluated, on a 5x5 slab
    (a 6-cell column in 1-D) with laterally varying plates, gravity with both
    components and a random state, taken as it is and with every velocity
    negated, which flips every donor-cell branch."""
    rng = np.random.default_rng(0)
    if dimension == 1:
        grid, g = Grid1D(n=6, theta_bottom=1.1, theta_top=1.0), 0.05
    else:
        plates = 1.0 + 0.1 * rng.random((2, 5))
        grid, g = Grid2D(nx=5, nz=5, theta_bottom=plates[0], theta_top=plates[1]), (0.02, 0.05)
    layout = _Layout(grid)
    gas, transport, G = thermo.GasModel(), thermo.TransportModel(eta0=0.5), _potential_from_gravity(grid, g)
    nc = layout.n_cells
    x = 0.05 * rng.standard_normal(layout.size)
    x[: 2 * nc] = 1.0 + 0.1 * rng.standard_normal(2 * nc)
    negated = np.concatenate([x[: 2 * nc], -x[2 * nc : -1], x[-1:]])

    def fun(stack):
        return _residual(layout, stack, gas, transport, G, grid.volume)

    return probing.offsets(fun, (x, negated), layout.unknowns, layout.equations, layout.nx)


def _dissection_ranks(nx, nz, reach):
    """Nested-dissection rank of every location (i, k) of a periodic nx x nz
    slab, as an (nx, nz) array (George, SIAM J. Numer. Anal. 10, 1973).

    A box is split across its longer extent by a band of ``reach`` lines
    (fewer in a box too short to keep a line on each side); both halves are
    numbered first and the band last, each recursively, down to single
    locations.  The x ring is first cut open by the band i < reach, numbered
    last of all, unless nx is too narrow for any two lines to lie out of
    reach of each other across the wrap.
    """
    rank = np.empty((nx, nz), dtype=int)
    taken = 0

    def number(i0, i1, k0, k1):
        nonlocal taken
        across_x = i1 - i0 >= k1 - k0
        lo, hi = (i0, i1) if across_x else (k0, k1)
        if hi - lo == 1:
            rank[i0, k0] = taken
            taken += 1
            return
        width = min(reach, hi - lo - 2)
        a = lo + (hi - lo - width) // 2
        for s0, s1 in ((lo, a), (a + width, hi), (a, a + width)):
            if s1 > s0:
                number(*((s0, s1, k0, k1) if across_x else (i0, i1, s0, s1)))

    if nx > 2 * reach + 1:
        number(reach, nx, 0, nz)
        number(0, reach, 0, nz)
    else:
        number(0, nx, 0, nz)
    return rank


@probing.shared(lambda layout: (layout.grid.dimension, layout.nx, layout.nz))
def _newton_plan(layout):
    """The Jacobian's ``probing.Plan`` in its column order, that order
    ``rank``, the places of the mass row's entries, the colour count, the
    residual calls of the pattern probe (``_probe_table``) and, on a slab,
    the ``_XBlocks`` of the plan (None on a column), for the shape of
    ``layout``'s grid.

    ``rank[j]``, the column of unknown j, puts the locations in
    nested-dissection order (``_dissection_ranks``, its bands as wide as the
    offsets' largest |di| or |dk|), or in z order on a column, whose
    Jacobian is a bordered band that dissection would only fill further.
    """
    table, probe_calls = _probe_table(layout.grid.dimension)
    rows, cols = probing.pattern(table, layout.unknowns, layout.equations, layout.nx)
    colour = probing.colouring(table, layout.unknowns, layout.nx)
    colours = int(colour.max()) + 1
    _, i, k = layout.unknowns
    reach = int(np.max(np.abs(table[:, 2:]), initial=0))
    one_d = layout.grid.dimension == 1
    location = k if one_d else _dissection_ranks(layout.nx, layout.nz, reach)[i, k]
    # the unknowns of a location keep their field order, lambda goes last
    n = layout.size - 1
    rank = np.append(np.argsort(np.argsort(location, kind="stable")), n)
    # the border: the lambda column, which one more probe gives, and the mass row
    rows = np.concatenate([rows, np.arange(n), np.full(layout.n_cells, n)])
    cols = np.concatenate([cols, np.full(n, n), np.arange(layout.n_cells)])
    plan = probing.Plan(rows, cols, np.append(colour, colours), layout.size, column=rank)
    blocks = None if one_d else _XBlocks(layout, plan, rank)
    return plan, rank, np.flatnonzero(plan.indices == n), colours, probe_calls, blocks


class _XBlocks:
    """The x-Fourier blocks of a slab Jacobian's block-circulant part, the
    optimal circulant approximation of T. Chan (SIAM J. Sci. Stat. Comput.
    9, 1988), fixed per grid shape and factored as bands.

    The core equations and unknowns of x column i take the places (i, a),
    a = 0..m-1, z-major: the fields of one z level together, in field
    order, m = 4 nz - 1.  Averaged over i, the block coupling column i to
    column i + d is B_d; the block of wavenumber q is
    sum_d B_d exp(2 pi i d q / nx), q = 0..nx//2 (the rest are their
    conjugates), d over the pattern's x offsets only.  On z-major places
    every block is a band, ``kl`` rows below and ``ku`` above its diagonal,
    widths set by the stencils' z reach and not by the grid.  ``slot``
    places every stored entry of the plan in the stack of the B_d in
    LAPACK's band storage, column by column, then in the lambda column and
    the mass row: one ``bincount`` sums them all, and two real matrix
    products apply the phases' cosines and sines to every band at once.
    Block q = 0 is real: its entries are gathered from its band into a
    dense matrix, bordered by the lambda column, nx times its mean (a
    column constant in x transforms to q = 0 alone), and by the mass row,
    which reads q = 0 alone, and LAPACK's ``dgetrf`` factors it.  The
    blocks q >= 1 lie end to end as one block-diagonal complex band, which
    one ``zgbtrf`` factors and one ``zgbtrs`` solves.  ``rows_at[i, a]`` is the packed
    equation of a place and ``cols_at[i, a]`` the Jacobian column of its
    unknown; ``fill`` counts the entries the factors store, the band's
    fill rows for LAPACK's pivoting included.
    """

    def __init__(self, layout, plan, rank):
        nx, n = layout.nx, layout.size - 1
        m = n // nx
        self.nx, self.m = nx, m
        places = []
        for field_, i, k in (layout.equations, layout.unknowns):
            order = np.lexsort((field_, k, i))  # x column by x column, z-major
            place = np.empty(n, dtype=int)
            place[order] = np.arange(n) % m
            places.append((order.reshape(nx, m), i, place))
        (self.rows_at, eq_i, eq_place), (unknown_at, un_i, un_place) = places
        self.cols_at = rank[unknown_at]
        rows, cols = plan.indices, plan.cols
        core = (rows < n) & (cols < n)
        lam, mass = np.flatnonzero(cols == n), np.flatnonzero(rows == n)
        row, col = eq_place[rows[core]], un_place[cols[core]]
        self.kl, self.ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
        width = self.kl + self.ku + 1
        shift = (un_i[cols[core]] - eq_i[rows[core]]) % nx
        present = np.zeros(nx, dtype=bool)
        present[shift] = True  # the shifts in use, found without sorting every entry
        offsets, d = np.flatnonzero(present), (np.cumsum(present) - 1)[shift]
        band = col * width + self.ku + row - col  # the entry's place in one band
        self.edge = edge = offsets.size * m * width
        self.slot = np.empty(rows.size, dtype=int)
        self.slot[core] = d * m * width + band
        self.slot[lam] = edge + eq_place[rows[lam]]
        self.slot[mass] = edge + m + un_place[cols[mass]]
        # block 0's entries: their places in its band and in its transposed dense matrix
        stored = np.zeros(m * width, dtype=bool)
        stored[band] = True
        self.band_at = np.flatnonzero(stored)
        column, diagonal = np.divmod(self.band_at, width)
        self.dense_at = column * (m + 2) + diagonal - self.ku
        angles = 2.0 * np.pi / nx * np.outer(np.arange(nx // 2 + 1), offsets)
        self.cos, self.sin = np.cos(angles), np.sin(angles[1:])
        self.fill = (m + 1) ** 2 + (self.kl + width) * (nx // 2) * m

    def factor(self, data):
        """LU factors of every block of the Jacobian whose stored entries are
        ``data``: block 0's and the band's, each with its pivots; None if a
        block is singular."""
        nx, m, kl, ku, edge = self.nx, self.m, self.kl, self.ku, self.edge
        mean = np.bincount(self.slot, weights=data, minlength=edge + 2 * m) / nx
        bands = mean[:edge].reshape(-1, m * (kl + ku + 1))
        real = self.cos @ bands
        # transposed, as the bands: row m holds the lambda column, column m the mass row
        block = np.zeros((m + 1, m + 1))
        block.flat[self.dense_at] = real[0, self.band_at]
        block[m, :m] = nx * mean[edge : edge + m]
        block[:m, m] = mean[edge + m :]
        lu, piv, info = dgetrf(block.T, overwrite_a=1)
        if info != 0:
            return None
        # column by column, kl rows on top for the fill of LAPACK's pivoting
        ab = np.zeros((len(self.sin), m, 2 * kl + ku + 1), dtype=complex)
        ab.real[..., kl:] = real[1:].reshape(ab.shape[0], m, -1)
        ab.imag[..., kl:] = (self.sin @ bands).reshape(ab.shape[0], m, -1)
        band, pivots, info = zgbtrf(ab.reshape(-1, ab.shape[-1]).T, kl, ku, overwrite_ab=1)
        return None if info != 0 else (lu, piv, band, pivots)

    def solve(self, factors, b):
        """C^-1 b for the circulant part C of ``factor``'s Jacobian, b in the
        packed equation order, the result in the Jacobian's column order."""
        lu, piv, band, pivots = factors
        rhs = np.fft.rfft(b[self.rows_at], axis=0)
        y0, _ = dgetrs(lu, piv, np.append(rhs[0].real, b[-1]))
        rhs[0] = y0[:-1]
        rhs[1:] = zgbtrs(band, self.kl, self.ku, rhs[1:].ravel(), pivots)[0].reshape(-1, self.m)
        y = np.empty_like(b)
        y[self.cols_at] = np.fft.irfft(rhs, self.nx, axis=0)
        y[-1] = y0[-1]
        return y


# a chord step is taken only if it cuts the residual max-norm this much
_CHORD_CUT = 0.1
# Refinement stops at a normwise backward error |b - A x| / (|A| |x| + |b|)
# of 4 eps, max-norms throughout: on the slab at 32x24 to 128x96 a direct
# velocity solve on band-Cholesky factors lands at 1.5e-16 to 4.9e-16, and
# refined sweeps level off at 6e-17 to 1.1e-16.  A bound on |b| alone would
# not scale with |A| |x|.
_REFINE_TOL = 4.0 * np.finfo(float).eps
_REFINE_MAX = 8


def refine(direction, a, b):
    """(x, sweeps): x with |b - a x| <= 4 eps (|a| |x| + |b|) for the sparse
    matrix ``a``, from x = direction(b) and the sweeps x <- x + direction(b -
    a x), ``direction`` the solve with the factors of a nearby matrix
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995);
    x is None once a sweep cuts the residual less than tenfold
    (``_CHORD_CUT``), the residual is not finite or ``_REFINE_MAX`` sweeps
    are made.  ``sweeps`` counts the sweeps made either way."""
    x = direction(b)
    # the row sums of |a| in storage order, as abs(a).sum(axis=1) adds them
    a_norm = float(np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]).max())
    b_norm = last = float(np.max(np.abs(b)))
    for sweep in range(_REFINE_MAX + 1):
        r = b - a @ x
        norm = float(np.max(np.abs(r)))
        if norm <= _REFINE_TOL * (a_norm * float(np.max(np.abs(x))) + b_norm):
            return x, sweep
        if sweep == _REFINE_MAX or not norm <= _CHORD_CUT * last:
            break
        x += direction(r)
        last = norm
    return None, sweep


class _ColouredJacobian:
    """Bordered finite-difference Jacobian of ``_residual``: a
    ``probing.Plan`` of one offset table (``_probe_table``) plus its border,
    shared by every solve on the grid's shape (``_newton_plan``).  Every
    entry equals its one-column forward difference bit for bit.  The
    lambda column is one more probe and the linear mass row is set exactly:
    one stacked residual call of (colours + 1, size) states per Jacobian.
    ``fill`` counts the entries stored by the factors serving the last
    Jacobian, and ``refinements`` the sweeps refined against the Jacobians.
    """

    def __init__(self, layout):
        self.layout = layout
        self.plan, self.rank, self.mass, self.colours, self.probe_calls, self.blocks = _newton_plan(layout)
        self.fill = self.refinements = 0

    def factor(self, fun, x, f):
        """The solve b -> J^-1 b, in the packed order, of the Jacobian J at x.

        On a slab the solve starts from the banded x-Fourier blocks of J's
        block-circulant part (``_XBlocks``) and refines against J itself
        (``refine``).  Where a block is singular or a refinement gives up,
        and always on a 1-D column, J is factored by SuperLU in its column
        order (partial row pivoting kept), and those factors serve J's
        later solves.  ``magnitudes`` becomes |J| |x|, row by row: the size
        of the terms each residual row sums, to first order."""
        data = self._data(fun, x, f)
        factors = None if self.blocks is None else self.blocks.factor(data)
        jac = self._matrix(data)
        self.magnitudes = abs(jac) @ np.abs(x)[np.argsort(self.rank)]
        if factors is None:
            return self._superlu(jac)
        self.fill = self.blocks.fill
        direction, direct = functools.partial(self.blocks.solve, factors), None

        def solve(b):
            nonlocal direction, direct
            if direct is None:
                y, sweeps = refine(direction, jac, b)
                self.refinements += sweeps
                if y is not None:
                    return y[self.rank]
                direction, direct = None, self._superlu(jac)
            return direct(b)

        return solve

    def _superlu(self, jac):
        lu = splu(jac, permc_spec="NATURAL")
        self.fill = lu.nnz
        return lambda b: lu.solve(b)[self.rank]

    def __call__(self, fun, x, f):
        """The Jacobian at x in its column order, without its exact zeros."""
        return self._matrix(self._data(fun, x, f))

    def _data(self, fun, x, f):
        """The Jacobian's stored entries at x, exact zeros included, in the
        plan's order."""
        h = 1.0e-7 * np.maximum(1.0, np.abs(x))
        data = (fun(self.plan.probes(x, h)) - f).ravel()[self.plan.gather] / h[self.plan.cols]
        data[self.mass] = self.layout.grid.cell_volume
        return data

    def _matrix(self, data):
        """The CSC matrix of ``data``, which dropping its zeros overwrites."""
        jac = self.plan.matrix(data)
        jac.eliminate_zeros()
        return jac


# A residual row also counts as converged once it is within this multiple
# of the size of its terms, |J| |x|, to first order (Dennis & Schnabel 1983,
# sec. 7.2): its evaluation rounds by about that much.  On the 1-D column the
# Kirchhoff rows sum terms of size K / h^2, and from n = 1024 on that floor
# lies above tol = 1e-9; Newton there stalls at 0.6 to 0.7 eps |J| |x| (n = 1024
# to 4096), a third of this floor.
_ROUNDING_FLOOR = 2.0 * np.finfo(float).eps


def solve_stationary_newton(
    config: ProblemConfig,
    gas,
    transport,
    initial_guess: FluidState = None,
    tol: float = 1.0e-9,
    max_iter: int = 50,
) -> StationaryState:
    """Damped Newton on (continuity, momentum, energy, mass) with a scalar
    multiplier shifting the density level.

    The Jacobian is a coloured sparse finite difference (one stacked
    residual call per Jacobian, a row per column colour).  The bordered
    system is solved by ``_ColouredJacobian.factor``: on a slab from the
    x-Fourier blocks of its block-circulant part (one dense LU for
    wavenumber 0, one complex band LU for the rest), refined against the
    Jacobian to a backward error of 4 eps, and with ``splu`` factors in a
    nested-dissection column order (``permc_spec="NATURAL"``, partial row
    pivoting kept) on a 1-D column or where a block is singular or the
    refinement stalls.  The factors are reused: every
    iteration after the first tries the chord step x - J0^-1 f(x), J0 the
    last Jacobian factored, and takes it only if it keeps (rho, theta)
    positive and cuts the residual max-norm at least tenfold.  Otherwise the
    trial is dropped (it never enters the trace), and the Jacobian is rebuilt
    at x, factored afresh and used for a damped step.
    The damped step is Armijo backtracking on the residual 2-norm with floor
    step 2^-20: below it a step is taken without a decrease, and
    ``floor_steps`` counts these.
    Positivity of (rho, theta) is maintained by shrinking the step, and a
    trial point whose residual is not finite is shrunk from as well.  The
    iteration stops once every residual row is within ``tol`` or, where that
    is higher, its rounding floor ``_ROUNDING_FLOOR * (|J| |x|)_i`` from the
    last Jacobian factored.  Raises
    ``NewtonFailure`` with the residual trace on stagnation, a singular
    Jacobian or a final norm that is not finite.  On success the state's
    ``counters`` hold the trace and the counts of ``_stationary_counters``,
    starting from the guess's where the guess is a ``StationaryState``
    (whose hydrostatic halvings it keeps; a plain ``FluidState`` guess
    brings none), and its ``residual_norms`` are those of the residual
    evaluated at the last iterate, with no further evaluation.
    """
    grid = config.grid
    G = config.potential_field()
    m0 = config.m0
    layout = _Layout(grid)
    n_cells = layout.n_cells

    if initial_guess is None:
        x = np.zeros(layout.size)
        x[:n_cells] = m0 / grid.volume
        x[n_cells : 2 * n_cells] = config.theta_bar
    else:
        x = layout.pack(initial_guess, 0.0)

    calls = 0
    # the residual parts of the last single state evaluated, which is the
    # iterate: every trial that is not taken precedes a later evaluation
    parts = []

    def fun(xv):
        nonlocal calls
        calls += xv.size // layout.size
        return _residual(layout, xv, gas, transport, G, m0, parts)

    def positive(xv):
        return np.all(xv[: 2 * n_cells] > 0.0)

    def chord(solve):
        """(x, f) after the chord step, or None if it is not taken."""
        x_try = x + solve(-f)
        if not positive(x_try):
            return None
        f_try = fun(x_try)
        # NaN compares false: a non-finite trial is never taken
        return (x_try, f_try) if float(np.max(np.abs(f_try))) <= _CHORD_CUT * norm else None

    def damped(delta):
        """(x, f) after the Armijo-damped step along delta."""
        nonlocal floor_steps
        f2 = float(np.dot(f, f))
        s = 1.0
        while True:
            x_try = x + s * delta
            if positive(x_try):
                f_try = fun(x_try)
                f2_try = float(np.dot(f_try, f_try))
                decreased = f2_try <= (1.0 - 1.0e-4 * s) * f2
                # NaN compares false: a non-finite trial is never taken at the floor
                if decreased or (s < 2.0**-20 and np.isfinite(f2_try)):
                    floor_steps += not decreased
                    return x_try, f_try
            s *= 0.5
            if s < 2.0**-21:
                raise NewtonFailure("line search hit the floor step", trace)

    trace = []
    f = fun(x)
    norm = float(np.max(np.abs(f)))
    trace.append(norm)
    iterations = floor_steps = jacobians = 0
    # each row's stopping level: tol, or the rounding floor of the last
    # Jacobian factored where that is higher
    stop = tol
    jacobian = _ColouredJacobian(layout) if norm > tol else None
    solve = None
    # NaN compares false: a residual that is not finite never converges
    while not np.all(np.abs(f) <= stop) and iterations < max_iter:
        try:
            # a chord step's solve may fall back to SuperLU, which raises on
            # a singular Jacobian as a fresh factorisation does
            step = None if solve is None else chord(solve)
            if step is None:
                solve = jacobian.factor(fun, x, f)
                delta = solve(-f)
        except RuntimeError as exc:
            raise NewtonFailure(f"singular Jacobian: {exc}", trace) from exc
        if step is None:
            jacobians += 1
            stop = np.maximum(tol, _ROUNDING_FLOOR * jacobian.magnitudes)
            step = damped(delta)
        x, f = step
        norm = float(np.max(np.abs(f)))
        trace.append(norm)
        iterations += 1
    if not np.all(np.abs(f) <= stop):
        raise NewtonFailure(f"no convergence after {iterations} iterations", trace)

    rho, theta, velocity, _ = layout.unpack(x)
    # owned copies: unpack's fields are views of x
    fields = (a.copy() for a in (rho, theta, *velocity))
    state = StationaryState(grid, 0.0, *fields, iterations=iterations, floor_steps=floor_steps)
    if isinstance(initial_guess, StationaryState):
        state.counters.update(initial_guess.counters)
    state.counters.update(
        stationary_residual_trace=trace,
        stationary_jacobian_colours=0 if jacobian is None else jacobian.colours,
        stationary_jacobians=jacobians,
        stationary_residual_calls=calls + (0 if jacobian is None else jacobian.probe_calls),
        stationary_refinements=0 if jacobian is None else jacobian.refinements,
        stationary_lu_fill=0 if jacobian is None else jacobian.fill,
    )
    return _finish(config, state, _norms(parts))

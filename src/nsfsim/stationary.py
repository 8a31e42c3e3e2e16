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
share no equation being perturbed together.  An iteration evaluates one
perturbed state per colour plus one for the multiplier, a count fixed by
the stencils and not by the grid size (32 at 24x16 and 64x48), and all of
them are the rows of one stacked residual call.  The mass row is linear and
set exactly.  The whole bordered matrix is factored with ``splu``; the core
block alone is singular because the continuity rows telescope.  Its columns
go in a nested-dissection order of the grid locations (a 1-D column keeps
its z order), which SuperLU takes as given.  The factors are kept: later
iterations first try a chord step with them (Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, sec. 5.4), and a Jacobian is built
and factored afresh only when that step fails to cut the residual tenfold.

The pipeline's hydrostatic density is a Newton solve too: the face balances
and the mass row in the cell densities form a bidiagonal system bordered by
one row, solved in O(n) per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from . import operators as ops
from . import probing, thermo
from .grids import FluidState, Grid1D, Grid2D, VelocityComponents

__all__ = [
    "ProblemConfig",
    "StationaryState",
    "NewtonFailure",
    "ShootingFailure",
    "static_uniform",
    "solve_heat_profile_1d",
    "heat_profile_function",
    "solve_hydrostatic_density",
    "solve_stationary_newton",
    "solve_rb_pipeline",
]


class NewtonFailure(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message + f" (residual trace: {trace})")
        self.trace = trace


class ShootingFailure(RuntimeError):
    pass


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


@dataclass
class StationaryState(VelocityComponents):
    """Discrete stationary fields with residual and proximity bookkeeping."""

    grid: object
    rho: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    w: np.ndarray = None
    residual_norms: dict = field(default_factory=dict)
    mass_error: float = 0.0
    proximity: dict = field(default_factory=dict)
    iterations: int = 0
    # Newton bookkeeping: residual max-norm per iterate, colours of the
    # Jacobian, Jacobians built and factored (``jacobians``), residual calls
    # (pattern probe included), the Armijo steps accepted at the floor
    # without a decrease, and the nonzeros SuperLU stores for L and U of the
    # last factorisation (``SuperLU.nnz``)
    residual_trace: list = field(default_factory=list)
    jacobian_colours: int = 0
    jacobians: int = 0
    residual_calls: int = 0
    floor_steps: int = 0
    lu_fill: int = 0
    hydrostatic_halvings: int = 0  # the pipeline's (or guess's) hydrostatic positivity halvings

    def as_fluid_state(self, t: float = 0.0) -> FluidState:
        return FluidState(
            grid=self.grid,
            t=t,
            rho=self.rho.copy(),
            theta=self.theta.copy(),
            u=self.u.copy(),
            w=None if self.w is None else self.w.copy(),
        )

    def max_velocity(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.velocity)


def _steady_residual(grid, gas, transport, G, rho, theta, vel):
    """(continuity, *momentum, energy) from ``ops.steady_residual_1d`` or
    ``_2d``, called through the module on the velocity components."""
    residual = ops.steady_residual_1d if grid.dimension == 1 else ops.steady_residual_2d
    return residual(grid, gas, transport, G, rho, theta, *vel)


def _residual_norms(state, gas, transport, G):
    grid, rho, theta = state.grid, state.rho, state.theta
    cont, *mom, energy = _steady_residual(grid, gas, transport, G, rho, theta, state.velocity)
    return {
        "continuity": float(np.max(np.abs(cont))),
        "momentum": max((float(np.max(np.abs(m))) for m in mom if m.size), default=0.0),
        "energy": float(np.max(np.abs(energy))),
    }


def _proximity(config: ProblemConfig, state):
    rho_flat = config.m0 / config.grid.volume
    return {
        "rho_dev": float(np.max(np.abs(state.rho - rho_flat))),
        "theta_dev": float(np.max(np.abs(state.theta - config.theta_bar))),
        "u_dev": state.max_velocity(),
        "epsilon": config.epsilon_report,
    }


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
    theta_b = float(walls[0])
    rho_flat = config.m0 / grid.volume
    if grid.dimension == 1:
        rho = np.full(grid.n, rho_flat)
        theta = np.full(grid.n, theta_b)
        u = np.zeros(grid.n + 1)
        w = None
    else:
        rho = np.full((grid.nx, grid.nz), rho_flat)
        theta = np.full((grid.nx, grid.nz), theta_b)
        u = np.zeros((grid.nx, grid.nz))
        w = np.zeros((grid.nx, grid.nz + 1))
    state = StationaryState(grid=grid, rho=rho, theta=theta, u=u, w=w)
    if gas is not None and transport is not None:
        state.residual_norms = _residual_norms(state, gas, transport, None)
    state.mass_error = abs(float(np.sum(rho) * grid.cell_volume) - config.m0)
    state.proximity = _proximity(config, state)
    return state


# ---------------------------------------------------------------------------
# Kirchhoff heat profile
# ---------------------------------------------------------------------------


def heat_profile_function(transport, theta_bottom, theta_top):
    """Continuous stationary conduction profile and its derivative.

    K(theta(x)) is linear in x between the plate values, so
    theta(x) = K_inv((1-x) K(Theta_B) + x K(Theta_U)) and
    theta'(x) = (K(Theta_U) - K(Theta_B)) / kappa(theta(x)).
    """
    if theta_bottom <= 0.0 or theta_top <= 0.0:
        raise ValueError("plate temperatures must be positive")
    kb = float(thermo.conductivity_primitive(transport, np.float64(theta_bottom)))
    kt = float(thermo.conductivity_primitive(transport, np.float64(theta_top)))
    slope = kt - kb

    def theta_of_x(x):
        x = np.asarray(x, dtype=float)
        return thermo.invert_conductivity_primitive(transport, kb + slope * x)

    def dtheta_dx(x):
        return slope / thermo._conductivity_raw(transport, theta_of_x(x))

    return theta_of_x, dtheta_dx


def solve_heat_profile_1d(transport, theta_bottom, theta_top, grid: Grid1D) -> np.ndarray:
    """Stationary conduction temperature at cell centers.

    Because the discrete heat flux is a K-difference, this profile carries an
    exactly constant flux cell to cell (to inversion tolerance), wall
    half-cells included.
    """
    theta_of_x, _ = heat_profile_function(transport, theta_bottom, theta_top)
    return theta_of_x(grid.centers())


# ---------------------------------------------------------------------------
# Hydrostatic density
# ---------------------------------------------------------------------------


_HYDROSTATIC_MAXITER = 100
_HYDROSTATIC_MASS_TOL = 1.0e-12


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded`` for ``l_and_u`` = (1, 1) only, without
    its input checks: LAPACK ``dgtsv``, the routine it calls, on the bands."""
    if l_and_u != (1, 1):
        raise ValueError("only tridiagonal (1, 1) systems are supported")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise LinAlgError(f"singular tridiagonal matrix: zero pivot at row {info}")
    return x


def _hydrostatic_newton(gas, theta, dG, dx, m0):
    """Damped Newton on the n-1 face balances and the mass row.

    The unknowns are rho at every cell.  Face i reads
    p(rho_{i+1}, theta_{i+1}) - p(rho_i, theta_i) - 0.5 (rho_i + rho_{i+1}) dG_i,
    so the Jacobian is bidiagonal and bordered by the mass row dx * (1, ..., 1).
    Taking rho_0 as the border unknown leaves a lower-bidiagonal block in
    rho_1..rho_{n-1}; it is solved for the residual and for the rho_0 column,
    and the mass row then fixes the rho_0 increment: O(n) per iteration.
    """
    n = theta.size
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
            y = solve_banded((1, 1), bands, np.column_stack([-face, border]))
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


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, imported on first use: only the rk4
    shooting needs it, and the import costs every other run."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


def solve_hydrostatic_density(
    gas,
    theta_s,
    g,
    m0: float,
    grid: Grid1D,
    mode: str = "discrete",
    theta_profile=None,
    return_details: bool = False,
):
    """Density in hydrostatic balance with the given temperature field.

    mode="discrete" (default): zeros the stepper's face balance
    p_{i+1} - p_i = 0.5 (rho_i + rho_{i+1}) (G_{i+1} - G_i) at all n-1 faces
    together with the cell-sum mass sum(rho) dx = m0, by one damped Newton
    solve of that bordered bidiagonal system (O(n) per iteration).  ``g`` is
    a scalar gravity (G = g x) or the potential at the cell centers.

    mode="rk4": fourth-order integration of the pointwise balance
    drho/dx = (rho G' - (dp/dtheta) theta') / (dp/drho) with the continuous
    conduction profile ``theta_profile`` = (theta(x), theta'(x)); the total
    mass rides along as an auxiliary quadrature state, and ``brentq`` shoots
    on rho(0) until it matches m0.
    """
    if mode == "discrete":
        theta_s = np.asarray(theta_s, dtype=float)
        dG = np.full(grid.n - 1, float(g) * grid.dx) if np.ndim(g) == 0 else np.diff(np.asarray(g))
        rho, halvings = _hydrostatic_newton(gas, theta_s, dG, grid.dx, m0)
        if return_details:
            return rho, {"rho0": float(rho[0]), "mass": float(np.sum(rho) * grid.dx), "halvings": halvings}
        return rho

    if mode != "rk4":
        raise ValueError("mode must be 'discrete' or 'rk4'")
    if theta_profile is None:
        raise ValueError("rk4 mode needs the continuous theta profile")
    theta_of_x, dtheta_dx = theta_profile
    gval = float(g)
    rho_flat = m0 / grid.volume

    # a half step to the first center, full steps center to center, a half
    # step to the top wall; the profile is evaluated once at every RK node
    sizes = np.full(grid.n + 1, grid.dx)
    sizes[[0, -1]] *= 0.5
    nodes = np.append(0.0, grid.centers())[:, None] + np.outer(sizes, [0.0, 0.5, 1.0])
    theta_nodes = theta_of_x(nodes).tolist()
    dtheta_nodes = dtheta_dx(nodes).tolist()

    def rhs(y, th, dth):
        rho_v = y[0]
        dp_drho, dp_dtheta = thermo.pressure_partials(gas, np.float64(rho_v), np.float64(th))
        return np.array([(rho_v * gval - float(dp_dtheta) * dth) / float(dp_drho), rho_v])

    def rk4_path(rho0):
        y = np.array([rho0, 0.0])
        values = np.empty(grid.n)
        for k, h in enumerate(sizes.tolist()):
            th, dth = theta_nodes[k], dtheta_nodes[k]
            k1 = rhs(y, th[0], dth[0])
            k2 = rhs(y + 0.5 * h * k1, th[1], dth[1])
            k3 = rhs(y + 0.5 * h * k2, th[1], dth[1])
            k4 = rhs(y + h * k3, th[2], dth[2])
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k < grid.n:
                values[k] = y[0]
        return values, y[1]

    def mass_of(rho0):
        return rk4_path(rho0)[1] - m0

    lo, hi = 0.5 * rho_flat, 2.0 * rho_flat
    flo, fhi = mass_of(lo), mass_of(hi)
    for _ in range(60):
        if flo < 0.0 < fhi:
            break
        if flo >= 0.0:
            lo *= 0.5
            flo = mass_of(lo)
        if fhi <= 0.0:
            hi *= 2.0
            fhi = mass_of(hi)
    else:
        raise ShootingFailure(f"mass bracket failed on [{lo}, {hi}]")
    rho0 = brentq(mass_of, lo, hi, xtol=1.0e-15, rtol=8.9e-16, maxiter=200)
    rho, mass = rk4_path(rho0)
    if np.any(rho <= 0.0):
        raise ShootingFailure("nonpositive density in the integrated profile")
    if return_details:
        return rho, {"rho0": rho0, "mass": mass}
    return rho


def solve_rb_pipeline(config: ProblemConfig, gas, transport) -> StationaryState:
    """Kirchhoff conduction + hydrostatic balance for vertical-gravity data.

    1-D directly; in 2-D (constant plates, vertical gravity) the column
    solution broadcasts across the periodic direction.
    """
    grid = config.grid
    if grid.dimension == 1:
        col = grid
    else:
        tb, tt = grid.wall_theta("bottom"), grid.wall_theta("top")
        if float(np.ptp(tb)) != 0.0 or float(np.ptp(tt)) != 0.0:
            raise ValueError("pipeline needs laterally constant plate temperatures")
        if config.g is not None and np.ndim(config.g) and float(config.g[0]) != 0.0:
            raise ValueError("pipeline needs vertical gravity")
        col = Grid1D(n=grid.nz, theta_bottom=float(tb[0]), theta_top=float(tt[0]), length=grid.lz)
    gval = 0.0 if config.g is None else (float(config.g[-1]) if np.ndim(config.g) else float(config.g))
    theta_col = solve_heat_profile_1d(transport, col.theta_bottom, col.theta_top, col)
    m0_col = config.m0 / (1.0 if grid.dimension == 1 else grid.lx)
    rho_col, details = solve_hydrostatic_density(gas, theta_col, gval, m0_col, col, return_details=True)
    if grid.dimension == 1:
        rho, theta = rho_col, theta_col
        u, w = np.zeros(grid.n + 1), None
    else:
        rho = np.tile(rho_col, (grid.nx, 1))
        theta = np.tile(theta_col, (grid.nx, 1))
        u = np.zeros((grid.nx, grid.nz))
        w = np.zeros((grid.nx, grid.nz + 1))
    G = config.potential_field()
    state = StationaryState(grid=grid, rho=rho, theta=theta, u=u, w=w, hydrostatic_halvings=details["halvings"])
    state.residual_norms = _residual_norms(state, gas, transport, G)
    state.mass_error = abs(float(np.sum(rho) * grid.cell_volume) - config.m0)
    state.proximity = _proximity(config, state)
    return state


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
        self.nx, self.nz = (1, grid.n) if grid.dimension == 1 else (grid.nx, grid.nz)
        self.n_cells = self.nx * self.nz
        cells = np.indices((self.nx, self.nz)).reshape(2, -1)
        faces = np.indices((self.nx, self.nz - 1)).reshape(2, -1) + np.array([[0], [1]])
        velocity = [faces] if grid.dimension == 1 else [cells, faces]
        self.unknowns, self.equations = (
            np.concatenate([np.vstack([np.full(b.shape[1], f), b]) for f, b in enumerate(blocks)], axis=1)
            for blocks in ([cells, cells, *velocity], [cells, *velocity, cells])
        )
        self.size = self.equations.shape[1] + 1

    def pack(self, rho, theta, u, w, lam):
        one_d = self.grid.dimension == 1
        wall_normal = np.reshape(u if one_d else w, (self.nx, self.nz + 1))[:, 1:-1]
        fields = [rho, theta] + ([] if one_d else [u]) + [wall_normal]
        return np.concatenate([np.ravel(a) for a in fields] + [[lam]])

    def unpack(self, x):
        """(rho, theta, u, w, lam) in the grid's shapes; w is None in 1-D.

        ``x`` is one packed vector (size,) or a stack (K, size); the fields
        of a stack carry K in front and lam has shape (K,).
        """
        nc, nx, nz = self.n_cells, self.nx, self.nz
        lead = x.shape[:-1]
        shape = lead + ((nz,) if self.grid.dimension == 1 else (nx, nz))
        rho = x[..., :nc].reshape(shape)
        theta = x[..., nc : 2 * nc].reshape(shape)
        wall_normal = np.zeros(lead + (nx, nz + 1))
        wall_normal[..., 1:-1] = x[..., -1 - nx * (nz - 1) : -1].reshape(lead + (nx, nz - 1))
        if self.grid.dimension == 1:
            return rho, theta, wall_normal[..., 0, :], None, x[..., -1]
        return rho, theta, x[..., 2 * nc : 3 * nc].reshape(shape), wall_normal, x[..., -1]


def _residual(layout, x, gas, transport, G, m0):
    """Packed residual of one state (size,) or, row by row, of a stack
    (K, size) in one stencil call: lam shifts each state's continuity rows
    and the mass row sums each state's densities."""
    rho, theta, u, w, lam = layout.unpack(x)
    grid = layout.grid
    vel = (u,) if w is None else (u, w)
    cont, *rest = _steady_residual(grid, gas, transport, G, rho, theta, vel)
    mass = np.sum(x[..., : layout.n_cells], axis=-1, keepdims=True) * grid.cell_volume - m0
    rows = [r.reshape(x.shape[:-1] + (-1,)) for r in (cont, *rest)]
    rows[0] = rows[0] + lam[..., None]
    return np.concatenate([*rows, mass], axis=-1)


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


class _ColouredJacobian:
    """Bordered finite-difference Jacobian of ``_residual``: a
    ``probing.Plan`` of one offset table (``_probe_table``) plus its border.
    Every entry equals its one-column forward difference bit for bit.  The
    lambda column is one more probe and the linear mass row is set exactly:
    one stacked residual call of (colours + 1, size) states per Jacobian.

    ``rank[j]``, the column of unknown j, puts the locations in
    nested-dissection order (``_dissection_ranks``, its bands as wide as the
    offsets' largest |di| or |dk|), or in z order on a column, whose
    Jacobian is a bordered band that dissection would only fill further.
    """

    def __init__(self, layout):
        self.layout = layout
        table, self.probe_calls = _probe_table(layout.grid.dimension)
        rows, cols = probing.pattern(table, layout.unknowns, layout.equations, layout.nx)
        colour = probing.colouring(table, layout.unknowns, layout.nx)
        self.colours = int(colour.max()) + 1
        _, i, k = layout.unknowns
        reach = int(np.max(np.abs(table[:, 2:]), initial=0))
        location = k if layout.grid.dimension == 1 else _dissection_ranks(layout.nx, layout.nz, reach)[i, k]
        # the unknowns of a location keep their field order, lambda goes last
        n = layout.size - 1
        self.rank = np.append(np.argsort(np.argsort(location, kind="stable")), n)
        # the border: the lambda column, which one more probe gives, and the mass row
        rows = np.concatenate([rows, np.arange(n), np.full(layout.n_cells, n)])
        cols = np.concatenate([cols, np.full(n, n), np.arange(layout.n_cells)])
        self.plan = probing.Plan(rows, cols, np.append(colour, self.colours), layout.size, column=self.rank)
        self.mass = np.flatnonzero(self.plan.indices == n)

    def factor(self, fun, x, f):
        """SuperLU factors of the Jacobian at x in its column order (partial
        row pivoting kept), and the solve b -> J^-1 b in the packed order.
        ``magnitudes`` becomes |J| |x|, row by row: the size of the terms
        each residual row sums, to first order."""
        jac = self(fun, x, f)
        self.magnitudes = abs(jac) @ np.abs(x)[np.argsort(self.rank)]
        lu = splu(jac, permc_spec="NATURAL")
        return lu, lambda b: lu.solve(b)[self.rank]

    def __call__(self, fun, x, f):
        """The Jacobian at x in its column order, without its exact zeros."""
        h = 1.0e-7 * np.maximum(1.0, np.abs(x))
        data = (fun(self.plan.probes(x, h)) - f).ravel()[self.plan.gather] / h[self.plan.cols]
        data[self.mass] = self.layout.grid.cell_volume
        jac = self.plan.matrix(data)
        jac.eliminate_zeros()
        return jac


# a chord step is taken only if it cuts the residual max-norm this much
_CHORD_CUT = 0.1
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
    initial_guess: StationaryState = None,
    tol: float = 1.0e-9,
    max_iter: int = 50,
) -> StationaryState:
    """Damped Newton on (continuity, momentum, energy, mass) with a scalar
    multiplier shifting the density level.

    The Jacobian is a coloured sparse finite difference (one stacked
    residual call per Jacobian, a row per column colour) and the bordered
    system is factored with ``splu`` in the column order of
    ``_ColouredJacobian.factor`` (``permc_spec="NATURAL"``, partial row
    pivoting kept); every solve, damped step and chord step alike, maps the
    result back with one index.  ``lu_fill`` is the stored nonzeros of the
    last factors.  The factors are reused: every
    iteration after the first tries the chord step x - J0^-1 f(x), J0 the
    last Jacobian factored, and takes it only if it keeps (rho, theta)
    positive and cuts the residual max-norm at least tenfold.  Otherwise the
    trial is dropped (it never enters the trace), and the Jacobian is rebuilt
    at x, factored afresh and used for a damped step.  ``jacobians`` counts the
    factorisations and ``residual_calls`` the evaluated states, so a stack
    of K rows counts K.
    The damped step is Armijo backtracking on the residual 2-norm with floor
    step 2^-20: below it a step is taken without a decrease, and
    ``floor_steps`` counts these.
    Positivity of (rho, theta) is maintained by shrinking the step, and a
    trial point whose residual is not finite is shrunk from as well.  The
    iteration stops once every residual row is within ``tol`` or, where that
    is higher, its rounding floor ``_ROUNDING_FLOOR * (|J| |x|)_i`` from the
    last Jacobian factored.  Raises
    ``NewtonFailure`` with the residual trace on stagnation, a singular
    Jacobian or a final norm that is not finite; on success the trace is the
    state's ``residual_trace``.
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
        guess = initial_guess
        x = layout.pack(guess.rho, guess.theta, guess.u, guess.w, 0.0)

    calls = 0

    def fun(xv):
        nonlocal calls
        calls += xv.size // layout.size
        return _residual(layout, xv, gas, transport, G, m0)

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
    lu = solve = None
    # NaN compares false: a residual that is not finite never converges
    while not np.all(np.abs(f) <= stop) and iterations < max_iter:
        step = None if solve is None else chord(solve)
        if step is None:
            try:
                lu, solve = jacobian.factor(fun, x, f)
                delta = solve(-f)
            except RuntimeError as exc:
                raise NewtonFailure(f"singular Jacobian: {exc}", trace) from exc
            jacobians += 1
            stop = np.maximum(tol, _ROUNDING_FLOOR * jacobian.magnitudes)
            step = damped(delta)
        x, f = step
        norm = float(np.max(np.abs(f)))
        trace.append(norm)
        iterations += 1
    if not np.all(np.abs(f) <= stop):
        raise NewtonFailure(f"no convergence after {iterations} iterations", trace)

    rho, theta, u, w, _ = layout.unpack(x)
    state = StationaryState(grid=grid, rho=rho, theta=theta, u=u, w=w, iterations=iterations)
    state.residual_trace, state.floor_steps, state.jacobians = trace, floor_steps, jacobians
    state.jacobian_colours = 0 if jacobian is None else jacobian.colours
    state.lu_fill = 0 if lu is None else lu.nnz
    state.hydrostatic_halvings = getattr(initial_guess, "hydrostatic_halvings", 0)
    state.residual_calls = calls + (0 if jacobian is None else jacobian.probe_calls)
    state.residual_norms = _residual_norms(state, gas, transport, G)
    state.mass_error = abs(float(np.sum(rho) * grid.cell_volume) - m0)
    state.proximity = _proximity(config, state)
    return state

"""Stationary solver tests: closed-form static states, the Kirchhoff
conduction profile with its constant discrete flux, hydrostatic balance in
the stepper's discrete form against a continuum oracle, the coupled Newton
solve and its coloured sparse Jacobian."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nsfsim import experiment as ex
from nsfsim import operators as ops
from nsfsim import probing, stationary
from nsfsim import simulator as sim
from nsfsim.grids import FluidState, Grid1D, Grid2D
from nsfsim.stationary import (
    _ColouredJacobian,
    _Layout,
    _residual,
    NewtonFailure,
    ProblemConfig,
    ShootingFailure,
    solve_heat_profile_1d,
    solve_hydrostatic_density,
    solve_rb_pipeline,
    solve_stationary_newton,
    static_uniform,
)
from nsfsim.thermo import (
    GasModel,
    TransportModel,
    conductivity_primitive,
    invert_conductivity_primitive,
    pressure,
    pressure_partials,
)

GAS = GasModel()
TR = TransportModel()


# ---------------------------------------------------------------------------
# Static uniform
# ---------------------------------------------------------------------------


def test_static_uniform_values():
    grid = Grid1D(n=32, theta_bottom=1.0, theta_top=1.0)
    state = static_uniform(ProblemConfig(grid=grid, m0=2.0), GAS, TR)
    assert np.all(state.rho == 2.0)
    assert np.all(state.theta == 1.0)
    assert np.all(state.u == 0.0)
    assert max(state.residual_norms.values()) == 0.0

    grid = Grid1D(n=32, theta_bottom=0.5, theta_top=0.5)
    state = static_uniform(ProblemConfig(grid=grid, m0=1.0), GAS, TR)
    assert np.all(state.rho == 1.0)
    assert np.all(state.theta == 0.5)


def test_static_uniform_rejects_nonconstant_data():
    grid = Grid1D(n=32, theta_bottom=1.1, theta_top=1.0)
    with pytest.raises(ValueError):
        static_uniform(ProblemConfig(grid=grid, m0=1.0))
    grid = Grid1D(n=32)
    with pytest.raises(ValueError):
        static_uniform(ProblemConfig(grid=grid, m0=1.0, g=0.3))


STATE_GRIDS = {
    "column": lambda plates: Grid1D(n=16, theta_bottom=plates[0], theta_top=plates[1]),
    "slab": lambda plates: Grid2D(nx=8, nz=6, theta_bottom=plates[0], theta_top=plates[1]),
}


def stationary_states(kind):
    """The state of each of the three solvers on a grid of ``kind``: the
    static one on equal plates without gravity, the pipeline's and Newton's
    on heated plates with vertical gravity."""
    flat, heated = STATE_GRIDS[kind]((1.0, 1.0)), STATE_GRIDS[kind]((1.1, 1.0))
    g = 0.05 if kind == "column" else (0.0, 0.05)
    problem = ProblemConfig(grid=heated, m0=heated.volume, g=g)
    return [
        static_uniform(ProblemConfig(grid=flat, m0=flat.volume), GAS, TR),
        solve_rb_pipeline(problem, GAS, TR),
        solve_stationary_newton(problem, GAS, TR),
    ]


@pytest.mark.parametrize("kind", sorted(STATE_GRIDS))
def test_every_solver_returns_a_fluid_state_of_owned_fields(kind):
    for state in stationary_states(kind):
        assert isinstance(state, FluidState) and state.t == 0.0
        for a in (state.rho, state.theta, *state.velocity):
            assert a.flags.owndata and a.flags.writeable
        plain = state.copy()
        assert type(plain) is FluidState
        fields = zip((plain.rho, plain.theta, *plain.velocity), (state.rho, state.theta, *state.velocity))
        assert all(np.array_equal(a, b) for a, b in fields)


@pytest.mark.parametrize("kind", sorted(STATE_GRIDS))
def test_a_field_of_the_wrong_shape_is_rejected(kind):
    state = stationary_states(kind)[0]
    rho, theta, *velocity = state.rho, state.theta, *state.velocity
    with pytest.raises(ValueError):
        FluidState(state.grid, 0.0, rho[..., :-1], theta, *velocity)
    with pytest.raises(ValueError):
        stationary.StationaryState(state.grid, 0.0, rho, theta[..., 1:], *velocity)
    with pytest.raises(ValueError):
        FluidState(state.grid, 0.0, rho, theta, *velocity[:-1], velocity[-1][..., :-1])
    # a component too many on the column, the wall-normal one missing on the slab
    components = (*velocity, velocity[-1]) if kind == "column" else velocity[:-1]
    with pytest.raises(ValueError):
        FluidState(state.grid, 0.0, rho, theta, *components)


@pytest.mark.parametrize("kind", sorted(STATE_GRIDS))
def test_stationary_snapshot_round_trip(kind, tmp_path):
    for k, state in enumerate(stationary_states(kind)):
        ex.save_snapshot(tmp_path / f"{k}.npz", state)
        loaded = ex.load_snapshot(tmp_path / f"{k}.npz")
        assert loaded.t == state.t
        fields = zip((loaded.rho, loaded.theta, *loaded.velocity), (state.rho, state.theta, *state.velocity))
        assert len(loaded.velocity) == len(state.velocity) and all(np.array_equal(a, b) for a, b in fields)
        assert loaded.grid == state.grid


# ---------------------------------------------------------------------------
# Kirchhoff heat profile
# ---------------------------------------------------------------------------


def test_heat_profile_equal_plates_is_constant():
    grid = Grid1D(n=48, theta_bottom=1.0, theta_top=1.0)
    theta = solve_heat_profile_1d(TR, grid)
    assert np.max(np.abs(theta - 1.0)) < 1e-14


def test_heat_profile_midpoint_against_bisection_oracle():
    # independent oracle: bisection on K(t) = (K(1.1)+K(1.0))/2 with the
    # primitive evaluated directly; grid chosen so a center sits at x = 1/2
    grid = Grid1D(n=65, theta_bottom=1.1, theta_top=1.0)
    theta = solve_heat_profile_1d(TR, grid)

    def K(t):
        return t + t**8 / 8.0

    target = 0.5 * (K(1.1) + K(1.0))
    lo, hi = 1.0, 1.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if K(mid) < target:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert theta[32] == pytest.approx(oracle, abs=1e-13)
    # frozen regression anchor for the midpoint plate problem
    assert oracle == pytest.approx(1.0548526819872661, abs=1e-12)


def test_heat_profile_discrete_flux_constant():
    grid = Grid1D(n=64, theta_bottom=1.1, theta_top=1.0)
    theta = solve_heat_profile_1d(TR, grid)
    (flux,) = ops.kirchhoff_fluxes_nd(grid, TR, theta)
    assert float(np.max(flux) - np.min(flux)) < 1e-10


def test_heat_profile_matches_primitive_linearity():
    grid = Grid1D(n=40, theta_bottom=1.3, theta_top=0.9)
    theta = solve_heat_profile_1d(TR, grid)
    K = conductivity_primitive(TR, theta)
    x = grid.centers()
    fit = np.polyfit(x, K, 1)
    assert np.max(np.abs(np.polyval(fit, x) - K)) < 1e-12


def test_pipeline_profile_spans_the_column_height():
    # the conduction profile runs from plate to plate over the column's own
    # length, on a half-length column and on a slab twice as tall
    cases = [
        (Grid1D(n=16, theta_bottom=1.1, theta_top=1.0, length=0.5), 0.01),
        (Grid2D(nx=4, nz=16, theta_bottom=1.1, theta_top=1.0, lz=2.0), (0.0, 0.01)),
    ]
    for grid, g in cases:
        state = solve_rb_pipeline(ProblemConfig(grid=grid, m0=1.0, g=g), GAS, TR)
        assert max(state.residual_norms.values()) < 1e-10, state.residual_norms


# ---------------------------------------------------------------------------
# Hydrostatic density
# ---------------------------------------------------------------------------


def test_hydrostatic_zero_gravity_uniform():
    grid = Grid1D(n=50)
    rho, _ = solve_hydrostatic_density(GAS, np.ones(50), 0.0, 1.0, grid)
    assert np.max(np.abs(rho - 1.0)) < 1e-13


def test_hydrostatic_discrete_monotone_and_mass():
    grid = Grid1D(n=64)
    rho, _ = solve_hydrostatic_density(GAS, np.ones(64), 0.01, 1.0, grid)
    assert np.all(np.diff(rho) > 0.0)  # denser toward increasing potential
    assert abs(np.sum(rho) * grid.dx - 1.0) < 1e-12
    assert np.all(rho > 0.0)


def test_hydrostatic_discrete_zeroes_face_balance():
    grid = Grid1D(n=64)
    theta = solve_heat_profile_1d(TR, Grid1D(n=64, theta_bottom=1.05, theta_top=1.0))
    rho, _ = solve_hydrostatic_density(GAS, theta, 0.01, 1.0, grid)
    p = pressure(GAS, rho, theta)
    face_balance = np.diff(p) - 0.5 * (rho[:-1] + rho[1:]) * 0.01 * grid.dx
    assert np.max(np.abs(face_balance)) < 1e-13


def _march_faces(theta, g, dx, rho0):
    # oracle: solve the face balances one at a time, bottom to top, each by a
    # scalar Newton iteration on the single unknown rho_{i+1}
    rho = [rho0]
    for i in range(theta.size - 1):
        target = float(pressure(GAS, rho[i], theta[i])) + 0.5 * rho[i] * g * dx
        r = rho[i]
        for _ in range(50):
            f = float(pressure(GAS, r, theta[i + 1])) - 0.5 * r * g * dx - target
            dp_drho, _ = pressure_partials(GAS, r, theta[i + 1])
            step = f / (float(dp_drho) - 0.5 * g * dx)
            r -= step
            if abs(step) <= 1e-15 * r:
                break
        rho.append(r)
    return np.array(rho)


@pytest.mark.parametrize("n", [64, 1024])
def test_hydrostatic_discrete_matches_scalar_march(n):
    grid = Grid1D(n=n, theta_bottom=1.05, theta_top=1.0)
    theta = solve_heat_profile_1d(TR, grid)
    rho, _ = solve_hydrostatic_density(GAS, theta, 0.01, 1.0, grid)
    assert np.sum(rho) * grid.dx == pytest.approx(1.0, abs=1e-12)
    oracle = _march_faces(theta, 0.01, grid.dx, rho[0])
    assert np.max(np.abs(rho - oracle) / oracle) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(3, 256),
    theta_bottom=hst.floats(0.8, 1.25),
    theta_top=hst.floats(0.8, 1.25),
    g=hst.floats(-0.5, 0.5),
)
def test_hydrostatic_discrete_balance_mass_positivity(n, theta_bottom, theta_top, g):
    grid = Grid1D(n=n, theta_bottom=theta_bottom, theta_top=theta_top)
    theta = solve_heat_profile_1d(TR, grid)
    rho, _ = solve_hydrostatic_density(GAS, theta, g, 1.0, grid)
    p = pressure(GAS, rho, theta)
    face_balance = np.diff(p) - 0.5 * (rho[:-1] + rho[1:]) * g * grid.dx
    assert np.all(np.abs(face_balance) <= 1e-13 * np.maximum(1.0, np.abs(p[:-1])))
    assert abs(np.sum(rho) * grid.dx - 1.0) <= 1e-12
    assert np.all(rho > 0.0)


def _continuum_hydrostatic(theta_bottom, theta_top, g, m0):
    # oracle: the pointwise balance drho/dx = (rho g - (dp/dtheta) theta') /
    # (dp/drho) along the continuous Kirchhoff profile on (0, 1), the mass
    # riding along as a second state; brentq shoots on rho(0) until the mass
    # is m0, and the last shot's DOP853 dense output gives rho(x)
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    kb, kt = (float(conductivity_primitive(TR, t)) for t in (theta_bottom, theta_top))

    def theta_of(x):
        return invert_conductivity_primitive(TR, kb + (kt - kb) * np.asarray(x, dtype=float))

    def rhs(x, y):
        theta = theta_of(x)
        dtheta = (kt - kb) / (TR.kappa0 * (1.0 + theta**TR.beta))  # K' = kappa
        dp_drho, dp_dtheta = (float(d) for d in pressure_partials(GAS, y[0], theta))
        return [(y[0] * g - dp_dtheta * dtheta) / dp_drho, y[0]]

    def shot(rho0):
        return solve_ivp(rhs, (0.0, 1.0), [rho0, 0.0], method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)

    rho0 = brentq(lambda r: shot(r).y[1, -1] - m0, 0.5 * m0, 2.0 * m0, xtol=1e-15)
    solution = shot(rho0).sol
    return theta_of, lambda x: solution(x)[0]


def test_hydrostatic_face_residual_second_order():
    # the two-point pressure difference balances the face-averaged weight to
    # O(h^2) on the pointwise (continuum) solution; note the temperature-
    # gradient contribution is already inside the pressure difference
    theta_of, rho_of = _continuum_hydrostatic(1.2, 1.0, 0.2, 1.0)
    errs = []
    for n in (32, 64, 128):
        x = Grid1D(n=n, theta_bottom=1.2, theta_top=1.0).centers()
        rho = rho_of(x)
        p = pressure(GAS, rho, theta_of(x))
        resid = np.diff(p) / (1.0 / n) - 0.5 * (rho[:-1] + rho[1:]) * 0.2
        errs.append(float(np.max(np.abs(resid))))
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(2.0)
    assert np.all(np.abs(orders - 2.0) < 0.3)


def test_hydrostatic_newton_counts_its_positivity_halvings():
    # strong gravity on an isothermal column: Newton's first steps would
    # take the top densities negative and are halved, twice here; the solve
    # still balances every face, and the pipeline and a Newton state solved
    # from its guess report the count
    grid = Grid1D(n=32)
    theta = np.ones(32)
    rho, halvings = solve_hydrostatic_density(GAS, theta, 30.0, 1.0, grid)
    assert halvings == 2
    p = pressure(GAS, rho, theta)
    face_balance = np.diff(p) - 0.5 * (rho[:-1] + rho[1:]) * 30.0 * grid.dx
    assert np.all(np.abs(face_balance) <= 1e-9 * np.maximum(1.0, np.abs(p[:-1])))
    assert abs(np.sum(rho) * grid.dx - 1.0) <= 1e-12
    assert solve_hydrostatic_density(GAS, theta, 0.01, 1.0, grid)[1] == 0
    config = ProblemConfig(grid=grid, m0=1.0, g=30.0)
    pipeline = solve_rb_pipeline(config, GAS, TR)
    assert pipeline.counters["hydrostatic_halvings"] == 2
    newton = solve_stationary_newton(config, GAS, TR, initial_guess=pipeline)
    assert newton.counters["hydrostatic_halvings"] == 2
    mild_pipeline = solve_rb_pipeline(ProblemConfig(grid=grid, m0=1.0, g=0.01), GAS, TR)
    assert mild_pipeline.counters["hydrostatic_halvings"] == 0


def test_hydrostatic_shooting_failure_outside_regime():
    # violently negative potential gradient drives the pressure toward the
    # vacuum floor: reported as a shooting failure, not silent garbage
    grid = Grid1D(n=32)
    with pytest.raises(ShootingFailure):
        solve_hydrostatic_density(GAS, np.ones(32), -1.0e4, 1.0, grid)


# ---------------------------------------------------------------------------
# Coupled Newton
# ---------------------------------------------------------------------------


def test_newton_returns_static_fixed_point_immediately():
    grid = Grid1D(n=32, theta_bottom=1.0, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=1.0)
    state = solve_stationary_newton(config, GAS, TR)
    assert state.iterations <= 1
    assert np.max(np.abs(state.rho - 1.0)) < 1e-12
    assert np.max(np.abs(state.theta - 1.0)) < 1e-12
    assert np.max(np.abs(state.u)) < 1e-12


def test_newton_matches_pipeline_1d():
    grid = Grid1D(n=128, theta_bottom=1.05, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=1.0, g=0.01)
    pipe = solve_rb_pipeline(config, GAS, TR)
    newton = solve_stationary_newton(config, GAS, TR)
    assert np.max(np.abs(newton.rho - pipe.rho)) < 1e-8
    assert np.max(np.abs(newton.theta - pipe.theta)) < 1e-8
    assert np.max(np.abs(newton.u)) < 1e-8
    assert newton.mass_error < 1e-10
    assert max(newton.residual_norms.values()) < 1e-9


@pytest.mark.parametrize("tol", [1.0e-9, 1.0e-15], ids=["no-jacobian", "one-jacobian"])
def test_newton_takes_a_plain_fluid_state_as_its_guess(tol):
    # the guess's counters are read only from a StationaryState: a plain
    # FluidState guess gives the same solve, with no halvings carried over
    # (the pipeline halves nothing on this column, so a count is set by hand)
    config = ProblemConfig(grid=Grid1D(n=8, theta_bottom=1.1, theta_top=1.0), m0=1.0, g=0.05)
    guess = solve_rb_pipeline(config, GAS, TR)
    guess.counters["hydrostatic_halvings"] = 2
    solved = solve_stationary_newton(config, GAS, TR, initial_guess=guess, tol=tol)
    plain = solve_stationary_newton(config, GAS, TR, initial_guess=guess.copy(), tol=tol)
    fields = zip((plain.rho, plain.theta, *plain.velocity), (solved.rho, solved.theta, *solved.velocity))
    assert all(np.array_equal(a, b) for a, b in fields)
    assert plain.counters["hydrostatic_halvings"] == 0
    assert solved.counters["hydrostatic_halvings"] == guess.counters["hydrostatic_halvings"]
    assert {**plain.counters, "hydrostatic_halvings": 0} == {**solved.counters, "hydrostatic_halvings": 0}
    assert solved.counters["stationary_jacobians"] == (tol < 1.0e-9)


@pytest.mark.parametrize("n", [1024, 2048])
def test_newton_stops_at_the_rounding_floor_of_a_fine_column(n):
    # the Kirchhoff rows of a fine column round above tol = 1e-9, so Newton
    # stops at their floor 2 eps |J| |x| instead of iterating to max_iter
    grid = Grid1D(n=n, theta_bottom=1.05, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=1.0, g=0.01)
    pipe = solve_rb_pipeline(config, GAS, TR)
    newton = solve_stationary_newton(config, GAS, TR)
    assert newton.iterations <= 10
    assert newton.counters["stationary_residual_trace"][-1] > 1e-9
    layout = _Layout(grid)
    x = layout.pack(newton, 0.0)

    def fun(xv):
        return _residual(layout, xv, GAS, TR, config.potential_field(), config.m0)

    f = fun(x)
    assert np.max(np.abs(f)) == newton.counters["stationary_residual_trace"][-1]
    jacobian = _ColouredJacobian(layout)
    jacobian.factor(fun, x, f)
    assert np.all(np.abs(f) <= np.maximum(1e-9, 2.0 * np.finfo(float).eps * jacobian.magnitudes))
    # at rounding level, the pipeline's state to a few ulps
    assert np.max(np.abs(newton.rho - pipe.rho)) < 1e-14
    assert np.max(np.abs(newton.theta - pipe.theta)) < 1e-14
    assert np.max(np.abs(newton.u)) < 1e-20
    assert newton.mass_error < 1e-10
    # from the pipeline's state, already at the floor, one iteration stops it
    again = solve_stationary_newton(config, GAS, TR, initial_guess=pipe)
    assert again.iterations <= 1


def test_newton_lateral_heating_velocity_scales_linearly():
    umaxes = []
    theta_devs = []
    for eps in (1e-3, 2e-3, 4e-3):
        nx, nz = 12, 8
        xc = (np.arange(nx) + 0.5) * (2.0 / nx)
        grid = Grid2D(nx=nx, nz=nz, theta_bottom=1.0 + eps * np.cos(np.pi * xc), theta_top=1.0)
        config = ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.01))
        state = solve_stationary_newton(config, GAS, TR)
        assert state.max_velocity() > 0.0
        umaxes.append(state.max_velocity())
        theta_devs.append(state.proximity["theta_dev"])
    for seq in (umaxes, theta_devs):
        for a, b in zip(seq[:-1], seq[1:]):
            assert 2.0 / 1.5 <= b / a <= 2.0 * 1.5


def test_pipeline_proximity_scales_linearly():
    devs = []
    for eps in (0.0125, 0.025, 0.05):
        grid = Grid1D(n=64, theta_bottom=1.0 + eps, theta_top=1.0 - eps)
        config = ProblemConfig(grid=grid, m0=1.0, g=0.2 * eps)
        state = solve_rb_pipeline(config, GAS, TR)
        devs.append(state.proximity["theta_dev"] + state.proximity["rho_dev"])
    for a, b in zip(devs[:-1], devs[1:]):
        assert 2.0 / 1.5 <= b / a <= 2.0 * 1.5


def test_newton_reports_failure_with_trace():
    # absurdly large data: Newton cannot reach the tolerance
    grid = Grid1D(n=16, theta_bottom=60.0, theta_top=0.02)
    config = ProblemConfig(grid=grid, m0=1.0, g=5.0)
    with pytest.raises(NewtonFailure) as err:
        solve_stationary_newton(config, GAS, TR, max_iter=3)
    assert err.value.trace  # residual history travels with the error


def test_epsilon_report():
    grid = Grid1D(n=16, theta_bottom=1.05, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=1.0, g=0.01)
    # |G|_inf + |G'|_inf ~ 0.02, plate deviation 0.025
    assert config.epsilon_report == pytest.approx(0.025, abs=1e-12)
    config0 = ProblemConfig(grid=Grid1D(n=16), m0=1.0)
    assert config0.epsilon_report == 0.0


# ---------------------------------------------------------------------------
# Coloured sparse Jacobian
# ---------------------------------------------------------------------------


def dense_fd_jacobian(fun, x):
    """Oracle: one residual call per unknown, forward differences."""
    f0 = fun(x)
    jac = np.empty((f0.size, x.size))
    for k in range(x.size):
        h = 1.0e-7 * max(1.0, abs(x[k]))
        xp = x.copy()
        xp[k] += h
        jac[:, k] = (fun(xp) - f0) / h
    return jac


def random_problem(grid, seed, both_signs=True):
    """A problem on ``grid`` and a random packed state whose velocities take
    both signs (checked unless ``both_signs`` is false)."""
    rng = np.random.default_rng(seed)
    g = 0.05 if grid.dimension == 1 else (0.02, 0.05)
    config = ProblemConfig(grid=grid, m0=grid.volume, g=g)
    layout = _Layout(grid)
    nc = layout.n_cells
    x = np.empty(layout.size)
    x[:nc] = 1.0 + 0.1 * rng.standard_normal(nc)
    x[nc : 2 * nc] = 1.0 + 0.1 * rng.standard_normal(nc)
    x[2 * nc : -1] = 0.05 * rng.standard_normal(layout.size - 1 - 2 * nc)
    x[-1] = 0.01
    assert not both_signs or (np.any(x[2 * nc : -1] > 0.0) and np.any(x[2 * nc : -1] < 0.0))
    G = config.potential_field()

    def fun(xv):
        return _residual(layout, xv, GAS, TR, G, config.m0)

    return layout, fun, x


JACOBIAN_GRIDS = {
    "column-16": lambda: Grid1D(n=16, theta_bottom=1.1, theta_top=1.0),
    "lateral-10x6": lambda: Grid2D(
        nx=10,
        nz=6,
        theta_bottom=1.0 + 0.05 * np.cos(2.0 * np.pi * (np.arange(10) + 0.5) / 10),
        theta_top=1.0,
    ),
}


def declared_pattern(layout):
    """The core block's pattern, the residual's offset table translated to
    the layout's grid, as a dense boolean matrix."""
    table = stationary._probe_table(layout.grid.dimension)[0]
    declared = np.zeros((layout.size - 1, layout.size - 1), dtype=bool)
    declared[probing.pattern(table, layout.unknowns, layout.equations, layout.nx)] = True
    return declared


@pytest.mark.parametrize("name", sorted(JACOBIAN_GRIDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_jacobian_pattern_contains_every_nonzero(name, seed):
    layout, fun, x = random_problem(JACOBIAN_GRIDS[name](), seed)
    oracle = dense_fd_jacobian(fun, x)[:-1, :-1]
    declared = declared_pattern(layout)
    assert not np.any((oracle != 0.0) & ~declared)


@pytest.mark.parametrize("name", sorted(JACOBIAN_GRIDS))
@pytest.mark.parametrize("seed", [0, 1])
def test_coloured_jacobian_matches_dense_oracle(name, seed):
    layout, fun, x = random_problem(JACOBIAN_GRIDS[name](), seed)
    oracle = dense_fd_jacobian(fun, x)
    jacobian = _ColouredJacobian(layout)
    coloured = jacobian(fun, x, fun(x)).toarray()[:, jacobian.rank]  # unknown j is in column rank[j]
    assert jacobian.colours < x.size - 1
    scale = np.max(np.abs(oracle), axis=0)
    assert np.all(np.abs(coloured - oracle) <= 1.0e-6 * scale)


BITWISE_GRIDS = {
    **JACOBIAN_GRIDS,
    "slab-3x3": lambda: Grid2D(nx=3, nz=3, theta_bottom=np.array([1.1, 1.0, 1.05]), theta_top=1.0),
    "slab-7x5": lambda: Grid2D(nx=7, nz=5, theta_bottom=1.0 + 0.05 * np.arange(7) / 7, theta_top=1.0),
    "slab-8x4": lambda: Grid2D(nx=8, nz=4, theta_bottom=1.0 + 0.05 * np.arange(8) / 8, theta_top=1.02),
}


@pytest.mark.parametrize("name", sorted(BITWISE_GRIDS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coloured_jacobian_equals_column_by_column_differences_bitwise(name, seed):
    # With a valid colouring every entry is its one-column finite difference
    # bit for bit, so any valid colouring leaves the Newton iterates unchanged.
    # The mass row is set exactly rather than differenced.
    layout, fun, x = random_problem(BITWISE_GRIDS[name](), seed)
    oracle = dense_fd_jacobian(fun, x)
    jacobian = _ColouredJacobian(layout)
    coloured = jacobian(fun, x, fun(x)).toarray()[:, jacobian.rank]  # unknown j is in column rank[j]
    assert np.array_equal(coloured[:-1], oracle[:-1])


@pytest.mark.parametrize("name", sorted(JACOBIAN_GRIDS))
def test_coloured_jacobian_makes_one_stacked_residual_call(name):
    layout, fun, x = random_problem(JACOBIAN_GRIDS[name](), 0)
    jacobian = _ColouredJacobian(layout)
    f = fun(x)
    shapes = []

    def counted(xv):
        shapes.append(xv.shape)
        return fun(xv)

    jacobian(counted, x, f)
    assert shapes == [(jacobian.colours + 1, x.size)]


def assert_stacked_rows_match_single_calls(grid, states, rng):
    """Every row of a stacked ``_residual`` is its single-state call, bit for
    bit: random states with both velocity signs, each negated or not, and
    each with its own multiplier and mass."""
    layout = _Layout(grid)
    nc = layout.n_cells
    g = 0.05 if grid.dimension == 1 else (0.02, 0.05)
    G = ProblemConfig(grid=grid, m0=grid.volume, g=g).potential_field()
    stack = np.concatenate(
        [1.0 + 0.1 * rng.standard_normal((states, 2 * nc)), 0.05 * rng.standard_normal((states, layout.size - 2 * nc))],
        axis=1,
    )
    stack[:, 2 * nc : -1] *= rng.choice([-1.0, 1.0], size=(states, 1))
    stacked = _residual(layout, stack, GAS, TR, G, grid.volume)
    assert stacked.shape == stack.shape
    for row, x in zip(stacked, stack):
        assert np.array_equal(row, _residual(layout, x, GAS, TR, G, grid.volume))


@settings(max_examples=20, deadline=None)
@given(nx=hst.integers(3, 7), nz=hst.integers(3, 6), states=hst.integers(1, 5), seed=hst.integers(0, 2**16))
def test_stacked_residual_rows_equal_single_calls_2d(nx, nz, states, seed):
    rng = np.random.default_rng(seed)
    plates = 1.0 + 0.1 * rng.random((2, nx))
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=plates[0], theta_top=plates[1])
    assert_stacked_rows_match_single_calls(grid, states, rng)


@settings(max_examples=20, deadline=None)
@given(n=hst.integers(3, 10), states=hst.integers(1, 5), seed=hst.integers(0, 2**16))
def test_stacked_residual_rows_equal_single_calls_1d(n, states, seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=n, theta_bottom=1.0 + 0.1 * rng.random(), theta_top=1.0)
    assert_stacked_rows_match_single_calls(grid, states, rng)


def test_layout_round_trip():
    # unpack gives a state in the grid's field shapes, its wall faces zero,
    # which pack takes back to the packed vector bit for bit
    for name, normal_shape in (("column-16", (17,)), ("lateral-10x6", (10, 7))):
        grid = JACOBIAN_GRIDS[name]()
        layout, _, x = random_problem(grid, 3)
        rho, theta, velocity, lam = layout.unpack(x)
        state = FluidState(grid, 0.0, rho, theta, *velocity)
        assert velocity[-1].shape == normal_shape and not np.any(velocity[-1][..., [0, -1]])
        assert np.array_equal(layout.pack(state, lam), x)


def test_colours_never_share_a_pattern_row():
    # every slab with nx 3-16 (primes, and widths below the torus period) and
    # nz 3-8, and every column with n 3-40; colours run 0..C-1, none empty
    grids = [Grid2D(nx=nx, nz=nz, theta_bottom=1.0, theta_top=1.0) for nx in range(3, 17) for nz in range(3, 9)]
    grids += [Grid1D(n=n, theta_bottom=1.1, theta_top=1.0) for n in range(3, 41)]
    for grid in grids:
        plan = _ColouredJacobian(_Layout(grid)).plan
        core = plan.indices < plan.colour.size - 1  # the mass row sums every density; it is set exactly
        pairs = np.stack([plan.indices[core], plan.colour[plan.cols[core]]])
        assert np.unique(pairs, axis=1).shape[1] == np.count_nonzero(core)
        assert np.all(np.bincount(plan.colour) > 0)


def dense_first_fit(offsets, n_fields, p, q):
    """First-fit colours of the nodes (field, i, k) of a periodic
    n_fields x p x q torus, in node order, the conflicts read off a dense
    boolean pattern of the torus, and the node array."""
    node = np.arange(n_fields * p * q).reshape(n_fields, p, q)
    torus = np.zeros((node.size, node.size))
    for eq_field, unknown_field, di, dk in offsets:
        for i, k in np.ndindex(p, q):
            torus[node[eq_field, i, k], node[unknown_field, (i + di) % p, (k + dk) % q]] = 1.0
    conflict = (torus.T @ torus) > 0.0
    colour = np.empty(node.size, dtype=int)
    for m in range(node.size):
        held = set(colour[:m][conflict[m, :m]].tolist())
        colour[m] = min(set(range(len(held) + 1)) - held)
    return colour, node, conflict


@settings(max_examples=25, deadline=None)
@given(nx=hst.integers(3, 16), nz=hst.integers(3, 8), operator=hst.sampled_from(["newton", "velocity"]))
def test_colouring_is_first_fit_greedy(nx, nz, operator):
    # Under either x map the nodes are coloured first-fit in node order, the
    # conflicts read off a dense boolean pattern: the torus nodes
    # (field, i mod p, k mod q) under every conflict, p the divisor of nx
    # above the reach with the fewest colours, or the nodes
    # (field, k mod q) of one column of the ring itself times the column's x
    # colour.  Every unknown carries its node's colour under the map that
    # needs fewer (the torus on a tie), renumbered in order to 0..C-1.
    if operator == "newton":
        offsets = stationary._probe_table(2)[0]
        unknowns = _Layout(Grid2D(nx=nx, nz=nz, theta_bottom=1.0, theta_top=1.0)).unknowns
    else:
        offsets, unknowns = sim._velocity_table(2), probing.lattice(nx, 2 * nz - 1, 2)[0]
    n_fields = unknowns[0].max() + 1
    same = offsets[:, None, 0] == offsets[None, :, 0]
    reach, q = np.abs(offsets[:, None, 2:] - offsets[None, :, 2:])[same].max(axis=0) + [0, 1]
    f, i, k = unknowns
    tori = []
    for p in [d for d in range(reach + 1, nx + 1) if nx % d == 0] or [nx]:
        colour, node, _ = dense_first_fit(offsets, n_fields, p, q)
        tori.append(np.unique(colour[node[f, i % p, k % q]], return_inverse=True)[1])
    # the period with the fewest colours, the least on a tie
    torus = tori[int(np.argmin([c.max() for c in tori]))]

    _, node, conflict = dense_first_fit(offsets, n_fields, nx, q)
    column = node[:, 0, :].ravel()  # conflicts within a column, aliased x offsets included
    colour, _, _ = dense_first_fit([], n_fields, 1, q)
    for m in range(column.size):
        held = set(colour[:m][conflict[column[m], column[:m]]].tolist())
        colour[m] = min(set(range(len(held) + 1)) - held)
    x = probing._blocks(nx, reach)
    # columns of one x colour lie more than the reach apart around the ring
    for c in range(x.max() + 1):
        at = np.flatnonzero(x == c)
        assert at.size == 1 or np.all(np.diff(np.append(at, at[0] + nx)) > reach)
    blocks = colour.reshape(n_fields, q)[f, k % q] * (x.max() + 1) + x[i]

    blocks = np.unique(blocks, return_inverse=True)[1]
    want = torus if torus.max() <= blocks.max() else blocks
    assert np.array_equal(probing.colouring(offsets, unknowns, nx), want)


def assert_dissection_order(grid, seed):
    """The column order is a permutation with lambda last, the unknowns of a
    location sit together in field order, and a solve with the factors in
    that order matches a COLAMD solve of the same Jacobian."""
    layout, fun, x = random_problem(grid, seed, both_signs=False)
    jacobian = _ColouredJacobian(layout)
    rank = jacobian.rank
    assert np.array_equal(np.sort(rank), np.arange(layout.size)) and rank[-1] == layout.size - 1
    order = np.argsort(rank)[:-1]
    loc = layout.unknowns[1:, order]
    starts = np.flatnonzero(np.any(np.diff(loc, axis=1) != 0, axis=0)) + 1
    groups = np.split(order, starts)
    assert len(groups) == layout.nx * layout.nz
    assert all(np.all(np.diff(layout.unknowns[0, g]) > 0) for g in groups)
    f = fun(x)
    b = np.random.default_rng(seed).standard_normal(layout.size)
    solve = jacobian.factor(fun, x, f)
    reference = stationary.splu(jacobian(fun, x, f)).solve(b)[rank]
    assert np.max(np.abs(solve(b) - reference)) <= 1.0e-12 * np.max(np.abs(reference))
    return layout, rank


@settings(max_examples=25, deadline=None)
@given(nx=hst.integers(3, 16), nz=hst.integers(3, 8), seed=hst.integers(0, 2**16))
def test_dissection_order_on_slabs(nx, nz, seed):
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=1.0 + 0.05 * np.arange(nx) / nx, theta_top=1.0)
    layout, rank = assert_dissection_order(grid, seed)
    # the band that cuts the x ring open is numbered last, on rings wide
    # enough for two lines out of reach of each other
    reach = int(np.max(np.abs(stationary._probe_table(2)[0][:, 2:])))
    band = layout.unknowns[1] < reach
    last = np.sort(rank[:-1])[-np.count_nonzero(band) :]
    assert (nx > 2 * reach + 1) == np.array_equal(np.sort(rank[:-1][band]), last)


@settings(max_examples=25, deadline=None)
@given(n=hst.integers(3, 40), seed=hst.integers(0, 2**16))
def test_dissection_order_keeps_a_column_in_z_order(n, seed):
    layout, rank = assert_dissection_order(Grid1D(n=n, theta_bottom=1.1, theta_top=1.0), seed)
    field, _, k = layout.unknowns
    assert np.array_equal(np.argsort(rank[:-1]), np.lexsort((field, k)))


def x_fourier_problem(nx, nz, seed, invariant):
    """A slab with a smooth 1% plate wobble and vertical gravity, and a
    random packed state, the same in every x column if ``invariant``."""
    rng = np.random.default_rng(seed)
    plate = 1.0 + 0.01 * np.cos(2.0 * np.pi * (np.arange(nx) + 0.5) / nx)
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=plate, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.05))
    layout = _Layout(grid)

    def field(mean, scale, depth):
        values = mean + scale * rng.standard_normal((1 if invariant else nx, depth))
        return np.broadcast_to(values, (nx, depth)).ravel()

    rho, theta, u, w = field(1.0, 0.1, nz), field(1.0, 0.1, nz), field(0.0, 0.05, nz), field(0.0, 0.05, nz - 1)
    x = np.concatenate([rho, theta, u, w, [0.01]])
    G = config.potential_field()

    def fun(xv):
        return _residual(layout, xv, GAS, TR, G, config.m0)

    return layout, fun, x


@settings(max_examples=25, deadline=None)
@given(nx=hst.integers(3, 16), nz=hst.integers(3, 8), seed=hst.integers(0, 2**16))
def test_slab_solve_refines_its_x_fourier_blocks_or_falls_back_to_superlu(nx, nz, seed):
    # at an x-invariant state the Jacobian is block-circulant but for the
    # plates, so refinement from its x-Fourier blocks serves the solve; at a
    # random state refinement gives up and SuperLU factors the Jacobian once
    # for all its solves; either way the solve matches SuperLU's
    real = stationary.splu
    for invariant in (True, False):
        layout, fun, x = x_fourier_problem(nx, nz, seed, invariant)
        jacobian = _ColouredJacobian(layout)
        b = np.random.default_rng(seed).standard_normal(layout.size)
        made = []

        def kept(matrix, **options):
            made.append(real(matrix, **options))
            return made[-1]

        with mock.patch.object(stationary, "splu", kept):
            solve = jacobian.factor(fun, x, fun(x))
            got, again = solve(b), solve(-b)
        reference = real(jacobian(fun, x, fun(x))).solve(b)[jacobian.rank]
        assert np.max(np.abs(got - reference)) <= 1.0e-12 * np.max(np.abs(reference))
        assert np.max(np.abs(again + reference)) <= 1.0e-12 * np.max(np.abs(reference))
        if invariant:
            assert made == [] and jacobian.refinements > 0
            # the dense block 0 of 4 nz rows, bordered, and the band of the
            # blocks 1..nx // 2 of 4 nz - 1 columns, LAPACK's fill rows included
            kl, ku = jacobian.blocks.kl, jacobian.blocks.ku
            assert jacobian.fill == (4 * nz) ** 2 + nx // 2 * (4 * nz - 1) * (2 * kl + ku + 1)
        else:
            assert len(made) == 1 and jacobian.fill == made[0].nnz


def test_singular_x_fourier_blocks_fall_back_to_superlu(monkeypatch):
    # a slab residual that ignores the state: every block is singular, so
    # SuperLU factors the Jacobian and finds it singular too
    def frozen(grid, gas, transport, G, rho, theta, u, w):
        return np.ones_like(rho), np.ones_like(u), np.ones_like(w[..., 1:-1]), np.ones_like(theta)

    factored = []
    real = stationary.splu

    def counted(matrix, **options):
        factored.append(matrix.shape)
        return real(matrix, **options)

    monkeypatch.setattr(ops, "steady_residual_2d", frozen)
    monkeypatch.setattr(stationary, "splu", counted)
    config = ProblemConfig(grid=Grid2D(nx=6, nz=4, theta_bottom=1.05, theta_top=1.0), m0=1.0)
    with pytest.raises(NewtonFailure, match="singular") as err:
        solve_stationary_newton(config, GAS, TR)
    assert err.value.trace and len(factored) == 1


def circulant_part(layout, jac):
    """The block-circulant part of the bordered Jacobian ``jac`` (packed
    order): the mean of jac over every joint x translation of its
    equations and unknowns, the border translating with them."""
    nx = layout.nx

    def translations(sites):
        field, i, k = sites
        at = np.full((field.max() + 1, nx, k.max() + 1), -1)
        at[field, i, k] = np.arange(field.size)
        # the border (the mass row, the lambda column) stays in place
        return [np.append(at[field, (i + s) % nx, k], field.size) for s in range(nx)]

    rows, cols = translations(layout.equations), translations(layout.unknowns)
    return sum(jac[np.ix_(r, c)] for r, c in zip(rows, cols)) / nx


@pytest.mark.parametrize("nx, nz", [(12, 8), (24, 16), (13, 9)])
def test_x_fourier_blocks_solve_the_circulant_part(nx, nz):
    # the banded blocks against a dense solve of the circulant part, built
    # here from the Jacobian's x-averaged couplings at a random state
    layout, fun, x = x_fourier_problem(nx, nz, seed=nx, invariant=False)
    jacobian = _ColouredJacobian(layout)
    f = fun(x)
    blocks, data = jacobian.blocks, jacobian._data(fun, x, f)
    factors = blocks.factor(data)
    # columns in packed order; dropping the zeros overwrites ``data``
    circulant = circulant_part(layout, jacobian._matrix(data).toarray()[:, jacobian.rank])
    for seed in (0, 1):
        b = np.random.default_rng(seed).standard_normal(layout.size)
        want = np.linalg.solve(circulant, b)
        got = blocks.solve(factors, b)[jacobian.rank]
        assert np.max(np.abs(got - want)) <= 1.0e-12 * np.max(np.abs(want))


def test_x_fourier_band_widths_do_not_grow_with_the_grid():
    # z-major places make every block a band whose widths the stencils'
    # z reach sets, not the grid
    blocks = [_ColouredJacobian(_Layout(Grid2D(nx=nx, nz=nz))).blocks for nx, nz in [(12, 8), (24, 16), (48, 32)]]
    assert len({(b.kl, b.ku) for b in blocks}) == 1


def newton_residual_norms_are_those_of_its_state(config):
    state = solve_stationary_newton(config, GAS, TR)
    fresh = stationary._residual_norms(state, GAS, TR, config.potential_field())
    assert state.residual_norms == fresh
    return state


def test_newton_residual_norms_come_from_its_last_evaluation():
    # the norms of the residual the Newton evaluated at its last iterate
    # are those of a fresh evaluation at the state it returns, bit for bit
    nx = 12
    xc = (np.arange(nx) + 0.5) * (2.0 / nx)
    grid = Grid2D(nx=nx, nz=8, theta_bottom=1.0 + 1e-3 * np.cos(np.pi * xc), theta_top=1.0)
    state = newton_residual_norms_are_those_of_its_state(ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.01)))
    assert state.iterations >= 1 and max(state.residual_norms.values()) > 0.0
    column = Grid1D(n=32, theta_bottom=1.05, theta_top=1.0)
    newton_residual_norms_are_those_of_its_state(ProblemConfig(grid=column, m0=1.0, g=0.01))


def test_newton_residual_norms_after_a_dropped_chord_trial(monkeypatch):
    # theta^2 = 4 from theta = 1: the chord trial from theta = 2.5 is
    # dropped (test_newton_refreshes_the_jacobian_when_a_chord_step_stalls),
    # and the norms still come from the iterate, not from that trial
    def quadratic(grid, gas, transport, G, rho, theta, u):
        return rho - 1.0, u[..., 1:-1], theta**2 - 4.0

    monkeypatch.setattr(ops, "steady_residual_1d", quadratic)
    state = newton_residual_norms_are_those_of_its_state(ProblemConfig(grid=Grid1D(n=8), m0=1.0))
    assert state.counters["stationary_jacobians"] >= 2


def test_dissection_ranks_number_both_halves_before_their_separator():
    # 1 x 12 strip cut by two lines at 5, 6: halves 0-4 and 7-11 first
    rank = stationary._dissection_ranks(1, 12, 2)[0]
    assert sorted(rank[5:7]) == [10, 11]
    assert sorted(rank[:5]) == list(range(5)) and sorted(rank[7:]) == list(range(5, 10))


def test_singular_factorisation_raises_newton_failure(monkeypatch):
    # a residual that ignores the state: every core column of the Jacobian is zero
    def frozen(grid, gas, transport, G, rho, theta, u):
        return np.ones_like(rho), np.ones_like(u[..., 1:-1]), np.ones_like(theta)

    monkeypatch.setattr(ops, "steady_residual_1d", frozen)
    config = ProblemConfig(grid=Grid1D(n=8, theta_bottom=1.05, theta_top=1.0), m0=1.0)
    with pytest.raises(NewtonFailure, match="singular") as err:
        solve_stationary_newton(config, GAS, TR)
    assert err.value.trace


def assert_pattern_contains_dense_nonzeros(grid, rng):
    """Both donor-cell branches at every face: the oracle at a random state
    and at the same state with every velocity negated."""
    layout = _Layout(grid)
    nc = layout.n_cells
    g = 0.05 if grid.dimension == 1 else (0.02, 0.05)
    G = ProblemConfig(grid=grid, m0=grid.volume, g=g).potential_field()
    x = np.concatenate(
        [1.0 + 0.1 * rng.standard_normal(2 * nc), 0.05 * rng.standard_normal(layout.size - 2 * nc)]
    )
    declared = declared_pattern(layout)
    for sign in (1.0, -1.0):
        xs = x.copy()
        xs[2 * nc : -1] *= sign
        oracle = dense_fd_jacobian(lambda xv: _residual(layout, xv, GAS, TR, G, grid.volume), xs)
        assert not np.any((oracle[:-1, :-1] != 0.0) & ~declared)


@settings(max_examples=20, deadline=None)
@given(nx=hst.integers(3, 7), nz=hst.integers(3, 6), seed=hst.integers(0, 2**16))
def test_derived_pattern_contains_dense_nonzeros_2d(nx, nz, seed):
    # nx < 5 aliases the probe's x offsets onto each other
    rng = np.random.default_rng(seed)
    plates = 1.0 + 0.1 * rng.random((2, nx))
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=plates[0], theta_top=plates[1])
    assert_pattern_contains_dense_nonzeros(grid, rng)


@settings(max_examples=15, deadline=None)
@given(n=hst.integers(3, 10), seed=hst.integers(0, 2**16))
def test_derived_pattern_contains_dense_nonzeros_1d(n, seed):
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=n, theta_bottom=1.0 + 0.1 * rng.random(), theta_top=1.0)
    assert_pattern_contains_dense_nonzeros(grid, rng)


def test_lateral_preset_at_24x16_needs_at_most_40_colours():
    config = ex.config_from_mapping({"domain.nx": "24", "domain.nz": "16"}, preset="rb-2d-lateral")
    jacobian = _ColouredJacobian(_Layout(ex.build_problem(config).grid))
    assert jacobian.colours <= 40


def test_torus_colouring_takes_the_period_with_fewest_colours():
    # at 10x6 the torus of period 5, the least divisor above the x reach 3,
    # needs 40 colours and that of period 10 needs 36; at 24x16 the periods
    # 4, 12 and 24 tie at 32 and the least is kept
    table = stationary._probe_table(2)[0]
    for (nx, nz), want in {(10, 6): 36, (24, 16): 32}.items():
        unknowns = _Layout(Grid2D(nx=nx, nz=nz)).unknowns
        assert probing.colouring(table, unknowns, nx).max() + 1 == want, (nx, nz)
        assert _ColouredJacobian(_Layout(Grid2D(nx=nx, nz=nz))).colours == want, (nx, nz)


@pytest.mark.parametrize("grid", [Grid1D(n=40, theta_bottom=1.1), Grid2D(nx=24, nz=16)], ids=["1d", "2d"])
def test_pattern_derivation_residual_calls(monkeypatch, grid):
    probed = []

    def counted(layout, x, *args):
        probed.extend([layout] * (x.size // layout.size))
        return _residual(layout, x, *args)

    monkeypatch.setattr(stationary, "_residual", counted)
    probing.clear()
    jacobian = _ColouredJacobian(_Layout(grid))
    probe = probed[0]
    assert all(p is probe for p in probed)
    column = int(np.sum(probe.unknowns[1] == 0))
    assert len(probed) <= 2 * column + 2
    assert jacobian.probe_calls == len(probed)
    # the plan is shared: a second Jacobian on the grid probes nothing and
    # reports the same calls
    probed.clear()
    again = _ColouredJacobian(_Layout(grid))
    assert probed == [] and again.plan is jacobian.plan and again.probe_calls == jacobian.probe_calls


def test_newton_counts_armijo_floor_acceptances(monkeypatch):
    # A linear residual whose target theta* = 5 moves to 15 once theta leaves a
    # 1e-6 box around the initial guess 1.  The finite differences stay inside
    # the box; along the first Newton step theta = 1 + 4s leaves it for every
    # s >= 2^-21, where |theta - 15| >= 10 > 4 = |1 - 5|.  So that step is
    # taken at the floor, and from there the shifted linear system converges.
    theta0, target, shift = 1.0, 5.0, 10.0

    def trapped(grid, gas, transport, G, rho, theta, u):
        far = np.max(np.abs(theta - theta0), axis=-1, keepdims=True) > 1.0e-6
        return rho - 1.0, u[..., 1:-1], theta - target - np.where(far, shift, 0.0)

    monkeypatch.setattr(ops, "steady_residual_1d", trapped)
    config = ProblemConfig(grid=Grid1D(n=8), m0=1.0)
    state = solve_stationary_newton(config, GAS, TR)
    assert state.floor_steps == 1
    assert np.allclose(state.theta, target + shift)
    trace = state.counters["stationary_residual_trace"]
    assert trace[0] == pytest.approx(target - theta0)
    assert trace[-1] <= 1.0e-9
    assert len(trace) == state.iterations + 1


def test_newton_state_keeps_trace_colours_and_calls(monkeypatch):
    calls = []

    def counted(layout, x, *args):
        calls.extend([layout] * (x.size // layout.size))
        return _residual(layout, x, *args)

    monkeypatch.setattr(stationary, "_residual", counted)
    probing.clear()
    nx = 12
    xc = (np.arange(nx) + 0.5) * (2.0 / nx)
    grid = Grid2D(nx=nx, nz=8, theta_bottom=1.0 + 1e-3 * np.cos(np.pi * xc), theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.01))
    state = solve_stationary_newton(config, GAS, TR)
    counters, trace = state.counters, state.counters["stationary_residual_trace"]
    assert state.iterations >= 1 and state.floor_steps == 0
    assert len(trace) == state.iterations + 1
    assert trace[-1] <= 1.0e-9 < trace[0]
    assert 0 < counters["stationary_jacobian_colours"] <= 40
    assert counters["stationary_residual_calls"] == len(calls)
    assert 1 <= counters["stationary_jacobians"] <= state.iterations
    assert counters["stationary_residual_calls"] >= counters["stationary_jacobians"] * (
        counters["stationary_jacobian_colours"] + 1
    ) + state.iterations + 1
    # a second solve on the grid shares the plan: it makes none of the
    # pattern probe's calls, yet counts them, and reports the same counters
    probe_calls = stationary._probe_table(2)[1]
    calls.clear()
    again = solve_stationary_newton(config, GAS, TR)
    assert again.counters == counters
    assert len(calls) == counters["stationary_residual_calls"] - probe_calls > 0


def test_newton_refreshes_the_jacobian_when_a_chord_step_stalls(monkeypatch):
    # theta^2 = 4 from theta = 1.  The first Jacobian has slope 2 and its
    # Newton step lands at theta = 2.5, where the slope is 5: the chord step
    # from there reaches theta = 1.375, whose residual 2.11 is no tenfold cut
    # of 2.25, so it is dropped and the Jacobian rebuilt.
    target = 2.0

    def quadratic(grid, gas, transport, G, rho, theta, u):
        return rho - 1.0, u[..., 1:-1], theta**2 - target**2

    # the max-norm of every single-state call, None for a stacked one
    events = []

    def logged(layout, x, *args):
        f = _residual(layout, x, *args)
        events.append(float(np.max(np.abs(f))) if x.ndim == 1 else None)
        return f

    monkeypatch.setattr(ops, "steady_residual_1d", quadratic)
    monkeypatch.setattr(stationary, "_residual", logged)
    state = solve_stationary_newton(ProblemConfig(grid=Grid1D(n=8), m0=1.0), GAS, TR)
    trace = state.counters["stationary_residual_trace"]
    assert state.counters["stationary_jacobians"] >= 2
    assert trace[-1] <= 1.0e-9 and np.allclose(state.theta, target)
    assert len(trace) == state.iterations + 1
    # after the initial residual, a single state followed by a stacked call
    # (a fresh Jacobian) is a dropped chord trial
    dropped = [norm for norm, after in zip(events[1:], events[2:]) if norm is not None and after is None]
    assert dropped and not set(dropped) & set(trace)


def nan_after_first_factorisation(monkeypatch):
    """Every residual after the first ``splu`` call is NaN, so every trial
    point of the first line search is.  Before it the residual is shifted
    by 1, so that no initial guess passes as converged."""
    factorised = []
    real_splu, real_residual = stationary.splu, ops.steady_residual_1d

    def flagged_splu(matrix, **options):
        factorised.append(1)
        return real_splu(matrix, **options)

    def poisoned(*args):
        parts = real_residual(*args)
        return tuple(p + (np.nan if factorised else 1.0) for p in parts)

    monkeypatch.setattr(stationary, "splu", flagged_splu)
    monkeypatch.setattr(ops, "steady_residual_1d", poisoned)


def test_newton_raises_on_a_nan_residual_instead_of_converging(monkeypatch):
    # NaN compares false, so before the fix the line search took a NaN trial
    # at the floor and the NaN norm passed the convergence test
    nan_after_first_factorisation(monkeypatch)
    config = ProblemConfig(grid=Grid1D(n=16, theta_bottom=1.05, theta_top=1.0), m0=1.0, g=0.01)
    with pytest.raises(NewtonFailure) as err:
        solve_stationary_newton(config, GAS, TR)
    assert err.value.trace and all(np.isfinite(err.value.trace))


def test_newton_nan_residual_writes_failed_stationary_manifest(monkeypatch, tmp_path):
    nan_after_first_factorisation(monkeypatch)
    config = ex.config_from_mapping(
        {"domain.n": "16", "stationary_solver": "newton", "horizon": "0.01"}, preset="rb-1d-small"
    )
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "failed:stationary"
    assert "line search" in manifest.error

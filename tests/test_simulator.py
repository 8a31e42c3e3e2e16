"""Time-stepper tests: CFL policy, exact equilibrium preservation, discrete
conservation, positivity/retry policy, the acoustic signal-speed oracle,
2-D periodic topology, the one-call assembly of the 2-D momentum matrix and
the heat operator probed from the Kirchhoff stencil."""

import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from nsfsim import experiment as ex
from nsfsim import operators as ops
from nsfsim import probing, stationary, thermo
from nsfsim import simulator as sim
from nsfsim.grids import FluidState, Grid1D, Grid2D, StepControl
from nsfsim.simulator import ImplicitSolveError, PositivityError, cfl_dt, run, step
from nsfsim.stationary import ProblemConfig, solve_rb_pipeline, static_uniform
from nsfsim.thermo import GasModel, TransportModel, internal_energy, sound_speed

GAS = GasModel()
TR = TransportModel()


def uniform_state(n=64, rho=1.0, theta=1.0):
    grid = Grid1D(n=n, theta_bottom=theta, theta_top=theta)
    return FluidState(
        grid=grid, t=0.0, rho=np.full(n, rho), theta=np.full(n, theta), u=np.zeros(n + 1)
    )


def rb_reference(n=64):
    grid = Grid1D(n=n, theta_bottom=1.05, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=1.0, g=0.01)
    return solve_rb_pipeline(config, GAS, TR), config


# ---------------------------------------------------------------------------
# CFL policy
# ---------------------------------------------------------------------------


def test_cfl_rest_state_formula():
    state = uniform_state(n=64)
    control = StepControl(cfl_target=0.4, dt_max=10.0)
    cs = float(sound_speed(GAS, 1.0, 1.0))
    assert cfl_dt(state, control, GAS) == pytest.approx(0.4 * (1.0 / 64) / cs, rel=1e-12)


def test_cfl_halves_with_resolution():
    control = StepControl(cfl_target=0.4, dt_max=10.0)
    dt_a = cfl_dt(uniform_state(n=64), control, GAS)
    dt_b = cfl_dt(uniform_state(n=128), control, GAS)
    assert dt_b == pytest.approx(0.5 * dt_a, rel=1e-12)


def test_cfl_decreases_with_bulk_velocity():
    control = StepControl(cfl_target=0.4, dt_max=10.0)
    state = uniform_state(n=64)
    moving = state.copy()
    moving.u[1:-1] = 1.0
    assert cfl_dt(moving, control, GAS) < cfl_dt(state, control, GAS)


def test_cfl_2d_rest_state_formula():
    grid = Grid2D(nx=12, nz=10, theta_bottom=1.0, theta_top=1.0)
    state = FluidState(
        grid=grid, t=0.0, rho=np.ones((12, 10)), theta=np.ones((12, 10)),
        u=np.zeros((12, 10)), w=np.zeros((12, 11)),
    )
    cs = float(sound_speed(GAS, 1.0, 1.0))
    expected = 0.4 / (cs / grid.dx + cs / grid.dz)
    assert cfl_dt(state, StepControl(cfl_target=0.4, dt_max=10.0), GAS) == pytest.approx(expected, rel=1e-12)


def test_cfl_clamps_to_bounds():
    state = uniform_state(n=64)
    assert cfl_dt(state, StepControl(dt_min=1e-5, dt_max=1e-4), GAS) == 1e-4
    assert cfl_dt(state, StepControl(dt_min=0.05, dt_max=0.2), GAS) == 0.05


# ---------------------------------------------------------------------------
# Equilibrium preservation and conservation
# ---------------------------------------------------------------------------


def test_static_uniform_is_fixed_point():
    grid = Grid1D(n=48, theta_bottom=1.0, theta_top=1.0)
    state = static_uniform(ProblemConfig(grid=grid, m0=2.0))
    out = step(state, 5e-3, GAS, TR, None)
    assert np.array_equal(out.rho, state.rho)
    assert np.max(np.abs(out.theta - state.theta)) < 1e-14
    assert np.max(np.abs(out.u)) < 1e-15


def test_rb_stationary_is_fixed_point():
    reference, config = rb_reference(n=64)
    state = reference.copy()
    G = config.potential_field()
    for _ in range(20):
        state = step(state, 2e-3, GAS, TR, G)
    assert np.max(np.abs(state.rho - reference.rho)) < 1e-13
    assert np.max(np.abs(state.theta - reference.theta)) < 1e-13
    assert np.max(np.abs(state.u)) < 1e-13


def test_mass_conserved_on_random_state():
    n = 64
    grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.0)
    x = grid.centers()
    rng = np.random.default_rng(4)
    state = FluidState(
        grid=grid,
        t=0.0,
        rho=1.0 + 0.3 * np.sin(2 * np.pi * x) + 0.05 * rng.standard_normal(n),
        theta=1.0 + 0.2 * np.cos(2 * np.pi * x) ** 2,
        u=np.concatenate([[0.0], 0.2 * np.sin(np.pi * grid.faces()[1:-1]), [0.0]]),
    )
    m0 = state.total_mass()
    control = StepControl(cfl_target=0.4)
    for _ in range(100):
        state = step(state, cfl_dt(state, control, GAS), GAS, TR, None)
    assert abs(state.total_mass() - m0) / m0 < 1e-13
    assert np.all(state.rho > 0.0)
    assert np.all(state.theta > 0.0)


def sharp_transport_state(n=64):
    """Alternating density with a uniform interior stream: an oversized
    upwind step is guaranteed to empty the light cells."""
    grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.0)
    rho = np.where(np.arange(n) % 2 == 0, 0.1, 1.9)
    u = np.zeros(n + 1)
    u[1:-1] = 1.0
    return FluidState(grid=grid, t=0.0, rho=rho, theta=np.ones(n), u=u)


def test_positivity_never_clamped():
    # an oversized forced step must raise, not clamp
    with pytest.raises(PositivityError) as err:
        step(sharp_transport_state(), 0.2, GAS, TR, None)
    assert err.value.quantity in ("rho", "theta", "energy")
    assert isinstance(err.value.cell, int)


# ---------------------------------------------------------------------------
# Acoustic signal speed (peak-tracking oracle)
# ---------------------------------------------------------------------------


def test_sound_wave_speed_matches_thermo_oracle():
    # nearly ideal transport so the wave is adiabatic but the highest modes
    # stay damped; an isothermal initial density bump splits into two
    # acoustic pulses whose tracked peak travels at the analytic sound speed
    transport = TransportModel(mu0=2e-3, eta0=0.0, kappa0=1e-2, beta=7.0)
    n = 512
    grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.0)
    x = grid.centers()
    bump = 1e-6 * np.exp(-(((x - 0.3) / 0.05) ** 2))
    state = FluidState(
        grid=grid, t=0.0, rho=1.0 + bump - bump.mean(), theta=np.ones(n), u=np.zeros(n + 1)
    )
    control = StepControl(cfl_target=0.35, dt_max=1.0)
    times, peaks = [], []
    for target in np.arange(0.07, 0.151, 0.01):
        while state.t < target - 1e-12:
            dt = min(cfl_dt(state, control, GAS), target - state.t)
            state = step(state, dt, GAS, transport, None)
        signal = state.rho - np.mean(state.rho)
        idx = int(np.argmax(np.where(x > 0.42, signal, -np.inf)))
        y0, y1, y2 = signal[idx - 1], signal[idx], signal[idx + 1]
        times.append(state.t)
        peaks.append(x[idx] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * grid.dx)
    speed = float(np.polyfit(times, peaks, 1)[0])
    expected = float(sound_speed(GAS, 1.0, 1.0))
    assert abs(speed - expected) / expected < 0.02


# ---------------------------------------------------------------------------
# Implicit solves
# ---------------------------------------------------------------------------


def test_implicit_heat_solve_residual_contract():
    n = 64
    grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.0)
    rng = np.random.default_rng(8)
    rho = 1.0 + 0.2 * rng.random(n)
    theta = 1.0 + 0.3 * rng.random(n)
    e_star = rho * internal_energy(GAS, rho, theta) * (1.0 + 0.05 * rng.standard_normal(n))
    dt = 1e-3
    theta_new = sim._implicit_heat(grid, GAS, TR, rho, e_star, theta, dt, sim.SlabLU())
    resid = rho * internal_energy(GAS, rho, theta_new) - dt * ops.kirchhoff_div_nd(
        grid, TR, theta_new
    ) - e_star
    assert float(np.max(np.abs(resid))) < 1e-10 * max(1.0, float(np.max(np.abs(e_star))))


@pytest.mark.parametrize("dimension", [1, 2])
def test_implicit_heat_positivity_floor_fails_at_once(dimension, monkeypatch):
    # a Newton step that no shrink >= 1e-6 keeps positive must end the solve
    # with ImplicitSolveError after that one linear solve, so that run()
    # retries with half the step instead of iterating on NaN temperatures
    if dimension == 1:
        grid = Grid1D(n=16, theta_bottom=1.0, theta_top=1.0)
        shape = (16,)
    else:
        grid = Grid2D(nx=6, nz=5, theta_bottom=1.0, theta_top=1.0)
        shape = (6, 5)
    rho = np.ones(shape)
    theta = np.ones(shape)
    e_star = 1.1 * rho * internal_energy(GAS, rho, theta)
    solves = []

    def runaway(rhs):
        solves.append(1)
        return np.full(np.shape(rhs), 1.0e9)

    def runaway_band_solve(factor, rhs, lower):
        return runaway(rhs), 0

    def runaway_tridiagonal_solve(d, e, rhs):
        return d, e, runaway(rhs), 0

    monkeypatch.setattr(sim, "dptsv", runaway_tridiagonal_solve)
    monkeypatch.setattr(sim, "dpbtrs", runaway_band_solve)
    with pytest.raises(ImplicitSolveError, match="positivity backtrack"):
        sim._implicit_heat(grid, GAS, TR, rho, e_star, theta, 1e-3, sim.SlabLU())
    assert len(solves) == 1


@pytest.mark.parametrize("dimension", [1, 2])
def test_heat_jacobian_matches_finite_difference_oracle(dimension):
    # the kappa-scaled probe of the Kirchhoff stencil must be the derivative
    # of the K-difference heat residual; a wrong entry would only slow Newton
    # down.  On both grids the Jacobian is S diag(kappa), S rebuilt as C C^T
    # from the band-Cholesky factors of the lower band the Newton solves.
    rng = np.random.default_rng(40 + dimension)
    if dimension == 1:
        grid = Grid1D(n=16, theta_bottom=1.3, theta_top=0.8)
    else:
        grid = Grid2D(nx=6, nz=5, theta_bottom=1.3, theta_top=0.8)
    kirchhoff_div = ops.kirchhoff_div_nd
    shape = (16,) if dimension == 1 else (6, 5)
    rho = 0.5 + rng.random(shape)
    theta = 0.5 + rng.random(shape)
    dt = 1e-2

    def residual(th):
        return (rho * internal_energy(GAS, rho, th) - dt * kirchhoff_div(grid, TR, th)).ravel()

    fd = np.empty((theta.size, theta.size))
    for j in range(theta.size):
        h = 1e-6 * theta.flat[j]
        plus, minus = theta.copy(), theta.copy()
        plus.flat[j] += h
        minus.flat[j] -= h
        fd[:, j] = (residual(plus) - residual(minus)) / (2.0 * h)
    ab, place, kappa = sim._heat_band(GAS, TR, rho, theta, dt, sim._heat_operator(grid))
    factor, _ = sim._band_factors(ab, place)
    lower = sum(np.diag(factor[d, : theta.size - d], -d) for d in range(factor.shape[0]))
    jac = (lower @ lower.T)[np.ix_(place, place)] * kappa  # S in the cells' own order, times kappa
    column_max = np.max(np.abs(fd), axis=0)
    assert np.all(np.abs(jac - fd) <= 1e-6 * column_max)


@settings(max_examples=60, deadline=None)
@given(
    n=hst.integers(3, 128),
    theta_low=hst.floats(0.2, 1.0),
    theta_spread=hst.floats(0.0, 3.0),
    eta0=hst.floats(0.0, 2.0),
    dt=hst.floats(1e-5, 1e-1),
    seed=hst.integers(0, 2**32 - 1),
)
def test_column_viscous_band_is_the_jacobian_of_its_stencil(n, theta_low, theta_spread, eta0, dt, seed):
    # the column's implicit viscous band, the lower band read off the stress
    # stencil by its probes and mirrored (the matrix is symmetric), against
    # the central differences of
    # rho_face*u - dt*viscous_rhs_nd(u) on the interior faces.  The map is
    # linear, so the differences miss it only by the rounding of its values,
    # |F| <= 3 max|A| (max|u| + h), over 2h: 8 eps of that scale (the
    # probed bands read at most 1.8 eps over 3000 random columns)
    rng = np.random.default_rng(seed)
    grid, transport = Grid1D(n=n), TransportModel(eta0=eta0)
    theta = theta_low + theta_spread * rng.random(n)
    rho = 0.5 + rng.random(n)
    rho_face = 0.5 * (rho[:-1] + rho[1:])
    u = rng.standard_normal(n - 1)

    def residual(v):
        return rho_face * v - dt * ops.viscous_rhs_nd(grid, transport, theta, (np.pad(v, 1),))[0][1:-1]

    h = 1e-3
    fd = np.stack([(residual(u + h * e) - residual(u - h * e)) / (2.0 * h) for e in np.eye(n - 1)], axis=1)
    ab = sim._lower_band(sim._velocity_entries(grid, transport, theta, rho, dt), sim._velocity_operator(grid)[2])
    band = np.diag(ab[0]) + np.diag(ab[1, :-1], 1) + np.diag(ab[1, :-1], -1)
    scale = np.max(np.abs(band)) * (np.max(np.abs(u)) + h) / h
    assert np.max(np.abs(band - fd)) <= 8.0 * np.finfo(float).eps * scale


@settings(max_examples=40, deadline=None)
@given(
    dimension=hst.sampled_from([1, 2]),
    nx=hst.integers(3, 12),
    nz=hst.integers(3, 8),
    n=hst.integers(3, 64),
    lx=hst.floats(0.5, 3.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_heat_operator_equals_its_stencil(dimension, nx, nz, n, lx, seed):
    # every residue of nx mod 3 and the periodic wrap: a colouring that
    # clashes puts a neighbour's coefficient in the wrong column and fails this
    rng = np.random.default_rng(seed)
    grid = Grid1D(n=n) if dimension == 1 else Grid2D(nx=nx, nz=nz, lx=lx)
    K = rng.standard_normal((n,) if dimension == 1 else (nx, nz))
    want = ops._divergence(grid, ops.kirchhoff_stencil_nd(grid, K, 0.0, 0.0)).ravel()
    got = sim._heat_operator(grid)[1] @ K.ravel()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(nx=hst.integers(3, 10), nz=hst.integers(3, 7), seed=hst.integers(0, 2**32 - 1))
def test_heat_divergence_through_the_kept_operator_equals_the_stencil(nx, nz, seed):
    # L K + b, b the plates' term, is the Kirchhoff divergence the slab's heat
    # residual takes, laterally varying plates included
    rng = np.random.default_rng(seed)
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=1.0 + 0.3 * rng.random(nx), theta_top=0.7 + 0.3 * rng.random(nx))
    theta = 0.5 + rng.random((nx, nz))
    plates = [thermo.conductivity_primitive(TR, grid.wall_theta(w)) for w in ("bottom", "top")]
    divergence = sim._heat_divergence(grid, sim._heat_operator(grid), plates)
    got = divergence(thermo.conductivity_primitive(TR, theta))
    want = ops.kirchhoff_div_nd(grid, TR, theta)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# colours of the stationary Newton's lateral Jacobian at nz = 8 from the
# torus alone, the colouring before the blocks were kept beside it
TORUS_NEWTON_COLOURS = {
    3: 32, 4: 32, 5: 40, 6: 36, 7: 32, 8: 32, 9: 36, 10: 40, 11: 32, 12: 32, 13: 36, 14: 32, 15: 40,
    16: 32, 17: 36, 18: 36, 19: 32, 20: 32, 21: 32, 22: 32, 23: 32, 24: 32, 25: 40, 26: 36, 27: 36,
    28: 32, 29: 36, 30: 40, 31: 32, 32: 32, 33: 32, 34: 36, 35: 40, 36: 32, 37: 36, 38: 32, 39: 36, 40: 32,
}


def probed_colours(table, unknowns, equations, nx):
    """The probe count of ``table`` on a lattice of ``unknowns`` and
    ``equations``, asserting that no row sees two unknowns of one colour,
    the periodic wrap included."""
    rows, cols = probing.pattern(table, unknowns, equations, nx)
    colour = probing.colouring(table, unknowns, nx)
    assert len(set(zip(rows.tolist(), colour[cols].tolist()))) == rows.size, nx
    return colour.max() + 1


def full_table_pattern(table, unknowns, equations, nx):
    """``probing.pattern`` by the full translation, the oracle: every
    equation against every row of ``table``, masked to its own field's."""
    reach = np.max(np.abs(table[:, 2:]), axis=0, initial=0)
    at = np.full((int(unknowns[0].max()) + 1, nx, int(unknowns[2].max()) + 1), -1)
    at[tuple(unknowns)] = np.arange(unknowns.shape[1])
    at = np.pad(at, ((0, 0), (reach[0],) * 2, (0, 0)), mode="wrap")
    at = np.pad(at, ((0, 0), (0, 0), (reach[1],) * 2), constant_values=-1)
    _, width, depth = at.shape
    eq, field, di, dk = (table + [0, 0, *reach]).T
    reached = at.ravel()[(equations[1] * depth + equations[2])[:, None] + (field * width + di) * depth + dk]
    hit = (reached >= 0) & (equations[0][:, None] == eq)
    rows, cols = np.nonzero(hit)[0], reached[hit]
    if nx <= 2 * reach[0]:
        rows, cols = np.unique(np.stack([rows, cols]), axis=1)
    return rows, cols


@functools.cache
def offset_table(kind):
    return {"velocity": lambda: sim._velocity_table(2), "heat": sim._heat_table}.get(kind, lambda: stationary._probe_table(2)[0])()


@settings(max_examples=60, deadline=None)
@given(nx=hst.integers(3, 40), nz=hst.integers(3, 9), kind=hst.sampled_from(["velocity", "heat", "newton"]))
@example(nx=3, nz=4, kind="newton")
@example(nx=4, nz=3, kind="newton")
def test_pattern_per_equation_field_is_the_full_translation(nx, nz, kind):
    # translating each equation field's own table rows gives the pairs of
    # the full translation, merged alike where x offsets alias (nx <= 2
    # max|di|: nx 3 and 4 on the Newton table, whose |di| reaches 2), and
    # so bit-identical plans
    table = offset_table(kind)
    if kind == "newton":
        layout = stationary._Layout(Grid2D(nx=nx, nz=nz))
        unknowns, equations = layout.unknowns, layout.equations
    elif kind == "velocity":
        unknowns = equations = probing.lattice(nx, 2 * nz - 1, 2)[0]
    else:
        unknowns = equations = probing.lattice(nx, nz)[0]
    got, want = probing.pattern(table, unknowns, equations, nx), full_table_pattern(table, unknowns, equations, nx)
    order = np.lexsort(got[::-1]), np.lexsort(want[::-1])
    assert np.array_equal(np.stack(got)[:, order[0]], np.stack(want)[:, order[1]])
    colour = probing.colouring(table, unknowns, nx)
    plans = [probing.Plan(*pairs, colour, unknowns.shape[1]) for pairs in (got, want)]
    for name in ("indices", "indptr", "cols", "diagonal", "gather"):
        assert np.array_equal(getattr(plans[0], name), getattr(plans[1], name)), name


def test_probe_colouring_keeps_rows_apart_with_few_colours():
    # both slab operators on every ring of 1 to 130 columns need no more
    # probes than closed-form blocks of 3 and 4 columns over a box of the
    # stencil's reach took: the box's z span (5 velocity and 3 heat lattice
    # nodes) times nx up to 5, else 3 where 3 divides nx and 4 where not
    for table, fields, nz, span in ((sim._velocity_table(2), 2, 9, 5), (sim._heat_table(), 1, 6, 3)):
        for nx in range(1, 131):
            box = span * (nx if nx <= 5 else 3 if nx % 3 == 0 else 4)
            at = probing.lattice(nx, nz, fields)[0]
            assert probed_colours(table, at, at, nx) <= box, (fields, nx)
    # the probed stencils are stars, not boxes: 15 velocity probes at 32x24
    # (the torus of period 32; periods 4, 8 and 16 need 16) and at 12x10 (the
    # torus of period 6 and the blocks alike), 8 heat probes at 32x24
    assert sim._velocity_operator(Grid2D(nx=32, nz=24))[0].n_colours == 15
    assert sim._velocity_operator(Grid2D(nx=12, nz=10))[0].n_colours == 15
    assert sim._linear_plan((32, 24), 1, 0, sim._heat_table()).n_colours == 8
    # the stationary Newton's lateral offsets: never more than the torus alone
    table = stationary._probe_table(2)[0]
    for nx, torus in TORUS_NEWTON_COLOURS.items():
        layout = stationary._Layout(Grid2D(nx=nx, nz=8))
        assert probed_colours(table, layout.unknowns, layout.equations, nx) <= torus, nx


@pytest.mark.parametrize(
    "preset, builder",
    [
        ("rb-2d-topology", "_heat_operator"),
        ("rb-1d-small", "_heat_operator"),
        ("rb-2d-topology", "_velocity_operator"),
    ],
    ids=["rb-2d-topology", "rb-1d-small", "rb-2d-topology-velocity"],
)
def test_run_builds_the_heat_operator_once(preset, builder):
    # the heat operator and the velocity probe plan are built once per
    # process for a grid: after that L is only rescaled by kappa in every
    # heat-Newton iteration, and the plan's kept strains only meet each
    # step's viscosities.  A run on a cleared cache builds it once, and a
    # second run on the grid builds nothing and ends in the same state
    # with the same counters.
    config = ex.config_from_mapping({"horizon": "0.02"}, preset=preset)
    gas, transport = ex.build_models(config)
    problem = ex.build_problem(config)
    initial = ex.make_initial_state(config, ex.solve_reference(config, problem, gas, transport))
    build = getattr(sim, builder)
    probing.clear()
    results = []
    for built in (1, 0):
        before = build.builds
        result = sim.run(initial, config["horizon"], StepControl(), gas, transport, problem.potential_field())
        assert not result.aborted and result.steps >= 2
        assert build.builds - before == built
        results.append(result)
    cold, warm = results
    assert warm.counters == cold.counters and warm.steps == cold.steps
    for name in ("rho", "theta", "u"):
        assert np.array_equal(getattr(warm.final_state, name), getattr(cold.final_state, name)), name


def test_one_solver_keeps_an_operator_per_slab_spacing(monkeypatch):
    # two slabs of one shape but different periods: L holds 1/dx^2, so each
    # gets its own, and each step's heat Newton converges with it.  On a
    # cleared cache each spacing builds its L once; stepping both again with
    # a second solver builds nothing and repeats the first steps bit for bit
    probing.clear()
    builds = sim._heat_operator.builds
    solver = sim.SlabLU()
    residuals = []

    def checked(grid, gas, transport, rho, e_star, theta0, dt, solver):
        theta = implicit_heat(grid, gas, transport, rho, e_star, theta0, dt, solver)
        resid = thermo._volumetric_energy_raw(gas, rho, theta) - dt * ops.kirchhoff_div_nd(
            grid, transport, theta
        ) - e_star
        residuals.append(np.max(np.abs(resid)) / max(1.0, np.max(np.abs(e_star))))
        return theta

    implicit_heat = sim._implicit_heat
    monkeypatch.setattr(sim, "_implicit_heat", checked)
    operators, states, steps = [], [], []
    for lx in (2.0, 0.5):
        grid = Grid2D(nx=8, nz=6, theta_bottom=1.1, theta_top=1.0, lx=lx)
        theta = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x_centers())[:, None] * np.ones(grid.nz)
        states.append(FluidState(grid, 0.0, np.ones_like(theta), theta, np.zeros_like(theta), np.zeros((8, 7))))
        steps.append(step(states[-1], 1e-3, GAS, TR, solver=solver))
        operators.append(sim._heat_operator(grid))
        _, want, _ = sim._heat_operator.__wrapped__(grid)  # built afresh
        assert (abs(operators[-1][1] - want)).max() == 0.0
    assert (abs(operators[0][1] - operators[1][1])).max() > 0.0
    assert len(residuals) == 2 and max(residuals) <= sim._HEAT_TOL
    assert sim._heat_operator.builds - builds == 2
    again = sim.SlabLU()
    for state, first in zip(states, steps):
        assert np.array_equal(step(state, 1e-3, GAS, TR, solver=again).theta, first.theta)
    assert sim._heat_operator.builds - builds == 2 and again.counts == solver.counts


def test_implicit_velocity_solve_damps_and_preserves_zero():
    n = 32
    grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.0)
    theta = np.ones(n)
    rho = np.ones(n)
    (zero,) = sim._solve_velocity(grid, TR, theta, rho, (np.zeros(n + 1),), 1e-2, sim.SlabLU())
    assert np.all(zero == 0.0)
    (kicked,) = sim._solve_velocity(grid, TR, theta, rho, (np.sin(np.pi * grid.faces()),), 1e-2, sim.SlabLU())
    assert np.max(np.abs(kicked)) < 1.0  # backward Euler contracts


# ---------------------------------------------------------------------------
# Trajectory driver: retries, aborts, cadence
# ---------------------------------------------------------------------------


def test_run_retry_path_halves_and_completes():
    # dt_min = dt_max forces an oversized step; the driver must halve at
    # least once per step and still reach the horizon
    control = StepControl(cfl_target=0.9, dt_min=0.2, dt_max=0.2, max_retries=12)
    result = run(sharp_transport_state(), 0.03, control, GAS, TR, None)
    assert not result.aborted
    assert result.retries >= 1
    assert result.final_state.t >= 0.03 - 1e-12
    assert np.all(result.final_state.rho > 0.0)


def test_run_aborts_after_retry_budget():
    control = StepControl(cfl_target=0.9, dt_min=0.2, dt_max=0.2, max_retries=0)
    result = run(sharp_transport_state(), 1.0, control, GAS, TR, None)
    assert result.aborted
    assert result.abort_reason
    assert result.final_state.t == 0.0


def test_run_retries_failed_temperature_inversion(monkeypatch):
    # an inversion that does not converge is retried with half the step,
    # like a positivity failure, instead of ending the run
    original = thermo.temperature_from_energy
    calls = []

    def fails_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise thermo.TemperatureInversionError("temperature inversion did not converge")
        return original(*args, **kwargs)

    monkeypatch.setattr(thermo, "temperature_from_energy", fails_first)
    result = run(uniform_state(n=16), 0.01, StepControl(), GAS, TR, None)
    assert not result.aborted
    assert result.retries == 1
    assert result.final_state.t == pytest.approx(0.01)


def test_run_counts_steps_clamped_at_dt_min():
    # a dt_min above the acoustic step raises every cfl_dt to dt_min, and
    # the run says how often; the column factors no sparse matrix
    state = uniform_state(n=32)
    acoustic = cfl_dt(state, StepControl(dt_min=1e-12, dt_max=1.0), GAS)
    clamped = run(state, 8.0 * acoustic, StepControl(dt_min=2.0 * acoustic, dt_max=1.0), GAS, TR, None)
    assert clamped.steps == clamped.counters["dt_min_clamps"] == 4
    free = run(state, 8.0 * acoustic, StepControl(dt_min=1e-12, dt_max=1.0), GAS, TR, None)
    assert free.steps >= 8 and free.counters["dt_min_clamps"] == 0
    assert clamped.counters["step_factorisations"] == clamped.counters["step_refinements"] == 0
    assert free.counters["step_factorisations"] == 0


def test_run_counts_heat_positivity_backtracks(monkeypatch):
    # The run's first heat-Newton direction is stubbed to overshoot cell 0 to
    # -theta/2: one halving lands it at theta/4 > 0, and true directions
    # converge from there.  The run reports that one halving, and a run
    # without the stub none.
    state = FluidState(
        grid=Grid1D(n=16, theta_bottom=1.1, theta_top=1.0), t=0.0,
        rho=np.ones(16), theta=np.ones(16), u=np.zeros(17),
    )
    horizon = 3.0 * cfl_dt(state, StepControl(), GAS)
    plain = run(state, horizon, StepControl(), GAS, TR, None)
    assert plain.counters["heat_backtracks"] == 0

    real_heat, real_solve = sim._implicit_heat, sim._tridiagonal_solve
    first = {}

    def heat(grid, gas, transport, rho, e_star, theta0, dt, solver):
        first.setdefault("theta0", theta0)
        return real_heat(grid, gas, transport, rho, e_star, theta0, dt, solver)

    def solve(ab, b):
        x = real_solve(ab, b)
        # the first solve after the first heat call is that call's first
        # direction, S^-1 r / kappa
        if "theta0" in first and "forced" not in first:
            first["forced"] = True
            theta0 = first["theta0"][0]
            x[0] = 1.5 * theta0 * thermo._conductivity_raw(TR, theta0)
        return x

    monkeypatch.setattr(sim, "_implicit_heat", heat)
    monkeypatch.setattr(sim, "_tridiagonal_solve", solve)
    forced = run(state, horizon, StepControl(), GAS, TR, None)
    assert "forced" in first and not forced.aborted and forced.retries == 0
    assert forced.steps == plain.steps
    assert forced.counters["heat_backtracks"] == 1


def test_run_sampling_cadence():
    reference, config = rb_reference(n=32)
    state = reference.copy()
    seen = []

    def diagnostics(s):
        seen.append(s.t)
        return s.t

    result = run(
        state, 0.1, StepControl(), GAS, TR, config.potential_field(),
        diagnostics=diagnostics, cadence=0.02,
    )
    assert seen[0] == 0.0
    assert seen[-1] == pytest.approx(0.1, abs=1e-9)
    assert len(seen) == 6
    assert len(result.samples) == len(seen)


def clipped_step_count(horizon, dt_cfl, cadence):
    """Steps of a run at a constant CFL step that clips the step reaching a
    sample time or the horizon, the policy the landing rule replaced."""
    t, next_sample, steps = 0.0, cadence if cadence > 0.0 else np.inf, 0
    while t < horizon - 1e-12:
        dt = min(dt_cfl, horizon - t)
        if t < next_sample:
            dt = min(dt, next_sample - t)
        t += dt
        steps += 1
        while next_sample <= t + 1e-12:
            next_sample += cadence
    return steps


@settings(max_examples=200, deadline=None)
@given(
    dt_cfl=hst.floats(1e-3, 1.0),
    cadence=hst.one_of(hst.just(0.0), hst.floats(1e-2, 1.0)),
    horizon=hst.floats(1e-3, 3.0),
)
def test_run_lands_on_sample_times_and_horizon_in_equal_steps(dt_cfl, cadence, horizon):
    # step and cfl_dt are stubbed: the run's dt policy alone decides the times
    state = uniform_state(n=4)
    taken = []

    def fake_step(st, dt, *args, **kwargs):
        taken.append((st.t, dt))
        return FluidState(st.grid, st.t + dt, st.rho, st.theta, st.u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "step", fake_step)
        mp.setattr(sim, "cfl_dt", lambda *args: dt_cfl)
        result = run(state, horizon, StepControl(), GAS, TR, None, diagnostics=lambda s: s.t, cadence=cadence)

    sampled = np.array(result.records[1:])
    wanted = [k * cadence for k in range(1, int(horizon / cadence) + 2) if k * cadence < horizon - 1e-12] if cadence else []
    wanted = np.array(wanted + [horizon])
    assert sampled.shape == wanted.shape and np.max(np.abs(sampled - wanted)) <= 1e-12
    assert abs(result.final_state.t - horizon) <= 1e-12
    dts = np.array([dt for _, dt in taken])
    assert np.all(dts <= dt_cfl + sim._LANDING_SLACK)
    # the steps between two samples are equal up to rounding
    interval = np.searchsorted(sampled, [t + 1e-12 for t, _ in taken])
    for k in np.unique(interval):
        group = dts[interval == k]
        assert np.ptp(group) <= 1e-14 * max(1.0, horizon)
    assert result.steps == len(taken) == clipped_step_count(horizon, dt_cfl, cadence)


def test_slab_run_keeps_its_two_factorisations_across_sample_times(tmp_path):
    # rb-2d-topology at 32x24 samples every 0.05 of a 0.2 horizon that its
    # CFL step does not divide; landing in equal steps keeps the velocity
    # and heat factors of the first step for all 44 steps
    config = ex.config_from_mapping({"domain.nx": "32", "domain.nz": "24"}, preset="rb-2d-topology")
    manifest = ex.run_experiment(config, output_dir=tmp_path)
    assert manifest.status == "ok"
    assert manifest.counters["steps"] == 44
    assert manifest.counters["step_factorisations"] == 2
    assert manifest.counters["heat_chords"] > 0
    times = ex.read_csv(tmp_path / "rb-2d-topology.csv")["t"]
    assert np.max(np.abs(np.asarray(times) - np.arange(5) * 0.05)) <= 1e-12


# ---------------------------------------------------------------------------
# 2-D slab
# ---------------------------------------------------------------------------


def slab_reference(nx=8, nz=8):
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=1.05, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.01))
    return solve_rb_pipeline(config, GAS, TR), config


def test_2d_stationary_is_fixed_point():
    reference, config = slab_reference()
    state = reference.copy()
    G = config.potential_field()
    for _ in range(10):
        state = step(state, 4e-4, GAS, TR, G)
    assert np.max(np.abs(state.rho - reference.rho)) < 1e-13
    assert np.max(np.abs(state.theta - reference.theta)) < 1e-13
    assert np.max(np.abs(state.u)) < 1e-13
    assert np.max(np.abs(state.w)) < 1e-13


def test_2d_mass_conservation_and_positivity():
    reference, config = slab_reference()
    state = reference.copy()
    X, Z = np.meshgrid(state.grid.x_centers(), state.grid.z_centers(), indexing="ij")
    pert = 0.01 * np.sin(2 * np.pi * X / state.grid.lx) * np.sin(np.pi * Z)
    state.rho = state.rho + (pert - pert.mean())
    m0 = state.total_mass()
    control = StepControl()
    G = config.potential_field()
    for _ in range(50):
        state = step(state, cfl_dt(state, control, GAS), GAS, TR, G)
    assert abs(state.total_mass() - m0) / m0 < 1e-13
    assert np.all(state.rho > 0.0) and np.all(state.theta > 0.0)


def test_2d_shift_equivariance():
    # advancing a one-cell-shifted initial state equals shifting the
    # advanced solution: the periodic wrap has no seam
    reference, config = slab_reference(nx=10, nz=6)
    G = config.potential_field()
    state = reference.copy()
    X, Z = np.meshgrid(state.grid.x_centers(), state.grid.z_centers(), indexing="ij")
    pert = 0.01 * np.sin(2 * np.pi * X / state.grid.lx) * np.sin(np.pi * Z)
    state.rho = state.rho + (pert - pert.mean())
    state.theta = state.theta + 0.01 * np.cos(2 * np.pi * X / state.grid.lx) * np.sin(np.pi * Z)

    def roll(s):
        out = s.copy()
        for name in ("rho", "theta", "u", "w"):
            setattr(out, name, np.roll(getattr(s, name), 1, axis=0))
        return out

    control = StepControl(dt_max=5e-4)
    a = run(state, 0.02, control, GAS, TR, G).final_state
    b = run(roll(state), 0.02, control, GAS, TR, G).final_state
    worst = max(
        float(np.max(np.abs(np.roll(getattr(a, name), 1, axis=0) - getattr(b, name))))
        for name in ("rho", "theta", "u", "w")
    )
    assert worst < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    nx=hst.integers(3, 10),
    nz=hst.integers(3, 7),
    stack=hst.integers(1, 4),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_viscous_rhs_2d_on_a_stack_equals_the_single_calls(nx, nz, stack, eta0, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D(nx=nx, nz=nz, theta_bottom=1.0 + 0.2 * rng.random(nx), theta_top=0.8 + 0.2 * rng.random(nx))
    transport = TransportModel(eta0=eta0)
    theta = 0.5 + rng.random((nx, nz))
    u = rng.standard_normal((stack, nx, nz))
    w = rng.standard_normal((stack, nx, nz + 1))
    vx, vz = ops.viscous_rhs_nd(grid, transport, theta, (u, w))
    for k in range(stack):
        one_x, one_z = ops.viscous_rhs_nd(grid, transport, theta, (u[k], w[k]))
        assert np.array_equal(vx[k], one_x) and np.array_equal(vz[k], one_z)


def test_velocity_matrix_reads_the_stencil_and_the_closure_once(monkeypatch):
    # with the grid's kept plan, one stress-divergence call for every colour
    # on the kept probe strains: the viscosities at the centers and the wall
    # rows are the only closure reads
    grid = Grid2D(nx=32, nz=24, theta_bottom=1.05, theta_top=1.0)
    sim._velocity_operator(grid)
    calls = {"stress_divergence_nd": 0, "strain_rates_nd": 0, "viscosities": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(ops, "stress_divergence_nd")
    counted(ops, "strain_rates_nd")
    counted(thermo, "viscosities")
    theta = np.full((grid.nx, grid.nz), 1.02)
    sim._velocity_entries(grid, TR, theta, np.ones_like(theta), 1e-3)
    assert calls["stress_divergence_nd"] == 1
    assert calls["strain_rates_nd"] == 0
    assert calls["viscosities"] == 2  # the centers and _corner_mu's wall rows
    # the column's entries likewise, its one read at the centers
    column = Grid1D(n=64, theta_bottom=1.05, theta_top=1.0)
    sim._velocity_operator(column)
    calls.update(dict.fromkeys(calls, 0))
    sim._velocity_entries(column, TR, np.full(64, 1.02), np.ones(64), 1e-3)
    assert calls["stress_divergence_nd"] == 1 and calls["strain_rates_nd"] == 0
    assert calls["viscosities"] == 1


@pytest.mark.parametrize("scheme", ["minmod", "no-such-scheme"])
def test_slab_step_rejects_convection_other_than_upwind(scheme):
    reference, config = slab_reference()
    with pytest.raises(ValueError, match="upwind"):
        step(reference, 1e-4, GAS, TR, config.potential_field(), convection=scheme)


# ---------------------------------------------------------------------------
# Optional minmod reconstruction (config flag; column only)
# ---------------------------------------------------------------------------


def test_minmod_flux_second_order_on_smooth_data():
    # the reconstructed face flux converges at second order where the donor
    # cell is first order
    errors = {"upwind": [], "minmod": []}
    for n in (64, 128, 256):
        grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.0)
        x = grid.centers()
        q = 1.0 + 0.3 * np.sin(2 * np.pi * x)
        u = np.full(n + 1, 0.7)
        u[0] = u[-1] = 0.0
        exact = 0.7 * (1.0 + 0.3 * np.sin(2 * np.pi * grid.faces()[1:-1]))
        for scheme in errors:
            flux = ops.upwind_flux_nd(u, q, scheme)
            # skip wall-adjacent faces where the slope is dropped
            errors[scheme].append(float(np.max(np.abs(flux[2:-2] - exact[1:-1]))))
    up = np.log2(np.array(errors["upwind"][:-1]) / np.array(errors["upwind"][1:]))
    mm = np.log2(np.array(errors["minmod"][:-1]) / np.array(errors["minmod"][1:]))
    assert np.all(np.abs(up - 1.0) < 0.3)
    assert np.all(mm > 1.6)


def test_minmod_step_preserves_equilibrium_and_mass():
    reference, config = rb_reference(n=64)
    state = reference.copy()
    G = config.potential_field()
    for _ in range(20):
        state = step(state, 2e-3, GAS, TR, G, convection="minmod")
    assert np.max(np.abs(state.rho - reference.rho)) < 1e-13
    assert np.max(np.abs(state.theta - reference.theta)) < 1e-13

    # perturbed run conserves mass and positivity as with donor cell
    x = state.grid.centers()
    state.rho = state.rho + 0.01 * (np.sin(2 * np.pi * x) - np.mean(np.sin(2 * np.pi * x)))
    m0 = state.total_mass()
    control = StepControl()
    for _ in range(50):
        state = step(state, cfl_dt(state, control, GAS), GAS, TR, G, convection="minmod")
    assert abs(state.total_mass() - m0) / m0 < 1e-13
    state.validate()


def test_tridiagonal_solve_matches_scipy_solve_banded_bit_for_bit():
    rng = np.random.default_rng(11)
    n = 128
    ab = rng.standard_normal((3, n))
    ab[1] += 4.0
    b = rng.standard_normal(n)
    ab_copy, b_copy = ab.copy(), b.copy()
    x = stationary.solve_banded(ab, b)
    assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
    assert np.array_equal(ab, ab_copy) and np.array_equal(b, b_copy)
    # two right-hand sides, as the hydrostatic Newton solves
    b2 = rng.standard_normal((n, 2))
    assert np.array_equal(stationary.solve_banded(ab, b2), scipy.linalg.solve_banded((1, 1), ab, b2))


def test_a_tridiagonal_band_not_positive_definite_raises_a_retriable_error():
    # the column's solves keep no factors to drop: a band that is not
    # positive definite raises the ImplicitSolveError that run() retries
    grid = Grid1D(n=16)
    data = sim._velocity_entries(grid, TR, np.ones(16), np.ones(16), 1e-2)
    with pytest.raises(ImplicitSolveError, match="not positive definite"):
        sim._tridiagonal_solve(sim._lower_band(-data, sim._velocity_operator(grid)[2]), np.ones(15))


def test_tridiagonal_solve_raises_on_a_singular_matrix():
    ab = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])  # a zero middle row
    with pytest.raises(np.linalg.LinAlgError):
        stationary.solve_banded(ab, np.ones(3))

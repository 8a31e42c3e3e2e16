"""The slab's kept band-Cholesky factors: refined velocity solves against
the assembled matrix, heat-Newton chord steps, the refactor rules, the
velocity matrix's symmetric positive definite band, and a run against steps
taken with fresh factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import splu

from nsfsim import experiment as ex
from nsfsim import operators as ops
from nsfsim import simulator as sim
from nsfsim import thermo
from nsfsim.grids import Grid1D, Grid2D, StepControl
from nsfsim.thermo import GasModel, TransportModel

GAS = GasModel()


def random_slab(nx, nz, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D(
        nx=nx, nz=nz, theta_bottom=1.0 + 0.2 * rng.random(nx), theta_top=0.8 + 0.2 * rng.random(nx)
    )
    return rng, grid, 0.5 + rng.random((nx, nz)), 0.5 + rng.random((nx, nz))


def max_norm(x):
    return float(np.max(np.abs(x)))


def backward_error(a, x, b):
    """|b - a x| / (|a| |x| + |b|) in max-norms: rounding level is a few eps."""
    return max_norm(b - a @ x) / (float(abs(a).sum(axis=1).max()) * max_norm(x) + max_norm(b))


EPS = np.finfo(float).eps


def velocity_system(grid, transport, theta, rho, dt):
    """The velocity matrix and the ``_band_map`` of its plan."""
    plan, _, band_map = sim._velocity_operator(grid)
    return plan.matrix(sim._velocity_entries(grid, transport, theta, rho, dt)), band_map


def check_velocity_solve(solver, grid, transport, rho, theta, dt, rng):
    """A velocity solve with ``solver`` meets the backward error against the
    assembled matrix and agrees with a fresh LU."""
    a, band_map = velocity_system(grid, transport, theta, rho, dt)
    b = rng.standard_normal(a.shape[0])
    x = solver.solve(a, b, band_map)
    assert backward_error(a, x, b) <= 4.0 * EPS
    fresh = splu(a).solve(b)
    assert max_norm(x - fresh) <= 1e-13 * max_norm(fresh)


def heat_residual(grid, transport, rho, theta, dt, e_star):
    return thermo._volumetric_energy_raw(GAS, rho, theta) - dt * ops.kirchhoff_div_nd(grid, transport, theta) - e_star


def check_heat_solve(solver, grid, transport, rho, theta, dt, rng):
    """The heat Newton with ``solver``, from theta to a solution about 1e-3
    away, as a step's is, ends within its tolerance and agrees with a solve
    from fresh factors."""
    target = theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape))
    e_star = heat_residual(grid, transport, rho, target, dt, 0.0)
    x = sim._implicit_heat(grid, GAS, transport, rho, e_star, theta, dt, solver)
    assert max_norm(heat_residual(grid, transport, rho, x, dt, e_star)) <= sim._HEAT_TOL * max(1.0, max_norm(e_star))
    fresh = sim._implicit_heat(grid, GAS, transport, rho, e_star, theta, dt, sim.SlabLU())
    assert max_norm(x - fresh) <= 1e-13 * max_norm(fresh)


CHECKS = {"velocity": check_velocity_solve, "heat": check_heat_solve}


@settings(max_examples=25, deadline=None)
@given(
    nx=hst.integers(3, 10),
    nz=hst.integers(3, 7),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_kept_factors_solve_to_rounding_and_agree_with_a_fresh_lu(nx, nz, eta0, seed):
    # factors made at one theta and dt serve a nearby theta and dt: the
    # refined velocity solve meets the residual contract against the
    # assembled matrix and agrees with a fresh factorisation, and the heat
    # Newton's chord steps end within its tolerance and agree with a solve
    # from fresh factors
    rng, grid, rho, theta = random_slab(nx, nz, seed)
    transport = TransportModel(eta0=eta0)
    dt = 0.01 + 0.04 * rng.random()
    solver = sim.SlabLU()
    for check in CHECKS.values():
        check(solver, grid, transport, rho, theta, dt, rng)
    assert solver.counts["step_factorisations"] == 2
    chords = solver.counts["heat_chords"]
    theta_next = theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape))
    dt_next = dt * (1.0 + 1e-3 * rng.random())
    for check in CHECKS.values():
        check(solver, grid, transport, rho, theta_next, dt_next, rng)
    assert solver.counts["step_factorisations"] == 2
    assert solver.counts["step_refinements"] > 0
    assert solver.counts["heat_chords"] > chords


@pytest.mark.parametrize("kind", ["velocity", "heat"])
def test_a_sixteenfold_dt_drop_refactors_once(kind):
    # a sliver step: the kept factors no longer cut the residual tenfold per
    # sweep or chord step, so the matrix is factored anew, once
    rng, grid, rho, theta = random_slab(8, 6, 16)
    transport = TransportModel(eta0=0.5)
    dt = 0.005
    solver = sim.SlabLU()
    CHECKS[kind](solver, grid, transport, rho, theta, dt, rng)
    assert solver.counts["step_factorisations"] == 1
    CHECKS[kind](solver, grid, transport, rho, theta, dt / 16, rng)
    assert solver.counts["step_factorisations"] == 2


@settings(max_examples=25, deadline=None)
@given(
    nx=hst.integers(3, 10),
    nz=hst.integers(3, 7),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_stored_zeros_add_no_fill_and_no_residual(nx, nz, eta0, seed):
    # both slab plans store only their stencils' structural nonzeros at a
    # random theta, rho and dt, so the velocity matrix's kept band is as
    # wide as its pattern's largest x-fastest offset, and no wider, and the
    # refined solve meets the backward error against it
    rng, grid, rho, theta = random_slab(nx, nz, seed)
    transport = TransportModel(eta0=eta0)
    dt = 0.01 + 0.04 * rng.random()
    a, band_map = velocity_system(grid, transport, theta, rho, dt)
    assert np.all(a.data != 0.0)
    for heat_grid in (grid, Grid1D(n=nx * nz)):
        assert np.all(sim._heat_operator(heat_grid)[1].data != 0.0)
    solver = sim.SlabLU()
    b = rng.standard_normal(a.shape[0])
    x = solver.solve(a, b, band_map)
    assert backward_error(a, x, b) <= 4.0 * EPS
    # node (i, k) of the (nx, 2 nz - 1) lattice is number k nx + i x-fastest
    rows, cols = a.nonzero()
    place = (np.arange(a.shape[0]) % (2 * nz - 1)) * nx + np.arange(a.shape[0]) // (2 * nz - 1)
    kept = solver._factors["velocity"][0]
    assert kept.shape[0] - 1 == np.max(np.abs(place[rows] - place[cols])) == 2 * nx
    a, _ = velocity_system(grid, transport, theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape)), rho, dt)
    x = solver.solve(a, b, band_map)
    assert solver.counts["step_factorisations"] == 1 and solver.counts["step_refinements"] > 0
    assert backward_error(a, x, b) <= 4.0 * EPS


@settings(max_examples=40, deadline=None)
@given(
    nx=hst.integers(3, 13),
    nz=hst.integers(3, 8),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_velocity_matrix_is_a_symmetric_positive_definite_band(nx, nz, eta0, seed):
    # the viscous stress is dissipative, so diag(rho_face) - dt div S is
    # symmetric positive definite at any positive theta, rho and dt: its
    # mirrored entries are the same few products summed in another order,
    # within 2 eps of the largest entry (the first build read at most 0.44
    # eps over 400 random slabs), and LAPACK factors its lower band
    rng, grid, rho, theta = random_slab(nx, nz, seed)
    dt = 0.01 + 0.04 * rng.random()
    a, band_map = velocity_system(grid, TransportModel(eta0=eta0), theta, rho, dt)
    assert abs(a - a.T).max() <= 2.0 * EPS * abs(a).max()
    _, info = dpbtrf(sim._lower_band(a.data, band_map), lower=1)
    assert info == 0


def test_a_solve_on_fresh_factors_is_refined_against_the_whole_matrix():
    # the band factors read only the lower triangle, so a solve on fresh
    # factors is refined too: with the upper triangle 1e-8 relative off the
    # lower, the unrefined solve misses the backward error by far
    rng, grid, rho, theta = random_slab(8, 6, 5)
    a, band_map = velocity_system(grid, TransportModel(eta0=0.5), theta, rho, 0.01)
    place = band_map[3]
    upper = place[a.indices] < place[np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))]
    a.data[upper] *= 1.0 + 1e-8
    b = rng.standard_normal(a.shape[0])
    solver = sim.SlabLU()
    x = solver.solve(a, b, band_map)
    assert solver.counts["step_factorisations"] == 1 and solver.counts["step_refinements"] > 0
    assert backward_error(a, x, b) <= 4.0 * EPS
    assert backward_error(a, sim._band_direction(solver._factors["velocity"], b), b) > 1e-10


def test_a_velocity_matrix_not_positive_definite_is_retried_at_half_the_step(monkeypatch):
    # a negated velocity matrix has no Cholesky factor: the solve raises
    # ImplicitSolveError and keeps no factors, and run() retries the step
    # with half its dt, which then solves
    _, grid, rho, theta = random_slab(6, 5, 3)
    a, band_map = velocity_system(grid, TransportModel(eta0=0.5), theta, rho, 0.01)
    solver = sim.SlabLU()
    with pytest.raises(sim.ImplicitSolveError, match="not positive definite"):
        solver.solve(-a, np.ones(a.shape[0]), band_map)
    assert solver.counts["step_factorisations"] == 0 and "velocity" not in solver._factors

    config = ex.config_from_mapping({"horizon": "0.01"}, preset="rb-2d-topology")
    gas, transport = ex.build_models(config)
    problem = ex.build_problem(config)
    initial = ex.make_initial_state(config, ex.solve_reference(config, problem, gas, transport))
    velocity_entries, steps = sim._velocity_entries, []

    def first_negated(grid, transport, theta, rho, dt):
        steps.append(dt)
        data = velocity_entries(grid, transport, theta, rho, dt)
        return -data if len(steps) == 1 else data

    monkeypatch.setattr(sim, "_velocity_entries", first_negated)
    result = sim.run(initial, config["horizon"], StepControl(), gas, transport, problem.potential_field())
    assert not result.aborted and result.retries == 1
    assert steps[1] == steps[0] / 2


def test_a_slab_of_another_spacing_refactors_both_solves():
    # two slabs of one shape, 12x10, whose spacings differ by 1%: the kept
    # factors are keyed by the grid's shared band order, so the second slab
    # factors its velocity and its heat matrix anew and takes none of the
    # first slab's factors, which a key on the shape alone would serve it
    solver, factorisations = sim.SlabLU(), []
    for lx in (2.0, 2.02):
        config = ex.config_from_mapping({"domain.lx": str(lx)}, preset="rb-2d-topology")
        assert (config["domain.nx"], config["domain.nz"]) == (12, 10)
        gas, transport = ex.build_models(config)
        problem = ex.build_problem(config)
        initial = ex.make_initial_state(config, ex.solve_reference(config, problem, gas, transport))
        before = solver.counts["step_factorisations"]
        sim.step(initial, 1e-3, gas, transport, problem.potential_field(), solver=solver)
        factorisations.append(solver.counts["step_factorisations"] - before)
    assert factorisations == [2, 2]


def test_run_with_kept_factors_matches_steps_with_fresh_factors():
    config = ex.config_from_mapping({"horizon": "0.1"}, preset="rb-2d-topology")
    assert (config["domain.nx"], config["domain.nz"]) == (12, 10)
    gas, transport = ex.build_models(config)
    problem = ex.build_problem(config)
    initial = ex.make_initial_state(config, ex.solve_reference(config, problem, gas, transport))
    G = problem.potential_field()
    result = sim.run(initial, config["horizon"], StepControl(), gas, transport, G, sample_every_step=True)
    assert not result.aborted
    # every step solves at least one velocity and one heat system; the kept
    # factors serve most of them
    assert 2 <= result.counters["step_factorisations"] < result.steps
    assert result.counters["step_refinements"] > 0 and result.counters["heat_chords"] > 0
    state = initial
    for (t0, _), (t1, kept) in zip(result.samples, result.samples[1:]):
        state = sim.step(state, t1 - t0, gas, transport, G)
        for name in ("rho", "theta", "u", "w"):
            got, want = getattr(state, name), getattr(kept, name)
            assert max_norm(got - want) <= 1e-13 * max_norm(want), name

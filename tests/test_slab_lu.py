"""The slab's kept factors: refined velocity solves against the assembled
matrix, heat-Newton chord steps on kept band-Cholesky factors, the refactor
rules, and a run against steps taken with fresh factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.sparse.linalg import splu

from nsfsim import experiment as ex
from nsfsim import operators as ops
from nsfsim import simulator as sim
from nsfsim import thermo
from nsfsim.grids import Grid2D, StepControl
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


def check_velocity_solve(solver, grid, transport, rho, theta, dt, rng):
    """A velocity solve with ``solver`` meets the backward error against the
    assembled matrix and agrees with a fresh LU."""
    a = sim._velocity_matrix(grid, transport, theta, rho, dt)
    b = rng.standard_normal(a.shape[0])
    x = solver.solve("velocity", a, b)
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
    fresh = sim._implicit_heat(grid, GAS, transport, rho, e_star, theta, dt)
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
    assert solver.factorisations == 2
    chords = solver.heat_chords
    theta_next = theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape))
    dt_next = dt * (1.0 + 1e-3 * rng.random())
    for check in CHECKS.values():
        check(solver, grid, transport, rho, theta_next, dt_next, rng)
    assert solver.factorisations == 2
    assert solver.refinements > 0
    assert solver.heat_chords > chords


@pytest.mark.parametrize("kind", ["velocity", "heat"])
def test_a_sixteenfold_dt_drop_refactors_once(kind):
    # a sliver step: the kept factors no longer cut the residual tenfold per
    # sweep or chord step, so the matrix is factored anew, once
    rng, grid, rho, theta = random_slab(8, 6, 16)
    transport = TransportModel(eta0=0.5)
    dt = 0.005
    solver = sim.SlabLU()
    CHECKS[kind](solver, grid, transport, rho, theta, dt, rng)
    assert solver.factorisations == 1
    CHECKS[kind](solver, grid, transport, rho, theta, dt / 16, rng)
    assert solver.factorisations == 2


def test_stored_zeros_add_no_fill_and_no_residual():
    # the velocity matrix stores its coupling pattern's exact zeros: they are
    # dropped where the matrix is factored, and the refined solve meets the
    # backward error against the matrix as given
    rng, grid, rho, theta = random_slab(8, 6, 5)
    transport = TransportModel(eta0=0.5)
    a = sim._velocity_matrix(grid, transport, theta, rho, 0.01)
    nonzero = a.copy()
    nonzero.eliminate_zeros()
    assert nonzero.nnz < a.nnz
    solver = sim.SlabLU()
    b = rng.standard_normal(a.shape[0])
    x = solver.solve("velocity", a, b)
    assert backward_error(a, x, b) <= 4.0 * EPS
    kept, want = solver._factors["velocity"], splu(nonzero, **sim._LU_ORDERING)
    assert kept.L.nnz + kept.U.nnz == want.L.nnz + want.U.nnz
    a = sim._velocity_matrix(grid, transport, theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape)), rho, 0.01)
    x = solver.solve("velocity", a, b)
    assert solver.factorisations == 1 and solver.refinements > 0
    assert backward_error(a, x, b) <= 4.0 * EPS


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
    assert 2 <= result.factorisations < result.steps
    assert result.refinements > 0 and result.heat_chords > 0
    state = initial
    for (t0, _), (t1, kept) in zip(result.samples, result.samples[1:]):
        state = sim.step(state, t1 - t0, gas, transport, G)
        for name in ("rho", "theta", "u", "w"):
            got, want = getattr(state, name), getattr(kept, name)
            assert max_norm(got - want) <= 1e-13 * max_norm(want), name

"""The slab's kept LU factors: refined solves against the assembled matrix,
the refactor rule, and a run against steps taken with fresh factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.sparse.linalg import splu

from nsfsim import experiment as ex
from nsfsim import simulator as sim
from nsfsim.grids import Grid2D, StepControl
from nsfsim.thermo import GasModel, TransportModel

GAS = GasModel()


def random_slab(nx, nz, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D(
        nx=nx, nz=nz, theta_bottom=1.0 + 0.2 * rng.random(nx), theta_top=0.8 + 0.2 * rng.random(nx)
    )
    return rng, grid, 0.5 + rng.random((nx, nz)), 0.5 + rng.random((nx, nz))


def slab_matrices(grid, transport, rho, theta, dt):
    """Both matrices a slab step solves with: the velocity matrix and the
    heat Jacobian."""
    return {
        "velocity": sim._velocity_matrix(grid, transport, theta, rho, dt),
        "heat": sim._heat_jacobian(grid, GAS, transport, rho, theta, dt),
    }


def max_norm(x):
    return float(np.max(np.abs(x)))


def backward_error(a, x, b):
    """|b - a x| / (|a| |x| + |b|) in max-norms: rounding level is a few eps."""
    return max_norm(b - a @ x) / (float(abs(a).sum(axis=1).max()) * max_norm(x) + max_norm(b))


EPS = np.finfo(float).eps


@settings(max_examples=25, deadline=None)
@given(
    nx=hst.integers(3, 10),
    nz=hst.integers(3, 7),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)
def test_kept_factors_solve_to_rounding_and_agree_with_a_fresh_lu(nx, nz, eta0, seed):
    # factors made at one theta and dt serve the matrices of a nearby theta
    # and dt: the refined solve meets the residual contract against the
    # assembled matrix and agrees with a fresh factorisation
    rng, grid, rho, theta = random_slab(nx, nz, seed)
    transport = TransportModel(eta0=eta0)
    dt = 0.01 + 0.04 * rng.random()
    solver = sim.SlabLU()
    for kind, a in slab_matrices(grid, transport, rho, theta, dt).items():
        solver.solve(kind, a, rng.standard_normal(a.shape[0]))
    assert solver.factorisations == 2
    theta_next = theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape))
    dt_next = dt * (1.0 + 1e-3 * rng.random())
    for kind, a in slab_matrices(grid, transport, rho, theta_next, dt_next).items():
        b = rng.standard_normal(a.shape[0])
        x = solver.solve(kind, a, b)
        assert backward_error(a, x, b) <= 4.0 * EPS
        fresh = splu(a).solve(b)
        assert max_norm(x - fresh) <= 1e-13 * max_norm(fresh)
    assert solver.factorisations == 2
    assert solver.refinements > 0


@pytest.mark.parametrize("kind", ["velocity", "heat"])
def test_a_sixteenfold_dt_drop_refactors_once(kind):
    # the horizon-clipped last step: the kept factors no longer cut the
    # residual tenfold per sweep, so the matrix is factored anew, once
    rng, grid, rho, theta = random_slab(8, 6, 16)
    transport = TransportModel(eta0=0.5)
    dt = 0.005
    solver = sim.SlabLU()
    a = slab_matrices(grid, transport, rho, theta, dt)[kind]
    solver.solve(kind, a, rng.standard_normal(a.shape[0]))
    a = slab_matrices(grid, transport, rho, theta, dt / 16)[kind]
    b = rng.standard_normal(a.shape[0])
    x = solver.solve(kind, a, b)
    assert solver.factorisations == 2
    assert backward_error(a, x, b) <= 4.0 * EPS
    assert max_norm(x - splu(a).solve(b)) <= 1e-13 * max_norm(x)


def test_stored_zeros_add_no_fill_and_no_residual():
    # the velocity matrix stores its coupling pattern's exact zeros: they are
    # dropped where the matrix is factored, and the refined solve meets the
    # backward error against the matrix as given
    rng, grid, rho, theta = random_slab(8, 6, 5)
    transport = TransportModel(eta0=0.5)
    a = slab_matrices(grid, transport, rho, theta, 0.01)["velocity"]
    nonzero = a.copy()
    nonzero.eliminate_zeros()
    assert nonzero.nnz < a.nnz
    solver = sim.SlabLU()
    b = rng.standard_normal(a.shape[0])
    x = solver.solve("velocity", a, b)
    assert backward_error(a, x, b) <= 4.0 * EPS
    kept, want = solver._factors["velocity"], splu(nonzero, **sim._LU_ORDERING)
    assert kept.L.nnz + kept.U.nnz == want.L.nnz + want.U.nnz
    a = slab_matrices(grid, transport, rho, theta * (1.0 + 1e-3 * rng.standard_normal(theta.shape)), 0.01)["velocity"]
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
    assert result.refinements > 0
    state = initial
    for (t0, _), (t1, kept) in zip(result.samples, result.samples[1:]):
        state = sim.step(state, t1 - t0, gas, transport, G)
        for name in ("rho", "theta", "u", "w"):
            got, want = getattr(state, name), getattr(kept, name)
            assert max_norm(got - want) <= 1e-13 * max_norm(want), name

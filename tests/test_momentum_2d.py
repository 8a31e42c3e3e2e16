"""The coupled 2-D momentum solve: its matrix against the stress stencil it
is assembled from, its residual, and its stability at the acoustic step."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.sparse import coo_matrix

from nsfsim import experiment as ex
from nsfsim import operators as ops
from nsfsim import simulator as sim
from nsfsim.grids import Grid2D, StepControl
from nsfsim.thermo import TransportModel


def face_densities(rho):
    return 0.5 * (np.roll(rho, 1, axis=0) + rho), 0.5 * (rho[:, :-1] + rho[:, 1:])


def momentum_operator(grid, transport, theta, rho, u, w, dt):
    """rho_face*v - dt*viscous_rhs_nd(theta, v) at u and the interior w faces."""
    vx, vz = ops.viscous_rhs_nd(grid, transport, theta, (u, w))
    rbu, rbw = face_densities(rho)
    return rbu * u - dt * vx, (rbw * w[:, 1:-1] - dt * vz[:, 1:-1])


def random_slab(nx, nz, eta0, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D(
        nx=nx, nz=nz, theta_bottom=1.0 + 0.2 * rng.random(nx), theta_top=0.8 + 0.2 * rng.random(nx)
    )
    rho = 0.5 + rng.random((nx, nz))
    theta = 0.5 + rng.random((nx, nz))
    u = rng.standard_normal((nx, nz))
    w = np.zeros((nx, nz + 1))
    w[:, 1:-1] = rng.standard_normal((nx, nz - 1))
    return grid, TransportModel(eta0=eta0), rho, theta, u, w


def velocity_matrix(grid, transport, theta, rho, dt):
    """The velocity matrix: the stepper's stored entries on its plan's pattern."""
    return sim._velocity_operator(grid)[0].matrix(sim._velocity_entries(grid, transport, theta, rho, dt))


SLABS = dict(
    nx=hst.integers(3, 12),
    nz=hst.integers(3, 8),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**SLABS)
def test_velocity_matrix_equals_its_stencil(nx, nz, eta0, seed):
    # a colouring that clashes anywhere, the periodic wrap included, puts a
    # neighbour's coefficient in the wrong column and fails this
    grid, transport, rho, theta, u, w = random_slab(nx, nz, eta0, seed)
    dt = 0.3
    a = velocity_matrix(grid, transport, theta, rho, dt)
    res_u, res_w = momentum_operator(grid, transport, theta, rho, u, w, dt)
    # the unknowns are u and the interior w, interleaved along z
    got = a @ sim._interleave(u, w)[:, 1:-1].ravel()
    want = sim._interleave(res_u, np.pad(res_w, ((0, 0), (1, 1))))[:, 1:-1].ravel()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def coo_velocity_matrix(grid, transport, theta, rho, dt):
    """The velocity matrix assembled COO -> CSC from the responses to one
    unit probe per unknown, its exact zeros dropped: the arithmetic that the
    probe plan's colouring and gather replace."""
    nx, ns = grid.nx, 2 * grid.nz - 1
    n = nx * ns
    probes = np.zeros((n, nx, ns + 2))
    probes[..., 1:-1] = np.eye(n).reshape(n, nx, ns)
    vx, vz = ops.viscous_rhs_nd(grid, transport, theta, (probes[..., 1::2], probes[..., ::2]))
    response = sim._interleave(vx, vz)[..., 1:-1].reshape(n, -1)  # row j: the column of unknown j
    cols, rows = np.nonzero(response)
    rbu, rbw = face_densities(rho)
    rho_face = sim._interleave(rbu, np.pad(rbw, ((0, 0), (1, 1))))[:, 1:-1].ravel()
    diag = np.arange(n)
    a = coo_matrix(
        (np.concatenate([rho_face, -dt * response[cols, rows]]),
         (np.concatenate([diag, rows]), np.concatenate([diag, cols]))),
        shape=(n, n),
    ).tocsc()
    a.eliminate_zeros()
    return a


@settings(max_examples=40, deadline=None)
@given(
    nx=hst.integers(3, 13),
    nz=hst.integers(3, 8),
    eta0=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**32 - 1),
)
@example(nx=4, nz=3, eta0=0.5, seed=0)
@example(nx=5, nz=4, eta0=0.0, seed=1)
@example(nx=7, nz=5, eta0=0.5, seed=2)
@example(nx=8, nz=3, eta0=0.0, seed=3)
@example(nx=13, nz=8, eta0=0.5, seed=4)
def test_velocity_matrix_from_a_kept_plan_is_the_coo_assembly(nx, nz, eta0, seed):
    # every residue of nx mod 3, rings of 4 and 5 columns, widths where the
    # torus and where the blocks colour: the gather puts each probe response
    # where the COO -> CSC conversion puts it, bit for bit, and the plan
    # stores no entry the stencil leaves zero
    grid, transport, rho, theta, _, _ = random_slab(nx, nz, eta0, seed)
    for dt in (0.3, 0.002):
        got = velocity_matrix(grid, transport, theta, rho, dt)
        want = coo_velocity_matrix(grid, transport, theta, rho, dt)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


@settings(max_examples=15, deadline=None)
@given(**SLABS)
def test_velocity_solve_residual_contract(nx, nz, eta0, seed):
    grid, transport, rho, theta, m_u, m_w = random_slab(nx, nz, eta0, seed)
    dt = 0.05
    u, w = sim._solve_velocity(grid, transport, theta, rho, (m_u, m_w), dt, sim.SlabLU())
    assert np.all(w[:, [0, -1]] == 0.0)
    res_u, res_w = momentum_operator(grid, transport, theta, rho, u, w, dt)
    scale = max(float(np.max(np.abs(m_u))), float(np.max(np.abs(m_w))))
    assert np.max(np.abs(res_u - m_u)) <= 1e-12 * scale
    assert np.max(np.abs(res_w - m_w[:, 1:-1])) <= 1e-12 * scale


def test_strong_bulk_viscosity_is_stable_at_the_acoustic_step():
    # the whole stress is implicit, so a grid-scale velocity mode under a large
    # bulk viscosity decays at the acoustic dt instead of blowing up
    config = ex.config_from_mapping(
        {"domain.nx": "16", "domain.nz": "12", "transport.eta0": "5"}, preset="rb-2d-topology"
    )
    gas, transport = ex.build_models(config)
    problem = ex.build_problem(config)
    state = ex.solve_reference(config, problem, gas, transport).as_fluid_state()
    G = problem.potential_field()
    grid = state.grid
    sign = (-1.0) ** np.arange(grid.nx)
    state.u = 1e-4 * sign[:, None] * np.sin(np.pi * grid.z_centers())[None, :]
    state.w = np.zeros((grid.nx, grid.nz + 1))

    def kinetic(s):
        rbu, rbw = face_densities(s.rho)
        return 0.5 * (np.sum(rbu * s.u**2) + np.sum(rbw * s.w[:, 1:-1] ** 2)) * grid.cell_volume

    k0 = kinetic(state)
    dt = sim.cfl_dt(state, StepControl(), gas)
    assert dt > 5e-3
    for _ in range(20):
        state = sim.step(state, dt, gas, transport, G)
    assert kinetic(state) < 1e-3 * k0

"""Manufactured-solution convergence orders of the shared stencils.

Smooth fields are sampled on the staggered grids and each operator is
compared with the hand-derived continuous value at its own nodes (Roache,
J. Fluids Eng. 124, 2002).  Refining 16 -> 32 -> 64 cells must show a
max-norm order of at least 1.9 for every stencil the stepper and the
steady residuals share.  The last section pins the stencils the column and
the slab share: an x-uniform slab with u = 0 reproduces the column's, bit
for bit in every column, the stress and the shear heating included, and
steps like it to rounding.
"""

import numpy as np
import pytest

from nsfsim import operators as ops
from nsfsim.grids import FluidState, Grid1D, Grid2D
from nsfsim.simulator import step
from nsfsim.thermo import GasModel, TransportModel, internal_energy

TR = TransportModel(mu0=1.0, eta0=0.5, kappa0=1.0, beta=7.0)
PI = np.pi
RESOLUTIONS = (16, 32, 64)


def observed_orders(errors):
    return [float(np.log2(a / b)) for a, b in zip(errors[:-1], errors[1:])]


def assert_second_order(errors):
    orders = observed_orders(errors)
    assert min(orders) >= 1.9, orders


# ---------------------------------------------------------------------------
# 2-D slab: theta = 1 + 0.1 cos(pi x) sin(pi z), u = sin(pi x) sin(pi z),
# w = cos(pi x) sin(2 pi z) on the torus of period 2 times (0, 1).  u, w and
# the temperature deviation vanish at both walls, matching the no-slip
# ghost reflection and the plate temperature 1.
# ---------------------------------------------------------------------------


def theta_2d(x, z):
    return 1.0 + 0.1 * np.cos(PI * x) * np.sin(PI * z)


def theta_2d_grad(x, z):
    return -0.1 * PI * np.sin(PI * x) * np.sin(PI * z), 0.1 * PI * np.cos(PI * x) * np.cos(PI * z)


def velocity_gradients_2d(x, z):
    """u_x, u_z, w_x, w_z and the second derivatives of u and w."""
    sx, cx = np.sin(PI * x), np.cos(PI * x)
    sz, cz = np.sin(PI * z), np.cos(PI * z)
    s2z, c2z = np.sin(2 * PI * z), np.cos(2 * PI * z)
    first = {
        "u_x": PI * cx * sz, "u_z": PI * sx * cz,
        "w_x": -PI * sx * s2z, "w_z": 2 * PI * cx * c2z,
    }
    second = {
        "u_xx": -PI**2 * sx * sz, "u_zz": -PI**2 * sx * sz, "u_xz": PI**2 * cx * cz,
        "w_xx": -PI**2 * cx * s2z, "w_zz": -4 * PI**2 * cx * s2z, "w_xz": -2 * PI**2 * sx * c2z,
    }
    return first, second


def stress_divergence_2d(x, z):
    """(d_x Sxx + d_z Sxz, d_x Sxz + d_z Szz) of the exact fields at (x, z)."""
    th = theta_2d(x, z)
    th_x, th_z = theta_2d_grad(x, z)
    mu, mu_x, mu_z = TR.mu0 * (1 + th), TR.mu0 * th_x, TR.mu0 * th_z
    lam_coef = TR.eta0 - 2.0 / 3.0 * TR.mu0
    lam, lam_x, lam_z = lam_coef * (1 + th), lam_coef * th_x, lam_coef * th_z
    d, dd = velocity_gradients_2d(x, z)
    div = d["u_x"] + d["w_z"]
    div_x = dd["u_xx"] + dd["w_xz"]
    div_z = dd["u_xz"] + dd["w_zz"]
    shear = d["u_z"] + d["w_x"]
    vx = (
        2 * mu_x * d["u_x"] + 2 * mu * dd["u_xx"] + lam_x * div + lam * div_x
        + mu_z * shear + mu * (dd["u_zz"] + dd["w_xz"])
    )
    vz = (
        mu_x * shear + mu * (dd["u_xz"] + dd["w_xx"])
        + 2 * mu_z * d["w_z"] + 2 * mu * dd["w_zz"] + lam_z * div + lam * div_z
    )
    return vx, vz


def slab(nz):
    grid = Grid2D(nx=2 * nz, nz=nz, theta_bottom=1.0, theta_top=1.0, lx=2.0)
    xc, zc = grid.x_centers(), grid.z_centers()
    xf = np.arange(grid.nx) * grid.dx
    zf = np.arange(grid.nz + 1) * grid.dz
    Xc, Zc = np.meshgrid(xc, zc, indexing="ij")
    Xu, Zu = np.meshgrid(xf, zc, indexing="ij")   # x-faces
    Xw, Zw = np.meshgrid(xc, zf, indexing="ij")   # z-faces
    theta = theta_2d(Xc, Zc)
    u = np.sin(PI * Xu) * np.sin(PI * Zu)
    w = np.cos(PI * Xw) * np.sin(2 * PI * Zw)
    w[:, 0] = w[:, -1] = 0.0
    return grid, theta, u, w, (Xc, Zc), (Xu, Zu), (Xw, Zw)


def test_viscous_rhs_2d_second_order():
    errors_u, errors_w = [], []
    for nz in RESOLUTIONS:
        grid, theta, u, w, _, (Xu, Zu), (Xw, Zw) = slab(nz)
        vx, vz = ops.viscous_rhs_nd(grid, TR, theta, (u, w))
        errors_u.append(np.max(np.abs(vx - stress_divergence_2d(Xu, Zu)[0])))
        exact_w = stress_divergence_2d(Xw, Zw)[1]
        errors_w.append(np.max(np.abs(vz[:, 1:-1] - exact_w[:, 1:-1])))
    assert_second_order(errors_u)
    assert_second_order(errors_w)


def test_shear_heating_2d_second_order():
    errors = []
    for nz in RESOLUTIONS:
        grid, theta, u, w, (Xc, Zc), _, _ = slab(nz)
        th = theta_2d(Xc, Zc)
        mu, eta = TR.mu0 * (1 + th), TR.eta0 * (1 + th)
        d, _ = velocity_gradients_2d(Xc, Zc)
        div = d["u_x"] + d["w_z"]
        dxz = 0.5 * (d["u_z"] + d["w_x"])
        exact = (
            2 * mu * (d["u_x"] ** 2 + d["w_z"] ** 2 + 2 * dxz**2)
            - 2.0 / 3.0 * mu * div**2 + eta * div**2
        )
        errors.append(np.max(np.abs(ops.shear_heating_nd(grid, TR, theta, (u, w)) - exact)))
    assert_second_order(errors)


def kirchhoff_exact(th, grad_sq, laplacian):
    """div(kappa(theta) grad theta) = kappa'(theta) |grad theta|^2 + kappa(theta) lap theta."""
    kappa = TR.kappa0 * (1 + th**TR.beta)
    kappa_prime = TR.kappa0 * TR.beta * th ** (TR.beta - 1)
    return kappa_prime * grad_sq + kappa * laplacian


def test_kirchhoff_div_2d_second_order_away_from_walls():
    # The wall rows are left out: the wall flux is a K-difference over the
    # half-cell between the plate and the first center, so the divergence
    # there mixes spacings dz and dz/2 and its pointwise truncation error is
    # O(1).  test_heat_profile_discrete_flux_constant checks the wall fluxes.
    errors = []
    for nz in RESOLUTIONS:
        grid, theta, _, _, (Xc, Zc), _, _ = slab(nz)
        th_x, th_z = theta_2d_grad(Xc, Zc)
        lap = -2 * PI**2 * 0.1 * np.cos(PI * Xc) * np.sin(PI * Zc)
        exact = kirchhoff_exact(theta, th_x**2 + th_z**2, lap)
        numeric = ops.kirchhoff_div_nd(grid, TR, theta)
        errors.append(np.max(np.abs(numeric - exact)[:, 1:-1]))
    assert_second_order(errors)


# ---------------------------------------------------------------------------
# 1-D column: theta = 1 + 0.1 sin(pi x) + 0.2 x (plates 1 and 1.2),
# u = sin(pi x) + 0.5 sin(2 pi x), zero at both walls.
# ---------------------------------------------------------------------------


def column(n):
    grid = Grid1D(n=n, theta_bottom=1.0, theta_top=1.2)
    xc, xf = grid.centers(), grid.faces()
    theta = 1.0 + 0.1 * np.sin(PI * xc) + 0.2 * xc
    u = np.sin(PI * xf) + 0.5 * np.sin(2 * PI * xf)
    u[0] = u[-1] = 0.0
    return grid, theta, u


def theta_1d_derivatives(x):
    th = 1.0 + 0.1 * np.sin(PI * x) + 0.2 * x
    return th, 0.1 * PI * np.cos(PI * x) + 0.2, -0.1 * PI**2 * np.sin(PI * x)


def u_1d_derivatives(x):
    u_x = PI * np.cos(PI * x) + PI * np.cos(2 * PI * x)
    u_xx = -PI**2 * np.sin(PI * x) - 2 * PI**2 * np.sin(2 * PI * x)
    return u_x, u_xx


# along one axis 2 mu + (eta - 2 mu / 3) = (4/3) mu + eta = NU0 * (1 + theta)
NU0 = 4.0 / 3.0 * TR.mu0 + TR.eta0


def test_viscous_rhs_1d_second_order():
    errors = []
    for n in RESOLUTIONS:
        grid, theta, u = column(n)
        x = grid.faces()[1:-1]
        th, th_x, _ = theta_1d_derivatives(x)
        u_x, u_xx = u_1d_derivatives(x)
        exact = NU0 * th_x * u_x + NU0 * (1 + th) * u_xx
        (numeric,) = ops.viscous_rhs_nd(grid, TR, theta, (u,))
        errors.append(np.max(np.abs(numeric[1:-1] - exact)))
    assert_second_order(errors)


def test_shear_heating_1d_second_order():
    errors = []
    for n in RESOLUTIONS:
        grid, theta, u = column(n)
        x = grid.centers()
        th, _, _ = theta_1d_derivatives(x)
        u_x, _ = u_1d_derivatives(x)
        exact = NU0 * (1 + th) * u_x**2
        errors.append(np.max(np.abs(ops.shear_heating_nd(grid, TR, theta, (u,)) - exact)))
    assert_second_order(errors)


def test_kirchhoff_div_1d_second_order_away_from_walls():
    # wall cells left out for the half-cell reason given in the 2-D test
    errors = []
    for n in RESOLUTIONS:
        grid, theta, _ = column(n)
        th, th_x, th_xx = theta_1d_derivatives(grid.centers())
        exact = kirchhoff_exact(th, th_x**2, th_xx)
        errors.append(np.max(np.abs(ops.kirchhoff_div_nd(grid, TR, theta) - exact)[1:-1]))
    assert_second_order(errors)


# ---------------------------------------------------------------------------
# One stencil per direction: an x-uniform slab with u = 0 is the column,
# column by column
# ---------------------------------------------------------------------------


def column_and_slab(n, seed):
    """A column and a 3 x n slab holding the same fields in every column,
    with plates 1.1 / 1.0 and gravity 0.05 along the wall normal."""
    rng = np.random.default_rng(seed)
    column_grid = Grid1D(n=n, theta_bottom=1.1, theta_top=1.0)
    slab_grid = Grid2D(nx=3, nz=n, theta_bottom=1.1, theta_top=1.0)
    rho = 1.0 + 0.1 * rng.random(n)
    theta = 1.0 + 0.1 * rng.random(n)
    w = np.zeros(n + 1)
    w[1:-1] = 0.05 * rng.standard_normal(n - 1)
    G = 0.05 * column_grid.centers()
    column_fields = (column_grid, rho, theta, (w,), G)
    rho_s, theta_s, w_s, G_s = (np.tile(a, (3, 1)) for a in (rho, theta, w, G))
    slab_fields = (slab_grid, rho_s, theta_s, (np.zeros((3, n)), w_s), G_s)
    return column_fields, slab_fields


def assert_every_column_equal(slab_value, column_value):
    assert all(np.array_equal(row, column_value) for row in slab_value)


@pytest.mark.parametrize("n", [12, 37])
def test_x_uniform_slab_reproduces_the_column_stencils_bit_for_bit(n):
    gas = GasModel()
    results = []
    for grid, rho, theta, vel, G in column_and_slab(n, seed=n):
        evol = rho * internal_energy(gas, rho, theta)
        results.append(
            {
                "mass": ops.mass_rhs_nd(grid, rho, vel),
                "momentum": ops.momentum_explicit_nd(grid, gas, G, 0.9 * rho, theta, rho, vel)[-1],
                "energy": ops.energy_explicit_nd(grid, gas, TR, 0.9 * rho, theta, evol, vel, vel),
                "heat": ops.kirchhoff_div_nd(grid, TR, theta),
                "stress": ops.viscous_rhs_nd(grid, TR, theta, vel)[-1],
            }
        )
    on_column, on_slab = results
    assert_every_column_equal(on_slab["mass"], on_column["mass"])
    for slab_part, column_part in zip(on_slab["momentum"], on_column["momentum"]):  # conv, grad p, grav
        assert_every_column_equal(slab_part, column_part)
    for slab_part, column_part in zip(on_slab["energy"], on_column["energy"]):  # conv_e, shear heating, work
        assert_every_column_equal(slab_part, column_part)
    assert_every_column_equal(on_slab["heat"], on_column["heat"])
    assert_every_column_equal(on_slab["stress"], on_column["stress"])


def test_x_uniform_slab_steps_like_the_column():
    # the stencils agree bit for bit (above), but the slab's band Cholesky
    # rounds differently from the column's tridiagonal solves, so the steps
    # agree to rounding
    gas = GasModel()
    (c_grid, rho, theta, (w,), G), (s_grid, rho_s, theta_s, (u_s, w_s), G_s) = column_and_slab(24, 3)
    c_state = FluidState(grid=c_grid, t=0.0, rho=rho, theta=theta, u=w)
    s_state = FluidState(grid=s_grid, t=0.0, rho=rho_s, theta=theta_s, u=u_s, w=w_s)
    for _ in range(5):
        c_state = step(c_state, 2.0e-3, gas, TR, G)
        s_state = step(s_state, 2.0e-3, gas, TR, G_s)
    for slab_field, column_field in ((s_state.rho, c_state.rho), (s_state.theta, c_state.theta),
                                     (s_state.w, c_state.u)):
        assert np.max(np.abs(slab_field - column_field)) <= 1e-12 * np.max(np.abs(column_field))
    assert np.max(np.abs(s_state.u)) <= 1e-12 * np.max(np.abs(c_state.u))


# ---------------------------------------------------------------------------
# Shared closures: the steady residual and the step evaluate p, mu, eta and
# the strain rates once; composed from the public stencils, each computing
# its own, they give the same bits.
# ---------------------------------------------------------------------------


def random_state(grid, rng, stack=()):
    """rho, theta near 1 and small velocities with pinned wall faces, with
    leading ``stack`` axes."""
    cells = stack + ((grid.n,) if grid.dimension == 1 else (grid.nx, grid.nz))
    rho, theta = 1.0 + 0.1 * rng.random(cells), 1.0 + 0.1 * rng.random(cells)
    normal = 0.05 * rng.standard_normal(cells[:-1] + (cells[-1] + 1,))
    normal[..., [0, -1]] = 0.0
    vel = (normal,) if grid.dimension == 1 else (0.05 * rng.standard_normal(cells), normal)
    return rho, theta, vel


def steady_residual_of_public_stencils(grid, gas, G, rho, theta, vel):
    """(continuity, *momentum, energy) composed from the public stencils,
    nothing shared between them."""
    *viscous, vz = ops.viscous_rhs_nd(grid, TR, theta, vel)
    viscous = (*viscous, vz[..., 1:-1])
    tendencies = ops.momentum_explicit_nd(grid, gas, G, rho, theta, rho, vel)
    mom = [conv + dp - grav - v for (conv, dp, grav), v in zip(tendencies, viscous)]
    evol = rho * internal_energy(gas, rho, theta)
    conv_e, heat, work = ops.energy_explicit_nd(grid, gas, TR, rho, theta, evol, vel, vel)
    energy = conv_e - ops.kirchhoff_div_nd(grid, TR, theta) - heat + work
    return (-ops.mass_rhs_nd(grid, rho, vel), *mom, energy)


@pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
@pytest.mark.parametrize(
    "grid",
    [Grid1D(n=9, theta_bottom=1.1, theta_top=0.95), Grid2D(nx=7, nz=5, theta_bottom=1.0 + 0.05 * np.arange(7))],
    ids=["1d", "2d"],
)
def test_steady_residual_equals_the_public_stencils_bit_for_bit(grid, stack):
    rng = np.random.default_rng(17)
    gas = GasModel()
    rho, theta, vel = random_state(grid, rng, stack)
    G = 0.05 * rng.random(rho.shape[len(stack):])
    residual = ops.steady_residual_1d if grid.dimension == 1 else ops.steady_residual_2d
    got = residual(grid, gas, TR, G, rho, theta, *vel)
    want = steady_residual_of_public_stencils(grid, gas, G, rho, theta, vel)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # the one check at entry raises as the closures' own checks did
    for bad in ("rho", "theta"):
        fields = {"rho": rho, "theta": theta, bad: -(rho if bad == "rho" else theta)}
        with pytest.raises(ValueError, match=f"{bad} must be positive"):
            residual(grid, gas, TR, G, fields["rho"], fields["theta"], *vel)


@pytest.mark.parametrize(
    "grid", [Grid1D(n=9, theta_bottom=1.1, theta_top=0.95), Grid2D(nx=7, nz=5, theta_bottom=1.05)], ids=["1d", "2d"]
)
def test_step_passing_its_pressure_equals_a_step_with_nothing_shared(grid, monkeypatch):
    rng = np.random.default_rng(3)
    gas = GasModel()
    rho, theta, vel = random_state(grid, rng)
    G = 0.05 * rng.random(rho.shape)
    state = FluidState(grid, 0.0, rho, theta, *vel)
    shared = step(state, 1.0e-3, gas, TR, G)
    for name in ("momentum_explicit_nd", "energy_explicit_nd"):
        # the stencil as the step calls it, but computing its own p
        monkeypatch.setattr(ops, name, lambda *args, p, real=getattr(ops, name): real(*args))
    unshared = step(state, 1.0e-3, gas, TR, G)
    for a, b in zip((shared.rho, shared.theta, *shared.velocity), (unshared.rho, unshared.theta, *unshared.velocity)):
        assert a.tobytes() == b.tobytes()

"""Diagnostics tests: Bregman identity/positivity, the dual-form rounding
probe, exact hand values, indicator partitions, quadrature-order checks, and
the windowed inequality residuals with their sign sensitivity."""

import numpy as np
import pytest

from nsfsim import diagnostics as dg
from nsfsim import simulator as sim
from nsfsim.grids import FluidState, Grid1D, Grid2D, StepControl
from nsfsim.stationary import ProblemConfig, solve_rb_pipeline
from nsfsim.thermo import GasModel, TransportModel, entropy, internal_energy, transport

GAS = GasModel()
TR = TransportModel()


def uniform_state(n=64, rho=1.0, theta=1.0, grid=None):
    grid = grid or Grid1D(n=n, theta_bottom=theta, theta_top=theta)
    return FluidState(
        grid=grid, t=0.0, rho=np.full(n, float(rho)), theta=np.full(n, float(theta)), u=np.zeros(n + 1)
    )


def random_state(rng, grid):
    n = grid.n
    return FluidState(
        grid=grid,
        t=0.0,
        rho=rng.uniform(0.1, 10.0, n),
        theta=rng.uniform(0.1, 10.0, n),
        u=np.concatenate([[0.0], rng.uniform(-1.0, 1.0, n - 1), [0.0]]),
    )


def rb_reference(n=64):
    grid = Grid1D(n=n, theta_bottom=1.05, theta_top=1.0)
    config = ProblemConfig(grid=grid, m0=1.0, g=0.01)
    return solve_rb_pipeline(config, GAS, TR), config


# ---------------------------------------------------------------------------
# Relative energy
# ---------------------------------------------------------------------------


def test_relative_energy_vanishes_at_reference():
    reference, _ = rb_reference()
    assert dg.relative_energy(reference, reference, GAS) == 0.0


def test_relative_energy_pure_velocity_offset():
    # only the kinetic term survives when (rho, theta) match the reference:
    # E = (1/2) int rho |delta|^2, exactly, for a uniform face offset
    reference, _ = rb_reference()
    state = reference.copy()
    state.u = state.u + 0.01
    expected = 0.5 * np.sum(reference.rho) * reference.grid.dx * 1e-4
    # exact up to the rounding of the cancelling thermodynamic terms
    assert dg.relative_energy(state, reference, GAS) == pytest.approx(expected, abs=1e-16)


def test_relative_energy_bregman_positivity_bulk():
    rng = np.random.default_rng(42)
    grid = Grid1D(n=16, theta_bottom=1.0, theta_top=1.0)
    for _ in range(500):
        a, b = random_state(rng, grid), random_state(rng, grid)
        value = dg.relative_energy(a, b, GAS)
        scale = max(1.0, dg.total_energy(a, GAS))
        assert value >= -1e-12 * scale


def test_relative_energy_dual_form_identity():
    rng = np.random.default_rng(43)
    grid = Grid1D(n=16, theta_bottom=1.0, theta_top=1.0)
    for _ in range(500):
        a, b = random_state(rng, grid), random_state(rng, grid)
        delta = dg.relative_energy_form_delta(a, b, GAS)
        value = dg.relative_energy(a, b, GAS)
        assert abs(delta) <= 1e-12 * max(1.0, value)


def test_dual_form_probe_detects_corruption():
    # corrupting the reference pressure by 1e-6 must move the delta by about
    # 1e-6 |Omega|, proving the identity check is not vacuous
    reference, _ = rb_reference()
    state = reference.copy()
    state.theta = state.theta * 1.1
    honest = dg.relative_energy_form_delta(state, reference, GAS)

    from nsfsim import thermo

    form1, form2 = dg._relative_energy_forms(state, reference, GAS)
    p_r = thermo.pressure(GAS, reference.rho, reference.theta)
    corrupted_form2 = form2 + 1e-6  # pressure enters form two as +p_ref
    delta = float(np.sum(form1 - corrupted_form2) * state.grid.cell_volume)
    assert abs(delta - honest) == pytest.approx(1e-6 * state.grid.volume, rel=1e-9)


def test_relative_energy_grid_mismatch():
    a = uniform_state(n=16)
    b = uniform_state(n=32)
    with pytest.raises(ValueError):
        dg.relative_energy(a, b, GAS)


# ---------------------------------------------------------------------------
# Ballistic energy
# ---------------------------------------------------------------------------


def test_ballistic_energy_uniform_hand_value():
    state = uniform_state(n=64)
    # rho (e - theta s) with e = 5.25, s = ln 2 + 19/4 at (1, 1):
    # 5.25 - (ln 2 + 4.75) = 1/2 - ln 2
    expected = 0.5 - np.log(2.0)
    assert dg.ballistic_energy(state, state.theta, GAS) == pytest.approx(expected, abs=1e-14)


def test_ballistic_energy_drops_kinetic_term_at_rest():
    reference, _ = rb_reference()
    value = dg.ballistic_energy(reference, reference.theta, GAS)
    e = internal_energy(GAS, reference.rho, reference.theta)
    s = entropy(GAS, reference.rho, reference.theta)
    expected = float(np.sum(reference.rho * (e - reference.theta * s)) * reference.grid.dx)
    assert value == pytest.approx(expected, rel=1e-14)


def test_ballistic_energy_monotone_in_kinetic_energy():
    reference, _ = rb_reference()
    state = reference.copy()
    low = dg.ballistic_energy(state, reference.theta, GAS)
    state.u = state.u + 0.1
    high = dg.ballistic_energy(state, reference.theta, GAS)
    assert high > low


def test_ballistic_energy_trace_violation():
    state = uniform_state(n=64)
    with pytest.raises(ValueError):
        dg.ballistic_energy(state, state.theta + 0.5, GAS)
    with pytest.raises(ValueError):
        dg.ballistic_energy(state, -state.theta, GAS)


# ---------------------------------------------------------------------------
# Entropy production
# ---------------------------------------------------------------------------


def test_entropy_production_zero_at_rest_isothermal():
    state = uniform_state(n=64)
    sigma, total = dg.entropy_production(state, GAS, TR)
    assert np.max(np.abs(sigma)) == 0.0
    assert total == 0.0


def test_entropy_production_pure_shear_2d():
    # u = gamma * z at unit temperature: S : grad u = mu gamma^2 (div-free)
    gamma = 0.3
    grid = Grid2D(nx=8, nz=16, theta_bottom=1.0, theta_top=1.0)
    Zc = grid.z_centers()
    u = np.tile(gamma * Zc, (8, 1))
    state = FluidState(
        grid=grid, t=0.0, rho=np.ones((8, 16)), theta=np.ones((8, 16)),
        u=u, w=np.zeros((8, 17)),
    )
    sigma, total = dg.entropy_production(state, GAS, TR)
    mu = float(transport(TR, 1.0)[0])
    # interior cells see the exact shear rate; wall cells the reflected one
    assert np.max(np.abs(sigma[:, 1:-1] - mu * gamma**2)) < 1e-12
    assert np.all(sigma >= 0.0)


def test_entropy_production_nonnegative_random():
    rng = np.random.default_rng(3)
    grid = Grid1D(n=32, theta_bottom=1.0, theta_top=1.0)
    for _ in range(50):
        sigma, total = dg.entropy_production(random_state(rng, grid), GAS, TR)
        assert np.min(sigma) >= 0.0
        assert total >= 0.0


# ---------------------------------------------------------------------------
# Absorbing-set norms
# ---------------------------------------------------------------------------


def test_absorbing_norms_unit_constants():
    state = uniform_state(n=64)
    assert dg.absorbing_norms(state) == pytest.approx((0.0, 1.0, 1.0), abs=1e-14)


def test_absorbing_norms_constant_density():
    state = uniform_state(n=64, rho=2.0)
    assert dg.absorbing_norms(state)[1] == pytest.approx(2.0, rel=1e-14)


def test_absorbing_norms_theta_homogeneity():
    state = uniform_state(n=64)
    scaled = state.copy()
    scaled.theta = 3.0 * scaled.theta
    assert dg.absorbing_norms(scaled)[2] == pytest.approx(3.0 * dg.absorbing_norms(state)[2], rel=1e-14)


# ---------------------------------------------------------------------------
# Dissipation and damping functionals
# ---------------------------------------------------------------------------


def test_dissipation_zero_at_reference():
    reference, _ = rb_reference()
    thr = dg.Thresholds.from_reference(reference)
    values = dg.dissipation_functionals(reference, reference, TR, thr)
    assert all(v == 0.0 for v in values.values())


def test_dissipation_sine_profile_sobolev_norm():
    # u - u_s = d sin(pi x): |.|^2_{W^{1,2}} = d^2 (1/2 + pi^2/2) up to the
    # midpoint quadrature error O(dx^2)
    reference, _ = rb_reference(n=256)
    thr = dg.Thresholds.from_reference(reference)
    state = reference.copy()
    d = 0.01
    state.u = state.u + d * np.sin(np.pi * reference.grid.faces())
    values = dg.dissipation_functionals(state, reference, TR, thr)
    exact = d**2 * (0.5 + np.pi**2 / 2.0)
    assert values["u_h1_sq"] == pytest.approx(exact, rel=5e-4)


def test_dissipation_indicator_partition():
    # the two kappa-weighted integrals over the outer regions plus the middle
    # region reproduce the unrestricted integral
    reference, _ = rb_reference()
    rng = np.random.default_rng(12)
    state = reference.copy()
    state.theta = rng.uniform(0.3, 4.0, reference.grid.n)  # straddles both thresholds
    thr = dg.Thresholds.from_reference(reference)
    values = dg.dissipation_functionals(state, reference, TR, thr)

    grads = dg._grad_theta_centers(state)
    grad_sq = sum(g**2 for g in grads)
    _, _, kappa = transport(TR, state.theta)
    weight = kappa / state.theta**2 * grad_sq
    full = float(np.sum(weight) * state.grid.dx)
    middle_mask = (state.theta > thr.theta_low) & (state.theta < thr.theta_high)
    middle = float(np.sum(np.where(middle_mask, weight, 0.0)) * state.grid.dx)
    assert values["kappa_weighted_grad_sq"] + middle == pytest.approx(full, rel=1e-12)


def test_damping_functionals_cases():
    reference, _ = rb_reference()
    thr = dg.Thresholds.from_reference(reference)
    assert dg.damping_functionals(reference, reference, thr) == (0.0, 0.0, 0.0)

    high = reference.copy()
    high.rho = np.full_like(high.rho, thr.rho_high + 1.0)
    mid, hi, lo = dg.damping_functionals(high, reference, thr)
    assert (mid, lo) == (0.0, 0.0)
    assert hi == pytest.approx((thr.rho_high + 1.0) ** (5.0 / 3.0) * high.grid.volume, rel=1e-13)

    low = reference.copy()
    low.rho = np.full_like(low.rho, 0.5 * thr.rho_low)
    mid, hi, lo = dg.damping_functionals(low, reference, thr)
    assert (mid, hi) == (0.0, 0.0)
    assert lo == pytest.approx(low.grid.volume, rel=1e-14)


def test_damping_regions_partition_domain():
    reference, _ = rb_reference()
    thr = dg.Thresholds.from_reference(reference)
    rng = np.random.default_rng(5)
    state = reference.copy()
    state.rho = rng.uniform(0.05, 5.0, reference.grid.n)
    lo_m = np.sum(state.rho < thr.rho_low)
    mid_m = np.sum((state.rho >= thr.rho_low) & (state.rho <= thr.rho_high))
    hi_m = np.sum(state.rho > thr.rho_high)
    assert lo_m + mid_m + hi_m == reference.grid.n


def test_thresholds_admissibility():
    reference, _ = rb_reference()
    thr = dg.Thresholds.from_reference(reference)
    thr.check_admissible(reference)  # extreme admissible choice passes
    bad = dg.Thresholds(theta_low=0.9, theta_high=2.5, rho_low=0.4, rho_high=2.2)
    with pytest.raises(ValueError):
        dg.dissipation_functionals(reference, reference, TR, bad)


def test_reflection_invariance_1d():
    # mirroring state and reference (with swapped plates) leaves every
    # functional unchanged
    reference, config = rb_reference()
    rng = np.random.default_rng(9)
    state = reference.copy()
    state.rho = state.rho + 0.05 * rng.standard_normal(state.grid.n)
    state.theta = state.theta + 0.02 * rng.standard_normal(state.grid.n)
    state.u[1:-1] = 0.03 * rng.standard_normal(state.grid.n - 1)

    mirror_grid = Grid1D(
        n=state.grid.n, theta_bottom=state.grid.theta_top, theta_top=state.grid.theta_bottom
    )

    def mirror(s):
        return FluidState(
            grid=mirror_grid, t=s.t, rho=s.rho[::-1].copy(),
            theta=s.theta[::-1].copy(), u=-s.u[::-1].copy(),
        )

    thr = dg.Thresholds.from_reference(reference)
    a = dg.make_diagnostics(reference, GAS, TR, thr)(state)
    b = dg.make_diagnostics(mirror(reference), GAS, TR, thr)(mirror(state))
    for name in dg.RECORD_FIELDS:
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=1e-13), name


def perturbed_pair(dimension):
    """A reference and a state off it with non-zero velocity everywhere."""
    rng = np.random.default_rng(5)
    if dimension == 1:
        reference, _ = rb_reference()
    else:
        grid = Grid2D(nx=8, nz=6, theta_bottom=1.05, theta_top=1.0)
        reference = solve_rb_pipeline(ProblemConfig(grid=grid, m0=grid.volume, g=(0.0, 0.01)), GAS, TR)
        reference = reference.copy()
        reference.u = 0.01 * rng.standard_normal(reference.u.shape)
    state = reference.copy()
    state.t = 0.25
    state.rho = state.rho * (1.0 + 0.05 * rng.standard_normal(state.rho.shape))
    state.theta = state.theta * (1.0 + 0.02 * rng.standard_normal(state.theta.shape))
    for v in state.velocity:
        v[..., 1:-1] += 0.03 * rng.standard_normal(v[..., 1:-1].shape)
    return reference, state


@pytest.mark.parametrize("dimension", [1, 2])
def test_record_equals_the_public_functions_bit_for_bit(dimension):
    reference, state = perturbed_pair(dimension)
    thr = dg.Thresholds.from_reference(reference)
    record = dg.make_diagnostics(reference, GAS, TR, thr)(state)
    _, sigma = dg.entropy_production(state, GAS, TR)
    norms = dg.absorbing_norms(state)
    diss = dg.dissipation_functionals(state, reference, TR, thr)
    damping = dg.damping_functionals(state, reference, thr)
    want = {
        "t": 0.25,
        "mass": state.total_mass(),
        "total_energy": dg.total_energy(state, GAS),
        "relative_energy": dg.relative_energy(state, reference, GAS),
        "relative_energy_form_delta": dg.relative_energy_form_delta(state, reference, GAS),
        "ballistic_energy": dg.ballistic_energy(state, reference.theta, GAS),
        "entropy_production_integral": sigma,
        **dict(zip(["norm_momentum_54", "norm_rho_53", "norm_theta_4"], norms)),
        **diss,
        **dict(zip(["damping_mid", "damping_high", "damping_low"], damping)),
    }
    assert sorted(want) == sorted(dg.RECORD_FIELDS)
    assert record.relative_energy > 0.0 and record.u_h1_sq > 0.0
    for name in dg.RECORD_FIELDS:
        assert getattr(record, name) == want[name], name


def test_record_function_checks_its_fixed_inputs_once_with_the_same_errors():
    reference, state = perturbed_pair(1)
    bad = dg.Thresholds(theta_low=0.9, theta_high=2.5, rho_low=0.4, rho_high=2.2)
    with pytest.raises(ValueError, match="theta_low exceeds half the reference minimum"):
        dg.dissipation_functionals(state, reference, TR, bad)
    with pytest.raises(ValueError, match="theta_low exceeds half the reference minimum"):
        dg.make_diagnostics(reference, GAS, TR, bad)
    # a reference temperature off the plates fails the ballistic trace check
    shifted = reference.copy()
    shifted.theta = shifted.theta + 0.5
    with pytest.raises(ValueError, match="boundary temperature trace"):
        dg.ballistic_energy(state, shifted.theta, GAS)
    with pytest.raises(ValueError, match="boundary temperature trace"):
        dg.make_diagnostics(shifted, GAS, TR)
    compute = dg.make_diagnostics(reference, GAS, TR)
    coarse = uniform_state(n=32)
    with pytest.raises(ValueError, match="different grids"):
        dg.relative_energy(coarse, reference, GAS)
    with pytest.raises(ValueError, match="different grids"):
        compute(coarse)


# ---------------------------------------------------------------------------
# Inequality residuals
# ---------------------------------------------------------------------------


def test_inequality_residuals_zero_on_stationary_trajectory():
    reference, config = rb_reference()
    samples = [(0.0, reference), (0.7, reference.copy()), (1.4, reference.copy())]
    er, br = dg.inequality_residuals(samples, reference, GAS, TR, config.potential_field())
    assert abs(er) < 1e-13
    assert abs(br) < 1e-13


def test_inequality_residuals_on_decaying_run():
    reference, config = rb_reference(n=64)
    G = config.potential_field()
    state = reference.copy()
    x = state.grid.centers()
    state.theta = state.theta + 0.01 * np.sin(np.pi * x)
    state.u[1:-1] = state.u[1:-1] + 0.01 * np.sin(np.pi * state.grid.faces()[1:-1])
    result = sim.run(
        state, 1.0, StepControl(), GAS, TR, G,
        diagnostics=dg.make_diagnostics(reference, GAS, TR), cadence=0.05,
    )
    er, br = dg.inequality_residuals(result.samples, reference, GAS, TR, G)
    assert er >= -1e-6
    assert br >= -1e-4  # discretisation tolerance at 64 cells


def test_inequality_residual_sign_sensitivity():
    # negating the dissipation rate flips the entropy residual sign: the
    # check is not vacuous
    reference, config = rb_reference(n=64)
    G = config.potential_field()
    state = reference.copy()
    x = state.grid.centers()
    state.theta = state.theta + 0.01 * np.sin(np.pi * x)
    result = sim.run(
        state, 1.0, StepControl(), GAS, TR, G,
        diagnostics=dg.make_diagnostics(reference, GAS, TR), cadence=0.1,
    )
    times = [t for t, _ in result.samples]
    states = [s for _, s in result.samples]
    s_tot = [dg.total_entropy(s, GAS) for s in states]
    rates = [dg._entropy_balance_rates(s, GAS, TR) for s in states]
    net = [p - f for p, f in rates]
    honest = s_tot[-1] - s_tot[0] - dg._trapezoid(times, net)
    flipped = s_tot[-1] - s_tot[0] - dg._trapezoid(times, [-v for v in net])
    assert honest > 0.0
    assert flipped < 0.0
    assert honest != pytest.approx(flipped)


def test_inequality_residuals_need_two_samples():
    reference, _ = rb_reference(n=16)
    with pytest.raises(ValueError):
        dg.inequality_residuals([(0.0, reference)], reference, GAS, TR)

"""Constitutive closure tests: hand-evaluated oracles, finite-difference
cross-checks, quadrature cross-validation, and hypothesis certification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from nsfsim import thermo
from nsfsim.thermo import (
    GasModel,
    QuadratureFailure,
    TransportModel,
    conductivity_primitive,
    energy_partial_theta,
    entropy,
    entropy_kernel,
    entropy_partials,
    gibbs_residual,
    internal_energy,
    invert_conductivity_primitive,
    pressure,
    pressure_molecular,
    pressure_partials,
    sound_speed,
    temperature_from_energy,
    transport,
    validate_hypotheses,
)

GAS = GasModel()  # p_inf=1, a=3, P_m(Z) = Z/(1+Z)
TR = TransportModel()  # mu0=kappa0=1, eta0=0, beta=7


def measured_order(values, factor=2.0):
    """Convergence order from a sequence of errors at step ratios ``factor``."""
    values = np.abs(np.asarray(values, dtype=float))
    return np.log(values[:-1] / values[1:]) / np.log(factor)


# ---------------------------------------------------------------------------
# Pressure
# ---------------------------------------------------------------------------


def test_pressure_hand_values():
    # 1*1^{5/3} + 1^{5/2}*(1/(1+1)) + (3/3)*1^4
    assert pressure(GAS, 1.0, 1.0) == pytest.approx(2.5, abs=1e-15)
    # 2^{5/3} + 2/3 + 1
    assert pressure(GAS, 2.0, 1.0) == pytest.approx(2.0 ** (5.0 / 3.0) + 2.0 / 3.0 + 1.0, rel=1e-14)


def test_pressure_radiation_floor():
    # rho -> 0 leaves only the radiation term a/3 * theta^4
    assert pressure(GAS, 1e-12, 1.0) == pytest.approx(1.0, abs=1e-11)


def test_pressure_three_term_split():
    # p = p_inf rho^{5/3} + p_m + (a/3) theta^4, term by term, and the
    # equivalent single-kernel form theta^{5/2} P(Z) + radiation
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.1, 10.0, 200)
    theta = rng.uniform(0.1, 10.0, 200)
    p = pressure(GAS, rho, theta)
    pm = pressure_molecular(GAS, rho, theta)
    split = GAS.p_inf * rho ** (5.0 / 3.0) + pm + GAS.a / 3.0 * theta**4
    assert np.max(np.abs(p - split)) == 0.0
    kernel_form = theta**2.5 * GAS.p_kernel(rho / theta**1.5) + GAS.a / 3.0 * theta**4
    assert np.max(np.abs(p - kernel_form) / np.abs(p)) < 1e-13


def test_pressure_increasing_in_rho():
    theta = 1.3
    rhos = np.linspace(0.05, 8.0, 300)
    p = pressure(GAS, rhos, theta)
    assert np.all(np.diff(p) > 0.0)


def test_pressure_domain_errors():
    with pytest.raises(ValueError):
        pressure(GAS, -1.0, 1.0)
    with pytest.raises(ValueError):
        pressure(GAS, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Internal energy
# ---------------------------------------------------------------------------


def test_internal_energy_hand_value():
    # (3/2)*(1/1)*P(1) + 3 with P(1) = 1 + 1/2
    assert internal_energy(GAS, 1.0, 1.0) == pytest.approx(5.25, abs=1e-15)


def test_internal_energy_cold_limit():
    # theta -> 0 at rho = 1: the molecular and radiation parts vanish, the
    # degenerate part leaves the zero-point energy (3/2) p_inf rho^{2/3}
    values = [float(internal_energy(GAS, 1.0, th)) for th in (1e-2, 1e-4, 1e-6)]
    assert abs(values[-1] - 1.5 * GAS.p_inf) < 1e-10
    assert values[0] > values[1] > values[2]


def test_internal_energy_monotone_in_theta():
    assert internal_energy(GAS, 1.0, 1.1) > internal_energy(GAS, 1.0, 1.0)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.1, 10.0, 500)
    theta = rng.uniform(0.1, 10.0, 500)
    de = internal_energy(GAS, rho, theta * 1.01) - internal_energy(GAS, rho, theta)
    assert np.all(de > 0.0)


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def test_entropy_hand_value():
    # S(1) = ln 2 + 3/4, radiation part 4a/3 = 4
    expected = np.log(2.0) + 0.75 + 4.0
    assert entropy(GAS, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)


def test_entropy_kernel_third_law_tail():
    assert float(entropy_kernel(GAS, np.float64(1e6))) == pytest.approx(2.5e-6, rel=1e-3)
    assert float(entropy_kernel(GAS, np.float64(1e8))) < 1e-7


def test_entropy_kernel_lower_bound_and_decay():
    z = np.geomspace(1e-4, 1e4, 400)
    kernel = entropy_kernel(GAS, z)
    assert np.all(kernel >= 1.5 * GAS.pm(z) / z - 1e-15)
    assert np.all(np.diff(kernel) < 0.0)


def test_entropy_quadrature_matches_closed_form():
    gas_quad = GasModel(
        pm_kind="custom",
        pm_custom=(lambda z: z / (1.0 + z), lambda z: 1.0 / (1.0 + z) ** 2),
    )
    z = np.geomspace(1e-3, 1e3, 100)
    closed = entropy_kernel(GAS, z)
    quad = entropy_kernel(gas_quad, z)
    assert np.max(np.abs(quad - closed) / np.abs(closed)) < 1e-10


def test_entropy_quadrature_failure_signals_bad_kernel():
    bad = GasModel(pm_kind="custom", pm_custom=(lambda z: z**1.5, lambda z: 1.5 * z**0.5))
    with pytest.raises(QuadratureFailure):
        entropy_kernel(bad, np.float64(1.0))


# ---------------------------------------------------------------------------
# Partial derivatives
# ---------------------------------------------------------------------------


def test_pressure_partials_hand_value():
    dp_drho, dp_dtheta = pressure_partials(GAS, 1.0, 1.0)
    assert dp_drho == pytest.approx(5.0 / 3.0 + 0.25, rel=1e-14)
    # (3/2)*X(1) + 4a/3 with X(1) = (5/3 * 1/2 - 1/4) = 7/12
    assert dp_dtheta == pytest.approx(1.5 * 7.0 / 12.0 + 4.0, rel=1e-14)


def test_thermodynamic_stability_random_grid():
    rng = np.random.default_rng(0)
    rho = rng.uniform(1e-3, 10.0, 10_000)
    theta = rng.uniform(1e-3, 10.0, 10_000)
    dp_drho, _ = pressure_partials(GAS, rho, theta)
    e_theta = energy_partial_theta(GAS, rho, theta)
    assert np.all(dp_drho > 0.0)
    assert np.all(e_theta > 0.0)


@pytest.mark.parametrize("which", ["dp_drho", "dp_dtheta", "e_theta"])
def test_partials_match_central_differences(which):
    rng = np.random.default_rng(3)
    errors = []
    steps = [1e-2, 5e-3, 2.5e-3]
    points = rng.uniform(0.5, 3.0, (10, 2))
    for h in steps:
        worst = 0.0
        for rho, theta in points:
            if which == "dp_drho":
                exact = pressure_partials(GAS, rho, theta)[0]
                fd = (pressure(GAS, rho + h, theta) - pressure(GAS, rho - h, theta)) / (2 * h)
            elif which == "dp_dtheta":
                exact = pressure_partials(GAS, rho, theta)[1]
                fd = (pressure(GAS, rho, theta + h) - pressure(GAS, rho, theta - h)) / (2 * h)
            else:
                exact = energy_partial_theta(GAS, rho, theta)
                fd = (internal_energy(GAS, rho, theta + h) - internal_energy(GAS, rho, theta - h)) / (2 * h)
            worst = max(worst, abs(fd - exact))
        errors.append(worst)
    orders = measured_order(errors)
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_energy_partial_radiation_dominated():
    rho, theta = 1e-3, 10.0
    full = float(energy_partial_theta(GAS, rho, theta))
    radiation = 4.0 * GAS.a * theta**3 / rho
    assert abs(full - radiation) / full < 0.05


def test_molecular_pressure_theta_partial_nonnegative():
    # d p_m / d theta = (3/2) theta^{3/2} ((5/3) P_m - P_m' Z) >= 0,
    # cross-checked against central differences
    rng = np.random.default_rng(9)
    rho = rng.uniform(0.05, 10.0, 2000)
    theta = rng.uniform(0.05, 10.0, 2000)
    z = rho / theta**1.5
    analytic = 1.5 * theta**1.5 * GAS.pm_excess(z)
    assert np.all(analytic >= 0.0)
    h = 1e-6 * np.maximum(1.0, theta)
    fd = (pressure_molecular(GAS, rho, theta + h) - pressure_molecular(GAS, rho, theta - h)) / (2 * h)
    assert np.max(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))) < 1e-7


# ---------------------------------------------------------------------------
# Gibbs relation
# ---------------------------------------------------------------------------


def test_gibbs_residuals_small_at_unit_state():
    res1, res2 = gibbs_residual(GAS, 1.0, 1.0, 1e-4)
    assert abs(res1) < 1e-6
    assert abs(res2) < 1e-6


def test_gibbs_residuals_second_order():
    rng = np.random.default_rng(21)
    for rho, theta in rng.uniform(0.5, 3.0, (5, 2)):
        r1a, r2a = gibbs_residual(GAS, rho, theta, 1e-3)
        r1b, r2b = gibbs_residual(GAS, rho, theta, 5e-4)
        # h-halving reduces an O(h^2) residual by about 4
        assert abs(r1a / r1b) == pytest.approx(4.0, rel=0.25)
        assert abs(r2a / r2b) == pytest.approx(4.0, rel=0.25)


def test_gibbs_identity_exact_for_degenerate_radiation_gas():
    # with P_m = 0 both Gibbs identities hold in closed form:
    # e = (3/2) p_inf rho^{2/3} + a theta^4 / rho, s = (4a/3) theta^3 / rho
    gas = GasModel(pm_gain=0.0)
    rng = np.random.default_rng(2)
    for rho, theta in rng.uniform(0.2, 5.0, (20, 2)):
        ds_drho, ds_dtheta = entropy_partials(gas, rho, theta)
        e_theta = energy_partial_theta(gas, rho, theta)
        de_drho = gas.p_inf * rho ** (-1.0 / 3.0) - gas.a * theta**4 / rho**2
        res1 = theta * ds_dtheta - e_theta
        res2 = theta * ds_drho - (de_drho - pressure(gas, rho, theta) / rho**2)
        assert abs(res1) < 1e-12 * max(1.0, abs(e_theta))
        assert abs(res2) < 1e-12 * max(1.0, abs(de_drho))


def test_gibbs_residual_rejects_bad_step():
    with pytest.raises(ValueError):
        gibbs_residual(GAS, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gibbs_residual(GAS, 0.1, 0.1, 0.2)


# ---------------------------------------------------------------------------
# Transport and the conductivity primitive
# ---------------------------------------------------------------------------


def test_transport_hand_values():
    assert transport(TR, 1.0) == (2.0, 0.0, 2.0)
    _, _, kappa = transport(TR, 2.0)
    assert kappa == pytest.approx(129.0, abs=1e-12)


def test_transport_monotone_kappa():
    thetas = np.linspace(0.2, 5.0, 50)
    _, _, kappa = transport(TR, thetas)
    assert np.all(np.diff(kappa) > 0.0)


def test_transport_model_validation():
    with pytest.raises(ValueError):
        TransportModel(beta=6.0)
    with pytest.raises(ValueError):
        TransportModel(mu0=0.0)
    with pytest.raises(ValueError):
        TransportModel(eta0=-1.0)
    TransportModel(beta=6.5)  # admissible


def test_conductivity_primitive_roundtrip():
    thetas = np.geomspace(1e-3, 50.0, 64)
    values = conductivity_primitive(TR, thetas)
    back = invert_conductivity_primitive(TR, values)
    assert np.max(np.abs(back - thetas) / thetas) < 1e-12


def test_conductivity_inversion_stops_once_converged(monkeypatch):
    # A Newton step that rounds to no change at theta = hi used to count as
    # leaving the bracket, and the cell then bisected toward lo: the rb-1d-small
    # plates at n = 1024 took 60 iterations; converged cells now stop (7).
    n = 1024
    k_bottom, k_top = (float(conductivity_primitive(TR, np.float64(t))) for t in (1.05, 1.0))
    values = k_bottom + (k_top - k_bottom) * (np.arange(n) + 0.5) / n
    iterations = []
    real = thermo.conductivity_primitive

    def counted(model, theta):
        iterations.append(1)
        return real(model, theta)

    monkeypatch.setattr(thermo, "conductivity_primitive", counted)
    invert_conductivity_primitive(TR, values)
    assert len(iterations) <= 10


@settings(max_examples=40, deadline=None)
@given(
    thetas=hst.lists(hst.floats(0.5, 50.0), min_size=1, max_size=64),
    kappa0=hst.floats(0.1, 10.0),
    beta=hst.floats(6.1, 12.0),
)
def test_conductivity_inversion_ends_at_a_newton_fixed_point(thetas, kappa0, beta):
    # Every cell stops where the Newton step rounds to no change, or where K
    # hits the target exactly.  From theta = 0.5 up one ulp exceeds the
    # stopping test's 1e-16 max(1, theta); below, a last one-ulp step down
    # passes it, and a step up, which starts below the root, never does.
    model = TransportModel(kappa0=kappa0, beta=beta)
    values = conductivity_primitive(model, np.array(thetas))
    theta = invert_conductivity_primitive(model, values)
    f = conductivity_primitive(model, theta) - values
    fixed = theta - f / thermo._conductivity_raw(model, theta) == theta
    assert np.all(fixed | (f == 0.0))


def test_temperature_from_energy_roundtrip_and_floor():
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.2, 5.0, 128)
    theta = rng.uniform(0.2, 5.0, 128)
    evol = rho * internal_energy(GAS, rho, theta)
    back = temperature_from_energy(GAS, rho, evol, guess=np.full_like(rho, 1.0))
    assert np.max(np.abs(back - theta) / theta) < 1e-10
    with pytest.raises(ValueError):
        temperature_from_energy(GAS, np.array([1.0]), np.array([1.0]))  # below 3/2 p_inf


def test_sound_speed_hand_value():
    # c^2 = dp/drho + theta (dp/dtheta)^2 / (rho^2 de/dtheta) at (1, 1)
    dp_drho, dp_dtheta = pressure_partials(GAS, 1.0, 1.0)
    e_theta = energy_partial_theta(GAS, 1.0, 1.0)
    expected = np.sqrt(dp_drho + dp_dtheta**2 / e_theta)
    assert sound_speed(GAS, 1.0, 1.0) == pytest.approx(float(expected), rel=1e-14)
    assert float(sound_speed(GAS, 1.0, 1.0)) == pytest.approx(1.92402649, rel=1e-8)


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------


def test_validator_default_model_passes():
    report = validate_hypotheses(GAS)
    assert report.passed
    # derived clean bound on the stability ratio is (5/3) sup P_m/Z = 5/3
    assert report.c_bound == pytest.approx(5.0 / 3.0, abs=1e-4)
    # the observed ratio supremum is (2/3 + 5Z/3)/(1+Z)^2 maximised at Z=1/5
    assert report.ratio_sup == pytest.approx(25.0 / 36.0, rel=1e-6)
    assert report.ratio_inf > 0.0
    assert report.min_second_derivative > 0.0
    assert report.s_tail_value < 1e-5


def test_validator_degenerate_model_flags_ratio():
    # pure p_inf Z^{5/3}: the stability-ratio numerator vanishes identically
    report = validate_hypotheses(GasModel(pm_gain=0.0))
    assert not report.passed
    assert not report.checks["stability_ratio_positive"]
    assert report.checks["p_convex"]


def test_validator_report_text_roundtrip():
    text = validate_hypotheses(GAS).to_text()
    assert "pass_all = True" in text
    parsed = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(parsed["c_bound"]) == pytest.approx(5.0 / 3.0, abs=1e-4)


def test_validator_rejects_bad_grid():
    with pytest.raises(ValueError):
        validate_hypotheses(GAS, grid=np.array([1.0, 0.5, 2.0]))


def test_gas_model_validation():
    with pytest.raises(ValueError):
        GasModel(p_inf=0.0)
    with pytest.raises(ValueError):
        GasModel(a=-1.0)
    with pytest.raises(ValueError):
        GasModel(pm_kind="custom")

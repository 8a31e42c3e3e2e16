"""Constitutive closures for a monoatomic gas with thermal radiation.

The gas is described in terms of the degeneracy variable Z = rho / theta^(3/2)
and a molecular pressure kernel P(Z) = p_inf * Z^(5/3) + P_m(Z):

    p(rho, theta) = p_inf * rho^(5/3) + theta^(5/2) * P_m(Z) + (a/3) * theta^4
    e(rho, theta) = (3/2) * theta^(5/2) / rho * P(Z) + a * theta^4 / rho
    s(rho, theta) = S(Z) + (4a/3) * theta^3 / rho

where the entropy kernel S solves S'(Z) = -(3/2) * ((5/3) P(Z) - P'(Z) Z) / Z^2
and is normalised by S(Z) -> 0 as Z -> infinity (Third law).  The p_inf part of
P drops out of S', so S depends on P_m alone.

Transport coefficients grow with temperature:

    mu(theta)    = mu0 * (1 + theta)
    eta(theta)   = eta0 * (1 + theta)
    kappa(theta) = kappa0 * (1 + theta^beta),  beta > 6

All functions accept scalars or numpy arrays and are pure; model objects are
frozen dataclasses, safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "GasModel",
    "TransportModel",
    "HypothesisReport",
    "QuadratureFailure",
    "TemperatureInversionError",
    "pressure",
    "pressure_molecular",
    "internal_energy",
    "entropy",
    "entropy_kernel",
    "pressure_partials",
    "energy_partial_theta",
    "entropy_partials",
    "gibbs_residual",
    "sound_speed",
    "viscosities",
    "transport",
    "conductivity_primitive",
    "invert_conductivity_primitive",
    "temperature_from_energy",
    "validate_hypotheses",
]


class QuadratureFailure(RuntimeError):
    """Raised when the entropy tail integral cannot be resolved in budget."""


class TemperatureInversionError(ValueError):
    """The inversion of rho * e for theta did not converge (retriable)."""


def _require_positive(name, value):
    arr = np.asarray(value)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be positive and finite")


def _checked(rho, theta):
    """(rho, theta) as float arrays, each checked positive and finite: the
    check of every public closure, whose ``_raw`` kernel then runs unchecked."""
    _require_positive("rho", rho)
    _require_positive("theta", theta)
    return np.asarray(rho, dtype=float), np.asarray(theta, dtype=float)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GasModel:
    """Equation-of-state parameters.

    Attributes
    ----------
    p_inf : float
        Coefficient of the rho^(5/3) (degenerate) pressure part, > 0.
    a : float
        Radiation constant, > 0.
    pm_gain : float
        Gain r of the default molecular kernel P_m(Z) = r * Z / (1 + Z).
        r = 0 gives the deliberately degenerate pure-p_inf gas used to
        exercise validator failures; r > 0 for physical runs.
    pm_kind : str
        "rational" (default, closed-form entropy kernel) or "custom".
    pm_custom : tuple of callables, optional
        (P_m, P_m') for pm_kind == "custom"; the entropy kernel is then
        obtained by adaptive quadrature of its defining tail integral.
    z_max_validate : float
        Upper end of the numeric validation grid.
    """

    p_inf: float = 1.0
    a: float = 3.0
    pm_gain: float = 1.0
    pm_kind: str = "rational"
    pm_custom: Optional[tuple] = None
    z_max_validate: float = 1.0e3

    def __post_init__(self):
        if self.p_inf <= 0.0:
            raise ValueError("p_inf must be positive")
        if self.a <= 0.0:
            raise ValueError("a (radiation constant) must be positive")
        if self.pm_gain < 0.0:
            raise ValueError("pm_gain must be nonnegative")
        if self.z_max_validate <= 0.0:
            raise ValueError("z_max_validate must be positive")
        if self.pm_kind not in ("rational", "custom"):
            raise ValueError(f"unknown pm_kind {self.pm_kind!r}")
        if self.pm_kind == "custom" and self.pm_custom is None:
            raise ValueError("pm_kind='custom' requires pm_custom=(pm, pm_prime)")

    # -- molecular kernel -------------------------------------------------

    def pm(self, z):
        """P_m(Z) >= 0, P_m(0) = 0."""
        z = np.asarray(z, dtype=float)
        if self.pm_kind == "rational":
            return self.pm_gain * z / (1.0 + z)
        return self.pm_custom[0](z)

    def pm_prime(self, z):
        z = np.asarray(z, dtype=float)
        if self.pm_kind == "rational":
            return self.pm_gain / (1.0 + z) ** 2
        return self.pm_custom[1](z)

    def pm_excess(self, z):
        """(5/3) P_m(Z) - P_m'(Z) Z, the numerator driving the entropy kernel.

        Nonnegative for any admissible kernel; for the rational family it
        simplifies to r * Z * (2/3 + 5Z/3) / (1 + Z)^2.
        """
        z = np.asarray(z, dtype=float)
        if self.pm_kind == "rational":
            return self.pm_gain * z * (2.0 / 3.0 + 5.0 * z / 3.0) / (1.0 + z) ** 2
        return 5.0 / 3.0 * self.pm(z) - self.pm_prime(z) * z

    def p_kernel(self, z):
        """Full kernel P(Z) = p_inf Z^(5/3) + P_m(Z)."""
        z = np.asarray(z, dtype=float)
        return self.p_inf * z ** (5.0 / 3.0) + self.pm(z)

    def p_kernel_prime(self, z):
        z = np.asarray(z, dtype=float)
        return 5.0 / 3.0 * self.p_inf * z ** (2.0 / 3.0) + self.pm_prime(z)

    def p_kernel_second(self, z):
        z = np.asarray(z, dtype=float)
        if self.pm_kind == "rational":
            pm2 = -2.0 * self.pm_gain / (1.0 + z) ** 3
        else:
            # central difference fallback for custom kernels
            h = 1.0e-5 * np.maximum(1.0, z)
            pm2 = (self.pm_prime(z + h) - self.pm_prime(z - h)) / (2.0 * h)
        return 10.0 / 9.0 * self.p_inf * z ** (-1.0 / 3.0) + pm2


@dataclass(frozen=True)
class TransportModel:
    """Temperature-dependent viscosity and heat conductivity coefficients."""

    mu0: float = 1.0
    eta0: float = 0.0
    kappa0: float = 1.0
    beta: float = 7.0

    def __post_init__(self):
        if self.mu0 <= 0.0:
            raise ValueError("mu0 must be positive")
        if self.eta0 < 0.0:
            raise ValueError("eta0 must be nonnegative")
        if self.kappa0 <= 0.0:
            raise ValueError("kappa0 must be positive")
        if self.beta <= 6.0:
            raise ValueError("beta must exceed 6")


# ---------------------------------------------------------------------------
# State functions
# ---------------------------------------------------------------------------


def degeneracy(rho, theta):
    """Z = rho / theta^(3/2)."""
    return np.asarray(rho, dtype=float) / np.asarray(theta, dtype=float) ** 1.5


def pressure_molecular(gas: GasModel, rho, theta):
    """theta^(5/2) * P_m(Z) -- the molecular pressure part."""
    theta = np.asarray(theta, dtype=float)
    return theta ** 2.5 * gas.pm(degeneracy(rho, theta))


def pressure(gas: GasModel, rho, theta):
    """Total pressure: p_inf rho^(5/3) + molecular part + radiation a/3 theta^4."""
    return _pressure_raw(gas, *_checked(rho, theta))


def _pressure_raw(gas: GasModel, rho, theta):
    return (
        gas.p_inf * rho ** (5.0 / 3.0)
        + pressure_molecular(gas, rho, theta)
        + gas.a / 3.0 * theta ** 4
    )


def internal_energy(gas: GasModel, rho, theta):
    """Specific internal energy e(rho, theta).

    The p_inf part contributes the temperature-independent zero-point term
    (3/2) p_inf rho^(2/3); the molecular and radiation parts vanish with theta.
    """
    return _internal_energy_raw(gas, *_checked(rho, theta))


def _internal_energy_raw(gas: GasModel, rho, theta):
    z = degeneracy(rho, theta)
    return (
        1.5 * gas.p_inf * rho ** (2.0 / 3.0)
        + 1.5 * theta ** 2.5 / rho * gas.pm(z)
        + gas.a * theta ** 4 / rho
    )


_S66_TAIL_TRUNCATION = 1.0e8
_S66_RELATIVE_TOL = 1.0e-12


def entropy_kernel(gas: GasModel, z):
    """Entropy kernel S(Z), normalised to vanish as Z -> infinity.

    For the rational family the antiderivative is closed form:

        S(Z) = r * ( log(1 + 1/Z) + (3/2) / (1 + Z) )

    Custom kernels fall back to adaptive quadrature of the tail integral
    (3/2) * int_Z^inf ((5/3) P_m(s) - P_m'(s) s) / s^2 ds, truncated at
    Z = 1e8 with an explicit remainder estimate.  A remainder estimate that
    cannot be driven below tolerance signals a kernel whose entropy does not
    obey the Third-law normalisation.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("entropy kernel argument Z must be positive")
    if gas.pm_kind == "rational":
        return gas.pm_gain * (np.log1p(1.0 / z) + 1.5 / (1.0 + z))
    from scipy.integrate import quad  # only custom kernels integrate

    def integrand_log(t):
        # substitution s = exp(t): int f(s) ds = int f(e^t) e^t dt
        s = np.exp(t)
        return gas.pm_excess(s) / s

    def one(zv):
        upper = max(_S66_TAIL_TRUNCATION, 10.0 * zv)
        # integrate decade by decade in log s; the substituted integrand is
        # mild on each panel even though the range spans many decades
        edges = [zv]
        while edges[-1] < upper:
            edges.append(min(10.0 * edges[-1], upper))
        val = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            piece, _ = quad(
                integrand_log, np.log(a), np.log(b),
                epsabs=1.0e-16, epsrel=_S66_RELATIVE_TOL, limit=200,
            )
            val += piece
        # Asymptotic remainder, valid once the excess (5/3)P_m - P_m' Z has
        # settled: int_T^inf excess/s^2 ds ~ excess(T)/T.  A tail that is
        # still growing across the last decade signals a kernel whose entropy
        # cannot satisfy the Third-law normalisation.
        tail_now = float(gas.pm_excess(np.float64(upper)))
        tail_prev = float(gas.pm_excess(np.float64(0.1 * upper)))
        if not np.isfinite(val) or tail_now > 1.05 * tail_prev + 1.0e-13:
            raise QuadratureFailure(
                "entropy tail integral did not converge; the molecular kernel "
                "is incompatible with the Third-law normalisation"
            )
        return 1.5 * (val + tail_now / upper)

    if z.ndim == 0:
        return np.float64(one(float(z)))
    return np.array([one(float(v)) for v in z.ravel()]).reshape(z.shape)


def entropy(gas: GasModel, rho, theta):
    """Specific entropy s(rho, theta) = S(Z) + (4a/3) theta^3 / rho."""
    return _entropy_raw(gas, *_checked(rho, theta))


def _entropy_raw(gas: GasModel, rho, theta):
    return entropy_kernel(gas, degeneracy(rho, theta)) + 4.0 * gas.a / 3.0 * theta ** 3 / rho


# ---------------------------------------------------------------------------
# Partial derivatives
# ---------------------------------------------------------------------------


def pressure_partials(gas: GasModel, rho, theta):
    """(dp/drho, dp/dtheta), analytic.

    dp/drho = (5/3) p_inf rho^(2/3) + theta P_m'(Z) > 0 (thermodynamic
    stability); dp/dtheta = (3/2) theta^(3/2) ((5/3)P_m - P_m' Z) + (4a/3) theta^3.
    """
    return _pressure_partials_raw(gas, *_checked(rho, theta))


def _pressure_partials_raw(gas: GasModel, rho, theta):
    z = degeneracy(rho, theta)
    dp_drho = 5.0 / 3.0 * gas.p_inf * rho ** (2.0 / 3.0) + theta * gas.pm_prime(z)
    dp_dtheta = 1.5 * theta ** 1.5 * gas.pm_excess(z) + 4.0 * gas.a / 3.0 * theta ** 3
    return dp_drho, dp_dtheta


def energy_partial_theta(gas: GasModel, rho, theta):
    """de/dtheta = (9/4) theta^(3/2)/rho * ((5/3)P - P'Z) + 4a theta^3 / rho > 0."""
    return _energy_partial_theta_raw(gas, *_checked(rho, theta))


def _energy_partial_theta_raw(gas: GasModel, rho, theta):
    z = degeneracy(rho, theta)
    return 2.25 * theta ** 1.5 / rho * gas.pm_excess(z) + 4.0 * gas.a * theta ** 3 / rho


def entropy_partials(gas: GasModel, rho, theta):
    """(ds/drho, ds/dtheta), analytic, valid for the rational family.

    Uses S'(Z) = -(3/2) ((5/3)P_m - P_m'Z) / Z^2; together with the pressure
    and energy partials these satisfy the Gibbs relation identically.
    """
    return _entropy_partials_raw(gas, *_checked(rho, theta))


def _entropy_partials_raw(gas: GasModel, rho, theta):
    z = degeneracy(rho, theta)
    kernel_prime = -1.5 * gas.pm_excess(z) / z**2
    ds_drho = kernel_prime * theta ** (-1.5) - 4.0 * gas.a / 3.0 * theta ** 3 / rho ** 2
    ds_dtheta = -1.5 * z / theta * kernel_prime + 4.0 * gas.a * theta ** 2 / rho
    return ds_drho, ds_dtheta


def gibbs_residual(gas: GasModel, rho, theta, h):
    """Central-difference residuals of the Gibbs relation at (rho, theta).

    res1 = theta * ds/dtheta - de/dtheta
    res2 = theta * ds/drho  - (de/drho - p / rho^2)

    with all partials approximated by second-order central differences of
    step h; both residuals decay at O(h^2).
    """
    _require_positive("rho", rho)
    _require_positive("theta", theta)
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if h >= 0.5 * min(float(np.min(np.asarray(rho))), float(np.min(np.asarray(theta)))):
        raise ValueError("step h too large relative to the state")

    def d_dtheta(f):
        return (f(gas, rho, theta + h) - f(gas, rho, theta - h)) / (2.0 * h)

    def d_drho(f):
        return (f(gas, rho + h, theta) - f(gas, rho - h, theta)) / (2.0 * h)

    res1 = theta * d_dtheta(entropy) - d_dtheta(internal_energy)
    res2 = theta * d_drho(entropy) - (
        d_drho(internal_energy) - pressure(gas, rho, theta) / np.asarray(rho, dtype=float) ** 2
    )
    return res1, res2


def sound_speed(gas: GasModel, rho, theta):
    """Adiabatic sound speed: c^2 = dp/drho + theta (dp/dtheta)^2 / (rho^2 de/dtheta)."""
    rho, theta = _checked(rho, theta)
    dp_drho, dp_dtheta = _pressure_partials_raw(gas, rho, theta)
    e_theta = _energy_partial_theta_raw(gas, rho, theta)
    return np.sqrt(dp_drho + theta * dp_dtheta**2 / (rho**2 * e_theta))


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


def viscosities(model: TransportModel, theta):
    """(mu, eta) at temperature theta, without the conductivity's power."""
    _require_positive("theta", theta)
    return _viscosities_raw(model, np.asarray(theta, dtype=float))


def _viscosities_raw(model: TransportModel, theta):
    return model.mu0 * (1.0 + theta), model.eta0 * (1.0 + theta)


def transport(model: TransportModel, theta):
    """(mu, eta, kappa) at temperature theta."""
    mu, eta = viscosities(model, theta)
    return mu, eta, _conductivity_raw(model, theta)


def _conductivity_raw(model: TransportModel, theta):
    """kappa(theta) = kappa0 (1 + theta^beta) without input validation."""
    theta = np.asarray(theta, dtype=float)
    return model.kappa0 * (1.0 + theta**model.beta)


def conductivity_primitive(model: TransportModel, theta):
    """K(theta) = int_0^theta kappa = kappa0 (theta + theta^(beta+1)/(beta+1)).

    Strictly increasing; linearises stationary and implicit heat conduction.
    """
    theta = np.asarray(theta, dtype=float)
    return model.kappa0 * (theta + theta ** (model.beta + 1.0) / (model.beta + 1.0))


def invert_conductivity_primitive(model: TransportModel, value, guess=None):
    """Solve K(theta) = value for theta > 0 by safeguarded Newton/bisection.

    The seed is the smaller of the two single-branch inverses (linear and
    power-law), which is within a factor of two of the root; K is convex so
    Newton then converges monotonically from above.
    """
    value = np.asarray(value, dtype=float)
    if np.any(value <= 0.0):
        raise ValueError("conductivity primitive values must be positive")
    scaled = value / model.kappa0
    branch = ((model.beta + 1.0) * scaled) ** (1.0 / (model.beta + 1.0))
    theta = np.asarray(guess, dtype=float) + 0.0 if guess is not None else np.minimum(scaled, branch)
    theta = np.broadcast_to(theta, value.shape).astype(float).copy() if value.shape else np.float64(theta)
    lo = np.zeros_like(value)
    hi = np.full_like(value, np.inf)
    for _ in range(200):
        f = conductivity_primitive(model, theta) - value
        lo = np.where(f < 0.0, theta, lo)
        hi = np.where(f > 0.0, theta, hi)
        new = theta - f / _conductivity_raw(model, theta)
        # a step that rounds to no change is converged, not outside the bracket
        bad = ((new <= lo) | (new >= hi)) & (new != theta) | ~np.isfinite(new)
        mid = np.where(np.isfinite(hi), 0.5 * (lo + hi), 2.0 * np.maximum(theta, 1.0))
        new = np.where(bad, mid, new)
        # Newton descends on the convex K; a step up starts below the root,
        # where rounding left the iterate, so only a step down is converged
        done = (new <= theta) & (np.abs(new - theta) <= 1.0e-16 * np.maximum(1.0, np.abs(theta)))
        theta = new
        if np.all(done):
            break
    return theta if value.shape else np.float64(theta)


def _zero_point_energy_raw(gas: GasModel, rho):
    """(3/2) p_inf rho^(5/3), the floor of rho * e as theta -> 0."""
    return 1.5 * gas.p_inf * rho ** (5.0 / 3.0)


def _volumetric_energy_raw(gas: GasModel, rho, theta):
    """rho * e without input validation (hot path; inputs known positive)."""
    z = rho / theta**1.5
    return _zero_point_energy_raw(gas, rho) + 1.5 * theta**2.5 * gas.pm(z) + gas.a * theta**4


def _volumetric_heat_capacity_raw(gas: GasModel, rho, theta):
    """rho * de/dtheta without input validation."""
    z = rho / theta**1.5
    return 2.25 * theta**1.5 * gas.pm_excess(z) + 4.0 * gas.a * theta**3


def temperature_from_energy(gas: GasModel, rho, volumetric_energy, guess=None):
    """Invert rho * e(rho, theta) = E for theta; unique since de/dtheta > 0.

    The inversion fails (ValueError) for energies at or below the zero-point
    floor (3/2) p_inf rho^(5/3), which no positive temperature can reach, and
    raises TemperatureInversionError if Newton does not converge.
    """
    rho = np.asarray(rho, dtype=float)
    target = np.asarray(volumetric_energy, dtype=float)
    _require_positive("rho", rho)
    if np.any(target <= _zero_point_energy_raw(gas, rho)):
        raise ValueError("volumetric energy at or below the zero-point floor")

    theta = np.asarray(guess, dtype=float) if guess is not None else np.full_like(target, 1.0)
    theta = np.broadcast_to(theta, target.shape).astype(float).copy() if target.shape else np.float64(theta)
    theta = np.maximum(theta, 1.0e-12)
    scale = np.maximum(1.0, np.abs(target))
    # Newton with per-cell step clipping; the residual is checked before
    # updating so an exact seed is returned unchanged bit for bit.
    for _ in range(80):
        resid = _volumetric_energy_raw(gas, rho, theta) - target
        if np.all(np.abs(resid) <= 1.0e-12 * scale):
            return theta
        slope = _volumetric_heat_capacity_raw(gas, rho, theta)
        new = theta - resid / slope
        new = np.clip(new, 0.2 * theta, 5.0 * theta)
        theta = new
    resid = _volumetric_energy_raw(gas, rho, theta) - target
    if np.all(np.abs(resid) <= 1.0e-9 * scale):
        return theta
    raise TemperatureInversionError("temperature inversion did not converge")


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    """Numeric certification of the structural hypotheses on one Z-grid.

    ``c_bound`` is the derived clean bound (5/3) * sup P_m(Z)/Z on the
    stability ratio; ``ratio_sup``/``ratio_inf`` are the observed extremes of
    ((5/3)P - P'Z)/Z itself.  Failures are recorded, never raised, so that
    deliberately broken models can be inspected.
    """

    c_bound: float
    ratio_sup: float
    ratio_inf: float
    min_second_derivative: float
    s_at_zmax: float
    s_tail_value: float
    pm_prime_range: tuple
    pm_over_z_tail: float
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_text(self) -> str:
        """Flat key-value block, one entry per line."""
        lines = [
            f"c_bound = {self.c_bound!r}",
            f"ratio_sup = {self.ratio_sup!r}",
            f"ratio_inf = {self.ratio_inf!r}",
            f"min_second_derivative = {self.min_second_derivative!r}",
            f"s_at_zmax = {self.s_at_zmax!r}",
            f"s_tail_value = {self.s_tail_value!r}",
            f"pm_prime_min = {self.pm_prime_range[0]!r}",
            f"pm_prime_max = {self.pm_prime_range[1]!r}",
            f"pm_over_z_tail = {self.pm_over_z_tail!r}",
        ]
        for name in sorted(self.checks):
            lines.append(f"pass_{name} = {self.checks[name]}")
        lines.append(f"pass_all = {self.passed}")
        return "\n".join(lines) + "\n"


def validate_hypotheses(gas: GasModel, grid=None) -> HypothesisReport:
    """Certify the structural hypotheses of the closure on a Z sample grid.

    Checked numerically: P(0) = 0 with P'(Z) > 0; the stability ratio
    0 < ((5/3)P - P'Z)/Z <= c with the derived bound c = (5/3) sup P_m/Z;
    convexity of P (min P'' > 0); the Third-law tail S(Z) -> 0; the
    sublinearity P_m(Z)/Z -> 0 and P_m'(Z) -> 0; the kernel inequality
    S(Z) >= (3/2) P_m(Z)/Z; and monotone decay of S.
    """
    if grid is None:
        grid = np.geomspace(1.0e-8, gas.z_max_validate, 4096)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0) or grid[0] <= 0.0:
        raise ValueError("validation grid must be strictly increasing and positive")

    pm = gas.pm(grid)
    pm_prime = gas.pm_prime(grid)
    excess = gas.pm_excess(grid)  # equals (5/3)P - P'Z: p_inf part cancels
    ratio = excess / grid
    second = gas.p_kernel_second(grid)
    kernel = entropy_kernel(gas, grid)

    ratio_sup = float(np.max(ratio))
    ratio_inf = float(np.min(ratio))
    c_bound = float(5.0 / 3.0 * np.max(pm / grid))
    z_tail = max(1.0e6, gas.z_max_validate)
    s_tail = float(entropy_kernel(gas, np.float64(z_tail)))

    checks = {
        "p_at_zero": bool(abs(float(gas.pm(np.float64(0.0)))) < 1.0e-14),
        "p_prime_positive": bool(np.all(gas.p_kernel_prime(grid) > 0.0)),
        "stability_ratio_positive": bool(ratio_inf > 0.0),
        "stability_ratio_bounded": bool(ratio_sup <= c_bound * (1.0 + 1.0e-12)),
        "p_convex": bool(np.all(second > 0.0)),
        "third_law_tail": bool(s_tail < 1.0e-5),
        "pm_sublinear": bool(float(gas.pm(np.float64(z_tail)) / z_tail) < 1.0e-5),
        "pm_prime_decay": bool(abs(float(gas.pm_prime(np.float64(z_tail)))) < 1.0e-5),
        "kernel_lower_bound": bool(np.all(kernel >= 1.5 * pm / grid - 1.0e-14)),
        "kernel_decreasing": bool(np.all(np.diff(kernel) < 1.0e-16)),
    }
    return HypothesisReport(
        c_bound=c_bound,
        ratio_sup=ratio_sup,
        ratio_inf=ratio_inf,
        min_second_derivative=float(np.min(second)),
        s_at_zmax=float(kernel[-1]),
        s_tail_value=s_tail,
        pm_prime_range=(float(np.min(pm_prime)), float(np.max(pm_prime))),
        pm_over_z_tail=float(gas.pm(np.float64(z_tail)) / z_tail),
        checks=checks,
    )

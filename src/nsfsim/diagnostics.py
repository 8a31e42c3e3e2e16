"""Stability functionals evaluated on discrete states.

Implements the quantities the stability analysis tracks: the relative energy
in both of its displayed algebraic forms (their difference is a rounding-level
identity check), the ballistic energy, entropy production, the absorbing-set
norms (L^{5/4}, L^{5/3}, L^4), the dissipation lower-bound functionals, the
three density-damping functionals, and windowed residuals of the entropy and
ballistic-energy inequalities with unit test functions.

All functions are pure and read-only over immutable snapshots; quadrature is
the midpoint rule; gradients are central differences with one-sided stencils
at walls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import operators as ops
from . import thermo
from .grids import FluidState

__all__ = [
    "Thresholds",
    "DiagnosticsRecord",
    "RECORD_FIELDS",
    "relative_energy",
    "relative_energy_form_delta",
    "ballistic_energy",
    "entropy_production",
    "absorbing_norms",
    "dissipation_functionals",
    "damping_functionals",
    "inequality_residuals",
    "total_energy",
    "make_diagnostics",
]


@dataclass(frozen=True)
class Thresholds:
    """Temperature/density partition levels for the damping functionals.

    Admissibility: 0 < theta_low <= min(theta_s)/2, 2 max(theta_s) <= theta_high,
    and likewise for the density pair.  ``from_reference`` picks the extreme
    admissible values, which are parameter-free.
    """

    theta_low: float
    theta_high: float
    rho_low: float
    rho_high: float

    def __post_init__(self):
        if not 0.0 < self.theta_low < self.theta_high:
            raise ValueError("need 0 < theta_low < theta_high")
        if not 0.0 < self.rho_low < self.rho_high:
            raise ValueError("need 0 < rho_low < rho_high")

    @classmethod
    def from_reference(cls, reference) -> "Thresholds":
        return cls(
            theta_low=0.5 * float(np.min(reference.theta)),
            theta_high=2.0 * float(np.max(reference.theta)),
            rho_low=0.5 * float(np.min(reference.rho)),
            rho_high=2.0 * float(np.max(reference.rho)),
        )

    def check_admissible(self, reference):
        if self.theta_low > 0.5 * float(np.min(reference.theta)) + 1e-15:
            raise ValueError("theta_low exceeds half the reference minimum")
        if self.theta_high < 2.0 * float(np.max(reference.theta)) - 1e-15:
            raise ValueError("theta_high below twice the reference maximum")
        if self.rho_low > 0.5 * float(np.min(reference.rho)) + 1e-15:
            raise ValueError("rho_low exceeds half the reference minimum")
        if self.rho_high < 2.0 * float(np.max(reference.rho)) - 1e-15:
            raise ValueError("rho_high below twice the reference maximum")


def _check_same_grid(state, reference):
    if state.rho.shape != reference.rho.shape:
        raise ValueError("state and reference live on different grids")


def _center_velocity(state):
    """Velocity components interpolated to cell centers, wall-normal last."""
    w = state.velocity[-1]
    wc = 0.5 * (w[..., :-1] + w[..., 1:])
    if state.grid.dimension == 1:
        return (wc,)
    return 0.5 * (state.u + ops._east(state.u)), wc


class _Fields:
    """The cell fields several functionals read off one state, each computed
    on first use and then kept: e, s, p, kappa, the center velocities, the
    theta gradients and the sums of squares built from them.  ``reference``,
    the ``_Fields`` of a reference state, gives the velocity differences."""

    def __init__(self, state, gas=None, transport=None, reference=None):
        self.state, self.gas, self.transport, self.reference = state, gas, transport, reference

    @cached_property
    def e(self):
        return thermo.internal_energy(self.gas, self.state.rho, self.state.theta)

    @cached_property
    def s(self):
        return thermo.entropy(self.gas, self.state.rho, self.state.theta)

    @cached_property
    def p(self):
        return thermo.pressure(self.gas, self.state.rho, self.state.theta)

    @cached_property
    def affine(self):
        """e - theta s + p / rho, the affine part of the relative energy
        when this state is the reference."""
        return self.e - self.state.theta * self.s + self.p / self.state.rho

    @cached_property
    def kappa(self):
        return thermo._conductivity_raw(self.transport, self.state.theta)

    @cached_property
    def velocity(self):
        return _center_velocity(self.state)

    @cached_property
    def kinetic(self):
        """0.5 rho |u|^2 at centers."""
        return 0.5 * self.state.rho * self.speed_sq

    @cached_property
    def speed_sq(self):
        return sum(c**2 for c in self.velocity)

    @cached_property
    def relative_speed_sq(self):
        """|u - u_ref|^2 at centers."""
        return sum((c - r) ** 2 for c, r in zip(self.velocity, self.reference.velocity))

    @cached_property
    def grads(self):
        return _grad_theta_centers(self.state)

    @cached_property
    def grad_sq(self):
        return sum(g**2 for g in self.grads)


def total_energy(state, gas) -> float:
    """Integral of 0.5 rho |u|^2 + rho e."""
    return _total_energy(_Fields(state, gas))


def _total_energy(f):
    return float(np.sum(f.kinetic + f.state.rho * f.e) * f.state.grid.cell_volume)


def total_entropy(state, gas) -> float:
    return float(
        np.sum(state.rho * thermo.entropy(gas, state.rho, state.theta)) * state.grid.cell_volume
    )


# ---------------------------------------------------------------------------
# Relative energy (Bregman distance of the convex total energy)
# ---------------------------------------------------------------------------


def _relative_energy_forms(state, reference, gas):
    """Cellwise values of the two displayed algebraic forms.

    Form one keeps the explicit -theta_ref (rho s - rho_ref s_ref) structure;
    form two absorbs the reference entropy into the affine part.  They are
    algebraically identical, so their difference is a rounding probe.
    """
    _check_same_grid(state, reference)
    return _forms(_Fields(state, gas, reference=_Fields(reference, gas)))


def _forms(f):
    """``_relative_energy_forms`` from the fields of the state, which carry
    the reference's."""
    ref = f.reference
    rho, rho_r, theta_r = f.state.rho, ref.state.rho, ref.state.theta
    kin = 0.5 * rho * f.relative_speed_sq
    form1 = (
        kin
        + rho * f.e
        - theta_r * (rho * f.s - rho_r * ref.s)
        - ref.affine * (rho - rho_r)
        - rho_r * ref.e
    )
    form2 = kin + rho * f.e - theta_r * rho * f.s - ref.affine * rho + ref.p
    return form1, form2


def relative_energy(state, reference, gas) -> float:
    """Integrated Bregman distance of the state from the reference; >= 0 up
    to rounding by thermodynamic stability."""
    form1, _ = _relative_energy_forms(state, reference, gas)
    return float(np.sum(form1) * state.grid.cell_volume)


def relative_energy_form_delta(state, reference, gas) -> float:
    """Integrated difference of the two displayed forms (identity probe)."""
    form1, form2 = _relative_energy_forms(state, reference, gas)
    return float(np.sum(form1 - form2) * state.grid.cell_volume)


# the relative tolerance of a wall trace, beside the extrapolation's own error
_TRACE_RTOL = 1.0e-4


def ballistic_energy(state, theta_tilde, gas) -> float:
    """Integral of 0.5 rho |u|^2 + rho e - theta_tilde rho s.

    ``theta_tilde`` must be positive and carry the wall temperature trace of
    the state's grid (checked by one-sided extrapolation to the walls).
    """
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if theta_tilde.shape != state.theta.shape:
        raise ValueError("theta_tilde must live on the state grid")
    _check_trace(state.grid, theta_tilde)
    return float(np.sum(_ballistic_density(_Fields(state, gas), theta_tilde)) * state.grid.cell_volume)


def _check_trace(grid, theta_tilde):
    """Raise unless ``theta_tilde`` is positive and meets the plate
    temperatures of ``grid``; the wall-normal direction is the last axis."""
    tt = theta_tilde
    if np.any(tt <= 0.0):
        raise ValueError("theta_tilde must be positive")
    walls = (grid.wall_theta("bottom"), grid.wall_theta("top"))
    edge = (1.5 * tt[..., 0] - 0.5 * tt[..., 1], 1.5 * tt[..., -1] - 0.5 * tt[..., -2])
    curvature = (
        np.abs(tt[..., 2] - 2.0 * tt[..., 1] + tt[..., 0]),
        np.abs(tt[..., -3] - 2.0 * tt[..., -2] + tt[..., -1]),
    )
    for wall, value, curv in zip(walls, edge, curvature):
        # the linear extrapolation itself is off by O(second difference)
        tol = _TRACE_RTOL * np.abs(np.asarray(wall)) + curv
        if np.max(np.abs(value - wall) - tol) > 0.0:
            raise ValueError("theta_tilde violates the boundary temperature trace")


def _ballistic_density(f, theta_tilde):
    """0.5 rho |u|^2 + rho e - theta_tilde rho s at centers, from the
    state's ``_Fields``."""
    return f.kinetic + f.state.rho * f.e - theta_tilde * f.state.rho * f.s


# ---------------------------------------------------------------------------
# Entropy production and norms
# ---------------------------------------------------------------------------


def _grad_centers(grid, field):
    """Central-difference gradient of a center field, one-sided at walls;
    the wall-normal component last, the slab's x-component in front."""
    h = grid.dz
    gz = np.empty_like(field)
    gz[..., 1:-1] = (field[..., 2:] - field[..., :-2]) / (2.0 * h)
    gz[..., 0] = (field[..., 1] - field[..., 0]) / h
    gz[..., -1] = (field[..., -1] - field[..., -2]) / h
    if grid.dimension == 1:
        return (gz,)
    return (ops._east(field) - ops._west(field)) / (2.0 * grid.dx), gz


def _grad_theta_centers(state):
    return _grad_centers(state.grid, state.theta)


def entropy_production(state, gas, transport):
    """(cellwise sigma, integral): sigma = (S:Du + kappa |grad theta|^2 / theta) / theta.

    Both summands are nonnegative, so sigma >= 0 pointwise and the integral
    is nonnegative by construction.
    """
    return _entropy_production(_Fields(state, gas, transport))


def _entropy_production(f):
    state = f.state
    heating = ops.shear_heating_nd(state.grid, f.transport, state.theta, state.velocity)
    sigma = (heating + f.kappa * f.grad_sq / state.theta) / state.theta
    return sigma, float(np.sum(sigma) * state.grid.cell_volume)


def absorbing_norms(state):
    """(|rho u|_{5/4}, |rho|_{5/3}, |theta|_4) by midpoint quadrature."""
    return _absorbing_norms(_Fields(state))


def _absorbing_norms(f):
    state = f.state
    dv = state.grid.cell_volume
    momentum = np.sqrt(f.speed_sq) * state.rho
    norm_m = float(np.sum(momentum ** 1.25) * dv) ** 0.8
    norm_r = float(np.sum(state.rho ** (5.0 / 3.0)) * dv) ** 0.6
    norm_t = float(np.sum(state.theta**4) * dv) ** 0.25
    return norm_m, norm_r, norm_t


# ---------------------------------------------------------------------------
# Dissipation and damping functionals
# ---------------------------------------------------------------------------


def dissipation_functionals(state, reference, transport, thresholds: Thresholds):
    """Discrete lower-bound quantities controlled by the dissipation.

    Returns a dict with
      u_h1_sq                    |u - u_s|^2_{W^{1,2}} (zero-trace difference)
      theta_h1_sq                |theta - theta_s|^2_{W^{1,2}}
      kappa_weighted_grad_sq     int (1_{theta>=hi} + 1_{theta<=lo}) kappa/theta^2 |grad theta|^2
      kappa_weighted_grad_diff_sq int 1_{theta>=lo} kappa/theta^2 |grad(theta - theta_s)|^2
    """
    _check_same_grid(state, reference)
    thresholds.check_admissible(reference)
    return _dissipation(_Fields(state, transport=transport, reference=_Fields(reference)), thresholds)


def _dissipation(f, thresholds):
    state, reference = f.state, f.reference.state
    grid = state.grid
    dv = grid.cell_volume

    strains = ops.strain_rates_nd(grid, [v - v_s for v, v_s in zip(state.velocity, reference.velocity)])
    grad_du_sq = strains[-1] ** 2
    if grid.dimension == 2:
        # natural-position gradients; corner squares averaged back to centers
        dudx, dudz, dwdx, _ = strains
        corner_sq = dudz**2 + dwdx**2
        pairs = corner_sq + ops._east(corner_sq)
        grad_du_sq = dudx**2 + grad_du_sq + 0.25 * (pairs[:, :-1] + pairs[:, 1:])
    u_h1_sq = float(np.sum(f.relative_speed_sq + grad_du_sq) * dv)

    dth = state.theta - reference.theta
    grad_dth_sq = sum((a - b) ** 2 for a, b in zip(f.grads, f.reference.grads))
    theta_h1_sq = float(np.sum(dth**2 + grad_dth_sq) * dv)

    weight = f.kappa / state.theta**2
    outer = (state.theta >= thresholds.theta_high) | (state.theta <= thresholds.theta_low)
    kappa_weighted_grad_sq = float(np.sum(np.where(outer, weight * f.grad_sq, 0.0)) * dv)
    above = state.theta >= thresholds.theta_low
    kappa_weighted_grad_diff_sq = float(np.sum(np.where(above, weight * grad_dth_sq, 0.0)) * dv)
    return {
        "u_h1_sq": u_h1_sq,
        "theta_h1_sq": theta_h1_sq,
        "kappa_weighted_grad_sq": kappa_weighted_grad_sq,
        "kappa_weighted_grad_diff_sq": kappa_weighted_grad_diff_sq,
    }


def damping_functionals(state, reference, thresholds: Thresholds):
    """(mid, high, low) density damping:

    int 1_{lo<=rho<=hi} (rho - rho_s)^2,  int 1_{rho>=hi} rho^{5/3},
    int 1_{rho<=lo} 1.
    """
    _check_same_grid(state, reference)
    thresholds.check_admissible(reference)
    return _damping(state, reference, thresholds)


def _damping(state, reference, thresholds):
    dv = state.grid.cell_volume
    rho = state.rho
    lo, hi = thresholds.rho_low, thresholds.rho_high
    mid_mask = (rho >= lo) & (rho <= hi)
    mid = float(np.sum(np.where(mid_mask, (rho - reference.rho) ** 2, 0.0)) * dv)
    high = float(np.sum(np.where(rho > hi, rho ** (5.0 / 3.0), 0.0)) * dv)
    low = float(np.sum(np.where(rho < lo, 1.0, 0.0)) * dv)
    return mid, high, low


# ---------------------------------------------------------------------------
# Windowed inequality residuals (unit test functions)
# ---------------------------------------------------------------------------


def _conduction_faces(grid, theta):
    """Every heat-conduction face, laid out like ``ops.kirchhoff_fluxes_nd``.

    A list of (left, right, spacing, area) groups: the x-faces (2-D only),
    then all z-faces, whose outer values at the walls are the plate
    temperatures across a half-cell.
    """
    h = grid.dz
    if grid.dimension == 1:
        area, faces = 1.0, []
    else:
        area, faces = grid.dx, [(ops._west(theta), theta, grid.dx, grid.dz)]
    bottom, top = (np.asarray(grid.wall_theta(side))[..., None] for side in ("bottom", "top"))
    ext = np.concatenate([bottom, theta, top], axis=-1)
    spacing = np.full(ext.shape[-1] - 1, h)
    spacing[[0, -1]] = 0.5 * h
    return faces + [(ext[..., :-1], ext[..., 1:], spacing, area)]


def _entropy_balance_rates(state, gas, transport):
    """(production, outward boundary entropy flux), scheme-consistent.

    The conduction production is face-based, H * dtheta / (theta_L theta_R),
    which telescopes exactly against div H / theta: on a discrete stationary
    state production and flux cancel to rounding.
    """
    grid = state.grid
    heating = ops.shear_heating_nd(grid, transport, state.theta, state.velocity)
    visc = float(np.sum(heating / state.theta) * grid.cell_volume)
    fluxes = ops.kirchhoff_fluxes_nd(grid, transport, state.theta)
    faces = _conduction_faces(grid, state.theta)
    prod = sum(
        float(np.sum(H * (right - left) / (left * right)) * area)
        for H, (left, right, _, area) in zip(fluxes, faces)
    )
    hz, (left, right, _, area) = fluxes[-1], faces[-1]
    flux = float(np.sum(hz[..., 0] / left[..., 0]) * area - np.sum(hz[..., -1] / right[..., -1]) * area)
    return visc + prod, flux


def _ballistic_rates(state, reference, gas, transport, G=None):
    """(weighted dissipation D, transport term T, gravity power).

    The heat terms are face sums over the Kirchhoff flux H of
    ``ops.kirchhoff_fluxes_nd``, with the arithmetic face temperatures
    theta_f, theta~_f and the face gradients, each times delta * area:
    D = sum theta~_f H grad theta / theta_f^2 and T = -sum H grad theta~ /
    theta_f, which cancel to rounding when theta matches theta~ (as on a
    stationary trajectory).
    """
    grid = state.grid
    th, th_t = state.theta, reference.theta
    dv = grid.cell_volume
    d_visc = float(np.sum(th_t / th * ops.shear_heating_nd(grid, transport, th, state.velocity)) * dv)
    d_heat = t_heat = 0.0
    for H, (left, right, delta, area), (left_t, right_t, _, _) in zip(
        ops.kirchhoff_fluxes_nd(grid, transport, th), _conduction_faces(grid, th), _conduction_faces(grid, th_t)
    ):
        th_f, tt_f = 0.5 * (left + right), 0.5 * (left_t + right_t)
        d_heat += float(np.sum(tt_f * H * ((right - left) / delta) / th_f**2 * delta * area))
        t_heat += float(np.sum(-H * ((right_t - left_t) / delta) / th_f * delta * area))

    grads_t = _grad_theta_centers(reference)
    comps = _center_velocity(state)
    s = thermo.entropy(gas, state.rho, th)
    t_u = float(np.sum(state.rho * s * sum(c * g for c, g in zip(comps, grads_t))) * dv)

    grav = 0.0
    if G is not None:
        grads_g = _grad_centers(grid, np.asarray(G, dtype=float))
        grav = float(np.sum(state.rho * sum(c * g for c, g in zip(comps, grads_g))) * dv)
    return d_visc + d_heat, t_heat + t_u, grav


def inequality_residuals(samples, reference, gas, transport, G=None):
    """Signed residuals of the entropy and ballistic inequalities over a
    window of (t, state) samples with unit test functions (ballistic uses
    theta_tilde = reference temperature).

    Nonnegative residuals (up to a discretisation tolerance that shrinks
    under grid refinement) certify consistency with the weak formulation.
    """
    if len(samples) < 2:
        raise ValueError("need at least two consecutive samples")
    times = [t for t, _ in samples]
    states = [s for _, s in samples]

    s_tot = [total_entropy(s, gas) for s in states]
    rates_s = [_entropy_balance_rates(s, gas, transport) for s in states]
    net_s = [p - f for p, f in rates_s]
    entropy_residual = s_tot[-1] - s_tot[0] - _trapezoid(times, net_s)

    b_tot = [
        float(np.sum(_ballistic_density(_Fields(s, gas), reference.theta)) * s.grid.cell_volume)
        for s in states
    ]
    rates_b = [_ballistic_rates(s, reference, gas, transport, G) for s in states]
    drain = [d + t - g for d, t, g in rates_b]
    ballistic_residual = b_tot[0] - b_tot[-1] - _trapezoid(times, drain)
    return entropy_residual, ballistic_residual


def _trapezoid(times, values):
    total = 0.0
    for k in range(len(times) - 1):
        total += 0.5 * (values[k] + values[k + 1]) * (times[k + 1] - times[k])
    return total


# ---------------------------------------------------------------------------
# One-call record
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsRecord:
    """One time sample of every tracked functional (CSV column order)."""

    t: float
    mass: float
    total_energy: float
    relative_energy: float
    relative_energy_form_delta: float
    ballistic_energy: float
    entropy_production_integral: float
    norm_momentum_54: float
    norm_rho_53: float
    norm_theta_4: float
    u_h1_sq: float
    theta_h1_sq: float
    kappa_weighted_grad_sq: float
    kappa_weighted_grad_diff_sq: float
    damping_mid: float
    damping_high: float
    damping_low: float


RECORD_FIELDS = [f.name for f in fields(DiagnosticsRecord)]


def make_diagnostics(reference, gas, transport, thresholds: Thresholds = None):
    """Build the per-sample record function bound to a fixed reference.

    The reference's side of every functional (its e, s, p, center
    velocities and theta gradients) and the checks of the fixed inputs (the
    thresholds' admissibility, the reference temperature's wall trace) are
    done here, once; a record then reads each field of its state once.  The
    values are those of the public functions, bit for bit.
    """
    if thresholds is None:
        thresholds = Thresholds.from_reference(reference)
    thresholds.check_admissible(reference)
    ref_theta = np.asarray(reference.theta, dtype=float)
    _check_trace(reference.grid, ref_theta)
    ref = _Fields(reference, gas)
    # filled here, so records shared between threads only read them
    for name in ("affine", "velocity", "grads"):
        getattr(ref, name)

    def compute(state: FluidState) -> DiagnosticsRecord:
        _check_same_grid(state, reference)
        if state.grid is not reference.grid:
            _check_trace(state.grid, ref_theta)
        f = _Fields(state, gas, transport, ref)
        _, sigma_int = _entropy_production(f)
        norm_m, norm_r, norm_t = _absorbing_norms(f)
        diss = _dissipation(f, thresholds)
        mid, high, low = _damping(state, reference, thresholds)
        form1, form2 = _forms(f)
        dv = state.grid.cell_volume
        return DiagnosticsRecord(
            t=state.t,
            mass=state.total_mass(),
            total_energy=_total_energy(f),
            relative_energy=float(np.sum(form1) * dv),
            relative_energy_form_delta=float(np.sum(form1 - form2) * dv),
            ballistic_energy=float(np.sum(_ballistic_density(f, ref_theta)) * dv),
            entropy_production_integral=sigma_int,
            norm_momentum_54=norm_m,
            norm_rho_53=norm_r,
            norm_theta_4=norm_t,
            u_h1_sq=diss["u_h1_sq"],
            theta_h1_sq=diss["theta_h1_sq"],
            kappa_weighted_grad_sq=diss["kappa_weighted_grad_sq"],
            kappa_weighted_grad_diff_sq=diss["kappa_weighted_grad_diff_sq"],
            damping_mid=mid,
            damping_high=high,
            damping_low=low,
        )

    return compute

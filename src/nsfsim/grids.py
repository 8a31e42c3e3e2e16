"""Staggered grids and discrete fluid states.

Scalars (rho, theta) live at cell centers, velocity components at faces.
The 1-D column occupies (0, 1) with walls at both ends; the 2-D slab is
periodic in x with period ``lx`` and wall-bounded in z on (0, 1).  Wall
boundaries carry a Dirichlet temperature per boundary node; velocity
satisfies no-slip at walls exactly (wall faces are never unknowns).

Each grid owns its layout: ``lattice`` is its cells as an (nx, nz) lattice,
the column a ring of one (1, n), and ``field_shapes`` the shape of rho and
theta, then of each velocity component, wall-normal last.  A stationary
state is a ``FluidState`` at t = 0 (``stationary.StationaryState`` adds only
its solver's report).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid1D", "Grid2D", "FluidState", "StepControl"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on (0, 1) with walls at x = 0 and x = 1."""

    n: int
    theta_bottom: float = 1.0
    theta_top: float = 1.0
    length: float = 1.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 cells")
        if self.length <= 0.0:
            raise ValueError("length must be positive")
        if self.theta_bottom <= 0.0 or self.theta_top <= 0.0:
            raise ValueError("wall temperatures must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dz(self) -> float:
        """The wall-normal spacing under the slab's name: the column's only
        axis is wall-normal, so this equals ``dx``."""
        return self.length / self.n

    @property
    def dimension(self) -> int:
        return 1

    @property
    def lattice(self) -> tuple:
        """The cells as an (nx, nz) lattice: the column is a ring of one."""
        return (1, self.n)

    @property
    def field_shapes(self) -> tuple:
        """The shape of rho and theta, then of the face velocity."""
        return (self.n,), (self.n + 1,)

    def centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.dx

    @property
    def volume(self) -> float:
        return self.length

    @property
    def cell_volume(self) -> float:
        return self.dx

    def wall_theta(self, which: str) -> np.float64:
        return np.float64(self.theta_bottom if which == "bottom" else self.theta_top)


@dataclass(frozen=True)
class Grid2D:
    """Periodic-in-x slab: torus of period ``lx`` times the interval (0, 1).

    ``theta_bottom``/``theta_top`` may be scalars or per-column arrays of
    length ``nx`` (laterally varying plate temperature).
    """

    nx: int
    nz: int
    theta_bottom: object = 1.0
    theta_top: object = 1.0
    lx: float = 2.0
    lz: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.nz < 3:
            raise ValueError("need at least 3 cells per direction")
        if self.lx <= 0.0 or self.lz <= 0.0:
            raise ValueError("periods/heights must be positive")
        for name in ("theta_bottom", "theta_top"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.ndim not in (0, 1) or (value.ndim == 1 and value.size != self.nx):
                raise ValueError(f"{name} must be scalar or length-nx")
            if np.any(value <= 0.0):
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, value + 0.0)

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def dimension(self) -> int:
        return 2

    @property
    def lattice(self) -> tuple:
        """The cells as an (nx, nz) lattice."""
        return (self.nx, self.nz)

    @property
    def field_shapes(self) -> tuple:
        """The shape of rho and theta, then of u on x-faces and w on z-faces."""
        return (self.nx, self.nz), (self.nx, self.nz), (self.nx, self.nz + 1)

    def x_centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx

    def z_centers(self) -> np.ndarray:
        return (np.arange(self.nz) + 0.5) * self.dz

    @property
    def volume(self) -> float:
        return self.lx * self.lz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dz

    def wall_theta(self, which: str) -> np.ndarray:
        value = np.asarray(self.theta_bottom if which == "bottom" else self.theta_top)
        return np.broadcast_to(value, (self.nx,))


@dataclass
class FluidState:
    """Discrete (rho, theta, velocity) fields at one time, in the shapes of
    ``grid.field_shapes``.

    1-D: ``u`` has shape (n+1,) on faces with u[0] = u[n] = 0 (no-slip).
    2-D: ``u`` (x-velocity) has shape (nx, nz) on x-faces (u[i] sits between
    cells i-1 and i, periodic), ``w`` (z-velocity) has shape (nx, nz+1) on
    z-faces with w[:, 0] = w[:, nz] = 0.
    """

    grid: object
    t: float
    rho: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    w: np.ndarray = None

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.w is not None:
            self.w = np.asarray(self.w, dtype=float)
        cells, *faces = self.grid.field_shapes
        want = [cells, cells, *faces]
        shapes = [a.shape for a in (self.rho, self.theta, *self.velocity)]
        if shapes != want:
            raise ValueError(f"fields of shapes {shapes} on a grid whose fields have shapes {want}")

    @classmethod
    def at_rest(cls, grid, rho, theta):
        """The state at t = 0 of the scalar fields ``rho`` and ``theta`` with
        every velocity component zero."""
        _, *faces = grid.field_shapes
        return cls(grid, 0.0, rho, theta, *(np.zeros(shape) for shape in faces))

    @property
    def velocity(self) -> tuple:
        """The velocity components, wall-normal last: (u,) or (u, w)."""
        return (self.u,) if self.w is None else (self.u, self.w)

    def validate(self):
        """Positivity and boundary traces; raises on violation."""
        if np.any(self.rho <= 0.0):
            raise ValueError("rho must be positive everywhere")
        if np.any(self.theta <= 0.0):
            raise ValueError("theta must be positive everywhere")
        if np.any(self.velocity[-1][..., [0, -1]] != 0.0):
            raise ValueError("no-slip violated at walls")

    def copy(self) -> "FluidState":
        """A plain ``FluidState`` of copies of the fields."""
        fields = (self.rho, self.theta, *self.velocity)
        return FluidState(self.grid, self.t, *(a.copy() for a in fields))

    def total_mass(self) -> float:
        return float(np.sum(self.rho) * self.grid.cell_volume)


@dataclass(frozen=True)
class StepControl:
    """Time-step policy: CFL target, clamping bounds, positivity retries."""

    cfl_target: float = 0.4
    dt_min: float = 1.0e-10
    dt_max: float = 1.0e-2
    max_retries: int = 8

    def __post_init__(self):
        if not 0.0 < self.cfl_target < 1.0:
            raise ValueError("cfl_target must lie in (0, 1)")
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_max")
        if self.max_retries < 0:
            raise ValueError("max_retries must be nonnegative")

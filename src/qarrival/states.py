"""Wave packets: Gaussians, the reflected (Zeno) state, and representation changes.

States are sampled wave functions tagged with their representation.  Momentum
representations live on the half-offset GridSpec samples; position
representations live either on the conjugate half-offset grid (extent
x_max = pi*hbar/dp, no x = 0 sample) or on a centered odd-count grid that
contains x = 0, which the reflected-state construction uses so that its
built-in zeros at the origin and on x > 0 are exact sample statements.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    GridSpec,
    PhysConsts,
    integrate,
    momentum_to_position,
    position_to_momentum,
)


# Position oversampling of the reflected-state construction grid.
REFLECTED_OVERSAMPLE = 4


class Representation(enum.Enum):
    MOMENTUM = "momentum"
    POSITION = "position"


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples on a uniform grid, in one representation."""

    rep: Representation
    grid: np.ndarray
    values: np.ndarray
    consts: PhysConsts

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be 1-D with at least 3 samples")
        if values.shape != grid.shape:
            raise ValueError("values and grid must have matching shapes")
        if not np.isfinite(grid).all():
            raise ValueError("grid must be finite")
        steps = grid[1:] - grid[:-1]
        step = steps[0]
        if not step > 0.0:
            raise ValueError(f"grid must be increasing, got step {step}")
        # linspace rounds each sample to an ulp or two of the largest |x|, which
        # on fine grids exceeds 1e-12 of the step (measured: below 2 eps max|x|)
        tol = max(1e-12 * step, 4.0 * np.finfo(float).eps * max(abs(grid[0]), abs(grid[-1])))
        if np.abs(steps - step).max() > tol:
            raise ValueError("grid must be uniformly spaced")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def norm_squared(self) -> float:
        return float(integrate(np.abs(self.values) ** 2, self.dx))

    def normalized(self) -> "WaveFunction":
        n2 = self.norm_squared()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a null state")
        return replace(self, values=self.values / math.sqrt(n2))


@dataclass(frozen=True)
class GaussianSpec:
    """Gaussian packet: mean momentum p0, mean position x0, momentum width sigma_p."""

    p0: float
    x0: float
    sigma_p: float
    consts: PhysConsts = PhysConsts()

    def __post_init__(self) -> None:
        if not (self.sigma_p > 0.0 and math.isfinite(self.sigma_p)):
            raise ValueError(f"sigma_p must be positive, got {self.sigma_p}")

    @property
    def sigma_x(self) -> float:
        """Minimum-uncertainty position width hbar/(2 sigma_p)."""
        return self.consts.hbar / (2.0 * self.sigma_p)


def conjugate_position_grid(grid: GridSpec, consts: PhysConsts) -> np.ndarray:
    """Half-offset position grid with the conjugate extent x_max = pi*hbar/dp."""
    return GridSpec(grid.n, math.pi * consts.hbar / grid.dp).momenta()


def centered_position_grid(grid: GridSpec, consts: PhysConsts) -> np.ndarray:
    """Odd-count symmetric position grid including x = 0, REFLECTED_OVERSAMPLE
    times denser than the conjugate one.

    Oversampling beyond the conjugate density keeps the position->momentum
    quadrature accurate out to |p| = p_max even for states with a slope kink,
    whose momentum tails decay only like 1/p^2.
    """
    x_max = math.pi * consts.hbar / grid.dp
    return np.linspace(-x_max, x_max, REFLECTED_OVERSAMPLE * grid.n + 1)


def make_gaussian(spec: GaussianSpec, grid: GridSpec) -> WaveFunction:
    """Normalized Gaussian packet in the momentum representation.

    psi(p) = (2 pi sigma_p^2)^(-1/4) exp(-(p-p0)^2 / (4 sigma_p^2)) exp(-i p x0 / hbar),
    renormalized on the grid.  The grid must cover p0 +- 6 sigma_p.
    """
    if abs(spec.p0) + 6.0 * spec.sigma_p > grid.p_max:
        raise ValueError(
            f"grid p_max={grid.p_max} clips the 6-sigma window of the packet "
            f"(needs >= {abs(spec.p0) + 6.0 * spec.sigma_p})"
        )
    p = grid.momenta()
    hbar = spec.consts.hbar
    values = (
        (2.0 * math.pi * spec.sigma_p**2) ** (-0.25)
        * np.exp(-((p - spec.p0) ** 2) / (4.0 * spec.sigma_p**2))
        * np.exp(-1j * p * spec.x0 / hbar)
    )
    psi = WaveFunction(Representation.MOMENTUM, p, values, spec.consts)
    return psi.normalized()


def position_gaussian(spec: GaussianSpec, x: np.ndarray) -> WaveFunction:
    """Gaussian packet sampled in the position representation on x.

    psi(x) = (2 pi sigma_x^2)^(-1/4) exp(-(x-x0)^2 / (4 sigma_x^2)) exp(i p0 x / hbar),
    with sigma_x = spec.sigma_x, normalized by the rectangle rule
    sum |psi|^2 dx = 1.  The samples must cover x0 +- 6 sigma_x.
    """
    sigma_x, hbar = spec.sigma_x, spec.consts.hbar
    if not (x[0] <= spec.x0 - 6.0 * sigma_x and spec.x0 + 6.0 * sigma_x <= x[-1]):
        raise ValueError(
            f"box [{x[0]}, {x[-1]}] clips the 6-sigma window of the packet "
            f"(needs [{spec.x0 - 6.0 * sigma_x}, {spec.x0 + 6.0 * sigma_x}])"
        )
    values = (
        (2.0 * math.pi * sigma_x**2) ** (-0.25)
        * np.exp(-((x - spec.x0) ** 2) / (4.0 * sigma_x**2))
        * np.exp(1j * spec.p0 * x / hbar)
    )
    psi = WaveFunction(Representation.POSITION, x, values, spec.consts)
    return replace(psi, values=psi.values / math.sqrt(float(np.sum(np.abs(psi.values) ** 2) * psi.dx)))


def to_position(psi: WaveFunction, x_grid: np.ndarray) -> WaveFunction:
    """Fourier transform a momentum-representation state onto position samples."""
    if psi.rep is not Representation.MOMENTUM:
        raise ValueError("to_position expects a momentum-representation state")
    x_grid = np.asarray(x_grid, dtype=float)
    values = momentum_to_position(psi.values, psi.grid, x_grid, psi.consts.hbar)
    return WaveFunction(Representation.POSITION, x_grid, values, psi.consts)


def to_momentum(psi: WaveFunction, grid: GridSpec) -> WaveFunction:
    """Inverse Fourier transform a position-representation state onto grid momenta."""
    if psi.rep is not Representation.POSITION:
        raise ValueError("to_momentum expects a position-representation state")
    p = grid.momenta()
    values = position_to_momentum(psi.values, psi.grid, p, psi.consts.hbar)
    return WaveFunction(Representation.MOMENTUM, p, values, psi.consts)


def reflected_position_state(base: GaussianSpec, grid: GridSpec) -> WaveFunction:
    """Position-representation reflected (Zeno) state theta(-x) (phi(x) - phi(-x)).

    phi is the base Gaussian; the construction grid is the centered grid,
    REFLECTED_OVERSAMPLE times denser than the conjugate one.  It contains
    x = 0, so the antisymmetrized samples vanish identically at the origin and
    on x > 0.  The base packet must move rightward (p0 > 0) and leak less than
    1e-6 of its norm into x > 0.
    """
    if base.p0 <= 0.0:
        raise ValueError("reflected state requires a rightward-moving base packet (p0 > 0)")
    x = centered_position_grid(grid, base.consts)
    phi = to_position(make_gaussian(base, grid), x)
    dx = phi.dx
    mass = integrate(np.abs(phi.values) ** 2, dx)
    leak = float(np.sum(np.abs(phi.values[x > 0.0]) ** 2) * dx / mass)
    if leak > 1e-6:
        raise ValueError(f"base packet leaks {leak:.2e} of its norm into x > 0 (limit 1e-6)")
    values = phi.values - phi.values[::-1]
    values[x > 0.0] = 0.0
    psi = WaveFunction(Representation.POSITION, x, values, base.consts)
    return psi.normalized()


def make_reflected_state(base: GaussianSpec, grid: GridSpec) -> WaveFunction:
    """Normalized momentum representation of the reflected (Zeno) state."""
    pos = reflected_position_state(base, grid)
    return to_momentum(pos, grid).normalized()

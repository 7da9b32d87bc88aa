"""Independent oracle for the current at x = 0: a five-point stencil in position space."""

import math

import numpy as np

from qarrival import integrate
from util_dense import dense_fourier


def stencil_current(psi, t):
    """-(i hbar / 2m)(psi* psi' - psi psi'*) at x = 0 after free evolution.

    The freely evolved state is transformed onto five points around the
    origin, spaced 0.02 hbar / sqrt(<p^2>), and differentiated with the
    4th-order central formula.
    """
    m, hbar = psi.consts.mass, psi.consts.hbar
    p = psi.grid
    dens = np.abs(psi.values) ** 2
    h = 0.02 * hbar / math.sqrt(integrate(p**2 * dens, psi.dx) / integrate(dens, psi.dx))
    xs = h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    evolved = np.exp(-1j * p**2 * t / (2.0 * m * hbar)) * psi.values
    v = dense_fourier(evolved, p, xs, +1.0, hbar)
    dpsi = (v[0] - 8.0 * v[1] + 8.0 * v[3] - v[4]) / (12.0 * h)
    j = (-1j * hbar / (2.0 * m)) * (np.conj(v[2]) * dpsi - v[2] * np.conj(dpsi))
    return float(j.real)

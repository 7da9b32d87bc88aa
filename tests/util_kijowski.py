"""The Kijowski density read off its definition (test-side oracle).

(1/m)<psi_t| |p|^(1/2) delta(x) |p|^(1/2) |psi_t> = |chi_t(0)|^2 / m for
chi_t = |p|^(1/2) psi_t, whose value at x = 0 is (2 pi hbar)^(-1/2) times the
integral of chi_t(p) over p.  Here that integral is a rectangle sum over the
momentum grid, one time at a time; the library's AB distribution sums the
same integrand with Simpson weights, folded onto the half grid.
"""

import math

import numpy as np


def kijowski_density(psi, taus):
    """(1/m) |chi_t(x = 0)|^2 at each t of taus, for a momentum-representation psi."""
    m, hbar = psi.consts.mass, psi.consts.hbar
    p = psi.grid
    chi = np.sqrt(np.abs(p)) * psi.values
    vals = np.empty(len(taus))
    for i, t in enumerate(taus):
        at_origin = np.sum(np.exp(-1j * p**2 * t / (2.0 * m * hbar)) * chi) * psi.dx / math.sqrt(2.0 * math.pi * hbar)
        vals[i] = abs(at_origin) ** 2 / m
    return vals

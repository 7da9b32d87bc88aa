"""Dense O(N M) reference sums for the FFT-evaluated transforms and propagator."""

import math

import numpy as np


def dense_fourier(values, src, dst, sign, hbar):
    """(2 pi hbar)^(-1/2) d_src sum_k e^{sign i dst_j src_k / hbar} values_k, term by term.

    Works on any pair of uniform grids, conjugate or not.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    d_src = (src[-1] - src[0]) / (src.size - 1)
    kernel = np.exp((sign * 1j / hbar) * np.outer(dst, src))
    return kernel @ np.asarray(values) * (d_src / math.sqrt(2.0 * math.pi * hbar))


def dense_halfline(psi, dt, allowed):
    """Direct-minus-image Dirichlet kernel applied as a full matrix."""
    m, hbar = psi.consts.mass, psi.consts.hbar
    x = psi.grid
    dx = (x[-1] - x[0]) / (x.size - 1)
    a = 1j * m / (2.0 * hbar * dt)
    kernel = np.exp(a * (x[:, None] - x[None, :]) ** 2) - np.exp(a * (x[:, None] + x[None, :]) ** 2)
    pref = math.sqrt(m / (2.0 * math.pi * hbar * dt)) * np.exp(-1j * math.pi / 4.0)
    out = kernel @ np.where(allowed, psi.values, 0.0) * (pref * dx)
    out[~allowed] = 0.0
    return out

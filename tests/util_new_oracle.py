"""The NEW eigenstates in complex arithmetic (test-side oracle).

This is the evaluator's earlier form: both orders of a table summed in one
2-D Clenshaw pass, the high table with complex coefficients, and the
eigenstate assembled as complex products, amp (f0 + i z f1) below z = 10 and
amp ((P1 cos A - Q1 sin A) + i (Q2 cos A + P2 sin A)) at and above it.  The
real-row evaluator of qarrival.operators must equal it byte for byte.
"""

import math

import numpy as np

from qarrival.numerics import _BESSEL_HIGH, _BESSEL_LOW, BESSEL_SWITCHOVER


def clenshaw_2d(coefs, x):
    """sum_k coefs[:, k] T_k(x) for every row of coefs at once, complex rows
    included; shape (rows,) + x.shape."""
    c = coefs.reshape(coefs.shape + (1,) * x.ndim)
    x2 = 2.0 * x
    b1 = np.empty(coefs.shape[:1] + x.shape, dtype=np.result_type(coefs, x))
    b1[...] = c[:, -1]
    b2, t = np.zeros_like(b1), np.empty_like(b1)
    for k in range(coefs.shape[1] - 2, 0, -1):
        np.multiply(x2, b1, out=t)
        t += c[:, k]
        t -= b2
        b1, b2, t = t, b1, b2
    return c[:, 0] + x * b1 - b2


def low_table(z, amp):
    f = clenshaw_2d(_BESSEL_LOW, z * z / 72.0 - 1.0)
    return amp * (f[0] + 1j * z * f[1])


def high_table(z, amp):
    pq = clenshaw_2d(_BESSEL_HIGH, 16.0 / z - 1.0)
    (p1, p2), (q1, q2) = pq.real, pq.imag
    phase = z - math.pi / 8.0
    cos, sin = np.cos(phase), np.sin(phase)
    return amp * ((p1 * cos - q1 * sin) + 1j * (q2 * cos + p2 * sin))


def new_eigenstate_half(taus, ap, consts):
    """NEW eigenstates at |p| = ap for taus >= 0, one row per tau."""
    m, hbar = consts.mass, consts.hbar
    half = np.zeros((taus.size, ap.size), dtype=complex)
    rows = taus != 0.0
    tau = taus[rows, None]
    z = ap * ap * tau / (2.0 * m * hbar)
    low_amp = ap * ((tau / (2.0 * m * hbar)) ** 0.25 / (2.0 * math.sqrt(m * hbar)))
    high_amp = np.sqrt(ap / (2.0 * math.pi * m * hbar))
    out = np.empty(z.shape, dtype=complex)
    lo = z < BESSEL_SWITCHOVER
    if lo.any():
        out[lo] = low_table(z[lo], low_amp[lo])
    hi = ~lo
    if hi.any():
        out[hi] = high_table(z[hi], np.broadcast_to(high_amp, z.shape)[hi])
    half[rows] = out
    return half

"""The NEW eigenstates in complex arithmetic (test-side oracle).

This is the evaluator's textbook form: both orders of a table summed in one
2-D real Horner pass, s = s x + a_k, the high table's real and imaginary
coefficients as two such passes, and the eigenstate assembled as complex
products, amp (f0 + i z f1) below z = 10 and
amp ((P1 cos A - Q1 sin A) + i (Q2 cos A + P2 sin A)) at and above it.  The
packed evaluator of qarrival.operators, two real series to a complex one,
must equal it byte for byte.  The
small-z slope of the eigenstate is here too, and the eigenstate integrated
from its momentum-space ODE, which the closed form is checked against.
"""

import math

import numpy as np

from qarrival.numerics import _BESSEL_HIGH, _BESSEL_LOW, BESSEL_SWITCHOVER, GAMMA_3_4, GridSpec, PhysConsts
from qarrival.states import Representation, WaveFunction


def horner_2d(coefs, x):
    """sum_k coefs[:, k] x^k for every row of the real array coefs at once, by
    the textbook recurrence s = s x + a_k; shape (rows,) + x.shape."""
    c = coefs.reshape(coefs.shape + (1,) * x.ndim)
    s = c[:, -1] * x + c[:, -2]
    for k in range(coefs.shape[1] - 3, -1, -1):
        s = s * x + c[:, k]
    return s


def low_table(z, amp):
    f = horner_2d(_BESSEL_LOW, z * z / 72.0 - 1.0)
    return amp * (f[0] + 1j * z * f[1])


def high_table(z, amp):
    x = 16.0 / z - 1.0
    (p1, p2), (q1, q2) = horner_2d(_BESSEL_HIGH.real, x), horner_2d(_BESSEL_HIGH.imag, x)
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


def new_low_momentum_slope(tau, consts=PhysConsts()):
    """Small-z limit of phi_tau(p)/|p| for the NEW family:
    tau^(1/4) / (2 Gamma(3/4) (m hbar)^(3/4))."""
    m, hbar = consts.mass, consts.hbar
    return tau**0.25 / (2.0 * GAMMA_3_4 * (m * hbar) ** 0.75)


def solve_eigen_ode(tau: float, grid: GridSpec, consts: PhysConsts = PhysConsts()) -> WaveFunction:
    """NEW-family eigenstate by direct integration of the momentum-space ODE.

    The antisymmetric part u satisfies  u'' - (2/p) u' + (tau/m hbar)^2 p^2 u = 0
    with the regular branch u ~ p^3 (1 - (tau/m hbar)^2 p^4 / 28) at small p.
    RK4 integration runs from the first grid momentum to p_max; the symmetric
    part follows from the coupled first-order relation phi_S = (m hbar / tau |p|) u',
    and p < 0 values from phi(-p) = conj(phi(p)).  The result carries an
    arbitrary global scale.
    """
    if tau <= 0.0:
        raise ValueError("solve_eigen_ode requires tau > 0")
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    half = p[grid.n // 2 :]
    kappa = tau / (m * hbar)

    def rhs(pp: float, y0: float, y1: float) -> tuple[float, float]:
        return y1, (2.0 / pp) * y1 - (kappa * pp) ** 2 * y0

    # step resolving the local phase dz/dp = kappa p; RK4 phase error per
    # radian ~ (kappa p h)^4, kept below ~1e-10 over the full sweep
    h_target = min(grid.dp / 8.0, 4e-3 / (kappa * grid.p_max))
    if h_target < 1e-9 * grid.p_max:
        raise RuntimeError(f"step size underflow for tau = {tau} on this grid")
    p0 = float(half[0])
    a = -(kappa**2) / 28.0
    # the state (y0, y1) = (u, u') is stepped as Python floats: the same IEEE
    # operations, in the same order, as on a 2-vector, without numpy's
    # per-call overhead
    y0, y1 = p0**3 * (1.0 + a * p0**4), 3.0 * p0**2 + 7.0 * a * p0**6
    u = np.empty(half.size)
    du = np.empty(half.size)
    u[0], du[0] = y0, y1
    for i in range(half.size - 1):
        span = float(half[i + 1] - half[i])
        steps = max(1, int(math.ceil(span / h_target)))
        h = span / steps
        pp = float(half[i])
        for _ in range(steps):
            k1 = rhs(pp, y0, y1)
            k2 = rhs(pp + 0.5 * h, y0 + 0.5 * h * k1[0], y1 + 0.5 * h * k1[1])
            k3 = rhs(pp + 0.5 * h, y0 + 0.5 * h * k2[0], y1 + 0.5 * h * k2[1])
            k4 = rhs(pp + h, y0 + h * k3[0], y1 + h * k3[1])
            y0 = y0 + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            y1 = y1 + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            pp += h
        if not (math.isfinite(y0) and math.isfinite(y1)):
            raise RuntimeError("eigenvalue ODE integration failed (non-finite state)")
        u[i + 1], du[i + 1] = y0, y1
    phi_half = (m * hbar / (tau * half)) * du + 1j * u
    values = np.concatenate([np.conj(phi_half[::-1]), phi_half])
    return WaveFunction(Representation.MOMENTUM, p, values, consts)

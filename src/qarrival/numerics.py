"""Momentum-grid discretization, special functions, and quadrature.

Everything downstream works in the momentum representation on a uniform
symmetric grid with a half-step offset,

    p_k = -p_max + (k + 1/2) dp,   dp = 2 p_max / n,   k = 0 .. n-1.

The offset keeps p = 0 off the grid, which matters because several of the
arrival-time operators carry 1/|p| or 1/(p |p|) factors that are singular
at the origin.  The grid is built mirror-symmetrically so that the index
flip k -> n-1-k maps p_k to -p_k bitwise; the reflection operator is then
an exact permutation.

The NEW eigenstates need J_nu at two orders only, nu = -1/4 and 3/4.  Both
come from two Chebyshev tables evaluated by Clenshaw's recurrence with a
fixed degree: below z = 10 the entire function z^(-nu) J_nu(z) in (z/10)^2
(DLMF 10.2.2), at and above it the Hankel modulation P + iQ in 10/z
(DLMF 10.17).  The recurrence is linear in its coefficients, so its real
series are summed two to a complex series, the low table's two orders as one
and the high table's P and Q of both orders as two; each part is bitwise the
sum of its real series.  That packing stays in this module: _bessel_low and
_bessel_high return J_(-1/4) + i J_(3/4) times the real scale z^(1/4) below
the switchover and sqrt(pi z/2) at and above it.
tools/bessel_tables.py generates both with mpmath; they agree to better than
1e-9 on the overlap window z in [8, 12] and err by about 2e-15 of
max(|J_nu|, sqrt(2/(pi z))) against mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Switchover between the low and high Bessel tables, in z.
BESSEL_SWITCHOVER = 10.0

# Gamma(3/4), correctly rounded (mpmath); math.gamma(0.75) is 1 ulp high.
GAMMA_3_4 = 1.2254167024651776


@dataclass(frozen=True)
class PhysConsts:
    """Particle mass and reduced Planck constant (defaults m = hbar = 1)."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric momentum grid with half-step offset (no p = 0 sample)."""

    n: int
    p_max: float

    def __post_init__(self) -> None:
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be an even integer >= 4, got {self.n}")
        if not (self.p_max > 0.0 and math.isfinite(self.p_max)):
            raise ValueError(f"p_max must be positive and finite, got {self.p_max}")

    @property
    def dp(self) -> float:
        return 2.0 * self.p_max / self.n

    def momenta(self) -> np.ndarray:
        """Sample momenta, built so that p[n-1-k] == -p[k] exactly."""
        upper = (np.arange(self.n // 2) + 0.5) * self.dp
        return np.concatenate([-upper[::-1], upper])


# ---------------------------------------------------------------------------
# Bessel J of orders -1/4 and 3/4
# ---------------------------------------------------------------------------

# Chebyshev coefficients, one row per order (-1/4, 3/4), generated by
# tools/bessel_tables.py with mpmath at 40 digits.  Low table: z^(-nu) J_nu(z)
# in x = (z/10)^2 / 0.72 - 1, fitted on z in [0, 12].  High table: the Hankel
# modulation P + iQ in x = 16/z - 1, fitted on z >= 8.
_BESSEL_LOW = np.array([
    [  # nu = -0.25
        0.01091684121406861, -0.06987879694912474, 0.15881808747698992,
        0.13632743556827315, 0.22779549669254673, -0.36860548936923987,
        0.19715473307146608, -0.05960174384305236, 0.012026935508506835,
        -0.001763433633360763, 0.00019804541206897353, -1.7668386958723796e-05,
        1.2863433050675125e-06, -7.803803313745677e-08, 4.011458770976576e-09,
        -1.7713621799386599e-10, 6.797033341543715e-12, -2.2887394334369444e-13,
        6.82047158018309e-15, -1.8121043858760639e-16,
    ],
    [  # nu = 0.75
        0.053811178225112014, -0.13944211059614814, 0.10374020106416154,
        -0.12179565643203816, 0.12646144032554038, -0.07117443494480555,
        0.024071026611862653, -0.0054561905876501894, 0.0008925706728978436,
        -0.00011088591720270707, 1.0853856217462254e-05, -8.606882754995681e-07,
        5.6508631575490806e-08, -3.1260721212263747e-09, 1.478298651053569e-10,
        -6.0486326890381276e-12, 2.163501104685677e-13, -6.8252743326033536e-15,
        1.9138619952294175e-16, -4.802752420263537e-18,
    ],
])
_BESSEL_HIGH = np.array([
    [  # nu = -0.25
        (0.9997046588453498-0.005828221345549831j), (-0.0003924704249809433-0.005812822711309982j),
        (-9.616095262434508e-05+1.831886512212399e-05j), (1.0881727283995617e-06+2.8490909030109476e-06j),
        (1.1399265093226377e-07-7.683928564095878e-08j), (-6.122801826183588e-09-5.1779319191783164e-09j),
        (-2.1229140679397205e-10+5.269315342579978e-10j), (4.692012247202896e-11+1.1533746527084295e-12j),
        (-1.5887928204191808e-12-4.099537435983454e-12j), (-3.1983008109815643e-13+3.27191226249598e-13j),
        (4.948996790358531e-14+1.6238845610168545e-14j), (-1.0675047191901379e-15-6.319405612796068e-15j),
        (-6.580945778280701e-16+5.288906253870509e-16j), (1.1054901029682734e-16+4.172627308903316e-17j),
    ],
    [  # nu = 0.75
        (1.0003804827484837+0.00972872454751055j), (0.0005058118162421242+0.00971047198401014j),
        (0.00012422703828319546-2.172605014837579e-05j), (-1.2392764904352155e-06-3.394418076431216e-06j),
        (-1.3082904931711106e-07+8.54709638950258e-08j), (6.7092337431271415e-09+5.837338282633348e-09j),
        (2.394439834680403e-10-5.716912942089161e-10j), (-5.057826747104853e-11-1.9148174230345105e-12j),
        (1.6418862867413636e-12+4.404177757844679e-12j), (3.439389465753019e-13-3.4314778444505387e-13j),
        (-5.205509457911234e-14-1.7785802303775994e-14j), (1.0436157214124306e-15+6.657512470679652e-15j),
        (6.957690102192038e-16-5.460743480937425e-16j), (-1.1495299418613844e-16-4.4871437945288515e-17j),
    ],
])


# The tables for _clenshaw, two real series to a complex one: the low table's
# orders as f_(-1/4) + i f_(3/4), the high table's P and Q as
# U = P_(-1/4) + i Q_(3/4) and V = Q_(-1/4) - i P_(3/4).
_LOW_SERIES = (tuple(map(complex, *_BESSEL_LOW)),)
_HIGH_SERIES = (
    tuple(map(complex, _BESSEL_HIGH[0].real, _BESSEL_HIGH[1].imag)),
    tuple(map(complex, _BESSEL_HIGH[0].imag, -_BESSEL_HIGH[1].real)),
)


def _clenshaw(series: tuple[tuple[complex, ...], ...], x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(x) for each complex series c of `series` at the float
    array x (contiguous and 1-D, for speed); shape (len(series),) + x.shape.

    Clenshaw's recurrence (Clenshaw, MTAC 9, 118, 1955), one series at a time:
    b_k = c_k + 2x b_(k+1) - b_(k+2) as three in-place operations, in that
    order, on three rotating buffers, then c_0 + x b_1 - b_2.  The first two
    steps take b_(N-1) = c_(N-1) as a scalar and skip subtracting b_N = 0.
    x and 2x are cast to x + 0i once: each product's parts are then x a - 0 b
    and x b + 0 a, so the real and imaginary parts are, bit for bit, the sums
    of the two real series.
    """
    xc = x.astype(complex)
    x2 = xc + xc
    out = np.empty((len(series),) + x.shape, dtype=complex)
    scratch = np.empty_like(xc), np.empty_like(xc), np.empty_like(xc)
    for c, res in zip(series, out):
        b2, b1, t = scratch
        np.multiply(x2, c[-1], out=b2)
        b2 += c[-2]
        np.multiply(x2, b2, out=b1)
        b1 += c[-3]
        b1 -= c[-1]
        for k in range(len(c) - 4, 0, -1):
            np.multiply(x2, b1, out=t)
            t += c[k]
            t -= b2
            b1, b2, t = t, b1, b2
        np.multiply(xc, b1, out=res)
        res += c[0]
        res -= b2
    return out


def _bessel_low(z: np.ndarray) -> np.ndarray:
    """z^(1/4) (J_(-1/4)(z) + i J_(3/4)(z)) for 0 <= z < BESSEL_SWITCHOVER.

    With f_nu = z^(-nu) J_nu(z) from the low table this is f_(-1/4) + i z f_(3/4).
    """
    f = _clenshaw(_LOW_SERIES, z * z / 72.0 - 1.0)[0]
    f.imag *= z
    return f


def _bessel_high(z: np.ndarray) -> np.ndarray:
    """sqrt(pi z/2) (J_(-1/4)(z) + i J_(3/4)(z)) for z >= BESSEL_SWITCHOVER.

    J_nu(z) = sqrt(2/(pi z)) (P_nu cos omega - Q_nu sin omega), where
    P_nu + iQ_nu = sqrt(pi z/2) e^(-i omega) H1_nu(z) and omega = z - nu pi/2 - pi/4.
    With A = z - pi/8 the two phases omega are A and A - pi/2, so this is
    U cos A - V sin A for the high table's U = P_(-1/4) + i Q_(3/4) and
    V = Q_(-1/4) - i P_(3/4).
    """
    u, v = _clenshaw(_HIGH_SERIES, 16.0 / z - 1.0)
    phase = z - math.pi / 8.0
    u *= np.cos(phase)
    v *= np.sin(phase)
    u -= v
    return u


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Composite Simpson weights; even sample counts get a trapezoid end cell."""
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if not (dx > 0.0 and math.isfinite(dx)):
        raise ValueError(f"dx must be positive and finite, got {dx}")
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        w *= dx / 3.0
    else:
        w[: n - 1] = simpson_weights(n - 1, dx)
        w[-2] += 0.5 * dx
        w[-1] += 0.5 * dx
    return w


def integrate(samples, dx: float):
    """Composite-Simpson integral of uniformly spaced samples (deterministic).

    Odd counts use pure Simpson; even counts use Simpson over the first n-1
    samples plus a trapezoid on the final cell.
    """
    samples = np.asarray(samples)
    total = np.sum(simpson_weights(samples.shape[0], dx) * samples)
    return complex(total) if np.iscomplexobj(samples) else float(total)


# ---------------------------------------------------------------------------
# Fourier kernels between the momentum and position representations
# ---------------------------------------------------------------------------
#
# These use equal-weight (rectangle) sums, not Simpson: alternating Simpson
# weights act on Fourier sums as a comb filter with a -1/3-amplitude alias at
# x +- pi*hbar/dp, which destroys unitarity for off-center packets.  Rectangle
# sums of an analytic integrand that has decayed at the grid edge are
# spectrally accurate.


def _fourier_apply(values: np.ndarray, src: np.ndarray, dst: np.ndarray, sign: float, hbar: float) -> np.ndarray:
    """(2 pi hbar)^(-1/2) d_src sum_k e^{sign * i * dst_j * src_k / hbar} values_k, by one FFT,
    along the last axis.  A row of a leading axis equals its one-row call bitwise.

    Both grids must be uniform and conjugate up to an integer M, d_src d_dst =
    2 pi hbar / M.  With indices K, J counted from the middle samples src_c,
    dst_c, the kernel is e^{sign i src_c dst_j / hbar} e^{sign i K d_src dst_c / hbar}
    e^{sign 2 pi i J K / M}: a length-M DFT of the pre-twiddled source folded at
    K mod M, read at J mod M and post-twiddled.  src_c and dst_c lie within a
    step of 0 on the package's grids, so the twiddle phases stay below ~pi and
    keep full precision.  Both steps come from the endpoints: a difference of
    neighbouring samples would carry the rounding of their large values.
    """
    if src.size < 2 or dst.size < 2:
        raise ValueError("Fourier transform grids need at least 2 points")
    d_src = (src[-1] - src[0]) / (src.size - 1)
    d_dst = (dst[-1] - dst[0]) / (dst.size - 1)
    product = float(d_src * d_dst)
    ratio = 2.0 * math.pi * hbar / product if product > 0.0 else 0.0
    m = round(ratio) if math.isfinite(ratio) else 0
    # A mismatch of 1e-9 only moves the implied destination samples by that
    # fraction of their extent; rounding in grid construction stays far below.
    if m < 1 or abs(ratio - m) > 1e-9 * m:
        raise ValueError(f"grids are not Fourier-conjugate: 2 pi hbar / (d_src d_dst) = {ratio}")
    kc, jc = src.size // 2, dst.size // 2
    lead = np.shape(values)[:-1]
    folded = np.zeros(lead + (-(-src.size // m) * m,), dtype=complex)
    # named, so numpy cannot reuse it in place as twiddle * values (other rounding)
    twiddle = np.exp((sign * 1j * d_src * dst[jc] / hbar) * (np.arange(src.size) - kc))
    np.multiply(values, twiddle, out=folded[..., : src.size])
    folded = np.roll(folded.reshape(*lead, -1, m).sum(axis=-2), -kc, axis=-1)
    spectrum = np.fft.fft(folded) if sign < 0 else np.fft.ifft(folded, norm="forward")
    out = spectrum[..., (np.arange(dst.size) - jc) % m] * np.exp((sign * 1j * src[kc] / hbar) * dst)
    return out * (d_src / math.sqrt(2.0 * math.pi * hbar))


def momentum_to_position(values: np.ndarray, p: np.ndarray, x: np.ndarray, hbar: float) -> np.ndarray:
    """psi(x) = (2 pi hbar)^(-1/2) * integral dp e^{i p x / hbar} psi(p)."""
    return _fourier_apply(values, np.asarray(p, dtype=float), np.asarray(x, dtype=float), +1.0, hbar)


def position_to_momentum(values: np.ndarray, x: np.ndarray, p: np.ndarray, hbar: float) -> np.ndarray:
    """psi(p) = (2 pi hbar)^(-1/2) * integral dx e^{-i p x / hbar} psi(x)."""
    return _fourier_apply(values, np.asarray(x, dtype=float), np.asarray(p, dtype=float), -1.0, hbar)

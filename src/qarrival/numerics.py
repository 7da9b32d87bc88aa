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
come from two polynomial tables summed by Horner's rule to a fixed degree:
below z = 10 the entire function z^(-nu) J_nu(z) in x = z^2/72 - 1 (DLMF
10.2.2), at and above it the Hankel modulation P + iQ in x = 16/z - 1 (DLMF
10.17).  The sum is linear in its coefficients, so its real series are summed
two to a complex series, the low table's two orders as one and the high
table's P and Q of both orders as two; each part is bitwise the sum of its
real series.  That packing stays in this module: _bessel_low and _bessel_high
return J_(-1/4) + i J_(3/4) times the real scale z^(1/4) below the switchover
and sqrt(pi z/2) at and above it.
tools/bessel_tables.py generates both with mpmath, as Chebyshev interpolants
expanded into monomials.  Horner's rounding is bounded by about
2k eps sum_k |a_k| |x|^k (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, sec. 5.1); sum_k |a_k| is 1.0004 against max |f| = 1.0 for
the high table and 22.4 against 0.97 for the low one, whose terms cancel most
at z -> 0.  Against mpmath the low table errs by at most 3.2e-15 (3.5e-15 of
f itself on z <= 1) and the high one by 1.8e-16; the two agree to better than
1e-9 on the overlap window z in [8, 12].  A sample costs about 27 ns below
the switchover and 65-80 ns at and above it, of which cos and sin take about
35 ns (4096-sample arrays, 2 cores, numpy 2.4).

The one transform between uniform grids, _fourier_apply, costs about one FFT:
it writes the twiddled source straight into its periodic box by slices, runs
the FFT in place and reads the destination out of the box by slices.  Its two
twiddles are linear phases, each the outer product of a coarse and a fine
table of about sqrt(n) exponentials (_phase_table), which puts its outputs
within a few eps of their peak of one exponential per sample (at most 4.5e-16
on Gaussian packets on the package's grids, both directions).  Medians of 400
alternated calls: a 1024 -> 4096 row took 107 us and a (3, 2, 1024) stack 745
us, where zero-fill, reshape-sum, roll, fancy gather and one exponential per
sample took 219 and 1302 us (2 cores, numpy 2.4; the stack's time is mostly
minor page faults of its fresh 393 KB arrays, 160 per call where there were
395, counted by getrusage).
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

# Monomial coefficients a_k of sum_k a_k x^k, one row per order (-1/4, 3/4),
# generated by tools/bessel_tables.py: Chebyshev interpolants at 40 digits,
# expanded into monomials in mpmath and only then rounded.  Low table:
# z^(-nu) J_nu(z) in x = (z/10)^2 / 0.72 - 1, fitted on z in [0, 12].  High
# table: the Hankel modulation P + iQ in x = 16/z - 1, fitted on z >= 8.
_BESSEL_LOW = np.array([
    [  # nu = -0.25
        -0.10543031020676628, -1.9203539058837529, 1.6690055065673046,
        4.787475172153664, -5.794897440706628, 0.03744542559165508,
        3.447294169164267, -2.8477539642096583, 1.294733567211106,
        -0.4029709696034754, 0.0936528849693385, -0.017069807553112264,
        0.0025208546299164227, -0.00030887159956219916, 3.197851239362725e-05,
        -2.8389032745973923e-06, 2.1870231070639454e-07, -1.477384241221009e-08,
        8.939728509577579e-10, -4.750322921310949e-11,
    ],
    [  # nu = 0.75
        0.05334316405232647, -0.09272252814262799, -0.3989562643461387,
        0.6438774934118444, -0.005200753554396824, -0.5745490281939837,
        0.5537299374852145, -0.2877185704918843, 0.10074274240085097,
        -0.02601469026679923, 0.005215774530173251, -0.0008402848833519028,
        0.0001115369664074539, -1.2436077136715871e-05, 1.182876471089524e-06,
        -9.721172858882868e-08, 6.976476246086607e-09, -4.413208681918199e-10,
        2.508537194387102e-11, -1.2590127304575647e-12,
    ],
])
_BESSEL_HIGH = np.array([
    [  # nu = -0.25
        (0.9998009340012775-0.0058466175810043776j), (-0.0003957658884814212-0.005821395878737456j),
        (-0.0001932376143382191+3.72620612560524e-05j), (4.477812581499206e-06+1.149994617100316e-05j),
        (9.21856639346347e-07-6.406689760319303e-07j), (-1.0335641244630702e-07-8.282683504359438e-08j),
        (-6.328806680360844e-09+1.7927582642949695e-08j), (3.183000150314349e-09-1.3285820986258362e-10j),
        (-2.7126138965219195e-10-5.418708221842226e-10j), (-7.703087194054941e-11+1.0225072530973233e-10j),
        (2.938219665281134e-11+5.0647849500282536e-12j), (-2.564753257522067e-12-7.026531494864383e-12j),
        (-1.3477776953918875e-12+1.0831680007926803e-12j), (4.528087461758048e-13+1.7091081457267981e-13j),
    ],
    [  # nu = 0.75
        (1.0002561246434019+0.009750536644735531j), (0.0005095635490124942+0.009720684435172424j),
        (0.00024950496375941895-4.4146300234868556e-05j), (-5.094164020817024e-06-1.3694483642433141e-05j),
        (-1.0578415974536756e-06+7.119202173419586e-07j), (1.1315946699402437e-07+9.345529950964199e-08j),
        (7.181089239510269e-09-1.9439553888810214e-08j), (-3.431031438809028e-09+9.430036032002203e-11j),
        (2.816011211627935e-10+5.827261140589282e-10j), (8.319673062852255e-11-1.0734004866277729e-10j),
        (-3.0927013223292306e-11-5.751249984845355e-12j), (2.598916757332204e-12+7.414621351903644e-12j),
        (1.4249349329289293e-12-1.1183602648959846e-12j), (-4.708474641864231e-13-1.8379340982390176e-13j),
    ],
])


# The tables for _horner, two real series to a complex one: the low table's
# orders as f_(-1/4) + i f_(3/4), the high table's P and Q as
# U = P_(-1/4) + i Q_(3/4) and V = Q_(-1/4) - i P_(3/4).
_LOW_SERIES = (tuple(map(complex, *_BESSEL_LOW)),)
_HIGH_SERIES = (
    tuple(map(complex, _BESSEL_HIGH[0].real, _BESSEL_HIGH[1].imag)),
    tuple(map(complex, _BESSEL_HIGH[0].imag, -_BESSEL_HIGH[1].real)),
)


def _horner(series: tuple[tuple[complex, ...], ...], x: np.ndarray) -> np.ndarray:
    """sum_k a_k x^k for each complex series a of `series` at the float array
    x; shape (len(series),) + x.shape.

    Horner's rule, s = s x + a_k from the top, as two in-place operations per
    term.  x is cast to x + 0i once: each product's parts are then s' x - 0 s''
    and s'' x + 0 s', so the real and imaginary parts are, bit for bit, the
    sums of the two real series.
    """
    xc = x.astype(complex)
    out = np.empty((len(series),) + x.shape, dtype=complex)
    for a, res in zip(series, out):
        np.multiply(xc, a[-1], out=res)
        for c in a[-2:0:-1]:
            res += c
            res *= xc
        res += a[0]
    return out


def _bessel_low(z: np.ndarray) -> np.ndarray:
    """z^(1/4) (J_(-1/4)(z) + i J_(3/4)(z)) for 0 <= z < BESSEL_SWITCHOVER.

    With f_nu = z^(-nu) J_nu(z) from the low table this is f_(-1/4) + i z f_(3/4).
    """
    f = _horner(_LOW_SERIES, z * z / 72.0 - 1.0)[0]
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
    u, v = _horner(_HIGH_SERIES, 16.0 / z - 1.0)
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


def _phase_table(phase0: float, theta: float, start: int, n: int, scale: float = 1.0) -> np.ndarray:
    """scale e^{i (phase0 + theta k)} for k = start .. start + n - 1.

    With B = ceil(sqrt(n)) and k = start + a B + b, this is the outer product
    of the coarse table scale e^{i (phase0 + theta (start + a B))} and the fine
    table e^{i theta b}: about 2 sqrt(n) complex exponentials and n products
    where a direct table takes n exponentials.  Each entry carries the
    rounding of its two factors and of their product, a few eps of its
    modulus.
    """
    fine_n = math.isqrt(n - 1) + 1
    coarse = scale * np.exp(1j * (phase0 + theta * (start + fine_n * np.arange(-(-n // fine_n)))))
    fine = np.exp(1j * theta * np.arange(fine_n))
    return np.multiply.outer(coarse, fine).reshape(-1)[:n]


def _twiddles(src: np.ndarray, dst: np.ndarray, d_src: float, d_dst: float, sign: float, hbar: float):
    """_fourier_apply's pre-twiddle e^{sign i K d_src dst_c / hbar} over the
    source and its post-twiddle (2 pi hbar)^(-1/2) d_src e^{sign i src_c dst_j / hbar}
    over the destination, with K and J counted from the middle samples."""
    kc, jc = src.size // 2, dst.size // 2
    src_c, dst_c = float(src[kc]), float(dst[jc])
    pre = _phase_table(0.0, sign * d_src * dst_c / hbar, -kc, src.size)
    post = _phase_table(
        sign * src_c * dst_c / hbar, sign * src_c * d_dst / hbar, -jc, dst.size, d_src / math.sqrt(2.0 * math.pi * hbar)
    )
    return pre, post


def _box_runs(first: int, count: int, m: int):
    """(i, s, t) for each run of `count` consecutive samples whose first sits
    at index `first` (mod m) of a periodic box of m: samples i .. i + t - 1
    sit at box indices s .. s + t - 1.  At most two runs for count <= m."""
    i = 0
    while i < count:
        s = (first + i) % m
        t = min(m - s, count - i)
        yield i, s, t
        i += t


def _fourier_apply(values: np.ndarray, src: np.ndarray, dst: np.ndarray, sign: float, hbar: float) -> np.ndarray:
    """(2 pi hbar)^(-1/2) d_src sum_k e^{sign * i * dst_j * src_k / hbar} values_k, by one FFT,
    along the last axis.  A row of a leading axis equals its one-row call bitwise.

    Both grids must be uniform and conjugate up to an integer M, d_src d_dst =
    2 pi hbar / M.  With indices K, J counted from the middle samples src_c,
    dst_c, the kernel is e^{sign i src_c dst_j / hbar} e^{sign i K d_src dst_c / hbar}
    e^{sign 2 pi i J K / M}: a length-M DFT of the pre-twiddled source folded at
    K mod M, read at J mod M and post-twiddled.  The folding is done by slices:
    source sample k is written straight to box index (k - kc) mod M, as at
    most two slice writes, and a source longer than M (the centred 4n + 1
    grid) adds its wrapped samples onto the box afterwards, in order; output j
    reads box index (j - jc) mod M, as at most three slices for a destination
    of M + 1 samples.  Both twiddles are linear phases, taken from two short
    tables each (_phase_table), with d_src / sqrt(2 pi hbar) in the post
    table; against twiddles from one exponential per sample this moves the
    result by a few eps of its peak (at most 4.5e-16 on the package's grids).
    dst_j is read as dst_c + J d_dst.  src_c and dst_c lie within a step of 0
    on the package's grids, so the twiddle phases stay below ~pi and keep
    full precision.  Both steps come from the endpoints: a difference of
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
    pre, post = _twiddles(src, dst, float(d_src), float(d_dst), sign, hbar)
    values = np.asarray(values)
    box = np.empty(values.shape[:-1] + (m,), dtype=complex)
    for start in range(0, src.size, m):
        for i, s, t in _box_runs(start - kc, min(m, src.size - start), m):
            k = slice(start + i, start + i + t)
            if start == 0:
                np.multiply(values[..., k], pre[k], out=box[..., s : s + t])
            else:
                box[..., s : s + t] += values[..., k] * pre[k]
    for _, s, t in _box_runs(src.size - kc, m - src.size, m):
        box[..., s : s + t] = 0.0
    if sign < 0:
        np.fft.fft(box, out=box)
    else:
        np.fft.ifft(box, norm="forward", out=box)
    out = np.empty(values.shape[:-1] + (dst.size,), dtype=complex)
    for j, s, t in _box_runs(-jc, dst.size, m):
        np.multiply(box[..., s : s + t], post[j : j + t], out=out[..., j : j + t])
    return out


def momentum_to_position(values: np.ndarray, p: np.ndarray, x: np.ndarray, hbar: float) -> np.ndarray:
    """psi(x) = (2 pi hbar)^(-1/2) * integral dp e^{i p x / hbar} psi(p)."""
    return _fourier_apply(values, np.asarray(p, dtype=float), np.asarray(x, dtype=float), +1.0, hbar)


def position_to_momentum(values: np.ndarray, x: np.ndarray, p: np.ndarray, hbar: float) -> np.ndarray:
    """psi(p) = (2 pi hbar)^(-1/2) * integral dx e^{-i p x / hbar} psi(x)."""
    return _fourier_apply(values, np.asarray(x, dtype=float), np.asarray(p, dtype=float), -1.0, hbar)

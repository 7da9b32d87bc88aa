"""Momentum-grid discretization, special functions, and quadrature.

Everything downstream works in the momentum representation on a uniform
symmetric grid with a half-step offset,

    p_k = -p_max + (k + 1/2) dp,   dp = 2 p_max / n,   k = 0 .. n-1.

The offset keeps p = 0 off the grid, which matters because several of the
arrival-time operators carry 1/|p| or 1/(p |p|) factors that are singular
at the origin.  The grid is built mirror-symmetrically so that the index
flip k -> n-1-k maps p_k to -p_k bitwise; the reflection operator is then
an exact permutation.

Bessel functions of fractional order are evaluated from the ascending
power series below z = 10 and from the large-z Hankel (amplitude/phase)
expansion above, with adaptive optimal truncation of the divergent tail.
Both branches agree to better than 1e-9 on the overlap window z in [8, 12].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Ascending series / Hankel expansion switchover and term caps.  The series
# needs ~40 terms at z = 10; the Hankel tail is truncated at its smallest
# term (reached well below 40 terms for z >= 8).
BESSEL_SWITCHOVER = 10.0
SERIES_MAX_TERMS = 240
HANKEL_MAX_TERMS = 40

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
# Gamma function (Lanczos approximation, g = 7, 9 coefficients)
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x, accurate to ~15 significant digits.

    Raises ValueError at the poles (nonpositive integers).  Negative
    non-integer arguments go through the reflection formula.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma_fn requires finite x, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma_fn pole at nonpositive integer x = {x}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    x -= 1.0
    acc = _LANCZOS_COEFS[0]
    for i, c in enumerate(_LANCZOS_COEFS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (x + 0.5) * math.exp(-t) * acc


# ---------------------------------------------------------------------------
# Bessel J of real (fractional) order
# ---------------------------------------------------------------------------


def _bessel_series(nu: float, z: np.ndarray) -> np.ndarray:
    """Ascending power series J_nu(z) = sum_k (-1)^k (z/2)^(2k+nu) / (k! Gamma(k+nu+1)).

    Terms are generated by the ratio recurrence t_k = -t_{k-1} (z/2)^2 / (k (k+nu)).
    Intended for z below the switchover; raises OverflowError if the terms
    grow out of double range (they cannot for z <= 1e4 at the supported orders,
    because callers route large z to the asymptotic branch).
    """
    z = np.asarray(z, dtype=float)
    term = (z / 2.0) ** nu / gamma_fn(nu + 1.0)
    total = term.copy()
    q = -((z / 2.0) ** 2)
    for k in range(1, SERIES_MAX_TERMS):
        term = term * q / (k * (k + nu))
        if np.any(np.abs(term) > 1e250):
            raise OverflowError("bessel series diverges numerically; use the asymptotic branch")
        total = total + term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total) + 1e-300):
            break
    return total


def _hankel_pq(nu: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and Q sums of the large-z Hankel expansion.

        J_nu(z) ~ sqrt(2/(pi z)) [P cos(omega) - Q sin(omega)],
        omega = z - nu pi/2 - pi/4.

    The expansion is divergent; each of the two alternating chains is summed
    to its smallest term, with half weight on the stopping term (averaging of
    the two bracketing partial sums), which gains roughly an order of
    magnitude at z near 8.
    """
    z = np.asarray(z, dtype=float)
    mu = 4.0 * nu * nu
    shape = z.shape
    c = np.ones(shape)
    sum_p = np.ones(shape)
    sum_q = np.zeros(shape)
    prev_p = np.ones(shape)
    prev_q = np.full(shape, np.inf)
    done_p = np.zeros(shape, dtype=bool)
    done_q = np.zeros(shape, dtype=bool)
    for k in range(1, HANKEL_MAX_TERMS + 1):
        c = c * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        t = ((-1.0) ** (k // 2)) * c
        if k % 2 == 0:
            worse = (~done_p) & (np.abs(t) >= prev_p)
            tiny = (~done_p) & (np.abs(t) < 1e-17 * np.abs(sum_p))
            sum_p = sum_p + np.where(done_p, 0.0, np.where(worse, 0.5 * t, t))
            prev_p = np.where(done_p | worse | tiny, prev_p, np.abs(t))
            done_p |= worse | tiny
        else:
            worse = (~done_q) & (np.abs(t) >= prev_q)
            tiny = (~done_q) & (np.abs(t) < 1e-17 * np.abs(sum_q) + 1e-300)
            sum_q = sum_q + np.where(done_q, 0.0, np.where(worse, 0.5 * t, t))
            prev_q = np.where(done_q | worse | tiny, prev_q, np.abs(t))
            done_q |= worse | tiny
        if done_p.all() and done_q.all():
            break
    return sum_p, sum_q


def _bessel_asymptotic(nu: float, z: np.ndarray) -> np.ndarray:
    """Large-z amplitude/phase form of J_nu; accurate to ~4e-10 already at z = 8."""
    z = np.asarray(z, dtype=float)
    p, q = _hankel_pq(nu, z)
    omega = z - nu * math.pi / 2.0 - math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * z)) * (p * np.cos(omega) - q * np.sin(omega))


def bessel_j(nu: float, z):
    """Bessel function J_nu(z) for real order nu and z >= 0.

    Ascending series below z = 10, Hankel asymptotic expansion above; scalar
    in, scalar out; array in, array out.
    """
    nu = float(nu)
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got {nu}")
    scalar = np.isscalar(z) or getattr(z, "ndim", 1) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0.0):
        raise ValueError("bessel_j domain is z >= 0")
    out = np.empty_like(z)
    zero = z == 0.0
    if zero.any():
        if nu == 0.0:
            out[zero] = 1.0
        elif nu > 0.0:
            out[zero] = 0.0
        else:
            raise ValueError(f"J_nu(0) diverges for nu = {nu} < 0")
    lo = (~zero) & (z < BESSEL_SWITCHOVER)
    hi = (~zero) & (~lo)
    if lo.any():
        out[lo] = _bessel_series(nu, z[lo])
    if hi.any():
        out[hi] = _bessel_asymptotic(nu, z[hi])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Composite Simpson weights; even sample counts get a trapezoid end cell."""
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    if dx <= 0.0:
        raise ValueError(f"dx must be positive, got {dx}")
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
    """(2 pi hbar)^(-1/2) d_src sum_k e^{sign * i * dst_j * src_k / hbar} values_k, by one FFT.

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
    folded = np.zeros(-(-src.size // m) * m, dtype=complex)
    folded[: src.size] = values * np.exp((sign * 1j * d_src * dst[jc] / hbar) * (np.arange(src.size) - kc))
    folded = np.roll(folded.reshape(-1, m).sum(axis=0), -kc)
    spectrum = np.fft.fft(folded) if sign < 0 else np.fft.ifft(folded, norm="forward")
    out = spectrum[(np.arange(dst.size) - jc) % m] * np.exp((sign * 1j * src[kc] / hbar) * dst)
    return out * (d_src / math.sqrt(2.0 * math.pi * hbar))


def momentum_to_position(values: np.ndarray, p: np.ndarray, x: np.ndarray, hbar: float) -> np.ndarray:
    """psi(x) = (2 pi hbar)^(-1/2) * integral dp e^{i p x / hbar} psi(p)."""
    return _fourier_apply(values, np.asarray(p, dtype=float), np.asarray(x, dtype=float), +1.0, hbar)


def position_to_momentum(values: np.ndarray, x: np.ndarray, p: np.ndarray, hbar: float) -> np.ndarray:
    """psi(p) = (2 pi hbar)^(-1/2) * integral dx e^{-i p x / hbar} psi(x)."""
    return _fourier_apply(values, np.asarray(x, dtype=float), np.asarray(p, dtype=float), -1.0, hbar)

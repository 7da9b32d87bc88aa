"""Arrival-time operators: eigenstate families, matrices, and distributions.

Implements five eigenstate families on the momentum grid,

    AB    sqrt(|p|/2 pi m hbar) e^{i p^2 tau / 2 m hbar}          (complete, not orthogonal)
    KDM   sqrt(|p|/2 pi m hbar) e^{i eps(p) p^2 tau / 2 m hbar}   (orthogonal, complete)
    MI    N |p|^(1/2) sin(p^2 tau / 2 m hbar)                     (tau >= 0)
    T3    the MI form restricted to the p > 0 (tau >= 0) or p < 0 (tau < 0) sector
    NEW   (sqrt(tau)/(sqrt(8) m hbar)) (|p|^(3/2) J_{-1/4}(z) + i p |p|^(1/2) J_{3/4}(z)),
          z = p^2 tau / 2 m hbar,

with N = sqrt(2/(pi m hbar)) fixed by the sector-wise resolution of identity.

The NEW family is the self-adjoint arrival-time operator built from the time
integral of the current operator,

    T = T_KDM + (i hbar m / 2) (1/(p|p|)) R,

where R is the momentum reflection.

Operator matrices use the convention M[j, k] ~= <p_j|O|p_k> dp, so a matrix
acts directly on sample vectors.  The position operator in the momentum
basis, x = i hbar d/dp, is discretized with 4th-order central differences
(one-sided at the two rows on each edge, mirrored so that R D R = -D holds
exactly); hermiticity and commutator statements therefore hold on interior
rows only.  An operator is held as its entry formula, evaluated on its
nonzero pattern only: at most nine diagonals of the stencil band and nine
anti-diagonals that R mirrors them onto, stored as two bands of shape (9, n)
or less, so building, applying and checking one costs O(n).  The rank-two
current J is the one full pattern; it is evaluated a block at a time.  No
n x n array is formed except by OperatorMatrix.matrix, on request.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import (
    BESSEL_SWITCHOVER,
    GAMMA_3_4,
    GridSpec,
    PhysConsts,
    _bessel_scaled,
    _hankel_modulation,
    integrate,
    simpson_weights,
)
from .states import Representation, WaveFunction


class EigenFamily(enum.Enum):
    AB = "ab"
    KDM = "kdm"
    MI = "mi"
    T3 = "t3"
    NEW = "new"


class OperatorKind(enum.Enum):
    H = "h"
    XI = "xi"
    R = "r"
    SIGN_P = "sign_p"
    T_KDM = "t_kdm"
    T_NEW_SYM = "t_new_sym"
    T_NEW_VIA_KDM = "t_new_via_kdm"
    T_DWELL = "t_dwell"
    J_CURRENT = "j_current"


# Reach of an operator's stored diagonals, about the main diagonal and about
# the anti-diagonal: the one-sided edge rows of the 4th-order d/dp stencil
# reach offset 4, and R mirrors that band onto the anti-diagonal.
BAND_WIDTH = 4

# Entries per block of an operator with a full pattern.
_BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Operator in the discrete momentum basis, M[j,k] ~= <p_j|O|p_k> dp.

    `entries(j, k)` is the entry formula at broadcast index arrays; it is
    evaluated on the operator's nonzero pattern only.  With a band width w
    that is the stencil band k = j + o and the reflected band
    k = n - 1 - j + o, |o| <= w, stored as `diag` and `anti` of shape
    (2w + 1, n):  diag[w + o, j] = M[j, j + o], anti[w + o, j] = M[j, n - 1 - j + o],
    zero where that entry is outside the matrix or, in `anti`, in `diag`.
    With width None the pattern is the full matrix, evaluated a block of
    columns at a time and never stored.
    """

    entries: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grid: GridSpec
    consts: PhysConsts
    kind: str
    width: int | None = BAND_WIDTH
    diag: np.ndarray | None = field(init=False, default=None)
    anti: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.width is not None:
            diag, anti = (np.where(inside, self.entries(rows, cols), 0.0) for rows, cols, inside, _ in self.chunks())
            object.__setattr__(self, "diag", diag)
            object.__setattr__(self, "anti", anti)

    def chunks(self):
        """(rows, cols, inside, values) over the pattern: the two bands, or the
        column blocks.  Axis 1 runs over rows and axis 0 along a row; cols is
        clipped into the matrix, and `inside` marks the entries really in it."""
        n, w = self.grid.n, self.width
        rows = np.arange(n)[None, :]
        if w is None:
            step = max(1, _BLOCK_ENTRIES // n)
            for start in range(0, n, step):
                cols = np.arange(start, min(start + step, n))[:, None]
                # whole index arrays: a product of two stride-0 broadcasts is ~10x slower
                block = np.broadcast_to(rows, (cols.size, n))
                yield block, cols, np.True_, self.entries(block, cols)
            return
        offsets = np.arange(-w, w + 1)[:, None]
        stencil, reflected = rows + offsets, (n - 1 - rows) + offsets
        yield rows, np.clip(stencil, 0, n - 1), (stencil >= 0) & (stencil < n), self.diag
        inside = (reflected >= 0) & (reflected < n) & (np.abs(reflected - rows) > w)
        yield rows, np.clip(reflected, 0, n - 1), inside, self.anti

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, assembled from the pattern (for tests)."""
        mat = np.zeros((self.grid.n, self.grid.n), dtype=complex)
        for rows, cols, inside, values in self.chunks():
            rows, cols, inside, values = np.broadcast_arrays(rows, cols, inside, values)
            mat[rows[inside], cols[inside]] = values[inside]
        return mat

    def apply(self, f: np.ndarray) -> np.ndarray:
        """The matrix-vector product M f, one pass over the pattern."""
        out = np.zeros(self.grid.n, dtype=complex)
        for rows, cols, _, values in self.chunks():
            out[rows[0]] += np.sum(values * f[cols], axis=0)
        return out

    def compose(self, other: OperatorMatrix) -> OperatorMatrix:
        """self @ other for two banded operators, from self's bands and other's
        entry formula; the product's bands reach as far as both widths together."""
        n, w = self.grid.n, self.width

        def entries(j, k):
            total = 0.0
            for i in range(2 * w + 1):
                for band, l in ((self.diag, j + i - w), (self.anti, n - 1 - j + i - w)):
                    total = total + band[i, j] * other.entries(np.clip(l, 0, n - 1), k)
            return total

        return OperatorMatrix(entries, self.grid, self.consts, f"{self.kind}*{other.kind}", w + other.width)


@dataclass(frozen=True)
class Distribution:
    """Sampled arrival-time probability density Pi(tau)."""

    tau_grid: np.ndarray
    values: np.ndarray
    family: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_grid, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if tau.shape != val.shape:
            raise ValueError("tau_grid and values must have matching shapes")
        if np.any(val < -1e-12) or not np.all(np.isfinite(val)):
            raise ValueError("distribution values must be finite and nonnegative")
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "values", val)


# ---------------------------------------------------------------------------
# Eigenstates
# ---------------------------------------------------------------------------


def _mi_norm(consts: PhysConsts) -> float:
    return math.sqrt(2.0 / (math.pi * consts.mass * consts.hbar))


# Taus are evaluated in blocks of about this many evaluated samples: (tau, |p|)
# pairs of the half grid for the eigenstates, (t, p^2) pairs for the currents.
# A NEW block makes about 300 numpy calls, so at 2048 samples their overhead
# made NEW's distribution about 30% slower; 8192 was about 15% faster for it,
# but not on the whole spectral benchmark, and raised its peak RSS by 0.4 MB;
# 16384 was slower than 8192 again.
_BLOCK_SAMPLES = 4096


def _tau_blocks(taus: np.ndarray, samples: int):
    """Consecutive (start, taus[start:start + k]) blocks of about _BLOCK_SAMPLES
    evaluated samples, for `samples` per tau."""
    k = max(1, _BLOCK_SAMPLES // samples)
    for start in range(0, taus.size, k):
        yield start, taus[start : start + k]


def _new_amplitudes(ap: np.ndarray, tau: np.ndarray, consts: PhysConsts) -> tuple[np.ndarray, np.ndarray]:
    """Prefactors of the NEW eigenstate for the low and the high Bessel table,
    at |p| and tau (broadcast against each other for the low one)."""
    m, hbar = consts.mass, consts.hbar
    # low: J_nu(z) = z^nu f_nu(z), and the prefactor times |p|^(3/2) z^(-1/4)
    # is |p| (tau / 2 m hbar)^(1/4) / (2 sqrt(m hbar)); high: the prefactor
    # times |p|^(3/2) sqrt(2/(pi z)) is sqrt(|p| / 2 pi m hbar)
    low = ap * ((tau / (2.0 * m * hbar)) ** 0.25 / (2.0 * math.sqrt(m * hbar)))
    return low, np.sqrt(ap / (2.0 * math.pi * m * hbar))


def _new_low_table(z: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the NEW-family eigenstate from the low Bessel
    table, given its prefactor."""
    f0, f1 = _bessel_scaled(z)
    return amp * f0, amp * (z * f1)


def _new_high_table(z: np.ndarray, amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the NEW-family eigenstate from the high
    (Hankel) table, given its prefactor."""
    # J_nu(z) = sqrt(2/(pi z)) (P cos omega - Q sin omega).  With A = z - pi/8
    # the two phases omega are A and A - pi/2, so
    # J_{-1/4} + i J_{3/4} = sqrt(2/(pi z)) ((P1 + i Q2) cos A - (Q1 - i P2) sin A).
    (p1, p2), (q1, q2) = _hankel_modulation(z)
    phase = z - math.pi / 8.0
    cos, sin = np.cos(phase), np.sin(phase)
    return amp * (p1 * cos - q1 * sin), amp * (q2 * cos + p2 * sin)


def _mirror_half(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|p| on the upper half of a mirror-symmetric grid (|p| a palindrome) and
    the index that expands a row over it to p; on any other grid, |p| itself
    and the identity index."""
    n = p.size
    ap, k = np.abs(p), np.arange(n)
    if np.array_equal(ap, ap[::-1]):
        return ap[n // 2 :], np.maximum(k, n - 1 - k) - n // 2
    return ap, k


def _new_eigenstate_half(taus: np.ndarray, ap: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """NEW-family eigenstates at |p| = ap for taus >= 0, one row per tau; the
    low Bessel table below the switchover z = 10, the high table at and above it.
    Each table's samples are gathered into one contiguous array, and the real
    and imaginary parts are written straight into the complex result."""
    m, hbar = consts.mass, consts.hbar
    half = np.zeros((taus.size, ap.size), dtype=complex)
    # phi_tau ~ tau^(1/4) -> 0, so rows with tau = 0 stay zero
    rows = taus != 0.0
    tau = taus[rows, None]
    z = ap * ap * tau / (2.0 * m * hbar)
    low_amp, high_amp = _new_amplitudes(ap, tau, consts)
    out = np.empty(z.shape, dtype=complex)
    re, im = out.real, out.imag
    lo = z < BESSEL_SWITCHOVER
    if lo.any():
        re[lo], im[lo] = _new_low_table(z[lo], low_amp[lo])
    hi = ~lo
    if hi.any():
        re[hi], im[hi] = _new_high_table(z[hi], np.broadcast_to(high_amp, z.shape)[hi])
    half[rows] = out
    return half


def _eigenstate_block(family: EigenFamily, taus: np.ndarray, p: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """Eigenstates phi_tau(p) for a 1-D array of taus, shape (taus.size, p.size).

    Row k equals eigenstate_values(family, taus[k], p, consts) bitwise: every
    step is elementwise in (tau, p) with the same operations in the same order,
    and the NEW family's Bessel tables are summed to a fixed degree.

    Every family depends on |p| alone up to an exact sign rule: phi(-p) =
    phi(p) for AB and MI, conj phi(p) for KDM and NEW, and T3 is the MI form
    on one sector.  So each is evaluated on _mirror_half's |p| and expanded.
    KDM conjugates its exponential before the amplitude multiplies it, as the
    full-grid formula does, so even the signed zeros of Im phi (at phase 0 or
    an underflowed one) are that formula's.  The block is C-ordered, except
    NEW's, which is F-ordered: the layout fixes the rounding of the sums over
    p in completeness_check.
    """
    taus = np.asarray(taus, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p == 0.0):
        raise ValueError("eigenstates are not defined at p = 0")
    m, hbar = consts.mass, consts.hbar
    ap, index = _mirror_half(p)
    tau = taus[:, None]
    if family is EigenFamily.NEW:
        if np.any(taus < 0.0):
            raise ValueError("NEW family eigenstates are implemented for tau >= 0")
        full = _new_eigenstate_half(taus, ap, consts)[:, index]
        return np.conjugate(full, out=full, where=p < 0.0)
    if family is EigenFamily.MI and np.any(taus < 0.0):
        raise ValueError("MI family is defined for tau >= 0 (spectrum of m|x|/|p|)")
    phase = ap * ap * (np.abs(tau) if family is EigenFamily.T3 else tau) / (2.0 * m * hbar)
    if family in (EigenFamily.AB, EigenFamily.KDM):
        amp = np.sqrt(ap / (2.0 * math.pi * m * hbar))
        if family is EigenFamily.AB:
            return np.take(amp * np.exp(1j * phase), index, axis=1)
        wave = np.take(np.exp(1j * phase), index, axis=1)
        return amp[index] * np.conjugate(wave, out=wave, where=p < 0.0)
    if family in (EigenFamily.MI, EigenFamily.T3):
        full = np.take(_mi_norm(consts) * np.sqrt(ap) * np.sin(phase), index, axis=1)
        if family is EigenFamily.T3:
            full = np.where(np.where(tau >= 0.0, p > 0.0, p < 0.0), full, 0.0)
        return full.astype(complex)
    raise ValueError(f"unknown family {family}")


def eigenstate_values(family: EigenFamily, tau: float, p: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """Eigenstate phi_tau sampled on an array of momenta (no p = 0 allowed).

    The one-row call of the block evaluator; tau is a finite scalar.
    """
    return _eigenstate_block(family, np.array([float(_check_taus(tau, "tau"))]), p, consts)[0]


def eigenstate(family: EigenFamily, tau: float, p: float, consts: PhysConsts = PhysConsts()) -> complex:
    """Single eigenstate value phi_tau(p); p must be nonzero."""
    if p == 0.0:
        raise ValueError("eigenstates are not defined at p = 0")
    return complex(eigenstate_values(family, float(tau), np.array([float(p)]), consts)[0])


def new_low_momentum_slope(tau: float, consts: PhysConsts = PhysConsts()) -> float:
    """Small-z limit of phi_tau(p)/|p| for the NEW family:
    tau^(1/4) / (2 Gamma(3/4) (m hbar)^(3/4))."""
    m, hbar = consts.mass, consts.hbar
    return tau**0.25 / (2.0 * GAMMA_3_4 * (m * hbar) ** 0.75)


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------


def derivative_band(grid: GridSpec) -> np.ndarray:
    """4th-order finite-difference d/dp as its stencil band, band[4 + o, j] = D[j, j + o];
    one-sided 5-point stencils at the two rows on each edge, mirrored so that
    R D R = -D holds exactly."""
    n, dp = grid.n, grid.dp
    if n < 6:
        raise ValueError(f"the 5-point edge stencils need n >= 6, got {n}")
    band = np.zeros((2 * BAND_WIDTH + 1, n))
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dp)
    band[2:7, 2 : n - 2] = c[:, None]
    r0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dp)
    r1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dp)
    band[4:9, 0] = r0
    band[3:8, 1] = r1
    band[0:5, n - 1] = -r0[::-1]
    band[1:6, n - 2] = -r1[::-1]
    return band


def build_operator(
    kind: OperatorKind,
    grid: GridSpec,
    consts: PhysConsts = PhysConsts(),
    *,
    L: float | None = None,
    t: float | None = None,
) -> OperatorMatrix:
    """Momentum-basis operator of the requested kind, from its entry formula.

    T_DWELL requires the region length L > 0; J_CURRENT requires the time t.
    """
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    n = grid.n
    # the diagonal kinds, R and T_DWELL sit on offset 0 of the two bands
    stencil = kind in (OperatorKind.T_KDM, OperatorKind.T_NEW_SYM, OperatorKind.T_NEW_VIA_KDM)
    width = None if kind is OperatorKind.J_CURRENT else BAND_WIDTH if stencil else 0
    d, g = derivative_band(grid) if stencil else None, 1.0 / np.abs(p)

    def diagonal(values: np.ndarray):
        return lambda j, k: np.where(j == k, values[j], 0.0).astype(complex)

    def x_op(j, k):  # i hbar d/dp
        off = np.clip(k - j + BAND_WIDTH, 0, 2 * BAND_WIDTH)
        return 1j * hbar * np.where(np.abs(k - j) <= BAND_WIDTH, d[off, j], 0.0)

    def t_kdm(j, k):  # -(m/2) (x diag(g) + diag(g) x)
        x = x_op(j, k)
        return -(m / 2.0) * (x * g[k] + g[j] * x)

    if kind is OperatorKind.H:
        entries = diagonal(p**2 / (2.0 * m))
    elif kind is OperatorKind.XI:
        entries = diagonal(p * np.abs(p) / (2.0 * m))
    elif kind is OperatorKind.R:
        entries = lambda j, k: np.where(k == n - 1 - j, 1.0, 0.0).astype(complex)  # noqa: E731
    elif kind is OperatorKind.SIGN_P:
        entries = diagonal(np.sign(p))
    elif kind is OperatorKind.T_KDM:
        entries = t_kdm
    elif kind is OperatorKind.T_NEW_SYM:
        # A = (1/|p|)(1 + R); right-multiplying by R reflects the column
        # index, left-multiplying the row index (the grid is mirror-symmetric)
        def entries(j, k):
            x, xr = x_op(j, k), x_op(j, n - 1 - k)
            return -(m / 2.0) * ((x * g[k] + xr * g[n - 1 - k]) + (g[j] * x + g[j] * x_op(n - 1 - j, k)))

    elif kind is OperatorKind.T_NEW_VIA_KDM:
        # Reflection term (i hbar m / 2) (1/(p|p|)) R, with 1/(p|p|) realized
        # as the commutator-induced discrete operator (i/hbar) [x, 1/|p|] so
        # that both constructions refer to the same discretized x and agree
        # entrywise (a literal diagonal differs at O(1) near the anti-diagonal
        # on any finite-difference grid).
        def entries(j, k):
            xr = x_op(j, n - 1 - k)
            g_d = (1j / hbar) * (xr * g[n - 1 - k] - g[j] * xr)
            return t_kdm(j, k) + (1j * hbar * m / 2.0) * g_d

    elif kind is OperatorKind.T_DWELL:
        if L is None or L <= 0.0:
            raise ValueError("T_DWELL requires a region length L > 0")
        b = p * L / hbar
        scale = m * L / np.abs(p)
        refl = scale * np.exp(-1j * b) * np.sinc(b / math.pi)

        def entries(j, k):
            return diagonal(scale)(j, k) + np.where(k == n - 1 - j, refl[j], 0.0)

    elif kind is OperatorKind.J_CURRENT:
        if t is None:
            raise ValueError("J_CURRENT requires the evaluation time t")
        v = np.exp(1j * p**2 * t / (2.0 * m * hbar))
        w = np.conj(v)

        def entries(j, k):  # rank two, so every entry is nonzero
            delta = (grid.dp / (2.0 * math.pi * hbar)) * (v[j] * w[k])
            return (p[j] * delta + delta * p[k]) / (2.0 * m)

    else:
        raise ValueError(f"unknown operator kind {kind}")
    return OperatorMatrix(entries, grid, consts, kind.name, width)


def hermiticity_defect(op: OperatorMatrix) -> float:
    """max |M - M^dagger| / max |M| on the interior sub-block (without the two
    edge rows and columns on each side, where the one-sided stencils sit).

    The pattern is closed under transposition, so M^dagger is evaluated on it
    too; an entry off the pattern is zero in both.  |M[j,k] - conj M[k,j]| is
    the same number at (k, j), so a full pattern is visited on one triangle:
    each interior column block [start, stop) against the rows below stop, at
    every entry and its transpose."""
    n = op.grid.n
    defect = scale = 0.0
    if op.width is None:
        step = max(1, _BLOCK_ENTRIES // n)
        for start in range(2, n - 2, step):
            stop = min(start + step, n - 2)
            rows, cols = np.arange(2, stop)[None, :], np.arange(start, stop)[:, None]
            values, dagger = op.entries(rows, cols), np.conj(op.entries(cols, rows))
            defect = max(defect, float(np.max(np.abs(values - dagger))))
            scale = max(scale, float(np.max(np.abs(values))), float(np.max(np.abs(dagger))))
        return defect / scale
    for rows, cols, inside, values in op.chunks():
        inside = inside & (rows >= 2) & (rows < n - 2) & (cols >= 2) & (cols < n - 2)
        dagger = np.conj(op.entries(cols, rows))
        defect = max(defect, float(np.max(np.abs(values - dagger), where=inside, initial=0.0)))
        scale = max(scale, float(np.max(np.abs(values), where=inside, initial=0.0)))
    return defect / scale


# ---------------------------------------------------------------------------
# Distributions and expectation values
# ---------------------------------------------------------------------------


def _check_momentum_state(psi: WaveFunction) -> None:
    if psi.rep is not Representation.MOMENTUM:
        raise ValueError("expected a momentum-representation state")


def _check_taus(taus, name: str, *, increasing: bool = False, nonnegative: bool = False) -> np.ndarray:
    """taus as a float array, once every entry is finite and, on request, the
    array is nonempty, 1-D and strictly increasing, and its entries are >= 0.
    The one validator of the times a public function takes; raises ValueError."""
    arr = np.asarray(taus, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {taus}")
    if increasing and (arr.ndim != 1 or arr.size == 0 or np.any(np.diff(arr) <= 0.0)):
        raise ValueError(f"{name} must be a nonempty, 1-D, strictly increasing array")
    if nonnegative and np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def overlap(psi: WaveFunction, family: EigenFamily, tau: float) -> complex:
    """<psi|phi_tau> by composite-Simpson quadrature on psi's grid."""
    _check_momentum_state(psi)
    phi = eigenstate_values(family, float(tau), psi.grid, psi.consts)
    return integrate(np.conj(psi.values) * phi, psi.dx)


def distribution(psi: WaveFunction, family: EigenFamily, tau_grid: np.ndarray) -> Distribution:
    """Pi(tau_k) = |<psi|phi_tau_k>|^2.

    The eigenstates are evaluated in blocks of taus; each overlap is then its
    own Simpson sum, so a value does not depend on the blocking and equals a
    per-tau evaluation bitwise.
    """
    _check_momentum_state(psi)
    tau_grid = _check_taus(tau_grid, "tau_grid", increasing=True)
    w = simpson_weights(psi.grid.size, psi.dx)
    weighted = w * np.conj(psi.values)
    vals = np.empty(tau_grid.size)
    for start, taus in _tau_blocks(tau_grid, _mirror_half(psi.grid)[0].size):
        for i, phi in enumerate(_eigenstate_block(family, taus, psi.grid, psi.consts), start):
            vals[i] = abs(np.sum(weighted * phi)) ** 2
    return Distribution(tau_grid, vals, family.value, {"norm": psi.norm_squared()})


def kijowski_distribution(psi: WaveFunction, t: float | np.ndarray) -> float | np.ndarray:
    """Kijowski arrival-time density (1/m)<psi_t| |p|^(1/2) delta(x) |p|^(1/2) |psi_t>,
    for a scalar or 1-D array of times t.

    With the exact momentum-basis kernel <p|delta(x)|p'> = 1/(2 pi hbar) this
    is the rank-one form (1/(2 pi m hbar)) |integral dp |p|^(1/2) psi_t(p)|^2,
    identical to |<psi|phi^AB_t>|^2.  The phases are formed per _tau_blocks
    block of times, on the half grid of _mirror_half, and each time's Simpson
    sum is its own row sum, so a value equals the scalar call bitwise.
    """
    _check_momentum_state(psi)
    ts = _check_taus(t, "t")
    if ts.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    m, hbar = psi.consts.mass, psi.consts.hbar
    p = psi.grid
    w = simpson_weights(p.size, psi.dx)
    root = np.sqrt(np.abs(p))
    ap, index = _mirror_half(p)  # the phase depends on p^2 alone
    flat = ts.reshape(-1)
    amp = np.empty(flat.size, dtype=complex)
    for start, block in _tau_blocks(flat, ap.size):
        phase = np.take(np.exp(-1j * ap**2 * block[:, None] / (2.0 * m * hbar)), index, axis=1)
        amp[start : start + block.size] = np.sum(w * (root * (phase * psi.values)), axis=1)
    # Python's abs and ** on each amplitude: numpy's complex abs and square
    # round differently in the last digit
    dens = [abs(a) ** 2 / (2.0 * math.pi * m * hbar) for a in amp.tolist()]
    return dens[0] if ts.ndim == 0 else np.array(dens)


def kinetic_energy_density(psi: WaveFunction) -> tuple[float, float]:
    """(<p delta(x) p>, <|p| delta(x) |p|>) with the exact 1/(2 pi hbar) kernel."""
    _check_momentum_state(psi)
    hbar = psi.consts.hbar
    signed = integrate(psi.grid * psi.values, psi.dx)
    absolute = integrate(np.abs(psi.grid) * psi.values, psi.dx)
    c = 1.0 / (2.0 * math.pi * hbar)
    return c * abs(signed) ** 2, c * abs(absolute) ** 2


def _fold_energies(values: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct energies E = p^2 (ascending) and, for each, the sums of the
    rows of `values` and of p * values over its momenta: shape (E.size, 2k).
    Values of p^2 within 64 ulp of the largest count as equal, so a grid that is
    mirrored only up to rounding (a linspace with a non-dyadic end) folds as the
    exact one does; on the exact grid this is np.unique."""
    e = p**2
    order = np.argsort(e, kind="stable")
    first = np.concatenate([[True], np.diff(e[order]) > 64.0 * np.finfo(float).eps * e[order[-1]]])
    inverse = np.empty(p.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    folded = np.zeros((np.count_nonzero(first), 2 * values.shape[1]), dtype=complex)
    np.add.at(folded, inverse, np.concatenate([values, p[:, None] * values], axis=1))
    return e[order][first], folded


def _free_currents(values: np.ndarray, p: np.ndarray, dp: float, ts: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """<J(t)> at x = 0 for each column of `values` (momentum samples on p),
    at each time of the 1-D array ts; shape (ts.size, values.shape[1]).

    The one current formula, in the rank-two form of current_expectation:
    J(t) = Re[conj(A0) A1] / (2 pi hbar m) over the energies of
    _fold_energies.  The phases are formed over blocks of about
    _BLOCK_SAMPLES (t, p^2) entries, and the sums A0 and A1 of every column
    come from one matrix product per block.  The product is a stack of
    one-time rows, so a time's sums do not depend on the times that share its
    block, and a scalar call equals its row of a batched call bitwise.
    """
    m, hbar = consts.mass, consts.hbar
    k = values.shape[1]
    energies, folded = _fold_energies(values, p)
    sums = np.empty((ts.size, 2 * k), dtype=complex)
    for start, block in _tau_blocks(ts, energies.size):
        phase = np.exp(-1j * np.multiply.outer(block, energies) / (2.0 * m * hbar))
        sums[start : start + block.size] = (phase[:, None, :] @ folded)[:, 0]
    a0, a1 = sums[:, :k] * dp, sums[:, k:] * dp
    return (np.conj(a0) * a1).real / (2.0 * math.pi * hbar * m)


# Rows of C per block in _free_current_integrals (128 KB at 512 energies):
# 32 to 512 rows time within 15% of each other, 128 rows read 0.4 MB more peak
# RSS on the measurement benchmark, and 2-row blocks were up to 4x slower.
_C_ROWS = 32


def _free_current_integrals(
    values: np.ndarray, p: np.ndarray, dp: float, taus: np.ndarray, consts: PhysConsts
) -> np.ndarray:
    """integral_0^tau <J(t)> dt at x = 0 for each column of `values`, at each
    tau of the 1-D array taus; shape (taus.size, values.shape[1]).

    With a = conj F0, b = F1 from _fold_energies and w = E / 2 m hbar, the
    current of _free_currents is Re sum a_E b_E' e^{i (w_E - w_E') t} times
    dp^2 / (2 pi hbar m), a finite sum of phases, so its integral is exact:

        Re[tau (a.b) - i (u^T C v - a^T C b)] dp^2 / (2 pi hbar m),

    u = a e^{i w tau}, v = b e^{-i w tau}, C[E,E'] = 1/(w_E - w_E') off the
    diagonal and 0 on it.  C is real, antisymmetric and independent of tau; it
    is formed _C_ROWS rows at a time and applied to every v and to a by one
    real matrix product per block.  The difference is taken as
    (u - a)^T C v - (C a).(v - b) with expm1, so no digits cancel at small tau.
    """
    m, hbar = consts.mass, consts.hbar
    k = values.shape[1]
    energies, folded = _fold_energies(values, p)
    omega = energies / (2.0 * m * hbar)
    a, b = np.conj(folded[:, :k]), folded[:, k:]
    turn = np.expm1(1j * np.multiply.outer(omega, taus))[:, :, None]  # e^{i w tau} - 1
    v = b[:, None, :] * (1.0 + np.conj(turn))
    rhs = np.concatenate([v.reshape(omega.size, -1), a], axis=1).view(float)
    cross = np.zeros((taus.size, k), dtype=complex)
    for start in range(0, omega.size, _C_ROWS):
        at = np.arange(start, min(start + _C_ROWS, omega.size))
        gaps = np.subtract.outer(omega[at], omega)
        gaps[at - start, at] = np.inf  # C is 0 on its diagonal
        cw = (np.reciprocal(gaps, out=gaps) @ rhs).view(complex)
        cv, ca = cw[:, :-k].reshape(v[at].shape), cw[:, -k:]
        du, dv = a[at, None, :] * turn[at], b[at, None, :] * np.conj(turn[at])
        cross += np.sum(du * cv, axis=0) - np.sum(ca[:, None, :] * dv, axis=0)
    total = np.multiply.outer(taus, np.sum(a * b, axis=0)) - 1j * cross
    return total.real * dp**2 / (2.0 * math.pi * hbar * m)


def current_expectation(psi: WaveFunction, t: float | np.ndarray) -> float | np.ndarray:
    """<J(t)> at x = 0 after free evolution, for a scalar or 1-D array of times.

    J = (p delta(x) + delta(x) p) / 2m with the exact momentum-basis kernel
    <p|delta(x)|p'> = 1/(2 pi hbar), the one build_operator(J_CURRENT) uses,
    is rank two:  J(t) = Re[conj(A0) A1] / (2 pi hbar m)  with
    A0 = sum dp psi_t(p) and A1 = sum dp p psi_t(p).  The sums carry equal
    weights, as J_CURRENT does, so the two agree to rounding.
    """
    _check_momentum_state(psi)
    ts = _check_taus(t, "t")
    j = _free_currents(psi.values[:, None], psi.grid, psi.dx, ts.reshape(-1), psi.consts)
    return float(j[0, 0]) if ts.ndim == 0 else j[:, 0].reshape(ts.shape)


# ---------------------------------------------------------------------------
# Eigenvalue ODE and structural checks
# ---------------------------------------------------------------------------


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


def completeness_check(
    family: EigenFamily,
    psi: WaveFunction,
    tau_range: tuple[float, float],
    tau_n: int,
) -> float:
    """Relative reconstruction error of psi from the family over a tau window.

    psi_rec(p) = integral dtau phi_tau(p) <phi_tau|psi>.  The AB family is
    reconstructed sector-wise (theta(+-p) sectors, its POVM structure);
    without the sector split the full-line AB kernel contains an exact mirror
    image delta(p+p') and the error is O(1) for any one-sided packet.  Warns
    when more than 1e-4 of the overlap mass lies outside the window.

    The eigenstates are evaluated in blocks of taus; each block contributes
    its overlaps c = <phi|psi> and its share of psi_rec by sums over the whole
    block, which moves the error in its last digits against a per-tau loop.
    """
    _check_momentum_state(psi)
    lo, hi = _check_taus(tau_range, "tau_range").tolist()
    if not hi > lo:
        raise ValueError("tau_range must be increasing")
    if tau_n < 9:
        raise ValueError("tau_n too small for a stable reconstruction")
    taus = np.linspace(lo, hi, tau_n)
    wt = simpson_weights(tau_n, taus[1] - taus[0])
    wp = simpson_weights(psi.grid.size, psi.dx)
    p = psi.grid
    sectors = [p > 0.0, p < 0.0] if family is EigenFamily.AB else [slice(None)]
    # c_k = sum_j wp_j conj(phi_kj) psi_j = conj(sum_j phi_kj conj(wp_j psi_j)).
    # The block products are numpy sums, not BLAS matmul: nothing else on the
    # spectral path calls BLAS, and its first call raises peak RSS by ~0.3 MB.
    target = np.conj(wp * psi.values)
    rec = np.zeros(p.size, dtype=complex)
    mass = 0.0
    for start, block in _tau_blocks(taus, _mirror_half(p)[0].size):
        phi = _eigenstate_block(family, block, p, psi.consts)
        w = wt[start : start + block.size]
        for s in sectors:
            c = np.conj(np.sum(phi[:, s] * target[s], axis=1))
            rec[s] += np.sum((w * c)[:, None] * phi[:, s], axis=0)
            mass += float(np.sum(w * np.abs(c) ** 2))

    norm2 = psi.norm_squared()
    if 1.0 - mass / norm2 > 1e-4:
        warnings.warn(
            f"overlap mass outside tau_range: {1.0 - mass / norm2:.2e} (family {family.value})",
            stacklevel=2,
        )
    err = math.sqrt(float(np.sum(wp * np.abs(rec - psi.values) ** 2)))
    return err / math.sqrt(norm2)


def dwell_low_momentum_check(
    L: float,
    grid: GridSpec,
    consts: PhysConsts = PhysConsts(),
    band: tuple[float, float] = (0.0, 0.05),
) -> float:
    """Deviation of (mL/|p|)(1+R) from the translated-difference form of the
    current-based time operator, on the momentum sub-block band[0] < |p|L/hbar <= band[1].

    The translation conjugation is applied in operator form: x -> x - L shifts
    the KDM part by exactly mL/|p|, and the reflection term picks up the
    diagonal phase e^{-2 i L p / hbar} (the shift is the diagonal phase
    e^{i L p / hbar} in the momentum basis).  The resulting matrix equals the
    explicit dwell-time matrix; its deviation from the low-momentum form is
    (mL/|p|) (e^{-i p L / hbar} sinc(pL/hbar) - 1) on the anti-diagonal.
    Returns max |deviation| normalized by the sub-block scale max(mL/|p|).
    """
    if L <= 0.0:
        raise ValueError("dwell check requires L > 0")
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    b = np.abs(p) * L / hbar
    mask = (b > band[0]) & (b <= band[1])
    if not mask.any():
        raise ValueError(f"no momentum samples with |p|L/hbar in {band}")
    scale = m * L / np.abs(p)
    # Both sides share the diagonal mL/|p|, so they differ on the anti-diagonal
    # alone: M[j, n-1-j] is mL/|p_j| on the left and the reflection term on the
    # right.  The sub-block holds that entry where both j and n-1-j are in band.
    rows = mask & mask[::-1]
    shift2 = np.exp(-2j * p * L / hbar)
    side2 = (1j * hbar * m / 2.0) * ((shift2 - 1.0) / (p * np.abs(p)))
    dev = np.max(np.abs(side2[rows] - scale[rows]), initial=0.0)
    return float(dev / np.max(scale[mask]))

"""Arrival-time operators: eigenstate families, matrices, and distributions.

Implements five eigenstate families on the momentum grid,

    AB    sqrt(|p|/2 pi m hbar) e^{i p^2 tau / 2 m hbar}          (complete, not orthogonal)
    KDM   sqrt(|p|/2 pi m hbar) e^{i eps(p) p^2 tau / 2 m hbar}   (orthogonal, complete)
    MI    N |p|^(1/2) sin(p^2 tau / 2 m hbar)                     (tau >= 0)
    T3    the MI form restricted to the p > 0 (tau >= 0) or p < 0 (tau < 0) sector
    NEW   (sqrt(tau)/(sqrt(8) m hbar)) (|p|^(3/2) J_{-1/4}(z) + i p |p|^(1/2) J_{3/4}(z)),
          z = p^2 tau / 2 m hbar,

with N = sqrt(2/(pi m hbar)) fixed by the sector-wise resolution of identity.
The families differ in one mirror rule: AB and MI copy phi_tau(+p) to -p,
KDM and NEW conjugate it (time reversal), and T3 keeps one sector.  Each is
evaluated on the half grid |p| at both signs (_half_block, the one place that
knows the rule), and every overlap, reconstruction and expansion is one
formula over both sides.  The half grid is the distinct |p| (_mirror_half,
the one rule for which momenta share a |p|), and every momentum sum, the
currents' too, folds onto it (_fold).  Results are arrays: Pi(tau) and <J(t)>
over 1-D arrays of times, phi_tau over an array of momenta at one tau.

The NEW family is the self-adjoint arrival-time operator built from the time
integral of the current operator,

    T = T_KDM + (i hbar m / 2) (1/(p|p|)) R,

where R is the momentum reflection.

Operator matrices use the convention M[j, k] ~= <p_j|O|p_k> dp, so a matrix
acts directly on sample vectors.  The position operator in the momentum
basis, x = i hbar d/dp, is discretized with 4th-order central differences
(one-sided at the two rows on each edge, mirrored so that R D R = -D holds
exactly); hermiticity and commutator statements therefore hold on interior
rows only.  An operator is held as M = S + A R, a stencil part S and a
reflected part A R (T_NEW is T_KDM plus its reflection term), each a band
with only the offsets the operator has (at most nine).  Where the two bands
reach the same entry, in the middle rows, the parts add there.  They are
built from the band of x, its reversals and shifted copies of 1/|p|, and
applied and checked one stored offset at a time, so building, applying and
checking one costs O(n).  No n x n array is formed.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    BESSEL_SWITCHOVER,
    GridSpec,
    PhysConsts,
    _bessel_high,
    _bessel_low,
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


# Reach of an operator's stored diagonals, about the main diagonal and about
# the anti-diagonal: the one-sided edge rows of the 4th-order d/dp stencil
# reach offset 4, and R mirrors that band onto the anti-diagonal.
BAND_WIDTH = 4


def _band_rows(n: int, o: int, edge: int = 0) -> tuple[int, int]:
    """The rows j in [edge, n - edge) whose column j + o lies in [edge, n - edge) too.

    Row j of the reflected band reaches column n - 1 - j + o, so its rows are
    those of offset -o."""
    return edge + max(0, -o), n - edge - max(0, o)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Operator in the discrete momentum basis, M[j,k] ~= <p_j|O|p_k> dp, held
    as the sum M = S + A R of a stencil part and a reflected part.

    `diag` is the stencil part, S[j, j + o] = diag[w + o, j], and `anti` the
    reflected part, (A R)[j, n - 1 - j + o] = anti[w + o, j], |o| <= w, each
    with its own width w: a band of shape (2w + 1, n), or (0, n) where the
    operator has no such part.  An entry outside the matrix is zero.  Where
    both parts reach the same entry of M (the 2w middle rows, every row when
    n <= 2w) the two add; every other entry of M is zero.  Each part is
    closed under transposition: S[k, j] of a stencil entry is stored at
    diag[w - o, k], (A R)[k, j] of a reflected one at anti[w + o, k].  Every
    entry must be finite, so that no NaN can read as a zero defect.
    """

    diag: np.ndarray
    anti: np.ndarray

    def __post_init__(self) -> None:
        shapes = np.shape(self.diag), np.shape(self.anti)
        rows_ok = all(len(s) == 2 and (s[0] == 0 or s[0] % 2 == 1) for s in shapes)
        if not rows_ok or shapes[0][1] != shapes[1][1]:
            raise ValueError(f"diag and anti must have shapes (2w + 1, n) or (0, n) with one n, got {shapes}")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.anti).all()):
            raise ValueError("band entries must be finite")

    @property
    def n(self) -> int:
        return self.diag.shape[1]

    def apply(self, f: np.ndarray) -> np.ndarray:
        """The matrix-vector product M f = S f + (A R) f, one stored offset of each part at a time."""
        n = self.n
        f = np.asarray(f)
        if f.shape != (n,):
            raise ValueError(f"expected a vector of shape ({n},), got {f.shape}")
        out = np.zeros(n, dtype=complex)
        # row j of offset o reads f[j + o] from the stencil band and
        # f[n - 1 - j + o] = f[::-1][j - o] from the reflected one.  Each band
        # is summed over its offsets, in order, before the two parts add; that
        # order fixes the rounding of M f, which the checks report bitwise.
        for band, src, sign in ((self.diag, f, 1), (self.anti, f[::-1], -1)):
            acc = np.zeros(n, dtype=complex)
            for o, row in enumerate(band, -(len(band) // 2)):
                lo, hi = _band_rows(n, sign * o)
                acc[lo:hi] += row[lo:hi] * src[lo + sign * o : hi + sign * o]
            out += acc
        return out


# ---------------------------------------------------------------------------
# Eigenstates
# ---------------------------------------------------------------------------


def _mi_norm(consts: PhysConsts) -> float:
    return math.sqrt(2.0 / (math.pi * consts.mass * consts.hbar))


# Taus are evaluated in blocks of about this many evaluated samples: (tau, |p|)
# pairs of the half grid for the eigenstates (of its trimmed part, _trim, in
# distribution), (t, p^2) pairs for the currents, (tau, p) for the crossing.
# A block bounds the temporaries, and is large enough that the per-call
# overhead of a NEW block's numpy calls is small against its work.
_BLOCK_SAMPLES = 4096


def _tau_blocks(taus: np.ndarray, samples: int):
    """Consecutive (start, taus[start:start + k]) blocks of about _BLOCK_SAMPLES
    evaluated samples, for `samples` per tau (none: one block of them)."""
    k = max(1, _BLOCK_SAMPLES // max(samples, 1))
    for start in range(0, taus.size, k):
        yield start, taus[start : start + k]


def _new_amplitudes(ap: np.ndarray, tau: np.ndarray, consts: PhysConsts) -> tuple[np.ndarray, np.ndarray]:
    """The factors that take numerics' _bessel_low and _bessel_high values to
    the NEW eigenstate at |p| and tau: the low table's amplitude is ap times
    the first, a factor per tau, and the high table's is the second, a factor
    per |p|."""
    m, hbar = consts.mass, consts.hbar
    # the prefactor times |p|^(3/2) undoes each table's scale: times z^(-1/4)
    # it is |p| (tau / 2 m hbar)^(1/4) / (2 sqrt(m hbar)), and times
    # sqrt(2/(pi z)) it is sqrt(|p| / 2 pi m hbar)
    return (tau / (2.0 * m * hbar)) ** 0.25 / (2.0 * math.sqrt(m * hbar)), np.sqrt(ap / (2.0 * math.pi * m * hbar))


def _check_phase(ap: np.ndarray, taus: np.ndarray, consts: PhysConsts) -> None:
    """Raise ValueError if a phase p^2 |tau| / 2 m hbar at |p| = ap and these taus
    overflows (cos and sin of it are NaN): one check, at the largest |p| and |tau|."""
    a, t = float(np.max(ap, initial=0.0)), float(np.max(np.abs(taus)))
    if not math.isfinite(a * a * t / (2.0 * consts.mass * consts.hbar)):
        raise ValueError(f"the eigenstate phase p^2 tau / 2 m hbar overflows at |p| = {a!r}, |tau| = {t!r}")


def _mirror_half(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |p| of p, ascending, and the index that expands a row over
    them to p: the one rule for which momenta share a |p|.  Values of |p|
    within 32 ulp of the largest count as one, so a grid mirrored only up to
    rounding (a linspace with a non-dyadic end) folds as the exact one does;
    each group stands at its smallest |p|."""
    if np.any(p == 0.0):
        raise ValueError("eigenstates are not defined at p = 0")
    if not np.all(np.isfinite(p)):
        raise ValueError("momenta must be finite")
    ap = np.abs(p)
    order = np.argsort(ap, kind="stable")
    first = np.concatenate([[True], np.diff(ap[order]) > 32.0 * np.finfo(float).eps * ap[order[-1]]])
    index = np.empty(p.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ap[order][first], index


def _fold(p: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half grid of _mirror_half and `values` (last axis over p) folded
    onto it, shape (..., 2, |p|.size): the values at +|p| and at -|p|, zero
    where p has no such momentum.  p lists each momentum once, as a
    WaveFunction's increasing grid does, so a side holds at most one sample
    at each |p|."""
    ap, index = _mirror_half(p)
    folded = np.zeros(values.shape[:-1] + (2, ap.size), dtype=values.dtype)
    for side, on in enumerate((p > 0.0, p < 0.0)):
        folded[..., side, index[on]] = values[..., on]
    return ap, folded


def _half_block(family: EigenFamily, taus: np.ndarray, ap: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """Eigenstates at |p| = ap for a 1-D array of taus, shape (taus.size, 2,
    ap.size): row 0 holds phi_tau(+|p|) and row 1 phi_tau(-|p|).

    This is the one place that knows the mirror rule: phi(-p) = phi(p) for AB
    and MI, conj phi(p) for KDM and NEW, and T3 is the MI form at |tau| on the
    p > 0 side for tau >= 0 and on the p < 0 side for tau < 0, zero on the
    other.  Every step is elementwise in (tau, |p|), and the NEW family's
    Bessel tables are summed to a fixed degree, so a row does not depend on
    the rows beside it.  KDM conjugates its exponential before the amplitude
    multiplies it, as its full-grid formula does, so even the signed zeros of
    Im phi (at phase 0 or an underflowed one) are that formula's.
    """
    m, hbar = consts.mass, consts.hbar
    block = np.zeros((taus.size, 2, ap.size), dtype=complex)
    plus, minus = block[:, 0], block[:, 1]
    if family is EigenFamily.NEW:
        # the low Bessel table below the switchover z = 10, the high table at
        # and above it: each gathers its samples, scales them in place by
        # amplitudes formed at those samples only, and writes them straight
        # into the + row.  phi_tau ~ tau^(1/4), so a row with tau = 0 has
        # amplitude 0 and reads +0, as a zero row does
        tau = np.abs(taus)[:, None]
        z = ap * ap * tau / (2.0 * m * hbar)
        low_factor, high_amp = _new_amplitudes(ap, tau, consts)
        lo = z < BESSEL_SWITCHOVER
        for on, table in ((lo, _bessel_low), (~lo, _bessel_high)):
            if on.any():
                values = table(z[on])
                if table is _bessel_low:
                    values *= np.broadcast_to(ap, z.shape)[on] * np.broadcast_to(low_factor, z.shape)[on]
                else:
                    values *= np.broadcast_to(high_amp, z.shape)[on]
                plus[on] = values
        # C T_NEW C = -T_NEW for the complex conjugation C, so phi_{-tau} = conj phi_tau
        negative = taus < 0.0
        if negative.any():
            plus[negative] = np.conjugate(plus[negative])
        np.conjugate(plus, out=minus)
        return block
    if family is EigenFamily.MI and np.any(taus < 0.0):
        raise ValueError("MI family is defined for tau >= 0 (spectrum of m|x|/|p|)")
    tau = taus[:, None]
    phase = ap * ap * (np.abs(tau) if family is EigenFamily.T3 else tau) / (2.0 * m * hbar)
    if family in (EigenFamily.AB, EigenFamily.KDM):
        amp, wave = np.sqrt(ap / (2.0 * math.pi * m * hbar)), np.empty(phase.shape, dtype=complex)
        # e^(i phase), bitwise as np.exp(1j * phase) but without forming 1j * phase
        np.cos(phase, out=wave.real)
        np.sin(phase, out=wave.imag)
        np.multiply(amp, wave, out=plus)
        if family is EigenFamily.KDM:
            np.multiply(amp, np.conjugate(wave, out=wave), out=minus)
        else:
            minus[...] = plus
    elif family is EigenFamily.MI:
        plus[...] = minus[...] = _mi_norm(consts) * np.sqrt(ap) * np.sin(phase)
    elif family is EigenFamily.T3:
        block[np.arange(taus.size), (taus < 0.0).astype(np.intp)] = _mi_norm(consts) * np.sqrt(ap) * np.sin(phase)
    else:
        raise ValueError(f"unknown family {family}")
    return block


def _trim(ap: np.ndarray, folded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The |p| of the half grid and the columns of a _fold-ed packet b that an
    overlap needs.  With m_k = |b+_k| + |b-_k|, the samples of smallest m_k
    are dropped for as long as their summed m stays within (eps/2) sum(m), so
    a dropped part of any overlap is at most max|phi| (eps/2) sum(m), below
    the rounding bound of the pairwise sum over the whole grid.  An all-zero
    packet keeps no sample."""
    m = np.abs(folded[0]) + np.abs(folded[1])
    order = np.argsort(m, kind="stable")
    # a mask keeps grid order; sorting the kept indices instead would load
    # np.sort, a numpy kernel nothing else on this path uses, and raise peak RSS
    keep = np.ones(ap.size, dtype=bool)
    keep[order[np.cumsum(m[order]) <= 0.5 * np.finfo(float).eps * m.sum()]] = False
    return ap[keep], folded[:, keep]


def _side_sums(half: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """sum over |p| of phi conj(b) on each side, shape (taus, 2), for each tau
    of a _half_block and a _fold-ed packet b.  Each tau and side is its own
    pairwise sum along |p|, as numpy's sum is, so a tau does not depend on
    the taus beside it: where the two sides of an overlap cancel, a BLAS dot
    product lost up to 10x more digits.  The product is formed C-ordered,
    whatever the layout of either factor, because numpy sums pairwise only
    along a contiguous axis."""
    return np.multiply(half, np.conj(folded), order="C").sum(axis=2)


def _overlaps(half: np.ndarray, folded: np.ndarray) -> np.ndarray:
    """<phi_tau|b> = sum over both sides and |p| of conj(phi) b, for each tau
    of a _half_block and a _fold-ed packet b, as conj(sum phi conj(b)) of the
    two _side_sums."""
    sums = _side_sums(half, folded)
    return np.conj(sums[:, 0] + sums[:, 1])


def eigenstate_values(family: EigenFamily, tau: float, p: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """Eigenstate phi_tau sampled on a 1-D array of momenta (no p = 0 allowed);
    tau is a finite scalar whose phases p^2 tau / 2 m hbar stay finite.  The
    _half_block row of tau, at each momentum's |p| on its side."""
    taus = np.array([float(_check_taus(tau, "tau"))])
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p must be a 1-D array of momenta, got shape {p.shape}")
    ap, index = _mirror_half(p)
    _check_phase(ap, taus, consts)
    return _half_block(family, taus, ap, consts)[0][(p < 0.0).astype(np.intp), index]


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
) -> OperatorMatrix:
    """Momentum-basis operator of the requested kind, as its stencil and reflected parts.

    Each part holds the offsets the kind has: T_KDM, H, XI and SIGN_P have no
    reflected part and R no stencil part.  T_NEW is T_KDM plus a reflected
    part of one expression, added where the two meet, not merged into `diag`.
    T_DWELL requires a finite region length L > 0.
    """
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    n = grid.n

    def banded(diag=(), anti=()) -> OperatorMatrix:
        """The operator of these bands' rows; a band not given holds none."""
        return OperatorMatrix(*(np.asarray(band, dtype=complex).reshape(-1, n) for band in (diag, anti)))

    # the diagonal kinds, R and T_DWELL sit on offset 0 of their bands
    if kind is OperatorKind.H:
        return banded([p**2 / (2.0 * m)])
    if kind is OperatorKind.XI:
        return banded([p * np.abs(p) / (2.0 * m)])
    if kind is OperatorKind.R:
        return banded(anti=[np.ones(n)])
    if kind is OperatorKind.SIGN_P:
        return banded([np.sign(p)])
    if kind is OperatorKind.T_DWELL:
        if L is None or not (L > 0.0 and math.isfinite(L)):
            raise ValueError(f"T_DWELL requires a finite region length L > 0, got {L}")
        b = p * L / hbar
        scale = m * L / np.abs(p)
        return banded([scale], [scale * np.exp(-1j * b) * np.sinc(b / math.pi)])
    if kind not in (OperatorKind.T_KDM, OperatorKind.T_NEW_SYM, OperatorKind.T_NEW_VIA_KDM):
        raise ValueError(f"unknown operator kind {kind}")

    w = BAND_WIDTH
    x = 1j * hbar * derivative_band(grid)  # i hbar d/dp, x[w + o, j] = X[j, j + o]
    g = 1.0 / np.abs(p)
    g_pad = np.concatenate((np.zeros(w), g, np.zeros(w)))
    xg = x * np.lib.stride_tricks.sliding_window_view(g_pad, n)  # x diag(g): X[j, j + o] g[j + o]
    gx = g * x  # diag(g) x
    diag = -(m / 2.0) * (xg + gx)  # T_KDM = -(m/2) (x diag(g) + diag(g) x)
    if kind is OperatorKind.T_KDM:
        return banded(diag)
    # On the reflected band, anti[w + o, j] = M[j, n - 1 - j + o]: (x R)[j, k]
    # = X[j, j - o] is x[w - o, j], so x R diag(g) is xg[::-1]; (R x)[j, k] =
    # X[n - 1 - j, k] is x[w + o, n - 1 - j], so diag(g) R x is g * x[:, ::-1].
    if kind is OperatorKind.T_NEW_SYM:
        # A = (1/|p|)(1 + R): T = -(m/2) (x A + A x), with R diag(g) R = diag(g)
        anti = -(m / 2.0) * (xg[::-1] + g * x[:, ::-1])
    else:
        # Reflection term (i hbar m / 2) (1/(p|p|)) R, with 1/(p|p|) realized
        # as the commutator-induced discrete operator (i/hbar) [x, 1/|p|] so
        # that both constructions refer to the same discretized x and agree
        # entrywise (a literal diagonal differs at O(1) near the anti-diagonal
        # on any finite-difference grid).
        anti = (1j * hbar * m / 2.0) * ((1j / hbar) * (xg[::-1] - gx[::-1]))
    return banded(diag, anti)


def hermiticity_defect(op: OperatorMatrix) -> float:
    """max |P - P^dagger| over both parts P of M = S + A R, over the largest
    |P|, on the interior sub-block (without the two edge rows and columns on
    each side, where the one-sided stencils sit); both parts hermitian there
    make M hermitian there.  Each part is closed under transposition, so its
    adjoint is read from its own band, one stored offset at a time; an entry
    off the bands, or on a band of no rows, is zero in both.  An all-zero
    interior is hermitian, with defect 0."""
    n = op.n
    defect = scale = 0.0
    # M[j + o, j] is diag[::-1][w + o, j + o]; M[n - 1 - j + o, j] is anti[:, ::-1][w + o, j - o]
    for band, partner, sign in ((op.diag, op.diag[::-1], 1), (op.anti, op.anti[:, ::-1], -1)):
        for o, (row, twin) in enumerate(zip(band, partner), -(len(band) // 2)):
            lo, hi = _band_rows(n, sign * o, edge=2)
            values = row[lo:hi]
            dagger = np.conj(twin[lo + sign * o : hi + sign * o])
            defect = max(defect, float(np.abs(values - dagger).max(initial=0.0)))
            scale = max(scale, float(np.abs(values).max(initial=0.0)))
    return defect / scale if scale else 0.0


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


def distribution(psi: WaveFunction, family: EigenFamily, tau_grid: np.ndarray) -> np.ndarray:
    """Pi(tau_k) = |<psi|phi_tau_k>|^2, a float array over the taus of tau_grid.

    The Simpson-weighted packet is folded onto the half grid once (_fold) and
    trimmed to its support (_trim), the eigenstates are evaluated there at
    +|p| and -|p| in blocks of taus (_half_block), and each overlap is its
    own sum over both sides of the kept |p| (_overlaps).  The kept samples
    depend on the packet alone, so a value equals a one-tau call bitwise, and
    equals the full-grid sum to rounding.  NEW takes taus of either sign.

    For AB this is the Kijowski density (1/m)<psi_tau| |p|^(1/2) delta(x)
    |p|^(1/2) |psi_tau>: with <p|delta(x)|p'> = 1/(2 pi hbar) it is rank one,
    (1/(2 pi m hbar)) |sum dp |p|^(1/2) e^{-i p^2 tau / 2 m hbar} psi(p)|^2.
    """
    _check_momentum_state(psi)
    tau_grid = _check_taus(tau_grid, "tau_grid", increasing=True)
    ap, folded = _trim(*_fold(psi.grid, simpson_weights(psi.grid.size, psi.dx) * psi.values))
    _check_phase(ap, tau_grid, psi.consts)
    vals = np.empty(tau_grid.size)
    for start, taus in _tau_blocks(tau_grid, ap.size):
        half = _half_block(family, taus, ap, psi.consts)
        vals[start : start + taus.size] = np.abs(_overlaps(half, folded)) ** 2
    if not np.all(np.isfinite(vals)):
        raise ValueError("distribution values must be finite")
    return vals


def kinetic_energy_density(psi: WaveFunction) -> tuple[float, float]:
    """(<p delta(x) p>, <|p| delta(x) |p|>) with the exact 1/(2 pi hbar) kernel."""
    _check_momentum_state(psi)
    hbar = psi.consts.hbar
    signed = integrate(psi.grid * psi.values, psi.dx)
    absolute = integrate(np.abs(psi.grid) * psi.values, psi.dx)
    c = 1.0 / (2.0 * math.pi * hbar)
    return c * abs(signed) ** 2, c * abs(absolute) ** 2


def _current_sums(p: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The energies E = |p|^2 of _fold's half grid and, for k rows of `values`
    (last axis over p), F0 = b+ + b- and F1 = |p| b+ - |p| b- at each E, as
    one C-contiguous (E.size, 2k) array: F0 of every row, then F1 of each."""
    ap, folded = _fold(p, values.reshape(-1, p.size))
    plus, minus = folded[:, 0], folded[:, 1]
    return ap * ap, np.concatenate([plus + minus, ap * plus - ap * minus]).T.copy()


def _free_currents(values: np.ndarray, p: np.ndarray, dp: float, ts: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """<J(t)> at x = 0 for each row of `values` (last axis over p), at each
    time of the 1-D array ts; shape (ts.size,) + values.shape[:-1].

    The one current formula, in the rank-two form of current_expectation:
    J(t) = Re[conj(A0) A1] / (2 pi hbar m), A0 and A1 the phased sums of the
    F0 and F1 of _current_sums.  The phases are formed over blocks of about
    _BLOCK_SAMPLES (t, p^2) entries, and the sums A0 and A1 of every row
    come from one matrix product per block.  The product is a stack of
    one-time rows, so a time's sums do not depend on the times that share its
    block: a one-time call equals its row of a longer call bitwise.
    """
    m, hbar = consts.mass, consts.hbar
    energies, folded = _current_sums(p, values)
    k = folded.shape[1] // 2
    sums = np.empty((ts.size, 2 * k), dtype=complex)
    for start, block in _tau_blocks(ts, energies.size):
        phase = np.exp(-1j * np.multiply.outer(block, energies) / (2.0 * m * hbar))
        sums[start : start + block.size] = (phase[:, None, :] @ folded)[:, 0]
    a0, a1 = sums[:, :k] * dp, sums[:, k:] * dp
    return ((np.conj(a0) * a1).real / (2.0 * math.pi * hbar * m)).reshape(ts.shape + values.shape[:-1])


# Rows of C per block in _free_current_integrals (128 KB at 512 energies):
# enough for one real matrix product per block, without holding C whole.
_C_ROWS = 32


def _free_current_integrals(
    values: np.ndarray, p: np.ndarray, dp: float, taus: np.ndarray, consts: PhysConsts
) -> np.ndarray:
    """integral_0^tau <J(t)> dt at x = 0 for each row of `values` (over p), at
    each tau of the 1-D array taus; shape (taus.size,) + values.shape[:-1].

    With a = conj F0, b = F1 from _current_sums and w = E / 2 m hbar, the
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
    energies, folded = _current_sums(p, values)
    k = folded.shape[1] // 2
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
    return (total.real * dp**2 / (2.0 * math.pi * hbar * m)).reshape(taus.shape + values.shape[:-1])


def current_expectation(psi: WaveFunction, t: np.ndarray) -> np.ndarray:
    """<J(t)> at x = 0 after free evolution, an array over the 1-D array of times t.

    J = (p delta(x) + delta(x) p) / 2m with the exact momentum-basis kernel
    <p|delta(x)|p'> = 1/(2 pi hbar) is rank two:
    J(t) = Re[conj(A0) A1] / (2 pi hbar m)  with  A0 = sum dp psi_t(p) and
    A1 = sum dp p psi_t(p).  The sums carry equal weights, so this equals
    psi^dagger J psi dp, with J the n x n matrix of the kernel on the grid,
    to rounding.
    """
    _check_momentum_state(psi)
    ts = _check_taus(t, "t")
    if ts.ndim != 1:
        raise ValueError(f"t must be a 1-D array of times, got shape {ts.shape}")
    return _free_currents(psi.values, psi.grid, psi.dx, ts, psi.consts)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


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

    The packet and its Simpson weights are folded onto the half grid once
    (_fold), the eigenstates are evaluated there at +|p| and -|p| in blocks
    of taus (_half_block), and each block adds its overlaps c = <phi|psi>
    (_overlaps) and its share sum (w c) phi of psi_rec on both sides; AB's
    theta(+p) and theta(-p) sector overlaps are the two sides' sums of one
    product (_side_sums).  The error is a sum over both
    sides.  So it equals a per-tau loop over the full grid to rounding, and
    moves in its last digits whenever the block size changes.
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
    ap, (wp, values) = _fold(psi.grid, np.stack([wp, psi.values]))
    _check_phase(ap, taus, psi.consts)
    wp = wp.real
    packet = wp * values
    rec = np.zeros((2, ap.size), dtype=complex)
    mass = 0.0
    for start, block in _tau_blocks(taus, ap.size):
        half = _half_block(family, block, ap, psi.consts)
        w = wt[start : start + block.size, None]
        if family is EigenFamily.AB:
            # AB's theta(+p) and theta(-p) sectors each overlap one side and rebuild it
            c = np.conj(_side_sums(half, packet))
        else:
            c = _overlaps(half, packet)[:, None]
        rec += np.sum((w * c)[:, :, None] * half, axis=0)
        mass += float(np.sum(w * np.abs(c) ** 2))

    norm2 = psi.norm_squared()
    if 1.0 - mass / norm2 > 1e-4:
        warnings.warn(
            f"overlap mass outside tau_range: {1.0 - mass / norm2:.2e} (family {family.value})",
            stacklevel=2,
        )
    err = math.sqrt(float(np.sum(wp * np.abs(rec - values) ** 2)))
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
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"dwell check requires a finite L > 0, got {L}")
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

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
rows only.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    BESSEL_SWITCHOVER,
    GridSpec,
    PhysConsts,
    _bessel_series,
    _hankel_pq,
    gamma_fn,
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator in the discrete momentum basis, M[j,k] ~= <p_j|O|p_k> dp."""

    matrix: np.ndarray
    grid: GridSpec
    consts: PhysConsts
    kind: str
    hermitian: bool

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"matrix shape {m.shape} does not match grid n = {self.grid.n}")
        object.__setattr__(self, "matrix", m)


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


# Taus are evaluated in blocks of about this many (tau, p) samples: enough to
# amortise the per-call Bessel loops, few enough that a block's temporaries
# stay below the peak memory of the per-tau evaluation (8192 raised peak RSS
# by ~0.5 MB on the spectral benchmark).
_BLOCK_SAMPLES = 4096


def _tau_blocks(taus: np.ndarray, n: int):
    """Consecutive (start, taus[start:start + k]) blocks of about _BLOCK_SAMPLES samples."""
    k = max(1, _BLOCK_SAMPLES // n)
    for start in range(0, taus.size, k):
        yield start, taus[start : start + k]


def _new_eigenstate_block(taus: np.ndarray, p: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """NEW-family eigenstates for taus >= 0, one row per tau; ascending Bessel
    series below the switchover z = 10, Hankel amplitude/phase combination at
    and above it.

    The values depend on |p| alone up to phi(-p) = conj phi(p), which is
    exact; on a mirror-symmetric grid (|p| a palindrome) only the upper half
    is evaluated.
    """
    m, hbar = consts.mass, consts.hbar
    n = p.size
    ap = np.abs(p)
    k = np.arange(n)
    if np.array_equal(ap, ap[::-1]):
        ap, index = ap[n // 2 :], np.maximum(k, n - 1 - k) - n // 2
    else:
        index = k
    half = np.zeros((taus.size, ap.size), dtype=complex)
    # tau^(1/2) J_{-1/4}(z) ~ tau^(1/4) -> 0, so rows with tau = 0 stay zero
    rows = taus != 0.0
    tau = taus[rows, None]
    z = ap * ap * tau / (2.0 * m * hbar)
    pref = np.broadcast_to(np.sqrt(tau) / (math.sqrt(8.0) * m * hbar), z.shape)
    a = np.broadcast_to(ap, z.shape)
    out = np.empty(z.shape, dtype=complex)
    lo = z < BESSEL_SWITCHOVER
    if lo.any():
        out[lo] = pref[lo] * (
            a[lo] ** 1.5 * _bessel_series(-0.25, z[lo]) + 1j * a[lo] * a[lo] ** 0.5 * _bessel_series(0.75, z[lo])
        )
    hi = ~lo
    if hi.any():
        # J_{-1/4}(z) + i J_{3/4}(z) in amplitude/phase form: with A = z - pi/8
        # the two Hankel phases differ by pi/2 and the leading order collapses
        # to e^{i (z - pi/8)} sqrt(2/(pi z)).
        zh = z[hi]
        p1, q1 = _hankel_pq(-0.25, zh)
        p2, q2 = _hankel_pq(0.75, zh)
        phase = zh - math.pi / 8.0
        comb = (p1 + 1j * q2) * np.cos(phase) - (q1 - 1j * p2) * np.sin(phase)
        out[hi] = pref[hi] * a[hi] ** 1.5 * np.sqrt(2.0 / (math.pi * zh)) * comb
    half[rows] = out
    full = half[:, index]
    return np.conjugate(full, out=full, where=p < 0.0)


def _eigenstate_block(family: EigenFamily, taus: np.ndarray, p: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """Eigenstates phi_tau(p) for a 1-D array of taus, shape (taus.size, p.size).

    Row k equals eigenstate_values(family, taus[k], p, consts) bitwise: every
    step is elementwise in (tau, p) with the same operations in the same order.
    The Bessel loops run until the slowest sample of the block converges; the
    extra terms a converged sample then receives are exact zeros (Hankel) or
    below 1e-17 of its sum (series), so they leave it unchanged.
    """
    taus = np.asarray(taus, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any(p == 0.0):
        raise ValueError("eigenstates are not defined at p = 0")
    m, hbar = consts.mass, consts.hbar
    ap = np.abs(p)
    tau = taus[:, None]
    phase = p * p * tau / (2.0 * m * hbar)
    if family is EigenFamily.AB:
        return np.sqrt(ap / (2.0 * math.pi * m * hbar)) * np.exp(1j * phase)
    if family is EigenFamily.KDM:
        return np.sqrt(ap / (2.0 * math.pi * m * hbar)) * np.exp(1j * np.sign(p) * phase)
    if family is EigenFamily.MI:
        if np.any(taus < 0.0):
            raise ValueError("MI family is defined for tau >= 0 (spectrum of m|x|/|p|)")
        return (_mi_norm(consts) * np.sqrt(ap) * np.sin(phase)).astype(complex)
    if family is EigenFamily.T3:
        sector = np.where(tau >= 0.0, p > 0.0, p < 0.0)
        vals = _mi_norm(consts) * np.sqrt(ap) * np.sin(p * p * np.abs(tau) / (2.0 * m * hbar))
        return np.where(sector, vals, 0.0).astype(complex)
    if family is EigenFamily.NEW:
        if np.any(taus < 0.0):
            raise ValueError("NEW family eigenstates are implemented for tau >= 0")
        return _new_eigenstate_block(taus, p, consts)
    raise ValueError(f"unknown family {family}")


def eigenstate_values(family: EigenFamily, tau: float, p: np.ndarray, consts: PhysConsts) -> np.ndarray:
    """Eigenstate phi_tau sampled on an array of momenta (no p = 0 allowed).

    The one-row call of the block evaluator; tau is a scalar.
    """
    return _eigenstate_block(family, np.array([float(tau)]), p, consts)[0]


def eigenstate(family: EigenFamily, tau: float, p: float, consts: PhysConsts = PhysConsts()) -> complex:
    """Single eigenstate value phi_tau(p); p must be nonzero."""
    if p == 0.0:
        raise ValueError("eigenstates are not defined at p = 0")
    return complex(eigenstate_values(family, float(tau), np.array([float(p)]), consts)[0])


def new_low_momentum_slope(tau: float, consts: PhysConsts = PhysConsts()) -> float:
    """Small-z limit of phi_tau(p)/|p| for the NEW family:
    tau^(1/4) / (2 Gamma(3/4) (m hbar)^(3/4))."""
    m, hbar = consts.mass, consts.hbar
    return tau**0.25 / (2.0 * gamma_fn(0.75) * (m * hbar) ** 0.75)


# ---------------------------------------------------------------------------
# Operator matrices
# ---------------------------------------------------------------------------


def derivative_matrix(grid: GridSpec) -> np.ndarray:
    """4th-order finite-difference d/dp; one-sided 5-point stencils at the two
    rows on each edge, mirrored so that R D R = -D holds exactly."""
    n, dp = grid.n, grid.dp
    d = np.zeros((n, n))
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dp)
    for j in range(2, n - 2):
        d[j, j - 2 : j + 3] = c
    r0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dp)
    r1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dp)
    d[0, 0:5] = r0
    d[1, 0:5] = r1
    d[n - 1, n - 5 : n] = -r0[::-1]
    d[n - 2, n - 5 : n] = -r1[::-1]
    return d


def _reflection(n: int) -> np.ndarray:
    r = np.zeros((n, n))
    r[np.arange(n), n - 1 - np.arange(n)] = 1.0
    return r


def build_operator(
    kind: OperatorKind,
    grid: GridSpec,
    consts: PhysConsts = PhysConsts(),
    *,
    L: float | None = None,
    t: float | None = None,
) -> OperatorMatrix:
    """Dense momentum-basis matrix for the requested operator.

    T_DWELL requires the region length L > 0; J_CURRENT requires the time t.
    """
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    n = grid.n
    if kind is OperatorKind.H:
        mat = np.diag(p**2 / (2.0 * m)).astype(complex)
        return OperatorMatrix(mat, grid, consts, "H", True)
    if kind is OperatorKind.XI:
        mat = np.diag(p * np.abs(p) / (2.0 * m)).astype(complex)
        return OperatorMatrix(mat, grid, consts, "XI", True)
    if kind is OperatorKind.R:
        return OperatorMatrix(_reflection(n).astype(complex), grid, consts, "R", True)
    if kind is OperatorKind.SIGN_P:
        return OperatorMatrix(np.diag(np.sign(p)).astype(complex), grid, consts, "SIGN_P", True)

    if kind in (OperatorKind.T_KDM, OperatorKind.T_NEW_SYM, OperatorKind.T_NEW_VIA_KDM):
        x_op = 1j * hbar * derivative_matrix(grid)
        g = 1.0 / np.abs(p)
        xg = x_op * g[None, :]  # x_op @ diag(g)
        gx = g[:, None] * x_op  # diag(g) @ x_op
        t_kdm = -(m / 2.0) * (xg + gx)
        if kind is OperatorKind.T_KDM:
            return OperatorMatrix(t_kdm, grid, consts, "T_KDM", True)
        if kind is OperatorKind.T_NEW_SYM:
            # A = (1/|p|)(1 + R); right-multiplying by R flips columns,
            # left-multiplying flips rows (the grid is mirror-symmetric)
            mat = -(m / 2.0) * ((xg + xg[:, ::-1]) + (gx + g[:, None] * x_op[::-1, :]))
            return OperatorMatrix(mat, grid, consts, "T_NEW_SYM", True)
        # Reflection term (i hbar m / 2) (1/(p|p|)) R, with 1/(p|p|) realized
        # as the commutator-induced discrete operator (i/hbar) [x, 1/|p|] so
        # that both constructions refer to the same discretized x and agree
        # entrywise (a literal diagonal differs at O(1) near the anti-diagonal
        # on any finite-difference grid).
        g_d = (1j / hbar) * (xg - gx)
        mat = t_kdm + (1j * hbar * m / 2.0) * g_d[:, ::-1]
        return OperatorMatrix(mat, grid, consts, "T_NEW_VIA_KDM", True)

    if kind is OperatorKind.T_DWELL:
        if L is None or L <= 0.0:
            raise ValueError("T_DWELL requires a region length L > 0")
        b = p * L / hbar
        scale = m * L / np.abs(p)
        refl = scale * np.exp(-1j * b) * np.sinc(b / math.pi)
        mat = np.diag(scale).astype(complex) + np.diag(refl)[:, ::-1]
        return OperatorMatrix(mat, grid, consts, "T_DWELL", True)

    if kind is OperatorKind.J_CURRENT:
        if t is None:
            raise ValueError("J_CURRENT requires the evaluation time t")
        v = np.exp(1j * p**2 * t / (2.0 * m * hbar))
        delta = (grid.dp / (2.0 * math.pi * hbar)) * np.outer(v, np.conj(v))
        mat = (p[:, None] * delta + delta * p[None, :]) / (2.0 * m)
        return OperatorMatrix(mat, grid, consts, "J_CURRENT", True)

    raise ValueError(f"unknown operator kind {kind}")


def hermiticity_defect(op: OperatorMatrix, boundary: int = 2) -> float:
    """max |M - M^dagger| / max |M| on the interior sub-block."""
    s = op.matrix[boundary:-boundary, boundary:-boundary]
    return float(np.max(np.abs(s - s.conj().T)) / np.max(np.abs(s)))


# ---------------------------------------------------------------------------
# Distributions and expectation values
# ---------------------------------------------------------------------------


def _check_momentum_state(psi: WaveFunction) -> None:
    if psi.rep is not Representation.MOMENTUM:
        raise ValueError("expected a momentum-representation state")


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
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or np.any(np.diff(tau_grid) <= 0.0):
        raise ValueError("tau_grid must be 1-D and strictly increasing")
    w = simpson_weights(psi.grid.size, psi.dx)
    weighted = w * np.conj(psi.values)
    vals = np.empty(tau_grid.size)
    for start, taus in _tau_blocks(tau_grid, psi.grid.size):
        for i, phi in enumerate(_eigenstate_block(family, taus, psi.grid, psi.consts), start):
            vals[i] = abs(np.sum(weighted * phi)) ** 2
    return Distribution(tau_grid, vals, family.value, {"norm": psi.norm_squared()})


def kijowski_distribution(psi: WaveFunction, t: float) -> float:
    """Kijowski arrival-time density (1/m)<psi_t| |p|^(1/2) delta(x) |p|^(1/2) |psi_t>.

    With the exact momentum-basis kernel <p|delta(x)|p'> = 1/(2 pi hbar) this
    is the rank-one form (1/(2 pi m hbar)) |integral dp |p|^(1/2) psi_t(p)|^2,
    identical to |<psi|phi^AB_t>|^2.
    """
    _check_momentum_state(psi)
    m, hbar = psi.consts.mass, psi.consts.hbar
    p = psi.grid
    evolved = np.exp(-1j * p**2 * t / (2.0 * m * hbar)) * psi.values
    amp = integrate(np.sqrt(np.abs(p)) * evolved, psi.dx)
    return abs(amp) ** 2 / (2.0 * math.pi * m * hbar)


def kinetic_energy_density(psi: WaveFunction) -> tuple[float, float]:
    """(<p delta(x) p>, <|p| delta(x) |p|>) with the exact 1/(2 pi hbar) kernel."""
    _check_momentum_state(psi)
    hbar = psi.consts.hbar
    signed = integrate(psi.grid * psi.values, psi.dx)
    absolute = integrate(np.abs(psi.grid) * psi.values, psi.dx)
    c = 1.0 / (2.0 * math.pi * hbar)
    return c * abs(signed) ** 2, c * abs(absolute) ** 2


def current_expectation(psi: WaveFunction, t: float | np.ndarray) -> float | np.ndarray:
    """<J(t)> at x = 0 after free evolution, for a scalar or 1-D array of times.

    J = (p delta(x) + delta(x) p) / 2m with the exact momentum-basis kernel
    <p|delta(x)|p'> = 1/(2 pi hbar), the one build_operator(J_CURRENT) uses,
    is rank two:  J(t) = Re[conj(A0) A1] / (2 pi hbar m)  with
    A0 = sum dp psi_t(p) and A1 = sum dp p psi_t(p).  The sums carry equal
    weights, as J_CURRENT does, so the two agree to rounding.
    """
    _check_momentum_state(psi)
    m, hbar = psi.consts.mass, psi.consts.hbar
    p = psi.grid
    ts = np.asarray(t, dtype=float)
    evolved = np.exp(-1j * np.multiply.outer(ts, p**2) / (2.0 * m * hbar)) * psi.values
    a0 = np.sum(evolved, axis=-1) * psi.dx
    a1 = np.sum(evolved * p, axis=-1) * psi.dx
    j = (np.conj(a0) * a1).real / (2.0 * math.pi * hbar * m)
    return float(j) if ts.ndim == 0 else j


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

    def rhs(pp: float, y: np.ndarray) -> np.ndarray:
        return np.array([y[1], (2.0 / pp) * y[1] - (kappa * pp) ** 2 * y[0]])

    # step resolving the local phase dz/dp = kappa p; RK4 phase error per
    # radian ~ (kappa p h)^4, kept below ~1e-10 over the full sweep
    h_target = min(grid.dp / 8.0, 4e-3 / (kappa * grid.p_max))
    if h_target < 1e-9 * grid.p_max:
        raise RuntimeError(f"step size underflow for tau = {tau} on this grid")
    p0 = half[0]
    a = -(kappa**2) / 28.0
    y = np.array([p0**3 * (1.0 + a * p0**4), 3.0 * p0**2 + 7.0 * a * p0**6])
    u = np.empty(half.size)
    du = np.empty(half.size)
    u[0], du[0] = y
    for i in range(half.size - 1):
        span = half[i + 1] - half[i]
        steps = max(1, int(math.ceil(span / h_target)))
        h = span / steps
        pp = half[i]
        for _ in range(steps):
            k1 = rhs(pp, y)
            k2 = rhs(pp + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(pp + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(pp + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            pp += h
        if not np.all(np.isfinite(y)):
            raise RuntimeError("eigenvalue ODE integration failed (non-finite state)")
        u[i + 1], du[i + 1] = y
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
    lo, hi = float(tau_range[0]), float(tau_range[1])
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
    for start, block in _tau_blocks(taus, p.size):
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
    # right-multiplying a diagonal by R flips its columns
    side1 = np.diag(scale).astype(complex) + np.diag(scale)[:, ::-1]
    shift2 = np.exp(-2j * p * L / hbar)
    side2 = np.diag(scale).astype(complex) + (1j * hbar * m / 2.0) * (
        np.diag((shift2 - 1.0) / (p * np.abs(p)))[:, ::-1]
    )
    sub = np.ix_(mask, mask)
    dev = np.max(np.abs(side2[sub] - side1[sub]))
    return float(dev / np.max(scale[mask]))

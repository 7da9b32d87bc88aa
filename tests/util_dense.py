"""Dense reference forms: O(N M) transform sums, the propagator kernel, full operator
matrices, the index pattern of the operator bands, and the current."""

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
    """Direct-minus-image Dirichlet kernel applied as a full matrix.

    The rectangle sum over the chirp kernel resolves its phase only while
    pi hbar dt / (m dx) exceeds the grid's extent: at larger source-target
    separations the kernel turns by more than pi per sample and the sum aliases.
    """
    m, hbar = psi.consts.mass, psi.consts.hbar
    x = psi.grid
    dx = (x[-1] - x[0]) / (x.size - 1)
    a = 1j * m / (2.0 * hbar * dt)
    kernel = np.exp(a * (x[:, None] - x[None, :]) ** 2) - np.exp(a * (x[:, None] + x[None, :]) ** 2)
    pref = math.sqrt(m / (2.0 * math.pi * hbar * dt)) * np.exp(-1j * math.pi / 4.0)
    out = kernel @ np.where(allowed, psi.values, 0.0) * (pref * dx)
    out[~allowed] = 0.0
    return out


def dense_derivative(grid):
    """4th-order d/dp as a full matrix: central rows, one-sided 5-point edge rows."""
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


def dense_operator(kind, grid, consts, L=None):
    """The full n x n matrix of an operator kind, built with whole-matrix products."""
    from qarrival import OperatorKind

    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    n = grid.n
    if kind is OperatorKind.H:
        return np.diag(p**2 / (2.0 * m)).astype(complex)
    if kind is OperatorKind.XI:
        return np.diag(p * np.abs(p) / (2.0 * m)).astype(complex)
    if kind is OperatorKind.R:
        return np.eye(n)[::-1].astype(complex)
    if kind is OperatorKind.SIGN_P:
        return np.diag(np.sign(p)).astype(complex)
    if kind in (OperatorKind.T_KDM, OperatorKind.T_NEW_SYM, OperatorKind.T_NEW_VIA_KDM):
        x_op = 1j * hbar * dense_derivative(grid)
        g = 1.0 / np.abs(p)
        xg = x_op * g[None, :]
        gx = g[:, None] * x_op
        t_kdm = -(m / 2.0) * (xg + gx)
        if kind is OperatorKind.T_KDM:
            return t_kdm
        # T_NEW = T_KDM + (the reflected part), summed in that order as the bands add
        if kind is OperatorKind.T_NEW_SYM:
            return t_kdm + -(m / 2.0) * (xg[:, ::-1] + g[:, None] * x_op[::-1, :])
        g_d = (1j / hbar) * (xg - gx)
        return t_kdm + (1j * hbar * m / 2.0) * g_d[:, ::-1]
    if kind is OperatorKind.T_DWELL:
        b = p * L / hbar
        scale = m * L / np.abs(p)
        refl = scale * np.exp(-1j * b) * np.sinc(b / math.pi)
        return np.diag(scale).astype(complex) + np.diag(refl)[:, ::-1]
    raise ValueError(f"unknown operator kind {kind}")


def dense_current(grid, consts, t):
    """The current J = (p delta + delta p) / 2m at x = 0 and time t as a full
    matrix, delta = (dp / 2 pi hbar) v w^T, w = conj v, rounded as two outer
    products: (p c) w^T + c (p w)^T, c = (dp / 2 pi hbar) v / 2m."""
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    v = np.exp(1j * p**2 * t / (2.0 * m * hbar))
    w = np.conj(v)
    c = (grid.dp / (2.0 * math.pi * hbar)) / (2.0 * m) * v
    return np.outer(p * c, w) + np.outer(c, p * w)


def dense_current_delta_form(grid, consts, t):
    """J = (p delta + delta p) / 2m with delta = (dp / 2 pi hbar) v v^dagger,
    the current's defining form, rounded independently of the library's."""
    m, hbar = consts.mass, consts.hbar
    p = grid.momenta()
    v = np.exp(1j * p**2 * t / (2.0 * m * hbar))
    delta = (grid.dp / (2.0 * math.pi * hbar)) * np.outer(v, np.conj(v))
    return (p[:, None] * delta + delta * p[None, :]) / (2.0 * m)


def band_pattern(n, stencil_width, reflected_width):
    """(rows, cols, inside) of the stencil band k = j + o and the reflected band
    k = n - 1 - j + o, |o| <= w, each at its own width w, as (2w + 1, n)
    index arrays; a width of -1 is a band of no rows.  Axis 1 runs over rows
    and axis 0 along a row, cols is clipped into the matrix, and `inside`
    marks the entries really in it.  Where the two bands reach the same
    entry, each part holds its own share.  The operator's bands are stored in
    this layout."""
    rows = np.arange(n)[None, :]
    stencil = rows + np.arange(-stencil_width, stencil_width + 1)[:, None]
    reflected = (n - 1 - rows) + np.arange(-reflected_width, reflected_width + 1)[:, None]
    return [(np.broadcast_to(rows, band.shape), np.clip(band, 0, n - 1), (band >= 0) & (band < n))
            for band in (stencil, reflected)]


def dense_matrix(op):
    """The n x n matrix S + A R of an OperatorMatrix, assembled from its two
    parts by the index pattern, each band's width read off its 2w + 1 (or no)
    rows: the stencil part is written, then the reflected part added to it."""
    n = op.diag.shape[1]
    mat = np.zeros((n, n), dtype=complex)
    pattern = band_pattern(n, *((len(band) - 1) // 2 for band in (op.diag, op.anti)))
    for (rows, cols, inside), values in zip(pattern, (op.diag, op.anti)):
        mat[rows[inside], cols[inside]] += values[inside]
    return mat


def banded(mat, stencil_width, reflected_width):
    """The OperatorMatrix holding the entries of the n x n matrix `mat` on the
    band pattern of these widths: the stencil part reads `mat` on the stencil
    band, and the reflected part reads what is left of it, so where the bands
    meet the whole entry is in the stencil part.  Every entry of `mat` off the
    pattern is dropped."""
    from qarrival import OperatorMatrix

    (s_rows, s_cols, s_in), (r_rows, r_cols, r_in) = band_pattern(mat.shape[0], stencil_width, reflected_width)
    rest = mat.copy()
    rest[s_rows[s_in], s_cols[s_in]] = 0.0
    return OperatorMatrix(np.where(s_in, mat[s_rows, s_cols], 0.0), np.where(r_in, rest[r_rows, r_cols], 0.0))


def dense_hermiticity_defect(mat):
    """max |M - M^dagger| / max |M| on the interior block, two edge rows and columns cut."""
    s = mat[2:-2, 2:-2]
    return float(np.max(np.abs(s - s.conj().T)) / np.max(np.abs(s)))

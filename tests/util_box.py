"""Index-array forms of the periodic box (test-side oracles).

`folded_fourier` places the twiddled source in a zero-filled buffer of whole
periods, sums the periods by a reshape, rolls the sum to the middle sample and
reads the spectrum by a fancy index; `numerics._fourier_apply` writes and reads
the same box by slices, and must equal it bitwise when both take the same
twiddles.  `gather_evolve` and `odd_extension_halfline` evolve position states
as a full-grid `WaveFunction` and an index gather onto the odd grid's repeated
sample.
"""

import math

import numpy as np

from qarrival import Representation, WaveFunction
from qarrival.measurement import _free_phase
from qarrival.numerics import _twiddles


def direct_twiddles(src, dst, d_src, d_dst, sign, hbar):
    """The two twiddles of `numerics._twiddles`, one exponential per sample,
    the scale applied after the phase, and dst_j read from dst itself."""
    kc, jc = src.size // 2, dst.size // 2
    pre = np.exp((sign * 1j * d_src * dst[jc] / hbar) * (np.arange(src.size) - kc))
    post = np.exp((sign * 1j * src[kc] / hbar) * dst) * (d_src / math.sqrt(2.0 * math.pi * hbar))
    return pre, post


def folded_fourier(values, src, dst, sign, hbar, twiddles=_twiddles):
    """The transform of `numerics._fourier_apply` by zero-fill, reshape-sum,
    roll and fancy gather."""
    d_src = float((src[-1] - src[0]) / (src.size - 1))
    d_dst = float((dst[-1] - dst[0]) / (dst.size - 1))
    m = round(2.0 * math.pi * hbar / (d_src * d_dst))
    kc, jc = src.size // 2, dst.size // 2
    pre, post = twiddles(src, dst, d_src, d_dst, sign, hbar)
    lead = np.shape(values)[:-1]
    folded = np.zeros(lead + (-(-src.size // m) * m,), dtype=complex)
    np.multiply(values, pre, out=folded[..., : src.size])
    folded = np.roll(folded.reshape(*lead, -1, m).sum(axis=-2), -kc, axis=-1)
    spectrum = np.fft.fft(folded) if sign < 0 else np.fft.ifft(folded, norm="forward")
    return spectrum[..., (np.arange(dst.size) - jc) % m] * post


def gather_evolve(psi, dt):
    """Free evolution of a position state in the periodic box of its grid,
    the odd grid's last sample gathered by index."""
    x, consts = psi.grid, psi.consts
    box = x.size - x.size % 2
    p = 2.0 * math.pi * consts.hbar * np.fft.fftfreq(box, (x[-1] - x[0]) / (x.size - 1))
    values = np.fft.fft(psi.values[:box]) * _free_phase(p, dt, consts)
    return np.fft.ifft(values)[np.arange(x.size) % box]


def odd_extension_halfline(psi, t1, t0):
    """The Dirichlet half-line by images: the odd extension about the wall as
    a `WaveFunction` on its own grid, evolved by `gather_evolve`."""
    x = psi.grid
    flip = slice(None) if x[0] == 0.0 else slice(None, None, -1)
    y, u = np.abs(x[flip]), psi.values[flip].copy()
    u[[0, -1]] = 0.0
    odd = WaveFunction(Representation.POSITION, np.concatenate([-y[:0:-1], y]), np.concatenate([-u[:0:-1], u]), psi.consts)
    out = gather_evolve(odd, t1 - t0)[y.size - 1 :]
    out[[0, -1]] = 0.0
    return out[flip]

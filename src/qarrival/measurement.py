"""Measurement models: free and half-line propagation, sequential window
measurements, crossing probabilities, the small-time current law, and
classical oracles.  Every free evolution here takes its phase from
_free_phase, and a half-line's Dirichlet wall is the end of its position
grid at x = 0.  Times come as 1-D arrays, and results over them are arrays.

Probabilities in this module use uniform-weight (rectangle) sums dx*sum|psi|^2:
uniform weights keep the projector algebra exact on the grid (idempotence,
orthogonality of disjoint windows, additivity over a partition of samples),
which the alternating weights of higher-order rules would break.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import GridSpec, momentum_to_position, position_to_momentum
from .operators import _check_taus, _free_current_integrals, _tau_blocks, current_expectation, kinetic_energy_density
from .states import Representation, WaveFunction


class Propagator(enum.Enum):
    FREE = "free"
    HALFLINE = "halfline"  # Dirichlet wall at the grid's end at x = 0


@dataclass(frozen=True)
class WindowSpec:
    """Spatial window [center - half_width, center + half_width]."""

    center: float
    half_width: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    def samples(self, x: np.ndarray) -> slice:
        """The run of samples of the increasing grid x with |x - center| <=
        half_width: x - center is nondecreasing, so two binary searches find it."""
        d = x - self.center
        return slice(np.searchsorted(d, -self.half_width, "left"), np.searchsorted(d, self.half_width, "right"))


@dataclass(frozen=True)
class MeasurementChain:
    """Ordered projective window measurements applied to an evolving state.

    The initial state is a position-representation wave function at time 0;
    events are (time, window) pairs with finite, strictly increasing times,
    the first at t >= 0.  Between events the state evolves with the chain's
    propagator; a HALFLINE chain's grid must end at the wall x = 0.
    """

    initial: WaveFunction
    events: tuple
    propagator: Propagator = Propagator.FREE

    def __post_init__(self) -> None:
        if self.initial.rep is not Representation.POSITION:
            raise ValueError("chain initial state must be in the position representation")
        times = _check_taus([t for t, _ in self.events], "event times")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("event times must be strictly increasing")
        if times.size and times[0] < 0.0:
            raise ValueError("first event precedes the initial time")
        if self.propagator is Propagator.HALFLINE:
            _wall_first(self.initial.grid)  # so the grid check below keeps windows on the half-line
        for _, w in self.events:
            _check_window(w, self.initial.grid)


def _check_window(w: WindowSpec, x: np.ndarray) -> None:
    """Raise unless the window lies within the position grid x (to 1e-12)."""
    if w.center - w.half_width < x[0] - 1e-12 or w.center + w.half_width > x[-1] + 1e-12:
        raise ValueError(f"window {w} extends outside the position grid")


def _prob_mass(values: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(values) ** 2) * dx)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _free_phase(p: np.ndarray, dt: float | np.ndarray, consts) -> np.ndarray:
    """e^{-i p^2 dt / 2 m hbar}, the free evolution over dt (broadcast against p) at the momenta p."""
    return np.exp(-1j * p**2 * dt / (2.0 * consts.mass * consts.hbar))


def _box_evolve(values: np.ndarray, dx: float, dt: float, consts) -> np.ndarray:
    """Free evolution over dt of `values` on a uniform position grid of step
    dx, in the periodic box of that grid, exactly on the grid: one FFT, the
    phase at the box momenta p = 2 pi hbar fftfreq(M, dx), one inverse FFT.
    An odd count of N samples is a box of M = N - 1 whose last sample repeats
    the first."""
    n = values.size
    box = n - n % 2
    spectrum = np.fft.fft(values[:box])
    spectrum *= _free_phase(2.0 * math.pi * consts.hbar * np.fft.fftfreq(box, dx), dt, consts)
    out = np.empty(n, dtype=complex)
    np.fft.ifft(spectrum, out=out[:box])
    out[box:] = out[: n - box]
    return out


def free_evolve(psi: WaveFunction, dt: float) -> WaveFunction:
    """Free evolution over dt: the phase e^{-i p^2 dt / 2 m hbar} in momentum.

    A momentum state takes it at its samples; a position state evolves in the
    periodic box of its grid (_box_evolve).
    """
    x = psi.grid
    if psi.rep is Representation.MOMENTUM:
        values = psi.values * _free_phase(x, dt, psi.consts)
    else:
        values = _box_evolve(psi.values, (x[-1] - x[0]) / (x.size - 1), dt, psi.consts)
    return WaveFunction(psi.rep, x, values, psi.consts)


def _wall_first(x: np.ndarray) -> slice:
    """The order of x that puts the wall x = 0 first: x >= 0 when the first
    sample is at 0, x <= 0 when the last one is."""
    if x[0] == 0.0:
        return slice(None)
    if x[-1] == 0.0:
        return slice(None, None, -1)
    raise ValueError(f"a half-line grid must end at the wall x = 0, got ends at x = {x[0]} and x = {x[-1]}")


def halfline_propagate(psi: WaveFunction, t1: float, t0: float) -> WaveFunction:
    """Propagate on a Dirichlet half-line by the method of images: the wall
    is the grid's end at x = 0, its first sample (x >= 0) or its last (x <= 0).
    The odd extension about the wall evolves freely in its periodic box (so
    the far end is a Dirichlet wall too) and is restricted back."""
    if psi.rep is not Representation.POSITION:
        raise ValueError("halfline_propagate expects a position-representation state")
    dt = t1 - t0
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"need finite times t1 > t0, got t1 = {t1}, t0 = {t0}")
    x = psi.grid
    flip = _wall_first(x)

    # the values by distance from the wall, wall first; both walls hold 0.  The
    # odd extension about the wall has the grid's step
    u = psi.values[flip].copy()
    u[[0, -1]] = 0.0
    dx = abs(x[-1] - x[0]) / (x.size - 1)
    out = _box_evolve(np.concatenate([-u[:0:-1], u]), dx, dt, psi.consts)[x.size - 1 :]
    out[[0, -1]] = 0.0
    return WaveFunction(psi.rep, x, out[flip], psi.consts)


def window_project(psi: WaveFunction, w: WindowSpec) -> WaveFunction:
    """Apply the window projector; the result is unnormalized and its squared
    norm (dx * sum |psi|^2) is the detection probability."""
    if psi.rep is not Representation.POSITION:
        raise ValueError("window_project expects a position-representation state")
    _check_window(w, psi.grid)
    inside = w.samples(psi.grid)
    values = np.zeros(psi.values.shape, dtype=complex)
    values[inside] = psi.values[inside]
    return WaveFunction(Representation.POSITION, psi.grid, values, psi.consts)


def chain_final_state(chain: MeasurementChain) -> tuple[WaveFunction, float]:
    """Thread the chain: propagate-project alternation; returns the final
    (unnormalized) state and the joint probability of all outcomes."""
    state, t_prev = chain.initial, 0.0
    for t_event, window in chain.events:
        if t_event > t_prev and chain.propagator is Propagator.FREE:
            state = free_evolve(state, t_event - t_prev)
        elif t_event > t_prev:
            state = halfline_propagate(state, t_event, t_prev)
        state = window_project(state, window)
        t_prev = t_event
    return state, _prob_mass(state.values, state.dx)


def make_zeno_chain(initial: WaveFunction, n_proj: int, total_time: float) -> MeasurementChain:
    """Chain of n_proj equally spaced projections onto x < 0 (free evolution
    between projections); the window covers the negative half of the grid."""
    if not isinstance(n_proj, (int, np.integer)) or n_proj < 1:
        raise ValueError(f"need an integer n_proj >= 1, got {n_proj!r}")
    if not (total_time > 0.0 and math.isfinite(total_time)):
        raise ValueError(f"need a finite total_time > 0, got {total_time}")
    x = initial.grid
    window = WindowSpec(center=x[0] / 2.0, half_width=abs(x[0]) / 2.0)
    times = total_time * (np.arange(1, n_proj + 1) / n_proj)
    return MeasurementChain(initial, tuple((float(t), window) for t in times), Propagator.FREE)


# ---------------------------------------------------------------------------
# Conditional two-measurement distribution
# ---------------------------------------------------------------------------


def conditional_distribution(
    psi: WaveFunction,
    event1: tuple[float, float, float],
    t2: float,
    xbar2_grid: np.ndarray,
    delta: float,
) -> np.ndarray:
    """p(xbar2, t2 | xbar1, t1) over candidate second windows.

    event1 = (xbar1, t1, delta1); the state starts at time 0 on the half-line
    whose wall is the grid's end at x = 0.  The first event is a one-event
    HALFLINE chain (propagate to t1, project onto the first window); the state
    then propagates to t2, and the conditional probability of each second
    window is its mass, summed over its run of samples (WindowSpec.samples),
    divided by the first-event probability.
    """
    xbar1, t1, delta1 = event1
    if not (t1 > 0.0 and t2 > t1 and math.isfinite(t2)):
        raise ValueError(f"need finite times 0 < t1 < t2, got t1 = {t1}, t2 = {t2}")
    first = MeasurementChain(psi, ((t1, WindowSpec(xbar1, delta1)),), Propagator.HALFLINE)
    state, p1 = chain_final_state(first)
    if p1 <= 1e-12:
        raise ValueError(f"first-event probability {p1:.3e} too small to condition on")
    state = halfline_propagate(state, t2, t1)
    rho, x = np.abs(state.values) ** 2, state.grid
    windows = [WindowSpec(c, delta) for c in np.asarray(xbar2_grid, dtype=float).tolist()]
    masses = [np.sum(rho[w.samples(x)]) for w in windows]
    return np.array(masses, dtype=float) * state.dx / p1


# ---------------------------------------------------------------------------
# Crossing probability
# ---------------------------------------------------------------------------


# Crossing: oversampling of the position grid of the projector form.
CROSSING_OVERSAMPLE = 4


@dataclass(frozen=True)
class CrossingResult:
    """The two equivalent forms of the interval crossing probability, arrays over the taus."""

    projector_form: np.ndarray
    current_form: np.ndarray


def _edges(v: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """(lo, hi) on the increasing grid v, with at most 1e-12 of the density's mass below lo and as much above hi."""
    mass = np.cumsum(density)
    return float(v[np.searchsorted(mass, 1e-12 * mass[-1])]), float(v[np.searchsorted(mass, (1.0 - 1e-12) * mass[-1])])


def crossing_probability(psi: WaveFunction, taus: np.ndarray) -> CrossingResult:
    """Probability of crossing the origin during [0, tau], for each tau of a
    1-D array of nonnegative, strictly increasing taus (one sweep).

    projector_form:  <psi|Pbar P(tau) Pbar|psi> + <psi|P Pbar(tau) P|psi>
    with P = theta(x), evaluated by project / free-propagate / project on a
    CROSSING_OVERSAMPLE-times oversampled conjugate position grid.  psi is
    projected once per sweep, both parts by one two-row transform; the live
    taus are evolved in blocks (_tau_blocks), each block's parts by one
    transform of its (taus, 2, p) stack.
    current_form:  integral over [0, tau] of <Pbar psi|J(t)|Pbar psi>
    - <P psi|J(t)|P psi> (they agree because dP(t)/dt = J(t)).  The current
    is a finite sum of phases, so its time integral is taken in closed form
    by _free_current_integrals: no time grid, and each tau costs one phase
    per distinct p^2 and its columns of one matrix product.
    Both forms are exactly 0 at tau = 0.

    The position grid is a periodic box [-x_max, x_max), x_max = pi hbar / dp:
    a part that passes one end comes back at the other.  All but 1e-12 of the
    mass lies in [x_lo, x_hi] and [p_lo, p_hi] (_edges) and reaches no end
    before m (x_max - x_hi) / p_hi or m (x_max + x_lo) / -p_lo, so a later
    last tau raises RuntimeError.
    """
    if psi.rep is not Representation.MOMENTUM:
        raise ValueError("crossing_probability expects a momentum-representation state")
    taus = _check_taus(taus, "tau", increasing=True, nonnegative=True)
    m, hbar = psi.consts.mass, psi.consts.hbar
    p = psi.grid
    # oversampled half-offset position grid at the conjugate extent
    x_grid = GridSpec(CROSSING_OVERSAMPLE * p.size, math.pi * hbar * (p.size - 1) / (p[-1] - p[0]))
    x = x_grid.momenta()
    dx, x_max = x_grid.dp, x_grid.p_max
    left, right = x < 0.0, x > 0.0
    psi_x = momentum_to_position(psi.values, p, x, hbar)
    (x_lo, x_hi), (p_lo, p_hi) = _edges(x, np.abs(psi_x) ** 2), _edges(p, np.abs(psi.values) ** 2)
    wrap = m * min(gap / v for gap, v in ((x_max - x_hi, p_hi), (x_max + x_lo, -p_lo)) if v > 0.0)
    if taus[-1] > wrap and np.any(psi.values):  # a null packet reaches no end
        raise RuntimeError(f"tau = {float(taus[-1])!r} passes {wrap:.4g}, when the packet reaches an end of its box")
    parts = position_to_momentum(np.where([left, right], psi_x, 0.0), x, p, hbar)

    projector, current = np.zeros(taus.size), np.zeros(taus.size)
    live = np.flatnonzero(taus)
    for start, block in _tau_blocks(taus[live], p.size):
        evolved = momentum_to_position(parts * _free_phase(p, block[:, None, None], psi.consts), p, x, hbar)
        for k, (neg_x, pos_x) in zip(live[start:], evolved):
            projector[k] = _prob_mass(neg_x[right], dx) + _prob_mass(pos_x[left], dx)
    j = _free_current_integrals(parts, p, psi.dx, taus[live], psi.consts)
    current[live] = j[:, 0] - j[:, 1]
    return CrossingResult(projector, current)


# ---------------------------------------------------------------------------
# Small-time current law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurrentLawFit:
    """Power-law fit of the small-time current of a reflected state, with the
    currents <J(tau)> it was fitted to."""

    prefactor: float
    exponent: float
    residual: float
    current: np.ndarray


def small_time_current_law(reflected: WaveFunction, tau_samples: np.ndarray) -> CurrentLawFit:
    """Fit <J(tau)> ~ C tau^(1/2) |psi'(0)|^2 for a reflected state.

    The exponent comes from a free log-log fit; the prefactor is the
    geometric mean of J / tau^(1/2) (the best-fitting amplitude of the exact
    square-root law), normalized by (hbar/m)^(3/2) |psi'(0)|^2 where
    |psi'(0)|^2 is the squared slope at the origin of the unit-normalized odd
    extension, computed from the momentum representation as
    2 <p delta(x) p> / hbar^2.  (Free evolution halves the one-sided slope of
    the restricted state, psi'(0, tau->0+) = psi'(0-)/2; the odd-extension
    normalization is the convention under which the 1/(2 sqrt(pi)) square-root
    law holds.)  Warns when the fit residual exceeds 5% (regime violation).
    """
    taus = _check_taus(tau_samples, "tau_samples")
    if taus.ndim != 1 or taus.size < 3 or np.any(taus <= 0.0):
        raise ValueError("need at least 3 positive tau samples")
    m, hbar = reflected.consts.mass, reflected.consts.hbar
    ked_signed, _ = kinetic_energy_density(reflected)
    slope_sq = 2.0 * ked_signed / hbar**2
    j = current_expectation(reflected, taus)
    if np.any(j <= 0.0):
        raise ValueError("current is not positive over the requested tau window")
    a = np.vstack([np.ones_like(taus), np.log(taus)]).T
    coef, *_ = np.linalg.lstsq(a, np.log(j), rcond=None)
    exponent = float(coef[1])
    log_amp = float(np.mean(np.log(j) - 0.5 * np.log(taus)))
    prefactor = math.exp(log_amp) / ((hbar / m) ** 1.5 * slope_sq)
    fit = a @ coef
    residual = float(np.sqrt(np.mean((np.log(j) - fit) ** 2)))
    if residual > 0.05:
        warnings.warn(
            f"current-law fit residual {residual:.3f} exceeds 5%: tau window may violate "
            "the small-time regime",
            stacklevel=2,
        )
    return CurrentLawFit(prefactor, exponent, residual, j)


# ---------------------------------------------------------------------------
# Classical oracles
# ---------------------------------------------------------------------------


def classical_arrival(x: float, p: float, m: float = 1.0) -> float:
    """Classical arrival time at the origin, tau = -m x / p."""
    if p == 0.0:
        raise ValueError("classical arrival time diverges at p = 0")
    return -m * x / p


def classical_stopwatch(x: float, p: float, T: float, m: float = 1.0) -> float:
    """Stopwatch reading integral_0^T theta(-x - p t / m) dt for p > 0.

    The indicator is integrated exactly: its single switch-off time is located
    by bisection on the indicator itself (60 iterations, no use of the closed
    form), and the integral is the measure of the interval where it holds.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"stopwatch oracle requires a finite p > 0, got {p}")
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    if not (math.isfinite(x) and m > 0.0 and math.isfinite(m)):
        raise ValueError(f"stopwatch oracle requires a finite x and a finite m > 0, got x = {x}, m = {m}")

    def on(t: float) -> bool:
        return -x - p * t / m > 0.0

    if not on(0.0):
        return 0.0
    if on(T):
        raise ValueError(f"horizon T = {T} too small: particle still left of origin")
    lo, hi = 0.0, T
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if on(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classical_current_moment(x: float, p: float, m: float = 1.0) -> float:
    """Time moment of the classical current, integral dt t J(t) with
    J(t) = (p/m) delta(x + p t / m); the delta fires at t* = -m x / p with
    Jacobian m/|p|, giving exactly -m x / |p|."""
    if p == 0.0:
        raise ValueError("current moment diverges at p = 0")
    t_star = -m * x / p
    jacobian = m / abs(p)
    return t_star * (p / m) * jacobian

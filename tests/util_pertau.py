"""Per-tau reference loops for the blocked and swept calls (test-side oracles).

Each tau makes its own `eigenstate_values` call, and the reconstruction is
accumulated one tau at a time with elementwise sums, as in a direct reading of
the formulas.  Each crossing tau projects the state afresh and integrates the
current on its own Simpson grid over [0, tau].
"""

import math

import numpy as np

from qarrival import (
    EigenFamily,
    GridSpec,
    Representation,
    WaveFunction,
    current_expectation,
    eigenstate_values,
    simpson_weights,
)
from qarrival.measurement import CROSSING_OVERSAMPLE
from qarrival.numerics import momentum_to_position, position_to_momentum


def distribution_per_tau(psi, family, taus):
    """Pi(tau) = |sum_j w_j conj(psi_j) phi_tau(p_j)|^2, one tau at a time."""
    weighted = simpson_weights(psi.grid.size, psi.dx) * np.conj(psi.values)
    vals = np.empty(len(taus))
    for i, tau in enumerate(taus):
        phi = eigenstate_values(family, float(tau), psi.grid, psi.consts)
        vals[i] = abs(np.sum(weighted * phi)) ** 2
    return vals


def completeness_per_tau(family, psi, tau_range, tau_n):
    """Relative error of psi_rec = integral dtau phi_tau <phi_tau|psi>, AB sector-wise."""
    taus = np.linspace(tau_range[0], tau_range[1], tau_n)
    wt = simpson_weights(tau_n, taus[1] - taus[0])
    wp = simpson_weights(psi.grid.size, psi.dx)
    p = psi.grid
    masks = [p > 0.0, p < 0.0] if family is EigenFamily.AB else [np.ones(p.size, dtype=bool)]
    rec = np.zeros(p.size, dtype=complex)
    for mask in masks:
        for tau, w in zip(taus, wt):
            phi = np.where(mask, eigenstate_values(family, float(tau), p, psi.consts), 0.0)
            c = np.sum(wp * np.conj(phi) * psi.values)
            rec += w * c * phi
    err = math.sqrt(float(np.sum(wp * np.abs(rec - psi.values) ** 2)))
    return err / math.sqrt(psi.norm_squared())


# Simpson samples on [0, tau] for the oracle's integral of the current.
TIME_SAMPLES = 801


def free_phase(values_p, p, t, consts):
    """Free evolution of momentum samples over t: psi(p) e^{-i p^2 t / 2 m hbar}."""
    return values_p * np.exp(-1j * p**2 * t / (2.0 * consts.mass * consts.hbar))


def crossing_per_tau(psi, tau):
    """(projector form, current form) of the crossing probability over [0, tau]:
    project, free-propagate and project for the first; Simpson's rule on
    TIME_SAMPLES times of [0, tau] for the integral of the current."""
    if tau == 0.0:
        return 0.0, 0.0
    hbar = psi.consts.hbar
    p = psi.grid
    x_grid = GridSpec(CROSSING_OVERSAMPLE * p.size, math.pi * hbar * (p.size - 1) / (p[-1] - p[0]))
    x = x_grid.momenta()
    dx = x_grid.dp
    psi_x = momentum_to_position(psi.values, p, x, hbar)
    neg_p = position_to_momentum(np.where(x < 0.0, psi_x, 0.0), x, p, hbar)
    pos_p = position_to_momentum(np.where(x > 0.0, psi_x, 0.0), x, p, hbar)

    def evolved_mass(values_p, target_positive):
        vx = momentum_to_position(free_phase(values_p, p, tau, psi.consts), p, x, hbar)
        mask = x > 0.0 if target_positive else x < 0.0
        return float(np.sum(np.abs(vx[mask]) ** 2) * dx)

    projector = evolved_mass(neg_p, True) + evolved_mass(pos_p, False)
    wf_neg = WaveFunction(Representation.MOMENTUM, p, neg_p, psi.consts)
    wf_pos = WaveFunction(Representation.MOMENTUM, p, pos_p, psi.consts)
    ts = np.linspace(0.0, tau, TIME_SAMPLES)
    integrand = current_expectation(wf_neg, ts) - current_expectation(wf_pos, ts)
    return projector, float(np.sum(simpson_weights(ts.size, ts[1] - ts[0]) * integrand))

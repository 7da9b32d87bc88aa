"""Per-tau reference loops for the blocked spectral calls (test-side oracle).

Each tau makes its own `eigenstate_values` call, and the reconstruction is
accumulated one tau at a time with elementwise sums, as in a direct reading of
the formulas.
"""

import math

import numpy as np

from qarrival import EigenFamily, eigenstate_values, simpson_weights


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

"""Value and first derivative of a position-space state at x = 0 (test-side
oracles for the reflected state and the current at the origin)."""

import numpy as np

from qarrival import Representation, WaveFunction


def _origin_weights(pts: np.ndarray) -> np.ndarray:
    """Weights of the value (row 0) and the first derivative (row 1) at x = 0
    of the polynomial through the samples at pts.

    They are exact for every polynomial of degree < pts.size: the transposed
    Vandermonde system sum_i w_i t_i^c = delta_{c,r}, in units of the largest
    |pts| so that it stays well conditioned.
    """
    h = float(np.max(np.abs(pts)))
    vander = np.vander(pts / h, increasing=True)
    weights = np.linalg.solve(vander.T, np.eye(pts.size)[:, :2]).T
    return weights / np.array([[1.0], [h]])


def derivative_at_origin(psi: WaveFunction) -> complex:
    """Five-point finite-difference estimate of psi'(0) on a position grid.

    Uses the Lagrange differentiation weights of the five samples nearest
    x = 0 (the classic central stencil when the grid contains x = 0); error
    O(dx^4) for smooth states.  For states with a slope kink at the origin
    the central stencil returns the mean of the two one-sided derivatives.
    """
    if psi.rep is not Representation.POSITION:
        raise ValueError("derivative_at_origin expects a position-representation state")
    x = psi.grid
    if x.size < 5:
        raise ValueError("need at least 5 position samples around the origin")
    order = np.argsort(np.abs(x))[:5]
    pts = x[order]
    if np.min(np.abs(x)) > 2.0 * psi.dx or pts.min() > 0.0 or pts.max() < 0.0:
        raise ValueError("position grid does not bracket a neighborhood of x = 0")
    return complex(_origin_weights(pts)[1] @ psi.values[order])


def value_at_origin(psi: WaveFunction) -> complex:
    """Four-point Lagrange interpolation of psi(0) on a position grid."""
    if psi.rep is not Representation.POSITION:
        raise ValueError("value_at_origin expects a position-representation state")
    order = np.argsort(np.abs(psi.grid))[:4]
    return complex(_origin_weights(psi.grid[order])[0] @ psi.values[order])

"""The invariant checks of `qarrival verify`, shared with the tests.

`run_checks` reports every entry of `CHECKS` as {name, value, tolerance,
pass}; a check that cannot be evaluated on the grid has value None, pass
False and a note.  The tolerances live in `CHECKS` and nowhere else.

Library functions are called through their modules (`operators.build_operator`,
not a name imported from it), so a tracer that rebinds a module's functions
sees every call made from here.
"""

from __future__ import annotations

import math

import numpy as np

from . import measurement, numerics, operators, states
from .numerics import GridSpec, PhysConsts
from .operators import EigenFamily, OperatorKind
from .states import GaussianSpec

# Operators whose interior sub-block must be hermitian, by check-name suffix.
HERMITIAN = {
    "t_kdm": OperatorKind.T_KDM,
    "t_new_sym": OperatorKind.T_NEW_SYM,
    "t_new_via_kdm": OperatorKind.T_NEW_VIA_KDM,
    "t_dwell": OperatorKind.T_DWELL,
    "h": OperatorKind.H,
    "xi": OperatorKind.XI,
    "j_current": OperatorKind.J_CURRENT,
}

COMMUTATORS = ("commutator_h_t_new", "commutator_xi_t_new", "commutator_xi_t_kdm")

# |p|L/hbar bands of the dwell relation and of its negative control.
DWELL_BANDS = {"dwell_low_momentum": (0.0, 0.05), "dwell_negative_control": (4.5, 5.5)}

# name -> (tolerance, larger_is_pass), in report order.  The commutator
# tolerances are in units of hbar.
CHECKS: dict[str, tuple[float, bool]] = {
    **dict.fromkeys((f"hermiticity_{name}" for name in HERMITIAN), (1e-10, False)),
    "t_new_constructions_agree": (1e-8, False),
    **dict.fromkeys(("reflection_squared_identity", "reflection_sign_conjugation"), (1e-15, False)),
    **dict.fromkeys(COMMUTATORS, (1e-6, False)),
    "new_eigenstate_conjugation": (1e-12, False),
    "new_branch_seam": (1e-6, False),
    "bessel_branch_window": (1e-9, False),
    "kijowski_equals_ab_overlap": (1e-10, False),
    "dwell_low_momentum": (0.02, False),
    "dwell_negative_control": (0.2, True),
    "classical_stopwatch_match": (1e-9, False),
    "classical_current_moment_match": (1e-15, False),
}


def _max_deviation(op: operators.OperatorMatrix, expected) -> float:
    """max |M[j, k] - expected(j, k)| over every entry of op's pattern, which
    must hold every nonzero entry of `expected` (a product's pattern holds
    all of its own)."""
    return max(
        float(np.max(np.abs(values - expected(rows, cols)), where=inside, initial=0.0))
        for rows, cols, inside, values in op.chunks()
    )


def _operator_checks(grid: GridSpec, consts: PhysConsts, L: float) -> dict:
    hbar = consts.hbar
    p = grid.momenta()
    # T_DWELL takes the dwell length, J_CURRENT the time; the others ignore both
    ops = {name: operators.build_operator(kind, grid, consts, L=L, t=0.3) for name, kind in HERMITIAN.items()}
    values = {f"hermiticity_{name}": operators.hermiticity_defect(op) for name, op in ops.items()}
    sym, via = ops["t_new_sym"], ops["t_new_via_kdm"]
    values["t_new_constructions_agree"] = _max_deviation(sym, via.entries) / _max_deviation(sym, lambda j, k: 0.0)
    r = operators.build_operator(OperatorKind.R, grid, consts)
    eps = operators.build_operator(OperatorKind.SIGN_P, grid, consts)
    values["reflection_squared_identity"] = _max_deviation(r.compose(r), lambda j, k: j == k)
    values["reflection_sign_conjugation"] = _max_deviation(r.compose(eps).compose(r), lambda j, k: -eps.entries(j, k))

    # commutators, by action on a smooth positive-momentum packet
    sigma = grid.p_max / 26.0
    p0 = 0.3 * grid.p_max
    f = np.exp(-((p - p0) ** 2) / (4.0 * sigma**2)).astype(complex)
    f /= math.sqrt(float(np.sum(np.abs(f) ** 2) * grid.dp))
    interior = slice(2, grid.n - 2)

    def residual(a: str, b: str, expected: np.ndarray) -> float:
        """max |[A, B] f - expected| on interior rows, by A(Bf) - B(Af)."""
        ma, mb = ops[a], ops[b]
        res = ma.apply(mb.apply(f)) - mb.apply(ma.apply(f)) - expected
        return np.max(np.abs(res[interior]))

    values["commutator_h_t_new"] = residual("h", "t_new_via_kdm", 1j * hbar * np.sign(p) * f)
    values["commutator_xi_t_new"] = residual("xi", "t_new_via_kdm", 1j * hbar * (f + 0.5 * r.apply(f)))
    values["commutator_xi_t_kdm"] = residual("xi", "t_kdm", 1j * hbar * f)
    return values


def _bessel_table_gap(z: np.ndarray) -> np.ndarray:
    """J_nu(z) from the low table minus J_nu(z) from the high table, for
    nu = -1/4, 3/4 (first axis); both tables are fitted on z in [8, 12]."""
    nu = np.array([[-0.25], [0.75]])
    omega = z - nu * math.pi / 2.0 - math.pi / 4.0
    p, q = numerics._hankel_modulation(z)
    high = np.sqrt(2.0 / (math.pi * z)) * (p * np.cos(omega) - q * np.sin(omega))
    return z**nu * numerics._bessel_scaled(z) - high


def _eigenstate_checks(grid: GridSpec, consts: PhysConsts) -> dict:
    values = {}
    phi = operators.eigenstate_values(EigenFamily.NEW, 0.7, grid.momenta(), consts)
    values["new_eigenstate_conjugation"] = np.max(np.abs(phi[::-1] - np.conj(phi))) / np.max(np.abs(phi))
    # the eigenstate's only seam is the switchover between the Bessel tables:
    # both tables at z = 10 itself, at the momentum where tau = 0.7 reaches it
    tau, z = 0.7, np.array([numerics.BESSEL_SWITCHOVER])
    low_amp, high_amp = operators._new_amplitudes(np.sqrt(2.0 * consts.mass * consts.hbar * z / tau), tau, consts)
    lo = complex(*(part[0] for part in operators._new_low_table(z, low_amp)))
    hi = complex(*(part[0] for part in operators._new_high_table(z, high_amp)))
    values["new_branch_seam"] = abs(lo - hi) / abs(lo)
    values["bessel_branch_window"] = np.max(np.abs(_bessel_table_gap(np.linspace(8.0, 12.0, 50))))
    return values


def _kijowski_check(grid: GridSpec, packet: GaussianSpec) -> float:
    # compare in the bulk of the arrival distribution (near-zero tails are
    # dominated by rounding noise of two independently ordered sums)
    psi = states.make_gaussian(packet, grid)
    t_peak = measurement.classical_arrival(packet.x0, packet.p0, packet.consts.mass)
    worst = 0.0
    for t in (0.8 * t_peak, t_peak, 1.2 * t_peak):
        kij = operators.kijowski_distribution(psi, t)
        ab = abs(operators.overlap(psi, EigenFamily.AB, t)) ** 2
        worst = max(worst, abs(kij - ab) / max(kij, 1e-300))
    return worst


def _classical_checks(mass: float) -> dict:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        x = -float(rng.uniform(0.1, 10.0))
        mom = float(rng.uniform(0.1, 10.0))
        sw = measurement.classical_stopwatch(x, mom, T=200.0, m=mass)
        worst = max(worst, abs(sw - (-mass * x / mom)))
    moment = max(
        abs(measurement.classical_current_moment(x, mom, mass) - (-mass * x / abs(mom)))
        for x, mom in ((-5.0, 2.0), (-5.0, -2.0), (3.0, 1.5))
    )
    return {"classical_stopwatch_match": worst, "classical_current_moment_match": moment}


def run_checks(grid: GridSpec, packet: GaussianSpec, L: float) -> list[dict]:
    """Every check of CHECKS, in order, on this grid, packet and dwell length L."""
    consts = packet.consts
    values = _operator_checks(grid, consts, L)
    values.update(_eigenstate_checks(grid, consts))
    values["kijowski_equals_ab_overlap"] = _kijowski_check(grid, packet)
    notes = {}
    for name, band in DWELL_BANDS.items():
        try:
            values[name] = operators.dwell_low_momentum_check(L, grid, consts, band=band)
        except ValueError as exc:
            notes[name] = str(exc)
    values.update(_classical_checks(consts.mass))

    report = []
    for name, (tol, larger_is_pass) in CHECKS.items():
        if name in COMMUTATORS:
            tol *= consts.hbar
        if name in notes:
            report.append({"name": name, "value": None, "tolerance": tol, "pass": False, "note": notes[name]})
            continue
        value = float(values[name])
        passed = value >= tol if larger_is_pass else value <= tol
        report.append({"name": name, "value": value, "tolerance": tol, "pass": passed})
    return report

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them); the assertions carry the same tolerances.
"""

import math
import warnings

import numpy as np

from qarrival import (
    EigenFamily,
    GridSpec,
    OperatorKind,
    build_operator,
    completeness_check,
    crossing_probability,
    classical_current_moment,
    classical_stopwatch,
    conditional_distribution,
    distribution,
    eigenstate_values,
    kinetic_energy_density,
    small_time_current_law,
)
from qarrival.numerics import GAMMA_3_4
from qarrival.states import Representation, WaveFunction
from util_new_oracle import new_low_momentum_slope, solve_eigen_ode
from util_spectral import chebyshev_nodes_and_diff


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def test_criterion_01_self_adjointness(verify_report):
    """T_NEW from both constructions: hermitian on interior rows to 1e-10 and
    mutually agreeing to 1e-8 (values from the invariant report)."""
    h_sym = verify_report["hermiticity_t_new_sym"]["value"]
    h_via = verify_report["hermiticity_t_new_via_kdm"]["value"]
    agree = verify_report["t_new_constructions_agree"]["value"]
    ok = h_sym <= 1e-10 and h_via <= 1e-10 and agree <= 1e-8
    report(
        "criterion 1 (self-adjointness)",
        ok,
        f"hermiticity defects {h_sym:.2e}, {h_via:.2e} (tol 1e-10); "
        f"construction agreement {agree:.2e} (tol 1e-8)",
    )
    assert ok


def _commutator_residuals(n: int, consts):
    """Residuals of [H,T]=i hbar eps(p) and [xi,T]=i hbar (1 + R/2) by action on
    a smooth normalized positive-momentum packet, interior rows."""
    grid = GridSpec(n, 40.0)
    hbar = consts.hbar
    p = grid.momenta()
    f = np.exp(-((p - 12.0) ** 2) / (4.0 * 1.5**2)).astype(complex)
    f /= math.sqrt(float(np.sum(np.abs(f) ** 2) * grid.dp))
    t_new = build_operator(OperatorKind.T_NEW_VIA_KDM, grid, consts)
    h_diag = p**2 / 2.0
    xi_diag = p * np.abs(p) / 2.0
    # [A, T] f = A(Tf) - T(Af) with diagonal A: the operator's action only
    tf = t_new.apply(f)
    res_h = h_diag * tf - t_new.apply(h_diag * f) - 1j * hbar * np.sign(p) * f
    res_xi = xi_diag * tf - t_new.apply(xi_diag * f) - 1j * hbar * (f + 0.5 * f[::-1])
    sl = slice(2, n - 2)
    return float(np.max(np.abs(res_h[sl]))), float(np.max(np.abs(res_xi[sl])))


def test_criterion_02_commutators(consts):
    """[H,T_NEW] and [xi,T_NEW] within 1e-6 hbar at n=1024; error shrinks >= 4x
    when n doubles."""
    rh1, rxi1 = _commutator_residuals(1024, consts)
    rh2, rxi2 = _commutator_residuals(2048, consts)
    tol = 1e-6 * consts.hbar
    ok = rh1 <= tol and rxi1 <= tol and rh1 / rh2 >= 4.0 and rxi1 / rxi2 >= 4.0
    report(
        "criterion 2 (commutators)",
        ok,
        f"residuals at n=1024: {rh1:.2e}, {rxi1:.2e} (tol {tol:.0e}); "
        f"shrink factors {rh1 / rh2:.1f}x, {rxi1 / rxi2:.1f}x (need >= 4)",
    )
    assert ok


def test_criterion_03_eigenstate_correctness(consts):
    """ODE-integrated eigenstate vs closed Bessel form: correlation >= 1 - 1e-6
    for tau in {0.2, 1, 5}; eigenvalue-equation residual of the closed form <= 1e-6."""
    grid = GridSpec(512, 8.0)
    corrs = []
    for tau in (0.2, 1.0, 5.0):
        ode = solve_eigen_ode(tau, grid, consts)
        closed = eigenstate_values(EigenFamily.NEW, tau, grid.momenta(), consts)
        corr = abs(np.vdot(ode.values, closed)) / (
            np.linalg.norm(ode.values) * np.linalg.norm(closed)
        )
        corrs.append(float(corr))
    # spectral residual of the coupled first-order system on the closed form
    tau = 1.0
    p, d = chebyshev_nodes_and_diff(160, 0.5, 6.0)
    phi = eigenstate_values(EigenFamily.NEW, tau, p, consts)
    u, v = phi.real, phi.imag
    res_real = (consts.mass * consts.hbar / p) * (d @ v) - tau * u
    res_imag = -consts.mass * consts.hbar * (d @ (u / p)) - tau * v
    scale = tau * np.max(np.abs(phi))
    inner = slice(5, -5)
    resid = max(np.max(np.abs(res_real[inner])), np.max(np.abs(res_imag[inner]))) / scale
    ok = all(c >= 1.0 - 1e-6 for c in corrs) and resid <= 1e-6
    report(
        "criterion 3 (eigenstate correctness)",
        ok,
        f"correlations {['%.8f' % c for c in corrs]} (need >= 1-1e-6); "
        f"eigen-equation residual {resid:.2e} (tol 1e-6)",
    )
    assert ok


def test_criterion_04_asymptotic_regimes(consts, verify_report):
    """Branch agreement at the z = 10 seam to 1e-6 relative (from the invariant
    report, tau = 0.7); low-p slope matches tau^(1/4)/(2 Gamma(3/4) (m hbar)^(3/4))
    within 1e-4 at z <= 1e-3."""
    tau = 0.7
    seam = verify_report["new_branch_seam"]["value"]
    slope = new_low_momentum_slope(tau, consts)
    p = np.sqrt(2.0 * np.array([1e-5, 1e-4, 1e-3]) / tau)
    vals = eigenstate_values(EigenFamily.NEW, tau, p, consts)
    worst = float(np.max(np.abs(np.abs(vals) / p - slope) / slope))
    ok = seam <= 1e-6 and worst <= 1e-4
    report(
        "criterion 4 (asymptotic regimes)",
        ok,
        f"branch seam at z=10: {seam:.2e} (tol 1e-6); low-p slope deviation "
        f"{worst:.2e} (tol 1e-4, z <= 1e-3)",
    )
    assert ok


def test_criterion_05_large_momentum_regime(fast_packet):
    """Fast packet: Pi_NEW and Pi_KDM agree within 1% of peak on [0.3, 0.7]
    and both peak at tau = 0.5 +- 0.02."""
    taus = np.linspace(0.3, 0.7, 81)
    d_new = distribution(fast_packet, EigenFamily.NEW, taus)
    d_kdm = distribution(fast_packet, EigenFamily.KDM, taus)
    peak = float(np.max(d_kdm))
    dev = float(np.max(np.abs(d_new - d_kdm))) / peak
    t_new = float(taus[np.argmax(d_new)])
    t_kdm = float(taus[np.argmax(d_kdm)])
    ok = dev <= 0.01 and abs(t_new - 0.5) <= 0.02 and abs(t_kdm - 0.5) <= 0.02
    report(
        "criterion 5 (large-momentum regime)",
        ok,
        f"pointwise deviation {dev:.3%} of peak (tol 1%); peaks at "
        f"{t_new:.3f} / {t_kdm:.3f} (need 0.5 +- 0.02)",
    )
    assert ok


def test_criterion_06_low_momentum_regime(reflected_packet):
    """Reflected state: Pi_NEW/tau^(1/2) constant within 2% over the first
    decade and equal to pi/(2 Gamma(3/4)^2) m^(-3/2) hbar^(-1/2) <|p|d(x)|p|>
    within 1%."""
    m, hbar = reflected_packet.consts.mass, reflected_packet.consts.hbar
    taus = np.geomspace(1e-6, 1e-5, 9)
    ratios = distribution(reflected_packet, EigenFamily.NEW, taus) / np.sqrt(taus)
    spread = float((np.max(ratios) - np.min(ratios)) / np.mean(ratios))
    _, ked_abs = kinetic_energy_density(reflected_packet)
    target = math.pi / (2.0 * GAMMA_3_4 ** 2) * ked_abs / (m**1.5 * hbar**0.5)
    coef_dev = float(abs(np.mean(ratios) - target) / target)
    ok = spread <= 0.02 and coef_dev <= 0.01
    report(
        "criterion 6 (low-momentum regime)",
        ok,
        f"Pi/sqrt(tau) spread over first decade {spread:.3%} (tol 2%); "
        f"coefficient deviation from kinetic-energy-density law {coef_dev:.3%} (tol 1%)",
    )
    assert ok


def test_criterion_07_measurement_current_law(reflected_packet):
    """Fitted exponent 0.5 +- 0.02 and prefactor 1/(2 sqrt(pi)) within 2%;
    the ratio of the two closed-form coefficients is reported verbatim."""
    taus = np.geomspace(0.015, 0.045, 9)
    fit = small_time_current_law(reflected_packet, taus)
    target = 1.0 / (2.0 * math.sqrt(math.pi))
    ratio = (math.pi / (2.0 * GAMMA_3_4 ** 2)) / target  # = pi^(3/2)/Gamma(3/4)^2
    ok = abs(fit.exponent - 0.5) <= 0.02 and abs(fit.prefactor - target) / target <= 0.02
    report(
        "criterion 7 (measurement current law)",
        ok,
        f"exponent {fit.exponent:.4f} (need 0.5 +- 0.02); prefactor {fit.prefactor:.5f} "
        f"vs 1/(2 sqrt(pi)) = {target:.5f} ({(fit.prefactor - target) / target:+.2%}, tol 2%); "
        f"eigenstate-law/current-law coefficient ratio = {ratio:.6f} "
        f"(source remark of ~20% difference logged, not asserted)",
    )
    assert ok


def test_criterion_08_two_peak_conditional(consts):
    """Broad packet: conditional peaks at xbar1 -+ |p0|(t2-t1)/m within one
    window width; narrow control: reflected peak below 5% of direct."""

    def initial(p0, sigma_p, xc, x_max=40.0, nx=6001):
        x = np.linspace(0.0, x_max, nx)
        sigma_x = consts.hbar / (2.0 * sigma_p)
        vals = (
            (2.0 * math.pi * sigma_x**2) ** (-0.25)
            * np.exp(-((x - xc) ** 2) / (4.0 * sigma_x**2))
            * np.exp(1j * p0 * x / consts.hbar)
        ).astype(complex)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        vals = vals / math.sqrt(float(np.sum(np.abs(vals) ** 2) * psi.dx))
        return WaveFunction(Representation.POSITION, x, vals, consts)

    xbar1, t1, t2, delta = 4.0, 0.8, 1.05, 0.5
    sep = 10.0 * (t2 - t1)
    centers = np.arange(0.25, 12.0, 0.125)
    cond = conditional_distribution(
        initial(-10.0, 0.5, 8.0), (xbar1, t1, delta), t2, centers, delta
    )
    local = [
        i for i in range(1, len(centers) - 1) if cond[i] > cond[i - 1] and cond[i] > cond[i + 1]
    ]
    local.sort(key=lambda i: -cond[i])
    top2 = sorted(centers[i] for i in local[:2])
    dev_lo = abs(top2[0] - (xbar1 - sep))
    dev_hi = abs(top2[1] - (xbar1 + sep))

    xbar1n = 12.0
    centers_n = np.arange(0.25, 20.0, 0.125)
    cond_n = conditional_distribution(
        initial(-10.0, 2.0, 20.0), (xbar1n, t1, delta), t2, centers_n, delta
    )
    direct = cond_n[np.argmin(np.abs(centers_n - (xbar1n - sep)))]
    reflected = cond_n[np.argmin(np.abs(centers_n - (xbar1n + sep)))]
    suppression = float(reflected / direct)
    ok = dev_lo <= delta and dev_hi <= delta and suppression <= 0.05
    report(
        "criterion 8 (two-peak conditional)",
        ok,
        f"broad-packet peaks at {top2[0]:.3f}, {top2[1]:.3f} vs {xbar1 - sep:.1f}, "
        f"{xbar1 + sep:.1f} (tol {delta}); narrow-control reflected/direct "
        f"{suppression:.3%} (tol 5%)",
    )
    assert ok


def test_criterion_09_crossing_consistency(fast_packet):
    """Projector form and current-integral form of the crossing probability
    agree to 1e-4 absolute over tau in [0, 1]."""
    res = crossing_probability(fast_packet, np.linspace(0.0, 1.0, 11))
    worst = float(np.max(np.abs(res.projector_form - res.current_form)))
    ok = worst <= 1e-4
    report(
        "criterion 9 (crossing consistency)",
        ok,
        f"max |projector - current| = {worst:.2e} over tau in [0,1] (tol 1e-4)",
    )
    assert ok


def test_criterion_10_dwell_relation(verify_report):
    """Low-momentum dwell relation within 2% on the |p|L/hbar <= 0.05
    sub-block; at pL/hbar ~= 5 it deviates by >= 20% (negative control).
    Values from the invariant report, L = 0.2."""
    low = verify_report["dwell_low_momentum"]["value"]
    high = verify_report["dwell_negative_control"]["value"]
    ok = low <= 0.02 and high >= 0.2
    report(
        "criterion 10 (dwell relation)",
        ok,
        f"low-momentum deviation {low:.4f} (tol 0.02); negative control at "
        f"pL/hbar ~ 5: {high:.3f} (need >= 0.2)",
    )
    assert ok


def test_criterion_11_classical_oracles(rng):
    """Stopwatch equals -mx/p to 1e-9 on 100 random incoming pairs; the
    current moment equals -mx/|p| exactly."""
    worst_sw = 0.0
    for _ in range(100):
        x = -float(rng.uniform(0.05, 20.0))
        p = float(rng.uniform(0.05, 20.0))
        worst_sw = max(worst_sw, abs(classical_stopwatch(x, p, T=500.0) - (-x / p)))
    worst_cm = 0.0
    for x, p in ((-5.0, 2.0), (-5.0, -2.0), (3.0, 1.5), (-0.25, 8.0)):
        worst_cm = max(worst_cm, abs(classical_current_moment(x, p) - (-x / abs(p))))
    ok = worst_sw <= 1e-9 and worst_cm == 0.0
    report(
        "criterion 11 (classical oracles)",
        ok,
        f"stopwatch max deviation {worst_sw:.2e} over 100 random pairs (tol 1e-9); "
        f"current-moment deviation {worst_cm:.1e} (exact)",
    )
    assert ok


def test_criterion_12_completeness(fast_packet):
    """Reconstruction error <= 1e-3 for AB (sector-wise) and KDM; NEW-family
    tau >= 0 error reported and <= 1e-2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no uncovered-mass warnings allowed
        err_kdm = completeness_check(EigenFamily.KDM, fast_packet, (-0.25, 1.25), 5001)
        err_ab = completeness_check(EigenFamily.AB, fast_packet, (-0.25, 1.25), 5001)
        err_new = completeness_check(EigenFamily.NEW, fast_packet, (0.0, 1.5), 3001)
    ok = err_kdm <= 1e-3 and err_ab <= 1e-3 and err_new <= 1e-2
    report(
        "criterion 12 (completeness)",
        ok,
        f"reconstruction errors: KDM {err_kdm:.2e}, AB {err_ab:.2e} (tol 1e-3); "
        f"NEW on tau >= 0: {err_new:.2e} (reported; tol 1e-2)",
    )
    assert ok

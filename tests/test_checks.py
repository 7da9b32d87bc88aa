"""The invariant registry (`qarrival.checks`) shared by `qarrival verify` and the tests."""

import tracemalloc

import numpy as np
import pytest

from qarrival import EigenFamily, GridSpec, OperatorKind, OperatorMatrix, checks, operators, states

# (name, tolerance, larger_is_pass) of every check, in report order, at
# hbar = 1.  The registry may not loosen, drop or reorder a check silently.
PINNED = [
    ("hermiticity_t_kdm", 1e-10, False),
    ("hermiticity_t_new_sym", 1e-10, False),
    ("hermiticity_t_new_via_kdm", 1e-10, False),
    ("hermiticity_t_dwell", 1e-10, False),
    ("hermiticity_h", 1e-10, False),
    ("hermiticity_xi", 1e-10, False),
    ("t_new_constructions_agree", 1e-8, False),
    ("reflection_squared_identity", 1e-15, False),
    ("reflection_sign_conjugation", 1e-15, False),
    ("commutator_h_t_new", 1e-6, False),
    ("commutator_xi_t_new", 1e-6, False),
    ("commutator_xi_t_kdm", 1e-6, False),
    ("new_eigenstate_conjugation", 1e-12, False),
    ("new_branch_seam", 1e-6, False),
    ("bessel_branch_window", 1e-9, False),
    ("kijowski_equals_ab_overlap", 1e-10, False),
    ("dwell_low_momentum", 0.02, False),
    ("dwell_negative_control", 0.2, True),
    ("classical_stopwatch_match", 1e-9, False),
    ("classical_current_moment_match", 1e-15, False),
]


def test_registry_is_pinned(verify_report):
    assert [(name, tol, larger) for name, (tol, larger) in checks.CHECKS.items()] == PINNED
    assert [(c["name"], c["tolerance"]) for c in verify_report.values()] == [(n, t) for n, t, _ in PINNED]


@pytest.mark.parametrize("name", list(checks.CHECKS))
def test_registry_check_passes(verify_report, name):
    check = verify_report[name]
    assert check["pass"], check


@pytest.mark.parametrize("name", ["reflection_squared_identity", "reflection_sign_conjugation"])
def test_reflection_identities_hold_exactly(verify_report, name):
    # R and sign(p) permute and negate entries, so their action is exact
    assert verify_report[name]["value"] == 0.0


def test_report_holds_no_dense_operator(fast_spec):
    """The whole report at n = 4096 peaks below 32 MB of allocations; one dense
    complex 4096 x 4096 operator alone would be 268 MB."""
    tracemalloc.start()
    try:
        report = checks.run_checks(GridSpec(4096, 40.0), fast_spec, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(check["pass"] for check in report)
    assert peak < 32 * 2**20


def test_operator_checks_build_each_operator_once(consts, monkeypatch):
    """The operator checks build each operator once, and each stencil
    operator reads the derivative band once, at construction; every check
    then reads the stored bands."""
    build, derivative_band = operators.build_operator, operators.derivative_band
    band_calls = []
    built = {}

    def counted_band(grid):
        band_calls.append(grid.n)
        return derivative_band(grid)

    def counted_build(kind, *args, **kwargs):
        before = len(band_calls)
        op = build(kind, *args, **kwargs)
        assert kind not in built, f"{kind} built twice"
        built[kind] = len(band_calls) - before
        return op

    monkeypatch.setattr(operators, "derivative_band", counted_band)
    monkeypatch.setattr(operators, "build_operator", counted_build)
    values = checks._operator_checks(GridSpec(64, 40.0), consts, 0.2)
    stencil = {OperatorKind.T_KDM, OperatorKind.T_NEW_SYM, OperatorKind.T_NEW_VIA_KDM}
    assert set(built) == {*checks.HERMITIAN.values(), OperatorKind.R, OperatorKind.SIGN_P}
    assert built == {kind: int(kind in stencil) for kind in built}
    assert len(band_calls) == len(stencil)
    assert values["t_new_constructions_agree"] <= checks.CHECKS["t_new_constructions_agree"][0]


def test_constructions_check_sees_a_doubled_reflected_part(consts, monkeypatch):
    """Negative control of t_new_constructions_agree: with the reflected part
    of T_NEW_VIA_KDM doubled, the two constructions differ by that whole part."""
    build = operators.build_operator

    def doubled(kind, *args, **kwargs):
        op = build(kind, *args, **kwargs)
        return OperatorMatrix(op.diag, 2.0 * op.anti) if kind is OperatorKind.T_NEW_VIA_KDM else op

    monkeypatch.setattr(operators, "build_operator", doubled)
    values = checks._operator_checks(GridSpec(64, 40.0), consts, 0.2)
    assert values["t_new_constructions_agree"] > checks.CHECKS["t_new_constructions_agree"][0]


def test_kijowski_check_sweeps_its_taus_once(grid, fast_spec, monkeypatch):
    """The Kijowski check takes its three taus from one `distribution` call,
    and its value is the one of three one-tau calls, bitwise."""
    sweeps = []
    distribution = operators.distribution

    def counted(psi, family, tau_grid):
        sweeps.append(len(tau_grid))
        return distribution(psi, family, tau_grid)

    monkeypatch.setattr(operators, "distribution", counted)
    value = checks._kijowski_check(grid, fast_spec)
    assert sweeps == [3]
    psi = states.make_gaussian(fast_spec, grid)
    t_peak = -fast_spec.consts.mass * fast_spec.x0 / fast_spec.p0
    worst = 0.0
    for t in (0.8 * t_peak, t_peak, 1.2 * t_peak):
        kij = distribution(psi, EigenFamily.AB, np.array([t]))[0]
        worst = max(worst, abs(kij - abs(operators.overlap(psi, EigenFamily.AB, t)) ** 2) / kij)
    assert value == worst

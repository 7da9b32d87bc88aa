"""The invariant registry (`qarrival.checks`) shared by `qarrival verify` and the tests."""

import tracemalloc

import pytest

from qarrival import GridSpec, OperatorKind, OperatorMatrix, checks, operators

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


def test_operator_checks_evaluate_banded_entries_once(consts, monkeypatch):
    """Each operator of the hermiticity and constructions checks
    evaluates its entry formula once per band, at construction, and never
    again: both checks read its stored bands."""
    build = operators.build_operator
    calls = {}

    def counted_build(kind, *args, **kwargs):
        op = build(kind, *args, **kwargs)
        if kind in (OperatorKind.R, OperatorKind.SIGN_P):
            return op  # R and SIGN_P are evaluated by the reflection checks

        def counted(j, k):
            calls[kind] = calls.get(kind, 0) + 1
            return op.entries(j, k)

        return OperatorMatrix(counted, op.grid, op.consts, op.kind, op.width)

    monkeypatch.setattr(operators, "build_operator", counted_build)
    values = checks._operator_checks(GridSpec(64, 40.0), consts, 0.2)
    assert calls == dict.fromkeys(checks.HERMITIAN.values(), 2)
    assert values["t_new_constructions_agree"] <= checks.CHECKS["t_new_constructions_agree"][0]

"""Eigenstate families, operator matrices, distributions, and structural checks."""

import math
import warnings

import numpy as np
import pytest

from qarrival import (
    EigenFamily,
    GaussianSpec,
    GridSpec,
    OperatorKind,
    PhysConsts,
    build_operator,
    completeness_check,
    current_expectation,
    distribution,
    dwell_low_momentum_check,
    eigenstate,
    eigenstate_values,
    gamma_fn,
    hermiticity_defect,
    kijowski_distribution,
    kinetic_energy_density,
    make_gaussian,
    new_low_momentum_slope,
    overlap,
    solve_eigen_ode,
)
from qarrival.operators import _eigenstate_block, _tau_blocks
from qarrival.states import (
    Representation,
    WaveFunction,
    derivative_at_origin,
    reflected_position_state,
    value_at_origin,
)
from test_numerics import brute_series_j
from util_current import stencil_current
from util_pertau import completeness_per_tau, distribution_per_tau
from util_spectral import chebyshev_nodes_and_diff


class TestEigenstates:
    def test_ab_at_tau_zero(self, consts):
        val = eigenstate(EigenFamily.AB, 0.0, 2.0, consts)
        assert val == pytest.approx(math.sqrt(2.0 / (2.0 * math.pi)), abs=1e-14)
        assert val.imag == 0.0

    def test_p_zero_rejected(self, consts):
        with pytest.raises(ValueError):
            eigenstate(EigenFamily.AB, 0.5, 0.0, consts)

    def test_negative_tau_rejected_for_mi_new(self, consts):
        for fam in (EigenFamily.MI, EigenFamily.NEW):
            with pytest.raises(ValueError):
                eigenstate(fam, -0.5, 1.0, consts)

    def test_t3_sectors(self, consts):
        assert eigenstate(EigenFamily.T3, 0.5, -1.0, consts) == 0.0
        assert eigenstate(EigenFamily.T3, 0.5, 1.0, consts) != 0.0
        assert eigenstate(EigenFamily.T3, -0.5, 1.0, consts) == 0.0
        assert eigenstate(EigenFamily.T3, -0.5, -1.0, consts) != 0.0

    def test_mi_matches_t3_on_positive_axis(self, consts):
        assert eigenstate(EigenFamily.MI, 0.7, 2.0, consts) == eigenstate(
            EigenFamily.T3, 0.7, 2.0, consts
        )

    def test_new_against_bessel_oracle(self, consts):
        # z = p^2 tau / (2 m hbar) = 1 at (tau=2, p=1): independent series oracle
        val = eigenstate(EigenFamily.NEW, 2.0, 1.0, consts)
        pref = math.sqrt(2.0) / math.sqrt(8.0)
        expected = pref * (brute_series_j(-0.25, 1.0) + 1j * brute_series_j(0.75, 1.0))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_new_conjugation_symmetry(self, grid, consts):
        p = grid.momenta()
        phi = eigenstate_values(EigenFamily.NEW, 0.7, p, consts)
        assert np.max(np.abs(phi[::-1] - np.conj(phi))) <= 1e-12 * np.max(np.abs(phi))

    def test_new_low_momentum_limit(self, consts):
        # complex value approaches the real slope limit as z -> 0
        tau = 1.3
        slope = new_low_momentum_slope(tau, consts)
        p = math.sqrt(2.0 * 1e-7 / tau)  # z = 1e-7
        val = eigenstate(EigenFamily.NEW, tau, p, consts)
        assert abs(val / p - slope) / slope < 1e-6

    def test_new_branch_seam(self, consts):
        # series-side and Hankel-side evaluations agree at the z = 10 switchover
        tau = 0.7
        p_seam = math.sqrt(2.0 * 10.0 / tau)
        lo = eigenstate(EigenFamily.NEW, tau, p_seam * (1.0 - 1e-9), consts)
        hi = eigenstate(EigenFamily.NEW, tau, p_seam * (1.0 + 1e-9), consts)
        assert abs(lo - hi) / abs(lo) < 1e-6

    def test_new_asymptotic_matches_leading_form(self, consts):
        # at large z the eigenstate approaches e^{-i pi/8} sqrt(p/2 pi) e^{iz}
        tau = 0.7
        p = math.sqrt(2.0 * 4000.0 / tau)
        z = p * p * tau / 2.0
        val = eigenstate(EigenFamily.NEW, tau, p, consts)
        lead = np.exp(-1j * math.pi / 8.0) * math.sqrt(p / (2.0 * math.pi)) * np.exp(1j * z)
        assert abs(val - lead) / abs(lead) < 1e-3


def _has_partial_last_block(taus, n):
    sizes = [block.size for _, block in _tau_blocks(taus, n)]
    return len(sizes) > 1 and sizes[-1] < sizes[0]


class TestEigenstateBlock:
    # NEW: tau = 0, series only (z < 10 everywhere at p_max = 40), and both
    # regimes within one row (z = 10 at |p| = sqrt(20 / tau))
    TAUS = {
        EigenFamily.AB: [-0.9, -0.25, 0.0, 1e-4, 0.3, 0.7],
        EigenFamily.KDM: [-0.9, -0.25, 0.0, 1e-4, 0.3, 0.7],
        EigenFamily.MI: [0.0, 1e-4, 0.3, 0.7],
        EigenFamily.T3: [-0.9, -0.25, 0.0, 1e-4, 0.3, 0.7],
        EigenFamily.NEW: [0.0, 1e-4, 0.01, 0.3, 0.7, 1.9],
    }

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_rows_equal_per_row_calls(self, family, grid, consts):
        p = grid.momenta()
        taus = np.array(self.TAUS[family])
        block = _eigenstate_block(family, taus, p, consts)
        assert block.shape == (taus.size, p.size)
        for row, tau in zip(block, taus):
            assert np.array_equal(row, eigenstate_values(family, float(tau), p, consts))

    def test_new_taus_cover_both_regimes(self, grid, consts):
        z_per_tau = grid.momenta() ** 2 / (2.0 * consts.mass * consts.hbar)
        assert any((z_per_tau * t < 10.0).any() and (z_per_tau * t >= 10.0).any() for t in self.TAUS[EigenFamily.NEW])

    @pytest.mark.parametrize("family", [EigenFamily.MI, EigenFamily.NEW], ids=lambda f: f.value)
    def test_tau_zero_row_is_zero(self, family, grid, consts):
        block = _eigenstate_block(family, np.array([0.0, 0.5]), grid.momenta(), consts)
        assert np.array_equal(block[0], np.zeros(grid.n))
        assert np.all(block[1] != 0.0)

    @pytest.mark.parametrize("family", [EigenFamily.MI, EigenFamily.NEW], ids=lambda f: f.value)
    def test_negative_tau_rejected(self, family, grid, consts, fast_packet):
        with pytest.raises(ValueError, match="tau >= 0"):
            _eigenstate_block(family, np.array([0.3, -0.1, 0.5]), grid.momenta(), consts)
        with pytest.raises(ValueError, match="tau >= 0"):
            distribution(fast_packet, family, np.linspace(-0.2, 0.5, 36))

    def test_new_mirror_is_exact(self, grid, consts):
        block = _eigenstate_block(EigenFamily.NEW, np.array([1e-4, 0.3, 0.7, 1.9]), grid.momenta(), consts)
        assert np.array_equal(block[:, ::-1], np.conj(block))

    def test_new_on_unordered_momenta(self, grid, consts, rng):
        # the half-grid evaluation also serves momenta that are not a mirror grid
        p = grid.momenta()
        order = rng.permutation(p.size)[: p.size // 3]
        full = _eigenstate_block(EigenFamily.NEW, np.array([0.3, 0.7]), p, consts)
        part = _eigenstate_block(EigenFamily.NEW, np.array([0.3, 0.7]), p[order], consts)
        assert np.array_equal(part, full[:, order])

    def test_new_on_odd_palindrome(self, consts):
        # |p| = (1.5, 3, 1.5): the upper half holds the middle sample; z = 18 at p = 3, tau = 4
        p = np.array([-1.5, 3.0, 1.5])
        taus = np.array([0.3, 4.0])
        block = _eigenstate_block(EigenFamily.NEW, taus, p, consts)
        for j, pj in enumerate(p):
            single = [eigenstate_values(EigenFamily.NEW, t, np.array([pj]), consts)[0] for t in taus]
            assert np.array_equal(block[:, j], single)


class TestBlockedSpectralCalls:
    """The blocked calls against per-tau reference loops (tests/util_pertau.py)."""

    @pytest.mark.parametrize("family", [EigenFamily.NEW, EigenFamily.KDM], ids=lambda f: f.value)
    def test_distribution_equals_per_tau_loop(self, family, fast_packet):
        taus = np.linspace(0.0, 1.0, 201)  # the CLI default preset
        assert _has_partial_last_block(taus, fast_packet.grid.size)
        dist = distribution(fast_packet, family, taus)
        assert np.array_equal(dist.values, distribution_per_tau(fast_packet, family, taus))

    @pytest.mark.parametrize(
        "family,window",
        [(EigenFamily.AB, (-0.25, 1.25)), (EigenFamily.KDM, (-0.25, 1.25)), (EigenFamily.NEW, (0.0, 1.5))],
        ids=["ab", "kdm", "new"],
    )
    def test_completeness_equals_per_tau_loop(self, family, window, fast_spec):
        psi = make_gaussian(fast_spec, GridSpec(512, 20.0))
        tau_n = 401
        assert _has_partial_last_block(np.zeros(tau_n), psi.grid.size)
        err = completeness_check(family, psi, window, tau_n)
        ref = completeness_per_tau(family, psi, window, tau_n)
        assert abs(err - ref) <= 1e-12 * ref


@pytest.fixture(scope="module")
def ops(grid, consts):
    return {
        "h": build_operator(OperatorKind.H, grid, consts),
        "xi": build_operator(OperatorKind.XI, grid, consts),
        "r": build_operator(OperatorKind.R, grid, consts),
        "sign": build_operator(OperatorKind.SIGN_P, grid, consts),
        "t_kdm": build_operator(OperatorKind.T_KDM, grid, consts),
        "t_sym": build_operator(OperatorKind.T_NEW_SYM, grid, consts),
        "t_via": build_operator(OperatorKind.T_NEW_VIA_KDM, grid, consts),
        "t_dwell": build_operator(OperatorKind.T_DWELL, grid, consts, L=0.2),
        "j": build_operator(OperatorKind.J_CURRENT, grid, consts, t=0.3),
    }


class TestOperatorMatrices:
    def test_reflection_squared_identity(self, ops, grid):
        r = ops["r"].matrix
        assert np.array_equal(r @ r, np.eye(grid.n))

    def test_reflection_conjugates_sign(self, ops):
        r, eps = ops["r"].matrix, ops["sign"].matrix
        assert np.array_equal(r @ eps @ r, -eps)

    @pytest.mark.parametrize(
        "name", ["h", "xi", "t_kdm", "t_sym", "t_via", "t_dwell", "j"]
    )
    def test_hermiticity_interior(self, ops, name):
        assert hermiticity_defect(ops[name]) <= 1e-10

    def test_two_constructions_agree(self, ops):
        sym, via = ops["t_sym"].matrix, ops["t_via"].matrix
        assert np.max(np.abs(sym - via)) <= 1e-8 * np.max(np.abs(sym))

    def _test_vector(self, grid):
        p = grid.momenta()
        f = np.exp(-((p - 12.0) ** 2) / (4.0 * 1.5**2)).astype(complex)
        return p, f / math.sqrt(float(np.sum(np.abs(f) ** 2) * grid.dp))

    @staticmethod
    def _commutator_on(a, b, f):
        """[A, B] f = A(Bf) - B(Af), matrix-vector products only."""
        return a.matrix @ (b.matrix @ f) - b.matrix @ (a.matrix @ f)

    def test_commutator_h_t_new(self, ops, grid, consts):
        p, f = self._test_vector(grid)
        res = self._commutator_on(ops["h"], ops["t_via"], f) - 1j * consts.hbar * np.sign(p) * f
        assert np.max(np.abs(res[2:-2])) <= 1e-6 * consts.hbar

    def test_commutator_xi_t_kdm(self, ops, grid, consts):
        p, f = self._test_vector(grid)
        res = self._commutator_on(ops["xi"], ops["t_kdm"], f) - 1j * consts.hbar * f
        assert np.max(np.abs(res[2:-2])) <= 1e-6 * consts.hbar

    def test_commutator_xi_t_new_extra_term(self, ops, grid, consts):
        p, f = self._test_vector(grid)
        rf = ops["r"].matrix @ f
        res = self._commutator_on(ops["xi"], ops["t_via"], f) - 1j * consts.hbar * (f + 0.5 * rf)
        assert np.max(np.abs(res[2:-2])) <= 1e-6 * consts.hbar

    def test_dwell_small_pl_pattern(self, consts):
        # at pL/hbar -> 0 the matrix approaches (mL/|p|)(1 + R): the
        # anti-diagonal entry equals the diagonal one
        grid = GridSpec(64, 1.0)
        op = build_operator(OperatorKind.T_DWELL, grid, consts, L=1e-4)
        p = grid.momenta()
        mat = op.matrix
        diag = np.real(np.diag(mat))
        anti = mat[np.arange(64), 63 - np.arange(64)]
        assert diag == pytest.approx(consts.mass * 1e-4 / np.abs(p), rel=1e-12)
        assert np.max(np.abs(anti - diag)) <= 2e-4 * np.max(diag)

    def test_invalid_kind_params(self, grid, consts):
        with pytest.raises(ValueError):
            build_operator(OperatorKind.T_DWELL, grid, consts)
        with pytest.raises(ValueError):
            build_operator(OperatorKind.J_CURRENT, grid, consts)


class TestOverlapAndDistributions:
    def test_sesquilinearity_phase(self, fast_packet):
        base = overlap(fast_packet, EigenFamily.KDM, 0.5)
        rotated = WaveFunction(
            Representation.MOMENTUM,
            fast_packet.grid,
            np.exp(0.7j) * fast_packet.values,
            fast_packet.consts,
        )
        assert overlap(rotated, EigenFamily.KDM, 0.5) == pytest.approx(
            np.exp(-0.7j) * base, rel=1e-12
        )

    def test_ab_overlap_peaks_at_classical_arrival(self, consts):
        grid = GridSpec(1024, 40.0)
        psi = make_gaussian(GaussianSpec(10.0, -5.0, 0.5, consts), grid)
        taus = np.linspace(0.3, 0.7, 161)
        vals = np.array([abs(overlap(psi, EigenFamily.AB, t)) ** 2 for t in taus])
        assert abs(taus[np.argmax(vals)] - 0.5) <= 0.05

    def test_distribution_nonnegative_and_metadata(self, fast_packet):
        taus = np.linspace(0.0, 1.0, 51)
        dist = distribution(fast_packet, EigenFamily.KDM, taus)
        assert np.all(dist.values >= 0.0)
        assert dist.family == "kdm"

    def test_kdm_distribution_normalized(self, fast_packet):
        from qarrival import simpson_weights

        taus = np.linspace(-0.25, 1.25, 1501)
        dist = distribution(fast_packet, EigenFamily.KDM, taus)
        w = simpson_weights(taus.size, taus[1] - taus[0])
        assert float(np.sum(w * dist.values)) == pytest.approx(1.0, abs=1e-3)

    def test_new_matches_kdm_for_fast_packet(self, fast_packet):
        taus = np.linspace(0.3, 0.7, 41)
        d_new = distribution(fast_packet, EigenFamily.NEW, taus)
        d_kdm = distribution(fast_packet, EigenFamily.KDM, taus)
        peak = np.max(d_kdm.values)
        assert np.max(np.abs(d_new.values - d_kdm.values)) <= 0.01 * peak

    def test_unsorted_tau_grid_rejected(self, fast_packet):
        with pytest.raises(ValueError):
            distribution(fast_packet, EigenFamily.KDM, np.array([0.5, 0.2, 0.8]))


class TestKijowski:
    def test_equals_ab_overlap(self, fast_packet):
        for t in (0.4, 0.5, 0.6):
            kij = kijowski_distribution(fast_packet, t)
            ab = abs(overlap(fast_packet, EigenFamily.AB, t)) ** 2
            assert kij == pytest.approx(ab, rel=1e-10)

    def test_nonnegative(self, fast_packet):
        for t in np.linspace(0.0, 1.0, 11):
            assert kijowski_distribution(fast_packet, float(t)) >= 0.0

    def test_peak_at_classical_arrival(self, consts):
        grid = GridSpec(1024, 40.0)
        psi = make_gaussian(GaussianSpec(10.0, -5.0, 0.5, consts), grid)
        taus = np.linspace(0.3, 0.7, 161)
        vals = np.array([kijowski_distribution(psi, float(t)) for t in taus])
        assert abs(taus[np.argmax(vals)] - 0.5) <= 0.025  # within 5%

    def test_phase_covariance_kdm(self, fast_packet):
        # for a positive-momentum packet, |<e^{-iHt} psi|phi_tau>| = |<psi|phi_{tau+t}>|
        t = 0.2
        p = fast_packet.grid
        evolved = WaveFunction(
            Representation.MOMENTUM,
            p,
            np.exp(-1j * p**2 * t / 2.0) * fast_packet.values,
            fast_packet.consts,
        )
        for tau in (0.1, 0.3, 0.45):
            lhs = abs(overlap(evolved, EigenFamily.KDM, tau))
            rhs = abs(overlap(fast_packet, EigenFamily.KDM, tau + t))
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestCurrentExpectation:
    def test_reflected_zero_at_t0_position(self, reflected_spec, reflected_grid):
        # on the construction samples psi(0) = 0 exactly, so J(0) = 0 exactly
        pos = reflected_position_state(reflected_spec, reflected_grid)
        hbar, m = pos.consts.hbar, pos.consts.mass
        psi0 = value_at_origin(pos)
        dpsi0 = derivative_at_origin(pos)
        j0 = (-1j * hbar / (2 * m)) * (np.conj(psi0) * dpsi0 - psi0 * np.conj(dpsi0))
        assert abs(j0) <= 1e-8

    def test_reflected_zero_at_t0_momentum(self, reflected_packet):
        assert abs(current_expectation(reflected_packet, 0.0)) <= 1e-8

    def test_parity_flip(self, fast_packet):
        # mirroring x -> -x maps psi(p) -> psi(-p) and flips the current sign
        mirrored = WaveFunction(
            Representation.MOMENTUM,
            fast_packet.grid,
            fast_packet.values[::-1],
            fast_packet.consts,
        )
        for t in (0.2, 0.5):
            assert current_expectation(mirrored, t) == pytest.approx(
                -current_expectation(fast_packet, t), rel=1e-9, abs=1e-12
            )

    def test_small_time_square_root_law_sample(self, reflected_packet):
        # J(tau) ~ (1/2 sqrt(pi)) tau^(1/2) |odd-extension slope|^2, with the
        # slope-squared equal to 2 <p delta(x) p> / hbar^2
        hbar, m = reflected_packet.consts.hbar, reflected_packet.consts.mass
        ked, _ = kinetic_energy_density(reflected_packet)
        slope_sq = 2.0 * ked / hbar**2
        tau = 0.03
        law = (1.0 / (2.0 * math.sqrt(math.pi))) * (hbar / m) ** 1.5 * math.sqrt(tau) * slope_sq
        assert current_expectation(reflected_packet, tau) == pytest.approx(law, rel=0.02)

    def test_matches_stencil_oracle_fast_packet(self, fast_packet):
        ts = np.linspace(0.05, 1.0, 20)
        oracle = np.array([stencil_current(fast_packet, t) for t in ts])
        closed = current_expectation(fast_packet, ts)
        assert np.max(np.abs(closed - oracle) / np.abs(oracle)) <= 1e-6

    def test_matches_stencil_oracle_reflected_packet(self, reflected_packet):
        taus = np.geomspace(0.015, 0.045, 9)
        oracle = np.array([stencil_current(reflected_packet, t) for t in taus])
        closed = current_expectation(reflected_packet, taus)
        assert np.max(np.abs(closed - oracle) / np.abs(oracle)) <= 1e-6

    @pytest.mark.parametrize("t", [0.3, 0.5])
    def test_equals_j_current_operator(self, fast_packet, grid, consts, t):
        op = build_operator(OperatorKind.J_CURRENT, grid, consts, t=t).matrix
        psi = fast_packet.values
        expected = float((np.conj(psi) @ op @ psi).real * grid.dp)
        assert current_expectation(fast_packet, t) == pytest.approx(expected, rel=1e-12)

    def test_array_times_match_scalar_calls(self, fast_packet, reflected_packet):
        for psi, ts in (
            (fast_packet, np.linspace(0.05, 1.0, 20)),
            (reflected_packet, np.geomspace(0.015, 0.045, 9)),
        ):
            batched = current_expectation(psi, ts)
            assert batched.shape == ts.shape
            scalar = np.array([current_expectation(psi, float(t)) for t in ts])
            assert np.max(np.abs(batched - scalar) / np.abs(scalar)) <= 1e-12


class TestKineticEnergyDensity:
    def test_even_real_packet_zero_signed(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(0.0, 0.0, 1.0, consts), grid)
        signed, absolute = kinetic_energy_density(psi)
        assert signed <= 1e-20
        assert absolute > 0.0

    def test_reflected_identity(self, reflected_spec, reflected_grid, reflected_packet):
        hbar = reflected_packet.consts.hbar
        signed, _ = kinetic_energy_density(reflected_packet)
        pos = reflected_position_state(reflected_spec, reflected_grid)
        assert signed == pytest.approx(hbar**2 * abs(derivative_at_origin(pos)) ** 2, rel=1e-6)

    def test_positive_momentum_packet_variants_equal(self, fast_packet):
        signed, absolute = kinetic_energy_density(fast_packet)
        assert signed == pytest.approx(absolute, rel=1e-10)


class TestEigenvalueOde:
    @pytest.mark.parametrize("tau", [0.2, 1.0, 5.0])
    def test_correlation_with_closed_form(self, tau, consts):
        grid = GridSpec(512, 8.0)
        ode = solve_eigen_ode(tau, grid, consts)
        closed = eigenstate_values(EigenFamily.NEW, tau, grid.momenta(), consts)
        num = abs(np.vdot(ode.values, closed))
        den = np.linalg.norm(ode.values) * np.linalg.norm(closed)
        assert num / den >= 1.0 - 1e-6

    def test_eigen_equation_residual_closed_form(self, consts):
        # full eigenvalue equation applied to the closed form, spectral
        # differentiation on a positive-momentum Chebyshev interval:
        # real part: (m hbar / p) v' = tau u, imag part: -m hbar (u/p)' = tau v
        tau, m, hbar = 1.0, consts.mass, consts.hbar
        p, d = chebyshev_nodes_and_diff(160, 0.5, 6.0)
        phi = eigenstate_values(EigenFamily.NEW, tau, p, consts)
        u, v = phi.real, phi.imag
        res_real = (m * hbar / p) * (d @ v) - tau * u
        res_imag = -m * hbar * (d @ (u / p)) - tau * v
        scale = tau * np.max(np.abs(phi))
        inner = slice(5, -5)
        assert np.max(np.abs(res_real[inner])) <= 1e-6 * scale
        assert np.max(np.abs(res_imag[inner])) <= 1e-6 * scale

    def test_discarded_symmetric_branch_solves_ode(self, consts):
        # |p|^(3/2) J_{-3/4}(z) also solves u'' - (2/p) u' + (tau/m hbar)^2 p^2 u = 0
        from qarrival import bessel_j

        tau = 1.0
        p, d = chebyshev_nodes_and_diff(120, 1.0, 4.0)
        z = p * p * tau / 2.0
        w = p**1.5 * bessel_j(-0.75, z)
        res = d @ (d @ w) - (2.0 / p) * (d @ w) + tau**2 * p**2 * w
        scale = tau**2 * np.max(p**2 * np.abs(w))
        inner = slice(5, -5)
        assert np.max(np.abs(res[inner])) <= 1e-6 * scale

    def test_rejects_nonpositive_tau(self, consts):
        with pytest.raises(ValueError):
            solve_eigen_ode(0.0, GridSpec(64, 4.0), consts)


class TestCompleteness:
    def test_kdm_fast_packet(self, fast_packet):
        err = completeness_check(EigenFamily.KDM, fast_packet, (-0.25, 1.25), 5001)
        assert err <= 1e-3

    def test_ab_fast_packet(self, fast_packet):
        err = completeness_check(EigenFamily.AB, fast_packet, (-0.25, 1.25), 5001)
        assert err <= 1e-3

    def test_new_fast_packet_half_range(self, fast_packet):
        err = completeness_check(EigenFamily.NEW, fast_packet, (0.0, 1.5), 3001)
        assert err <= 1e-2

    def test_warns_on_uncovered_mass(self, fast_packet):
        with pytest.warns(UserWarning, match="overlap mass"):
            completeness_check(EigenFamily.KDM, fast_packet, (0.45, 0.55), 501)


class TestDwellRelation:
    def test_low_momentum_band(self, grid, consts):
        assert dwell_low_momentum_check(0.2, grid, consts) <= 0.02

    def test_negative_control_high_momentum(self, grid, consts):
        assert dwell_low_momentum_check(0.2, grid, consts, band=(4.5, 5.5)) >= 0.2

    def test_empty_band_rejected(self, consts):
        with pytest.raises(ValueError, match="samples"):
            dwell_low_momentum_check(0.2, GridSpec(64, 1.0), consts, band=(4.5, 5.5))

    def test_classical_difference_identity(self):
        # mL/|p| = -m(x-L)/|p| + mx/|p| exactly for reals
        m, L = 1.3, 0.7
        for x, p in ((2.0, 1.5), (-3.0, -2.0)):
            assert m * L / abs(p) == pytest.approx(
                -m * (x - L) / abs(p) + m * x / abs(p), rel=1e-15
            )


class TestRegimeBridging:
    def test_branch_window_agreement_grid(self, consts):
        # eigenstate evaluated on both sides of the z = 10 seam across momenta
        tau = 0.5
        for frac in (1.0 - 1e-7, 1.0 + 1e-7):
            p = math.sqrt(2.0 * 10.0 / tau) * frac
            val = eigenstate(EigenFamily.NEW, tau, p, consts)
            assert np.isfinite(val.real) and np.isfinite(val.imag)

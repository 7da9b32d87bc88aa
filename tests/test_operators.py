"""Eigenstate families, operator matrices, distributions, and structural checks."""

import math
import warnings

import numpy as np
import pytest
import scipy.special

from qarrival import (
    EigenFamily,
    GaussianSpec,
    GridSpec,
    OperatorKind,
    OperatorMatrix,
    PhysConsts,
    build_operator,
    completeness_check,
    current_expectation,
    distribution,
    dwell_low_momentum_check,
    eigenstate,
    eigenstate_values,
    hermiticity_defect,
    integrate,
    kijowski_distribution,
    kinetic_energy_density,
    make_gaussian,
    new_low_momentum_slope,
    numerics,
    overlap,
    simpson_weights,
    solve_eigen_ode,
)
from qarrival.operators import (
    _eigenstate_block,
    _free_current_integrals,
    _mirror_half,
    _new_eigenstate_half,
    _tau_blocks,
)
from qarrival.states import (
    Representation,
    WaveFunction,
    derivative_at_origin,
    reflected_position_state,
    value_at_origin,
)
import util_new_oracle as oracle
from test_numerics import brute_series_j
from util_current import stencil_current
from util_dense import dense_hermiticity_defect, dense_operator
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

    def test_new_conjugation_symmetry(self, verify_report):
        # max |phi(-p) - conj phi(p)| / max |phi| at tau = 0.7 on the default grid
        assert verify_report["new_eigenstate_conjugation"]["value"] <= 1e-12

    def test_new_low_momentum_limit(self, consts):
        # complex value approaches the real slope limit as z -> 0
        tau = 1.3
        slope = new_low_momentum_slope(tau, consts)
        p = math.sqrt(2.0 * 1e-7 / tau)  # z = 1e-7
        val = eigenstate(EigenFamily.NEW, tau, p, consts)
        assert abs(val / p - slope) / slope < 1e-6

    def test_new_branch_seam(self, verify_report):
        # series-side and Hankel-side evaluations agree at the z = 10 switchover (tau = 0.7)
        assert verify_report["new_branch_seam"]["value"] < 1e-6

    def test_new_asymptotic_matches_leading_form(self, consts):
        # at large z the eigenstate approaches e^{-i pi/8} sqrt(p/2 pi) e^{iz}
        tau = 0.7
        p = math.sqrt(2.0 * 4000.0 / tau)
        z = p * p * tau / 2.0
        val = eigenstate(EigenFamily.NEW, tau, p, consts)
        lead = np.exp(-1j * math.pi / 8.0) * math.sqrt(p / (2.0 * math.pi)) * np.exp(1j * z)
        assert abs(val - lead) / abs(lead) < 1e-3


def _full_grid_formula(family, taus, p, consts):
    """AB, KDM, MI and T3 eigenstates from their formulas on every momentum of p."""
    m, hbar = consts.mass, consts.hbar
    ap, tau = np.abs(p), taus[:, None]
    phase = p * p * tau / (2.0 * m * hbar)
    norm = math.sqrt(2.0 / (math.pi * m * hbar))
    if family is EigenFamily.AB:
        return np.sqrt(ap / (2.0 * math.pi * m * hbar)) * np.exp(1j * phase)
    if family is EigenFamily.KDM:
        return np.sqrt(ap / (2.0 * math.pi * m * hbar)) * np.exp(1j * np.sign(p) * phase)
    if family is EigenFamily.MI:
        return (norm * np.sqrt(ap) * np.sin(phase)).astype(complex)
    vals = norm * np.sqrt(ap) * np.sin(p * p * np.abs(tau) / (2.0 * m * hbar))
    return np.where(np.where(tau >= 0.0, p > 0.0, p < 0.0), vals, 0.0).astype(complex)


def _has_partial_last_block(taus, p):
    # blocks count the samples evaluated per tau, the half grid's |p|
    sizes = [block.size for _, block in _tau_blocks(taus, _mirror_half(p)[0].size)]
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

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_mirror_is_exact(self, family, grid, consts):
        # phi(-p) = phi(p) (AB, MI), conj phi(p) (KDM, NEW); T3 maps tau -> -tau
        taus = np.array([0.0, 1e-4, 0.3, 0.7, 1.9])
        block = _eigenstate_block(family, taus, grid.momenta(), consts)
        if family is EigenFamily.T3:
            mirror = _eigenstate_block(family, -taus, grid.momenta(), consts)[:, ::-1]
        else:
            mirror = block[:, ::-1]
        if family in (EigenFamily.KDM, EigenFamily.NEW):
            mirror = np.conj(mirror)
        assert np.array_equal(mirror, block)

    @pytest.mark.parametrize("family", [EigenFamily.AB, EigenFamily.KDM, EigenFamily.MI, EigenFamily.T3],
                             ids=lambda f: f.value)
    def test_half_grid_equals_full_grid_formula(self, family, grid, consts, rng):
        # byte for byte, so signed zeros too (tau = +-0 and an underflowing
        # phase), and C-ordered like the formula's own result
        taus = np.array([-0.9, -0.0, 0.0, 1e-320, 1e-4, 0.3, 1.9])
        if family is EigenFamily.MI:
            taus = taus[~np.signbit(taus)]
        for p in (grid.momenta(), rng.permutation(grid.momenta())[:100], np.array([-1.5, 3.0, 1.5])):
            block = _eigenstate_block(family, taus, p, consts)
            ref = _full_grid_formula(family, taus, p, consts)
            assert block.tobytes() == ref.tobytes()
            assert block.flags.c_contiguous

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


class TestNewAgainstComplexOracle:
    """The real-row NEW evaluator against its earlier complex form
    (tests/util_new_oracle.py), byte for byte."""

    def test_tables_equal_complex_clenshaw(self):
        z_low = np.linspace(0.0, 12.0, 97)
        z_high = np.concatenate([np.linspace(8.0, 12.0, 41), np.geomspace(12.0, 1e5, 60)])
        expected = oracle.clenshaw_2d(numerics._BESSEL_LOW, z_low * z_low / 72.0 - 1.0)
        assert numerics._bessel_scaled(z_low).tobytes() == expected.tobytes()
        pq = oracle.clenshaw_2d(numerics._BESSEL_HIGH, 16.0 / z_high - 1.0)
        p, q = numerics._hankel_modulation(z_high)
        assert p.tobytes() == pq.real.tobytes()
        assert q.tobytes() == pq.imag.tobytes()

    @pytest.mark.parametrize(
        "taus,ap",
        [
            # both tables across the default half grid, rows that cross z = 10
            (np.linspace(0.0, 1.0, 201), GridSpec(1024, 40.0).momenta()[512:]),
            # one row through z = 10 exactly (at unit constants), at |p| = 2 and tau = 5
            (np.array([5.0]), np.array([1.0, 1.5, 2.0, 2.5, 3.0])),
            # tau = 0, a subnormal tau and z far into each table
            (np.array([0.0, 1e-320, 1e-8, 0.3, 40.0]), np.geomspace(1e-3, 60.0, 77)),
        ],
        ids=["half_grid", "z_exactly_10", "tau_0_and_subnormal"],
    )
    @pytest.mark.parametrize("consts", [PhysConsts(), PhysConsts(2.0, 0.5)], ids=["unit", "m2_hbar_half"])
    def test_half_equals_oracle(self, taus, ap, consts):
        expected = oracle.new_eigenstate_half(taus, ap, consts)
        assert _new_eigenstate_half(taus, ap, consts).tobytes() == expected.tobytes()

    def test_non_mirror_grid_equals_oracle(self, grid, consts, rng):
        p = rng.permutation(grid.momenta())[:300]
        taus = np.array([0.0, 1e-320, 1e-4, 0.3, 0.7, 1.9])
        expected = oracle.new_eigenstate_half(taus, np.abs(p), consts)
        np.conjugate(expected, out=expected, where=p < 0.0)
        assert _eigenstate_block(EigenFamily.NEW, taus, p, consts).tobytes() == expected.tobytes()


class TestNonFiniteTau:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg_inf"])
    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_eigenstates_and_overlap_reject(self, family, bad, grid, consts, fast_packet):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau must be finite"):
                eigenstate_values(family, bad, grid.momenta(), consts)
            with pytest.raises(ValueError, match="tau must be finite"):
                eigenstate(family, bad, 1.5, consts)
            with pytest.raises(ValueError, match="tau must be finite"):
                overlap(fast_packet, family, bad)

    @pytest.mark.parametrize(
        "window", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)], ids=["inf_end", "neg_inf_start", "nan_end"]
    )
    def test_completeness_window_rejected(self, window, fast_packet):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau_range must be finite"):
                completeness_check(EigenFamily.KDM, fast_packet, window, 101)


class TestBlockedSpectralCalls:
    """The blocked calls against per-tau reference loops (tests/util_pertau.py)."""

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_distribution_equals_per_tau_loop(self, family, fast_packet):
        taus = np.linspace(0.0, 1.0, 201)  # the CLI default preset
        assert _has_partial_last_block(taus, fast_packet.grid)
        dist = distribution(fast_packet, family, taus)
        assert np.array_equal(dist.values, distribution_per_tau(fast_packet, family, taus))

    def test_blocks_count_half_grid_samples(self, fast_packet, monkeypatch):
        # 4096 samples per block are 8 taus of the 512-sample half grid at n = 1024
        sizes = []

        def counting(family, taus, p, consts):
            sizes.append(taus.size)
            return _eigenstate_block(family, taus, p, consts)

        monkeypatch.setattr("qarrival.operators._eigenstate_block", counting)
        distribution(fast_packet, EigenFamily.NEW, np.linspace(0.0, 1.0, 201))
        assert sizes == [8] * 25 + [1]
        sizes.clear()
        completeness_check(EigenFamily.NEW, fast_packet, (0.0, 1.0), 21)
        assert sizes == [8, 8, 5]

    @pytest.mark.parametrize(
        "family,window",
        [(EigenFamily.AB, (-0.25, 1.25)), (EigenFamily.KDM, (-0.25, 1.25)), (EigenFamily.NEW, (0.0, 1.5))],
        ids=["ab", "kdm", "new"],
    )
    def test_completeness_equals_per_tau_loop(self, family, window, fast_spec):
        psi = make_gaussian(fast_spec, GridSpec(512, 20.0))
        tau_n = 401
        assert _has_partial_last_block(np.zeros(tau_n), psi.grid)
        err = completeness_check(family, psi, window, tau_n)
        ref = completeness_per_tau(family, psi, window, tau_n)
        assert abs(err - ref) <= 1e-12 * ref


@pytest.fixture(scope="module")
def ops(grid, consts):
    return {
        "xi": build_operator(OperatorKind.XI, grid, consts),
        "r": build_operator(OperatorKind.R, grid, consts),
        "sign": build_operator(OperatorKind.SIGN_P, grid, consts),
        "t_kdm": build_operator(OperatorKind.T_KDM, grid, consts),
    }


class TestOperatorMatrices:
    # the invariant report's names of the operators in test_hermiticity_interior
    REPORT_NAMES = {
        "h": "h", "xi": "xi", "t_kdm": "t_kdm", "t_sym": "t_new_sym",
        "t_via": "t_new_via_kdm", "t_dwell": "t_dwell", "j": "j_current",
    }

    def test_reflection_squared_identity(self, ops, grid, rng):
        r = ops["r"]
        f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        assert np.array_equal(r.apply(r.apply(f)), f)

    def test_reflection_conjugates_sign(self, ops, grid, rng):
        r, eps = ops["r"], ops["sign"]
        f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        assert np.array_equal(r.apply(eps.apply(r.apply(f))), -eps.apply(f))

    @pytest.mark.parametrize(
        "name", ["h", "xi", "t_kdm", "t_sym", "t_via", "t_dwell", "j"]
    )
    def test_hermiticity_interior(self, verify_report, name):
        assert verify_report[f"hermiticity_{self.REPORT_NAMES[name]}"]["value"] <= 1e-10

    def test_two_constructions_agree(self, verify_report):
        # max |T_sym - T_via| / max |T_sym|
        assert verify_report["t_new_constructions_agree"]["value"] <= 1e-8

    def _test_vector(self, grid):
        p = grid.momenta()
        f = np.exp(-((p - 12.0) ** 2) / (4.0 * 1.5**2)).astype(complex)
        return p, f / math.sqrt(float(np.sum(np.abs(f) ** 2) * grid.dp))

    @staticmethod
    def _commutator_on(a, b, f):
        """[A, B] f = A(Bf) - B(Af), by the operators' action only."""
        return a.apply(b.apply(f)) - b.apply(a.apply(f))

    def test_commutator_h_t_new(self, verify_report, consts):
        # [H, T_NEW] = i hbar eps(p) by action on the report's packet, interior rows;
        # criterion 2 checks it on this class's packet at n = 1024 and 2048
        assert verify_report["commutator_h_t_new"]["value"] <= 1e-6 * consts.hbar

    def test_commutator_xi_t_kdm(self, ops, grid, consts):
        p, f = self._test_vector(grid)
        res = self._commutator_on(ops["xi"], ops["t_kdm"], f) - 1j * consts.hbar * f
        assert np.max(np.abs(res[2:-2])) <= 1e-6 * consts.hbar

    def test_commutator_xi_t_new_extra_term(self, verify_report, consts):
        # [xi, T_NEW] = i hbar (1 + R/2), as test_commutator_h_t_new
        assert verify_report["commutator_xi_t_new"]["value"] <= 1e-6 * consts.hbar

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
        with pytest.raises(ValueError, match="n >= 6"):
            build_operator(OperatorKind.T_KDM, GridSpec(4, 1.0), consts)


class TestBandFormAgainstDense:
    """Each operator's band form against its whole-matrix construction."""

    @staticmethod
    def _pair(kind, n, consts):
        grid = GridSpec(n, 40.0)
        op = build_operator(kind, grid, consts, L=0.2, t=0.3)
        return op, dense_operator(kind, grid, consts, L=0.2, t=0.3)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_matrix_equals_dense(self, kind, n, consts):
        op, dense = self._pair(kind, n, consts)
        assert np.array_equal(op.matrix, dense)

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_apply_matches_dense_product(self, kind, n, consts, rng):
        op, dense = self._pair(kind, n, consts)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = dense @ f
        assert np.max(np.abs(op.apply(f) - expected)) <= 1e-13 * np.max(np.abs(expected))

    # J_CURRENT's triangle is one column block at n <= 92, two at n = 130
    @pytest.mark.parametrize("n", [6, 10, 64, 130, 1024])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_hermiticity_defect_equals_dense(self, kind, n, consts):
        op, dense = self._pair(kind, n, consts)
        assert hermiticity_defect(op) == dense_hermiticity_defect(dense)

    @staticmethod
    def _full_pattern(mat, consts):
        return OperatorMatrix(lambda j, k: mat[j, k], GridSpec(mat.shape[0], 40.0), consts, "planted", None)

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("where", ["lower", "upper", "diagonal", "both"])
    def test_planted_defect_found_at_dense_value(self, where, n, consts, rng):
        # negative control: a hermitian matrix with one entry moved, in the
        # lower triangle, the upper one, on the diagonal, or one of each
        # (n = 200 spans five column blocks).  The moved entry is the largest,
        # so it sets the scale too.
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = a + a.conj().T
        planted = {"lower": [(n - 5, 3)], "upper": [(7, n - 4)], "diagonal": [(n // 2, n // 2)],
                   "both": [(n - 5, 3), (7, n - 4)]}[where]
        for size, (j, k) in enumerate(planted, 1):
            mat[j, k] += 40j * size
        defect = hermiticity_defect(self._full_pattern(mat, consts))
        assert defect == dense_hermiticity_defect(mat)
        assert defect >= 0.5

    def test_defect_outside_interior_ignored(self, consts, rng):
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        mat = a + a.conj().T
        mat[1, 20] += 5.0
        mat[20, 38] += 5.0
        assert hermiticity_defect(self._full_pattern(mat, consts)) == 0.0

    def test_current_check_visits_half_the_pairs(self, consts):
        n = 1024
        op = build_operator(OperatorKind.J_CURRENT, GridSpec(n, 40.0), consts, t=0.3)
        sizes = []

        def counted(j, k):
            sizes.append(np.broadcast(j, k).size)
            return op.entries(j, k)

        hermiticity_defect(OperatorMatrix(counted, op.grid, consts, op.kind, None))
        # each visited pair costs two evaluations, the entry and its
        # transpose, so about n^2 evaluations mean about n^2 / 2 pairs
        assert sum(sizes) <= 1.01 * n**2

    @pytest.mark.parametrize(
        "left, right",
        [
            (OperatorKind.T_NEW_VIA_KDM, OperatorKind.XI),
            (OperatorKind.R, OperatorKind.T_KDM),
            (OperatorKind.T_KDM, OperatorKind.T_NEW_SYM),
            (OperatorKind.T_DWELL, OperatorKind.SIGN_P),
        ],
    )
    def test_compose_matches_dense_product(self, left, right, consts):
        a, dense_a = self._pair(left, 64, consts)
        b, dense_b = self._pair(right, 64, consts)
        expected = dense_a @ dense_b
        assert np.max(np.abs(a.compose(b).matrix - expected)) <= 1e-13 * np.max(np.abs(expected))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan_entry", "inf_entry"])
    def test_non_finite_tau_grid_rejected(self, fast_packet, bad):
        with pytest.raises(ValueError, match="tau_grid must be finite"):
            distribution(fast_packet, EigenFamily.KDM, np.array([0.1, bad]))


class TestKijowski:
    def test_equals_ab_overlap(self, verify_report):
        # fast packet at 0.8, 1 and 1.2 times the classical arrival 0.5
        assert verify_report["kijowski_equals_ab_overlap"]["value"] <= 1e-10

    def test_nonnegative(self, fast_packet):
        for t in np.linspace(0.0, 1.0, 11):
            assert kijowski_distribution(fast_packet, float(t)) >= 0.0

    def test_peak_at_classical_arrival(self, consts):
        grid = GridSpec(1024, 40.0)
        psi = make_gaussian(GaussianSpec(10.0, -5.0, 0.5, consts), grid)
        taus = np.linspace(0.3, 0.7, 161)
        vals = np.array([kijowski_distribution(psi, float(t)) for t in taus])
        assert abs(taus[np.argmax(vals)] - 0.5) <= 0.025  # within 5%

    def test_array_equals_scalar_calls(self, fast_packet):
        taus = np.linspace(0.0, 1.0, 201)  # the CLI default preset
        assert _has_partial_last_block(taus, fast_packet.grid)
        vals = kijowski_distribution(fast_packet, taus)
        assert vals.shape == taus.shape
        assert np.array_equal(vals, [kijowski_distribution(fast_packet, float(t)) for t in taus])
        assert isinstance(kijowski_distribution(fast_packet, 0.5), float)
        # and the rank-one formula, one Simpson integral per time
        p = fast_packet.grid
        for t in taus[::20]:
            amp = integrate(np.sqrt(np.abs(p)) * (np.exp(-1j * p**2 * t / 2.0) * fast_packet.values), fast_packet.dx)
            assert vals[np.searchsorted(taus, t)] == abs(amp) ** 2 / (2.0 * math.pi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.array([0.1, math.nan])], ids=["nan", "inf", "nan_entry"])
    def test_non_finite_time_rejected(self, fast_packet, bad):
        with pytest.raises(ValueError, match="t must be finite"):
            kijowski_distribution(fast_packet, bad)

    def test_two_dimensional_times_rejected(self, fast_packet):
        with pytest.raises(ValueError, match="1-D"):
            kijowski_distribution(fast_packet, np.zeros((2, 2)))

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
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, np.array([0.1, math.nan])], ids=["nan", "inf", "nan_entry"])
    def test_non_finite_time_rejected(self, fast_packet, bad):
        with pytest.raises(ValueError, match="t must be finite"):
            current_expectation(fast_packet, bad)

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
        op = build_operator(OperatorKind.J_CURRENT, grid, consts, t=t)
        psi = fast_packet.values
        expected = float((np.conj(psi) @ op.apply(psi)).real * grid.dp)
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


def _simpson_current_integral(psi, tau, samples=12801):
    """integral_0^tau <J(t)> dt by Simpson's rule on `samples` times."""
    ts = np.linspace(0.0, tau, samples)
    return float(simpson_weights(samples, ts[1] - ts[0]) @ current_expectation(psi, ts))


class TestCurrentIntegrals:
    """The closed-form time integral of the current against Simpson's rule on
    a fine time grid of current_expectation."""

    @staticmethod
    def _closed(psi, taus):
        return _free_current_integrals(psi.values[:, None], psi.grid, psi.dx, np.asarray(taus), psi.consts)[:, 0]

    def test_fast_packet(self, fast_packet):
        taus = [0.2, 0.5, 1.0]
        closed = self._closed(fast_packet, taus)
        for tau, value in zip(taus, closed):
            assert abs(value - _simpson_current_integral(fast_packet, tau)) <= 1e-14

    def test_small_tau_packet_over_origin(self, consts, grid):
        # the integral is of order tau here, far below the sums it is built
        # from; u^T C v - a^T C b evaluated as written loses ~2e-16 absolute
        psi = make_gaussian(GaussianSpec(p0=1.0, x0=-0.5, sigma_p=1.0, consts=consts), grid)
        taus = [1e-5, 1e-4, 1e-3]
        closed = self._closed(psi, taus)
        for tau, value in zip(taus, closed):
            reference = _simpson_current_integral(psi, tau)
            assert abs(value - reference) <= 1e-14
            assert abs(value - reference) <= 1e-13 * reference

    def test_grid_mirrored_up_to_rounding(self, consts):
        # a linspace grid with a non-dyadic end point: p[k] and -p[n-1-k]
        # differ in the last bits, and their p^2 must still fold together
        n, p_max = 1000, 33.3
        dp = 2.0 * p_max / n
        p = np.linspace(-p_max + dp / 2.0, p_max - dp / 2.0, n)
        assert not np.array_equal(p, -p[::-1])
        values = np.exp(-((p - 1.0) ** 2) / 4.0 + 0.5j * p)
        psi = WaveFunction(Representation.MOMENTUM, p, values, consts).normalized()
        assert abs(self._closed(psi, [0.5])[0] - _simpson_current_integral(psi, 0.5)) <= 1e-14

    def test_zero_at_tau_zero(self, fast_packet):
        assert self._closed(fast_packet, [0.0])[0] == 0.0


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


def _ode_vector_steps(tau, grid, consts):
    """solve_eigen_ode's RK4 march with the state (u, u') as a numpy 2-vector."""
    m, hbar = consts.mass, consts.hbar
    half = grid.momenta()[grid.n // 2 :]
    kappa = tau / (m * hbar)

    def rhs(pp, y):
        return np.array([y[1], (2.0 / pp) * y[1] - (kappa * pp) ** 2 * y[0]])

    h_target = min(grid.dp / 8.0, 4e-3 / (kappa * grid.p_max))
    p0, a = half[0], -(kappa**2) / 28.0
    y = np.array([p0**3 * (1.0 + a * p0**4), 3.0 * p0**2 + 7.0 * a * p0**6])
    u, du = np.empty(half.size), np.empty(half.size)
    u[0], du[0] = y
    for i in range(half.size - 1):
        steps = max(1, int(math.ceil((half[i + 1] - half[i]) / h_target)))
        h = (half[i + 1] - half[i]) / steps
        pp = half[i]
        for _ in range(steps):
            k1 = rhs(pp, y)
            k2 = rhs(pp + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(pp + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(pp + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            pp += h
        u[i + 1], du[i + 1] = y
    phi_half = (m * hbar / (tau * half)) * du + 1j * u
    return np.concatenate([np.conj(phi_half[::-1]), phi_half])


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
        tau = 1.0
        p, d = chebyshev_nodes_and_diff(120, 1.0, 4.0)
        z = p * p * tau / 2.0
        w = p**1.5 * scipy.special.jv(-0.75, z)
        res = d @ (d @ w) - (2.0 / p) * (d @ w) + tau**2 * p**2 * w
        scale = tau**2 * np.max(p**2 * np.abs(w))
        inner = slice(5, -5)
        assert np.max(np.abs(res[inner])) <= 1e-6 * scale

    def test_rejects_nonpositive_tau(self, consts):
        with pytest.raises(ValueError):
            solve_eigen_ode(0.0, GridSpec(64, 4.0), consts)

    @pytest.mark.parametrize("tau", [0.2, 3.0])
    def test_float_steps_equal_vector_steps(self, tau, consts):
        grid = GridSpec(48, 4.0)
        assert solve_eigen_ode(tau, grid, consts).values.tobytes() == _ode_vector_steps(tau, grid, consts).tobytes()


class TestCompleteness:
    # the reconstruction errors themselves are acceptance criterion 12
    def test_warns_on_uncovered_mass(self, fast_packet):
        with pytest.warns(UserWarning, match="overlap mass"):
            completeness_check(EigenFamily.KDM, fast_packet, (0.45, 0.55), 501)


class TestDwellRelation:
    def test_low_momentum_band(self, verify_report):
        # L = 0.2, |p|L/hbar <= 0.05 on the default grid
        assert verify_report["dwell_low_momentum"]["value"] <= 0.02

    def test_negative_control_high_momentum(self, verify_report):
        assert verify_report["dwell_negative_control"]["value"] >= 0.2

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

"""Eigenstate families, operator matrices, distributions, and structural checks."""

import dataclasses
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
    crossing_probability,
    current_expectation,
    distribution,
    dwell_low_momentum_check,
    eigenstate_values,
    hermiticity_defect,
    integrate,
    kinetic_energy_density,
    make_gaussian,
    numerics,
    overlap,
    simpson_weights,
)
from qarrival.operators import (
    BAND_WIDTH,
    _fold,
    _free_current_integrals,
    _half_block,
    _mirror_half,
    _overlaps,
    _tau_blocks,
    _trim,
)
from qarrival.states import Representation, WaveFunction, reflected_position_state
import util_new_oracle as oracle
from test_numerics import brute_series_j
from util_current import stencil_current
from util_kijowski import kijowski_density
from util_dense import (
    banded,
    dense_current,
    dense_current_delta_form,
    dense_hermiticity_defect,
    dense_matrix,
    dense_operator,
)
from util_origin import derivative_at_origin, value_at_origin
from util_pertau import completeness_per_tau, distribution_per_tau
from util_spectral import chebyshev_nodes_and_diff


class TestEigenstates:
    def test_ab_at_tau_zero(self, consts):
        val = eigenstate_values(EigenFamily.AB, 0.0, np.array([2.0]), consts)[0]
        assert val == pytest.approx(math.sqrt(2.0 / (2.0 * math.pi)), abs=1e-14)
        assert val.imag == 0.0

    def test_negative_tau_rejected_for_mi(self, consts):
        with pytest.raises(ValueError):
            eigenstate_values(EigenFamily.MI, -0.5, np.array([1.0]), consts)

    def test_t3_sectors(self, consts):
        p = np.array([-1.0, 1.0])
        neg, pos = eigenstate_values(EigenFamily.T3, 0.5, p, consts)
        assert neg == 0.0 and pos != 0.0
        neg, pos = eigenstate_values(EigenFamily.T3, -0.5, p, consts)
        assert neg != 0.0 and pos == 0.0

    def test_mi_matches_t3_on_positive_axis(self, consts):
        p = np.array([2.0])
        mi, t3 = (eigenstate_values(family, 0.7, p, consts) for family in (EigenFamily.MI, EigenFamily.T3))
        assert np.array_equal(mi, t3)

    def test_new_against_bessel_oracle(self, consts):
        # z = p^2 tau / (2 m hbar) = 1 at (tau=2, p=1): independent series oracle
        val = eigenstate_values(EigenFamily.NEW, 2.0, np.array([1.0]), consts)[0]
        pref = math.sqrt(2.0) / math.sqrt(8.0)
        expected = pref * (brute_series_j(-0.25, 1.0) + 1j * brute_series_j(0.75, 1.0))
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, np.full((2, 3), 2.0)], ids=["scalar", "two_dimensional"])
    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_non_1d_momenta_rejected(self, family, p, consts):
        with pytest.raises(ValueError, match="p must be a 1-D array"):
            eigenstate_values(family, 0.5, p, consts)

    def test_new_low_momentum_limit(self, consts):
        # complex value approaches the real slope limit as z -> 0
        tau = 1.3
        slope = oracle.new_low_momentum_slope(tau, consts)
        p = math.sqrt(2.0 * 1e-7 / tau)  # z = 1e-7
        val = eigenstate_values(EigenFamily.NEW, tau, np.array([p]), consts)[0]
        assert abs(val / p - slope) / slope < 1e-6

    def test_new_asymptotic_matches_leading_form(self, consts):
        # at large z the eigenstate approaches e^{-i pi/8} sqrt(p/2 pi) e^{iz}
        tau = 0.7
        p = math.sqrt(2.0 * 4000.0 / tau)
        z = p * p * tau / 2.0
        val = eigenstate_values(EigenFamily.NEW, tau, np.array([p]), consts)[0]
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


def _eigenstate_rows(family, taus, p, consts):
    """eigenstate_values at each tau, one row per tau."""
    return np.array([eigenstate_values(family, float(tau), p, consts) for tau in taus])


def _expanded(block, p):
    """The rows of a _half_block on _mirror_half(p)'s |p|, at each momentum of p on its side."""
    return block[:, (p < 0.0).astype(np.intp), _mirror_half(p)[1]]


def _kept_samples(psi):
    """The |p| that distribution keeps for psi: the half grid trimmed by _trim."""
    return _trim(*_fold(psi.grid, simpson_weights(psi.grid.size, psi.dx) * psi.values))[0].size


def _near_mirror_grid():
    """1000 momenta of a linspace with a non-dyadic end: p[k] and -p[n-1-k]
    agree to rounding, not bitwise."""
    n, p_max = 1000, 33.3
    dp = 2.0 * p_max / n
    return np.linspace(-p_max + dp / 2.0, p_max - dp / 2.0, n)


def _has_partial_last_block(taus, samples):
    # blocks count the samples evaluated per tau
    sizes = [block.size for _, block in _tau_blocks(taus, samples)]
    return len(sizes) > 1 and sizes[-1] < sizes[0]


class TestEigenstateBlock:
    """Blocks of eigenstates at +|p| and -|p| (_half_block) and their rows on the full grid."""

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
        block = _half_block(family, taus, _mirror_half(p)[0], consts)
        assert block.shape == (taus.size, 2, p.size // 2)
        for row, tau in zip(_expanded(block, p), taus):
            assert np.array_equal(row, eigenstate_values(family, float(tau), p, consts))

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_minus_row_is_eigenstate_at_minus_p(self, family, grid, consts):
        # the one mirror rule: row 1 is phi_tau(-|p|), byte for byte, signed
        # zeros too (tau = +-0, and KDM's underflowed phases at tau = 1e-322),
        # against the full-grid formulas and the NEW oracle
        ap = _mirror_half(grid.momenta())[0]
        taus = np.array([-0.9, -0.0, 0.0, 1e-322, 1e-4, 0.3, 1.9])
        if family is EigenFamily.MI:
            taus = taus[~np.signbit(taus)]
        block = _half_block(family, taus, ap, consts)
        if family is EigenFamily.NEW:
            plus = oracle.new_eigenstate_half(np.abs(taus), ap, consts)
            np.conjugate(plus, out=plus, where=(taus < 0.0)[:, None])
            ref = np.stack([plus, np.conj(plus)], axis=1)
        else:
            ref = np.stack([_full_grid_formula(family, taus, side * ap, consts) for side in (1.0, -1.0)], axis=1)
        assert block.tobytes() == ref.tobytes()
        for row, tau in zip(block, taus):
            assert row[1].tobytes() == eigenstate_values(family, float(tau), -ap, consts).tobytes()
            assert row[0].tobytes() == eigenstate_values(family, float(tau), ap, consts).tobytes()
        if family is EigenFamily.KDM:
            im = block[taus == 1e-322, 1].imag
            assert np.any((im == 0.0) & np.signbit(im)) and np.any((im == 0.0) & ~np.signbit(im))

    def test_new_taus_cover_both_regimes(self, grid, consts):
        z_per_tau = grid.momenta() ** 2 / (2.0 * consts.mass * consts.hbar)
        assert any((z_per_tau * t < 10.0).any() and (z_per_tau * t >= 10.0).any() for t in self.TAUS[EigenFamily.NEW])

    @pytest.mark.parametrize("family", [EigenFamily.MI, EigenFamily.NEW], ids=lambda f: f.value)
    def test_tau_zero_row_is_zero(self, family, grid, consts):
        block = _half_block(family, np.array([0.0, 0.5]), _mirror_half(grid.momenta())[0], consts)
        assert np.array_equal(block[0], np.zeros((2, grid.n // 2)))
        assert np.all(block[1] != 0.0)

    @pytest.mark.parametrize("family", [EigenFamily.MI], ids=lambda f: f.value)
    def test_negative_tau_rejected(self, family, grid, consts, fast_packet):
        with pytest.raises(ValueError, match="tau >= 0"):
            _half_block(family, np.array([0.3, -0.1, 0.5]), _mirror_half(grid.momenta())[0], consts)
        with pytest.raises(ValueError, match="tau >= 0"):
            distribution(fast_packet, family, np.linspace(-0.2, 0.5, 36))

    def test_new_negative_tau_is_conjugate(self, grid, consts):
        # C T_NEW C = -T_NEW, so phi_{-tau} = conj phi_tau, bitwise (tau = -0 gives tau = 0's zero row)
        taus = np.array([0.0, 1e-4, 0.01, 0.3, 0.7, 1.9])
        ap = _mirror_half(grid.momenta())[0]
        block = _half_block(EigenFamily.NEW, taus, ap, consts)
        assert np.array_equal(_half_block(EigenFamily.NEW, -taus, ap, consts), np.conj(block))

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_new_time_reversal(self, n, fast_spec):
        # Pi_psi(-tau) = Pi_{conj psi}(tau) exactly: |<psi|phi_{-tau}>| = |<conj psi|phi_tau>|
        psi = make_gaussian(fast_spec, GridSpec(n, 40.0))
        flipped = WaveFunction(Representation.MOMENTUM, psi.grid, np.conj(psi.values), psi.consts)
        half = np.linspace(0.0, 1.0, 101)
        taus = np.concatenate([-half[:0:-1], half])
        forward = distribution(psi, EigenFamily.NEW, taus)
        assert np.array_equal(forward, distribution(flipped, EigenFamily.NEW, -taus[::-1])[::-1])
        assert taus[np.argmax(forward)] == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_mirror_is_exact(self, family, grid, consts):
        # phi(-p) = phi(p) (AB, MI), conj phi(p) (KDM, NEW); T3 maps tau -> -tau
        taus = np.array([0.0, 1e-4, 0.3, 0.7, 1.9])
        block = _eigenstate_rows(family, taus, grid.momenta(), consts)
        if family is EigenFamily.T3:
            mirror = _eigenstate_rows(family, -taus, grid.momenta(), consts)[:, ::-1]
        else:
            mirror = block[:, ::-1]
        if family in (EigenFamily.KDM, EigenFamily.NEW):
            mirror = np.conj(mirror)
        assert np.array_equal(mirror, block)

    @pytest.mark.parametrize("family", [EigenFamily.AB, EigenFamily.KDM, EigenFamily.MI, EigenFamily.T3],
                             ids=lambda f: f.value)
    def test_half_grid_equals_full_grid_formula(self, family, grid, consts, rng):
        # byte for byte, so signed zeros too (tau = +-0 and an underflowing
        # phase), and C-ordered like the formula's own result; at tau = +-120
        # cos and sin reduce phases of up to ~1e5 rad, and at 1e-322 some
        # phases underflow: cos and sin must equal the formula's exp(i phase) there
        taus = np.array([-120.0, -0.9, -0.0, 0.0, 1e-322, 1e-320, 1e-4, 0.3, 1.9, 120.0])
        if family is EigenFamily.MI:
            taus = taus[~np.signbit(taus)]
        for p in (grid.momenta(), rng.permutation(grid.momenta())[:100], np.array([-1.5, 3.0, 1.5])):
            for tau, ref in zip(taus, _full_grid_formula(family, taus, p, consts)):
                row = eigenstate_values(family, float(tau), p, consts)
                assert row.tobytes() == ref.tobytes()
                assert row.flags.c_contiguous

    def test_new_on_unordered_momenta(self, grid, consts, rng):
        # the half-grid evaluation also serves momenta that are not a mirror grid
        p = grid.momenta()
        order = rng.permutation(p.size)[: p.size // 3]
        full = _eigenstate_rows(EigenFamily.NEW, [0.3, 0.7], p, consts)
        part = _eigenstate_rows(EigenFamily.NEW, [0.3, 0.7], p[order], consts)
        assert np.array_equal(part, full[:, order])

    def test_new_on_odd_palindrome(self, consts):
        # |p| = (1.5, 3, 1.5): the upper half holds the middle sample; z = 18 at p = 3, tau = 4
        p = np.array([-1.5, 3.0, 1.5])
        taus = np.array([0.3, 4.0])
        block = _eigenstate_rows(EigenFamily.NEW, taus, p, consts)
        for j, pj in enumerate(p):
            single = [eigenstate_values(EigenFamily.NEW, t, np.array([pj]), consts)[0] for t in taus]
            assert np.array_equal(block[:, j], single)


class TestNewAgainstComplexOracle:
    """The packed NEW evaluator against its textbook complex form
    (tests/util_new_oracle.py), byte for byte."""

    def test_one_horner_call_per_table(self, consts, monkeypatch):
        # a block that straddles z = 10 sums each Bessel table in one call:
        # the low table's one packed series, then the high table's two
        calls = []

        def counting(series, x):
            calls.append(len(series))
            return horner(series, x)

        horner = numerics._horner
        monkeypatch.setattr("qarrival.numerics._horner", counting)
        ap = _mirror_half(GridSpec(512, 20.0).momenta())[0]
        block = _half_block(EigenFamily.NEW, np.linspace(0.0, 1.5, 16), ap, consts)
        z = ap * ap * 1.5 / (2.0 * consts.mass * consts.hbar)
        assert (z < 10.0).any() and (z >= 10.0).any()
        assert np.all(np.isfinite(block))
        assert calls == [1, 2]

    def test_tables_equal_textbook_horner(self):
        z_low = np.linspace(0.0, 12.0, 97)
        z_high = np.concatenate([np.linspace(8.0, 12.0, 41), np.geomspace(12.0, 1e5, 60)])
        # the packed sums f_(-1/4) + i f_(3/4), U = P1 + i Q2 and V = Q1 - i P2
        expected = oracle.horner_2d(numerics._BESSEL_LOW, z_low * z_low / 72.0 - 1.0)
        f = numerics._horner(numerics._LOW_SERIES, z_low * z_low / 72.0 - 1.0)[0]
        assert np.stack((f.real, f.imag)).tobytes() == expected.tobytes()
        x = 16.0 / z_high - 1.0
        p, q = oracle.horner_2d(numerics._BESSEL_HIGH.real, x), oracle.horner_2d(numerics._BESSEL_HIGH.imag, x)
        u, v = numerics._horner(numerics._HIGH_SERIES, x)
        assert np.stack((u.real, -v.imag)).tobytes() == p.tobytes()
        assert np.stack((v.real, u.imag)).tobytes() == q.tobytes()

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
        assert _half_block(EigenFamily.NEW, taus, ap, consts)[:, 0].tobytes() == expected.tobytes()

    def test_non_mirror_grid_equals_oracle(self, grid, consts, rng):
        p = rng.permutation(grid.momenta())[:300]
        taus = np.array([0.0, 1e-320, 1e-4, 0.3, 0.7, 1.9])
        expected = oracle.new_eigenstate_half(taus, np.abs(p), consts)
        np.conjugate(expected, out=expected, where=p < 0.0)
        assert _eigenstate_rows(EigenFamily.NEW, taus, p, consts).tobytes() == expected.tobytes()


class TestNonFiniteTau:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg_inf"])
    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_eigenstates_and_overlap_reject(self, family, bad, grid, consts, fast_packet):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau must be finite"):
                eigenstate_values(family, bad, grid.momenta(), consts)
            with pytest.raises(ValueError, match="tau must be finite"):
                overlap(fast_packet, family, bad)

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_eigenstate_rejects_zero_momentum(self, family, consts):
        with pytest.raises(ValueError, match="eigenstates are not defined at p = 0"):
            eigenstate_values(family, 0.5, np.array([1.0, 0.0]), consts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg_inf"])
    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_eigenstates_reject_non_finite_momenta(self, family, bad, consts):
        # one infinite |p| would widen the 32-ulp grouping of _mirror_half to
        # every momentum, so [1, 2, 3, inf] would read phi(1) four times
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="momenta must be finite"):
                eigenstate_values(family, 0.5, np.array([1.0, 2.0, 3.0, bad]), consts)

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_overflowing_phase_rejected(self, family, consts, fast_packet):
        # p^2 tau / 2 m hbar overflows at |p| = 39 but not at |p| = 1, where
        # eigenstate_values read [finite, nan] with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"phase p\^2 tau / 2 m hbar overflows at \|p\| = 39.0, \|tau\| = 1e\+308"
            with pytest.raises(ValueError, match=message):
                eigenstate_values(family, 1e308, np.array([1.0, 39.0]), consts)
            with pytest.raises(ValueError, match="phase p\\^2 tau / 2 m hbar overflows"):
                distribution(fast_packet, family, np.array([0.0, 1e308]))
            with pytest.raises(ValueError, match="phase p\\^2 tau / 2 m hbar overflows"):
                completeness_check(family, fast_packet, (0.0, 1e308), 9)
            # a large phase that stays finite is evaluated
            assert np.all(np.isfinite(eigenstate_values(family, 1e300, np.array([1.0, 39.0]), consts)))

    @pytest.mark.parametrize(
        "window", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)], ids=["inf_end", "neg_inf_start", "nan_end"]
    )
    def test_completeness_window_rejected(self, window, fast_packet):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau_range must be finite"):
                completeness_check(EigenFamily.KDM, fast_packet, window, 101)


# The folded sums (distribution, completeness_check) against the full-grid
# per-tau sums, as a fraction of the oracle's peak; the fold reorders the
# sums, which moved them by at most 2.2e-15 (the reflected packet's
# cancelling overlaps; 1.3e-15 elsewhere) when pinned.
FOLD_TOL = 4e-15


class TestBlockedSpectralCalls:
    """The blocked calls against per-tau reference loops (tests/util_pertau.py)."""

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_distribution_equals_per_tau_loop(self, family, fast_packet):
        taus = np.linspace(0.0, 1.0, 201)  # the CLI default preset
        assert _has_partial_last_block(taus, _kept_samples(fast_packet))
        dist = distribution(fast_packet, family, taus)
        ref = distribution_per_tau(fast_packet, family, taus)
        assert np.max(np.abs(dist - ref)) <= FOLD_TOL * ref.max()

    @pytest.mark.parametrize(
        "family,taus",
        [(EigenFamily.NEW, np.geomspace(1e-6, 1e-5, 9)), (EigenFamily.AB, np.linspace(20.0, 120.0, 51))],
        ids=["new_small_tau", "ab_late"],
    )
    def test_cancelling_overlaps_equal_per_tau_loop(self, family, taus, reflected_packet):
        # the reflected packet's overlaps cancel between its p > 0 and p < 0
        # halves (Pi ~ 3e-9 at tau = 1e-5); a BLAS dot product over |p| moved
        # the NEW rows by 3.5e-14 of their peak, the pairwise sums by 2.2e-15
        dist = distribution(reflected_packet, family, taus)
        ref = distribution_per_tau(reflected_packet, family, taus)
        assert np.max(np.abs(dist - ref)) <= FOLD_TOL * ref.max()

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_distribution_rows_equal_one_tau_calls(self, family, fast_packet):
        # the blocking does not matter: each value is its own sum over |p|
        taus = np.linspace(0.0, 1.0, 201)
        if family in (EigenFamily.KDM, EigenFamily.T3):
            taus = np.linspace(-1.0, 1.0, 201)  # tau = 0 and, for T3, the p < 0 sector
        vals = distribution(fast_packet, family, taus)
        for i, tau in enumerate(taus):
            assert vals[i] == distribution(fast_packet, family, np.array([tau]))[0]

    def test_blocks_count_half_grid_samples(self, fast_packet, monkeypatch):
        # 4096 samples per block are 14 taus of the 277 kept |p| in distribution,
        # 8 taus of the whole 512-sample half grid at n = 1024 in completeness_check
        sizes = []

        def counting(family, taus, ap, consts):
            sizes.append(taus.size)
            return _half_block(family, taus, ap, consts)

        monkeypatch.setattr("qarrival.operators._half_block", counting)
        distribution(fast_packet, EigenFamily.NEW, np.linspace(0.0, 1.0, 201))
        assert sizes == [14] * 14 + [5]
        sizes.clear()
        completeness_check(EigenFamily.NEW, fast_packet, (0.0, 1.0), 21)
        assert sizes == [8, 8, 5]

    def test_fold_once_per_call(self, fast_packet, monkeypatch):
        calls = []

        def counting(p, values):
            calls.append(p.size)
            return _fold(p, values)

        monkeypatch.setattr("qarrival.operators._fold", counting)
        distribution(fast_packet, EigenFamily.KDM, np.linspace(0.0, 1.0, 201))
        completeness_check(EigenFamily.AB, fast_packet, (-0.25, 1.25), 101)
        assert calls == [fast_packet.grid.size] * 2

    @pytest.mark.parametrize(
        "family,window",
        [(EigenFamily.AB, (-0.25, 1.25)), (EigenFamily.KDM, (-0.25, 1.25)), (EigenFamily.NEW, (0.0, 1.5))],
        ids=["ab", "kdm", "new"],
    )
    def test_completeness_equals_per_tau_loop(self, family, window, fast_spec):
        psi = make_gaussian(fast_spec, GridSpec(512, 20.0))
        tau_n = 401
        assert _has_partial_last_block(np.zeros(tau_n), _mirror_half(psi.grid)[0].size)
        err = completeness_check(family, psi, window, tau_n)
        ref = completeness_per_tau(family, psi, window, tau_n)
        assert abs(err - ref) <= 1e-12 * ref

    def test_ab_completeness_on_both_sectors(self, consts):
        # two packets meeting at x = 0 from either side at tau = 0.6: each AB
        # sector reconstructs its own half of the grid
        grid = GridSpec(512, 20.0)
        right = make_gaussian(GaussianSpec(5.0, -3.0, 0.7, consts), grid)
        left = make_gaussian(GaussianSpec(-5.0, 3.0, 0.7, consts), grid)
        psi = WaveFunction(Representation.MOMENTUM, grid.momenta(), right.values + left.values, consts).normalized()
        assert integrate(np.abs(psi.values[grid.momenta() < 0.0]) ** 2, psi.dx) > 0.4
        err = completeness_check(EigenFamily.AB, psi, (-0.5, 2.0), 401)
        ref = completeness_per_tau(EigenFamily.AB, psi, (-0.5, 2.0), 401)
        assert err < 1e-2  # O(1) without the sector split
        assert abs(err - ref) <= 1e-12 * ref


class TestFold:
    """The fold's sums over |p| against the full-grid sums over the expanded
    eigenstates, on grids that are not the default one."""

    TAUS = {
        EigenFamily.MI: np.array([0.0, 1e-4, 0.3, 0.7, 1.9]),
        EigenFamily.NEW: np.array([0.0, 1e-4, 0.3, 0.7, 1.9, 4.0]),
    }
    SIGNED = np.array([-1.9, -0.3, -0.0, 0.0, 1e-4, 0.3, 0.7, 1.9, 4.0])

    @staticmethod
    def grids(grid, rng):
        p = grid.momenta()
        return {
            "default": p,
            "permuted_partial": rng.permutation(p)[:100],
            "odd_palindrome": np.array([-1.5, 3.0, 1.5]),
            "one_sided": p[p.size // 2 + 7 :],
        }

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_overlaps_and_rows_equal_full_grid_sums(self, family, grid, consts, rng):
        taus = self.TAUS.get(family, self.SIGNED)
        for name, p in self.grids(grid, rng).items():
            b = np.exp(-((np.abs(p) - 10.0) ** 2) / 8.0) * np.exp(1j * p)
            b = b + 0.3j * rng.standard_normal(p.size)  # both momentum signs carry weight
            ap, folded = _fold(p, b)
            half = _half_block(family, taus, ap, consts)
            full = _eigenstate_rows(family, taus, p, consts)
            assert np.array_equal(_expanded(half, p), full), name
            # <phi_tau|b> for every tau
            got = _overlaps(half, folded)
            ref = np.array([np.sum(np.conj(row) * b) for row in full])
            assert np.max(np.abs(got - ref)) <= FOLD_TOL * np.max(np.abs(ref)), name
            # sum_k g_k phi_tau_k on each side of the half grid, as completeness_check adds it
            g = rng.standard_normal(taus.size) + 1j * rng.standard_normal(taus.size)
            rows = np.sum(g[:, None, None] * half, axis=0)
            ref_rows = np.sum(g[:, None] * full, axis=0)
            _, ref_folded = _fold(p, ref_rows)
            missing = _fold(p, np.ones(p.size))[1] == 0.0  # sides with no momentum
            assert np.max(np.abs(np.where(missing, 0.0, rows) - ref_folded)) <= FOLD_TOL * np.max(np.abs(ref_rows))

    @pytest.mark.parametrize("family", [EigenFamily.KDM, EigenFamily.NEW], ids=lambda f: f.value)
    def test_conjugating_families_sum_each_side_pairwise(self, family, fast_packet, reflected_packet):
        # phi(-|p|) = conj phi(+|p|), so <phi|b> = conj(sum phi+ conj b+) + sum phi+ b-,
        # to the last bit: one pairwise sum per side, never one sum over both sides
        taus = np.linspace(0.0, 1.0, 15)
        for psi in (fast_packet, reflected_packet):
            ap, folded = _fold(psi.grid, simpson_weights(psi.grid.size, psi.dx) * psi.values)
            half = _half_block(family, taus, ap, psi.consts)
            plus = half[:, 0]
            ref = np.conj(np.sum(plus * np.conj(folded[0]), axis=1)) + np.sum(plus * folded[1], axis=1)
            assert np.array_equal(_overlaps(half, folded), ref)

    def test_fold_places_each_sample(self, grid, rng):
        # each sample lands once, at its |p| on its own side; every grid folds
        # onto its distinct |p|, a partial one with some momenta paired
        for name, p in self.grids(grid, rng).items():
            values = rng.uniform(1.0, 2.0, p.size)
            ap, (plus, minus) = _fold(p, values)
            assert np.array_equal(ap, np.unique(np.abs(p))), name
            for v, q in zip(values, p):
                assert v in (plus if q > 0.0 else minus)[ap == abs(q)], name
            assert np.count_nonzero(plus) + np.count_nonzero(minus) == p.size, name

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_mirror_half_shares_equal_signs(self, family, consts):
        # momenta share a |p| whatever their signs: [1, 2, 1] folds onto [1, 2],
        # and each momentum reads its side of that |p|
        p = np.array([1.0, 2.0, 1.0])
        ap, index = _mirror_half(p)
        assert np.array_equal(ap, [1.0, 2.0]) and np.array_equal(index, [0, 1, 0])
        for tau in (0.3, 4.0):
            single = [eigenstate_values(family, tau, np.array([pj]), consts)[0] for pj in p]
            assert eigenstate_values(family, tau, p, consts).tobytes() == np.array(single).tobytes()
        with pytest.raises(ValueError, match="p = 0"):
            _fold(np.array([-1.0, 0.0, 1.0]), np.ones(3))

    def test_distribution_on_near_mirror_grid(self, consts):
        # p[k] and -p[n-1-k] of a linspace with a non-dyadic end differ in
        # their last bits, and still share one |p|: distribution sums over 500
        p = _near_mirror_grid()
        assert not np.array_equal(p, -p[::-1])
        assert _mirror_half(p)[0].size == p.size // 2
        psi = WaveFunction(Representation.MOMENTUM, p, np.exp(-((p - 1.0) ** 2) / 4.0 + 0.5j * p), consts)
        psi = psi.normalized()
        weighted = simpson_weights(p.size, psi.dx) * np.conj(psi.values)
        for family in EigenFamily:
            taus = np.linspace(0.0 if family is EigenFamily.MI else -1.0, 1.0, 41)
            dist = distribution(psi, family, taus)
            ref = distribution_per_tau(psi, family, taus)
            assert np.max(np.abs(dist - ref)) <= FOLD_TOL * ref.max(), family
            if family is not EigenFamily.NEW:
                # each pair is evaluated at its smaller |p|, at most 2 ulp of
                # p_max from the other: 9.8e-15 of the peak from the formula
                # on every sample
                exact = np.abs(_full_grid_formula(family, taus, p, consts) @ weighted) ** 2
                assert np.max(np.abs(dist - exact)) <= 1e-13 * exact.max(), family


class TestTrim:
    """distribution sums over the half grid trimmed to the packet's support
    (_trim); completeness_check keeps every |p|."""

    # packet fixture: its tau window
    WINDOWS = {"fast_packet": (0.0, 1.0), "slow_packet": (0.0, 2.0), "reflected_packet": (20.0, 120.0)}

    @pytest.fixture(scope="class")
    def slow_packet(self, consts, grid):
        # the spectral benchmark's slow packet: it overlaps x = 0 at tau = 0
        return make_gaussian(GaussianSpec(p0=1.0, x0=-0.5, sigma_p=1.0, consts=consts), grid)

    @pytest.mark.parametrize("packet", list(WINDOWS))
    def test_matches_full_grid_oracle(self, packet, request):
        psi = request.getfixturevalue(packet)
        taus = np.linspace(*self.WINDOWS[packet], 101)
        kept = _kept_samples(psi)
        half = psi.grid.size // 2
        assert kept == half if packet == "reflected_packet" else kept < half
        for family in EigenFamily:
            ref = distribution_per_tau(psi, family, taus)
            got = distribution(psi, family, taus)
            assert np.max(np.abs(got - ref)) <= FOLD_TOL * ref.max(), family

    def test_trimmed_once_per_overlap_call(self, fast_packet, monkeypatch):
        # distribution trims; completeness_check's reconstruction needs every |p|
        calls = []

        def counting(ap, folded):
            calls.append(ap.size)
            return _trim(ap, folded)

        monkeypatch.setattr("qarrival.operators._trim", counting)
        distribution(fast_packet, EigenFamily.NEW, np.linspace(0.0, 1.0, 21))
        completeness_check(EigenFamily.KDM, fast_packet, (-0.25, 1.25), 101)
        assert calls == [fast_packet.grid.size // 2]

    def test_kept_count_pinned(self, fast_packet, slow_packet):
        # one kept set per packet, whatever the family
        assert (_kept_samples(fast_packet), _kept_samples(slow_packet)) == (277, 162)

    @pytest.mark.parametrize("packet", list(WINDOWS))
    def test_dropped_mass_within_half_eps(self, packet, request):
        # the dropped samples are the smallest, and their summed m stays within (eps/2) sum(m)
        psi = request.getfixturevalue(packet)
        ap, folded = _fold(psi.grid, simpson_weights(psi.grid.size, psi.dx) * psi.values)
        kept_ap, kept = _trim(ap, folded)
        m = np.abs(folded[0]) + np.abs(folded[1])
        dropped = ~np.isin(ap, kept_ap)
        assert np.array_equal(kept, folded[:, ~dropped])
        assert np.sum(m[dropped]) <= 0.5 * np.finfo(float).eps * np.sum(m)
        assert np.max(m[dropped], initial=0.0) <= np.min(m[~dropped])
        # and as many as that bound allows: one more kept sample would break it
        assert np.sum(m[dropped]) + np.min(m[~dropped]) > 0.5 * np.finfo(float).eps * np.sum(m)

    def test_full_support_is_untrimmed_bitwise(self, consts, grid, monkeypatch):
        # sigma_p = 4 fills the grid: every sample is kept, and the sums are the untrimmed ones
        psi = make_gaussian(GaussianSpec(p0=10.0, x0=-5.0, sigma_p=4.0, consts=consts), grid)
        taus = np.linspace(0.0, 1.0, 201)
        assert _kept_samples(psi) == grid.n // 2
        trimmed = [distribution(psi, family, taus) for family in EigenFamily]
        monkeypatch.setattr("qarrival.operators._trim", lambda ap, folded: (ap, folded))
        untrimmed = [distribution(psi, family, taus) for family in EigenFamily]
        for got, ref in zip(trimmed, untrimmed):
            assert got.tobytes() == ref.tobytes()

    def test_zero_packet_returns_zeros(self, consts, grid):
        psi = WaveFunction(Representation.MOMENTUM, grid.momenta(), np.zeros(grid.n, dtype=complex), consts)
        taus = np.linspace(0.0, 1.0, 201)
        assert _kept_samples(psi) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in EigenFamily:
                assert np.array_equal(distribution(psi, family, taus), np.zeros(taus.size)), family

    @pytest.mark.parametrize("family", list(EigenFamily), ids=lambda f: f.value)
    def test_overlaps_of_any_weight_layout(self, family, fast_packet):
        # a boolean-indexed packet, as _trim returns it, is not C-ordered,
        # and sums as its contiguous copy does
        ap, folded = _fold(fast_packet.grid, simpson_weights(fast_packet.grid.size, fast_packet.dx) * fast_packet.values)
        mask = np.abs(folded[0]) > 1e-12
        folded = folded[:, mask]
        assert not folded.flags.c_contiguous
        half = _half_block(family, np.linspace(0.0, 1.0, 15), ap[mask], fast_packet.consts)
        assert _overlaps(half, folded).tobytes() == _overlaps(half, np.ascontiguousarray(folded)).tobytes()


@pytest.fixture(scope="module")
def ops(grid, consts):
    return {
        "xi": build_operator(OperatorKind.XI, grid, consts),
        "r": build_operator(OperatorKind.R, grid, consts),
        "sign": build_operator(OperatorKind.SIGN_P, grid, consts),
        "t_kdm": build_operator(OperatorKind.T_KDM, grid, consts),
    }


class TestOperatorMatrices:
    def test_reflection_squared_identity(self, ops, grid, rng):
        r = ops["r"]
        f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        assert np.array_equal(r.apply(r.apply(f)), f)

    def test_reflection_conjugates_sign(self, ops, grid, rng):
        r, eps = ops["r"], ops["sign"]
        f = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        assert np.array_equal(r.apply(eps.apply(r.apply(f))), -eps.apply(f))

    def _test_vector(self, grid):
        p = grid.momenta()
        f = np.exp(-((p - 12.0) ** 2) / (4.0 * 1.5**2)).astype(complex)
        return p, f / math.sqrt(float(np.sum(np.abs(f) ** 2) * grid.dp))

    @staticmethod
    def _commutator_on(a, b, f):
        """[A, B] f = A(Bf) - B(Af), by the operators' action only."""
        return a.apply(b.apply(f)) - b.apply(a.apply(f))

    def test_commutator_xi_t_kdm(self, ops, grid, consts):
        p, f = self._test_vector(grid)
        res = self._commutator_on(ops["xi"], ops["t_kdm"], f) - 1j * consts.hbar * f
        assert np.max(np.abs(res[2:-2])) <= 1e-6 * consts.hbar

    def test_dwell_small_pl_pattern(self, consts):
        # at pL/hbar -> 0 the matrix approaches (mL/|p|)(1 + R): the
        # anti-diagonal entry equals the diagonal one
        grid = GridSpec(64, 1.0)
        op = build_operator(OperatorKind.T_DWELL, grid, consts, L=1e-4)
        p = grid.momenta()
        mat = dense_matrix(op)
        diag = np.real(np.diag(mat))
        anti = mat[np.arange(64), 63 - np.arange(64)]
        assert diag == pytest.approx(consts.mass * 1e-4 / np.abs(p), rel=1e-12)
        assert np.max(np.abs(anti - diag)) <= 2e-4 * np.max(diag)

    @pytest.mark.parametrize("shape", [(60,), (70,), (1, 64)], ids=str)
    def test_apply_rejects_a_vector_of_another_shape(self, shape, consts):
        # the per-offset slices of a vector of another length would be cut short or broadcast
        op = build_operator(OperatorKind.T_KDM, GridSpec(64, 40.0), consts)
        with pytest.raises(ValueError, match=r"shape \(64,\)"):
            op.apply(np.ones(shape, dtype=complex))

    def test_bands_of_another_shape_rejected(self):
        # each band has its own odd number of rows, or none, over one column count
        for diag, anti in [((9, 64), (9, 60)), ((8, 64), (8, 64)), ((1, 64), (2, 64)), ((64,), (1, 64))]:
            with pytest.raises(ValueError, match="2w \\+ 1"):
                OperatorMatrix(np.zeros(diag), np.zeros(anti))
        assert OperatorMatrix(np.zeros((9, 64)), np.zeros((0, 64))).n == 64

    # (stencil rows, reflected rows): a band holds only the offsets its operator has
    BAND_ROWS = {
        OperatorKind.H: (1, 0),
        OperatorKind.XI: (1, 0),
        OperatorKind.R: (0, 1),
        OperatorKind.SIGN_P: (1, 0),
        OperatorKind.T_KDM: (9, 0),
        OperatorKind.T_NEW_SYM: (9, 9),
        OperatorKind.T_NEW_VIA_KDM: (9, 9),
        OperatorKind.T_DWELL: (1, 1),
    }

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_each_band_holds_only_its_operators_offsets(self, kind, grid, consts):
        op = build_operator(kind, grid, consts, L=0.2)
        assert (op.diag.shape, op.anti.shape) == tuple((rows, grid.n) for rows in self.BAND_ROWS[kind])

    def test_operator_holds_its_two_bands_only(self):
        assert [f.name for f in dataclasses.fields(OperatorMatrix)] == ["diag", "anti"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag_inf"])
    @pytest.mark.parametrize("band", ["diag", "anti"])
    def test_non_finite_entry_rejected(self, band, value, consts):
        # max(0.0, nan) keeps 0.0, so a NaN entry would read as a zero hermiticity defect
        op = build_operator(OperatorKind.T_NEW_SYM, GridSpec(64, 40.0), consts)
        bands = {"diag": op.diag.copy(), "anti": op.anti.copy()}
        bands[band][4, 30] = value
        with pytest.raises(ValueError, match="finite"):
            OperatorMatrix(**bands)

    @pytest.mark.parametrize("L", [0.0, math.nan, math.inf])
    def test_dwell_requires_finite_positive_length(self, L, grid, consts):
        with pytest.raises(ValueError, match="finite region length"):
            build_operator(OperatorKind.T_DWELL, grid, consts, L=L)

    def test_invalid_kind_params(self, grid, consts):
        with pytest.raises(ValueError):
            build_operator(OperatorKind.T_DWELL, grid, consts)
        with pytest.raises(ValueError, match="n >= 6"):
            build_operator(OperatorKind.T_KDM, GridSpec(4, 1.0), consts)


class TestBandFormAgainstDense:
    """Each operator's band form against its whole-matrix construction."""

    @staticmethod
    def _pair(kind, n, consts):
        grid = GridSpec(n, 40.0)
        op = build_operator(kind, grid, consts, L=0.2)
        return op, dense_operator(kind, grid, consts, L=0.2)

    # at n = 10 the two bands meet in the middle rows, where the parts add,
    # and are clipped at the edges, and the reflected band still holds
    # entries of its own; at n = 6 every row is in reach of both bands and
    # every offset's slice is clipped at both ends
    @pytest.mark.parametrize("n", [6, 10, 64, 1024])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_matrix_equals_dense(self, kind, n, consts):
        op, dense = self._pair(kind, n, consts)
        assert np.array_equal(dense_matrix(op), dense)

    @pytest.mark.parametrize("units", [PhysConsts(), PhysConsts(mass=2.0, hbar=0.5)], ids=["unit", "m2_hbar0.5"])
    @pytest.mark.parametrize("n", [6, 10, 64, 1024])
    def test_t_new_constructions_build_equal_parts(self, n, units):
        # both constructions are T_KDM plus one reflected part, and neither
        # moves an entry between the parts where they meet, so their stencil
        # parts and reflected parts are the same arrays
        grid = GridSpec(n, 40.0)
        sym, via = (build_operator(kind, grid, units) for kind in (OperatorKind.T_NEW_SYM, OperatorKind.T_NEW_VIA_KDM))
        assert np.array_equal(sym.diag, via.diag)
        assert np.array_equal(sym.anti, via.anti)

    @pytest.mark.parametrize("n", [6, 10, 64, 1024])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_apply_matches_dense_product(self, kind, n, consts, rng):
        op, dense = self._pair(kind, n, consts)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = dense @ f
        assert np.max(np.abs(op.apply(f) - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [6, 10, 64, 130, 1024])
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_hermiticity_defect_equals_dense(self, kind, n, consts):
        op, dense = self._pair(kind, n, consts)
        assert hermiticity_defect(op) == dense_hermiticity_defect(dense)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_current_oracle_matches_delta_form(self, n, consts):
        # the outer-product oracle of test_equals_j_current_operator against
        # the current's defining (p delta + delta p) / 2m form
        grid = GridSpec(n, 40.0)
        outer = dense_current(grid, consts, 0.3)
        delta_form = dense_current_delta_form(grid, consts, 0.3)
        assert np.max(np.abs(outer - delta_form)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(delta_form))

    @staticmethod
    def _planted(mat):
        return banded(mat, BAND_WIDTH, BAND_WIDTH)

    def _hermitian_bands(self, n, rng):
        """A random hermitian matrix on the BAND_WIDTH pattern."""
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return dense_matrix(self._planted(a + a.conj().T))

    @pytest.mark.parametrize("width", [-1, 0, BAND_WIDTH])
    def test_zero_interior_is_hermitian(self, width):
        zero = banded(np.zeros((8, 8), dtype=complex), width, width)
        assert hermiticity_defect(zero) == 0.0

    @pytest.mark.parametrize("where", ["diag", "lower", "main_diagonal", "anti", "both"])
    def test_planted_band_defect_found_at_dense_value(self, where, rng):
        # negative control for the transposes read from the bands: a hermitian
        # matrix on the band pattern with one entry moved, in the stencil
        # band above or below the diagonal, on the diagonal, in the reflected
        # band, or one in each band.  The moved entry is the largest, so it
        # sets the scale too.
        n = 40
        mat = self._hermitian_bands(n, rng)
        planted = {"diag": [(n // 2, n // 2 + 3)], "lower": [(n // 2 + 3, n // 2)],
                   "main_diagonal": [(n // 2, n // 2)], "anti": [(7, n - 5)],
                   "both": [(n // 2, n // 2 + 3), (7, n - 5)]}
        for size, (j, k) in enumerate(planted[where], 1):
            mat[j, k] += 40j * size
        defect = hermiticity_defect(self._planted(mat))
        assert defect == dense_hermiticity_defect(mat)
        assert defect >= 0.5

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("where", ["lower", "upper", "diagonal", "both"])
    def test_planted_defect_found_at_dense_value(self, where, n, rng):
        # negative control away from the middle rows, at two sizes: a
        # hermitian band matrix with one entry moved in the reflected band
        # below the diagonal, at the reflected band's outer edge above it,
        # on the diagonal, or one of each.  The moved entry is the largest,
        # so it sets the scale too.
        mat = self._hermitian_bands(n, rng)
        planted = {"lower": [(n - 5, 3)], "upper": [(7, n - 4)], "diagonal": [(n // 2, n // 2)],
                   "both": [(n - 5, 3), (7, n - 4)]}[where]
        for size, (j, k) in enumerate(planted, 1):
            mat[j, k] += 40j * size
        defect = hermiticity_defect(self._planted(mat))
        assert defect == dense_hermiticity_defect(mat)
        assert defect >= 0.5

    def test_defect_outside_interior_ignored(self, rng):
        # entries moved in the two edge rows and columns, in the stencil band
        # (rows 1 and n - 2) and in the reflected band (row 0, column n - 2)
        n = 40
        mat = self._hermitian_bands(n, rng)
        for j, k in [(1, 3), (n - 2, n - 5), (0, n - 3), (3, n - 2)]:
            mat[j, k] += 5.0
        assert hermiticity_defect(self._planted(mat)) == 0.0


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

    def test_distribution_nonnegative(self, fast_packet):
        taus = np.linspace(0.0, 1.0, 51)
        dist = distribution(fast_packet, EigenFamily.KDM, taus)
        assert np.all(dist >= 0.0)

    def test_kdm_distribution_normalized(self, fast_packet):
        from qarrival import simpson_weights

        taus = np.linspace(-0.25, 1.25, 1501)
        dist = distribution(fast_packet, EigenFamily.KDM, taus)
        w = simpson_weights(taus.size, taus[1] - taus[0])
        assert float(np.sum(w * dist)) == pytest.approx(1.0, abs=1e-3)

    def test_new_matches_kdm_for_fast_packet(self, fast_packet):
        taus = np.linspace(0.3, 0.7, 41)
        d_new = distribution(fast_packet, EigenFamily.NEW, taus)
        d_kdm = distribution(fast_packet, EigenFamily.KDM, taus)
        peak = np.max(d_kdm)
        assert np.max(np.abs(d_new - d_kdm)) <= 0.01 * peak

    def test_overflowing_density_rejected(self, fast_packet):
        # finite samples whose |<psi|phi_tau>|^2 overflows to inf
        huge = WaveFunction(Representation.MOMENTUM, fast_packet.grid, 1e200 * fast_packet.values, fast_packet.consts)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="distribution values must be finite"):
            distribution(huge, EigenFamily.KDM, np.array([0.5]))

    def test_unsorted_tau_grid_rejected(self, fast_packet):
        with pytest.raises(ValueError):
            distribution(fast_packet, EigenFamily.KDM, np.array([0.5, 0.2, 0.8]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan_entry", "inf_entry"])
    def test_non_finite_tau_grid_rejected(self, fast_packet, bad):
        with pytest.raises(ValueError, match="tau_grid must be finite"):
            distribution(fast_packet, EigenFamily.KDM, np.array([0.1, bad]))


class TestKijowski:
    """The Kijowski density is AB's distribution."""

    def test_peak_at_classical_arrival(self, consts):
        grid = GridSpec(1024, 40.0)
        psi = make_gaussian(GaussianSpec(10.0, -5.0, 0.5, consts), grid)
        taus = np.linspace(0.3, 0.7, 161)
        vals = distribution(psi, EigenFamily.AB, taus)
        assert abs(taus[np.argmax(vals)] - 0.5) <= 0.025  # within 5%

    def test_equals_kijowski_oracle(self, fast_packet):
        # (1/m)|(|p|^(1/2) psi_t)(x = 0)|^2 by a rectangle sum over the full grid;
        # |p|^(1/2) has a kink at p = 0, so a packet with weight there would
        # compare the two quadratures instead
        taus = np.linspace(0.0, 1.0, 201)  # the CLI default preset
        ref = kijowski_density(fast_packet, taus)
        vals = distribution(fast_packet, EigenFamily.AB, taus)
        assert np.max(np.abs(vals - ref)) <= FOLD_TOL * ref.max()

    def test_two_dimensional_times_rejected(self, fast_packet):
        with pytest.raises(ValueError, match="1-D"):
            distribution(fast_packet, EigenFamily.AB, np.zeros((2, 2)))

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
        assert abs(current_expectation(reflected_packet, np.array([0.0]))[0]) <= 1e-8

    def test_parity_flip(self, fast_packet):
        # mirroring x -> -x maps psi(p) -> psi(-p) and flips the current sign
        mirrored = WaveFunction(
            Representation.MOMENTUM,
            fast_packet.grid,
            fast_packet.values[::-1],
            fast_packet.consts,
        )
        ts = np.array([0.2, 0.5])
        expected = -current_expectation(fast_packet, ts)
        assert current_expectation(mirrored, ts) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_small_time_square_root_law_sample(self, reflected_packet):
        # J(tau) ~ (1/2 sqrt(pi)) tau^(1/2) |odd-extension slope|^2, with the
        # slope-squared equal to 2 <p delta(x) p> / hbar^2
        hbar, m = reflected_packet.consts.hbar, reflected_packet.consts.mass
        ked, _ = kinetic_energy_density(reflected_packet)
        slope_sq = 2.0 * ked / hbar**2
        tau = 0.03
        law = (1.0 / (2.0 * math.sqrt(math.pi))) * (hbar / m) ** 1.5 * math.sqrt(tau) * slope_sq
        assert current_expectation(reflected_packet, np.array([tau]))[0] == pytest.approx(law, rel=0.02)

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
        # psi^dagger J psi dp with J the dense rank-two matrix of the kernel
        psi = fast_packet.values
        expected = float((np.conj(psi) @ (dense_current(grid, consts, t) @ psi)).real * grid.dp)
        assert current_expectation(fast_packet, np.array([t]))[0] == pytest.approx(expected, rel=1e-12)

    def test_array_times_match_one_time_calls(self, fast_packet, reflected_packet):
        for psi, ts in (
            (fast_packet, np.linspace(0.05, 1.0, 20)),
            (reflected_packet, np.geomspace(0.015, 0.045, 9)),
        ):
            batched = current_expectation(psi, ts)
            assert batched.shape == ts.shape
            alone = np.array([current_expectation(psi, ts[i : i + 1])[0] for i in range(ts.size)])
            assert np.max(np.abs(batched - alone) / np.abs(alone)) <= 1e-12

    @pytest.mark.parametrize("t", [0.5, np.full((2, 3), 0.5)], ids=["scalar", "two_dimensional"])
    def test_non_1d_times_rejected(self, fast_packet, t):
        with pytest.raises(ValueError, match="t must be a 1-D array"):
            current_expectation(fast_packet, t)


def _simpson_current_integral(psi, tau, samples=12801):
    """integral_0^tau <J(t)> dt by Simpson's rule on `samples` times."""
    ts = np.linspace(0.0, tau, samples)
    return float(simpson_weights(samples, ts[1] - ts[0]) @ current_expectation(psi, ts))


class TestCurrentIntegrals:
    """The closed-form time integral of the current against Simpson's rule on
    a fine time grid of current_expectation."""

    @staticmethod
    def _closed(psi, taus):
        return _free_current_integrals(psi.values, psi.grid, psi.dx, np.asarray(taus), psi.consts)

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
        # p[k] and -p[n-1-k] differ in the last bits and must still fold together
        p = _near_mirror_grid()
        values = np.exp(-((p - 1.0) ** 2) / 4.0 + 0.5j * p)
        psi = WaveFunction(Representation.MOMENTUM, p, values, consts).normalized()
        assert abs(self._closed(psi, [0.5])[0] - _simpson_current_integral(psi, 0.5)) <= 1e-14

    def test_grid_with_partial_mirror_pairs(self, consts):
        # a uniform grid whose 40 momenta below 0 have exact mirrors but whose
        # top 80 do not: both current helpers fold it onto its 120 |p|
        p = (np.arange(-40, 120) + 0.5) / 4.0
        assert _mirror_half(p)[0].size == 120
        psi = WaveFunction(Representation.MOMENTUM, p, np.exp(-((p - 2.0) ** 2) / 4.0 + 1j * p), consts)
        psi = psi.normalized()
        ts = np.array([0.2, 0.5, 1.0])
        # the rank-two form summed over every sample, with no fold
        m, hbar = consts.mass, consts.hbar
        phased = np.exp(-1j * p**2 * ts[:, None] / (2.0 * m * hbar)) * psi.values
        a0, a1 = psi.dx * phased.sum(axis=1), psi.dx * (phased @ p)
        direct = (np.conj(a0) * a1).real / (2.0 * math.pi * hbar * m)
        assert np.max(np.abs(current_expectation(psi, ts) - direct)) <= 1e-14
        for tau, value in zip(ts, self._closed(psi, ts)):
            assert abs(value - _simpson_current_integral(psi, tau)) <= 1e-14

    def test_zero_at_tau_zero(self, fast_packet):
        assert self._closed(fast_packet, [0.0])[0] == 0.0


@pytest.mark.parametrize("lam", [2.0, 0.5])
def test_units_covariance(lam, fast_spec, fast_packet, grid):
    """Times scale with the mass: with m -> lam m and tau -> lam tau, lam Pi(lam tau)
    is the unit-mass Pi(tau) for every family.  And the two crossing forms,
    which take m through the free propagator and through the current, agree
    at m = lam, hbar = 1 / lam over taus that scale with m.  Most of the suite
    runs at m = hbar = 1, where a misplaced m or hbar goes unseen."""
    taus = np.linspace(0.05, 1.5, 201)
    heavy = make_gaussian(GaussianSpec(fast_spec.p0, fast_spec.x0, fast_spec.sigma_p, PhysConsts(lam, 1.0)), grid)
    for family in EigenFamily:
        ref = distribution(fast_packet, family, taus)
        scaled = lam * distribution(heavy, family, lam * taus)
        assert np.max(np.abs(scaled - ref)) <= 1e-12 * np.max(ref), family
    consts = PhysConsts(lam, 1.0 / lam)
    psi = make_gaussian(GaussianSpec(fast_spec.p0, fast_spec.x0, fast_spec.sigma_p, consts), grid)
    res = crossing_probability(psi, consts.mass * np.linspace(0.0, 1.0, 11))
    assert np.max(np.abs(res.projector_form - res.current_form)) <= 1e-4  # criterion 9


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
        ode = oracle.solve_eigen_ode(tau, grid, consts)
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
            oracle.solve_eigen_ode(0.0, GridSpec(64, 4.0), consts)

    @pytest.mark.parametrize("tau", [0.2, 3.0])
    def test_float_steps_equal_vector_steps(self, tau, consts):
        grid = GridSpec(48, 4.0)
        ode = oracle.solve_eigen_ode(tau, grid, consts)
        assert ode.values.tobytes() == _ode_vector_steps(tau, grid, consts).tobytes()


class TestCompleteness:
    # the reconstruction errors themselves are acceptance criterion 12
    def test_warns_on_uncovered_mass(self, fast_packet):
        with pytest.warns(UserWarning, match="overlap mass"):
            completeness_check(EigenFamily.KDM, fast_packet, (0.45, 0.55), 501)


class TestDwellRelation:
    def test_empty_band_rejected(self, consts):
        with pytest.raises(ValueError, match="samples"):
            dwell_low_momentum_check(0.2, GridSpec(64, 1.0), consts, band=(4.5, 5.5))

    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0])
    def test_non_finite_length_named(self, L, consts):
        # a NaN or infinite L would pass `L <= 0` and be reported as an empty band
        with pytest.raises(ValueError, match=f"finite L > 0, got {L}"):
            dwell_low_momentum_check(L, GridSpec(64, 1.0), consts)

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
        p = math.sqrt(2.0 * 10.0 / tau) * np.array([1.0 - 1e-7, 1.0 + 1e-7])
        assert np.all(np.isfinite(eigenstate_values(EigenFamily.NEW, tau, p, consts)))

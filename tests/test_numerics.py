"""Special functions, quadrature, grids, and Fourier transforms."""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate

from qarrival import GaussianSpec, GridSpec, PhysConsts, integrate, numerics
from qarrival.checks import _bessel_table_gap
from qarrival.numerics import (
    GAMMA_3_4,
    momentum_to_position,
    position_to_momentum,
)
from qarrival.states import (
    centered_position_grid,
    conjugate_position_grid,
    make_gaussian,
    to_momentum,
    to_position,
)
from util_box import direct_twiddles, folded_fourier
from util_dense import dense_fourier


def brute_series_j(nu, z, terms=120):
    """Independent ascending-series oracle using only math.gamma."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (z / 2.0) ** (2 * k + nu) / (math.factorial(k) * math.gamma(k + nu + 1.0))
    return total


class TestGridSpec:
    @pytest.mark.parametrize("n,p_max", [(8, 1.0), (512, 40.0), (1024, 12.5)])
    def test_invariants(self, n, p_max):
        g = GridSpec(n, p_max)
        p = g.momenta()
        assert not np.any(p == 0.0)
        assert np.array_equal(p[::-1], -p)  # bitwise mirror symmetry
        assert g.dp > 0.0
        assert g.p_max / g.dp == n / 2

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            GridSpec(7, 1.0)
        with pytest.raises(ValueError):
            GridSpec(2, 1.0)
        with pytest.raises(ValueError):
            GridSpec(8, -1.0)

    def test_consts_validation(self):
        with pytest.raises(ValueError):
            PhysConsts(mass=-1.0)
        with pytest.raises(ValueError):
            PhysConsts(hbar=0.0)


def low_rows(z):
    """f_nu = z^(-nu) J_nu(z), one row per order (-1/4, 3/4), from the packed
    low sum f_(-1/4) + i f_(3/4)."""
    f = numerics._horner(numerics._LOW_SERIES, z * z / 72.0 - 1.0)[0]
    return np.stack((f.real, f.imag))


def modulation_rows(z):
    """(P, Q), one row per order (-1/4, 3/4), from the packed high sums
    U = P_(-1/4) + i Q_(3/4) and V = Q_(-1/4) - i P_(3/4)."""
    u, v = numerics._horner(numerics._HIGH_SERIES, 16.0 / z - 1.0)
    return np.stack((u.real, -v.imag)), np.stack((v.real, u.imag))


def _modulation_oracle(nu, z):
    """P + iQ = sqrt(pi z/2) e^(-i omega) H1_nu(z) at the working precision of mpmath."""
    nu, z = mpmath.mpf(nu), mpmath.mpf(z)
    omega = z - nu * mpmath.pi / 2 - mpmath.pi / 4
    return complex(mpmath.sqrt(mpmath.pi * z / 2) * mpmath.expj(-omega) * mpmath.hankel1(nu, z))


def table_j(nu, z):
    """J_nu(z) as the Bessel tables give it, or None for an order they do not hold.

    The tables hold nu = -1/4 and 3/4 at every z: the low table below the
    switchover, the high table at and above it.  The high table's H1_nu also
    gives Y_nu, so on z >= 8, where it is fitted, the tables hold the reflected
    orders 1/4 and -3/4 too: J_{-nu} = cos(nu pi) J_nu - sin(nu pi) Y_nu.
    """
    for row, order in enumerate((-0.25, 0.75)):
        if nu == order and z < numerics.BESSEL_SWITCHOVER:
            return z**order * low_rows(np.array([z]))[row, 0]
        if nu == order or (nu == -order and z >= 8.0):
            omega = z - order * math.pi / 2.0 - math.pi / 4.0
            pq = complex(*(part[row, 0] for part in modulation_rows(np.array([z]))))
            h1 = math.sqrt(2.0 / (math.pi * z)) * pq * complex(math.cos(omega), math.sin(omega))
            if nu == order:
                return h1.real
            return math.cos(order * math.pi) * h1.real - math.sin(order * math.pi) * h1.imag
    return None


def mixed_j(orders, z):
    """J at each order, from the tables where they hold it and from mpmath
    (30 digits) elsewhere; at least one order must come from the tables."""
    values = [table_j(nu, z) for nu in orders]
    assert any(v is not None for v in values), "identity does not touch the tables"
    with mpmath.workdps(30):
        oracle = [float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(z))) for nu in orders]
    return [o if v is None else v for o, v in zip(oracle, values)]


class TestBessel:
    # the two tables hold the orders nu = -1/4, 3/4, one row each
    ORDERS = (-0.25, 0.75)

    def test_low_table_against_mpmath(self):
        # J_nu = z^nu f_nu within 2e-14 of the envelope max(|J_nu|, sqrt(2/(pi z)))
        z = np.concatenate([np.geomspace(1e-6, 1.0, 40, endpoint=False), np.linspace(1.0, 10.0, 60, endpoint=False)])
        f = low_rows(z)
        with mpmath.workdps(30):
            for nu, row in zip(self.ORDERS, f):
                exact = np.array([float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))) for x in z])
                envelope = np.maximum(np.abs(exact), np.sqrt(2.0 / (math.pi * z)))
                assert np.max(np.abs(z**nu * row - exact) / envelope) <= 2e-14

    def test_low_rows_relative_near_zero(self):
        # the monomials cancel most at z -> 0 (x -> -1, where sum |a_k| = 22.4
        # against f = 0.97), and there the envelope of the test above is up to
        # 800, so each row f_nu = z^(-nu) J_nu(z) is checked relative to itself.
        # The range stops at z = 1: f_(-1/4) falls to 0.0043 at z = 2, next to
        # the first zero of J_(-1/4) at z = 2.0063, where a relative error
        # measures the zero, not the sum
        z = np.geomspace(1e-6, 1.0, 60)
        with mpmath.workdps(30):
            for nu, row in zip(self.ORDERS, low_rows(z)):
                exact = np.array([float(mpmath.besselj(nu, x) / mpmath.mpf(x) ** nu) for x in z])
                assert np.max(np.abs(row - exact) / np.abs(exact)) <= 1e-14

    @pytest.mark.parametrize(
        "table,z",
        [
            ("_bessel_low", np.concatenate([np.geomspace(1e-6, 1.0, 40, endpoint=False), np.linspace(1.0, 10.0, 60, endpoint=False)])),
            ("_bessel_high", np.concatenate([np.linspace(8.0, 12.0, 20, endpoint=False), np.geomspace(12.0, 100.0, 40)])),
        ],
        ids=["low", "high"],
    )
    def test_j_pair_against_mpmath(self, table, z):
        # J_(-1/4) + i J_(3/4), the value operators and checks read, within 5e-15
        # of the envelope max(|J_nu|, sqrt(2/(pi z))).  Above z ~ 100 the
        # rounding of z in the high table's phase dominates (6e-13 at 1e4).
        scale = z**-0.25 if table == "_bessel_low" else np.sqrt(2.0 / (math.pi * z))
        pair = scale * getattr(numerics, table)(z)
        with mpmath.workdps(30):
            for nu, got in zip(self.ORDERS, (pair.real, pair.imag)):
                exact = np.array([float(mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))) for x in z])
                envelope = np.maximum(np.abs(exact), np.sqrt(2.0 / (math.pi * z)))
                assert np.max(np.abs(got - exact) / envelope) <= 5e-15

    @pytest.mark.parametrize("table", ["_BESSEL_LOW", "_BESSEL_HIGH"])
    def test_horner_equals_textbook_recurrence(self, table):
        # each real series of the table, packed two to a complex series (the
        # low table's orders as f_(-1/4) + i f_(3/4), the high table's as
        # U = P_(-1/4) + i Q_(3/4) and V = Q_(-1/4) - i P_(3/4)) and summed in
        # place, equals s = s x + a_k over its real coefficients bitwise
        coefs = getattr(numerics, table)
        if table == "_BESSEL_LOW":
            series, packed = [(coefs[0], coefs[1])], numerics._LOW_SERIES
        else:
            series = [(coefs[0].real, coefs[1].imag), (coefs[0].imag, -coefs[1].real)]
            packed = numerics._HIGH_SERIES
        x = np.linspace(-1.0, 1.0, 301)
        result = numerics._horner(packed, x)
        assert result.shape == (len(series), x.size)
        for pair, got in zip(series, result):
            for a, part in zip(pair, (got.real, got.imag)):
                expected = a[-1]
                for k in range(a.size - 2, -1, -1):
                    expected = expected * x + a[k]
                assert part.tobytes() == expected.tobytes()

    def test_modulation_against_mpmath(self):
        z = np.concatenate([np.linspace(8.0, 12.0, 20, endpoint=False), np.geomspace(12.0, 1e5, 80)])
        p, q = modulation_rows(z)
        with mpmath.workdps(30):
            for nu, row in zip(self.ORDERS, p + 1j * q):
                exact = np.array([_modulation_oracle(nu, x) for x in z])
                assert np.max(np.abs(row - exact)) <= 5e-15

    @pytest.mark.parametrize("nu", [-0.25, 0.75])
    def test_branch_consistency_window(self, nu):
        # the two tables must agree on z in [8, 12] to 1e-9 (50-point grid)
        z = np.linspace(8.0, 12.0, 50)
        row = self.ORDERS.index(nu)
        low = z**nu * low_rows(z)[row]
        bound = 1e-9 * np.maximum(1.0, np.abs(low))
        gap = _bessel_table_gap(z)
        assert np.all(np.abs((gap.real, gap.imag)[row]) <= bound)

    def test_zero_argument(self):
        # z^(-nu) J_nu(z) -> 1 / (2^nu Gamma(nu + 1)) as z -> 0
        f = low_rows(np.array([0.0]))[:, 0]
        expected = [1.0 / (2.0**nu * math.gamma(nu + 1.0)) for nu in self.ORDERS]
        assert f == pytest.approx(expected, rel=1e-14)

    def test_against_brute_series(self):
        # frozen oracle: brute ascending series at z = 1, where J_nu = f_nu
        j = low_rows(np.array([1.0]))[:, 0]
        assert j[0] == pytest.approx(0.6693848172615744, abs=1e-14)
        assert j[0] == pytest.approx(brute_series_j(-0.25, 1.0), abs=1e-13)
        assert j[1] == pytest.approx(brute_series_j(0.75, 1.0), abs=1e-13)

    @pytest.mark.parametrize("z", [0.5, 1.0, 5.0, 20.0])
    def test_wronskian(self, z):
        # J_nu J'_{-nu} - J'_nu J_{-nu} = -2 sin(nu pi) / (pi z) at nu = 1/4, with
        # J'_{-1/4} = -J_{3/4} - J_{-1/4}/(4z) and J'_{1/4} = J_{-3/4} - J_{1/4}/(4z);
        # at z = 20 all four orders come from the high table
        j_p, j_m, j3_p, j3_m = mixed_j((0.25, -0.25, 0.75, -0.75), z)
        w = -j_p * j3_p - j3_m * j_m
        exact = -2.0 * math.sin(0.25 * math.pi) / (math.pi * z)
        assert abs(w - exact) / abs(exact) < 1e-12

    # below z = 8 no order of the nu = 1/4, 5/4 cases is in a table
    @pytest.mark.parametrize(
        "z,nu",
        [
            (z, nu)
            for nu in (-0.25, 0.25, 0.75, 1.25)
            for z in (0.5, 2.0, 8.0, 15.0, 30.0)
            if nu in (-0.25, 0.75) or z >= 8.0
        ],
    )
    def test_recurrence(self, z, nu):
        j_lo, j_nu, j_hi = mixed_j((nu - 1.0, nu, nu + 1.0), z)
        lhs = j_lo + j_hi
        rhs = (2.0 * nu / z) * j_nu
        scale = max(abs(rhs), abs(j_nu), 1e-3)
        assert abs(lhs - rhs) / scale < 1e-12

    def test_large_argument_no_overflow(self):
        # the high table covers z up to 1e4 without numeric trouble
        for z in (1e2, 1e3, 1e4):
            val = table_j(0.75, z)
            assert math.isfinite(val)
            assert abs(val) < 1.0

    def test_tables_match_generator(self):
        # the committed literals are exactly what tools/bessel_tables.py computes
        path = Path(__file__).resolve().parents[1] / "tools" / "bessel_tables.py"
        spec = importlib.util.spec_from_file_location("bessel_tables", path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        tables = generator.tables()
        for name, committed in (("low", numerics._BESSEL_LOW), ("high", numerics._BESSEL_HIGH)):
            fresh = np.array(tables[name])
            assert fresh.dtype == committed.dtype and fresh.shape == committed.shape
            assert fresh.tobytes() == committed.tobytes()


class TestGamma:
    def test_exact_values(self):
        # GAMMA_3_4 is Gamma(3/4) correctly rounded
        with mpmath.workdps(30):
            assert GAMMA_3_4 == float(mpmath.gamma(mpmath.mpf(3) / 4))

    def test_three_quarters_against_quadrature(self):
        # independent oracle: Gamma(3/4) = int_0^inf t^(-1/4) e^-t dt, split as an
        # exact alternating series on [0,1] plus adaptive quadrature on [1, inf)
        head = sum((-1.0) ** k / (math.factorial(k) * (k + 0.75)) for k in range(40))
        tail, err = scipy.integrate.quad(
            lambda t: t ** (-0.25) * math.exp(-t), 1.0, 60.0, limit=300, epsabs=1e-14, epsrel=1e-14
        )
        oracle = head + tail
        assert err < 1e-12
        assert GAMMA_3_4 == pytest.approx(oracle, abs=5e-13)


class TestIntegrate:
    def test_constant(self):
        x = np.linspace(0.0, 1.0, 101)
        assert integrate(np.ones_like(x), x[1] - x[0]) == pytest.approx(1.0, abs=1e-12)

    def test_odd_function(self):
        x = np.linspace(-1.0, 1.0, 101)
        assert integrate(x, x[1] - x[0]) == pytest.approx(0.0, abs=1e-12)

    def test_full_period_oscillation(self):
        x = np.linspace(0.0, 2.0 * math.pi, 201)
        val = integrate(np.exp(1j * x), x[1] - x[0])
        assert abs(val) < 1e-8

    def test_even_sample_count(self):
        x = np.linspace(0.0, 1.0, 100)
        assert integrate(x**3, x[1] - x[0]) == pytest.approx(0.25, abs=1e-6)

    def test_linearity(self, rng):
        f = rng.normal(size=51)
        g = rng.normal(size=51)
        a, b = 2.7, -1.3
        lhs = integrate(a * f + b * g, 0.01)
        rhs = a * integrate(f, 0.01) + b * integrate(g, 0.01)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            integrate(np.ones(2), 0.1)

    @pytest.mark.parametrize("dx", [0.0, -0.1, math.nan, math.inf])
    def test_simpson_weights_need_finite_positive_step(self, dx):
        # a NaN step passes a `dx <= 0` guard and gives NaN weights
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            numerics.simpson_weights(5, dx)

    @pytest.mark.parametrize("dx", [0.0, -0.1, math.nan, math.inf])
    def test_integrate_needs_finite_positive_step(self, dx):
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            integrate(np.ones(5), dx)


class TestTransforms:
    def test_centered_gaussian_real_positive(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(0.0, 0.0, 1.0, consts), grid)
        x = conjugate_position_grid(grid, consts)
        pos = to_position(psi, x)
        mid = np.abs(x) < 3.0
        assert np.max(np.abs(pos.values[mid].imag)) < 1e-10
        assert np.min(pos.values[mid].real) > 0.0
        assert abs(x[np.argmax(np.abs(pos.values))]) <= pos.dx

    def test_shifted_peak_location(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(0.0, 3.0, 1.0, consts), grid)
        pos = to_position(psi, conjugate_position_grid(grid, consts))
        x_peak = pos.grid[np.argmax(np.abs(pos.values))]
        assert abs(x_peak - 3.0) <= pos.dx

    def test_norm_preserved(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(2.0, -1.0, 1.0, consts), grid)
        pos = to_position(psi, conjugate_position_grid(grid, consts))
        assert pos.norm_squared() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_rows_of_a_leading_axis_equal_one_row_calls(self, n, rng):
        # the crossing sweep transforms its two projected parts by one call
        # per tau, on the 4x oversampled conjugate grid; at n = 4096 a row
        # reads 16384 source samples, where numpy reuses large temporaries
        p = GridSpec(n, 40.0).momenta()
        x = GridSpec(4 * n, math.pi * (n - 1) / (p[-1] - p[0])).momenta()
        rows_p = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        rows_x = rng.standard_normal((2, 4 * n)) + 1j * rng.standard_normal((2, 4 * n))
        to_x, to_p = momentum_to_position(rows_p, p, x, 1.0), position_to_momentum(rows_x, x, p, 1.0)
        for k in range(2):
            assert np.array_equal(to_x[k], momentum_to_position(rows_p[k], p, x, 1.0))
            assert np.array_equal(to_p[k], position_to_momentum(rows_x[k], x, p, 1.0))

    def test_round_trip(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(2.0, -1.0, 1.0, consts), grid)
        back = to_momentum(to_position(psi, conjugate_position_grid(grid, consts)), grid)
        rel = np.max(np.abs(back.values - psi.values)) / np.max(np.abs(psi.values))
        assert rel < 1e-6

    @pytest.mark.parametrize(
        "position_grid",
        [
            # conjugate 1x, the 4x half-offset crossing grid, the centered odd 4x+1 grid
            lambda g, c: conjugate_position_grid(g, c),
            lambda g, c: GridSpec(4 * g.n, math.pi * c.hbar / g.dp).momenta(),
            lambda g, c: centered_position_grid(g, c),
        ],
        ids=["conjugate", "crossing_4x", "centered_4x_plus_1"],
    )
    def test_fft_matches_dense_sum(self, consts, position_grid):
        grid = GridSpec(1024, 40.0)
        p = grid.momenta()
        x = position_grid(grid, consts)
        psi_p = make_gaussian(GaussianSpec(10.0, -5.0, 1.0, consts), grid).values
        ref_x = dense_fourier(psi_p, p, x, +1.0, consts.hbar)
        out_x = momentum_to_position(psi_p, p, x, consts.hbar)
        assert np.max(np.abs(out_x - ref_x)) <= 1e-12 * np.max(np.abs(ref_x))
        # back on a packet with a kink at the origin, as the reflected state has
        psi_x = np.where(x < 0.0, ref_x, 0.0)
        ref_p = dense_fourier(psi_x, x, p, -1.0, consts.hbar)
        out_p = position_to_momentum(psi_x, x, p, consts.hbar)
        assert np.max(np.abs(out_p - ref_p)) <= 1e-12 * np.max(np.abs(ref_p))

    @staticmethod
    def _grids(n, kind, hbar):
        p = GridSpec(n, 40.0).momenta()
        x_max = math.pi * hbar / GridSpec(n, 40.0).dp
        if kind == "crossing_4x":  # M = 4n, larger than the momentum grid
            return p, GridSpec(4 * n, math.pi * hbar * (n - 1) / (p[-1] - p[0])).momenta()
        if kind == "conjugate":  # M = n
            return p, GridSpec(n, x_max).momenta()
        return p, np.linspace(-x_max, x_max, 4 * n + 1)  # M = 4n, one sample short of the position grid

    @pytest.mark.parametrize("n,kind", [(1024, "crossing_4x"), (1024, "conjugate"), (1792, "centred_4x_plus_1")])
    @pytest.mark.parametrize("lead", [(), (3, 2)], ids=["one_row", "stack"])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_slices_equal_folded_oracle(self, n, kind, lead, hbar, rng):
        # the box filled and read by slices against zero-fill, reshape-sum,
        # roll and fancy gather, both given the library's twiddles; on the
        # centred grid the source (7169 -> 1792) and then the destination
        # (1792 -> 7169) is one sample longer than the box
        p, x = self._grids(n, kind, hbar)
        for src, dst, sign in ((p, x, +1.0), (x, p, -1.0)):
            values = rng.standard_normal(lead + (src.size,)) + 1j * rng.standard_normal(lead + (src.size,))
            got = numerics._fourier_apply(values, src, dst, sign, hbar)
            assert np.array_equal(got, folded_fourier(values, src, dst, sign, hbar))

    @pytest.mark.parametrize("n,kind", [(1024, "crossing_4x"), (1024, "conjugate"), (1792, "centred_4x_plus_1")])
    def test_short_twiddle_tables_move_a_transform_by_eps(self, n, kind, consts):
        # against one exponential per twiddle sample, and the scale applied
        # after the phase, the outputs move by a few eps of their peak
        p, x = self._grids(n, kind, consts.hbar)
        psi_p = make_gaussian(GaussianSpec(10.0, -5.0, 1.0, consts), GridSpec(n, 40.0)).values
        psi_x = np.where(x < 0.0, momentum_to_position(psi_p, p, x, consts.hbar), 0.0)
        for values, src, dst, sign in ((psi_p, p, x, +1.0), (psi_x, x, p, -1.0)):
            got = numerics._fourier_apply(values, src, dst, sign, consts.hbar)
            ref = folded_fourier(values, src, dst, sign, consts.hbar, twiddles=direct_twiddles)
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1024, 7169, 16384])
    def test_phase_table_is_the_linear_phase(self, n):
        k = -(n // 2) + np.arange(n)
        for phase0, theta, scale in ((0.0, 1e-3, 1.0), (0.3, math.pi / n, 0.7), (-1.0, -5.8 / n, 2.0)):
            table = numerics._phase_table(phase0, theta, -(n // 2), n, scale)
            assert table.shape == (n,)
            assert np.max(np.abs(table - scale * np.exp(1j * (phase0 + theta * k)))) <= 8.0 * np.finfo(float).eps * scale

    @pytest.mark.parametrize(
        "x",
        [np.linspace(-0.5, 0.5, 41), np.linspace(-40.0, 40.0, 1000), np.array([0.0]), np.full(8, 1.0)],
        ids=["narrow", "non_integer_ratio", "one_point", "zero_step"],
    )
    def test_non_conjugate_grids_rejected(self, consts, x):
        p = GridSpec(1024, 40.0).momenta()
        with pytest.raises(ValueError):
            momentum_to_position(np.ones(p.size, complex), p, x, consts.hbar)
        with pytest.raises(ValueError):
            position_to_momentum(np.ones(x.size, complex), x, p, consts.hbar)

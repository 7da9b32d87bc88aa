"""Special functions, quadrature, grids, and Fourier transforms."""

import math

import numpy as np
import pytest
import scipy.integrate

from qarrival import GaussianSpec, GridSpec, PhysConsts, bessel_j, gamma_fn, integrate
from qarrival.numerics import _bessel_asymptotic, _bessel_series, momentum_to_position, position_to_momentum
from qarrival.states import (
    centered_position_grid,
    conjugate_position_grid,
    make_gaussian,
    to_momentum,
    to_position,
)
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


class TestBessel:
    def test_zero_argument(self):
        assert bessel_j(0.75, 0.0) == 0.0
        assert bessel_j(0.0, 0.0) == 1.0
        with pytest.raises(ValueError):
            bessel_j(-0.25, 0.0)

    def test_half_order_zero_of_sin(self):
        # J_{1/2}(z) = sqrt(2/(pi z)) sin z vanishes at z = pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-15

    def test_against_brute_series(self):
        # frozen oracle: brute ascending series at z = 1
        assert bessel_j(-0.25, 1.0) == pytest.approx(0.6693848172615744, abs=1e-14)
        assert bessel_j(-0.25, 1.0) == pytest.approx(brute_series_j(-0.25, 1.0), abs=1e-13)
        assert bessel_j(0.75, 1.0) == pytest.approx(brute_series_j(0.75, 1.0), abs=1e-13)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0.75, -1.0)

    @pytest.mark.parametrize("nu", [-0.25, 0.75])
    def test_branch_consistency_window(self, nu):
        # the two branches must agree on z in [8, 12] to 1e-9 (50-point grid)
        z = np.linspace(8.0, 12.0, 50)
        series = _bessel_series(nu, z)
        asym = _bessel_asymptotic(nu, z)
        bound = 1e-9 * np.maximum(1.0, np.abs(series))
        assert np.all(np.abs(series - asym) <= bound)

    @pytest.mark.parametrize("z", [0.5, 1.0, 5.0, 20.0])
    def test_wronskian(self, z):
        # J_nu J'_{-nu} - J'_nu J_{-nu} = -2 sin(nu pi) / (pi z), with the
        # derivative from the recurrence J'_nu = J_{nu-1} - (nu/z) J_nu
        def deriv(order):
            return bessel_j(order - 1.0, z) - (order / z) * bessel_j(order, z)

        nu = 0.25
        w = bessel_j(nu, z) * deriv(-nu) - deriv(nu) * bessel_j(-nu, z)
        exact = -2.0 * math.sin(nu * math.pi) / (math.pi * z)
        assert abs(w - exact) / abs(exact) < 1e-8

    @pytest.mark.parametrize("nu", [-0.25, 0.25, 0.75, 1.25])
    @pytest.mark.parametrize("z", [0.5, 2.0, 8.0, 15.0, 30.0])
    def test_recurrence(self, nu, z):
        lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
        rhs = (2.0 * nu / z) * bessel_j(nu, z)
        scale = max(abs(rhs), abs(bessel_j(nu, z)), 1e-3)
        assert abs(lhs - rhs) / scale < 1e-9

    def test_series_overflow_signalled(self):
        # the raw ascending series must signal divergence rather than return junk
        with pytest.raises(OverflowError):
            _bessel_series(0.75, np.array([800.0]))

    def test_large_argument_no_overflow(self):
        # asymptotic branch covers z up to 1e4 without numeric trouble
        for z in (1e2, 1e3, 1e4):
            val = bessel_j(0.75, z)
            assert math.isfinite(val)
            assert abs(val) < 1.0


class TestGamma:
    def test_exact_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, abs=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_three_quarters_against_quadrature(self):
        # independent oracle: Gamma(3/4) = int_0^inf t^(-1/4) e^-t dt, split as an
        # exact alternating series on [0,1] plus adaptive quadrature on [1, inf)
        head = sum((-1.0) ** k / (math.factorial(k) * (k + 0.75)) for k in range(40))
        tail, err = scipy.integrate.quad(
            lambda t: t ** (-0.25) * math.exp(-t), 1.0, 60.0, limit=300, epsabs=1e-14, epsrel=1e-14
        )
        oracle = head + tail
        assert err < 1e-12
        assert gamma_fn(0.75) == pytest.approx(oracle, abs=5e-13)
        # 12 significant digits required
        assert gamma_fn(0.75) == pytest.approx(1.2254167024651776, rel=1e-13)

    def test_poles(self):
        for x in (0.0, -1.0, -2.0):
            with pytest.raises(ValueError):
                gamma_fn(x)

    def test_reflection_branch(self):
        # Gamma(-1/4) via reflection; check against recurrence Gamma(x+1) = x Gamma(x)
        assert gamma_fn(-0.25) == pytest.approx(gamma_fn(0.75) / (-0.25), rel=1e-13)


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

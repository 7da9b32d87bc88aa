"""Gaussian packets, the reflected (Zeno) state, and origin derivatives."""

import math

import numpy as np
import pytest

from qarrival import (
    GaussianSpec,
    GridSpec,
    Representation,
    WaveFunction,
    integrate,
    make_gaussian,
    make_reflected_state,
    reflected_position_state,
    to_momentum,
    to_position,
)
from qarrival.operators import kinetic_energy_density
from qarrival.states import (
    REFLECTED_OVERSAMPLE,
    centered_position_grid,
    conjugate_position_grid,
    position_gaussian,
)
from util_origin import derivative_at_origin, value_at_origin


class TestWaveFunctionValidation:
    GRID = np.array([-1.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "grid,values,message",
        [
            # dx = inf and norm inf before
            ([-math.inf, 0.0, math.inf], [1.0, 1.0, 1.0], "grid must be finite"),
            ([-1.0, math.nan, 1.0], [1.0, 1.0, 1.0], "grid must be finite"),
            # failed only later, inside simpson_weights ("dx must be positive, got -1.0")
            ([1.0, 0.0, -1.0], [1.0, 1.0, 1.0], "grid must be increasing, got step -1.0"),
            ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], "grid must be increasing, got step 0.0"),
            ([0.0, 1.0, 2.5], [1.0, 1.0, 1.0], "uniformly spaced"),
            # norm nan before
            (GRID, [1.0, math.nan, 1.0], "values must be finite"),
            (GRID, [1.0, complex(0.0, math.inf), 1.0], "values must be finite"),
        ],
        ids=["inf_grid", "nan_grid", "decreasing", "constant", "non_uniform", "nan_value", "inf_value"],
    )
    def test_rejected(self, grid, values, message, consts):
        with pytest.raises(ValueError, match=message):
            WaveFunction(Representation.MOMENTUM, np.array(grid), np.array(values), consts)

    def test_uniform_to_rounding_accepted(self, consts):
        grid = np.linspace(-3.0, 7.0, 101)  # steps differ in their last bits
        assert np.ptp(np.diff(grid)) > 0.0
        psi = WaveFunction(Representation.POSITION, grid, np.ones(101), consts)
        assert psi.dx == grid[1] - grid[0]

    def test_fine_grid_rounding_accepted(self, consts):
        # the conditional preset's box at nx = 16001: steps differ by 1.9e-12 of the step
        grid = np.linspace(0.0, 40.0, 16001)
        assert np.ptp(np.diff(grid)) > 1e-12 * (grid[1] - grid[0])
        WaveFunction(Representation.POSITION, grid, np.ones(grid.size), consts)

    def test_one_moved_sample_rejected(self, consts):
        grid = np.linspace(0.0, 40.0, 16001)
        grid[8000] += 1e-6 * (grid[1] - grid[0])
        with pytest.raises(ValueError, match="uniformly spaced"):
            WaveFunction(Representation.POSITION, grid, np.ones(grid.size), consts)


class TestMakeGaussian:
    def test_symmetric_packet(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(0.0, 0.0, 1.0, consts), grid)
        p = psi.grid
        i_plus = np.argmin(np.abs(p - 1.0))
        i_minus = np.argmin(np.abs(p + 1.0))
        assert psi.values[i_plus] == pytest.approx(psi.values[i_minus], rel=1e-12)
        assert np.max(np.abs(psi.values.imag)) < 1e-14

    def test_mean_momentum(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(5.0, 0.0, 1.0, consts), grid)
        mean = integrate(psi.grid * np.abs(psi.values) ** 2, psi.dx)
        assert mean == pytest.approx(5.0, abs=1e-6)

    def test_unit_norm(self, fast_packet):
        assert fast_packet.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_grid_coverage_error(self, consts):
        with pytest.raises(ValueError, match="6-sigma"):
            make_gaussian(GaussianSpec(18.0, 0.0, 1.0, consts), GridSpec(256, 20.0))

    def test_mean_position(self, consts):
        grid = GridSpec(512, 20.0)
        psi = make_gaussian(GaussianSpec(2.0, -1.5, 1.0, consts), grid)
        pos = to_position(psi, conjugate_position_grid(grid, consts))
        dens = np.abs(pos.values) ** 2
        x_mean = integrate(pos.grid * dens, pos.dx)
        assert x_mean == pytest.approx(-1.5, abs=1e-5)


class TestPositionGaussian:
    def test_norm_center_and_phase(self, consts):
        # the conditional-mode packet: rectangle-rule norm 1, centred at x0, phase e^{i p0 x / hbar}
        x = np.linspace(0.0, 40.0, 4001)
        psi = position_gaussian(GaussianSpec(-10.0, 8.0, 0.5, consts), x)
        dens = np.abs(psi.values) ** 2
        assert psi.rep is Representation.POSITION
        assert float(np.sum(dens) * psi.dx) == pytest.approx(1.0, abs=1e-14)
        assert float(np.sum(x * dens) * psi.dx) == pytest.approx(8.0, abs=1e-10)
        phase_step = np.angle(psi.values[1:] * np.conj(psi.values[:-1]))
        assert phase_step == pytest.approx(-10.0 * psi.dx, abs=1e-12)

    @pytest.mark.parametrize("x0,fits", [(6.0, True), (34.0, True), (5.9, False), (36.0, False), (60.0, False)])
    def test_box_must_hold_six_sigma(self, consts, x0, fits):
        # sigma_x = 1 in the box [0, 40]: x0 - 6 and x0 + 6 must both lie in it, as
        # make_gaussian asks of p0 +- 6 sigma_p on the momentum grid
        x = np.linspace(0.0, 40.0, 401)
        spec = GaussianSpec(-10.0, x0, 0.5, consts)
        if fits:
            position_gaussian(spec, x)
        else:
            with pytest.raises(ValueError, match="clips the 6-sigma window"):
                position_gaussian(spec, x)


class TestReflectedState:
    def test_zero_at_origin(self, reflected_spec, reflected_grid):
        pos = reflected_position_state(reflected_spec, reflected_grid)
        assert abs(value_at_origin(pos)) <= 1e-8
        # the x = 0 construction sample is exactly zero
        i0 = np.argmin(np.abs(pos.grid))
        assert pos.grid[i0] == 0.0
        assert pos.values[i0] == 0.0

    def test_vanishes_on_positive_axis(self, reflected_spec, reflected_grid):
        pos = reflected_position_state(reflected_spec, reflected_grid)
        peak = np.max(np.abs(pos.values))
        assert np.max(np.abs(pos.values[pos.grid > 0.0])) <= 1e-8 * peak

    def test_unit_norm(self, reflected_packet):
        assert reflected_packet.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_leak_precondition(self, consts):
        # packet centered too close to the origin violates the 1e-6 leak bound
        spec = GaussianSpec(p0=1.0, x0=-2.0, sigma_p=0.25, consts=consts)
        with pytest.raises(ValueError, match="leak"):
            make_reflected_state(spec, GridSpec(1024, 40.0))

    def test_wrong_direction_rejected(self, consts):
        spec = GaussianSpec(p0=-1.0, x0=-20.0, sigma_p=0.125, consts=consts)
        with pytest.raises(ValueError, match="p0 > 0"):
            make_reflected_state(spec, GridSpec(1024, 40.0))

    def test_momentum_kernel_identity(self, reflected_spec, reflected_grid, reflected_packet):
        # <psi| p delta(x) p |psi> = hbar^2 |psi'(0)|^2, with psi'(0) the
        # central finite-difference derivative (the Dirichlet-midpoint value
        # of the kinked state)
        hbar = reflected_packet.consts.hbar
        lhs, _ = kinetic_energy_density(reflected_packet)
        pos = reflected_position_state(reflected_spec, reflected_grid)
        rhs = hbar**2 * abs(derivative_at_origin(pos)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_nonzero_derivative(self, reflected_spec, reflected_grid):
        pos = reflected_position_state(reflected_spec, reflected_grid)
        d = derivative_at_origin(pos)
        assert abs(d) > 1e-5


class TestDerivativeAtOrigin:
    def test_even_gaussian(self, consts):
        # the position form of make_gaussian(GaussianSpec(0, 0, 1)): sigma_x = 1/2
        x = np.linspace(-0.5, 0.5, 41)
        vals = ((2.0 * math.pi * 0.25) ** (-0.25) * np.exp(-(x**2))).astype(complex)
        pos = WaveFunction(Representation.POSITION, x, vals, consts)
        assert abs(derivative_at_origin(pos)) < 1e-8

    def test_linear_times_gaussian(self, consts):
        # psi(x) = x e^(-x^2): psi'(0) = 1 analytically (unnormalized samples)
        x = np.linspace(-0.4, 0.4, 33)
        vals = (x * np.exp(-(x**2))).astype(complex)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        assert derivative_at_origin(psi) == pytest.approx(1.0, abs=1e-6)

    def test_requires_origin_neighborhood(self, consts):
        x = np.linspace(1.0, 2.0, 21)
        psi = WaveFunction(Representation.POSITION, x, np.ones(21, complex), consts)
        with pytest.raises(ValueError, match="neighborhood of x = 0"):
            derivative_at_origin(psi)

    def test_offset_grid_still_fourth_order(self, consts):
        # grid straddling 0 without containing it (half-offset style)
        x = np.arange(-10.5, 11.0, 1.0) * 0.02
        vals = np.sin(3.0 * x).astype(complex)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        assert derivative_at_origin(psi) == pytest.approx(3.0, abs=1e-5)


class TestRoundTrip:
    def test_momentum_position_momentum(self, fast_packet, grid, consts):
        pos = to_position(fast_packet, conjugate_position_grid(grid, consts))
        back = to_momentum(pos, grid)
        rel = np.max(np.abs(back.values - fast_packet.values)) / np.max(np.abs(fast_packet.values))
        assert rel < 1e-6

    def test_centered_grid_contains_zero(self, grid, consts):
        x = centered_position_grid(grid, consts)
        assert x.size == REFLECTED_OVERSAMPLE * grid.n + 1
        assert 0.0 in x

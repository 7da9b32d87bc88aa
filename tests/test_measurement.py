"""Half-line propagation, sequential measurements, crossing, and classical oracles."""

import math
import re
import warnings

import numpy as np
import pytest

from qarrival import (
    GaussianSpec,
    GridSpec,
    MeasurementChain,
    PhysConsts,
    Propagator,
    Representation,
    WaveFunction,
    WindowSpec,
    chain_final_state,
    classical_arrival,
    classical_current_moment,
    classical_stopwatch,
    conditional_distribution,
    crossing_probability,
    free_evolve,
    halfline_propagate,
    make_gaussian,
    make_reflected_state,
    make_zeno_chain,
    measurement,
    simpson_weights,
    small_time_current_law,
    to_momentum,
    to_position,
    window_project,
)
from qarrival.operators import _tau_blocks
from qarrival.states import conjugate_position_grid
from util_box import gather_evolve, odd_extension_halfline
from util_dense import dense_halfline
from util_pertau import crossing_per_tau, free_phase


def analytic_free_gaussian(x, t, p0, x0, sigma_x, m=1.0, hbar=1.0):
    """Closed-form free evolution of a normalized minimum-uncertainty Gaussian."""
    s = 1.0 + 1j * hbar * t / (2.0 * m * sigma_x**2)
    pref = (2.0 * math.pi * sigma_x**2) ** (-0.25) / np.sqrt(s)
    return pref * np.exp(
        -((x - x0 - p0 * t / m) ** 2) / (4.0 * sigma_x**2 * s)
        + 1j * (p0 * (x - x0) - p0**2 * t / (2.0 * m)) / hbar
    )


@pytest.fixture(scope="module")
def wall_packet(consts):
    # incoming packet on the x > 0 half-line, far from the wall
    x = np.linspace(0.0, 40.0, 6001)
    vals = analytic_free_gaussian(x, 0.0, -3.0, 20.0, 0.5)
    return WaveFunction(Representation.POSITION, x, vals, consts)


class TestHalflinePropagate:
    def test_dirichlet_zero_at_boundary(self, wall_packet):
        out = halfline_propagate(wall_packet, 0.3, 0.0)
        peak = np.max(np.abs(out.values))
        assert abs(out.values[0]) <= 1e-6 * peak

    def test_norm_preserved(self, wall_packet):
        out = halfline_propagate(wall_packet, 0.5, 0.0)
        dx = out.dx
        assert np.sum(np.abs(out.values) ** 2) * dx == pytest.approx(1.0, abs=1e-4)

    def test_far_from_boundary_matches_free(self, wall_packet):
        out = halfline_propagate(wall_packet, 0.3, 0.0)
        exact = analytic_free_gaussian(out.grid, 0.3, -3.0, 20.0, 0.5)
        peak = np.max(np.abs(exact))
        assert np.max(np.abs(out.values - exact)) <= 1e-6 * peak

    def test_requires_positive_time_step(self, wall_packet):
        with pytest.raises(ValueError):
            halfline_propagate(wall_packet, 0.0, 0.1)

    @pytest.mark.parametrize("nx", [2000, 2001])
    @pytest.mark.parametrize("box", [(0.0, 20.0), (-20.0, 0.0)], ids=["wall_first", "wall_last"])
    def test_equals_odd_extension_state(self, consts, nx, box):
        # bitwise the odd extension built as a WaveFunction and evolved with
        # an index gather onto its repeated last sample
        x = np.linspace(*box, nx)
        side = 1.0 if box[0] == 0.0 else -1.0
        psi = WaveFunction(Representation.POSITION, x, analytic_free_gaussian(x, 0.0, -8.0 * side, 9.0 * side, 0.7), consts)
        out = halfline_propagate(psi, 0.45, 0.2)
        assert out.values.tobytes() == odd_extension_halfline(psi, 0.45, 0.2).tobytes()

    @pytest.mark.parametrize("t1,t0", [(math.nan, 0.0), (0.3, math.nan), (math.inf, 0.0), (0.3, -math.inf)])
    def test_non_finite_time_named(self, wall_packet, t1, t0):
        # a NaN step would pass a `dt <= 0` guard and an infinite one evolve
        # into NaN values; both are rejected naming the two times
        with pytest.raises(ValueError, match=re.escape(f"got t1 = {t1}, t0 = {t0}")):
            halfline_propagate(wall_packet, t1, t0)

    @pytest.mark.parametrize(
        "sign,x",
        [(1.0, np.linspace(0.0, 20.0, 801)), (-1.0, np.linspace(-20.0, 0.0, 801))],
        ids=["pos", "neg"],
    )
    def test_matches_dense_kernel_sum(self, consts, sign, x):
        # packet at |x| = 6 heading into the wall, reflecting by t = 0.8
        vals = analytic_free_gaussian(x, 0.0, -8.0 * sign, 6.0 * sign, 0.5)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        out = halfline_propagate(psi, 0.8, 0.0)
        ref = dense_halfline(psi, 0.8, sign * x >= -1e-12)
        assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [0.05, 0.8])
    @pytest.mark.parametrize(
        "sign,x",
        [(1.0, np.linspace(0.0, 20.0, 801)), (-1.0, np.linspace(-20.0, 0.0, 801))],
        ids=["pos", "neg"],
    )
    def test_matches_image_solution(self, consts, sign, x, t):
        # the odd packet G(x) - G(-x) evolves into G(x, t) - G(-x, t) on the
        # half-line; at t = 0.05, pi hbar t / (m dx) = 6.3 is below the grid's
        # extent of 20, where a rectangle sum over the chirp kernel aliases
        p0, x0 = -8.0 * sign, 6.0 * sign

        def image(t):
            return analytic_free_gaussian(x, t, p0, x0, 0.5) - analytic_free_gaussian(-x, t, p0, x0, 0.5)

        psi = WaveFunction(Representation.POSITION, x, image(0.0), consts)
        out = halfline_propagate(psi, t, 0.0)
        exact = image(t)
        assert np.max(np.abs(out.values - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_grid_straddling_the_wall_rejected(self, consts):
        x = np.linspace(-10.0, 10.0, 801)
        vals = analytic_free_gaussian(x, 0.0, 1.0, 0.0, 1.0)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        with pytest.raises(ValueError, match="wall x = 0"):
            halfline_propagate(psi, 0.1, 0.0)

    @pytest.mark.parametrize(
        "x", [np.linspace(1.0, 21.0, 801), np.linspace(-21.0, -1.0, 801)], ids=["pos", "neg"]
    )
    def test_grid_must_end_at_the_wall(self, consts, x):
        vals = analytic_free_gaussian(x, 0.0, 0.0, float(np.mean(x)), 1.0)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        with pytest.raises(ValueError, match=rf"wall x = 0, got ends at x = {x[0]} and x = {x[-1]}"):
            halfline_propagate(psi, 0.1, 0.0)


class TestFreeEvolve:
    def test_momentum_phase(self, fast_packet):
        out = free_evolve(fast_packet, 0.37)
        assert out.rep is Representation.MOMENTUM
        assert np.array_equal(out.values, free_phase(fast_packet.values, fast_packet.grid, 0.37, fast_packet.consts))

    @pytest.mark.parametrize("nx", [800, 801])
    def test_position_round_trip_and_norm(self, consts, nx):
        x = np.linspace(-20.0, 20.0, nx)
        psi = WaveFunction(Representation.POSITION, x, analytic_free_gaussian(x, 0.0, 3.0, -2.0, 0.5), consts)
        out = free_evolve(psi, 0.6)
        back = free_evolve(out, -0.6)
        assert np.max(np.abs(back.values - psi.values)) <= 1e-13
        box = slice(0, nx - nx % 2)  # an odd grid's last sample repeats the first
        mass = np.sum(np.abs(psi.values[box]) ** 2)
        assert np.sum(np.abs(out.values[box]) ** 2) == pytest.approx(mass, rel=1e-14)

    @pytest.mark.parametrize("nx", [800, 801])
    @pytest.mark.parametrize("consts", [PhysConsts(), PhysConsts(2.0, 0.5)], ids=["unit", "m2_hbar_half"])
    def test_position_equals_gather_form(self, consts, nx):
        # bitwise the box evolution that gathers an odd grid's last sample by index
        x = np.linspace(-20.0, 20.0, nx)
        psi = WaveFunction(Representation.POSITION, x, analytic_free_gaussian(x, 0.0, 3.0, -2.0, 0.5), consts)
        assert free_evolve(psi, 0.6).values.tobytes() == gather_evolve(psi, 0.6).tobytes()

    @pytest.mark.parametrize("nx", [800, 801])
    def test_centred_packet_matches_analytic(self, consts, nx):
        x = np.linspace(-20.0, 20.0, nx)
        psi = WaveFunction(Representation.POSITION, x, analytic_free_gaussian(x, 0.0, 2.0, 0.0, 0.5), consts)
        out = free_evolve(psi, 0.5)
        exact = analytic_free_gaussian(x, 0.5, 2.0, 0.0, 0.5)
        assert np.max(np.abs(out.values - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.fixture(scope="module")
def pos_packet(fast_packet, grid, consts):
    return to_position(fast_packet, conjugate_position_grid(grid, consts))


class TestWindowProject:
    def test_full_grid_window_is_identity(self, pos_packet):
        x = pos_packet.grid
        w = WindowSpec(0.0, float(x[-1]))
        out = window_project(pos_packet, w)
        assert np.array_equal(out.values, pos_packet.values)

    def test_disjoint_windows_orthogonal(self, pos_packet):
        a = window_project(pos_packet, WindowSpec(-5.0, 2.0))
        b = window_project(a, WindowSpec(5.0, 2.0))
        assert np.max(np.abs(b.values)) == 0.0

    def test_idempotent(self, pos_packet):
        w = WindowSpec(-4.0, 3.0)
        once = window_project(pos_packet, w)
        twice = window_project(once, w)
        assert np.array_equal(once.values, twice.values)

    def test_window_outside_grid(self, pos_packet):
        # the projector and the chain raise one message, naming the window
        w = WindowSpec(100.0, 1.0)
        message = re.escape(f"window {w} extends outside the position grid")
        with pytest.raises(ValueError, match=message):
            window_project(pos_packet, w)
        with pytest.raises(ValueError, match=message):
            MeasurementChain(pos_packet, ((0.1, w),))

    def test_samples_are_the_window_predicate(self, rng):
        # the slice of samples holds exactly the x with |x - center| <= half_width,
        # also where a sample lies on an edge (x = 4.5 and 5.5 below)
        x = np.linspace(0.0, 10.0, 101)
        centers = np.concatenate([[5.0, 0.0, 10.0, 0.05, 3.3], rng.uniform(0.0, 10.0, 40)])
        for c in centers:
            for half_width in (0.5, 0.05, 0.01, 7.0):
                w = WindowSpec(float(c), half_width)
                mask = np.zeros(x.size, dtype=bool)
                mask[w.samples(x)] = True
                assert np.array_equal(mask, np.abs(x - c) <= half_width)
        assert WindowSpec(5.0, 0.5).samples(x) == slice(45, 56)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg_inf"])
    def test_non_finite_center_rejected(self, center):
        # a NaN centre selects no sample, so it would read as probability 0
        with pytest.raises(ValueError, match="center must be finite"):
            WindowSpec(center, 1.0)


class TestSequentialProbability:
    def test_single_full_window(self, pos_packet):
        x = pos_packet.grid
        full = WindowSpec(0.0, float(x[-1]))
        chain = MeasurementChain(pos_packet, ((0.1, full),))
        assert chain_final_state(chain)[1] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_nonincreasing(self, pos_packet):
        w = WindowSpec(-4.0, 4.0)
        probs = []
        for k in (1, 2, 3):
            events = tuple((0.05 * i, w) for i in range(1, k + 1))
            probs.append(chain_final_state(MeasurementChain(pos_packet, events))[1])
        assert probs[0] >= probs[1] >= probs[2]

    def test_full_window_insertion_invariance(self, pos_packet):
        x = pos_packet.grid
        full = WindowSpec(0.0, float(x[-1]))
        w = WindowSpec(-4.0, 4.0)
        base = chain_final_state(MeasurementChain(pos_packet, ((0.1, w),)))[1]
        with_full = chain_final_state(MeasurementChain(pos_packet, ((0.05, full), (0.1, w))))[1]
        assert with_full == pytest.approx(base, abs=1e-10)

    def test_times_must_increase(self, pos_packet):
        w = WindowSpec(-4.0, 4.0)
        with pytest.raises(ValueError, match="increasing"):
            MeasurementChain(pos_packet, ((0.2, w), (0.1, w)))

    def test_first_event_before_time_zero_rejected(self, pos_packet):
        w = WindowSpec(-4.0, 4.0)
        with pytest.raises(ValueError, match="precedes the initial time"):
            MeasurementChain(pos_packet, ((-0.1, w), (0.1, w)))

    @pytest.mark.parametrize("times", [(math.nan,), (0.1, math.nan), (0.1, math.inf)], ids=["nan", "later_nan", "inf"])
    def test_non_finite_event_time_rejected(self, pos_packet, times):
        # NaN passes both `<=` order checks, and the chain would then skip its evolution
        w = WindowSpec(-4.0, 4.0)
        with pytest.raises(ValueError, match="event times must be finite"):
            MeasurementChain(pos_packet, tuple((t, w) for t in times))

    @pytest.mark.parametrize(
        "n_proj,total_time,match",
        [(2.5, 1.0, "integer n_proj"), (0, 1.0, "integer n_proj"), (3, math.nan, "finite total_time"),
         (3, math.inf, "finite total_time"), (3, 0.0, "finite total_time")],
    )
    def test_zeno_chain_arguments_checked(self, pos_packet, n_proj, total_time, match):
        # n_proj = 2.5 would put its last event at 1.2, past total_time
        with pytest.raises(ValueError, match=match):
            make_zeno_chain(pos_packet, n_proj, total_time)

    def test_event_at_time_zero_projects_the_initial_state(self, pos_packet):
        # the chain starts at t = 0, so an event there projects without evolving
        w = WindowSpec(-4.0, 4.0)
        final, _ = chain_final_state(MeasurementChain(pos_packet, ((0.0, w),)))
        assert np.array_equal(final.values, window_project(pos_packet, w).values)

    @pytest.mark.parametrize(
        "x,w",
        [
            (np.linspace(0.0, 20.0, 801), WindowSpec(4.0, 1.0)),
            (np.linspace(-20.0, 0.0, 801), WindowSpec(-4.0, 1.0)),
        ],
        ids=["pos", "neg"],
    )
    def test_halfline_chain_is_propagate_then_project(self, consts, x, w):
        # a packet at |x| = 6 heading into the wall, measured at t = 0.4
        sign = np.sign(w.center)
        vals = analytic_free_gaussian(x, 0.0, -8.0 * sign, 6.0 * sign, 0.5)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        final, prob = chain_final_state(MeasurementChain(psi, ((0.4, w),), Propagator.HALFLINE))
        expected = window_project(halfline_propagate(psi, 0.4, 0.0), w)
        assert np.array_equal(final.values, expected.values)
        assert prob == pytest.approx(np.sum(np.abs(expected.values) ** 2) * expected.dx, rel=1e-12)
        assert prob > 0.01

    @pytest.mark.parametrize(
        "x,w",
        [
            (np.linspace(1.0, 21.0, 801), WindowSpec(10.0, 2.0)),
            (np.linspace(-21.0, -1.0, 801), WindowSpec(-10.0, 2.0)),
        ],
        ids=["pos", "neg"],
    )
    def test_halfline_chain_grid_must_end_at_the_wall(self, consts, x, w):
        # rejected at construction, before any propagation
        vals = analytic_free_gaussian(x, 0.0, 0.0, float(np.mean(x)), 1.0)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        with pytest.raises(ValueError, match="wall x = 0"):
            MeasurementChain(psi, ((0.1, w),), Propagator.HALFLINE)

    def test_zeno_limit_reproduces_reflected_state(self, consts, grid):
        # dense theta(-x) projections on a left-half packet approach the
        # restricted (image-form) dynamics, i.e. the reflected state
        base = GaussianSpec(1.5, -5.0, 0.5, consts)
        psi_x = to_position(make_gaussian(base, grid), conjugate_position_grid(grid, consts))
        total_time = 0.1  # one tenth of m sigma_x^2 / hbar
        chain = make_zeno_chain(psi_x, 40, total_time)
        final, prob = chain_final_state(chain)
        assert prob == pytest.approx(1.0, abs=1e-4)
        final_p = to_momentum(final, grid)
        evolved = GaussianSpec(base.p0, base.x0 + base.p0 * total_time, base.sigma_p, consts)
        target = make_reflected_state(evolved, grid)
        w = simpson_weights(grid.n, grid.dp)
        fid = abs(np.sum(w * np.conj(final_p.values) * target.values))
        fid /= math.sqrt(final_p.norm_squared())
        assert fid >= 0.99


class TestConditionalDistribution:
    @staticmethod
    def _initial(consts, p0, sigma_p, xc, nx=6001, box=(0.0, 40.0)):
        x = np.linspace(*box, nx)
        sigma_x = consts.hbar / (2.0 * sigma_p)
        vals = analytic_free_gaussian(x, 0.0, p0, xc, sigma_x)
        psi = WaveFunction(Representation.POSITION, x, vals, consts)
        norm = math.sqrt(np.sum(np.abs(vals) ** 2) * psi.dx)
        return WaveFunction(Representation.POSITION, x, vals / norm, consts)

    def test_two_peaks_for_broad_packet(self, consts):
        # broad incoming packet, mid-reflection at the first measurement
        psi = self._initial(consts, p0=-10.0, sigma_p=0.5, xc=8.0)
        xbar1, t1, t2, delta = 4.0, 0.8, 1.05, 0.5
        centers = np.arange(0.25, 12.0, 0.125)
        cond = conditional_distribution(psi, (xbar1, t1, delta), t2, centers, delta)
        sep = 10.0 * (t2 - t1)
        # two dominant local maxima at xbar1 -+ sep, each within one window width
        local = [
            i
            for i in range(1, len(centers) - 1)
            if cond[i] > cond[i - 1] and cond[i] > cond[i + 1]
        ]
        local.sort(key=lambda i: -cond[i])
        top2 = sorted(centers[i] for i in local[:2])
        assert abs(top2[0] - (xbar1 - sep)) <= delta
        assert abs(top2[1] - (xbar1 + sep)) <= delta

    def test_narrow_control_single_peak(self, consts):
        # tight packet far from the wall: direct peak only, reflected < 5%
        psi = self._initial(consts, p0=-10.0, sigma_p=2.0, xc=20.0)
        xbar1, t1, t2, delta = 12.0, 0.8, 1.05, 0.5
        centers = np.arange(0.25, 20.0, 0.125)
        cond = conditional_distribution(psi, (xbar1, t1, delta), t2, centers, delta)
        sep = 10.0 * (t2 - t1)
        direct = cond[np.argmin(np.abs(centers - (xbar1 - sep)))]
        reflected = cond[np.argmin(np.abs(centers - (xbar1 + sep)))]
        assert abs(centers[np.argmax(cond)] - (xbar1 - sep)) <= delta
        assert reflected <= 0.05 * direct

    def test_partition_sums_to_one(self, consts):
        # disjoint exhaustive second windows: conditional masses sum to 1.
        # The first window must contain the packet without truncating it: a
        # sharp amplitude cut creates 1/p momentum tails whose fast components
        # reach the far wall of the finite domain before t2 and reflect there
        # (an O(1e-3) real reflection, not a quadrature artifact).
        psi = self._initial(consts, p0=-5.0, sigma_p=0.5, xc=10.0, nx=4097, box=(0.0, 16.0))
        xbar1, t1, t2, delta = 8.0, 0.4, 0.65, 0.5
        x = psi.grid
        # seams placed between samples so each sample belongs to exactly one window
        centers = np.arange(x[0] + delta - psi.dx / 2.0, x[-1] - delta, 2.0 * delta)
        cond = conditional_distribution(psi, (xbar1, t1, 6.0), t2, centers, delta)
        assert np.sum(cond) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("nx,t2", [(4001, 0.81), (401, 1.05), (4001, 1.05)])
    def test_unitary_over_the_whole_box(self, consts, nx, t2):
        # windows partitioning [0, 40] hold all the mass: the box's walls at
        # x = 0 and x = 40 keep it in, for a short second step and a coarse grid alike
        psi = self._initial(consts, p0=-10.0, sigma_p=0.5, xc=8.0, nx=nx)
        delta = 0.5
        x = psi.grid
        # seams placed between samples so each sample belongs to exactly one window
        centers = np.arange(x[0] + delta - psi.dx / 2.0, x[-1] - delta, 2.0 * delta)
        cond = conditional_distribution(psi, (4.0, 0.8, delta), t2, centers, delta)
        assert abs(np.sum(cond) - 1.0) <= 1e-12

    @pytest.mark.parametrize("box", [(0.0, 40.0), (-40.0, 0.0)], ids=["wall_first", "wall_last"])
    def test_masses_equal_masked_sums(self, consts, box):
        # each second window's mass is bitwise the sum over its boolean mask
        side = 1.0 if box[0] == 0.0 else -1.0
        psi = self._initial(consts, p0=-10.0 * side, sigma_p=0.5, xc=8.0 * side, nx=4001, box=box)
        xbar1, t1, t2, delta = 4.0 * side, 0.8, 1.05, 0.5
        centers = side * np.arange(0.25, 12.0, 0.125)
        cond = conditional_distribution(psi, (xbar1, t1, delta), t2, centers, delta)
        first = MeasurementChain(psi, ((t1, WindowSpec(xbar1, delta)),), Propagator.HALFLINE)
        state, p1 = chain_final_state(first)
        state = halfline_propagate(state, t2, t1)
        rho, x = np.abs(state.values) ** 2, state.grid
        masses = np.array([np.sum(rho[np.abs(x - c) <= delta]) for c in centers]) * state.dx / p1
        assert cond.tobytes() == masses.tobytes()

    def test_non_finite_window_centres_rejected(self, consts):
        # a NaN first or second centre is an error, not a first-event
        # probability of 0 or a conditional mass of 0
        psi = self._initial(consts, p0=-10.0, sigma_p=0.5, xc=8.0, nx=2001)
        with pytest.raises(ValueError, match="center must be finite"):
            conditional_distribution(psi, (math.nan, 0.8, 0.5), 1.05, np.array([4.0]), 0.5)
        with pytest.raises(ValueError, match="center must be finite"):
            conditional_distribution(psi, (4.0, 0.8, 0.5), 1.05, np.array([4.0, math.nan]), 0.5)

    def test_peaks_move_linearly_with_time(self, consts):
        # fitted peak-location slopes vs (t2 - t1) equal -+|p0|/m within 3%
        psi = self._initial(consts, p0=-10.0, sigma_p=0.5, xc=8.0)
        xbar1, t1, delta = 4.0, 0.8, 0.5
        centers = np.arange(0.25, 14.0, 0.0625)
        dts = np.array([0.15, 0.25, 0.35])

        def refine(i, cond):
            # quadratic interpolation through the three masses around a maximum
            y0, y1, y2 = cond[i - 1], cond[i], cond[i + 1]
            return centers[i] + 0.03125 * (y0 - y2) / (y0 - 2.0 * y1 + y2)

        lo_peaks, hi_peaks = [], []
        for dt in dts:
            cond = conditional_distribution(psi, (xbar1, t1, delta), t1 + dt, centers, delta)
            # one moving peak on each side of the first window (interference
            # fringes near the wall can outgrow the far peak, so the two
            # dominant maxima are located per side)
            left = np.where(centers < xbar1)[0]
            right = np.where(centers > xbar1)[0]
            i_lo = left[np.argmax(cond[left])]
            i_hi = right[np.argmax(cond[right])]
            lo_peaks.append(refine(i_lo, cond))
            hi_peaks.append(refine(i_hi, cond))
        slope_lo = np.polyfit(dts, lo_peaks, 1)[0]
        slope_hi = np.polyfit(dts, hi_peaks, 1)[0]
        assert slope_lo == pytest.approx(-10.0, rel=0.03)
        assert slope_hi == pytest.approx(10.0, rel=0.03)

    def test_mirrored_box_matches(self, consts):
        # the same run on [-40, 0], with every position negated: the wall is
        # the grid's last sample there, and the half-line is x <= 0
        nx, xbar1, t1, t2, delta = 4001, 4.0, 0.8, 1.05, 0.5
        centers = np.arange(0.25, 12.0, 0.125)
        psi = self._initial(consts, p0=-10.0, sigma_p=0.5, xc=8.0, nx=nx)
        mirrored = self._initial(consts, p0=10.0, sigma_p=0.5, xc=-8.0, nx=nx, box=(-40.0, 0.0))
        cond = conditional_distribution(psi, (xbar1, t1, delta), t2, centers, delta)
        cond_m = conditional_distribution(mirrored, (-xbar1, t1, delta), t2, -centers, delta)
        assert np.max(np.abs(cond_m - cond)) <= 1e-12 * np.max(cond)

    @pytest.mark.parametrize("t1,t2", [(0.8, math.nan), (0.8, math.inf), (math.nan, 1.05), (math.inf, 1.05)])
    def test_non_finite_times_named(self, consts, t1, t2):
        # a NaN time would pass `t2 <= t1 or t1 <= 0` and fail later, naming no input
        psi = self._initial(consts, p0=-10.0, sigma_p=0.5, xc=8.0, nx=2001)
        with pytest.raises(ValueError, match=re.escape(f"got t1 = {t1}, t2 = {t2}")):
            conditional_distribution(psi, (4.0, t1, 0.5), t2, np.array([4.0]), 0.5)

    def test_null_conditioning_rejected(self, consts):
        psi = self._initial(consts, p0=-10.0, sigma_p=2.0, xc=30.0)
        with pytest.raises(ValueError, match="too small"):
            conditional_distribution(psi, (1.0, 0.05, 0.2), 0.1, np.array([5.0]), 0.2)


class TestCrossingProbability:
    def test_zero_at_tau_zero(self, fast_packet):
        res = crossing_probability(fast_packet, np.array([0.0]))
        assert res.projector_form.tolist() == [0.0]
        assert res.current_form.tolist() == [0.0]

    def test_tau_zero_row_of_a_sweep(self, fast_packet):
        res = crossing_probability(fast_packet, np.array([0.0, 0.3]))
        assert res.projector_form[0] == 0.0 and res.current_form[0] == 0.0
        assert res.projector_form[1] > 0.0

    def test_two_forms_agree(self, fast_packet):
        res = crossing_probability(fast_packet, np.array([0.2, 0.5, 1.0]))
        assert np.max(np.abs(res.projector_form - res.current_form)) <= 1e-4

    def test_fast_packet_crosses_fully(self, fast_packet):
        res = crossing_probability(fast_packet, np.array([1.0]))
        assert res.projector_form[0] == pytest.approx(1.0, abs=0.02)

    def test_bounded(self, fast_packet):
        res = crossing_probability(fast_packet, np.array([0.1, 0.4, 0.8]))
        assert np.all((-1e-6 <= res.projector_form) & (res.projector_form <= 1.0 + 1e-6))

    @pytest.mark.parametrize(
        "taus",
        [np.linspace(0.0, 1.0, 6), np.geomspace(1e-3, 1.0, 7), np.linspace(0.0, 1.0, 12)],
        ids=["linear", "log", "three_blocks"],
    )
    def test_sweep_matches_per_tau_oracle(self, fast_packet, taus):
        # each sweep evolves its live taus in blocks of 4 at n = 1024 (5, 7 and
        # 11 live taus), the last block partial
        sizes = [block.size for _, block in _tau_blocks(taus[taus > 0.0], fast_packet.grid.size)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
        res = crossing_probability(fast_packet, taus)
        oracle = np.array([crossing_per_tau(fast_packet, float(t)) for t in taus])
        assert np.array_equal(res.projector_form, oracle[:, 0])
        assert np.max(np.abs(res.current_form - oracle[:, 1])) <= 1e-10

    def test_one_transform_per_tau_block(self, fast_packet, monkeypatch):
        # both parts are projected by one call, and each block of live taus
        # evolves them by its phases and transforms its (taus, 2, p) stack by
        # one call; no state is evolved through free_evolve
        shapes = []

        def spy(transform):
            def spied(values, src, dst, hbar):
                shapes.append((transform.__name__, np.shape(values)))
                return transform(values, src, dst, hbar)

            return spied

        def unexpected(psi, dt):
            raise AssertionError("crossing_probability evolved a WaveFunction")

        for name in ("momentum_to_position", "position_to_momentum"):
            monkeypatch.setattr(measurement, name, spy(getattr(measurement, name)))
        monkeypatch.setattr(measurement, "free_evolve", unexpected)
        crossing_probability(fast_packet, np.linspace(0.0, 1.0, 12))
        n = fast_packet.grid.size
        to_x, to_p = "momentum_to_position", "position_to_momentum"
        blocks = [(to_x, (k, 2, n)) for k in (4, 4, 3)]  # 11 live taus, 4096 // n = 4 per block
        assert shapes == [(to_x, (n,)), (to_p, (2, 4 * n)), *blocks]

    def test_one_tau_equals_its_row_of_the_default_sweep(self, fast_packet):
        alone = crossing_probability(fast_packet, np.array([0.5]))
        swept = crossing_probability(fast_packet, np.linspace(0.0, 1.0, 201))
        assert alone.projector_form[0] == swept.projector_form[100]
        assert abs(alone.current_form[0] - swept.current_form[100]) <= 1e-15

    @pytest.mark.parametrize(
        "taus",
        [
            0.5,
            np.array([-0.1, 0.5]),
            np.array([0.5, 0.2]),
            np.array([0.2, 0.2]),
            np.array([]),
            np.array([0.1, np.nan]),
            np.array([0.1, np.inf]),
            np.nan,
        ],
        ids=["scalar", "negative_entry", "decreasing", "repeated", "empty", "nan_entry", "inf_entry",
             "nan_scalar"],
    )
    def test_rejects_bad_taus(self, fast_packet, taus):
        with pytest.raises(ValueError, match="tau"):
            crossing_probability(fast_packet, taus)

    @pytest.mark.parametrize("tau", [5.0, 25.0, 50.0])
    def test_rejects_taus_past_the_box_wrap(self, fast_packet, tau):
        # the default grid's periodic box, x_max = pi hbar / dp = 40.2, wraps the
        # packet's fast tail from about tau = 2.5; these taus read p_projector
        # = 0.170 (tau = 5) and p_current = 3.56 and 6.66 (tau = 25 and 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"tau = .* passes 2\.443, when the packet reaches an end of its box"
            with pytest.raises(RuntimeError, match=message):
                crossing_probability(fast_packet, np.array([0.5, tau]))

    def test_rejects_a_left_moving_packet_past_the_left_end(self, consts, grid):
        # the fast packet mirrored about x = 0 reaches the box's left end instead
        psi = make_gaussian(GaussianSpec(-10.0, 5.0, 1.0, consts), grid)
        with pytest.raises(RuntimeError, match="passes"):
            crossing_probability(psi, np.array([5.0]))

    def test_null_packet_never_crosses(self, fast_packet):
        null = WaveFunction(Representation.MOMENTUM, fast_packet.grid, np.zeros(fast_packet.grid.size), fast_packet.consts)
        res = crossing_probability(null, np.array([0.0, 0.5, 50.0]))
        assert res.projector_form.tolist() == [0.0] * 3 and res.current_form.tolist() == [0.0] * 3

    def test_taus_before_the_wrap_match_a_wider_box(self, fast_spec, fast_packet):
        # n = 4096 at the same p_max is a box 4 times as wide, which the packet
        # does not reach by tau = 2.4, just inside the default grid's limit
        taus = np.array([1.0, 2.4])
        res = crossing_probability(fast_packet, taus)
        ref = crossing_probability(make_gaussian(fast_spec, GridSpec(4096, 40.0)), taus)
        assert np.max(np.abs(res.projector_form - ref.projector_form)) <= 1e-12
        assert np.max(np.abs(res.current_form - ref.current_form)) <= 1e-12


class TestSmallTimeCurrentLaw:
    def test_exponent_and_prefactor(self, reflected_packet):
        taus = np.geomspace(0.015, 0.045, 9)
        fit = small_time_current_law(reflected_packet, taus)
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.prefactor == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=0.02)

    def test_current_scales_with_slope_squared(self, consts, reflected_grid, reflected_packet):
        # a second reflected state with a different boundary slope: J ratio at
        # fixed tau equals the slope-squared ratio (quadrupling under doubling)
        from qarrival import current_expectation, kinetic_energy_density

        other = make_reflected_state(
            GaussianSpec(0.6, -20.0, 0.125, consts), reflected_grid
        )
        tau = 0.03
        j1 = current_expectation(reflected_packet, np.array([tau]))[0]
        j2 = current_expectation(other, np.array([tau]))[0]
        k1, _ = kinetic_energy_density(reflected_packet)
        k2, _ = kinetic_energy_density(other)
        assert j2 / j1 == pytest.approx(k2 / k1, rel=0.02)

    def test_rejects_bad_samples(self, reflected_packet):
        with pytest.raises(ValueError):
            small_time_current_law(reflected_packet, np.array([0.0, 0.01, 0.02]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_samples(self, reflected_packet, bad, capfd):
        # before the fit: a NaN reached the least-squares solve, which printed
        # LAPACK errors and raised LinAlgError
        with pytest.raises(ValueError, match="tau_samples must be finite"):
            small_time_current_law(reflected_packet, np.array([0.01, 0.02, bad]))
        assert capfd.readouterr().err == ""


class TestClassicalOracles:
    def test_arrival_examples(self):
        assert classical_arrival(-5.0, 10.0) == pytest.approx(0.5, rel=1e-15)
        assert classical_arrival(0.0, 3.0) == 0.0
        # outgoing (x and p same sign) gives negative arrival time
        assert classical_arrival(2.0, 3.0) < 0.0
        assert classical_arrival(-2.0, -3.0) < 0.0

    def test_arrival_zero_momentum(self):
        with pytest.raises(ValueError):
            classical_arrival(1.0, 0.0)

    @pytest.mark.parametrize(
        "x,p,T,m",
        [(-1.0, math.nan, 10.0, 1.0), (-1.0, math.inf, 10.0, 1.0), (-1.0, 1.0, math.nan, 1.0),
         (-1.0, 1.0, math.inf, 1.0), (math.nan, 1.0, 10.0, 1.0), (-1.0, 1.0, 10.0, math.nan)],
        ids=["p_nan", "p_inf", "T_nan", "T_inf", "x_nan", "m_nan"],
    )
    def test_stopwatch_rejects_non_finite_inputs(self, x, p, T, m):
        # a NaN p read 0.0 and a NaN T read NaN
        with pytest.raises(ValueError, match="finite"):
            classical_stopwatch(x, p, T, m)

    def test_stopwatch_example(self):
        assert classical_stopwatch(-4.0, 2.0, T=10.0) == pytest.approx(2.0, abs=1e-9)

    def test_stopwatch_positive_x(self):
        assert classical_stopwatch(3.0, 2.0, T=10.0) == 0.0

    def test_stopwatch_horizon_independence(self):
        a = classical_stopwatch(-4.0, 2.0, T=10.0)
        b = classical_stopwatch(-4.0, 2.0, T=100.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_stopwatch_insufficient_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            classical_stopwatch(-50.0, 1.0, T=10.0)

    def test_stopwatch_random_pairs(self, rng):
        for _ in range(100):
            x = -float(rng.uniform(0.05, 20.0))
            p = float(rng.uniform(0.05, 20.0))
            assert classical_stopwatch(x, p, T=500.0) == pytest.approx(-x / p, abs=1e-9)

    def test_current_moment_examples(self):
        assert classical_current_moment(-5.0, -2.0) == pytest.approx(2.5, rel=1e-15)
        assert classical_current_moment(-5.0, 2.0) == pytest.approx(2.5, rel=1e-15)

    def test_current_moment_equals_arrival_for_incoming(self):
        for x, p in ((-5.0, 2.0), (-1.0, 0.3)):
            assert classical_current_moment(x, p) == pytest.approx(
                classical_arrival(x, p), rel=1e-15
            )

    def test_stopwatch_equals_current_moment(self, rng):
        for _ in range(20):
            x = -float(rng.uniform(0.1, 10.0))
            p = float(rng.uniform(0.1, 10.0))
            assert classical_stopwatch(x, p, T=200.0) == pytest.approx(
                classical_current_moment(x, p), abs=1e-9
            )

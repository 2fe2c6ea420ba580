import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmp import bmo, paths
from qsmp.errors import SolverError


def psi_reference(x, digits=50):
    """High-precision evaluation of the critical-exponent function."""
    with mpmath.workdps(digits):
        x = mpmath.mpf(x)
        return float(mpmath.sqrt(1 + mpmath.log((2 * x - 1) / (2 * (x - 1))) / x**2) - 1)


class TestPsi:
    # psi(x) is psi_of_offset(x - 1), the form bmo_report evaluates.
    def test_large_argument_vanishes(self):
        assert bmo.psi_of_offset(1e6 - 1.0) < 1e-5

    def test_at_two_matches_high_precision(self):
        # sqrt(1 + 0.25 ln 1.5) - 1 evaluated at 50 digits
        assert bmo.psi_of_offset(1.0) == pytest.approx(psi_reference(2.0), abs=1e-14)
        assert bmo.psi_of_offset(1.0) == pytest.approx(0.049459993056925005, abs=1e-15)

    def test_strictly_decreasing_on_grid(self):
        xs = np.linspace(1.001, 50.0, 1000)
        vals = [bmo.psi_of_offset(x - 1.0) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_pair(self):
        assert bmo.psi_of_offset(0.5) > bmo.psi_of_offset(1.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bmo.psi_of_offset(1.0 - 1.0)
        with pytest.raises(ValueError):
            bmo.psi_of_offset(0.5 - 1.0)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_everywhere(self, x):
        assert bmo.psi_of_offset(x - 1.0) == pytest.approx(psi_reference(x), rel=1e-10, abs=1e-13)


class TestPsiInverse:
    # The exponent p with psi(p) = nu is 1 + psi_inverse_offset(nu).
    def test_round_trip_at_two(self):
        p = 1.0 + bmo.psi_inverse_offset(bmo.psi_of_offset(1.0))
        assert p == pytest.approx(2.0, abs=1e-8)

    def test_inverse_is_decreasing(self):
        assert 1.0 + bmo.psi_inverse_offset(0.1) > 1.0 + bmo.psi_inverse_offset(0.5)

    def test_zero_target_gives_infinity_marker(self):
        assert 1.0 + bmo.psi_inverse_offset(0.0) == bmo.P_INFINITE
        assert bmo.conjugate_exponent_from_offset(math.inf) == 1.0

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            bmo.psi_inverse_offset(-0.1)

    @given(st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=150, deadline=None)
    def test_offset_round_trip(self, nu):
        h = bmo.psi_inverse_offset(nu)
        assert bmo.psi_of_offset(h) == pytest.approx(nu, abs=1e-8)

    def test_conjugate_identity_exact_via_offset(self):
        for nu in (0.05, 0.3, 1.0, 5.0, 10.0):
            h = bmo.psi_inverse_offset(nu)
            p_star = bmo.conjugate_exponent_from_offset(h)
            # p* (p - 1) = p with p = 1 + h, exactly in exact arithmetic
            assert p_star * h == pytest.approx(1.0 + h, rel=1e-10)


class TestReverseHolder:
    def test_zero_norm_closed_form(self):
        for p in (1.0, 1.5, 2.0, 4.0):
            assert bmo.reverse_holder_K(p, 0.0) == pytest.approx(2.0 * p - 1.0, rel=1e-12)

    def test_p_one_is_one(self):
        assert bmo.reverse_holder_K(1.0, 10.0) == pytest.approx(1.0)

    def test_value_against_high_precision(self):
        with mpmath.workdps(50):
            p, m = mpmath.mpf("1.1"), mpmath.mpf("0.5")
            bracket = 1 - (2 * (p - 1) / (2 * p - 1)) * mpmath.e ** (p**2 * (m**2 + 2 * m))
            expected = float(1 / bracket)
        value = bmo.reverse_holder_K(1.1, 0.5)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value >= 1.0

    def test_undefined_beyond_critical_exponent(self):
        # p at the critical exponent: bracket hits zero from above
        p_m = 1.0 + bmo.psi_inverse_offset(0.5)
        assert bmo.reverse_holder_K(p_m + 0.05, 0.5) is None

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bmo.reverse_holder_K(0.9, 0.1)

    @given(st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=0.0, max_value=0.6))
    @settings(max_examples=100, deadline=None)
    def test_increasing_in_norm_where_defined(self, m1, m2):
        lo, hi = sorted((m1, m2))
        p = 1.05
        k_lo = bmo.reverse_holder_K(p, lo)
        k_hi = bmo.reverse_holder_K(p, hi)
        if k_lo is not None and k_hi is not None:
            assert k_hi >= k_lo - 1e-12
            assert k_lo >= 1.0


class TestBmo2Estimator:
    def test_constant_integrand(self, small_grid):
        h_level = 0.7
        integrand = np.full((500, small_grid.N, 1), h_level)
        est = bmo.estimate_bmo2(integrand, small_grid)
        assert est == pytest.approx(h_level * math.sqrt(small_grid.T), rel=1e-12)

    def test_zero_integrand(self, small_grid):
        integrand = np.zeros((200, small_grid.N, 1))
        assert bmo.estimate_bmo2(integrand, small_grid) == 0.0

    def test_deterministic_time_dependent(self, small_grid):
        # tail is maximal at time zero: estimate^2 = sum_i |H_i|^2 dt
        profile = np.linspace(1.0, 0.2, small_grid.N)
        integrand = np.broadcast_to(profile[None, :, None], (300, small_grid.N, 1)).copy()
        est = bmo.estimate_bmo2(integrand, small_grid)
        expected = math.sqrt(np.sum(profile**2) * small_grid.dt)
        assert est == pytest.approx(expected, rel=1e-10)


class TestEnergyInequality:
    def test_constant_integrand_exact(self, small_grid):
        h_level = 0.8
        integrand = np.full((400, small_grid.N, 1), h_level)
        rows = bmo.energy_check(integrand, small_grid, n_max=4)
        qv = h_level**2 * small_grid.T
        for row in rows:
            assert row.lhs == pytest.approx(qv**row.n, rel=1e-12)
            assert row.rhs == pytest.approx(math.factorial(row.n) * qv**row.n, rel=1e-12)
            assert row.passed

    def test_zero_integrand(self, small_grid):
        rows = bmo.energy_check(np.zeros((100, small_grid.N, 1)), small_grid, n_max=3)
        for row in rows:
            assert row.lhs == 0.0 and row.rhs == 0.0 and row.passed

    def test_bounded_adapted_integrand(self, small_grid, small_noise):
        # |W_t| capped at 2: adapted and bounded
        w_paths = np.concatenate(
            [np.zeros((small_noise.M, 1, 1)), small_noise.increments.cumsum(axis=1)], axis=1
        )
        integrand = np.minimum(np.abs(w_paths[:, : small_grid.N]), 2.0)
        rows = bmo.energy_check(
            integrand, small_grid, n_max=3, features=w_paths, basis=None
        )
        assert all(row.passed for row in rows)

    def test_n_max_guard(self, small_grid):
        with pytest.raises(ValueError):
            bmo.energy_check(np.zeros((10, small_grid.N, 1)), small_grid, n_max=7)


def stochastic_exponential(integrand, grid, noise):
    """exp(int H dW - 1/2 int |H|^2 dt) (M, N+1) for the integrand H
    (M, N, d), from the two functions that cumulate Gamma in the
    state-costate sweep."""
    log_values = np.zeros((noise.M, grid.N + 1))
    for i in range(grid.N):
        log_values[:, i + 1] = bmo.log_exponential_increment(0.0, integrand[:, i], noise.increments[:, i], grid.dt)
    return bmo.cumulate_log_exponential(log_values, "stochastic exponential")


class TestStochasticExponential:
    def test_zero_integrand_is_one(self, small_grid, small_noise):
        vals = stochastic_exponential(np.zeros((small_noise.M, small_grid.N, 1)), small_grid, small_noise)
        assert np.all(vals == 1.0)

    def test_positivity(self, small_grid, small_noise):
        integrand = np.full((small_noise.M, small_grid.N, 1), 1.5)
        vals = stochastic_exponential(integrand, small_grid, small_noise)
        assert np.all(vals > 0.0)

    def test_martingale_mean(self, small_grid):
        noise = paths.simulate_brownian(small_grid, 100000, 1, seed=77)
        integrand = np.full((noise.M, small_grid.N, 1), 0.5)
        terminal = stochastic_exponential(integrand, small_grid, noise)[:, -1]
        se = terminal.std() / math.sqrt(noise.M)
        assert abs(terminal.mean() - 1.0) <= 3.0 * se

    def test_equals_exp_of_running_sum(self):
        rng = np.random.default_rng(78)
        log_values = rng.uniform(-3.0, 3.0, (5, 9))
        expected = np.exp(np.cumsum(log_values, axis=1))
        out = bmo.cumulate_log_exponential(log_values, "stochastic exponential")
        assert out is log_values
        assert np.allclose(out, expected, rtol=1e-13)

    def test_non_finite_exponent_raises_at_its_step(self):
        log_values = np.zeros((4, 6))
        log_values[2, 3] = np.nan
        with pytest.raises(SolverError, match=r"overflow \(step 2\)") as err:
            bmo.cumulate_log_exponential(log_values, "stochastic exponential")
        assert err.value.step == 2

    def test_overflow_guard(self):
        # The running exponent reaches 700 after step 6 and 800 after step 7.
        log_values = np.full((3, 11), 100.0)
        log_values[:, 0] = 0.0
        with pytest.raises(SolverError, match=r"stochastic exponential exponent overflow \(step 7\)") as err:
            bmo.cumulate_log_exponential(log_values, "stochastic exponential")
        assert err.value.step == 7


class TestBmoReport:
    def test_report_fields(self, small_grid, small_noise):
        integrand = np.full((small_noise.M, small_grid.N, 1), 0.3)
        rep = bmo.bmo_report(integrand, small_grid)
        assert rep.bmo2_estimate == pytest.approx(0.3, rel=1e-10)
        assert 1.0 < rep.reverse_holder_p < rep.p_M
        assert rep.reverse_holder_K is not None and rep.reverse_holder_K >= 1.0
        assert rep.p_M_star == pytest.approx(rep.p_M / (rep.p_M - 1.0), rel=1e-9)
        payload = rep.to_dict()
        assert set(payload) >= {"bmo2_estimate", "p_M", "p_M_star", "energy_checks"}

    def test_zero_norm_markers(self, small_grid, small_noise):
        rep = bmo.bmo_report(np.zeros((small_noise.M, small_grid.N, 1)), small_grid)
        assert rep.p_M == bmo.P_INFINITE
        assert rep.p_M_star == 1.0

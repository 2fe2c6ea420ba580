import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmp import families, paths, smp
from qsmp.errors import ExplosionError
from qsmp.model import AssumptionConstants, BoxDomain, CoefficientSet, ProblemSpec


def _affine_spec(mu=0.3, sig=0.4, x0=1.0):
    """dX = mu dt + sig dW: the Euler scheme is exact here."""
    return ProblemSpec(
        n=1, d=1, k=1, T=1.0, x0=np.array([x0]),
        coeffs=CoefficientSet(
            b=lambda t, x, u: np.full((x.shape[0], 1), mu),
            sigma=lambda t, x, u: np.full((x.shape[0], 1, 1), sig),
            f=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            Phi=lambda x: np.zeros(x.shape[0]),
            b_x=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            b_u=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            sigma_x=lambda t, x, u: np.zeros((x.shape[0], 1, 1, 1)),
            sigma_u=lambda t, x, u: np.zeros((x.shape[0], 1, 1, 1)),
            f_x=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            f_y=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_z=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            f_u=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            Phi_x=lambda x: np.zeros((x.shape[0], 1)),
        ),
        domain=BoxDomain((-1.0,), (1.0,)),
        constants=AssumptionConstants(
            alpha=0.0, gamma=1.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0, Phi_sup=0.0,
            sigma_x_sup=(0.0,), b_x_sup=0.0, b_u_sup=0.0, sigma_u_sup=0.0, Phi_x_sup=0.0,
        ),
    )


class TestTimeGrid:
    def test_invariants(self):
        grid = paths.TimeGrid(7, 2.0)
        times = grid.times
        assert times[0] == 0.0
        assert times[-1] == 2.0  # pinned exactly
        assert np.all(np.diff(times) > 0)
        assert grid.dt == pytest.approx(2.0 / 7)

    @given(st.integers(min_value=1, max_value=500), st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_grid_properties(self, n_steps, horizon):
        grid = paths.TimeGrid(n_steps, horizon)
        times = grid.times
        assert len(times) == n_steps + 1
        assert times[-1] == horizon
        assert np.all(np.diff(times) > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            paths.TimeGrid(0, 1.0)
        with pytest.raises(ValueError):
            paths.TimeGrid(10, 0.0)


class TestBrownianBatch:
    def test_determinism(self):
        grid = paths.TimeGrid(16, 1.0)
        a = paths.simulate_brownian(grid, 100, 2, seed=5, stream_id=3)
        b = paths.simulate_brownian(grid, 100, 2, seed=5, stream_id=3)
        assert np.array_equal(a.increments, b.increments)

    def test_streams_differ(self):
        grid = paths.TimeGrid(16, 1.0)
        a = paths.simulate_brownian(grid, 100, 1, seed=5, stream_id=0)
        b = paths.simulate_brownian(grid, 100, 1, seed=5, stream_id=1)
        assert not np.array_equal(a.increments, b.increments)

    def test_single_draw_scale(self):
        grid = paths.TimeGrid(1, 4.0)
        batch = paths.simulate_brownian(grid, 1, 1, seed=0)
        assert abs(batch.increments[0, 0, 0]) < 6.0 * math.sqrt(4.0)

    def test_variance_at_scale(self):
        # M = 1e5 draws of Normal(0, 1): the sample variance concentrates in
        # [0.98, 1.02] (a 4-sigma chi-square window is +/- 4 sqrt(2/M) = 0.018)
        grid = paths.TimeGrid(1, 1.0)
        batch = paths.simulate_brownian(grid, 100000, 1, seed=123)
        var = batch.increments.var()
        assert 0.98 <= var <= 1.02

    def test_mean_within_clt_window(self):
        grid = paths.TimeGrid(20, 1.0)
        batch = paths.simulate_brownian(grid, 2000, 2, seed=9)
        n_draws = batch.increments.size
        assert abs(batch.increments.mean()) <= 4.0 * math.sqrt(grid.dt / n_draws)

    def test_increments_read_only(self):
        grid = paths.TimeGrid(4, 1.0)
        batch = paths.simulate_brownian(grid, 10, 1, seed=1)
        with pytest.raises(ValueError):
            batch.increments[0, 0, 0] = 1.0


class TestForwardSolver:
    def test_zero_coefficients_constant_path(self, exp_utility_spec):
        spec = _affine_spec(mu=0.0, sig=0.0, x0=0.7)
        grid = paths.TimeGrid(20, 1.0)
        noise = paths.simulate_brownian(grid, 50, 1, seed=2)
        fwd = paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.0,)))
        assert np.all(fwd.states == 0.7)

    def test_constant_coefficients_exact(self):
        mu, sig, x0 = 0.3, 0.4, 1.0
        spec = _affine_spec(mu, sig, x0)
        grid = paths.TimeGrid(64, 1.0)
        noise = paths.simulate_brownian(grid, 300, 1, seed=3)
        fwd = paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.0,)))
        w_terminal = noise.increments.sum(axis=1)[:, 0]
        expected = x0 + mu * grid.T + sig * w_terminal
        # telescoping sum: exact up to float accumulation
        assert np.abs(fwd.states[:, -1, 0] - expected).max() <= 1e-12 * grid.N

    def test_strong_rate_half_on_multiplicative_family(self):
        # strong error against a fine-grid self-reference decays ~ sqrt(dt);
        # the diffusion dominates the drift so the order-1/2 term is visible
        spec = families.build_controlled_geometric(mu=0.1, vol=0.8)
        fine_n = 2**12
        fine = paths.TimeGrid(fine_n, 1.0)
        noise = paths.simulate_brownian(fine, 256, 1, seed=11)
        ctrl = paths.ConstantControl((0.0,))
        ref = paths.solve_forward_sde(spec, fine, noise, ctrl).states[:, -1, 0]
        errors = []
        levels = [2**6, 2**7, 2**8, 2**9]
        for coarse_n in levels:
            stride = fine_n // coarse_n
            coarse_inc = noise.increments.reshape(256, coarse_n, stride, 1).sum(axis=2)
            coarse_noise = paths.BrownianBatch(coarse_inc, noise.seed, noise.stream_id)
            sol = paths.solve_forward_sde(spec, paths.TimeGrid(coarse_n, 1.0), coarse_noise, ctrl)
            errors.append(math.sqrt(np.mean((sol.states[:, -1, 0] - ref) ** 2)))
        slope = -np.polyfit(np.log2(levels), np.log2(errors), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_explosion_guard(self):
        spec = _affine_spec()
        cubed = CoefficientSet(**{**spec.coeffs.__dict__, "b": lambda t, x, u: x**3})
        bad = ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.array([5.0]), coeffs=cubed,
                          domain=spec.domain, constants=spec.constants)
        grid = paths.TimeGrid(50, 1.0)
        noise = paths.simulate_brownian(grid, 8, 1, seed=4)
        with pytest.raises(ExplosionError) as err:
            paths.solve_forward_sde(bad, grid, noise, paths.ConstantControl((0.0,)))
        assert err.value.step is not None

    def test_feedback_and_open_loop_agree(self, exp_utility_spec):
        # The gradient check's perturbed chain is open loop: step i is
        # u_bar_i + eps uhat_at(i) along the base states. In the zero
        # direction it replays the feedback's forward batch bit for bit.
        grid = paths.TimeGrid(30, 1.0)
        noise = paths.simulate_brownian(grid, 100, 1, seed=6)
        feedback = paths.FeedbackControl(lambda t, x: np.clip(0.5 * x, -1, 1), k=1)
        fwd = paths.solve_forward_sde(exp_utility_spec, grid, noise, feedback)
        zero = smp._direction(feedback, grid, fwd)
        assert all(np.all(zero(i) == 0.0) for i in range(grid.N + 1))
        replay = paths.solve_forward_sde(exp_utility_spec, grid, noise, smp._Perturbed(fwd.controls, zero, 0.25))
        assert np.array_equal(fwd.states, replay.states)
        assert np.array_equal(fwd.controls, replay.controls)


class TestExpansionRateCheck:
    """The perturbation sizes of an expansion-rate check: ``check_epsilons``,
    which validates the gradient check's sizes and the config's."""

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            paths.check_epsilons([0.5, 0.25])
        with pytest.raises(ValueError):
            paths.check_epsilons([2.0, 0.5, 0.25, 0.1])

    def test_accepted_sizes_come_back_as_floats(self):
        sizes = paths.check_epsilons(iter([1, 0.5, 0.25, 0.125]))
        assert sizes == [1.0, 0.5, 0.25, 0.125]
        assert all(type(e) is float for e in sizes)
        assert paths.check_epsilons(paths.DEFAULT_EPSILONS) == list(paths.DEFAULT_EPSILONS)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, "0.1", None])
    def test_size_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError):
            paths.check_epsilons([0.5, 0.25, 0.125, bad])


class TestRealization:
    def test_realize_feedback_along_states(self, exp_utility_spec):
        grid = paths.TimeGrid(10, 1.0)
        noise = paths.simulate_brownian(grid, 20, 1, seed=14)
        fwd = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.1,)))
        feedback = paths.FeedbackControl(lambda t, x: np.clip(np.tanh(x), -1, 1), k=1)
        # The gradient check's direction u(t_i, x_i) - u_bar_i, formed step by step.
        uhat_at = smp._direction(feedback, grid, fwd)
        assert uhat_at(3).shape == (20, 1)
        assert np.allclose(uhat_at(3)[:, 0], np.tanh(fwd.states[:, 3, 0]) - 0.1)


@pytest.mark.parametrize("values", [
    [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-3.0, 2.0], [1.5, -1.5, 0.25], [2.0, math.nan, -7.0],
], ids=["zeros", "negative-zeros", "mixed-zeros", "negative-wins", "tie", "nan"])
def test_abs_max_equals_abs_then_max(values):
    # The lint in test_layout.py sends every max |a| in src through abs_max.
    a = np.array(values)
    got, expected = paths.abs_max(a), np.abs(a).max()
    assert np.array_equal(got, expected, equal_nan=True)
    assert math.isnan(got) or math.copysign(1.0, got) == 1.0

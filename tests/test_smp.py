import math

import numpy as np
import pytest

from qsmp import bsde, families, model, paths, smp


@pytest.fixture(scope="module")
def lq_setup():
    spec = families.build_linear_quadratic()
    riccati = families.solve_lq_riccati(a=0.5, b=1.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0, x0=1.0)
    grid = paths.TimeGrid(100, 1.0)
    noise = paths.simulate_brownian(grid, 20000, 1, seed=41)
    basis = bsde.RegressionBasis(2)
    return spec, riccati, grid, noise, basis


class TestCostFunctional:
    def test_zero_generator_constant_terminal(self, exp_utility_spec, small_grid, small_noise):
        constant = 0.42
        coeffs = model.CoefficientSet(**{
            **exp_utility_spec.coeffs.__dict__,
            "f": lambda t, x, y, z, u: np.zeros(x.shape[0]),
            "f_z": lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            "Phi": lambda x: np.full(x.shape[0], constant),
        })
        spec = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=coeffs,
                                 domain=exp_utility_spec.domain,
                                 constants=exp_utility_spec.constants)
        for level in (0.0, 0.5, -0.7):
            cost = smp.cost_functional(spec, small_grid, small_noise, paths.ConstantControl((level,)))
            assert cost == pytest.approx(constant, abs=2e-5)

    def test_exponential_family_matches_quadrature(self, exp_utility_spec):
        from conftest import gauss_hermite_log_moment

        grid = paths.TimeGrid(100, 1.0)
        noise = paths.simulate_brownian(grid, 20000, 1, seed=42)
        forward = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.0,)))
        backward = bsde.solve_quadratic_bsde(exp_utility_spec, grid, noise, forward)
        oracle = gauss_hermite_log_moment(gamma=1.0)
        assert abs(backward.y0 - oracle) <= 3.0 * backward.y0_standard_error


class TestGateauxCheck:
    def test_no_direction_gives_zeros(self, exp_utility_spec):
        grid = paths.TimeGrid(40, 1.0)
        noise = paths.simulate_brownian(grid, 4000, 1, seed=43)
        ctrl = paths.ConstantControl((0.3,))
        report = smp.gateaux_check(exp_utility_spec, grid, noise, ctrl, ctrl)
        assert all(q == 0.0 for q in report.fd_slopes)
        assert report.yhat0 == 0.0 and report.yhat0_gamma == 0.0
        # exact zero quotients give an exact, finite intercept
        assert report.extrapolated_intercept == 0.0 and report.intercept_se == 0.0
        assert not report.inconclusive

    def test_exact_first_order_problem(self, exp_utility_spec):
        # f = 0 and a linear terminal make the cost affine in epsilon: every
        # quotient equals the derivative exactly (regressions preserve means)
        coeffs = model.CoefficientSet(**{
            **exp_utility_spec.coeffs.__dict__,
            "f": lambda t, x, y, z, u: np.zeros(x.shape[0]),
            "f_z": lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            "Phi": lambda x: x[:, 0],
            "Phi_x": lambda x: np.ones((x.shape[0], 1)),
        })
        spec = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=coeffs,
                                 domain=exp_utility_spec.domain,
                                 constants=exp_utility_spec.constants)
        grid = paths.TimeGrid(40, 1.0)
        noise = paths.simulate_brownian(grid, 4000, 1, seed=44)
        report = smp.gateaux_check(
            spec, grid, noise, paths.ConstantControl((0.0,)), paths.ConstantControl((0.6,))
        )
        spread = max(report.fd_slopes) - min(report.fd_slopes)
        assert spread <= 1e-10
        assert abs(report.fd_slopes[0] - report.yhat0) <= 3.0 * report.intercept_gap_se() + 1e-3

    def test_controlled_drift_intercept_matches_derivative(self, exp_utility_spec):
        grid = paths.TimeGrid(60, 1.0)
        noise = paths.simulate_brownian(grid, 20000, 1, seed=45)
        report = smp.gateaux_check(
            exp_utility_spec, grid, noise,
            paths.ConstantControl((0.0,)), paths.ConstantControl((0.5,)),
        )
        assert not report.inconclusive
        assert abs(report.extrapolated_intercept - report.yhat0) <= 3.0 * report.intercept_gap_se()
        assert abs(report.yhat0 - report.yhat0_gamma) <= 3.0 * math.hypot(
            report.yhat0_se, report.yhat0_gamma_se
        )

    def test_convex_perturbation_consistency_at_one(self, exp_utility_spec):
        # J(u^eps) at eps = 1 runs through the same code path as any other eps
        # and reproduces J(u) for the realized direction exactly
        grid = paths.TimeGrid(30, 1.0)
        noise = paths.simulate_brownian(grid, 3000, 1, seed=46)
        u_bar = paths.ConstantControl((0.0,))
        u = paths.ConstantControl((0.5,))
        forward = paths.solve_forward_sde(exp_utility_spec, grid, noise, u_bar)
        uhat_at = smp._direction(u, grid, forward)
        direct = smp.cost_functional(exp_utility_spec, grid, noise, smp._Perturbed(forward.controls, uhat_at, 1.0))
        via_u = smp.cost_functional(exp_utility_spec, grid, noise, u)
        assert direct == via_u

    def test_inconclusive_flag_on_starved_sampling(self, tanh_spec):
        # a handful of paths cannot resolve the epsilon-trend of the quotients
        grid = paths.TimeGrid(20, 1.0)
        noise = paths.simulate_brownian(grid, 96, 1, seed=47)
        report = smp.gateaux_check(
            tanh_spec, grid, noise,
            paths.ConstantControl((0.1,)),
            paths.FeedbackControl(lambda t, x: np.clip(0.5 * np.tanh(x), -1, 1), k=1),
        )
        assert report.inconclusive

    @pytest.mark.parametrize("check", [smp.gateaux_check])
    @pytest.mark.parametrize("epsilons", [[0.5], [2.0, 1.5, 0.5, 0.25]])
    def test_epsilon_grid_is_checked(self, exp_utility_spec, check, epsilons):
        # One size fits a singular two-parameter line; sizes above 1 leave
        # the convex perturbation.
        grid = paths.TimeGrid(10, 1.0)
        noise = paths.simulate_brownian(grid, 300, 1, seed=50)
        ctrl = paths.ConstantControl((0.0,))
        with pytest.raises(ValueError, match="epsilons"):
            check(exp_utility_spec, grid, noise, ctrl, paths.ConstantControl((0.5,)), epsilons=epsilons)


class TestProjectedGradientDescent:
    def test_riccati_start_stays_put(self, lq_setup):
        spec, riccati, grid, noise, basis = lq_setup
        gains = np.array([[[-float(riccati.gain(t)[0])]] for t in grid.times])
        policy = smp.AffineFeedbackPolicy(
            np.zeros((grid.N + 1, 1)), gains.reshape(grid.N + 1, 1, 1), spec.domain
        )
        result = smp.projected_gradient_descent(
            spec, grid, noise, policy, step_schedule=0.5, max_iters=10, basis=basis
        )
        costs = [row.cost for row in result.trace]
        first_se = result.trace[0].cost_se
        assert costs[0] - min(costs) <= 2.0 * first_se

    def test_control_independent_dynamics_keep_parameters(self, lq_setup):
        spec, _, _, _, basis = lq_setup
        # strip every control sensitivity: the weighted gradient is exactly 0
        coeffs = model.CoefficientSet(**{
            **spec.coeffs.__dict__,
            "b": lambda t, x, u: 0.5 * x,
            "b_u": lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            "f": lambda t, x, y, z, u: 0.5 * x[:, 0] ** 2,
            "f_u": lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        })
        frozen = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.array([1.0]), coeffs=coeffs,
                                   domain=spec.domain, constants=spec.constants)
        grid = paths.TimeGrid(20, 1.0)
        noise = paths.simulate_brownian(grid, 2000, 1, seed=50)
        init = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain)
        init.offsets[:] = 0.3
        result = smp.projected_gradient_descent(
            frozen, grid, noise, init, step_schedule=0.5, max_iters=3, basis=basis
        )
        assert np.array_equal(result.policy.offsets, init.offsets)
        assert np.array_equal(result.policy.gains, init.gains)
        costs = [row.cost for row in result.trace]
        assert max(costs) - min(costs) <= 1e-12

    def test_descent_reaches_riccati_cost(self, lq_setup):
        spec, riccati, grid, noise, basis = lq_setup
        init = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain)
        result = smp.projected_gradient_descent(
            spec, grid, noise, init, step_schedule=0.5, max_iters=25, basis=basis
        )
        target = riccati.optimal_cost
        assert abs(result.trace[-1].cost - target) / abs(target) <= 0.02
        # trace is non-increasing after smoothing over a 3-iteration window
        costs = np.array([row.cost for row in result.trace])
        smoothed = np.convolve(costs, np.ones(3) / 3, mode="valid")
        assert np.all(np.diff(smoothed) <= 2.0 * result.trace[0].cost_se)

    def test_divergence_guard_halts(self, lq_setup):
        spec, _, grid, noise, basis = lq_setup
        init = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain)
        result = smp.projected_gradient_descent(
            spec, grid, noise, init, step_schedule=75.0, max_iters=40, basis=basis
        )
        assert result.halted_on_divergence
        assert len(result.trace) < 40


class TestMaximumPrincipleCheck:
    def test_singleton_domain_has_no_violations(self, lq_setup):
        spec, riccati, grid, noise, basis = lq_setup
        point = model.BoxDomain((0.25,), (0.25,))
        pinned = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.array([1.0]),
                                   coeffs=spec.coeffs, domain=point, constants=spec.constants)
        report = smp.check_maximum_principle(
            pinned, grid, noise, paths.ConstantControl((0.25,)),
            groups=4, n_times=4, n_states=16, n_candidates=4, basis=basis,
        )
        assert report.violation_fraction == 0.0
        assert report.min_inner == pytest.approx(0.0, abs=1e-12)

    def test_riccati_optimum_clean(self, lq_setup):
        spec, riccati, grid, noise, basis = lq_setup
        report = smp.check_maximum_principle(
            spec, grid, noise, riccati.feedback(), groups=8, basis=basis, seed=3
        )
        assert report.violation_fraction <= 0.01

    def test_perturbed_feedback_detected(self, lq_setup):
        spec, riccati, grid, noise, basis = lq_setup

        class Perturbed(paths.Control):
            def values(self, i, t, states):
                gain = float(riccati.gain(t)[0]) if np.ndim(riccati.gain(t)) else float(riccati.gain(t))
                return spec.domain.project(-1.1 * gain * states)

        report = smp.check_maximum_principle(
            spec, grid, noise, Perturbed(), groups=8, basis=basis, seed=3
        )
        assert report.min_inner < 0.0
        assert report.violation_fraction > 0.05

    @pytest.mark.parametrize("groups", [1, 0])
    def test_fewer_than_two_groups_rejected(self, lq_setup, groups):
        # One group has no spread to estimate a standard error from.
        spec, riccati, grid, noise, basis = lq_setup
        with pytest.raises(ValueError, match="at least 2 groups"):
            smp.check_maximum_principle(spec, grid, noise, riccati.feedback(), groups=groups, basis=basis)

    def test_sign_of_derivative_at_converged_descent_point(self, lq_setup):
        # first-order optimality in integrated form: at the point the descent
        # converged to, the derivative in any feasible direction is
        # nonnegative up to statistical error plus the first-order effect of
        # the residual gradient (the descent stops at finite tolerance)
        spec, _, grid, noise, basis = lq_setup
        from qsmp import adjoint as adj

        init = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain)
        result = smp.projected_gradient_descent(
            spec, grid, noise, init, step_schedule=0.6, max_iters=40, basis=basis
        )
        policy = result.policy
        residual_grad = result.trace[-1].gradient_norm

        forward = paths.solve_forward_sde(spec, grid, noise, policy.control())

        rng = np.random.default_rng(51)
        for _ in range(5):
            candidate = spec.domain.sample(rng, 1)[0]
            uhat = np.broadcast_to(candidate, forward.controls.shape) - forward.controls
            _, _, phi, gamma = smp._derivative_sweep(spec, grid, noise, forward, lambda i: uhat[:, i], basis)
            value, se = adj.gamma_weighted_integral(gamma, phi, grid.dt)
            direction_norm = math.sqrt(
                float(np.einsum("mik,mik->", uhat[:, : grid.N], uhat[:, : grid.N]))
                * grid.dt / noise.M
            )
            assert value >= -(3.0 * se + residual_grad * direction_norm)

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from qsmp import adjoint as adj
from qsmp import bsde, model, paths, smp

from conftest import costate_alone, quadratic_alone


def _override(spec, **replacements):
    coeffs = model.CoefficientSet(**{**spec.coeffs.__dict__, **replacements})
    return model.ProblemSpec(
        n=spec.n, d=spec.d, k=spec.k, T=spec.T, x0=spec.x0,
        coeffs=coeffs, domain=spec.domain, constants=spec.constants,
    )


def auxiliary_solution(spec, grid, noise, forward, uhat):
    """The auxiliary solution for the direction ``uhat`` (whole paths), the
    Gamma-weighted integral (mean, SE) and Gamma, from the gradient check's
    one state-costate sweep."""
    _, aux, phi, gamma = smp._derivative_sweep(spec, grid, noise, forward, lambda i: uhat[:, i], None, width=None)
    return aux, adj.gamma_weighted_integral(gamma, phi, grid.dt), gamma


def gamma_path(spec, grid, noise, forward):
    """Gamma (M, N+1) along the trajectory."""
    return auxiliary_solution(spec, grid, noise, forward, np.zeros_like(forward.controls))[2]


@pytest.fixture(scope="module")
def tanh_chain(tanh_spec):
    """Full solve chain on the bounded tanh family, shared by several tests."""
    grid = paths.TimeGrid(80, 1.0)
    noise = paths.simulate_brownian(grid, 20000, 1, seed=31)
    u_bar = paths.ConstantControl((0.1,))
    u_other = paths.FeedbackControl(lambda t, x: np.clip(0.5 * np.tanh(x), -1, 1), k=1)
    forward = paths.solve_forward_sde(tanh_spec, grid, noise, u_bar)
    backward = bsde.solve_quadratic_bsde(tanh_spec, grid, noise, forward)
    adjoint = costate_alone(tanh_spec, grid, noise, forward, backward)
    uhat_at = smp._direction(u_other, grid, forward)
    uhat = np.stack([uhat_at(i) for i in range(grid.N + 1)], axis=1)
    return grid, noise, forward, backward, adjoint, uhat


@pytest.fixture(scope="module")
def tanh_auxiliary(tanh_chain, tanh_spec):
    """:func:`auxiliary_solution` on the tanh chain, in its direction and in
    the zero direction."""
    grid, noise, forward, _, _, uhat = tanh_chain
    return {
        name: auxiliary_solution(tanh_spec, grid, noise, forward, direction)
        for name, direction in (("uhat", uhat), ("zero", np.zeros_like(forward.controls)))
    }


class TestAdjointSolver:
    def test_shared_sweep_storage_needs_no_garbage_collector(self, tanh_spec, small_grid, small_noise):
        # A reference cycle through the sweep's step closures would keep every
        # solve's arrays alive until a collection, which multiplied peak memory
        # over the iterations of a descent.
        forward = paths.solve_forward_sde(tanh_spec, small_grid, small_noise, paths.ConstantControl((0.1,)))
        gc.disable()
        try:
            backward, adjoint = adj.solve_state_and_costate(tanh_spec, small_grid, small_noise, forward)
            refs = [weakref.ref(backward.Y.base), weakref.ref(adjoint.p)]
            del backward, adjoint
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_shared_sweep_equals_separate_solves(self, tanh_chain, tanh_spec):
        grid, noise, forward, backward, adjoint, _ = tanh_chain
        shared_backward, shared_adjoint = adj.solve_state_and_costate(tanh_spec, grid, noise, forward)
        for ours, theirs in (
            (shared_backward.Y, backward.Y),
            (shared_backward.Z, backward.Z),
            (shared_backward.pathwise_targets, backward.pathwise_targets),
            (shared_adjoint.p, adjoint.p),
            (shared_adjoint.q, adjoint.q),
        ):
            assert np.array_equal(ours, theirs)

    def test_constant_terminal_zero_generator(self, exp_utility_spec, small_grid, small_noise):
        # all state sensitivities vanish and Phi_x is constant: p = v, q = 0
        v_const = 0.8
        spec = _override(
            exp_utility_spec,
            f=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_z=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            Phi=lambda x: v_const * x[:, 0],
            Phi_x=lambda x: np.full((x.shape[0], 1), v_const),
        )
        forward = paths.solve_forward_sde(spec, small_grid, small_noise, paths.ConstantControl((0.0,)))
        backward = quadratic_alone(
            spec, small_grid, small_noise, forward, model.DerivedConstants(1.0, 100.0, 2.0, 1.0, 2.0, 8.0)
        )
        adjoint = costate_alone(spec, small_grid, small_noise, forward, backward)
        assert np.allclose(adjoint.p, v_const, atol=2e-5)
        assert np.abs(adjoint.q).max() <= 1e-4

    def test_matrix_ode_two_dimensional(self):
        # b_x = B constant, everything else insensitive: p(t) = exp(B^T (T-t)) v
        b_mat = np.array([[0.3, -0.2], [0.4, 0.1]])
        v_vec = np.array([1.0, -0.5])
        sig = np.array([[0.4], [0.2]])

        coeffs = model.CoefficientSet(
            b=lambda t, x, u: x @ b_mat.T,
            sigma=lambda t, x, u: np.broadcast_to(sig, (x.shape[0], 2, 1)).copy(),
            f=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            Phi=lambda x: x @ v_vec,
            b_x=lambda t, x, u: np.broadcast_to(b_mat, (x.shape[0], 2, 2)).copy(),
            b_u=lambda t, x, u: np.zeros((x.shape[0], 2, 1)),
            sigma_x=lambda t, x, u: np.zeros((x.shape[0], 1, 2, 2)),
            sigma_u=lambda t, x, u: np.zeros((x.shape[0], 1, 2, 1)),
            f_x=lambda t, x, y, z, u: np.zeros((x.shape[0], 2)),
            f_y=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_z=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            f_u=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            Phi_x=lambda x: np.broadcast_to(v_vec, (x.shape[0], 2)).copy(),
        )
        constants = model.AssumptionConstants(
            alpha=0.0, gamma=1.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0, Phi_sup=30.0,
            sigma_x_sup=(0.0,), b_x_sup=1.0, b_u_sup=0.0, sigma_u_sup=0.0, Phi_x_sup=2.0,
        )
        spec = model.ProblemSpec(
            n=2, d=1, k=1, T=1.0, x0=np.array([0.5, -0.2]), coeffs=coeffs,
            domain=model.BoxDomain((-1.0,), (1.0,)), constants=constants,
        )
        grid = paths.TimeGrid(100, 1.0)
        noise = paths.simulate_brownian(grid, 3000, 1, seed=32)
        forward = paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.0,)))
        backward = quadratic_alone(spec, grid, noise, forward, model.DerivedConstants(10.0, 1000.0, 2.0, 1.0, 2.0, 8.0))
        adjoint = costate_alone(spec, grid, noise, forward, backward)
        for idx in (0, grid.N // 2):
            expected = expm(b_mat.T * (grid.T - grid.times[idx])) @ v_vec
            observed = adjoint.p[:, idx].mean(axis=0)
            assert np.linalg.norm(observed - expected) <= 30.0 * grid.dt
        assert np.abs(adjoint.q).max() <= 1e-3

    def test_fine_grid_self_reference(self, tanh_spec):
        # constant diffusion state-sensitivity plus a quadratic-in-z generator:
        # the costate at time zero agrees with a much finer grid within the
        # seed-to-seed statistical spread
        spec = _override(
            tanh_spec,
            b=lambda t, x, u: np.zeros((x.shape[0], 1)),
            b_x=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            b_u=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
            sigma=lambda t, x, u: (0.5 + 0.3 * x)[:, :, None],
            sigma_x=lambda t, x, u: np.full((x.shape[0], 1, 1, 1), 0.3),
            sigma_u=lambda t, x, u: np.zeros((x.shape[0], 1, 1, 1)),
            f=lambda t, x, y, z, u: 0.25 * np.einsum("md,md->m", z, z),
            f_x=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            f_y=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_z=lambda t, x, y, z, u: 0.5 * z,
            f_u=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        )
        ctrl = paths.ConstantControl((0.0,))

        def p0_at(n_steps, seed):
            grid = paths.TimeGrid(n_steps, 1.0)
            noise = paths.simulate_brownian(grid, 4000, 1, seed=seed)
            forward = paths.solve_forward_sde(spec, grid, noise, ctrl)
            backward = bsde.solve_quadratic_bsde(spec, grid, noise, forward)
            adjoint = costate_alone(spec, grid, noise, forward, backward)
            return float(adjoint.p[:, 0].mean())

        coarse = [p0_at(512, seed) for seed in (1, 2, 3)]
        reference = [p0_at(2**12, seed) for seed in (99, 100)]
        spread = max(float(np.std(coarse, ddof=1)), 1e-3)
        tolerance = 3.0 * math.sqrt(spread**2 / 3 + spread**2 / 2)
        assert abs(float(np.mean(coarse)) - float(np.mean(reference))) <= tolerance


class TestGammaProcess:
    def test_zero_coefficients_identity(self, exp_utility_spec, small_grid, small_noise):
        spec = _override(
            exp_utility_spec,
            f=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_z=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        )
        forward = paths.solve_forward_sde(spec, small_grid, small_noise, paths.ConstantControl((0.0,)))
        gamma = gamma_path(spec, small_grid, small_noise, forward)
        assert np.all(gamma == 1.0)

    def test_deterministic_slope(self, exp_utility_spec, small_grid, small_noise):
        a_coef = 0.6
        spec = _override(
            exp_utility_spec,
            f=lambda t, x, y, z, u: a_coef * y,
            f_y=lambda t, x, y, z, u: np.full(x.shape[0], a_coef),
            f_z=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        )
        forward = paths.solve_forward_sde(spec, small_grid, small_noise, paths.ConstantControl((0.0,)))
        gamma = gamma_path(spec, small_grid, small_noise, forward)
        expected = np.exp(a_coef * small_grid.times)
        assert np.allclose(gamma, expected[None, :], rtol=1e-10)

    def test_positivity_and_unit_start(self, tanh_auxiliary):
        gamma = tanh_auxiliary["uhat"][2]
        assert np.all(gamma[:, 0] == 1.0)
        assert np.all(gamma > 0.0)

    def test_martingale_mean_when_slope_free(self, exp_utility_spec):
        # f_y = 0 for this family, so the weight is a pure stochastic
        # exponential of a bounded integrand: its terminal mean is 1
        grid = paths.TimeGrid(50, 1.0)
        noise = paths.simulate_brownian(grid, 100000, 1, seed=33)
        forward = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.0,)))
        terminal = gamma_path(exp_utility_spec, grid, noise, forward)[:, -1]
        se = terminal.std() / math.sqrt(noise.M)
        assert abs(terminal.mean() - 1.0) <= 4.0 * se


class TestAuxiliaryEquation:
    def test_zero_direction_is_zero(self, tanh_auxiliary):
        aux = tanh_auxiliary["zero"][0]
        assert np.all(aux.Y == 0.0)
        assert np.all(aux.Z == 0.0)

    def test_deterministic_integration_case(self, exp_utility_spec, small_grid, small_noise):
        # f = 0, sigma_u = 0, b_u = B, terminal gradient constant: the costate
        # is constant v, so the time-zero value is v B int(uhat) dt exactly
        v_const, b_const, direction = 0.8, 1.0, 0.4
        spec = _override(
            exp_utility_spec,
            f=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_z=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            Phi=lambda x: v_const * x[:, 0],
            Phi_x=lambda x: np.full((x.shape[0], 1), v_const),
        )
        forward = paths.solve_forward_sde(spec, small_grid, small_noise, paths.ConstantControl((0.0,)))
        uhat = np.full_like(forward.controls, direction)
        aux = auxiliary_solution(spec, small_grid, small_noise, forward, uhat)[0]
        expected = v_const * b_const * direction * small_grid.T
        assert aux.y0 == pytest.approx(expected, rel=1e-3)

    def test_two_representations_agree(self, tanh_auxiliary):
        aux, (via_gamma, se_gamma), _ = tanh_auxiliary["uhat"]
        combined = math.hypot(aux.y0_standard_error, se_gamma)
        assert abs(aux.y0 - via_gamma) <= 3.0 * combined


class TestWeightedIntegralRepresentation:
    def test_zero_direction_exact_zero(self, tanh_auxiliary):
        value, _ = tanh_auxiliary["zero"][1]
        assert value == 0.0

    def test_sign_flip_exact(self, tanh_chain, tanh_spec, tanh_auxiliary):
        grid, noise, forward, _, _, uhat = tanh_chain
        plus, _ = tanh_auxiliary["uhat"][1]
        minus, _ = auxiliary_solution(tanh_spec, grid, noise, forward, -uhat)[1]
        assert plus == -minus


class TestDecoupling:
    """Y^1 = p . X^1 + Yhat with X^1_0 = 0: at time zero the derivative of
    the value along the perturbation equals the auxiliary value. The
    derivative is taken here by common-noise difference quotients of the
    quadratic solution, as the gradient check takes it."""

    def test_zero_direction_all_residuals_vanish(self, tanh_chain, tanh_spec, tanh_auxiliary):
        grid, noise, forward, backward, _, _ = tanh_chain
        zero = np.zeros_like(forward.controls)
        aux, (weighted, _), _ = tanh_auxiliary["zero"]
        perturbed = smp._perturbed_cost(tanh_spec, grid, noise, forward, lambda i: zero[:, i], 0.25, None)
        quotient, se = smp._quotient(smp._cost(backward), perturbed, 0.25)
        assert quotient == 0.0 and se == 0.0
        assert aux.y0 == 0.0 and weighted == 0.0
        assert np.all(aux.Y == 0.0) and np.all(aux.Z == 0.0)

    def test_time_zero_identity(self, tanh_chain, tanh_spec, tanh_auxiliary):
        grid, noise, forward, backward, _, uhat = tanh_chain
        aux = tanh_auxiliary["uhat"][0]
        sizes = [2.0**-k for k in range(3, 7)]
        base = smp._cost(backward)
        quotients, ses = zip(*(
            smp._quotient(base, smp._perturbed_cost(tanh_spec, grid, noise, forward, lambda i: uhat[:, i], eps, None), eps)
            for eps in sizes
        ))
        intercept, intercept_se, _ = smp._weighted_affine_intercept(sizes, quotients, ses)
        # the state response starts at zero, so the value's derivative and
        # the auxiliary value must agree at time zero
        assert abs(intercept - aux.y0) <= 3.0 * math.hypot(intercept_se, aux.y0_standard_error)
        assert aux.y0 != 0.0


def _random_points(rng, spec, size):
    """(t, x, u, y, z, p, q) for a batch of ``size`` random points."""
    n, d, k = spec.n, spec.d, spec.k
    return (
        float(rng.uniform(0, spec.T)),
        rng.uniform(-2, 2, (size, n)),
        rng.uniform(-1, 1, (size, k)),
        rng.uniform(-1, 1, size),
        rng.uniform(-2, 2, (size, d)),
        rng.uniform(-2, 2, (size, n)),
        rng.uniform(-2, 2, (size, n, d)),
    )


def _hamiltonian(spec, t, x, u, y, z, p, q, u_bar):
    """The paper's Hamiltonian p . b + sum_i q^i . sigma^i + f(y, z + (sigma(u) -
    sigma(u_bar))^T p, u) at the reference control u_bar, shape (S,)."""
    co = spec.coeffs
    sigma = co.sigma(t, x, u)
    shift = np.einsum("sai,sa->si", sigma - co.sigma(t, x, u_bar), p)
    return (
        np.einsum("sa,sa->s", p, co.b(t, x, u))
        + np.einsum("sai,sai->s", q, sigma)
        + co.f(t, x, y, z + shift, u)
    )


class TestHamiltonian:
    def test_zero_generator_gradient(self, lq_spec):
        # with f = 0 the gradient reduces to b_u^T p + sum_i (sigma_u^i)^T q^i
        spec = _override(
            lq_spec,
            f=lambda t, x, y, z, u: np.zeros(x.shape[0]),
            f_u=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        )
        t, x, u, y, z, p, q = _random_points(np.random.default_rng(35), spec, 20)
        grad = adj.control_gradient(spec, adj.StepPoint.at(spec, 0, t, x, u, y, z, p, q))
        expected = 1.0 * p  # b_u = b = 1, sigma_u = 0
        assert np.allclose(grad, expected)

    def test_gradient_is_affine_in_the_costate(self, tanh_spec):
        # H_u is f_u at p = q = 0 and linear in (p, q) beyond it
        t, x, u, y, z, p, q = _random_points(np.random.default_rng(37), tanh_spec, 30)
        p2, q2 = np.roll(p, 1, axis=0), np.roll(q, 1, axis=0)

        def grad(p_arg, q_arg):
            return adj.control_gradient(tanh_spec, adj.StepPoint.at(tanh_spec, 0, t, x, u, y, z, p_arg, q_arg))

        at_zero = grad(np.zeros_like(p), np.zeros_like(q))
        assert np.array_equal(at_zero, tanh_spec.coeffs.f_u(t, x, y, z, u))
        combined = grad(p - 0.5 * p2, q - 0.5 * q2) - at_zero
        assert np.allclose(combined, (grad(p, q) - at_zero) - 0.5 * (grad(p2, q2) - at_zero), atol=1e-12)

    def test_gradient_matches_finite_differences(self, tanh_spec):
        # H_u at u = u_bar, where the shift of z vanishes; its derivative
        # brings in the f_z . sigma_u^T p term.
        rng = np.random.default_rng(36)
        step = 1e-5
        for _ in range(4):
            t, x, u, y, z, p, q = _random_points(rng, tanh_spec, 25)
            grad = adj.control_gradient(tanh_spec, adj.StepPoint.at(tanh_spec, 0, t, x, u, y, z, p, q))
            for j in range(tanh_spec.k):
                bump = np.zeros(tanh_spec.k)
                bump[j] = step
                up = _hamiltonian(tanh_spec, t, x, u + bump, y, z, p, q, u)
                down = _hamiltonian(tanh_spec, t, x, u - bump, y, z, p, q, u)
                fd = (up - down) / (2 * step)
                denom = np.maximum(np.maximum(np.abs(grad[:, j]), np.abs(fd)), 1.0)
                assert np.all(np.abs(grad[:, j] - fd) / denom <= 1e-6)

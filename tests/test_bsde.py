import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qsmp import bsde, families, model, paths
from qsmp.errors import IllConditionedBasisError, SolverError
from qsmp.regression import RegressionBasis, StepRegressor

from conftest import gauss_hermite_log_moment, linear_alone, quadratic_alone


def brownian_paths(noise):
    m = noise.M
    return np.concatenate([np.zeros((m, 1, 1)), noise.increments.cumsum(axis=1)], axis=1)


class TestRegression:
    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((500, 1))
        fitted, _ = StepRegressor(RegressionBasis(2), states, ridge=0.0).fit(np.full(500, 3.25))
        assert np.allclose(fitted, 3.25, atol=1e-9)
        # The default ridge (1e-8 M) shifts the fit by a few parts in 1e8.
        fitted, _ = StepRegressor(RegressionBasis(2), states).fit(np.full(500, 3.25))
        assert np.allclose(fitted, 3.25, rtol=1e-7, atol=0.0)

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(1)
        states = rng.standard_normal((400, 2))
        targets = 0.7 - 1.3 * states[:, 0] + 2.1 * states[:, 1]
        fitted, _ = StepRegressor(RegressionBasis(1), states, ridge=0.0).fit(targets)
        assert np.abs(fitted - targets).max() <= 1e-10

    def test_martingale_projection_slope(self):
        # E[W_T | W_{T/2}] = W_{T/2}: degree-1 regression recovers unit slope.
        # The coefficients are in standardised coordinates, so the slope is
        # read from the fit evaluated at two states.
        rng = np.random.default_rng(2)
        m = 100000
        w_half = rng.standard_normal(m) * math.sqrt(0.5)
        w_full = w_half + rng.standard_normal(m) * math.sqrt(0.5)
        _, fit = StepRegressor(RegressionBasis(1), w_half).fit(w_full)
        at_zero, at_one = fit.evaluate(np.array([[0.0], [1.0]]))[:, 0]
        assert 0.95 <= at_one - at_zero <= 1.05

    def test_rank_deficiency_raises_without_ridge(self):
        states = np.ones((100, 1))  # constant state: degree-1 features collinear
        with pytest.raises(IllConditionedBasisError):
            StepRegressor(RegressionBasis(1), states, ridge=0.0)

    def test_more_features_than_samples_rejected(self):
        states = np.random.default_rng(7).standard_normal((3, 1))
        with pytest.raises(IllConditionedBasisError):
            StepRegressor(RegressionBasis(4), states)  # 5 features

    def test_feature_count(self):
        basis = RegressionBasis(3)
        assert basis.exponents(2).shape[0] == math.comb(2 + 3, 3)

    def test_degree_zero_fit_is_the_batch_mean(self):
        rng = np.random.default_rng(8)
        reg = StepRegressor(RegressionBasis(0), rng.standard_normal((1000, 5)))
        targets = rng.standard_normal((1000, 2)) + 3.0
        fitted, fit = reg.fit(targets)
        assert reg.features.shape == (1000, 1) and np.all(reg.features == 1.0)
        # The default ridge 1e-8 M divides the sum by M (1 + 1e-8).
        assert np.allclose(fit.coefficients[0] * (1.0 + 1e-8), targets.mean(axis=0), rtol=1e-13, atol=0.0)
        assert np.all(fitted == fit.coefficients[0])

    def test_constant_feature_included(self):
        feats = RegressionBasis(2).features(np.random.default_rng(3).standard_normal((10, 2)))
        assert np.allclose(feats[:, 0], 1.0)

    @pytest.mark.parametrize("state_dim,degree", [(1, 3), (2, 2), (2, 0)])
    def test_features_equal_column_reference(self, state_dim, degree):
        rng = np.random.default_rng(5)
        states = rng.standard_normal((257, state_dim))
        shift, scale = rng.standard_normal(state_dim), rng.uniform(0.5, 2.0, state_dim)
        basis = RegressionBasis(degree)
        # Reference: every monomial filled column by column into a C-order (M, F) array.
        z = (states - shift) / scale
        expected = np.ones((len(states), basis.exponents(state_dim).shape[0]))
        for f_idx, row in enumerate(basis.exponents(state_dim)):
            for j, p in enumerate(row):
                if p:
                    power = np.ones(len(states))
                    for _ in range(p):
                        power = power * z[:, j]
                    expected[:, f_idx] *= power
        assert np.array_equal(basis.features(states, shift, scale), expected)

    def test_fits_independent_of_blas_threads(self):
        # One feature (degree 0) and 35 features at 20000 paths are shapes for
        # which a BLAS matrix-vector moment changes its last bits with the
        # thread count; every fitted value and coefficient must not.
        script = (
            "import hashlib, numpy as np\n"
            "from qsmp.regression import RegressionBasis, StepRegressor\n"
            "rng = np.random.default_rng(6)\n"
            "h = hashlib.sha256()\n"
            "for dim, degree in ((1, 0), (1, 3), (4, 3)):\n"
            "    reg = StepRegressor(RegressionBasis(degree), rng.standard_normal((20000, dim)))\n"
            "    for k in (1, 3):\n"
            "        fitted, fit = reg.fit(rng.standard_normal((20000, k)))\n"
            "        h.update(fitted.tobytes() + fit.coefficients.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
            env.update({var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]


class TestQuadraticSolver:
    def test_zero_generator_constant_terminal(self, small_grid):
        spec = families.build_exponential_utility()
        constant = 0.37

        def phi_const(x):
            return np.full(x.shape[0], constant)

        frozen = model.CoefficientSet(**{**spec.coeffs.__dict__, "Phi": phi_const,
                                         "f": lambda t, x, y, z, u: np.zeros(x.shape[0]),
                                         "f_z": lambda t, x, y, z, u: np.zeros((x.shape[0], 1))})
        spec2 = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=frozen,
                                  domain=spec.domain, constants=spec.constants)
        noise = paths.simulate_brownian(small_grid, 2000, 1, seed=5)
        fwd = paths.solve_forward_sde(spec2, small_grid, noise, paths.ConstantControl((0.0,)))
        sol = bsde.solve_quadratic_bsde(spec2, small_grid, noise, fwd)
        # default ridge shrinks the constant fit by ~1e-6 relative
        assert np.allclose(sol.Y, constant, atol=2e-5)
        assert np.abs(sol.Z).max() <= 5e-5

    def test_linear_in_y_generator_ode(self, small_grid):
        # f = a y, Phi = c: Y_t = c exp(a (T - t)) (deterministic)
        a_coef, constant = 0.8, 1.3
        spec = families.build_exponential_utility()
        coeffs = model.CoefficientSet(**{
            **spec.coeffs.__dict__,
            "f": lambda t, x, y, z, u: a_coef * y,
            "f_y": lambda t, x, y, z, u: np.full(x.shape[0], a_coef),
            "f_z": lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            "Phi": lambda x: np.full(x.shape[0], constant),
        })
        constants = model.AssumptionConstants(
            alpha=0.0, gamma=1.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=a_coef,
            Phi_sup=constant, sigma_x_sup=(0.0,), b_x_sup=0.0, b_u_sup=1.0,
            sigma_u_sup=0.0, Phi_x_sup=0.0,
        )
        spec2 = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=coeffs,
                                  domain=spec.domain, constants=constants)
        noise = paths.simulate_brownian(small_grid, 2000, 1, seed=6)
        fwd = paths.solve_forward_sde(spec2, small_grid, noise, paths.ConstantControl((0.0,)))
        # the declared constants make the closed-form ceiling astronomically
        # large; hand the solver a modest synthetic one instead
        synthetic = model.DerivedConstants(
            alpha_tilde=5.0, A=50.0, p_bar=2.0, p_bar_minus_one=1.0,
            p_bar_star=2.0, admissibility_exponent=8.0,
        )
        sol = quadratic_alone(spec2, small_grid, noise, fwd, synthetic)
        expected = constant * np.exp(a_coef * (small_grid.T - small_grid.times))
        worst = np.abs(sol.Y - expected[None, :]).max()
        assert worst <= 5.0 * a_coef**2 * constant * math.exp(a_coef) * small_grid.dt

    def test_exponential_moment_oracle(self, exp_utility_spec):
        grid = paths.TimeGrid(100, 1.0)
        noise = paths.simulate_brownian(grid, 20000, 1, seed=7)
        fwd = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.0,)))
        sol = bsde.solve_quadratic_bsde(exp_utility_spec, grid, noise, fwd)
        oracle = gauss_hermite_log_moment(gamma=1.0)
        assert abs(sol.y0 - oracle) <= 3.0 * sol.y0_standard_error

    def test_fixed_point_divergence_detected(self, exp_utility_spec, small_grid):
        # dt * f_y = 2: the y-iteration cannot contract
        coeffs = model.CoefficientSet(**{
            **exp_utility_spec.coeffs.__dict__,
            "f": lambda t, x, y, z, u: (2.0 / small_grid.dt) * y,
        })
        spec = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=coeffs,
                                 domain=exp_utility_spec.domain, constants=exp_utility_spec.constants)
        noise = paths.simulate_brownian(small_grid, 500, 1, seed=8)
        fwd = paths.solve_forward_sde(spec, small_grid, noise, paths.ConstantControl((0.0,)))
        with pytest.raises(SolverError):
            bsde.solve_quadratic_bsde(spec, small_grid, noise, fwd)

    def test_terminal_condition_exact(self, exp_utility_spec, small_grid, small_noise):
        fwd = paths.solve_forward_sde(exp_utility_spec, small_grid, small_noise, paths.ConstantControl((0.0,)))
        sol = bsde.solve_quadratic_bsde(exp_utility_spec, small_grid, small_noise, fwd)
        assert np.array_equal(sol.Y[:, -1], np.tanh(fwd.states[:, -1, 0]))


class TestLinearSolver:
    def test_zero_data_constant_terminal(self, small_grid, small_noise):
        w = brownian_paths(small_noise)
        sol = linear_alone(small_grid, small_noise, w, xi=2.5)
        # default ridge shrinks the constant fit by ~1e-6 relative
        assert np.allclose(sol.Y, 2.5, atol=2e-5)
        assert np.abs(sol.Z).max() <= 5e-5

    def test_scalar_ode(self, small_grid, small_noise):
        a_coef, constant = 0.7, 1.1
        w = brownian_paths(small_noise)
        sol = linear_alone(small_grid, small_noise, w, xi=constant, lam=a_coef)
        oracle = constant * math.exp(a_coef * small_grid.T)
        assert abs(sol.y0 - oracle) <= 3.0 * a_coef**2 * oracle * small_grid.dt

    def test_girsanov_drifted_mean(self):
        # mu = m constant, xi = W_T: under the tilted measure W gains drift m,
        # so Y_0 = m T (closed form via the exponential change of measure)
        grid = paths.TimeGrid(60, 1.0)
        noise = paths.simulate_brownian(grid, 40000, 1, seed=15)
        w = brownian_paths(noise)
        m_load = 0.4
        sol = linear_alone(grid, noise, w, xi=w[:, -1, 0], mu=m_load)
        assert abs(sol.y0 - m_load * grid.T) <= 3.0 * sol.y0_standard_error + 2.0 * grid.dt

    def test_singular_implicit_step_detected(self, small_grid, small_noise):
        w = brownian_paths(small_noise)
        with pytest.raises(SolverError):
            linear_alone(small_grid, small_noise, w, xi=1.0, lam=1.0 / small_grid.dt)

    def test_quadratic_solver_degrades_to_linear_on_affine_generator(self, small_grid):
        # f = lam y + mu z + c with no z-quadratic part: both solvers must
        # produce the same values once truncation is off
        lam_c, mu_c, phi_c = 0.4, 0.3, 0.2
        noise = paths.simulate_brownian(small_grid, 3000, 1, seed=16)
        spec = families.build_exponential_utility()
        coeffs = model.CoefficientSet(**{
            **spec.coeffs.__dict__,
            "f": lambda t, x, y, z, u: lam_c * y + mu_c * z[:, 0] + phi_c,
            "f_y": lambda t, x, y, z, u: np.full(x.shape[0], lam_c),
            "f_z": lambda t, x, y, z, u: np.full((x.shape[0], 1), mu_c),
        })
        spec2 = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=coeffs,
                                  domain=spec.domain, constants=spec.constants)
        fwd = paths.solve_forward_sde(spec2, small_grid, noise, paths.ConstantControl((0.0,)))
        basis = bsde.RegressionBasis(3)
        quad = bsde.solve_quadratic_bsde(
            spec2, small_grid, noise, fwd, basis=basis, truncation_radius=math.inf
        )
        lin = linear_alone(
            small_grid, noise, fwd.states, xi=np.tanh(fwd.states[:, -1, 0]), lam=lam_c, mu=mu_c, phi=phi_c, basis=basis
        )
        assert np.abs(quad.Y - lin.Y).max() <= 1e-10
        assert np.abs(quad.Z - lin.Z).max() <= 1e-10

    def test_refinement_reduces_error(self):
        # noisy terminal, stiff-ish slope: halving dt halves the mean error
        a_coef, constant, kappa = 1.0, 1.0, 0.3
        oracle = constant * math.exp(a_coef)
        means = []
        for n_steps in (8, 16):
            grid = paths.TimeGrid(n_steps, 1.0)
            errs = []
            for seed in range(10):
                noise = paths.simulate_brownian(grid, 20000, 1, seed=seed)
                w = brownian_paths(noise)
                sol = linear_alone(grid, noise, w, xi=constant + kappa * w[:, -1, 0], lam=a_coef)
                errs.append(abs(sol.y0 - oracle))
            means.append(np.mean(errs))
        assert means[1] < means[0]

    def test_linear_data_estimate_constant_stable(self):
        # E[sup|Y|^2 + int|Z|^2] <= C (E[|xi|^4 + (int|phi|)^4])^(1/2):
        # C fitted once on this family and frozen; per-seed refits stay close.
        frozen_c = 4.12  # calibration run, 5 seeds, M = 2e4, N = 50
        grid = paths.TimeGrid(50, 1.0)
        for seed in range(4):
            noise = paths.simulate_brownian(grid, 20000, 1, seed=seed)
            w = brownian_paths(noise)
            phi = 0.5 * w[:, : grid.N, 0]
            sol = linear_alone(grid, noise, w, xi=np.tanh(w[:, -1, 0]), lam=0.3, mu=0.4, phi=phi)
            sup_y2 = (sol.Y**2).max(axis=1)
            int_z2 = (sol.Z[:, : grid.N, 0] ** 2).sum(axis=1) * grid.dt
            lhs = float((sup_y2 + int_z2).mean())
            phi_int = (np.abs(phi) * grid.dt).sum(axis=1)
            rhs = float((np.tanh(w[:, -1, 0]) ** 4 + phi_int**4).mean()) ** 0.5
            fitted_c = lhs / rhs
            assert abs(fitted_c / frozen_c - 1.0) <= 0.05
            assert lhs <= 1.1 * frozen_c * rhs


class TestAprioriBound:
    def test_constant_terminal_case(self, small_grid, small_noise, exp_utility_spec):
        constant = 0.5
        coeffs = model.CoefficientSet(**{
            **exp_utility_spec.coeffs.__dict__,
            "f": lambda t, x, y, z, u: np.zeros(x.shape[0]),
            "f_z": lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
            "Phi": lambda x: np.full(x.shape[0], constant),
        })
        spec = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=coeffs,
                                 domain=exp_utility_spec.domain,
                                 constants=exp_utility_spec.constants)
        fwd = paths.solve_forward_sde(spec, small_grid, small_noise, paths.ConstantControl((0.0,)))
        sol = bsde.solve_quadratic_bsde(spec, small_grid, small_noise, fwd)
        constants = model.derive_constants(spec)
        report = bsde.estimate_apriori_bound(sol, constants, small_grid, fwd)
        assert report.sup_abs_y == pytest.approx(constant, abs=1e-5)
        assert report.bmo2_estimate <= 1e-3
        assert report.combined_passed
        assert all(m.passed for m in report.moment_checks)

    def test_exponential_family_bound_holds(self, exp_utility_spec):
        grid = paths.TimeGrid(50, 1.0)
        noise = paths.simulate_brownian(grid, 20000, 1, seed=17)
        fwd = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.0,)))
        sol = bsde.solve_quadratic_bsde(exp_utility_spec, grid, noise, fwd)
        constants = model.derive_constants(exp_utility_spec)
        report = bsde.estimate_apriori_bound(sol, constants, grid, fwd)
        assert report.combined_passed
        assert report.combined < 0.5 * constants.A  # comfortable margin
        assert all(m.passed for m in report.moment_checks)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_truncation_matches_linalg_norm_bits(d):
    z = np.random.default_rng(d).normal(0.0, 2.0, size=(20000, d))
    radius = 1.5 * math.sqrt(d)
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    expected = z * np.where(norms > radius, radius / np.where(norms > 0, norms, 1.0), 1.0)
    assert np.array_equal(model.clip_rows(z, radius), expected)
    # The ball's projection clips with the same rows.
    assert np.array_equal(model.BallDomain((0.0,) * d, radius).project(z), expected)


@pytest.mark.parametrize("rows, expected", [
    ([[1e300], [3.0], [-1e300], [1.0]], [[2.0], [2.0], [-2.0], [1.0]]),
    ([[1e200, 1e200], [3.0, 0.0], [0.5, -0.5]], [[math.sqrt(2.0), math.sqrt(2.0)], [2.0, 0.0], [0.5, -0.5]]),
])
def test_a_row_whose_squared_norm_overflows_is_clipped_in_its_direction(rows, expected):
    # Its squared norm is inf, which once scaled the row to zero.
    rows = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped = model.clip_rows(rows, 2.0)
    assert np.allclose(clipped, expected, rtol=1e-15, atol=0.0)
    # Every row whose squared norm is finite keeps the bits of the plain formula.
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.sum(rows * rows, axis=-1))
    norms = np.linalg.norm(rows[finite], axis=-1, keepdims=True)
    assert np.array_equal(clipped[finite], rows[finite] * np.where(norms > 2.0, 2.0 / norms, 1.0))


def test_rows_of_one_entry_inside_the_radius_are_returned_as_they_are():
    z = np.random.default_rng(9).uniform(-2.0, 2.0, size=(1000, 1))
    assert model.clip_rows(z, 2.0) is z
    z[17, 0] = np.nextafter(2.0, 3.0)
    assert model.clip_rows(z, 2.0) is not z

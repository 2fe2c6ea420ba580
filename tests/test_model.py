import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsmp import bmo, families
from qsmp.errors import QsmpError
from qsmp.model import (
    AssumptionConstants,
    BallDomain,
    BoxDomain,
    CoefficientSet,
    HalfspaceDomain,
    ProblemSpec,
    _chebyshev_radius,
    derive_constants,
    validate_assumptions,
)


def _zero_coeffs(gamma_slope=0.0):
    """f = (gamma_slope/2) |z|^2, everything else zero; n = d = k = 1."""

    def f(t, x, y, z, u):
        return 0.5 * gamma_slope * np.einsum("md,md->m", z, z)

    def f_z(t, x, y, z, u):
        return gamma_slope * z

    return CoefficientSet(
        b=lambda t, x, u: np.zeros((x.shape[0], 1)),
        sigma=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
        f=f,
        Phi=lambda x: np.zeros(x.shape[0]),
        b_x=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
        b_u=lambda t, x, u: np.zeros((x.shape[0], 1, 1)),
        sigma_x=lambda t, x, u: np.zeros((x.shape[0], 1, 1, 1)),
        sigma_u=lambda t, x, u: np.zeros((x.shape[0], 1, 1, 1)),
        f_x=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        f_y=lambda t, x, y, z, u: np.zeros(x.shape[0]),
        f_z=f_z,
        f_u=lambda t, x, y, z, u: np.zeros((x.shape[0], 1)),
        Phi_x=lambda x: np.zeros((x.shape[0], 1)),
    )


def _spec_with(gamma_slope, declared_gamma, declared_l2=0.0):
    constants = AssumptionConstants(
        alpha=0.0, gamma=declared_gamma, L1=0.0, L2=declared_l2, L3=0.0,
        f_y_sup=0.0, Phi_sup=0.0, sigma_x_sup=(0.0,), b_x_sup=0.0,
        b_u_sup=0.0, sigma_u_sup=0.0, Phi_x_sup=0.0,
    )
    return ProblemSpec(
        n=1, d=1, k=1, T=1.0, x0=np.zeros(1),
        coeffs=_zero_coeffs(gamma_slope),
        domain=BoxDomain((-1.0,), (1.0,)),
        constants=constants,
    )


class TestValidateAssumptions:
    def test_zero_generator_passes_everything(self):
        report = validate_assumptions(_spec_with(0.0, 1.0), 200)
        assert report.passed

    def test_quadratic_generator_with_correct_slope(self):
        report = validate_assumptions(_spec_with(1.0, 1.0), 200)
        assert report.passed
        worst = max(c.worst_ratio for c in report.checks if c.name.startswith("f_z_growth"))
        assert worst <= 1.0 + 1e-9

    def test_quadratic_generator_with_understated_slope_fails(self):
        # |f_z| = gamma |z| strictly exceeds (gamma/2) |z| at any sampled z != 0
        report = validate_assumptions(_spec_with(1.0, 0.5), 200)
        assert not report.passed
        fz_checks = [c for c in report.checks if c.name.startswith("f_z_growth")]
        assert any(not c.passed for c in fz_checks)
        assert max(c.worst_ratio for c in fz_checks) > 1.5

    def test_all_builtin_families_validate(self):
        for name in families.FAMILIES:
            report = validate_assumptions(families.FAMILIES[name](), 300)
            failures = [c.name for c in report.checks if not c.passed]
            assert report.passed, f"{name}: {failures}"

    def test_nonfinite_evaluator_rejected(self):
        spec = _spec_with(0.0, 1.0)
        bad = CoefficientSet(**{**spec.coeffs.__dict__, "Phi": lambda x: np.full(x.shape[0], np.nan)})
        bad_spec = ProblemSpec(
            n=1, d=1, k=1, T=1.0, x0=np.zeros(1),
            coeffs=bad, domain=spec.domain, constants=spec.constants,
        )
        with pytest.raises(QsmpError):
            validate_assumptions(bad_spec, 50)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            validate_assumptions(_spec_with(0.0, 1.0), 0)

    def test_derivative_check_catches_wrong_jacobian(self, tanh_spec):
        wrong = CoefficientSet(
            **{**tanh_spec.coeffs.__dict__, "b_x": lambda t, x, u: np.full((x.shape[0], 1, 1), 7.0)}
        )
        spec = ProblemSpec(
            n=1, d=1, k=1, T=tanh_spec.T, x0=tanh_spec.x0,
            coeffs=wrong, domain=tanh_spec.domain, constants=tanh_spec.constants,
        )
        report = validate_assumptions(spec, 100)
        assert not report["derivative_finite_differences"].passed


class TestDeriveConstants:
    def test_minimal_case(self):
        # Phi_sup = 0, f_y_sup = 0, alpha = 0, L2 = 0, gamma = 1:
        # alpha_tilde = 0 and the ceiling collapses to 1/8.
        derived = derive_constants(_spec_with(1.0, 1.0))
        assert derived.alpha_tilde == 0.0
        assert derived.A == pytest.approx(0.125, rel=1e-14)

    def test_unit_case_against_high_precision(self):
        # gamma = 1, T = 1, Phi_sup = 1: alpha_tilde = 1, A = 1 + (e^4/2)(1/4 + 1)
        constants = AssumptionConstants(
            alpha=0.0, gamma=1.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0,
            Phi_sup=1.0, sigma_x_sup=(0.0,), b_x_sup=0.0, b_u_sup=0.0,
            sigma_u_sup=0.0, Phi_x_sup=0.0,
        )
        spec = ProblemSpec(
            n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=_zero_coeffs(1.0),
            domain=BoxDomain((-1.0,), (1.0,)), constants=constants,
        )
        derived = derive_constants(spec)
        with mpmath.workdps(40):
            expected = float(1 + mpmath.e**4 / 2 * (mpmath.mpf(1) / 4 + 1))
        assert derived.alpha_tilde == pytest.approx(1.0, rel=1e-14)
        assert derived.A == pytest.approx(expected, rel=1e-13)

    def test_conjugate_exponent_identity(self):
        for name in families.FAMILIES:
            derived = derive_constants(families.FAMILIES[name]())
            # exact through the stored offset, regardless of how close to 1
            lhs = derived.p_bar_star * derived.p_bar_minus_one
            assert lhs == pytest.approx(1.0 + derived.p_bar_minus_one, rel=1e-10)
            assert derived.admissibility_exponent == pytest.approx(4.0 * derived.p_bar_star)

    def test_float_level_conjugate_identity_when_representable(self):
        # the multiplicative family has a moderate critical-exponent target,
        # so p_bar sits far enough above 1 for the plain-float identity
        derived = derive_constants(families.build_controlled_geometric())
        assert derived.p_bar > 1.0 + 1e-8
        assert derived.p_bar_star * (derived.p_bar - 1.0) == pytest.approx(derived.p_bar, rel=1e-10)

    def test_psi_round_trip_at_target(self, tanh_spec):
        derived = derive_constants(tanh_spec)
        c = tanh_spec.constants
        target = math.sqrt(
            (c.L3**2 * tanh_spec.T + 2 * c.gamma**2 * derived.A) * (3 + 4 * 1 * 1)
            + 2 * tanh_spec.T * c.sigma_x_sup[0] ** 2
        )
        assert bmo.psi_of_offset(derived.p_bar_minus_one) == pytest.approx(target, rel=1e-8)

    @given(st.floats(min_value=0.0, max_value=0.8), st.floats(min_value=0.0, max_value=0.8))
    @settings(max_examples=60, deadline=None)
    def test_ceiling_monotone_in_terminal_bound(self, phi_a, phi_b):
        lo, hi = sorted((phi_a, phi_b))

        def ceiling(phi_sup):
            constants = AssumptionConstants(
                alpha=0.1, gamma=0.5, L1=0.0, L2=0.2, L3=0.1, f_y_sup=0.1,
                Phi_sup=phi_sup, sigma_x_sup=(0.1,), b_x_sup=0.0, b_u_sup=0.0,
                sigma_u_sup=0.0, Phi_x_sup=0.0,
            )
            spec = ProblemSpec(
                n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=_zero_coeffs(0.5),
                domain=BoxDomain((-1.0,), (1.0,)), constants=constants,
            )
            return derive_constants(spec).A

        assert ceiling(hi) >= ceiling(lo) - 1e-12

    def test_degenerate_overflow_signalled(self):
        constants = AssumptionConstants(
            alpha=0.0, gamma=1.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0,
            Phi_sup=500.0, sigma_x_sup=(0.0,), b_x_sup=0.0, b_u_sup=0.0,
            sigma_u_sup=0.0, Phi_x_sup=0.0,
        )
        spec = ProblemSpec(
            n=1, d=1, k=1, T=1.0, x0=np.zeros(1), coeffs=_zero_coeffs(1.0),
            domain=BoxDomain((-1.0,), (1.0,)), constants=constants,
        )
        with pytest.raises(QsmpError):
            derive_constants(spec)


class TestAssumptionConstants:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            AssumptionConstants(
                alpha=0.0, gamma=0.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0,
                Phi_sup=0.0, sigma_x_sup=(0.0,), b_x_sup=0.0, b_u_sup=0.0,
                sigma_u_sup=0.0, Phi_x_sup=0.0,
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AssumptionConstants(
                alpha=-1.0, gamma=1.0, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0,
                Phi_sup=0.0, sigma_x_sup=(0.0,), b_x_sup=0.0, b_u_sup=0.0,
                sigma_u_sup=0.0, Phi_x_sup=0.0,
            )


vectors = st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=2, max_size=2).map(np.array)


class TestControlDomains:
    @given(vectors)
    @settings(max_examples=100, deadline=None)
    def test_box_projection_idempotent(self, v):
        box = BoxDomain((-1.0, -0.5), (1.0, 2.0))
        once = box.project(v)
        assert np.allclose(box.project(once), once)
        assert box.contains(once)
        if box.contains(v):
            assert np.allclose(once, v)

    @given(vectors)
    @settings(max_examples=100, deadline=None)
    def test_ball_projection_idempotent(self, v):
        ball = BallDomain((0.2, -0.1), 0.8)
        once = ball.project(v)
        assert np.allclose(ball.project(once), once, atol=1e-12)
        assert ball.contains(once, tol=1e-9)
        if ball.contains(v):
            assert np.allclose(once, v)

    @given(vectors)
    @settings(max_examples=100, deadline=None)
    def test_halfspace_projection_idempotent(self, v):
        dom = HalfspaceDomain(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)), (1.0, 1.0, 1.5))
        once = dom.project(v)
        assert dom.contains(once, tol=1e-8)
        assert np.allclose(dom.project(once), once, atol=1e-10)
        if dom.contains(v, tol=0.0):
            assert np.allclose(once, v)

    def test_halfspace_single_matches_closed_form(self):
        dom = HalfspaceDomain(((2.0, 0.0),), (1.0,))
        outside = np.array([3.0, 4.0])
        projected = dom.project(outside)
        assert np.allclose(projected, [0.5, 4.0])

    def test_samples_live_in_domain(self):
        rng = np.random.default_rng(0)
        for dom in (
            BoxDomain((-1.0,), (1.0,)),
            BallDomain((0.0, 0.0), 1.0),
            HalfspaceDomain(((1.0, 0.0),), (0.5,)),
        ):
            draws = dom.sample(rng, 256, boundary_bias=0.5)
            assert np.all(dom.contains(draws, tol=1e-8))

    @pytest.mark.parametrize(
        "dom",
        [
            HalfspaceDomain(((1.0,), (-1.0,)), (-5.0, 7.0)),  # -7 <= u <= -5
            HalfspaceDomain(((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)), (-3.0, -3.0, 8.0)),  # a triangle
        ],
        ids=["interval", "triangle"],
    )
    def test_halfspace_draws_fill_a_domain_away_from_the_origin(self, dom):
        # Draws about the origin all land on the faces nearest to it.
        draws = dom.sample(np.random.default_rng(0), 1000, boundary_bias=0.5)
        slack = np.asarray(dom.offsets) - draws @ np.asarray(dom.normals).T
        assert np.all(slack >= -1e-9)
        assert np.mean(np.all(slack > 1e-6, axis=1)) > 0.2
        assert np.mean(np.any(slack <= 1e-9, axis=1)) > 0.1

    def test_halfspace_draws_centre_on_the_largest_inscribed_ball(self):
        # The interval's Chebyshev centre is -6, radius 1; the triangle's is
        # its incentre, radius 2 / (2 + sqrt 2).
        interval = HalfspaceDomain(((1.0,), (-1.0,)), (-5.0, 7.0))
        assert np.mean(interval.sample(np.random.default_rng(1), 4000)) == pytest.approx(-6.0, abs=0.05)
        triangle = HalfspaceDomain(((-1.0, 0.0), (0.0, -1.0), (1.0, 1.0)), (-3.0, -3.0, 8.0))
        inradius = 2.0 / (2.0 + math.sqrt(2.0))
        centre, radius = triangle._inscribed_ball()
        assert radius == pytest.approx(inradius, rel=1e-12)
        assert np.allclose(centre, 3.0 + inradius, atol=1e-10)

    def test_chebyshev_radius_of_a_square_and_a_halfplane(self):
        # [-2, 2]^2 holds a ball of radius 2 and no larger; a half-plane
        # holds every ball.
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        offsets = np.full(4, 2.0)
        norms = np.linalg.norm(normals, axis=1)
        assert _chebyshev_radius(normals, offsets, norms) == pytest.approx(2.0, rel=1e-12)
        assert _chebyshev_radius(normals[:1], offsets[:1], norms[:1]) == math.inf
        # scaling a face's normal and offset together leaves the domain as it is
        scaled = normals * np.array([[3.0], [1.0], [1.0], [0.5]])
        scaled_offsets = offsets * np.array([3.0, 1.0, 1.0, 0.5])
        assert _chebyshev_radius(scaled, scaled_offsets, np.linalg.norm(scaled, axis=1)) == pytest.approx(2.0, rel=1e-12)

    def test_model_import_loads_no_scipy(self):
        # The inscribed ball is solved with numpy alone.
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        script = "import sys, qsmp.model; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_boundary_bias_hits_boundary(self):
        rng = np.random.default_rng(1)
        box = BoxDomain((-1.0,), (1.0,))
        draws = box.sample(rng, 400, boundary_bias=0.5)
        assert np.mean(np.abs(draws) > 0.999) > 0.1


class TestProblemSpec:
    def test_dimension_checks(self, exp_utility_spec):
        with pytest.raises(ValueError):
            ProblemSpec(
                n=0, d=1, k=1, T=1.0, x0=np.zeros(0),
                coeffs=exp_utility_spec.coeffs, domain=exp_utility_spec.domain,
                constants=exp_utility_spec.constants,
            )
        with pytest.raises(ValueError):
            ProblemSpec(
                n=1, d=1, k=1, T=-1.0, x0=np.zeros(1),
                coeffs=exp_utility_spec.coeffs, domain=exp_utility_spec.domain,
                constants=exp_utility_spec.constants,
            )

    def test_immutable_initial_state(self, exp_utility_spec):
        with pytest.raises(ValueError):
            exp_utility_spec.x0[0] = 3.0

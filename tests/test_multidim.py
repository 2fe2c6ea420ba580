"""An inline problem with n = d = k = 2: a non-diagonal diffusion whose
second column depends on the state, and a generator quadratic in z. The
built-in families are all one-dimensional, so this is where the vector
shapes and the costate's matrix solve are exercised."""

import dataclasses

import numpy as np
import pytest

from qsmp import adjoint, bsde, model, smp
from qsmp.config import build_expression_problem
from qsmp.errors import SolverError
from qsmp.model import AssumptionConstants, BoxDomain
from qsmp.paths import FeedbackControl, TimeGrid, simulate_brownian, solve_forward_sde

from conftest import costate_alone

SOURCES = {
    "b": "[0.2*x2 + u1, -0.3*x1 + u2]",
    "sigma": "[[0.5, 0.2*tanh(x2)], [0.1, 0.4 + 0.1*tanh(x1)]]",
    "f": "0.25*(z1^2 + z2^2) + 0.1*(u1^2 + u2^2) + 0.05*tanh(x1)*u2",
    "Phi": "0.5*tanh(x1) + 0.25*tanh(x2)",
}

CONSTANTS = AssumptionConstants(
    alpha=0.3, gamma=0.5, L1=0.05, L2=0.0, L3=0.3, f_y_sup=0.0, Phi_sup=0.75,
    sigma_x_sup=(0.0, 0.25), b_x_sup=0.4, b_u_sup=1.5, sigma_u_sup=0.0, Phi_x_sup=0.6,
)


@pytest.fixture(scope="module")
def spec():
    return build_expression_problem(
        n=2, d=2, k=2, T=1.0, x0=[0.1, -0.2], sources=SOURCES,
        domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)), constants=CONSTANTS,
    )


def constant_control(values):
    return FeedbackControl(lambda t, x: np.tile(values, (x.shape[0], 1)), k=len(values))


def test_symbolic_derivatives_match_finite_differences(spec):
    report = model.validate_assumptions(spec, 256, seed=0)
    assert report["derivative_finite_differences"].passed


def test_shared_sweep_equals_separate_solves(spec):
    grid = TimeGrid(20, 1.0)
    m_paths = 2000
    noise = simulate_brownian(grid, m_paths, 2, 4)
    forward = solve_forward_sde(spec, grid, noise, constant_control([0.3, -0.2]))
    backward, costate = adjoint.solve_state_and_costate(spec, grid, noise, forward)
    alone = bsde.solve_quadratic_bsde(spec, grid, noise, forward)
    alone_costate = costate_alone(spec, grid, noise, forward, alone)
    assert np.array_equal(backward.Y, alone.Y) and np.array_equal(backward.Z, alone.Z)
    assert np.array_equal(costate.p, alone_costate.p) and np.array_equal(costate.q, alone_costate.q)
    assert costate.p.shape == (m_paths, grid.N + 1, 2)
    assert costate.q.shape == (m_paths, grid.N + 1, 2, 2)


def test_gateaux_check_agrees_with_the_adjoint(spec):
    # The scheme's bias is first order in dt (the gap between the two
    # derivatives halves when N doubles), so N is large enough here for the
    # gap to sit inside the Monte Carlo error.
    grid = TimeGrid(100, 1.0)
    noise = simulate_brownian(grid, 3000, 2, 1)
    rep = smp.gateaux_check(spec, grid, noise, constant_control([0.0, 0.0]), constant_control([1.0, -1.0]))
    assert not rep.inconclusive
    assert abs(rep.extrapolated_intercept - rep.yhat0) <= 3 * rep.intercept_gap_se()


def test_singular_costate_step_names_the_step():
    # b_x = c I with dt * c = 1 makes the implicit costate matrix I - dt b_x^T
    # exactly zero at every step.
    n_steps, horizon = 10, 1.0
    c = n_steps / horizon
    spec = build_expression_problem(
        n=2, d=1, k=1, T=horizon, x0=[0.1, 0.2],
        sources={"b": f"[{c}*x1 + u1, {c}*x2]", "sigma": "[[1.0], [0.5]]", "f": "0.005*z1^2", "Phi": "tanh(x1)"},
        domain=BoxDomain((-1.0,), (1.0,)),
        constants=AssumptionConstants(
            alpha=0.0, gamma=0.01, L1=0.0, L2=0.0, L3=0.0, f_y_sup=0.0, Phi_sup=1.0,
            sigma_x_sup=(0.0,), b_x_sup=c, b_u_sup=1.0, sigma_u_sup=0.0, Phi_x_sup=1.0,
        ),
    )
    grid = TimeGrid(n_steps, horizon)
    noise = simulate_brownian(grid, 500, 1, 2)
    forward = solve_forward_sde(spec, grid, noise, constant_control([0.0]))
    with pytest.raises(SolverError, match=r"implicit costate step is singular \(step 9\)"):
        adjoint.solve_state_and_costate(spec, grid, noise, forward)


def test_costate_at_time_zero_is_the_x0_derivative_of_y0(spec):
    # Under a constant open-loop control the pair is Markovian, so
    # p_0 = dY_0/dx_0: central differences of Y_0 in x0 on common noise.
    # The state-dependent second diffusion column makes sigma_x nonzero, so
    # this watches the costate's sigma_x^T q term (dropping it moves x1's gap
    # to about -5.5 SE; transposing sigma_x in it, to about +4.4 SE).
    grid, h = TimeGrid(50, 1.0), 1e-3
    noise = simulate_brownian(grid, 20000, 2, 5)
    control = constant_control([0.3, -0.2])

    def solve(x0):
        shifted = dataclasses.replace(spec, x0=x0)
        return bsde.solve_quadratic_bsde(shifted, grid, noise, solve_forward_sde(shifted, grid, noise, control))

    _, costate = adjoint.solve_state_and_costate(spec, grid, noise, solve_forward_sde(spec, grid, noise, control))
    p0 = costate.p[:, 0].mean(axis=0)
    for j, step in enumerate(h * np.eye(2)):
        up, down = solve(spec.x0 + step), solve(spec.x0 - step)
        slope = (up.y0 - down.y0) / (2 * h)
        se = ((up.pathwise_targets - down.pathwise_targets) / (2 * h)).std() / np.sqrt(noise.M)
        assert abs(p0[j] - slope) <= 3 * se, (j, p0[j], slope, se)

"""The descent's policy gradient, which the shared backward sweep forms step
by step while keeping two time slices of Y, Z, p and q: it must give the same
numbers as an after-the-fact loop over whole paths, evaluate the generator's
slopes once per step, hold less memory, chain the gradient through the
control projection, and guard Gamma."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qsmp import adjoint, bmo, bsde, families, model, paths, smp
from qsmp.config import build_expression_problem
from qsmp.errors import SolverError
from qsmp.model import BallDomain, BoxDomain, HalfspaceDomain
from test_multidim import CONSTANTS, SOURCES


def full_storage_gradient(spec, grid, noise, policy, basis=None):
    """The policy gradient after the fact: whole-path Y, Z, p and q, then a
    loop over the steps that evaluates the slopes again and forms the
    control gradient and the step of log Gamma."""
    forward = paths.solve_forward_sde(spec, grid, noise, policy.control())
    backward, costate = adjoint.solve_state_and_costate(spec, grid, noise, forward, basis=basis)
    weight = paths.step_major((noise.M, grid.N, spec.k))
    log_gamma = paths.step_major((noise.M, grid.N + 1), fill=0.0)
    for i in range(grid.N):
        x_i, u_i = forward.states[:, i], forward.controls[:, i]
        point = adjoint.StepPoint.at(
            spec, i, grid.times[i], x_i, u_i, backward.Y[:, i], backward.Z[:, i], costate.p[:, i], costate.q[:, i]
        )
        weight[:, i] = policy.domain.pullback(policy.raw(i, x_i), adjoint.control_gradient(spec, point))
        log_gamma[:, i + 1] = bmo.log_exponential_increment(point.f_y, point.f_z, noise.increments[:, i], grid.dt)
    gamma = bmo.cumulate_log_exponential(log_gamma, "exponential weight")
    weight *= gamma[:, : grid.N, None]
    grad_gains = np.einsum("mik,min->ikn", weight, forward.states[:, : grid.N]) / noise.M
    return backward.y0, backward.y0_standard_error, weight.mean(axis=0), grad_gains, gamma


def assert_streamed_equals_full(spec, grid, noise, policy, basis=None):
    streamed = smp._policy_gradient(spec, grid, noise, policy, basis)
    *full, gamma = full_storage_gradient(spec, grid, noise, policy, basis)
    for name, a, b in zip(("cost", "cost_se", "grad_offsets", "grad_gains"), streamed, full):
        assert np.array_equal(a, b), name
    return gamma


def test_streamed_gradient_equals_full_storage_on_tanh(tanh_spec):
    grid = paths.TimeGrid(30, 1.0)
    noise = paths.simulate_brownian(grid, 3000, 1, seed=61)
    policy = smp.AffineFeedbackPolicy.random(grid, 1, 1, tanh_spec.domain, np.random.default_rng(62), scale=0.8)
    gamma = assert_streamed_equals_full(tanh_spec, grid, noise, policy, bsde.RegressionBasis(2))
    # f_y and f_z are nonzero here, so Gamma is not identically one
    assert np.abs(gamma - 1.0).max() > 1e-3


def test_streamed_gradient_equals_full_storage_in_two_dimensions():
    spec = build_expression_problem(
        n=2, d=2, k=2, T=1.0, x0=[0.1, -0.2], sources=SOURCES,
        domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)), constants=CONSTANTS,
    )
    grid = paths.TimeGrid(15, 1.0)
    noise = paths.simulate_brownian(grid, 2000, 2, seed=63)
    policy = smp.AffineFeedbackPolicy.random(grid, 2, 2, spec.domain, np.random.default_rng(64), scale=0.5)
    assert_streamed_equals_full(spec, grid, noise, policy)


def test_slopes_are_evaluated_once_per_step(tanh_spec):
    # The costate step evaluates f_y and f_z; the control gradient, the step
    # of log Gamma and the auxiliary data read them from the visited point.
    calls = {"f_y": 0, "f_z": 0}

    def counted(name):
        fn = getattr(tanh_spec.coeffs, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    spec = dataclasses.replace(
        tanh_spec, coeffs=dataclasses.replace(tanh_spec.coeffs, **{name: counted(name) for name in calls})
    )
    grid = paths.TimeGrid(12, 1.0)
    noise = paths.simulate_brownian(grid, 1000, 1, seed=68)
    smp._policy_gradient(spec, grid, noise, smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain), None)
    assert calls == {"f_y": grid.N, "f_z": grid.N}
    calls.update(f_y=0, f_z=0)
    # The perturbed chains of the gradient check evaluate f only.
    smp.gateaux_check(spec, grid, noise, paths.ConstantControl((0.1,)), paths.ConstantControl((0.4,)))
    assert calls == {"f_y": grid.N, "f_z": grid.N}


def test_policy_gradient_peak_memory(lq_spec):
    # Whole-path storage of Y, Z, p and q alone would be four (M, N+1)
    # arrays on top of the states, controls, weights and Gamma.
    grid = paths.TimeGrid(50, 1.0)
    m_paths = 4000
    noise = paths.simulate_brownian(grid, m_paths, 1, seed=65)
    policy = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, lq_spec.domain)
    basis = bsde.RegressionBasis(2)
    smp._policy_gradient(lq_spec, grid, noise, policy, basis)
    tracemalloc.start()
    try:
        smp._policy_gradient(lq_spec, grid, noise, policy, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * m_paths * (grid.N + 1) * 8


def test_gamma_overflow_raises_at_the_same_step(lq_spec):
    coeffs = model.CoefficientSet(**{
        **lq_spec.coeffs.__dict__,
        "f_z": lambda t, x, y, z, u: np.full((x.shape[0], 1), 60.0),
    })
    spec = model.ProblemSpec(n=1, d=1, k=1, T=1.0, x0=lq_spec.x0, coeffs=coeffs,
                             domain=lq_spec.domain, constants=lq_spec.constants)
    grid = paths.TimeGrid(50, 1.0)
    noise = paths.simulate_brownian(grid, 4000, 1, seed=3)
    policy = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain)
    with pytest.raises(SolverError) as full:
        full_storage_gradient(spec, grid, noise, policy)
    with pytest.raises(SolverError) as streamed:
        smp._policy_gradient(spec, grid, noise, policy, None)
    assert "exponential weight exponent overflow" in str(streamed.value)
    assert streamed.value.step == full.value.step == 15


def test_non_finite_exponent_raises():
    log_values = np.zeros((3, 4))
    log_values[1, 2] = np.nan
    with pytest.raises(SolverError, match=r"exponent overflow \(step 1\)"):
        bmo.cumulate_log_exponential(log_values, "exponential weight")


@pytest.mark.parametrize(
    "domain",
    [
        BoxDomain((-1.0, 0.0), (1.0, 0.5)),
        BallDomain((0.3, -0.2), 0.7),
        # 118 of the 200 raw points lie outside, 31 of them past the corner
        HalfspaceDomain(((1.0, 0.2), (-0.3, 1.0)), (0.3, 0.4)),
    ],
    ids=["box", "ball", "halfspace"],
)
def test_pullback_is_the_transposed_jacobian_of_project(domain):
    rng = np.random.default_rng(66)
    raw = rng.normal(0.0, 1.0, size=(200, 2))
    weight = rng.normal(size=(200, 2))
    h = 1e-6
    columns = []
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        columns.append((domain.project(raw + step) - domain.project(raw - step)) / (2 * h))
    jacobian = np.stack(columns, axis=-1)  # (S, k, k): d project_a / d raw_j
    expected = np.einsum("saj,sa->sj", jacobian, weight)
    pulled = domain.pullback(raw, weight.copy())
    assert np.allclose(pulled, expected, atol=1e-7)
    assert not np.allclose(pulled, weight)


def test_every_control_clipped_gives_zero_gradient(exp_utility_spec):
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 2000, 1, seed=67)
    policy = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, exp_utility_spec.domain)
    policy.offsets[:] = -3.0
    _, _, grad_offsets, grad_gains = smp._policy_gradient(exp_utility_spec, grid, noise, policy, None)
    assert not np.any(grad_offsets) and not np.any(grad_gains)


def test_descent_stops_at_the_box_bound():
    # Exponential utility is cheapest at the lower bound u = -1. With the raw
    # Hamiltonian gradient the offsets kept drifting below -2 while the cost
    # stayed flat and the gradient norm stayed near its first value.
    spec = families.build_exponential_utility()
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 4000, 1, seed=7)
    init = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, spec.domain)
    result = smp.projected_gradient_descent(spec, grid, noise, init, step_schedule=2.0, max_iters=10)
    norms = [row.gradient_norm for row in result.trace]
    assert norms[-1] < 0.01 * norms[0]
    assert result.policy.offsets.min() > -2.0
    # Near the bound the cost moves by far less than its standard error,
    # which is not divergence.
    assert not result.halted_on_divergence and len(result.trace) == 10

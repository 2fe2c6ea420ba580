import types

import numpy as np
import pytest

from qsmp import adjoint, bsde, families, paths


@pytest.fixture(scope="session")
def exp_utility_spec():
    return families.build_exponential_utility()


@pytest.fixture(scope="session")
def lq_spec():
    return families.build_linear_quadratic()


@pytest.fixture(scope="session")
def tanh_spec():
    return families.build_bounded_tanh()


@pytest.fixture(scope="session")
def small_grid():
    return paths.TimeGrid(50, 1.0)


@pytest.fixture(scope="session")
def small_noise(small_grid):
    return paths.simulate_brownian(small_grid, 4000, 1, seed=42)


def gauss_hermite_log_moment(gamma: float = 1.0, mean: float = 0.0, var: float = 1.0) -> float:
    """ln E[exp(gamma * tanh(X))] / gamma for X ~ Normal(mean, var), by
    200-point Gauss-Hermite quadrature (independent of the solvers)."""
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    samples = mean + np.sqrt(2.0 * var) * nodes
    value = np.sum(weights * np.exp(gamma * np.tanh(samples))) / np.sqrt(np.pi)
    return float(np.log(value) / gamma)


def costate_alone(spec, grid, noise, forward, backward):
    """The costate pair along a solved backward pair, in a sweep of its own:
    the reference for the costate that the shared state-costate sweep solves."""
    # The costate reads the pair as the quadratic equation stores it: (M, w, 1) and (M, w, 1, d).
    state = types.SimpleNamespace(values=backward.Y[:, :, None], integrands=backward.Z[:, :, None])
    eq = adjoint.costate_equation(spec, grid, forward, state)
    bsde.backward_sweep(grid, noise, forward.states, [eq], bsde.RegressionBasis(3))
    return adjoint.AdjointSolution(eq.values, eq.integrands, eq.terminal)


def quadratic_alone(spec, grid, noise, forward, constants):
    """The quadratic backward pair under the given derived constants, which
    set the abort level and the default truncation radius, solved by the
    quadratic solver's step (``bsde.quadratic_equation``) in a sweep of its own."""
    radius = bsde.default_truncation_radius(constants, spec.T)
    eq = bsde.quadratic_equation(spec, grid, forward, radius, constants)
    bsde.backward_sweep(grid, noise, forward.states, [eq], bsde.RegressionBasis(3))
    return eq.scalar_solution()


def linear_alone(grid, noise, states, xi, lam=0.0, mu=0.0, phi=0.0, basis=None):
    """The affine BSDE with generator lam y + mu . z + phi and terminal xi,
    each broadcast to its per-path-step shape, solved by the gradient
    check's affine step (``bsde.linear_equation``) in a sweep of its own."""
    m_paths, n_steps, d = noise.M, grid.N, noise.d
    lam, phi = (np.broadcast_to(np.asarray(c, dtype=np.float64), (m_paths, n_steps)) for c in (lam, phi))
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), (m_paths, n_steps, d))
    terminal = np.broadcast_to(np.asarray(xi, dtype=np.float64), (m_paths,))[:, None]
    eq = bsde.linear_equation(terminal, grid, d, lambda i: (lam[:, i], mu[:, i], phi[:, i]))
    bsde.backward_sweep(grid, noise, states, [eq], basis or bsde.RegressionBasis(3))
    return eq.scalar_solution()

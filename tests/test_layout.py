"""Step-major storage: every path-step array keeps its logical shape
(M, steps, ...) and indexing, while each step's slice ``a[:, i]`` is one
contiguous block."""

import math

import numpy as np
import pytest

from qsmp import adjoint, paths, smp

M, N = 300, 6


@pytest.fixture(scope="module")
def chain(tanh_spec):
    grid = paths.TimeGrid(N, 1.0)
    noise = paths.simulate_brownian(grid, M, tanh_spec.d, seed=3)
    forward = paths.solve_forward_sde(tanh_spec, grid, noise, paths.ConstantControl((0.1,)))
    backward, costate = adjoint.solve_state_and_costate(tanh_spec, grid, noise, forward)
    return grid, noise, forward, backward, costate


def test_step_slices_are_contiguous(tanh_spec, chain, monkeypatch):
    grid, noise, forward, backward, costate = chain
    n, d, k = tanh_spec.n, tanh_spec.d, tanh_spec.k
    uhat = paths.realize_control_along(paths.ConstantControl((0.3,)), grid, forward.states) - forward.controls
    _, aux, gamma = adjoint.auxiliary_sweep(tanh_spec, grid, noise, forward, uhat)
    # The descent's weights live inside the policy gradient: record what it allocates.
    allocated = []

    def recording_step_major(shape, fill=None):
        allocated.append(paths.step_major(shape, fill))
        return allocated[-1]

    monkeypatch.setattr(smp, "step_major", recording_step_major)
    smp._policy_gradient(tanh_spec, grid, noise, smp.AffineFeedbackPolicy.zeros(grid, n, k, tanh_spec.domain), None)
    (weight,) = [a for a in allocated if a.shape == (M, N, k)]
    arrays = {
        "increments": (noise.increments, (M, N, d)),
        "states": (forward.states, (M, N + 1, n)),
        "controls": (forward.controls, (M, N + 1, k)),
        "Y": (backward.Y, (M, N + 1)),
        "Z": (backward.Z, (M, N + 1, d)),
        "p": (costate.p, (M, N + 1, n)),
        "q": (costate.q, (M, N + 1, n, d)),
        "gamma": (gamma, (M, N + 1)),
        "weight": (weight, (M, N, k)),
        "lam": (aux.lam, (M, N)),
        "mu": (aux.mu, (M, N, d)),
        "phi": (aux.phi, (M, N)),
    }
    for name, (array, shape) in arrays.items():
        assert array.shape == shape, name
        assert all(array[:, i].flags.c_contiguous for i in range(shape[1])), name


def test_brownian_draw_order_is_unchanged():
    # 2500 paths span several draw blocks, the last one partial.
    grid = paths.TimeGrid(7, 0.5)
    noise = paths.simulate_brownian(grid, 2500, 3, seed=11, stream_id=2)
    expected = np.random.default_rng([11, 2, 0x5D]).standard_normal((2500, 7, 3)) * math.sqrt(grid.dt)
    assert np.array_equal(noise.increments, expected)
    assert not noise.increments.flags.writeable


def test_step_major_keeps_indexing():
    a = paths.step_major((4, 3, 2), fill=1.5)
    assert a.shape == (4, 3, 2) and np.all(a == 1.5)
    a[2, 1] = [7.0, 8.0]
    assert a[2, 1, 1] == 8.0 and a[:, 1].flags.c_contiguous

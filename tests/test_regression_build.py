"""A step's regression is built straight into a given (F, M) buffer, which in
a pipelined sweep is a slot of the partner's ring that still holds an
earlier step's features. Built into a reused buffer or into a new one, and
against the plain product of powers from a row of ones, the features, shift,
scale and Cholesky factor must be the same bits."""

import numpy as np
import pytest

from qsmp.regression import RegressionBasis, StepRegressor


def reference_features(basis, z):
    """Each monomial as a row of ones multiplied by each of its coordinates'
    powers in coordinate order, a power p by repeated multiplication."""
    rows = []
    for exponents in basis.exponents(z.shape[1]):
        row = np.ones(z.shape[0])
        for j, p in enumerate(exponents):
            power = np.ones(z.shape[0])
            for _ in range(p):
                power = power * z[:, j]
            if p:
                row = row * power
        rows.append(row)
    return np.array(rows).T


def states(n, seed, m_paths=3000):
    rng = np.random.default_rng(seed)
    return 1.5 + 2.0 * rng.standard_normal((m_paths, n)) @ np.triu(np.ones((n, n)))


def assert_same_build(a, b):
    for name in ("features", "shift", "scale", "chol"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_into_a_reused_buffer_equals_a_fresh_build(n, degree):
    basis = RegressionBasis(degree)
    earlier, x = states(n, 10 + n), states(n, 20 + n)
    fresh = StepRegressor(basis, x)
    buffer = np.empty((len(basis.exponents(n)), x.shape[0]))
    StepRegressor(basis, earlier, out=buffer)  # another step's rows stay in the buffer
    assert not np.array_equal(buffer.T, fresh.features) or degree == 0
    reused = StepRegressor(basis, x, out=buffer)
    assert np.shares_memory(reused.features, buffer)
    assert_same_build(reused, fresh)
    z = (x - fresh.shift) / fresh.scale
    assert np.array_equal(fresh.features, reference_features(basis, z))
    assert np.array_equal(basis.features(x, fresh.shift, fresh.scale), fresh.features)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scale_is_numpys_standard_deviation(n):
    x = states(n, 30 + n)
    assert np.array_equal(StepRegressor(RegressionBasis(2), x).scale, np.std(x, axis=0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_constant_coordinate_has_scale_one(n):
    basis = RegressionBasis(2)
    x = states(n, 40 + n)
    x[:, n - 1] = 0.75
    fresh = StepRegressor(basis, x)
    assert fresh.scale[n - 1] == 1.0
    assert np.array_equal(fresh.scale[: n - 1], np.std(x, axis=0)[: n - 1])
    buffer = np.full((len(basis.exponents(n)), x.shape[0]), np.nan)
    assert_same_build(StepRegressor(basis, x, ridge=1e-6, out=buffer), StepRegressor(basis, x, ridge=1e-6))
    assert np.array_equal(fresh.features, reference_features(basis, (x - fresh.shift) / fresh.scale))

"""The BMO2 tail profile streams: one running (M,) tail, walked from the last
step back, in place of whole-path squares and tails. It must give the bits of
the whole-path form written here, name the step of a non-finite tail, and
hold far less than one path-step array."""

import math

import numpy as np
import pytest

from qsmp import bmo, bsde, model, paths
from qsmp.errors import SolverError
from qsmp.regression import RegressionBasis, StepRegressor
from test_streamed_checks import _peak_bytes

M, N = 600, 12


def whole_path_profile(integrand, grid, features, basis, ridge, quantile=None):
    """The profile from whole-path arrays: squares by one einsum over
    (M, N, d), tails by ``np.cumsum`` over the reversed steps, then one fit
    per step."""
    m_paths, n_steps, _ = integrand.shape
    sq = np.einsum("mnd,mnd->mn", integrand, integrand) * grid.dt
    tails = paths.step_major((m_paths, n_steps + 1), fill=0.0)
    np.cumsum(sq[:, ::-1], axis=1, out=tails[:, -2::-1])
    basis = basis or RegressionBasis(2)
    best_max = best_q = 0.0
    for j in range(n_steps):
        if features is None:
            fitted = np.full(m_paths, tails[:, j].mean())
        else:
            fitted, _ = StepRegressor(basis, features[:, j], ridge).fit(tails[:, j])
        fitted = np.maximum(fitted, 0.0)
        best_max = max(best_max, float(fitted.max()))
        if quantile is not None:
            best_q = max(best_q, float(np.quantile(fitted, quantile)))
    return math.sqrt(best_max), math.sqrt(best_q)


def stored_arrays(d, layout, seed=0):
    """An adapted-looking integrand (M, N, d) and states (M, N+1, 2) in the
    given layout: step-major, as the solvers store them, or C order."""
    rng = np.random.default_rng(seed)
    states = np.cumsum(rng.standard_normal((M, N + 1, 2)) * 0.3, axis=1)
    integrand = np.tanh(states[:, :N, :1] + 0.5 * states[:, :N, 1:]) + 0.2 * rng.standard_normal((M, N, d))
    if layout == "step_major":
        integrand = _to_step_major(integrand)
        states = _to_step_major(states)
    return integrand, states


def _to_step_major(a):
    out = paths.step_major(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("quantile", [None, 0.999])
@pytest.mark.parametrize("with_features", [False, True], ids=["mean", "regression"])
@pytest.mark.parametrize("layout", ["step_major", "c_order"])
@pytest.mark.parametrize("d", [1, 2])
def test_profile_matches_whole_path_form_bitwise(d, layout, with_features, quantile):
    grid = paths.TimeGrid(N, 0.7)
    integrand, states = stored_arrays(d, layout, seed=d)
    features = states if with_features else None
    basis = RegressionBasis(2)
    expected = whole_path_profile(integrand, grid, features, basis, None, quantile)
    assert bmo._tail_sup_profile(integrand, grid, features, basis, None, quantile) == expected
    assert expected[0] > 0.0 and (quantile is None) == (expected[1] == 0.0)
    if quantile is None:
        assert bmo.estimate_bmo2(integrand, grid, features, basis) == expected[0]
    else:
        report = bmo.bmo_report(integrand, grid, features, basis)
        assert (report.bmo2_estimate, report.bmo2_quantile_estimate) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("with_features", [False, True], ids=["mean", "regression"])
@pytest.mark.parametrize("step", [0, 5, N - 1])
def test_non_finite_tail_raises_at_its_step(step, with_features, bad):
    # Python's max() skips a NaN, so a folded NaN would leave a finite estimate.
    grid = paths.TimeGrid(N, 1.0)
    integrand, states = stored_arrays(1, "step_major")
    integrand[17, step, 0] = bad
    features = states if with_features else None
    with pytest.raises(SolverError, match="fitted BMO tail is not finite") as err:
        bmo.bmo_report(integrand, grid, features)
    assert err.value.step == step


@pytest.fixture(scope="module")
def stored_solution(exp_utility_spec):
    """A whole-path solution of the exponential-utility problem and the size
    of one (M, N) array."""
    m_paths, n_steps = 4000, 50
    grid = paths.TimeGrid(n_steps, exp_utility_spec.T)
    noise = paths.simulate_brownian(grid, m_paths, exp_utility_spec.d, seed=9)
    forward = paths.solve_forward_sde(exp_utility_spec, grid, noise, paths.ConstantControl((0.5,)))
    backward = bsde.solve_quadratic_bsde(exp_utility_spec, grid, noise, forward)
    return grid, forward, backward, m_paths * n_steps * 8


def test_bmo_report_peak_memory(stored_solution):
    # A step holds its square, the tail, the fit and one regression's (M, 3)
    # features: about eight (M,) vectors, a sixth of one array at N = 50.
    # Whole-path squares and tails would be more than two arrays.
    grid, forward, backward, one_array = stored_solution
    integrand = backward.Z[:, : grid.N, :]
    peak = _peak_bytes(lambda: bmo.bmo_report(integrand, grid, features=forward.states))
    assert peak < 0.25 * one_array


def test_apriori_bound_peak_memory(exp_utility_spec, stored_solution):
    # sup|Y| is read in place, so the profile's step arrays are the peak; a
    # copy of |Y| alone would be one (M, N+1) array.
    grid, forward, backward, one_array = stored_solution
    constants = model.derive_constants(exp_utility_spec)
    peak = _peak_bytes(lambda: bsde.estimate_apriori_bound(backward, constants, grid, forward))
    assert peak < 0.25 * one_array


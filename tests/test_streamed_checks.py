"""The two checks of the maximum principle keep per-step arrays, not whole
solution paths: the mp-check's sweeps copy out what they read at the check
steps, and the gradient check solves the auxiliary equation inside the
state-costate sweep. Both must give the same bits as the after-the-fact
computations on whole paths written here, and hold less memory."""

import tracemalloc

import numpy as np
import pytest

from qsmp import adjoint, bmo, bsde, cli, families, paths, smp
from qsmp.config import build_expression_problem
from qsmp.model import BoxDomain
from qsmp.regression import StepRegressor
from conftest import linear_alone
from test_multidim import CONSTANTS, SOURCES

FIELDS = ("x", "u", "y", "z", "p", "q", "f_y", "f_z")


def lq_problem():
    spec = families.build_linear_quadratic()
    riccati = families.solve_lq_riccati(a=0.5, b=1.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0, x0=1.0)
    return spec, riccati.feedback(), paths.ConstantControl((0.0,))


def two_dimensional_problem():
    spec = build_expression_problem(
        n=2, d=2, k=2, T=1.0, x0=[0.1, -0.2], sources=SOURCES,
        domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)), constants=CONSTANTS,
    )
    return spec, paths.ConstantControl((0.3, -0.2)), paths.ConstantControl((-0.5, 0.4))


PROBLEMS = {"lq": (lq_problem, 1, 20, 2400), "two_dimensional": (two_dimensional_problem, 2, 12, 1600)}


def full_storage_points(spec, grid, noise, forward, basis, check_steps, query_paths):
    """The query points read from whole-path Y, Z, p and q."""
    backward, costate = adjoint.solve_state_and_costate(spec, grid, noise, forward, basis=basis)
    arrays = (forward.states, forward.controls, backward.Y, backward.Z, costate.p, costate.q)
    return [
        adjoint.StepPoint.at(spec, i, grid.times[i], *(a[query_paths, i] for a in arrays)) for i in check_steps
    ]


def full_storage_replicate(spec, grid, noise, forward, sel, basis, points):
    """A replicate group's control gradients, fitted after the fact on its
    whole-path solution."""
    g_noise = paths.BrownianBatch(noise.increments[sel], noise.seed, noise.stream_id)
    g_forward = paths.ForwardBatch(forward.states[sel], forward.controls[sel])
    g_backward, g_costate = adjoint.solve_state_and_costate(spec, grid, g_noise, g_forward, basis=basis)
    n, d = spec.n, spec.d
    fields = []
    for query in points:
        i, x_q = query.i, query.x
        reg = StepRegressor(basis, g_forward.states[:, i])
        targets = (g_backward.Y[:, i], g_backward.Z[:, i], g_costate.p[:, i], g_costate.q[:, i].reshape(-1, n * d))
        gy, gz, gp, gq = (reg.fit(values)[1].evaluate(x_q) for values in targets)
        point = adjoint.StepPoint.at(spec, i, query.t, x_q, query.u, gy[:, 0], gz, gp, gq.reshape(len(x_q), n, d))
        fields.append(adjoint.control_gradient(spec, point))
    return fields


@pytest.mark.parametrize("problem", PROBLEMS)
def test_streamed_mp_check_fields_equal_full_storage(problem):
    build, d, n_steps, m_paths = PROBLEMS[problem]
    spec, u_bar, _ = build()
    grid = paths.TimeGrid(n_steps, 1.0)
    noise = paths.simulate_brownian(grid, m_paths, d, seed=71)
    basis = bsde.RegressionBasis(2)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    check_steps = smp._check_steps(grid.N, 5)
    query_paths = np.random.default_rng(72).choice(m_paths, size=16, replace=False)

    points = smp._query_points(spec, grid, noise, forward, basis, check_steps, query_paths)
    expected = full_storage_points(spec, grid, noise, forward, basis, check_steps, query_paths)
    assert [point.i for point in points] == list(check_steps)
    for ours, theirs in zip(points, expected):
        for name in FIELDS:
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), (ours.i, name)

    size = m_paths // 4
    for g in range(4):
        sel = slice(g * size, (g + 1) * size)
        streamed = smp._replicate_fields(spec, grid, noise, forward, sel, basis, points)
        full = full_storage_replicate(spec, grid, noise, forward, sel, basis, expected)
        for i, ours, theirs in zip(check_steps, streamed, full):
            assert np.array_equal(ours, theirs), (g, i)


def full_storage_derivatives(spec, grid, noise, u_bar, u):
    """Both adjoint derivatives after the fact: whole-path Y, Z, p and q, a
    loop over the steps that forms the auxiliary data (M, N) arrays, and a
    second sweep for the auxiliary equation."""
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    uhat = paths.step_major(forward.controls.shape)
    for i in range(grid.N + 1):
        uhat[:, i] = u.values(i, grid.times[i], forward.states[:, i]) - forward.controls[:, i]
    backward, costate = adjoint.solve_state_and_costate(spec, grid, noise, forward)
    lam, phi = paths.step_major((noise.M, grid.N)), paths.step_major((noise.M, grid.N))
    mu = paths.step_major((noise.M, grid.N, spec.d))
    log_gamma = paths.step_major((noise.M, grid.N + 1), fill=0.0)
    for i in range(grid.N):
        point = adjoint.StepPoint.at(
            spec, i, grid.times[i], forward.states[:, i], forward.controls[:, i],
            backward.Y[:, i], backward.Z[:, i], costate.p[:, i], costate.q[:, i],
        )
        lam[:, i], mu[:, i] = point.f_y, point.f_z
        phi[:, i] = np.einsum("mk,mk->m", adjoint.control_gradient(spec, point), uhat[:, i])
        log_gamma[:, i + 1] = bmo.log_exponential_increment(point.f_y, point.f_z, noise.increments[:, i], grid.dt)
    gamma = bmo.cumulate_log_exponential(log_gamma, "exponential weight")
    aux = linear_alone(grid, noise, forward.states, 0.0, lam, mu, phi)
    return aux, adjoint.gamma_weighted_integral(gamma, phi, grid.dt)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_in_sweep_auxiliary_equals_full_storage(problem):
    build, d, n_steps, m_paths = PROBLEMS[problem]
    spec, u_bar, u = build()
    grid = paths.TimeGrid(n_steps, 1.0)
    noise = paths.simulate_brownian(grid, m_paths, d, seed=73)
    report = smp.gateaux_check(spec, grid, noise, u_bar, u)
    aux, (via_gamma, via_gamma_se) = full_storage_derivatives(spec, grid, noise, u_bar, u)
    assert (report.yhat0, report.yhat0_se) == (aux.y0, aux.y0_standard_error)
    assert (report.yhat0_gamma, report.yhat0_gamma_se) == (via_gamma, via_gamma_se)
    assert report.yhat0 != 0.0


def _peak_bytes(fn):
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def moderate():
    spec, u_bar, _ = lq_problem()
    grid = paths.TimeGrid(50, 1.0)
    m_paths = 4000
    noise = paths.simulate_brownian(grid, m_paths, 1, seed=65)
    return spec, u_bar, grid, noise, m_paths * (grid.N + 1) * 8


def test_gradient_check_peak_memory(moderate, exp_utility_spec):
    # Besides the forward batch (states and controls), phi and Gamma, each
    # about one (M, N+1) array, a perturbed chain holds its forward batch:
    # about 4.9 arrays. The direction and a perturbed chain's controls are
    # formed step by step, never as whole tables.
    _, _, grid, noise, one_array = moderate
    peak = _peak_bytes(
        lambda: smp.gateaux_check(
            exp_utility_spec, grid, noise, paths.ConstantControl((0.0,)), paths.ConstantControl((0.5,))
        )
    )
    assert peak < 5.5 * one_array


def test_mp_check_peak_memory(moderate):
    # The forward batch is two (M, N+1) arrays; every sweep keeps two time
    # slices (about 2.6 arrays in all). Whole-path Y, Z, p and q of the base
    # solve added four more (about 6.4).
    spec, u_bar, grid, noise, one_array = moderate
    basis = bsde.RegressionBasis(2)
    peak = _peak_bytes(lambda: smp.check_maximum_principle(spec, grid, noise, u_bar, groups=8, basis=basis))
    assert peak < 4 * one_array


def test_mp_check_builds_one_regression_per_sweep_step(monkeypatch):
    # The replicate fits go through the sweep's own regression: the base
    # sweep and each group's sweep build one per step, and nothing else does.
    spec, u_bar, _ = lq_problem()
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 1024, 1, seed=5)
    built = []

    class CountingRegressor(StepRegressor):
        def __init__(self, basis, states, ridge=None):
            built.append(len(states))
            super().__init__(basis, states, ridge)

    monkeypatch.setattr(bsde, "StepRegressor", CountingRegressor)
    monkeypatch.setattr(smp, "StepRegressor", CountingRegressor, raising=False)
    report = smp.check_maximum_principle(spec, grid, noise, u_bar, groups=4, basis=bsde.RegressionBasis(2))
    assert built == [1024] * grid.N + [256] * (4 * grid.N)
    assert len(report.per_time_min) == len(smp._check_steps(grid.N, 12))


def test_too_few_paths_per_group_rejected_before_any_solve(moderate):
    spec, _, grid, _, _ = moderate
    noise = paths.simulate_brownian(grid, 500, 1, seed=3)

    class Unreachable(paths.Control):
        def values(self, i, t, states):
            raise AssertionError("the check solved a chain before validating its groups")

    with pytest.raises(ValueError, match=r"too few paths per replication group \(500 // 8 = 62 < 64\)"):
        smp.check_maximum_principle(spec, grid, noise, Unreachable(), groups=8)


def test_too_few_paths_per_group_is_a_located_config_error(tmp_path, capsys):
    path = tmp_path / "mp.cfg"
    path.write_text(
        "[problem]\nfamily = linear_quadratic\n\n[grid]\nN = 10\nT = 1.0\n\n[monte_carlo]\nM = 500\nseed = 3\n"
    )
    assert cli.main(["mp-check", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[check] groups: too few paths per replication group (500 // 8 = 62 < 64)" in err
    assert "[monte_carlo] M = 500" in err


def test_check_steps_are_regression_steps():
    spec, u_bar, _ = lq_problem()
    grid = paths.TimeGrid(1, 1.0)
    noise = paths.simulate_brownian(grid, 2000, 1, seed=3)
    report = smp.check_maximum_principle(spec, grid, noise, u_bar, basis=bsde.RegressionBasis(2), seed=3)
    # At N = 1 the only regression step is 0. Step N has no fitted Z or q,
    # so a check there compares nothing (its row read exactly 0.0).
    assert len(report.per_time_min) == 1 and report.per_time_min[0] != 0.0
    # The shipped grid keeps its steps.
    assert smp._check_steps(200, 12) == [1, 19, 37, 55, 73, 91, 109, 127, 145, 163, 181, 199]

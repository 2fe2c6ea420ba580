"""A state-costate sweep at width 2 runs pipelined over two processes
(``bsde._pipelined_sweep``): a partner process builds each step's regression
and solves the quadratic equation, and the calling process solves the
costate and any later equation a few steps behind. Pipelined or in-process,
the sweep must give the same bits; the errors must come at the step and in
the order of the in-process sweep; a partner that dies must be a solver
error, not a hang; no partner may outlive its sweep; and a check's worker
process forks no partner."""

import dataclasses
import math
import os
import signal
import time

import numpy as np
import pytest

from qsmp import adjoint, bsde, paths, smp
from qsmp.errors import SolverError
from test_streamed_checks import PROBLEMS
from test_worker_checks import _check, needs_two_cpus, worker_pids  # noqa: F401 (a fixture)

pytestmark = needs_two_cpus


@pytest.fixture
def partners(monkeypatch, tmp_path):
    """Records each partner process, a file ``<partner pid>-<its parent's
    pid>`` per call of ``bsde._partner``; returns the reader of the
    recorded (partner, parent) pid pairs."""
    partner = bsde._partner
    records = tmp_path / "partners"
    records.mkdir()

    def recording_partner(*args):
        (records / f"{os.getpid()}-{os.getppid()}").touch()
        partner(*args)

    monkeypatch.setattr(bsde, "_partner", recording_partner)
    return lambda: sorted(tuple(int(pid) for pid in path.name.split("-")) for path in records.iterdir())


def _set_pipelined(monkeypatch, pipelined):
    """Force the pipelined sweep (any size) or the in-process one (every size)."""
    monkeypatch.setattr(bsde, "_FORK_MIN_PATH_STEPS", 0 if pipelined else math.inf)


def _assert_reaped(pairs):
    """Every recorded partner is gone, not left a zombie."""
    assert pairs
    for partner, parent in pairs:
        assert parent == os.getpid()
        with pytest.raises(ProcessLookupError):
            os.kill(partner, 0)


def _chain(problem):
    build, d, n_steps, m_paths = PROBLEMS[problem]
    spec, u_bar, u = build()
    grid = paths.TimeGrid(n_steps, 1.0)
    noise = paths.simulate_brownian(grid, m_paths, d, seed=91)
    return spec, grid, noise, u_bar, u


def _policy_gradient(problem):
    spec, grid, noise, _, _ = _chain(problem)
    policy = smp.AffineFeedbackPolicy.random(grid, spec.n, spec.k, spec.domain, np.random.default_rng(92), 0.5)
    return smp._policy_gradient(spec, grid, noise, policy, bsde.RegressionBasis(2))


def _derivative_sweep(problem):
    spec, grid, noise, u_bar, u = _chain(problem)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    backward, aux, phi, gamma = smp._derivative_sweep(
        spec, grid, noise, forward, smp._direction(u, grid, forward), bsde.RegressionBasis(2)
    )
    return (
        backward.Y, backward.Z, backward.pathwise_targets, aux.Y, aux.Z, aux.pathwise_targets, phi, gamma,
    )


def _query_points(problem):
    spec, grid, noise, u_bar, _ = _chain(problem)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    query_paths = np.random.default_rng(93).choice(noise.M, size=16, replace=False)
    points = smp._query_points(spec, grid, noise, forward, bsde.RegressionBasis(2), [1, grid.N // 2], query_paths)
    return [getattr(point, name) for point in points for name in ("x", "u", "y", "z", "p", "q", "f_y", "f_z")]


def _replicate_fields(problem):
    # The visit fits the group's solution with the sweep's regression and evaluates the fits.
    spec, grid, noise, u_bar, _ = _chain(problem)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    queries = [smp._Query(i, grid.times[i], forward.states[:16, i], forward.controls[:16, i]) for i in (1, grid.N // 2)]
    return smp._replicate_fields(spec, grid, noise, forward, slice(0, noise.M), bsde.RegressionBasis(2), queries)


@pytest.mark.parametrize("solve", [_policy_gradient, _derivative_sweep, _query_points, _replicate_fields])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_pipelined_and_in_process_sweeps_are_the_same_bits(problem, solve, monkeypatch, partners):
    _set_pipelined(monkeypatch, False)
    in_process = solve(problem)
    assert partners() == []
    _set_pipelined(monkeypatch, True)
    pipelined = solve(problem)
    assert len(partners()) == 1
    _assert_reaped(partners())
    assert len(pipelined) == len(in_process)
    for j, (a, b) in enumerate(zip(pipelined, in_process)):
        assert np.array_equal(a, b), j


def _failing_spec(spec, grid, **at_step):
    """``spec`` whose coefficient ``name`` turns NaN (or raises, for
    ``"raise"``) at step ``at_step[name]``; ``f`` is read by the quadratic
    step, ``f_x`` only by the costate."""
    coeffs = spec.coeffs
    changed = {}
    for name, (i, how) in at_step.items():
        original = getattr(coeffs, name)

        def coefficient(t, *args, original=original, t_i=grid.times[i], how=how):
            value = np.asarray(original(t, *args), dtype=np.float64)
            if t == t_i:
                if how == "raise":
                    raise ValueError(f"no coefficient at t = {t}")
                return np.full_like(value, np.nan)
            return value

        changed[name] = coefficient
    return dataclasses.replace(spec, coeffs=dataclasses.replace(coeffs, **changed))


def _sweep_error(spec, grid, noise, monkeypatch, pipelined, error=SolverError, visit=lambda point: None):
    _set_pipelined(monkeypatch, pipelined)
    forward = paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.2,) * spec.k))
    with pytest.raises(error) as raised:
        adjoint.solve_state_and_costate(spec, grid, noise, forward, width=2, visit=visit)
    return raised.value


def test_quadratic_failure_is_raised_at_its_step(lq_spec, monkeypatch, partners):
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 600, 1, seed=94)
    spec = _failing_spec(lq_spec, grid, f=(7, "nan"))
    errors = [_sweep_error(spec, grid, noise, monkeypatch, pipelined) for pipelined in (False, True)]
    assert [err.step for err in errors] == [7, 7]
    assert str(errors[0]) == str(errors[1]) == "fixed-point sub-iteration did not converge (step 7)"
    _assert_reaped(partners())


def test_quadratic_failure_is_raised_when_the_costate_lags_behind(lq_spec, monkeypatch, partners):
    # The partner fails at step 18 and ends while this process is still in
    # the visit of step 19, before it frees that step's slot.
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 600, 1, seed=94)
    spec = _failing_spec(lq_spec, grid, f=(18, "nan"))
    errors = [
        _sweep_error(spec, grid, noise, monkeypatch, pipelined, visit=lambda point: time.sleep(0.2))
        for pipelined in (False, True)
    ]
    assert [err.step for err in errors] == [18, 18]
    assert str(errors[0]) == str(errors[1])
    _assert_reaped(partners())


def test_an_earlier_costate_failure_is_raised_first(lq_spec, monkeypatch, partners):
    # The sweep runs from step N-1 down: the costate fails at step 12 before
    # the quadratic step reaches step 10, however far ahead the partner is.
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 600, 1, seed=95)
    spec = _failing_spec(lq_spec, grid, f=(10, "nan"), f_x=(12, "nan"))
    errors = [_sweep_error(spec, grid, noise, monkeypatch, pipelined) for pipelined in (False, True)]
    assert [err.step for err in errors] == [12, 12]
    assert str(errors[0]) == str(errors[1]) == "costate turned non-finite (step 12)"
    _assert_reaped(partners())


def test_partner_exception_reaches_the_caller_as_raised(lq_spec, monkeypatch, partners):
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 600, 1, seed=96)
    spec = _failing_spec(lq_spec, grid, f=(3, "raise"))
    errors = [_sweep_error(spec, grid, noise, monkeypatch, pipelined, ValueError) for pipelined in (False, True)]
    assert str(errors[0]) == str(errors[1]) == f"no coefficient at t = {grid.times[3]}"
    _assert_reaped(partners())


def _timeout(signum, frame):
    raise TimeoutError("the sweep hung after its partner died")


def test_dead_partner_is_a_solver_error_not_a_hang(lq_spec, monkeypatch, partners):
    parent = os.getpid()
    f = lq_spec.coeffs.f

    def killing_f(t, x, y, z, u):
        if os.getpid() != parent:  # the quadratic step runs in the partner
            os.kill(os.getpid(), signal.SIGKILL)
        return f(t, x, y, z, u)

    spec = dataclasses.replace(lq_spec, coeffs=dataclasses.replace(lq_spec.coeffs, f=killing_f))
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 500, 1, seed=97)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        err = _sweep_error(spec, grid, noise, monkeypatch, True)
        assert time.perf_counter() - start < 10.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(err) == "the partner process of the sweep died (step 9)"
    _assert_reaped(partners())


def test_single_equation_and_whole_path_sweeps_fork_no_partner(lq_spec, monkeypatch, partners):
    _set_pipelined(monkeypatch, True)
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 500, 1, seed=98)
    forward = paths.solve_forward_sde(lq_spec, grid, noise, paths.ConstantControl((0.2,)))
    bsde.solve_quadratic_bsde(lq_spec, grid, noise, forward, width=2)
    adjoint.solve_state_and_costate(lq_spec, grid, noise, forward)
    assert partners() == []


@pytest.mark.parametrize("which", ["gradient", "mp"])
def test_check_workers_fork_no_partner(which, monkeypatch, partners, worker_pids):
    # Forced forking sends the check's sweeps to its workers, which fork nothing more.
    _set_pipelined(monkeypatch, True)
    _check("lq", which)
    pids = worker_pids()
    assert pids and os.getpid() not in pids
    assert partners() == []

"""A descent forks one partner process for all its iterations
(``smp._descent_partner``). At each iteration the partner runs Euler on the
second half of the paths while the calling process runs the first half, into
forward arrays in shared mappings; then the partner solves the quadratic half
of the pipelined sweep. The descent must give the same bits as in one
process, and the partner must be killed and reaped on every path out of the
descent: its normal end, an early halt, a solver error on either side, a
partner that dies (a solver error, not a hang) and a KeyboardInterrupt."""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from qsmp import bsde, paths, smp
from qsmp.errors import ExplosionError, SolverError
from test_pipelined_sweep import _assert_reaped, _chain, _set_pipelined, partners  # noqa: F401 (a fixture)
from test_streamed_checks import PROBLEMS
from test_worker_checks import _assert_no_child, needs_two_cpus

pytestmark = needs_two_cpus


@pytest.fixture
def closed(monkeypatch):
    """The pid of every partner closed in this test, recorded by
    ``bsde.Partner.close``: a partner may end before its first sweep."""
    pids = []
    close = bsde.Partner.close

    def recording_close(self):
        if self.pid is not None:
            pids.append(self.pid)
        close(self)

    monkeypatch.setattr(bsde.Partner, "close", recording_close)
    return pids


def _assert_no_process_left(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    _assert_no_child()


def _policy(spec, grid, seed=92):
    return smp.AffineFeedbackPolicy.random(grid, spec.n, spec.k, spec.domain, np.random.default_rng(seed), 0.5)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_forward_halves_are_the_same_bits(problem):
    spec, grid, noise, _, _ = _chain(problem)
    control = _policy(spec, grid).control()
    whole = paths.solve_forward_sde(spec, grid, noise, control)
    shared = smp._gradient_storage(spec, grid, noise)[0]
    half = noise.M // 2
    for rows in (slice(half, None), slice(0, half)):
        assert paths.solve_forward_sde(spec, grid, noise, control, out=shared, rows=rows) is shared
    assert np.array_equal(shared.states, whole.states) and np.array_equal(shared.controls, whole.controls)


def _descent(problem, monkeypatch, pipelined, spec=None, step=0.5, iterations=4):
    built, grid, noise, _, _ = _chain(problem)
    spec = spec or built
    _set_pipelined(monkeypatch, pipelined)
    return smp.projected_gradient_descent(
        spec, grid, noise, _policy(spec, grid), step, iterations, bsde.RegressionBasis(2)
    )


def _assert_same_descent(a, b):
    assert a.halted_on_divergence == b.halted_on_divergence
    assert [dataclasses.astuple(row) for row in a.trace] == [dataclasses.astuple(row) for row in b.trace]
    assert np.array_equal(a.policy.offsets, b.policy.offsets) and np.array_equal(a.policy.gains, b.policy.gains)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_one_partner_serves_the_whole_descent_with_the_same_bits(problem, monkeypatch, partners, closed):
    in_process = _descent(problem, monkeypatch, False)
    assert partners() == [] and closed == []
    pipelined = _descent(problem, monkeypatch, True)
    assert len(pipelined.trace) == 4
    assert len(partners()) == 1 and len(closed) == 1  # one partner, forked once, ran every sweep
    _assert_reaped(partners())
    _assert_no_process_left(closed)
    _assert_same_descent(pipelined, in_process)


def test_early_halt_reaps_the_partner(monkeypatch, partners, closed):
    in_process = _descent("lq", monkeypatch, False, step=75.0, iterations=40)
    assert in_process.halted_on_divergence and len(in_process.trace) < 40
    pipelined = _descent("lq", monkeypatch, True, step=75.0, iterations=40)
    _assert_same_descent(pipelined, in_process)
    _assert_reaped(partners())
    _assert_no_process_left(closed)


def _with_coefficient(spec, name, at_step, how):
    """``spec`` (on 20 steps over [0, 1]) whose coefficient ``name``, at the
    time of step ``at_step``, turns NaN (``how`` = "nan") or raises
    KeyboardInterrupt ("interrupt") in any process, or SIGKILLs the partner
    ("kill")."""
    original, parent = getattr(spec.coeffs, name), os.getpid()
    t_step = at_step / 20

    def coefficient(t, *args):
        out = np.array(original(t, *args), dtype=np.float64)
        if abs(t - t_step) < 1e-12:
            if how == "nan":
                out[...] = np.nan
            elif how == "interrupt":
                raise KeyboardInterrupt
            elif os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
        return out

    return dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, **{name: coefficient}))


@pytest.mark.parametrize(
    "name, step, error, text",
    [
        ("f", 7, SolverError, "fixed-point sub-iteration did not converge (step 7)"),  # in the partner
        ("f_x", 12, SolverError, "costate turned non-finite (step 12)"),  # in this process
        ("b", 5, ExplosionError, "forward state left the admissible range (step 5)"),  # in both halves
    ],
)
def test_solver_error_on_either_side_reaps_the_partner(name, step, error, text, monkeypatch, closed):
    spec = _with_coefficient(_chain("lq")[0], name, step, "nan")
    raised = []
    for pipelined in (False, True):
        with pytest.raises(error) as err:
            _descent("lq", monkeypatch, pipelined, spec=spec)
        raised.append(err.value)
    assert [type(err) for err in raised] == [error, error]
    assert [str(err) for err in raised] == [text, text]
    assert len(closed) == 1
    _assert_no_process_left(closed)


def _timeout(signum, frame):
    raise TimeoutError("the descent hung after its partner died")


@pytest.mark.parametrize(
    "name, step, text",
    [
        ("b", 3, "the partner process of the sweep died"),  # in the partner's half of the forward pass
        ("f", 15, "the partner process of the sweep died (step 15)"),  # in the partner's half of the sweep
    ],
)
def test_killed_partner_is_a_solver_error_not_a_hang(name, step, text, monkeypatch, closed):
    spec = _with_coefficient(_chain("lq")[0], name, step, "kill")
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        with pytest.raises(SolverError) as err:
            _descent("lq", monkeypatch, True, spec=spec)
        assert time.perf_counter() - start < 10.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(err.value) == text
    assert len(closed) == 1
    _assert_no_process_left(closed)


@pytest.mark.parametrize("name", ["b", "f_x"])
def test_keyboard_interrupt_reaps_the_partner(name, monkeypatch, closed):
    # The forward pass's first half and the costate run in this process.
    spec = _with_coefficient(_chain("lq")[0], name, 10, "interrupt")
    with pytest.raises(KeyboardInterrupt):
        _descent("lq", monkeypatch, True, spec=spec)
    assert len(closed) == 1
    _assert_no_process_left(closed)


def test_small_descent_forks_no_partner(lq_spec, partners, closed):
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 500, 1, seed=98)
    init = smp.AffineFeedbackPolicy.zeros(grid, 1, 1, lq_spec.domain)
    smp.projected_gradient_descent(lq_spec, grid, noise, init, 0.5, 2)
    assert partners() == [] and closed == []

"""Both checks run their independent solves in forked worker processes
(``smp._in_workers``). Forked or in-process, they must give the same bits; a
worker's solver error must reach the caller with its step; a worker that
dies must end the check with a solver error, not a hang; and no worker may
outlive the check."""

import math
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from qsmp import bsde, cli, model, paths, smp
from qsmp.errors import SolverError
from test_streamed_checks import PROBLEMS

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

needs_two_cpus = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
    reason="the checks fork workers only with at least 2 usable CPUs",
)


def _set_mode(monkeypatch, forked):
    """Force forking (any size) or in-process runs (every size)."""
    monkeypatch.setattr(bsde, "_FORK_MIN_PATH_STEPS", 0 if forked else math.inf)


#: Where :func:`_recording_run_task` leaves its files; forked workers inherit it.
_RECORDS = {}
_run_task = smp._run_task


def _recording_run_task(index):
    (_RECORDS["dir"] / f"task-{index}-{os.getpid()}").touch()
    return _run_task(index)


@pytest.fixture
def worker_pids(monkeypatch, tmp_path):
    """Records the pid of the process that runs each task, a file per call
    of ``smp._run_task``; returns the reader of the recorded pids."""
    monkeypatch.setitem(_RECORDS, "dir", tmp_path)
    monkeypatch.setattr(smp, "_run_task", _recording_run_task)
    return lambda: sorted(int(p.name.rsplit("-", 1)[1]) for p in tmp_path.glob("task-*"))


def _check(problem, which):
    """One check's report on a problem of ``test_streamed_checks``."""
    build, d, n_steps, m_paths = PROBLEMS[problem]
    spec, u_bar, u = build()
    grid = paths.TimeGrid(n_steps, 1.0)
    noise = paths.simulate_brownian(grid, m_paths, d, seed=81)
    if which == "gradient":
        return smp.gateaux_check(spec, grid, noise, u_bar, u)
    return smp.check_maximum_principle(spec, grid, noise, u_bar, groups=4, basis=bsde.RegressionBasis(2), seed=82)


def _assert_same_bits(a, b):
    for name, x in a.to_dict().items():
        y = getattr(b, name)
        assert np.array_equal(np.asarray(x), np.asarray(y)), name


@needs_two_cpus
@pytest.mark.parametrize("which", ["gradient", "mp"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_forked_and_in_process_reports_are_the_same_bits(problem, which, monkeypatch, worker_pids):
    _set_mode(monkeypatch, forked=False)
    in_process = _check(problem, which)
    assert worker_pids() == []
    _set_mode(monkeypatch, forked=True)
    forked = _check(problem, which)
    pids = worker_pids()
    # Every task (6 chains, or the base sweep and 4 groups) ran outside this process.
    assert len(pids) == (6 if which == "gradient" else 5) and os.getpid() not in pids
    assert multiprocessing.active_children() == []
    _assert_same_bits(forked, in_process)


def _artifacts(monkeypatch, tmp_path, forked, pipeline, config):
    _set_mode(monkeypatch, forked)
    out = tmp_path / f"{config}-{forked}"
    assert cli.main([pipeline, "--config", str(CONFIGS / f"{config}.cfg"), "--seed", "1", "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@needs_two_cpus
@pytest.mark.parametrize(
    "pipeline, config", [("gradient-check", "exp_utility_gradient_check"), ("mp-check", "lq_mp_check")]
)
def test_cli_artifacts_are_byte_identical_forked_and_in_process(pipeline, config, monkeypatch, tmp_path, worker_pids):
    in_process = _artifacts(monkeypatch, tmp_path, False, pipeline, config)
    assert worker_pids() == []
    forked = _artifacts(monkeypatch, tmp_path, True, pipeline, config)
    assert worker_pids() and os.getpid() not in worker_pids()
    assert forked == in_process


def _overflowing_gamma_problem():
    # f_z = 60 drives log Gamma past its bound, as in test_policy_gradient.
    lq = PROBLEMS["lq"][0]()[0]
    coeffs = model.CoefficientSet(**{**lq.coeffs.__dict__, "f_z": lambda t, x, y, z, u: np.full((x.shape[0], 1), 60.0)})
    return model.ProblemSpec(
        n=1, d=1, k=1, T=1.0, x0=lq.x0, coeffs=coeffs, domain=lq.domain, constants=lq.constants
    )


@needs_two_cpus
def test_worker_solver_error_reaches_the_caller_with_its_step(monkeypatch, worker_pids):
    spec = _overflowing_gamma_problem()
    grid = paths.TimeGrid(50, 1.0)
    noise = paths.simulate_brownian(grid, 2000, 1, seed=3)
    controls = (paths.ConstantControl((0.0,)), paths.ConstantControl((0.5,)))
    raised = {}
    for forked in (False, True):
        _set_mode(monkeypatch, forked)
        with pytest.raises(SolverError) as err:
            smp.gateaux_check(spec, grid, noise, *controls)
        raised[forked] = err.value
        assert multiprocessing.active_children() == []
    assert worker_pids() and os.getpid() not in worker_pids()
    assert str(raised[True]) == str(raised[False])
    assert "exponential weight exponent overflow" in str(raised[True])
    assert raised[True].step == raised[False].step is not None


class _KillsItsWorker(paths.Control):
    """A constant control that SIGKILLs any process but the one that made it."""

    def __init__(self):
        self.parent = os.getpid()

    def values(self, i, t, states):
        if os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return np.full((states.shape[0], 1), 0.5)


def _timeout(signum, frame):
    raise TimeoutError("the check hung after its worker died")


@needs_two_cpus
def test_dead_worker_is_a_solver_error_not_a_hang(monkeypatch, lq_spec):
    _set_mode(monkeypatch, forked=True)
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 500, 1, seed=4)
    # The direction toward u is formed inside the workers' sweeps.
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        with pytest.raises(SolverError, match="a worker process of the check died"):
            smp.gateaux_check(lq_spec, grid, noise, paths.ConstantControl((0.0,)), _KillsItsWorker())
        assert time.perf_counter() - start < 10.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


#: Runs in a child process: at exit a hung pool's exit handler would wait for ever too.
_UNPICKLABLE_TASK = """
import multiprocessing, pickle
from qsmp import bsde, smp
bsde._FORK_MIN_PATH_STEPS = 0
smp._run_task = lambda index: index  # a lambda cannot be pickled
try:
    smp._in_workers([(1, lambda: 1), (1, lambda: 2)])
except pickle.PicklingError:
    print("raised", multiprocessing.active_children())
"""


@needs_two_cpus
def test_task_the_pool_cannot_send_is_an_error_not_a_hang(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    with open(tmp_path / "out", "w+") as out:
        # A session of its own, so that a timeout can end the pool's workers as well.
        child = subprocess.Popen([sys.executable, "-c", _UNPICKLABLE_TASK], stdout=out, env=env, start_new_session=True)
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail("the pool hung on a task it could not send")
        out.seek(0)
        assert child.returncode == 0 and out.read() == "raised []\n"


def _check_in_daemon(problem, which):
    assert multiprocessing.current_process().daemon
    return _check(problem, which)


@needs_two_cpus
@pytest.mark.parametrize("which", ["gradient", "mp"])
def test_check_inside_a_daemonic_worker_runs_in_process(which, monkeypatch, worker_pids):
    _set_mode(monkeypatch, forked=False)
    expected = _check("lq", which)
    # The pool's worker inherits the forced forking, but a daemonic process
    # may not have children.
    _set_mode(monkeypatch, forked=True)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        report = pool.apply(_check_in_daemon, ("lq", which))
    assert worker_pids() == []
    _assert_same_bits(report, expected)

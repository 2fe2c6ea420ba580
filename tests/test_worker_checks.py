"""Both checks run their independent solves in forked worker processes
(``bsde.forked_calls``). Forked or in-process, they must give the same bits;
a worker's solver error must reach the caller with its step; a worker that
dies, or a result that cannot be pickled, must end the check with an error,
not a hang; no worker may outlive the check; and a forked child forks
nothing more."""

import contextlib
import math
import multiprocessing
import os
import pathlib
import pickle
import signal
import time

import numpy as np
import pytest

from qsmp import adjoint, bsde, cli, model, paths, smp
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


@pytest.fixture
def worker_pids(monkeypatch, tmp_path):
    """Records the pid of each process other than this one that runs a task
    of ``smp``'s ``forked_calls``, a file per task run; returns the reader
    of the recorded pids."""
    forked_calls, own = bsde.forked_calls, os.getpid()

    def recording(j, task):
        def run():
            if os.getpid() != own:
                (tmp_path / f"task-{j}-{os.getpid()}").touch()
            return task()

        return run

    def recorded_calls(tasks):
        return forked_calls([(steps, recording(j, task)) for j, (steps, task) in enumerate(tasks)])

    monkeypatch.setattr(smp, "forked_calls", recorded_calls)
    return lambda: sorted(int(p.name.rsplit("-", 1)[1]) for p in tmp_path.glob("task-*"))


def _assert_no_child():
    """This process has no child left, not even a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _timeout(signum, frame):
    raise TimeoutError("the call hung")


@contextlib.contextmanager
def _no_hang(seconds=10.0):
    """Fails a block that takes longer than ``seconds``, and ends it after 60 s."""
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        start = time.perf_counter()
        yield
        assert time.perf_counter() - start < seconds
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    _assert_no_child()
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
        _assert_no_child()
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


@needs_two_cpus
def test_dead_worker_is_a_solver_error_not_a_hang(monkeypatch, lq_spec):
    _set_mode(monkeypatch, forked=True)
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 500, 1, seed=4)
    # The direction toward u is formed inside the workers' sweeps.
    with _no_hang(), pytest.raises(SolverError, match="a worker process of the check died"):
        smp.gateaux_check(lq_spec, grid, noise, paths.ConstantControl((0.0,)), _KillsItsWorker())
    _assert_no_child()


#: pickle finds a function by its name, and this one's is ``<lambda>``.
_MODULE_LAMBDA = lambda: None  # noqa: E731


@needs_two_cpus
@pytest.mark.parametrize(
    "local, error", [(True, AttributeError), (False, pickle.PicklingError)], ids=["local", "module"]
)
def test_unpicklable_result_raises_in_the_caller_not_a_hang(local, error, monkeypatch):
    _set_mode(monkeypatch, forked=True)
    result = (lambda: None) if local else _MODULE_LAMBDA
    with _no_hang(), pytest.raises(error, match="Can't pickle"):
        bsde.forked_calls([(1, lambda: 1), (1, lambda: result)])
    _assert_no_child()


def _fails(text):
    def task():
        raise ValueError(text)

    return task


@needs_two_cpus
@pytest.mark.parametrize("forked", [False, True])
def test_the_first_failed_task_in_order_is_raised(forked, monkeypatch):
    # The heaviest task starts first and fails first, but the task before it fails too.
    _set_mode(monkeypatch, forked)
    with pytest.raises(ValueError, match="^second$"):
        bsde.forked_calls([(1, lambda: 1), (1, _fails("second")), (5, _fails("third")), (1, lambda: 4)])
    _assert_no_child()


@needs_two_cpus
def test_a_forked_child_forks_nothing(monkeypatch, lq_spec):
    _set_mode(monkeypatch, forked=True)
    assert bsde.processes_for(10**12) > 1
    assert bsde.forked_calls([(1, lambda: bsde.processes_for(10**12))] * 2) == [1, 1]
    grid = paths.TimeGrid(10, 1.0)
    noise = paths.simulate_brownian(grid, 500, 1, seed=5)
    forward = paths.solve_forward_sde(lq_spec, grid, noise, paths.ConstantControl((0.2,)))
    seen = paths.shared_zeros((1,))

    def task():
        seen[0] = bsde.processes_for(10**12)

    with adjoint.state_partner(lq_spec, grid, noise, forward, None, task) as partner:
        partner.share(lambda: None)
    assert seen[0] == 1
    _assert_no_child()


def _check_in_daemon(problem, which):
    """The check's report, this pool worker's pid, and whether the check left it a child."""
    assert multiprocessing.current_process().daemon
    report = _check(problem, which)
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return report, os.getpid(), False
    return report, os.getpid(), True


@needs_two_cpus
@pytest.mark.parametrize("which", ["gradient", "mp"])
def test_check_in_a_daemonic_worker_forks_and_leaves_no_child(which, monkeypatch, worker_pids):
    _set_mode(monkeypatch, forked=False)
    expected = _check("lq", which)
    # The pool's worker inherits the forced forking, and os.fork, unlike
    # multiprocessing, lets a daemonic process have children.
    _set_mode(monkeypatch, forked=True)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        report, daemon, left_a_child = pool.apply(_check_in_daemon, ("lq", which))
    pids = worker_pids()
    assert pids and daemon not in pids and os.getpid() not in pids
    assert not left_a_child
    _assert_same_bits(report, expected)

"""Regression-based backward solvers, all run by one backward sweep.

:func:`backward_sweep` goes from step N-1 down to 0. At each step it builds
one :class:`StepRegressor` on that step's states; then, for each equation in
a fixed order, it fits the conditional mean of the next value, recovers the
integrand Z by regressing the centred increment (Y_{i+1} - E[Y_{i+1} | state])
dW_i / dt, and calls the equation's implicit step with the step's
regression, which a visitor may fit further targets with. A scalar equation is the
K = 1 case of a vector one, and a later equation may read what an earlier
one wrote at the same step: the costate reads Y_i and Z_i, and the
gradient check's auxiliary equation reads the slopes and the forcing that
the costate's visitor formed at step i. The quadratic step
(:func:`quadratic_equation`) iterates the implicit y-argument to a fixed
point (a contraction while dt * |f_y| < 1), or takes one explicit step for
a generator free of y, and caps |Z| inside the generator; the affine step
(:func:`linear_equation`, whose data may be formed inside the sweep)
inverts its y-dependence exactly.

Each equation stores ``width`` time slices, and step i lives in slice
``i % width`` (:func:`at_step`). A solve that returns the whole path uses
width N+1, so slice i is step i. Step i reads only step i+1 and the slices
written at step i, so width 2 is enough for a caller that consumes each
step inside the sweep: an equation's step may hand what it solved to a
callback, as the costate's ``visit`` does (:mod:`qsmp.adjoint`).

The first equation never reads a later one, and in a state-costate sweep
it is the quadratic one. So a sweep of several equations at width 2 runs
as a pipeline over two processes where forking pays
(:func:`processes_for`): a partner process (:class:`Partner`) builds each
step's regression straight into a ring of shared slots and solves the first
equation in storage the ring holds too; this process solves the other
equations on a view of that regression a few steps behind, and reads the
first equation's step where the partner wrote it. The arithmetic and its
order are the same, so the results are the same bits. A partner is forked
for one sweep, or once for all the sweeps of a descent
(:func:`qsmp.adjoint.state_partner`), where it also runs half of each
forward pass.

Every process this package forks is a :class:`_Child`: the partner, and
the workers that run the checks' independent solves (:func:`forked_calls`).
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import time
from dataclasses import dataclass

import numpy as np

from . import bmo
from .errors import SolverError, located
from .model import DerivedConstants, ProblemSpec, clip_rows, derive_constants, reads_y
from .paths import BrownianBatch, ForwardBatch, TimeGrid, abs_max, shared_step_major, shared_zeros, step_major
from .regression import RegressionBasis, StepRegressor

_FIXED_POINT_MAX = 50
_FIXED_POINT_TOL = 1e-13

#: Total path-steps of a solve below which it forks no process. The solves
#: cost 80 to 150 ns a path-step at M = 20000, more at small M, and a second
#: CPU saves at most half of the work. From 2M path-steps on that was about
#: four start-ups of the 25 ms a pool of two check workers took; below, the
#: saving did not stand out of the run-to-run spread. Two forked children
#: now cost about 8 ms (from a 130 MB process, 160 KB returned by each).
_FORK_MIN_PATH_STEPS = 2_000_000

#: False in a forked child (:class:`_Child`): its parent forked it for a CPU of its own.
_forks_allowed = True

#: Slots of the ring through which a pipelined sweep's partner hands its steps on.
_RING_SLOTS = 4

#: Seconds between two looks of a pipelined sweep's process for the other's
#: byte. It does not sleep on the pipe: on the 2-CPU virtual machine
#: measured, a process woken by the other's write ran on the writer's CPU,
#: so the two ran one after the other and the sweep took longer than in one
#: process. While the partner's half of a step was the longer one, a look
#: every 0.05 to 2 ms gave the same `descend` times. With the two halves
#: about even, each side often waits for the other: a look every 0.1 ms
#: made `descend` faster than every 1 ms in 14 of 20 alternating CLI pairs
#: (medians 2.5 to 4.8% lower, CPU time no higher), and 0.05 or 0.2 ms did
#: no better than 0.1 ms.
_POLL_S = 0.0001


def processes_for(path_steps: int) -> int:
    """The processes a solve of ``path_steps`` path-steps may run in: the
    usable CPUs where forking pays, else 1. Forking pays from
    :data:`_FORK_MIN_PATH_STEPS` path-steps on, with ``fork`` available,
    outside a forked child (:class:`_Child`)."""
    if not (_forks_allowed and path_steps >= _FORK_MIN_PATH_STEPS and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@dataclass
class BackwardSolution:
    """Discrete (Y, Z) pair on a path batch.

    ``Z[:, i]`` is the regressed integrand on [t_i, t_{i+1}) (zero at the
    terminal index, where no regression happens).
    """

    Y: np.ndarray  # (M, N+1)
    Z: np.ndarray  # (M, N+1, d)
    #: Pathwise terminal-plus-driver sums xi_m + sum_i f_m(t_i) dt. Because
    #: every regression preserves batch means, Y_0 equals the mean of these,
    #: and their spread yields an honest standard error for Y_0.
    pathwise_targets: np.ndarray

    @property
    def y0(self) -> float:
        return float(self.Y[:, 0].mean())

    @property
    def y0_standard_error(self) -> float:
        """Standard error of the time-zero value, from the spread of the
        pathwise terminal-plus-driver sums (the smoothed per-path values at
        early steps hide most of the estimator variance and must not be
        used for this)."""
        m_paths = self.pathwise_targets.shape[0]
        return float(self.pathwise_targets.std() / math.sqrt(m_paths))


def default_truncation_radius(constants: DerivedConstants, horizon: float) -> float:
    """Heuristic cap on |Z| inside the generator: the theory bounds the
    time-average of |Z|^2 by A/T, and the cap allows ten times that scale."""
    return 10.0 * math.sqrt(constants.A / horizon)


def at_step(a: np.ndarray, i: int) -> np.ndarray:
    """Step i of an equation's storage ``a`` (M, width, ...): slice
    ``i % width``, which is slice i when the whole path is stored."""
    return a[:, i % a.shape[1]]


class BackwardEquation:
    """One equation of a backward sweep, with K value components.

    Holds values (M, width, K) from the terminal ones (M, K), integrands
    (M, width, K, d), zero until a step writes them, both stored step-major
    (see :func:`qsmp.paths.step_major`), and
    ``step(i, cond, z, reg) -> (value, integrand)``, which resolves step i
    from the conditional mean (M, K) of the next value, the regressed
    integrand (M, K, d) and the step's regression ``reg``. Step i lives in
    slice ``i % width`` (:func:`at_step`): the default width N+1 keeps every
    step, and width 2 keeps steps i and i+1 while the sweep is at step i.
    The terminal values are also kept apart, for the pathwise targets. ``driver_sum`` (M,) is
    where a scalar equation's step adds its pathwise driver. The step must
    not refer to the equation: that cycle would keep every solve's arrays
    alive until the garbage collector runs. A pipelined sweep lends the
    first equation other storage while it runs (:meth:`Partner.sweep`), so
    a later equation reads it through the equation, not through arrays it
    kept.
    """

    def __init__(self, terminal: np.ndarray, n_steps: int, d: int, step, driver_sum=None, width=None):
        m_paths, k = terminal.shape
        width = n_steps + 1 if width is None else width
        self.terminal = terminal
        self.values = step_major((m_paths, width, k))
        at_step(self.values, n_steps)[...] = terminal
        self.integrands = step_major((m_paths, width, k, d), fill=0.0)
        self.driver_sum = driver_sum
        self.step = step

    def scalar_solution(self) -> BackwardSolution:
        """The K = 1 equation as a (Y, Z) pair on views of its storage. After
        a sweep, slice 0 is step 0 for every width, so ``y0`` and its
        standard error hold; Y and Z are whole paths only at width N+1."""
        return BackwardSolution(
            self.values[:, :, 0], self.integrands[:, :, 0], self.terminal[:, 0] + self.driver_sum
        )


def backward_sweep(
    grid: TimeGrid,
    noise: BrownianBatch,
    states: np.ndarray,
    equations: list,
    basis: RegressionBasis,
    ridge=None,
    partner=None,
) -> None:
    """Solves the equations in place, sharing one regression on ``states``
    (M, N+1, m) per step; no regressor outlives its step. Several equations
    at width 2 run pipelined over two processes: through ``partner`` if
    given (a :class:`Partner` made for these states, basis and ridge),
    else through a partner forked for this sweep where that can help
    (:func:`processes_for`). Then the first equation is a scalar one, and
    its step must change nothing but what it returns and its driver sum."""
    if partner is not None:
        partner.sweep(equations)
    elif (
        len(equations) > 1
        and all(eq.values.shape[1] == 2 for eq in equations)
        and processes_for(noise.M * grid.N) > 1
    ):
        with Partner(grid, noise, states, basis, ridge, lambda: equations[0]) as one_sweep:
            one_sweep.sweep(equations)
    else:
        for i in range(grid.N - 1, -1, -1):
            reg = StepRegressor(basis, states[:, i], ridge)
            for eq in equations:
                _solve_step(eq, i, reg, noise.increments[:, i], grid.dt)


def _solve_step(eq: BackwardEquation, i: int, reg: StepRegressor, increments: np.ndarray, dt: float) -> None:
    """Step i of ``eq`` on the step's regression, with the step's Brownian
    increments (M, d)."""
    m_paths, d = increments.shape
    nxt = at_step(eq.values, i + 1)
    cond, _ = reg.fit(nxt)
    # Martingale control variate: centering the target leaves the
    # conditional expectation unchanged but removes the O(1/dt) variance
    # the conditional mean would otherwise inject into the Z estimate.
    z_target = ((nxt - cond)[:, :, None] * increments[:, None, :] / dt).reshape(m_paths, -1)
    z_flat, _ = reg.fit(z_target)
    z_i = z_flat.reshape(m_paths, -1, d)
    at_step(eq.values, i)[...], at_step(eq.integrands, i)[...] = located(eq.step, i, cond, z_i, reg, step=i)


class _Child:
    """A forked process that runs ``serve(child)`` and exits, talking to
    this one through two pipes: each process's own ends are ``_inbox`` and
    ``_outbox``, blocking unless made otherwise. The child forks nothing
    (:func:`processes_for`); :meth:`close`, or a ``with`` block, kills and reaps it."""

    def __init__(self, serve):
        global _forks_allowed
        child_r, parent_w = os.pipe()  # from this process to the child
        parent_r, child_w = os.pipe()  # from the child to this process
        try:
            pid = os.fork()
        except OSError:
            for fd in (child_r, parent_w, parent_r, child_w):
                os.close(fd)
            raise
        if pid == 0:
            try:
                _forks_allowed = False
                os.close(parent_w)
                os.close(parent_r)
                self._inbox, self._outbox = child_r, child_w
                serve(self)
            finally:
                os._exit(0)
        os.close(child_r)
        os.close(child_w)
        self._inbox, self._outbox, self.pid = parent_r, parent_w, pid

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Kills and reaps the child: its work is done or no longer wanted."""
        if self.pid is None:
            return
        os.close(self._inbox)
        os.close(self._outbox)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


def forked_calls(tasks) -> list:
    """The results of ``tasks``, (path-steps, zero-argument callable) pairs,
    in task order: in forked children (:class:`_Child`), one per process
    :func:`processes_for` allows the total path-steps, else in-process. A
    free child is sent the index of the heaviest task not yet started (ties
    keep their order), and this process waits in a blocking ``select``. The
    tasks' closures need not pickle, only their results. As in-process, the
    first failed task in order raises: after a failure only earlier tasks
    start. A child that dies is a :class:`SolverError`; none outlives the call."""
    workers = min(len(tasks), processes_for(sum(steps for steps, _ in tasks)))
    if workers < 2:
        return [task() for _, task in tasks]
    todo = sorted(range(len(tasks)), key=lambda j: -tasks[j][0])
    children, busy, replies = [], {}, [None] * len(tasks)
    try:
        for _ in range(workers):
            children.append(_Child(lambda child: _serve_calls(child, tasks)))
        free = children[:]
        while todo or busy:
            while free and todo:
                child, j = free.pop(), todo.pop(0)
                busy[child._inbox] = child, j
                _send(child._outbox, j.to_bytes(8, "little"))
            for fd in select.select(list(busy), [], [])[0]:
                child, j = busy.pop(fd)
                status = _read(fd, 1)
                payload = _read_framed(fd)
                if payload is None:
                    raise SolverError("a worker process of the check died")
                replies[j] = status, pickle.loads(payload)
                if status != b"\0":
                    todo[:] = [i for i in todo if i < j]
                free.append(child)
    finally:
        for child in children:
            child.close()
    for status, value in replies:  # filled up to the first failed task
        if status != b"\0":
            raise value
    return [value for _, value in replies]


def _serve_calls(child: _Child, tasks) -> None:
    """A :func:`forked_calls` child: for each task index it is sent, it sends
    back a byte 0 and the pickled result, or a byte 1 and the pickled
    exception (a result that cannot be pickled included), until the pipe ends."""
    while len(index := _read_exactly(child._inbox, 8)) == 8:
        try:
            reply = b"\0" + _framed(pickle.dumps(tasks[int.from_bytes(index, "little")][1]()))
        except Exception as err:
            reply = b"\1" + _framed(_pickled(err, getattr(err, "step", None)))
        _send(child._outbox, reply)


class Partner(_Child):
    """A forked process that runs the first equation of pipelined sweeps
    (:func:`backward_sweep`) and, between sweeps, a task of the caller's.

    At each sweep (:meth:`sweep`) the partner builds step i's regression
    straight into slot ``i % _RING_SLOTS`` of a ring of shared arrays
    (:func:`qsmp.paths.shared_zeros`) and solves the first equation there:
    the equation's own storage is the ring's (:func:`_partner`). It sends
    one byte per step. On that byte, looked for every :data:`_POLL_S`
    seconds, this process solves the other equations on a
    :class:`StepRegressor` view of the slot, reading the first equation's
    step from the same storage, and sends a byte back to free the slot.
    The arithmetic and its order are those of the in-process sweep, so the
    results are the same bits. An error of the partner at step i is raised
    here when this process reaches step i, as the in-process sweep would
    raise it; a partner that dies is a :class:`SolverError`.

    The ring is mapped once, so a partner that serves many sweeps (a
    descent's) costs one fork: ``first()`` gives, in the partner, the first
    equation of each sweep, built on ``states`` as they are when the sweep
    starts. A caller that refills ``states`` between sweeps keeps them in
    shared mappings. The partner is killed and reaped by :meth:`close`,
    and so is one whose sweep ends in an error or whose task is interrupted
    here (KeyboardInterrupt): it would be out of step with this process."""

    def __init__(self, grid: TimeGrid, noise: BrownianBatch, states: np.ndarray, basis, ridge, first, task=None):
        m_paths, n_dim = noise.M, states.shape[2]
        n_feat = len(basis.exponents(n_dim))
        self.grid, self.noise, self.basis = grid, noise, basis
        self._features = shared_zeros((_RING_SLOTS, n_feat, m_paths))
        self._chol = shared_zeros((_RING_SLOTS, n_feat, n_feat))
        self._shift = shared_zeros((_RING_SLOTS, n_dim))
        self._scale = shared_zeros((_RING_SLOTS, n_dim))
        self._values = shared_step_major((m_paths, _RING_SLOTS, 1))
        self._integrands = shared_step_major((m_paths, _RING_SLOTS, 1, noise.d))
        self._driver_sum = shared_zeros((m_paths,))
        super().__init__(lambda partner: partner._serve(states, ridge, first, task))
        os.set_blocking(self._inbox, False)

    def sweep(self, equations: list) -> None:
        """:func:`backward_sweep` of ``equations`` at width 2, the first
        solved by the partner. The first equation is lent the partner's
        storage for the sweep; then its steps 0 and 1 and its driver sum are
        copied back, which is all that width 2 keeps."""
        first, rest = equations[0], equations[1:]
        grid, noise = self.grid, self.noise
        kept = first.values, first.integrands
        first.values, first.integrands = self._values, self._integrands
        try:
            _send(self._outbox, b"S")
            for i in range(grid.N - 1, -1, -1):
                status = _read(self._inbox, 1)
                if status != b"\0":
                    raise _partner_failure(status, self._inbox, i)
                slot = i % _RING_SLOTS
                reg = StepRegressor.from_parts(
                    self.basis, self._shift[slot].copy(), self._scale[slot].copy(),
                    self._features[slot].T, self._chol[slot],
                )
                for eq in rest:
                    _solve_step(eq, i, reg, noise.increments[:, i], grid.dt)
                if i >= _RING_SLOTS:  # the partner needs this slot for step i - _RING_SLOTS
                    _send(self._outbox, b"\0")
        except BaseException:
            self.close()  # in the middle of a sweep, it serves no other
            raise
        finally:
            first.values, first.integrands = kept
        for i in range(min(grid.N, first.values.shape[1])):
            at_step(first.values, i)[...] = at_step(self._values, i)
            at_step(first.integrands, i)[...] = at_step(self._integrands, i)
        if first.driver_sum is not None:
            first.driver_sum[...] = self._driver_sum

    def share(self, own, *args) -> None:
        """Runs the partner's task on ``args`` (pickled) while this process
        runs ``own(*args)``. If either raises, the error with the lower
        ``step`` is raised, this process's where the steps tie or neither
        has one; a partner that dies is a :class:`SolverError`."""
        errors = []
        try:
            _send(self._outbox, b"J" + _framed(pickle.dumps(args)))
            try:
                own(*args)
            except Exception as err:
                errors.append(err)
            status = _read(self._inbox, 1)
        except BaseException:
            self.close()
            raise
        if status != b"\0":
            errors.append(_partner_failure(status, self._inbox, None))
        if errors:
            raise min(errors, key=lambda err: math.inf if getattr(err, "step", None) is None else err.step)

    def _serve(self, states, ridge, first, task) -> None:
        """The partner's loop: a byte S starts a sweep, a byte J a task with
        the pickled arguments that follow; it ends when the caller closes
        its end. A free byte left from a sweep that ended at an error is
        skipped."""
        os.set_blocking(self._inbox, False)
        while command := _read(self._inbox, 1):
            if command == b"S":
                _partner(self, states, ridge, first())
            elif command == b"J":
                payload = _read_framed(self._inbox)
                if payload is None:
                    return
                args = pickle.loads(payload)
                try:
                    task(*args)
                except Exception as err:
                    _send(self._outbox, b"\1" + _framed(_pickled(err, getattr(err, "step", None))))
                else:
                    _send(self._outbox, b"\0")


def _partner(partner: Partner, states, ridge, first: BackwardEquation) -> None:
    """The partner's half of one :meth:`Partner.sweep`: from step N-1 down
    to 0, it waits until step i's slot is free, builds the step's regression
    into it and solves ``first`` on it, with the ring as ``first``'s storage.
    An error is reported as a byte 1 and the pickled exception, and ends the
    sweep here."""
    grid, noise = partner.grid, partner.noise
    n_steps = grid.N
    first.values, first.integrands = partner._values, partner._integrands
    at_step(first.values, n_steps)[...] = first.terminal
    for i in range(n_steps - 1, -1, -1):
        slot = i % _RING_SLOTS
        if i + _RING_SLOTS < n_steps and _read(partner._inbox, 1) != b"\0":
            return  # the sweep ended without this step
        try:
            reg = StepRegressor(partner.basis, states[:, i], ridge, out=partner._features[slot])
            _solve_step(first, i, reg, noise.increments[:, i], grid.dt)
        except Exception as err:
            _send(partner._outbox, b"\1" + _framed(_pickled(err, i)))
            return
        partner._chol[slot] = reg.chol
        partner._shift[slot] = reg.shift
        partner._scale[slot] = reg.scale
        if i == 0 and first.driver_sum is not None:
            partner._driver_sum[...] = first.driver_sum
        _send(partner._outbox, b"\0")


def _pickled(err: Exception, step) -> bytes:
    """``err`` pickled, or a :class:`SolverError` with its text where it does
    not survive the round trip."""
    try:
        payload = pickle.dumps(err)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps(SolverError(f"{type(err).__name__}: {err}", step=step))


def _partner_failure(status: bytes, fd: int, step) -> Exception:
    """The exception for a status byte other than 0: the partner's own,
    which follows a byte 1, or a :class:`SolverError` if it died."""
    payload = _read_framed(fd) if status == b"\1" else None
    if payload is None:
        return SolverError("the partner process of the sweep died", step=step)
    return pickle.loads(payload)


def _framed(payload: bytes) -> bytes:
    return len(payload).to_bytes(8, "little") + payload


def _read_framed(fd: int):
    """The payload of a :func:`_framed` message, None if the pipe ends first."""
    header = _read_exactly(fd, 8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    payload = _read_exactly(fd, size)
    return payload if len(payload) == size else None


def _read_exactly(fd: int, size: int) -> bytes:
    """``size`` bytes from the pipe ``fd``, fewer at its end."""
    data = b""
    while len(data) < size and (chunk := _read(fd, size - len(data))):
        data += chunk
    return data


def _send(fd: int, data: bytes) -> None:
    """All of ``data`` down the pipe ``fd``; nothing once the other process
    has closed its end, since what it sent before says why."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view) :]
    except BrokenPipeError:
        pass


def _read(fd: int, size: int) -> bytes:
    """Up to ``size`` bytes from the pipe ``fd``, b"" at its end; on a
    non-blocking pipe, checked every :data:`_POLL_S` seconds until they come."""
    while True:
        try:
            return os.read(fd, size)
        except BlockingIOError:
            time.sleep(_POLL_S)


def quadratic_defaults(spec: ProblemSpec, basis, truncation_radius):
    """(basis, truncation radius, constants) with the quadratic solver's defaults."""
    constants = derive_constants(spec)
    if truncation_radius is None:
        truncation_radius = default_truncation_radius(constants, spec.T)
    return basis or RegressionBasis(3), truncation_radius, constants


def quadratic_equation(
    spec: ProblemSpec,
    grid: TimeGrid,
    forward: ForwardBatch,
    truncation_radius: float,
    constants: DerivedConstants,
    width: int | None = None,
) -> BackwardEquation:
    """The backward component of the state system, with quadratic z-growth
    allowed in the generator. Its step aborts if the fixed-point iteration
    stalls, Y turns non-finite, or |Y| exceeds ten times the theoretical
    ceiling (all signal misconfiguration).

    A generator marked free of y (:func:`qsmp.model.reads_y`) makes the
    implicit step explicit: Y_i = E[Y_{i+1} | X_i] + f dt with one
    evaluation of f. The iteration would reach the same bits, with a second
    evaluation that only confirms the first."""
    abort_level = 10.0 * constants.A
    dt, times, co = grid.dt, grid.times, spec.coeffs
    explicit = not reads_y(co.f)
    driver_sum = np.zeros(forward.states.shape[0])

    def step(i, cond, z, reg):
        nonlocal driver_sum
        cond_y = cond[:, 0]
        z_i = clip_rows(z[:, 0], truncation_radius)
        x_i = forward.states[:, i]
        u_i = forward.controls[:, i]
        if explicit:
            increment = np.asarray(co.f(times[i], x_i, cond_y, z_i, u_i), dtype=np.float64) * dt
            y_i = cond_y + increment
            size = abs_max(y_i)
        else:
            y_i = cond_y  # f only reads it, and the first iterate is new
            converged = False
            for _ in range(_FIXED_POINT_MAX):
                increment = np.asarray(co.f(times[i], x_i, y_i, z_i, u_i), dtype=np.float64) * dt
                y_new = cond_y + increment
                gap = abs_max(y_new - y_i)
                y_i = y_new
                size = abs_max(y_i)
                if gap <= _FIXED_POINT_TOL * (1.0 + size):
                    converged = True
                    break
            if not converged:
                raise SolverError("fixed-point sub-iteration did not converge", step=i)
        if not np.isfinite(size):
            raise SolverError("backward value turned non-finite", step=i)
        if size > abort_level:
            raise SolverError(
                f"|Y| exceeded 10*A = {abort_level:.3g}; bound violation signals misconfiguration",
                step=i,
            )
        driver_sum += increment
        return y_i[:, None], z_i[:, None]

    terminal = np.asarray(located(co.Phi, forward.states[:, grid.N], step=grid.N), dtype=np.float64)
    return BackwardEquation(terminal[:, None], grid.N, spec.d, step, driver_sum, width)


def solve_quadratic_bsde(
    spec: ProblemSpec,
    grid: TimeGrid,
    noise: BrownianBatch,
    forward: ForwardBatch,
    basis: RegressionBasis | None = None,
    truncation_radius: float | None = None,
    ridge: float | None = None,
    width: int | None = None,
) -> BackwardSolution:
    """Backward component of the state system (see :func:`quadratic_equation`).
    At ``width`` 2 the solution holds step 0 and the terminal values only,
    which is all that ``y0`` and its standard error read."""
    basis, truncation_radius, constants = quadratic_defaults(spec, basis, truncation_radius)
    eq = quadratic_equation(spec, grid, forward, truncation_radius, constants, width)
    backward_sweep(grid, noise, forward.states, [eq], basis, ridge)
    return eq.scalar_solution()


def linear_equation(terminal: np.ndarray, grid: TimeGrid, d: int, coefficients_at, width: int | None = None):
    """The scalar affine equation with generator lam y + mu . z + phi and
    terminal values ``terminal`` (M, 1): ``coefficients_at(i)`` gives step
    i's (lam (M,), mu (M, d), phi (M,)) when the sweep reaches that step,
    so the data may be formed inside the sweep by an earlier equation's
    visitor. No truncation and no fixed point: the y-dependence is inverted
    exactly."""
    dt = grid.dt
    driver_sum = np.zeros(terminal.shape[0])

    def step(i, cond, z, reg):
        nonlocal driver_sum
        lam, mu, phi = coefficients_at(i)
        denom = 1.0 - dt * lam
        if np.abs(denom).min() < 1e-8:
            raise SolverError("implicit linear step is singular (dt * lam too close to 1)", step=i)
        drift = np.einsum("md,md->m", mu, z[:, 0]) + phi
        y_i = (cond[:, 0] + dt * drift) / denom
        if not np.isfinite(abs_max(y_i)):
            raise SolverError("backward value turned non-finite", step=i)
        driver_sum += (lam * y_i + drift) * dt
        return y_i[:, None], z

    return BackwardEquation(terminal, grid.N, d, step, driver_sum, width)


@dataclass
class MomentCheck:
    p: int
    value: float
    bound: float
    passed: bool


@dataclass
class BoundReport:
    """Empirical a-priori diagnostics of a quadratic backward solution."""

    sup_abs_y: float
    bmo2_estimate: float
    combined: float  # sup|Y| + bmo2^2
    ceiling: float  # A
    combined_passed: bool
    moment_checks: list

    def to_dict(self) -> dict:
        return {
            "sup_abs_y": self.sup_abs_y,
            "bmo2_estimate": self.bmo2_estimate,
            "combined": self.combined,
            "ceiling": self.ceiling,
            "combined_passed": self.combined_passed,
            "moment_checks": [
                {"p": m.p, "value": m.value, "bound": m.bound, "pass": m.passed}
                for m in self.moment_checks
            ],
        }


def estimate_apriori_bound(
    solution: BackwardSolution,
    constants: DerivedConstants,
    grid: TimeGrid,
    forward: ForwardBatch,
    basis: RegressionBasis | None = None,
    ridge: float | None = None,
) -> BoundReport:
    """Check the solution against its theoretical ceiling: the sup of |Y| plus
    the squared BMO2 estimate of the Z-integral must stay below A, and the
    moments of the quadratic variation below ([p]+1)! A^(2p).

    sup|Y| is read without a copy of |Y|, and the BMO2 estimate streams its
    tails one step at a time (:func:`bmo.estimate_bmo2`), so beyond the
    solution this holds (M,) vectors only."""
    sup_y = float(abs_max(solution.Y))
    integrand = solution.Z[:, : grid.N, :]
    est = bmo.estimate_bmo2(integrand, grid, features=forward.states, basis=basis, ridge=ridge)
    combined = sup_y + est**2
    qv = bmo.quadratic_variation(integrand, grid)
    checks = []
    for p in (1, 2, 3):
        value = float((qv**p).mean())
        bound = math.factorial(p + 1) * constants.A ** (2 * p)
        checks.append(MomentCheck(p, value, bound, value < bound))
    return BoundReport(
        sup_abs_y=sup_y,
        bmo2_estimate=est,
        combined=combined,
        ceiling=constants.A,
        combined_passed=combined < constants.A,
        moment_checks=checks,
    )

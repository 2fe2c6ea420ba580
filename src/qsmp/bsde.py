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
point (a contraction while dt * |f_y| < 1) and caps |Z| inside the
generator; the affine step (:func:`linear_equation`, whose data may be
formed inside the sweep) inverts its y-dependence exactly.

Each equation stores ``width`` time slices, and step i lives in slice
``i % width`` (:func:`at_step`). A solve that returns the whole path uses
width N+1, so slice i is step i. Step i reads only step i+1 and the slices
written at step i, so width 2 is enough for a caller that consumes each
step inside the sweep: an equation's step may hand what it solved to a
callback, as the costate's ``visit`` does (:mod:`qsmp.adjoint`).

The first equation never reads a later one, and in a state-costate sweep
it is the quadratic one. So a sweep of several equations at width 2 runs
as a pipeline over two processes where forking pays
(:func:`processes_for`): a partner process, forked once per sweep, builds
each step's regression and solves the first equation, and hands both on
through a ring of shared slots; this process solves the other equations
on a view of that regression a few steps behind. The arithmetic and its
order are the same, so the results are the same bits.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import bmo
from .errors import SolverError
from .model import DerivedConstants, ProblemSpec, clip_rows, derive_constants
from .paths import BrownianBatch, ForwardBatch, TimeGrid, shared_zeros, step_major
from .regression import RegressionBasis, StepRegressor

_FIXED_POINT_MAX = 50
_FIXED_POINT_TOL = 1e-13

#: Total path-steps of a solve below which it forks no process. A fork costs
#: a few milliseconds and a pool of check workers about 25 ms (two workers
#: forked from a 130 MB process, 160 KB returned a task); the solves cost 80
#: to 150 ns a path-step at M = 20000, more at small M. A second CPU saves at
#: most half of the work, so from 2M path-steps on it saves about four
#: start-ups; below that the saving did not stand out of the run-to-run spread.
_FORK_MIN_PATH_STEPS = 2_000_000

#: False in a check's worker process (:func:`forbid_forks`), which has its CPU.
_forks_allowed = True

#: Slots of the ring through which a pipelined sweep's partner hands its steps on.
_RING_SLOTS = 4

#: Seconds between two looks of a pipelined sweep's process for the other's
#: byte. It does not sleep on the pipe: on the 2-CPU virtual machine
#: measured, a process woken by the other's write ran on the writer's CPU,
#: so the two ran one after the other and the sweep took longer than in one
#: process. A step takes the partner about 1.5 ms on `descend` and the ring
#: lets it run 4 steps ahead, so a look every millisecond keeps it from
#: waiting. Looking every 0.05, 0.2, 1 or 2 ms gave the same `descend`
#: times; every 1 ms woke the waiting process a quarter as often as 0.2 ms.
_POLL_S = 0.001


def processes_for(path_steps: int) -> int:
    """The processes a solve of ``path_steps`` path-steps may run in: the
    usable CPUs where forking pays, else 1. Forking pays from
    :data:`_FORK_MIN_PATH_STEPS` path-steps on, with ``fork`` available,
    outside a check's worker process and outside a daemonic
    ``multiprocessing`` process (which may not have children)."""
    if not (_forks_allowed and path_steps >= _FORK_MIN_PATH_STEPS and hasattr(os, "fork")):
        return 1
    # Looked up, not imported: a process that never imported it is no multiprocessing child.
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def forbid_forks() -> None:
    """Makes :func:`processes_for` give 1 in this process from now on."""
    global _forks_allowed
    _forks_allowed = False


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
    alive until the garbage collector runs.
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
    grid: TimeGrid, noise: BrownianBatch, states: np.ndarray, equations: list, basis: RegressionBasis, ridge=None
) -> None:
    """Solves the equations in place, sharing one regression on ``states``
    (M, N+1, m) per step; no regressor outlives its step. Several equations
    at width 2 run pipelined over two processes where that can help
    (:func:`_pipelined_sweep`); then the first equation's step must change
    nothing but what it returns and its driver sum."""
    if (
        len(equations) > 1
        and all(eq.values.shape[1] == 2 for eq in equations)
        and processes_for(noise.M * grid.N) > 1
    ):
        _pipelined_sweep(grid, noise, states, equations, basis, ridge)
        return
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
    at_step(eq.values, i)[...], at_step(eq.integrands, i)[...] = eq.step(i, cond, z_i, reg)


def _pipelined_sweep(grid, noise, states, equations, basis, ridge) -> None:
    """:func:`backward_sweep` over two processes. A partner forked here
    builds each step's regression and solves the first equation
    (:func:`_partner`); it writes the step's features, Cholesky factor,
    shift and scale and the first equation's solved step into slot
    ``i % _RING_SLOTS`` of a ring of shared arrays
    (:func:`qsmp.paths.shared_zeros`) and sends one byte. On that byte,
    looked for every :data:`_POLL_S` seconds, this process copies the step
    into the first equation's storage, solves the others on a
    :class:`StepRegressor` view of the slot, and sends a byte back to free
    the slot. An error of the partner at step i is raised here when this
    process reaches step i, as the in-process sweep would raise it; a
    partner that dies is a :class:`SolverError`. The partner is killed and
    reaped on every path."""
    first, rest = equations[0], equations[1:]
    m_paths, n_steps = noise.M, grid.N
    n_feat = len(basis.exponents(states.shape[2]))
    shapes = {
        "features_t": (n_feat, m_paths),
        "chol": (n_feat, n_feat),
        "shift": (states.shape[2],),
        "scale": (states.shape[2],),
        "value": first.values.shape[:1] + first.values.shape[2:],
        "integrand": first.integrands.shape[:1] + first.integrands.shape[2:],
    }
    if first.driver_sum is not None:
        shapes["driver_sum"] = first.driver_sum.shape
    ring = {name: shared_zeros((_RING_SLOTS, *shape)) for name, shape in shapes.items()}
    ready_r, ready_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (ready_r, ready_w, free_r, free_w):
            os.close(fd)
        raise
    if pid == 0:  # the partner
        try:
            os.close(ready_r)
            os.close(free_w)
            _partner(grid, noise, states, first, basis, ridge, ring, ready_w, free_r)
        finally:
            os._exit(0)
    os.close(ready_w)
    os.close(free_r)
    os.set_blocking(ready_r, False)
    try:
        for i in range(n_steps - 1, -1, -1):
            status = _read(ready_r, 1)
            if status != b"\0":
                raise _partner_failure(status, ready_r, i)
            slot = {name: slots[i % _RING_SLOTS] for name, slots in ring.items()}
            at_step(first.values, i)[...] = slot["value"]
            at_step(first.integrands, i)[...] = slot["integrand"]
            reg = StepRegressor.from_parts(
                basis, slot["shift"].copy(), slot["scale"].copy(), slot["features_t"].T, slot["chol"]
            )
            for eq in rest:
                _solve_step(eq, i, reg, noise.increments[:, i], grid.dt)
            if i >= _RING_SLOTS:  # the partner still needs this slot, for step i - _RING_SLOTS
                try:
                    os.write(free_w, b"\0")
                except BrokenPipeError:
                    pass  # the partner has ended: its status for step i - 1 says why
        if first.driver_sum is not None:
            first.driver_sum[...] = ring["driver_sum"][0]
    finally:
        os.close(ready_r)
        os.close(free_w)
        os.kill(pid, signal.SIGKILL)  # its work is done or no longer wanted
        os.waitpid(pid, 0)


def _partner(grid, noise, states, first, basis, ridge, ring, ready_w, free_r) -> None:
    """The partner's half of :func:`_pipelined_sweep`: builds each step's
    regression and solves ``first`` on it, from step N-1 down to 0. An error
    ends the partner after one byte 1 and the pickled exception."""
    n_steps = grid.N
    os.set_blocking(free_r, False)
    for i in range(n_steps - 1, -1, -1):
        try:
            reg = StepRegressor(basis, states[:, i], ridge)
            _solve_step(first, i, reg, noise.increments[:, i], grid.dt)
        except Exception as err:
            os.write(ready_w, b"\1" + _pickled(err, i))
            return
        if i + _RING_SLOTS < n_steps and _read(free_r, 1) != b"\0":
            return  # the sweep ended without this step
        slot = {name: slots[i % _RING_SLOTS] for name, slots in ring.items()}
        slot["features_t"][...] = reg.features.T
        slot["chol"][...] = reg.chol
        slot["shift"][...] = reg.shift
        slot["scale"][...] = reg.scale
        slot["value"][...] = at_step(first.values, i)
        slot["integrand"][...] = at_step(first.integrands, i)
        if i == 0 and first.driver_sum is not None:
            slot["driver_sum"][...] = first.driver_sum
        os.write(ready_w, b"\0")


def _pickled(err: Exception, i: int) -> bytes:
    """``err`` pickled, or a :class:`SolverError` with its text where it does
    not survive the round trip."""
    try:
        payload = pickle.dumps(err)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps(SolverError(f"{type(err).__name__}: {err}", step=i))


def _partner_failure(status: bytes, ready_r: int, i: int) -> Exception:
    """The exception for a status byte other than 0 at step i: the partner's
    own, which follows a byte 1, or a :class:`SolverError` if it died."""
    if status == b"\1":
        chunks = []
        while chunk := _read(ready_r, 1 << 16):
            chunks.append(chunk)
        return pickle.loads(b"".join(chunks))
    return SolverError("the partner process of the sweep died", step=i)


def _read(fd: int, size: int) -> bytes:
    """Up to ``size`` bytes from the non-blocking pipe ``fd``, b"" at its end;
    checked every :data:`_POLL_S` seconds until they come."""
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
    stalls or |Y| exceeds ten times the theoretical ceiling (both signal
    misconfiguration)."""
    abort_level = 10.0 * constants.A
    dt, times, co = grid.dt, grid.times, spec.coeffs
    driver_sum = np.zeros(forward.states.shape[0])

    def step(i, cond, z, reg):
        nonlocal driver_sum
        cond_y = cond[:, 0]
        z_i = clip_rows(z[:, 0], truncation_radius)
        x_i = forward.states[:, i]
        u_i = forward.controls[:, i]
        y_i = cond_y.copy()
        converged = False
        for _ in range(_FIXED_POINT_MAX):
            drift = np.asarray(co.f(times[i], x_i, y_i, z_i, u_i), dtype=np.float64)
            y_new = cond_y + drift * dt
            gap = np.abs(y_new - y_i).max()
            y_i = y_new
            if gap <= _FIXED_POINT_TOL * (1.0 + np.abs(y_i).max()):
                converged = True
                break
        if not converged:
            raise SolverError("fixed-point sub-iteration did not converge", step=i)
        if not np.all(np.isfinite(y_i)):
            raise SolverError("backward value turned non-finite", step=i)
        if np.abs(y_i).max() > abort_level:
            raise SolverError(
                f"|Y| exceeded 10*A = {abort_level:.3g}; bound violation signals misconfiguration",
                step=i,
            )
        driver_sum += drift * dt
        return y_i[:, None], z_i[:, None]

    terminal = np.asarray(co.Phi(forward.states[:, grid.N]), dtype=np.float64)
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
        if not np.all(np.isfinite(y_i)):
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
    moments of the quadratic variation below ([p]+1)! A^(2p)."""
    sup_y = float(np.abs(solution.Y).max())
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

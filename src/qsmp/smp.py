"""Cost functional, directional-derivative verification, projected gradient
descent over feedback policies, and the first-order optimality check.

The descent is plumbing, not theory: the necessary condition holds at an
optimum, and descent is how a candidate optimum is manufactured. All
finite-difference checks reuse one Brownian batch across perturbation sizes
and across the base/perturbed pair; without common random numbers the
small-o behaviour would drown in Monte Carlo noise.

Once the base forward pass exists, each check's solves are independent:
the gradient check's derivative sweep and perturbed chains, the
maximum-principle check's base sweep and replicate groups.
:func:`_in_workers` runs them in forked worker processes, one per usable
CPU, and the parent combines what they return. It runs them in-process,
one after another, where :func:`qsmp.bsde.processes_for` says forking does
not pay: on a single usable CPU, without ``fork``, inside a check's worker
or a daemonic process, and below ``bsde._FORK_MIN_PATH_STEPS`` path-steps.
A worker's sweeps fork no partner (:func:`qsmp.bsde.backward_sweep`). Every
random draw stays in the parent, so the reports are the same bits either
way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import adjoint as adjoint_mod
from . import bmo
from .bsde import RegressionBasis, forbid_forks, linear_equation, processes_for, solve_quadratic_bsde
from .errors import SolverError
from .model import ProblemSpec
from .paths import (
    DEFAULT_EPSILONS,
    BrownianBatch,
    Control,
    ForwardBatch,
    TimeGrid,
    check_epsilons,
    shared_step_major,
    solve_forward_sde,
    step_major,
)

#: A worker's tasks, which it receives through the fork (:func:`_receive`)
#: and runs by index (:func:`_run_task`), so no closure is pickled.
_TASKS: list = []


def _in_workers(tasks) -> list:
    """The results of ``tasks``, (path-steps, zero-argument callable) pairs,
    in task order: in forked worker processes where that can help
    (:func:`qsmp.bsde.processes_for` on the total path-steps), else
    in-process, in order."""
    workers = min(len(tasks), processes_for(sum(steps for steps, _ in tasks)))
    if workers > 1:
        # Imported here: it adds about 25 ms and 1.4 MB to a pipeline that runs no check.
        import multiprocessing

        return _forked(tasks, workers, multiprocessing.get_context("fork"))
    return [task() for _, task in tasks]


def _forked(tasks, workers, context) -> list:
    """:func:`_in_workers` in ``workers`` processes forked by ``context``;
    the tasks start in decreasing order of path-steps (ties keep their
    order, so a caller lists its heaviest solve first). Forked workers share
    the parent's arrays and the tasks' closures, which hold coefficient
    functions that cannot be pickled. A task's exception reaches the caller
    as raised; a worker that dies ends the call with a :class:`SolverError`
    (a killed worker breaks a ``ProcessPoolExecutor``, where a
    ``multiprocessing.Pool`` would wait for ever). On any other failure the
    workers are terminated and the tasks not started are cancelled: the pool
    would wait for the running ones, and for ever after a task it could not
    pickle. No worker outlives the call."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_receive, initargs=([t for _, t in tasks],))
    try:
        futures = {j: pool.submit(_run_task, j) for j in sorted(range(len(tasks)), key=lambda j: -tasks[j][0])}
        return [futures[j].result() for j in range(len(tasks))]
    except BrokenProcessPool as err:
        raise SolverError("a worker process of the check died") from err
    except BaseException:
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _receive(tasks):
    _TASKS[:] = tasks
    forbid_forks()  # the worker has its CPU: its sweeps fork no partner


def _run_task(index):
    return _TASKS[index]()


def cost_functional(spec: ProblemSpec, grid: TimeGrid, noise: BrownianBatch, control: Control) -> float:
    """Time-zero value of the backward component under the given control."""
    return _solve_chain(spec, grid, noise, control)[1].y0


def _solve_chain(spec, grid, noise, control, basis=None, width=None):
    forward = solve_forward_sde(spec, grid, noise, control)
    backward = solve_quadratic_bsde(spec, grid, noise, forward, basis=basis, width=width)
    return forward, backward


@dataclass
class GradientCheckReport:
    """Common-noise difference quotients of the cost against the adjoint
    representation of its directional derivative."""

    epsilons: list
    fd_slopes: list  # (J(u^eps) - J(u_bar)) / eps per epsilon
    fd_slope_ses: list
    extrapolated_intercept: float
    intercept_se: float
    yhat0: float
    yhat0_se: float
    yhat0_gamma: float
    yhat0_gamma_se: float
    inconclusive: bool

    def intercept_gap_se(self) -> float:
        return math.hypot(self.intercept_se, self.yhat0_se)

    def to_dict(self) -> dict:
        return asdict(self)


def gateaux_check(
    spec: ProblemSpec,
    grid: TimeGrid,
    noise: BrownianBatch,
    u_bar: Control,
    u: Control,
    epsilons=DEFAULT_EPSILONS,
    basis: RegressionBasis | None = None,
) -> GradientCheckReport:
    """Difference quotients of J under the convex perturbation
    u_bar + eps (u - u_bar), Richardson-extrapolated to eps = 0 and compared
    with both computations of the adjoint-based derivative, which one
    state-costate sweep gives (:func:`_derivative_sweep`). Each step forms
    the direction when it reads it, and every chain keeps two time slices.
    After the base forward pass, the derivative sweep and the perturbed
    chains run as tasks of :func:`_in_workers`; each returns its cost and
    the per-path values the standard errors need, and the quotients are
    formed here (:func:`_quotient`)."""
    eps_list = check_epsilons(epsilons)
    forward = solve_forward_sde(spec, grid, noise, u_bar)
    uhat_at = _direction(u, grid, forward)
    path_steps = noise.M * grid.N

    def derivatives():
        backward, aux, phi, gamma = _derivative_sweep(spec, grid, noise, forward, uhat_at, basis)
        weighted = adjoint_mod.gamma_weighted_integral(gamma, phi, grid.dt)
        return _cost(backward), (aux.y0, aux.y0_standard_error), weighted

    (base, (yhat0, yhat0_se), (y0_gamma, y0_gamma_se)), *costs = _in_workers(
        [(path_steps, derivatives)]
        + [(path_steps, partial(_perturbed_cost, spec, grid, noise, forward, uhat_at, eps, basis)) for eps in eps_list]
    )
    quotients = []
    ses = []
    for eps, cost in zip(eps_list, costs):
        quotient, se = _quotient(base, cost, eps)
        quotients.append(quotient)
        ses.append(se)

    intercept, intercept_se, slope = _weighted_affine_intercept(eps_list, quotients, ses)

    # The check is inconclusive when the fitted trend over the eps-range is
    # smaller than the statistical resolution of the quotients.
    trend = abs(slope) * (max(eps_list) - min(eps_list))
    resolution = 2.0 * float(np.median(ses))
    inconclusive = bool(trend <= resolution and max(ses) > 0)

    return GradientCheckReport(
        epsilons=eps_list,
        fd_slopes=quotients,
        fd_slope_ses=ses,
        extrapolated_intercept=intercept,
        intercept_se=intercept_se,
        yhat0=yhat0,
        yhat0_se=yhat0_se,
        yhat0_gamma=y0_gamma,
        yhat0_gamma_se=y0_gamma_se,
        inconclusive=inconclusive,
    )


def _direction(u, grid, forward):
    """The direction toward ``u`` along the trajectory ``forward`` as a
    function of the step: i -> u(t_i, x_i) - u_bar_i, shape (M, k)."""
    times = grid.times

    def uhat_at(i):
        return u.values(i, times[i], forward.states[:, i]) - forward.controls[:, i]

    return uhat_at


@dataclass(frozen=True)
class _Perturbed(Control):
    """The open-loop control u_bar_i + eps uhat_at(i), u_bar the base controls (M, N+1, k)."""

    base: np.ndarray
    uhat_at: object
    eps: float

    def values(self, i, t, states):
        return self.base[:, i] + self.eps * self.uhat_at(i)


def _derivative_sweep(spec, grid, noise, forward, uhat_at, basis, width=2):
    """One state-costate sweep that also solves the auxiliary equation for
    the direction ``uhat_at(i)`` (M, k): zero terminal value, slopes f_y and
    f_z, and forcing phi = H_u . uhat. Returns the quadratic solution, the
    auxiliary solution (both at ``width``), phi (M, N) and Gamma (M, N+1)."""
    phi = step_major((noise.M, grid.N))
    log_gamma = step_major((noise.M, grid.N + 1), fill=0.0)
    visited = []

    def visit(point):
        np.einsum("mk,mk->m", adjoint_mod.control_gradient(spec, point), uhat_at(point.i), out=phi[:, point.i])
        log_gamma[:, point.i + 1] = adjoint_mod.gamma_log_increment(point, noise, grid.dt)
        visited[:] = [point]

    def coefficients_at(i):
        # The auxiliary step i runs after the costate's, whose point the visit just kept.
        (point,) = visited
        return point.f_y, point.f_z, phi[:, i]

    aux = linear_equation(np.zeros((noise.M, 1)), grid, spec.d, coefficients_at, width)
    backward, _ = adjoint_mod.solve_state_and_costate(
        spec, grid, noise, forward, basis, width=width, visit=visit, after=[aux]
    )
    return backward, aux.scalar_solution(), phi, bmo.cumulate_log_exponential(log_gamma, adjoint_mod.GAMMA_NAME)


def _cost(solution):
    """A chain's cost J and its per-path terminal-plus-driver sums (M,)."""
    return solution.y0, solution.pathwise_targets


def _perturbed_cost(spec, grid, noise, forward, uhat_at, eps, basis):
    """:func:`_cost` of the chain under u_bar + eps uhat on the same noise.
    The chain keeps two time slices and is dropped on return, so no two
    chains' arrays are alive together."""
    return _cost(_solve_chain(spec, grid, noise, _Perturbed(forward.controls, uhat_at, eps), basis, width=2)[1])


def _quotient(base, perturbed, eps):
    """(J(u_bar + eps uhat) - J(u_bar)) / eps and its standard error, from
    the two chains' :func:`_cost` on the same noise."""
    (base_y0, base_targets), (y0, targets) = base, perturbed
    diff = targets - base_targets
    return (y0 - base_y0) / eps, float(diff.std() / (eps * math.sqrt(diff.shape[0])))


def _weighted_affine_intercept(xs, ys, ses):
    """Weighted least-squares fit y = c0 + c1 x; returns (c0, se(c0), c1).

    When every standard error is zero the values are exact: they are fitted
    without weights and the intercept carries no error.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ses = np.asarray(ses, dtype=np.float64)
    exact = not np.any(ses > 0)
    weights = np.ones_like(xs) if exact else 1.0 / np.maximum(ses, 1e-300) ** 2
    design = np.stack([np.ones_like(xs), xs], axis=1)
    gram = design.T @ (weights[:, None] * design)
    rhs = design.T @ (weights * ys)
    cov = np.linalg.inv(gram)
    coef = cov @ rhs
    se = 0.0 if exact else math.sqrt(max(cov[0, 0], 0.0))
    return float(coef[0]), float(se), float(coef[1])


@dataclass
class AffineFeedbackPolicy:
    """Feedback map with per-step affine parameters, projected pointwise into
    the control domain: u(t_i, x) = project(offsets[i] + gains[i] x)."""

    offsets: np.ndarray  # (N+1, k)
    gains: np.ndarray  # (N+1, k, n)
    domain: object

    @staticmethod
    def zeros(grid: TimeGrid, n: int, k: int, domain) -> "AffineFeedbackPolicy":
        return AffineFeedbackPolicy(np.zeros((grid.N + 1, k)), np.zeros((grid.N + 1, k, n)), domain)

    @staticmethod
    def random(grid: TimeGrid, n: int, k: int, domain, rng, scale: float = 1.0) -> "AffineFeedbackPolicy":
        offsets = scale * rng.standard_normal((grid.N + 1, k))
        gains = scale * rng.standard_normal((grid.N + 1, k, n))
        return AffineFeedbackPolicy(offsets, gains, domain)

    def control(self) -> Control:
        return _PolicyControl(self)

    def raw(self, i: int, states: np.ndarray) -> np.ndarray:
        """The affine map at step i before projection, shape (M, k)."""
        return self.offsets[i] + np.einsum("kn,mn->mk", self.gains[i], states)

    def copy(self) -> "AffineFeedbackPolicy":
        return AffineFeedbackPolicy(self.offsets.copy(), self.gains.copy(), self.domain)


class _PolicyControl(Control):
    def __init__(self, policy: AffineFeedbackPolicy):
        self.policy = policy

    def values(self, i, t, states):
        return self.policy.domain.project(self.policy.raw(i, states))


@dataclass
class DescentRow:
    iteration: int
    cost: float
    cost_se: float
    gradient_norm: float


@dataclass
class DescentResult:
    policy: AffineFeedbackPolicy
    trace: list
    halted_on_divergence: bool


def _gradient_storage(noise, grid, k):
    """The weights (M, N, k) and log Gamma (M, N+1) that
    :func:`_policy_gradient` fills, in shared mappings
    (:func:`qsmp.paths.shared_step_major`): a descent allocates them once
    for all its iterations, so no iteration faults their pages in again,
    and no sweep's partner process makes the visit's writes copy them."""
    return shared_step_major((noise.M, grid.N, k)), shared_step_major((noise.M, grid.N + 1))


def _policy_gradient(spec, grid, noise, policy, basis, storage=None):
    """(cost, its standard error, offset gradient (N, k), gain gradient
    (N, k, n)) at the policy, from one state-costate sweep at width 2 whose
    visitor forms H_u, chained through the policy's projection, and the
    step of log Gamma. Besides the forward batch, which dies on return, the
    path arrays are the weights (M, N, k) and Gamma (M, N+1) of
    ``storage`` (:func:`_gradient_storage`, allocated here by default)."""
    forward = solve_forward_sde(spec, grid, noise, policy.control())
    weight, log_gamma = storage or _gradient_storage(noise, grid, spec.k)
    log_gamma[:, 0] = 0.0

    def visit(point):
        grad = adjoint_mod.control_gradient(spec, point)
        weight[:, point.i] = policy.domain.pullback(policy.raw(point.i, point.x), grad)
        log_gamma[:, point.i + 1] = adjoint_mod.gamma_log_increment(point, noise, grid.dt)

    backward, _ = adjoint_mod.solve_state_and_costate(spec, grid, noise, forward, basis, width=2, visit=visit)
    weight *= bmo.cumulate_log_exponential(log_gamma, adjoint_mod.GAMMA_NAME)[:, : grid.N, None]
    grad_offsets = weight.mean(axis=0)  # (N, k)
    grad_gains = np.einsum("mik,min->ikn", weight, forward.states[:, : grid.N]) / noise.M
    return backward.y0, backward.y0_standard_error, grad_offsets, grad_gains


def projected_gradient_descent(
    spec: ProblemSpec,
    grid: TimeGrid,
    noise: BrownianBatch,
    u_init: AffineFeedbackPolicy,
    step_schedule: float,
    max_iters: int,
    basis: RegressionBasis | None = None,
) -> DescentResult:
    """Gradient descent on the affine feedback parameters.

    Each iteration solves the state, backward, and costate systems at the
    current policy, forms the weighted control gradient of the Hamiltonian
    along the trajectory, and moves the per-step parameters against its
    Monte Carlo average (offsets against the plain average, gains against
    the state-weighted one). The policy output itself is projected into the
    control domain, so the parameters stay unconstrained, and the gradient
    is chained through that projection (``domain.pullback``): a control
    clipped to a box bound contributes nothing to its component. Halts
    early if the cost ends more than its standard error above the best cost
    so far five times in a row: with clipped controls a diverging descent
    can stall on a plateau without rising at every iteration.
    """
    eta = float(step_schedule)
    policy = u_init.copy()
    trace = []
    best: AffineFeedbackPolicy = policy.copy()
    best_cost = math.inf
    above_best = 0
    halted = False
    storage = _gradient_storage(noise, grid, spec.k)

    for iteration in range(max_iters):
        cost, cost_se, grad_offsets, grad_gains = _policy_gradient(spec, grid, noise, policy, basis, storage)
        grad_norm = float(
            math.sqrt(np.sum(grad_offsets**2) + np.sum(grad_gains**2)) * math.sqrt(grid.dt)
        )
        trace.append(DescentRow(iteration, cost, cost_se, grad_norm))

        if cost > best_cost + cost_se:
            above_best += 1
            if above_best >= 5:
                halted = True
                break
        else:
            above_best = 0
        if cost < best_cost:
            best_cost = cost
            best = policy.copy()

        policy.offsets[: grid.N] -= eta * grad_offsets
        policy.gains[: grid.N] -= eta * grad_gains

    return DescentResult(best, trace, halted)


@dataclass
class MpCheckReport:
    """Sampled first-order optimality statistics: inner products of the
    Hamiltonian control-gradient with feasible directions."""

    min_inner: float
    violation_fraction: float
    n_samples: int
    se_multiplier: float
    per_time_min: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def replicate_group_size(m_paths: int, groups: int) -> int:
    """Paths in each of the ``groups`` replicate groups of
    :func:`check_maximum_principle`; raises ValueError unless there are at
    least 2 groups of at least 64 paths."""
    if groups < 2:
        raise ValueError("the replicate standard error needs at least 2 groups")
    size = m_paths // groups
    if size < 64:
        raise ValueError(f"too few paths per replication group ({m_paths} // {groups} = {size} < 64)")
    return size


def check_maximum_principle(
    spec: ProblemSpec,
    grid: TimeGrid,
    noise: BrownianBatch,
    u_bar: Control,
    n_times: int = 12,
    n_states: int = 48,
    n_candidates: int = 8,
    boundary_bias: float = 0.5,
    groups: int = 8,
    se_multiplier: float = 5.0,
    basis: RegressionBasis | None = None,
    seed: int = 0,
) -> MpCheckReport:
    """Sample times, states, and feasible candidate controls and test the
    variational inequality at the candidate-optimal control.

    The check steps are up to ``n_times`` regression steps spread over
    1..N-1 (step 0 when N = 1). The tolerance at each sampled point is
    ``se_multiplier`` times a pointwise standard error obtained by
    replicating the whole solve chain on ``groups`` disjoint path groups
    (:func:`replicate_group_size`, checked before any solve) and evaluating
    the replicate solutions (as fitted state functions) at the common query
    points. Every sweep runs at width 2 and keeps only what it reads at the
    check steps. The query points' states and controls come from the
    forward batch, so after the forward pass the base sweep and each
    replicate group's sweep run as tasks of :func:`_in_workers`; the random
    draws (query paths, then candidates) happen here, in that order.
    """
    size = replicate_group_size(noise.M, groups)
    if basis is None:
        basis = RegressionBasis(3)
    rng = np.random.default_rng([seed, 0xC0])
    check_steps = _check_steps(grid.N, n_times)
    query_paths = rng.choice(noise.M, size=min(n_states, noise.M), replace=False)
    forward = solve_forward_sde(spec, grid, noise, u_bar)
    times = grid.times
    queries = [
        _Query(i, times[i], forward.states[query_paths, i], forward.controls[query_paths, i]) for i in check_steps
    ]

    def base_fields():
        points = _query_points(spec, grid, noise, forward, basis, check_steps, query_paths)
        return [adjoint_mod.control_gradient(spec, point) for point in points]

    def replicate(g):
        return partial(_replicate_fields, spec, grid, noise, forward, slice(g * size, (g + 1) * size), basis, queries)

    # The control gradient at every check step: on all paths, then per group.
    fields, *replicates = _in_workers(
        [(noise.M * grid.N, base_fields)] + [(size * grid.N, replicate(g)) for g in range(groups)]
    )

    min_inner = math.inf
    per_time_min = []
    violations = 0
    total = 0
    for j, field in enumerate(fields):
        u_q = queries[j].u
        candidates = spec.domain.sample(rng, len(query_paths) * n_candidates, boundary_bias=boundary_bias)
        candidates = candidates.reshape(len(query_paths), n_candidates, spec.k)
        directions = candidates - u_q[:, None, :]
        inner = np.einsum("sk,sck->sc", field, directions)
        g_inner = np.stack([np.einsum("sk,sck->sc", rep[j], directions) for rep in replicates], axis=0)
        threshold = se_multiplier * (g_inner.std(axis=0, ddof=1) / math.sqrt(groups))

        violations += int(np.count_nonzero(inner < -threshold))
        total += inner.size
        step_min = float(inner.min())
        per_time_min.append(step_min)
        min_inner = min(min_inner, step_min)

    return MpCheckReport(
        min_inner=min_inner,
        violation_fraction=violations / max(total, 1),
        n_samples=total,
        se_multiplier=se_multiplier,
        per_time_min=per_time_min,
    )


def _check_steps(n_steps: int, n_times: int) -> list:
    """Up to ``n_times`` distinct steps spread evenly over 1..N-1, among the
    regression steps 0..N-1 (the terminal step has no fitted Z or q)."""
    return sorted(set(np.linspace(min(1, n_steps - 1), n_steps - 1, n_times, dtype=int)))


@dataclass(frozen=True)
class _Query:
    """The query points of check step i: time t, states x (S, n) and controls u (S, k)."""

    i: int
    t: float
    x: np.ndarray
    u: np.ndarray


def _query_points(spec, grid, noise, forward, basis, check_steps, query_paths):
    """The :class:`qsmp.adjoint.StepPoint` at the rows ``query_paths`` of
    each check step, from one state-costate sweep at width 2 over all paths;
    the visit copies the rows and slopes out before the sweep overwrites them."""
    points = {}

    def visit(point):
        if point.i in check_steps:
            fields = (point.x, point.u, point.y, point.z, point.p, point.q, point.f_y, point.f_z)
            points[point.i] = adjoint_mod.StepPoint(point.i, point.t, *(a[query_paths] for a in fields), None)

    adjoint_mod.solve_state_and_costate(spec, grid, noise, forward, basis=basis, width=2, visit=visit)
    return [points[i] for i in check_steps]


def _replicate_fields(spec, grid, noise, forward, sel, basis, points):
    """The control gradient at each check step's query points (a
    :class:`_Query` or :class:`qsmp.adjoint.StepPoint` each), from the
    solve chain replicated on the paths ``sel`` at width 2. At each check
    step the visit fits the group's Y, Z, p and q with the sweep's regression
    and evaluates the fits at the query states, so no group path array but
    the forward batch's views outlives the sweep."""
    g_noise = BrownianBatch(noise.increments[sel], noise.seed, noise.stream_id)
    g_forward = ForwardBatch(forward.states[sel], forward.controls[sel])
    queries = {query.i: query for query in points}
    n, d = spec.n, spec.d
    fields = {}

    def visit(point):
        query = queries.get(point.i)
        if query is None:
            return
        # The replicate solution at the query states: the sweep's regression
        # on the group's states serves the four fitted functions.
        x_q = query.x
        gy, gz, gp, gq = (
            point.reg.fit(values)[1].evaluate(x_q) for values in (point.y, point.z, point.p, point.q.reshape(-1, n * d))
        )
        gq = gq.reshape(len(x_q), n, d)
        at_query = adjoint_mod.StepPoint.at(spec, point.i, query.t, x_q, query.u, gy[:, 0], gz, gp, gq)
        fields[point.i] = adjoint_mod.control_gradient(spec, at_query)

    adjoint_mod.solve_state_and_costate(spec, grid, g_noise, g_forward, basis=basis, width=2, visit=visit)
    return [fields[query.i] for query in points]

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bmo
from .errors import SolverError
from .model import DerivedConstants, ProblemSpec, clip_rows, derive_constants
from .paths import BrownianBatch, ForwardBatch, TimeGrid, step_major
from .regression import RegressionBasis, StepRegressor

_FIXED_POINT_MAX = 50
_FIXED_POINT_TOL = 1e-13


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
    (M, N+1, m) per step; no regressor outlives its step."""
    m_paths, n_steps, d, dt = noise.M, grid.N, noise.d, grid.dt
    for i in range(n_steps - 1, -1, -1):
        reg = StepRegressor(basis, states[:, i], ridge)
        for eq in equations:
            nxt = at_step(eq.values, i + 1)
            cond, _ = reg.fit(nxt)
            # Martingale control variate: centering the target leaves the
            # conditional expectation unchanged but removes the O(1/dt) variance
            # the conditional mean would otherwise inject into the Z estimate.
            z_target = ((nxt - cond)[:, :, None] * noise.increments[:, i, None, :] / dt).reshape(m_paths, -1)
            z_flat, _ = reg.fit(z_target)
            z_i = z_flat.reshape(m_paths, -1, d)
            at_step(eq.values, i)[...], at_step(eq.integrands, i)[...] = eq.step(i, cond, z_i, reg)


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

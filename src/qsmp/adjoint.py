"""Adjoint system along a candidate-optimal trajectory.

The costate pair (p, q) solves a linear vector backward equation on the
trajectory and states of the quadratic pair (Y, Z), with coefficients taken
at (Y, Z): :func:`solve_state_and_costate` runs both in one backward sweep
(one regression per step) and hands each solved step, with the slopes f_y
and f_z the costate step evaluated and the step's regression, to ``visit``
as a :class:`StepPoint`.
The control gradient H_u and the step of log Gamma read that point, so a
visitor can form them at storage width 2, and an equation swept after the
costate (such as the auxiliary equation whose value at zero is the cost
derivative, :func:`qsmp.smp.gateaux_check`) can read them at the same step.
(Y, Z) never reads the costate, so at width 2 and from
``bsde._FORK_MIN_PATH_STEPS`` path-steps on the sweep runs pipelined
(:func:`qsmp.bsde.backward_sweep`): a partner process builds each step's
regression and solves (Y, Z), and this process solves the costate, its
visit and the equations after it on a view of that regression, a few steps
behind, with the same bits; the costate reads (Y, Z) where the partner
wrote them. A visitor runs in this process, so what it writes stays here.
The partner lives for one sweep, or for many (:func:`state_partner`, which
a descent forks once). Like a check's worker, it is a ``bsde._Child``.
Also: the Gamma-weighted form of the cost derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bmo
from .bsde import (
    BackwardEquation,
    BackwardSolution,
    Partner,
    at_step,
    backward_sweep,
    quadratic_defaults,
    quadratic_equation,
)
from .errors import SolverError, located
from .model import ProblemSpec, Zero
from .paths import BrownianBatch, ForwardBatch, TimeGrid, abs_max
from .regression import RegressionBasis, StepRegressor

#: Derivatives that take (t, x, u); the others also take (y, z).
_STATE_DERIVATIVES = frozenset(("b_x", "b_u", "sigma_x", "sigma_u"))


@dataclass
class AdjointSolution:
    """Costate pair at storage width w: p (M, w, n), q (M, w, n, d), p_N (M, n)."""

    p: np.ndarray
    q: np.ndarray
    terminal: np.ndarray


@dataclass(frozen=True)
class StepPoint:
    """Step i of the trajectory and costate on S points, with the slopes f_y
    and f_z there. Inside a sweep the arrays are views a later step
    overwrites, and ``reg`` is the step's regression (None off the sweep)."""

    i: int
    t: float
    x: np.ndarray  # (S, n)
    u: np.ndarray  # (S, k)
    y: np.ndarray  # (S,)
    z: np.ndarray  # (S, d)
    p: np.ndarray  # (S, n)
    q: np.ndarray  # (S, n, d)
    f_y: np.ndarray  # (S,)
    f_z: np.ndarray  # (S, d)
    reg: StepRegressor | None

    @staticmethod
    def at(spec: ProblemSpec, i: int, t, x, u, y, z, p, q) -> "StepPoint":
        """The point at given states, with the slopes evaluated there."""
        f_y, f_z = _slopes(spec, t, x, u, y, z)
        return StepPoint(i, t, x, u, y, z, p, q, f_y, f_z, None)


def _coefficients(spec: ProblemSpec, t, x, u, y, z, *names):
    """The named coefficient derivatives at a batch of points, in order:
    None for each that is a :class:`qsmp.model.Zero`, whose terms the caller
    skips."""
    co = spec.coeffs
    out = []
    for name in names:
        fn = getattr(co, name)
        if isinstance(fn, Zero):
            out.append(None)
            continue
        value = fn(t, x, u) if name in _STATE_DERIVATIVES else fn(t, x, y, z, u)
        out.append(np.asarray(value, dtype=np.float64))
    return out


def _slopes(spec: ProblemSpec, t, x, u, y, z):
    """f_y (S,) and f_z (S, d) at a batch of points, as arrays, zeros for a
    :class:`qsmp.model.Zero`: a :class:`StepPoint` carries both."""
    co = spec.coeffs
    return np.asarray(co.f_y(t, x, y, z, u), dtype=np.float64), np.asarray(co.f_z(t, x, y, z, u), dtype=np.float64)


def _plus(total, term):
    """``total + term``, in place in ``total``; ``term`` itself where no term
    came before (``total`` None), so a coefficient's own array, which must
    not be written, may only be the last term of a sum."""
    if total is None:
        return term
    total += term
    return total


def costate_equation(
    spec: ProblemSpec, grid: TimeGrid, forward: ForwardBatch, state, width: int | None = None, visit=None
) -> BackwardEquation:
    """The costate equation along ``forward`` and the backward pair of
    ``state``, the quadratic equation (or anything with its ``values``
    (M, w, 1) and ``integrands`` (M, w, 1, d)): step i of the pair is read
    through :func:`qsmp.bsde.at_step` when the costate's step i runs, from
    whatever storage the equation has then (a pipelined sweep lends it the
    partner's); ``width`` is the costate's own storage width.

    Each q-column is recovered from the martingale increment of p against the
    matching Brownian component; the drift couples p and q through the
    state-sensitivity and generator-slope terms and is resolved implicitly in
    p (an (n x n) solve per path, scalar division when n = 1). A term with a
    :class:`qsmp.model.Zero` factor is skipped, and the others are added in
    their order; with no drift term left, p_i is the right-hand side. Once
    step i is solved, ``visit`` (if given) receives its :class:`StepPoint`.
    """
    n = spec.n
    dt, times = grid.dt, grid.times
    eye = np.eye(n)
    y_slope, z_slope = (not isinstance(fn, Zero) for fn in (spec.coeffs.f_y, spec.coeffs.f_z))

    def step(i, cond_p, q_i, reg):
        x_i, u_i = forward.states[:, i], forward.controls[:, i]
        y_i, z_i = at_step(state.values, i)[:, 0], at_step(state.integrands, i)[:, 0]
        f_y, f_z = _slopes(spec, times[i], x_i, u_i, y_i, z_i)
        f_x, b_x, sigma_x = _coefficients(spec, times[i], x_i, u_i, y_i, z_i, "f_x", "b_x", "sigma_x")
        # drift matrix acting on p:  sum_i f_{z_i} (sigma_x^i)^T + f_y I + b_x^T
        mat = None
        if z_slope and sigma_x is not None:
            mat = np.einsum("mi,miba->mab", f_z, sigma_x)
        if y_slope:
            mat = _plus(mat, f_y[:, None, None] * eye)
        if b_x is not None:
            mat = _plus(mat, np.swapaxes(b_x, 1, 2))
        # q-coupling and driver:  sum_i [f_{z_i} I + (sigma_x^i)^T] q^i + f_x
        rest = np.einsum("mi,mai->ma", f_z, q_i) if z_slope else None
        if sigma_x is not None:
            rest = _plus(rest, np.einsum("miba,mbi->ma", sigma_x, q_i))
        if f_x is not None:
            rest = _plus(rest, f_x)

        rhs = cond_p if rest is None else cond_p + dt * rest
        if mat is None:
            p_i = rhs
        elif n == 1:
            denom = 1.0 - dt * mat[:, 0, 0]
            if np.abs(denom).min() < 1e-8:
                raise SolverError("implicit costate step is singular", step=i)
            p_i = rhs / denom[:, None]
        else:
            try:
                p_i = np.linalg.solve(eye[None, :, :] - dt * mat, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise SolverError("implicit costate step is singular", step=i) from None
        if not np.isfinite(abs_max(p_i)):
            raise SolverError("costate turned non-finite", step=i)
        if visit is not None:
            visit(StepPoint(i, times[i], x_i, u_i, y_i, z_i, p_i, q_i, f_y, f_z, reg))
        return p_i, q_i

    terminal = np.asarray(located(spec.coeffs.Phi_x, forward.states[:, grid.N], step=grid.N), dtype=np.float64)
    return BackwardEquation(terminal, grid.N, spec.d, step, width=width)


def solve_state_and_costate(
    spec: ProblemSpec,
    grid: TimeGrid,
    noise: BrownianBatch,
    forward: ForwardBatch,
    basis: RegressionBasis | None = None,
    ridge: float | None = None,
    truncation_radius: float | None = None,
    width: int | None = None,
    visit=None,
    after=(),
    partner=None,
) -> tuple[BackwardSolution, AdjointSolution]:
    """The quadratic backward pair (as :func:`qsmp.bsde.solve_quadratic_bsde`
    gives it) and the costate along it (:func:`costate_equation`), in one
    sweep with one regression per step; ``visit`` receives each step's
    :class:`StepPoint`, from N-1 down to 0. The equations ``after`` run at
    each step after the costate and its visit, in order, on the same
    regression. At ``width`` 2 the solutions hold step 0 and the terminal
    values only, and the sweep runs through ``partner`` if given
    (:func:`state_partner`, made for these arguments)."""
    basis, truncation_radius, constants = quadratic_defaults(spec, basis, truncation_radius)
    quad = quadratic_equation(spec, grid, forward, truncation_radius, constants, width)
    costate = costate_equation(spec, grid, forward, quad, width, visit)
    backward_sweep(grid, noise, forward.states, [quad, costate, *after], basis, ridge, partner)
    return quad.scalar_solution(), AdjointSolution(costate.values, costate.integrands, costate.terminal)


def state_partner(spec: ProblemSpec, grid: TimeGrid, noise: BrownianBatch, forward: ForwardBatch, basis, task) -> Partner:
    """A :class:`qsmp.bsde.Partner` for any number of
    :func:`solve_state_and_costate` sweeps on ``forward`` at width 2 with
    ``basis`` (None for the default), the default ridge and the default
    truncation radius: at each sweep it solves (Y, Z) on ``forward`` as it
    is then, so the caller keeps the forward batch in shared mappings and
    refills it between sweeps. ``task`` is what
    :meth:`qsmp.bsde.Partner.share` runs in the partner."""
    basis, truncation_radius, constants = quadratic_defaults(spec, basis, None)

    def first():
        return quadratic_equation(spec, grid, forward, truncation_radius, constants, 2)

    return Partner(grid, noise, forward.states, basis, None, first, task)


GAMMA_NAME = "exponential weight"  # what a Gamma overflow is reported as


def gamma_log_increment(point: StepPoint, noise: BrownianBatch, dt: float) -> np.ndarray:
    """Step i of log Gamma for the positive weight Gamma = exp(int f_y ds)
    E(int f_z . dW): f_y dt + f_z . dW - |f_z|^2 dt / 2, shape (S,)."""
    return bmo.log_exponential_increment(point.f_y, point.f_z, noise.increments[:, point.i], dt)


def control_gradient(spec: ProblemSpec, point: StepPoint) -> np.ndarray:
    """Control gradient of the Hamiltonian at the point, a new array (S, k):
    b_u^T p + sum_i (sigma_u^i)^T q^i + sum_i f_{z_i} (sigma_u^i)^T p + f_u,
    without the terms that have a :class:`qsmp.model.Zero` factor, the
    others added in this order."""
    b_u, sigma_u, f_u = _coefficients(spec, point.t, point.x, point.u, point.y, point.z, "b_u", "sigma_u", "f_u")
    grad = np.einsum("sak,sa->sk", b_u, point.p) if b_u is not None else None
    if sigma_u is not None:
        grad = _plus(grad, np.einsum("sai,siak->sk", point.q, sigma_u))
        if not isinstance(spec.coeffs.f_z, Zero):
            grad = _plus(grad, np.einsum("si,siak,sa->sk", point.f_z, sigma_u, point.p))
    if f_u is not None:
        grad = f_u.copy() if grad is None else _plus(grad, f_u)
    return np.zeros((len(point.p), spec.k)) if grad is None else grad


def gamma_weighted_integral(gamma: np.ndarray, phi: np.ndarray, dt: float) -> tuple[float, float]:
    """Monte Carlo mean and standard error of int Gamma phi dt, for the
    auxiliary forcing phi (M, N): the cost derivative as a weighted integral."""
    integrals = np.einsum("mi,mi->m", gamma[:, : phi.shape[1]], phi) * dt
    return float(integrals.mean()), float(integrals.std() / math.sqrt(integrals.shape[0]))

"""Built-in problem families.

Each builder returns a fully-wired :class:`~qsmp.model.ProblemSpec` with
vectorised coefficient evaluators and declared constants that hold on the
default validation region. Three families ship with the command-line front
end: a quadratic-in-z generator with controlled drift (closed-form value via
exponential moments), a linear-quadratic specialisation with a Riccati
reference, and a bounded tanh family exercising every declared constant.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .model import VALIDATION_BOUND, AssumptionConstants, BoxDomain, CoefficientSet, ProblemSpec, WithoutY, Zero
from .paths import FeedbackControl


def _scalar_state(x):
    return x[:, 0]


def build_exponential_utility(gamma: float = 1.0, u_max: float = 1.0) -> ProblemSpec:
    """Drift-controlled state, generator (gamma/2)|z|^2, bounded terminal tanh.

    With zero control the state is a standard Brownian motion and the time-0
    value equals ln(E[exp(gamma * Phi(W_T))]) / gamma.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def f(t, x, z, u):
        return 0.5 * gamma * np.einsum("md,md->m", z, z)

    coeffs = CoefficientSet(
        b=lambda t, x, u: u.copy(),
        sigma=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
        f=WithoutY(f),
        Phi=lambda x: np.tanh(_scalar_state(x)),
        b_x=Zero(1, 1),
        b_u=lambda t, x, u: np.ones((x.shape[0], 1, 1)),
        sigma_x=Zero(1, 1, 1),
        sigma_u=Zero(1, 1, 1),
        f_x=Zero(1),
        f_y=Zero(),
        f_z=lambda t, x, y, z, u: gamma * z,
        f_u=Zero(1),
        Phi_x=lambda x: (1.0 - np.tanh(_scalar_state(x)) ** 2)[:, None],
    )
    constants = AssumptionConstants(
        alpha=0.0,
        gamma=gamma,
        L1=0.0,
        L2=0.0,
        L3=0.0,
        f_y_sup=0.0,
        Phi_sup=1.0,
        sigma_x_sup=(0.0,),
        b_x_sup=0.0,
        b_u_sup=1.0,
        sigma_u_sup=0.0,
        Phi_x_sup=1.0,
    )
    return ProblemSpec(
        n=1, d=1, k=1, T=1.0, x0=np.zeros(1),
        coeffs=coeffs, domain=BoxDomain((-u_max,), (u_max,)), constants=constants,
    )


def build_linear_quadratic(
    a: float = 0.5,
    b: float = 1.0,
    sigma0: float = 0.5,
    q: float = 1.0,
    r: float = 1.0,
    g: float = 1.0,
    T: float = 1.0,
    x0: float = 1.0,
    u_max: float = 10.0,
) -> ProblemSpec:
    """Scalar linear dynamics with quadratic running and terminal cost.

    The terminal and running costs grow quadratically, so the declared
    constants hold on the default validation region rather than globally;
    the Riccati reference (:func:`solve_lq_riccati`) supplies the exact
    optimal cost and feedback for this family.
    """
    if r <= 0:
        raise ValueError("control weight r must be positive")

    def f(t, x, z, u):
        return 0.5 * (q * _scalar_state(x) ** 2 + r * u[:, 0] ** 2)

    coeffs = CoefficientSet(
        b=lambda t, x, u: a * x + b * u,
        sigma=lambda t, x, u: np.full((x.shape[0], 1, 1), sigma0),
        f=WithoutY(f),
        Phi=lambda x: 0.5 * g * _scalar_state(x) ** 2,
        b_x=lambda t, x, u: np.full((x.shape[0], 1, 1), a),
        b_u=lambda t, x, u: np.full((x.shape[0], 1, 1), b),
        sigma_x=Zero(1, 1, 1),
        sigma_u=Zero(1, 1, 1),
        f_x=lambda t, x, y, z, u: q * x,
        f_y=Zero(),
        f_z=Zero(1),
        f_u=lambda t, x, y, z, u: r * u,
        Phi_x=lambda x: g * x,
    )
    region = VALIDATION_BOUND
    constants = AssumptionConstants(
        alpha=0.5 * (abs(q) + abs(r)) * region**2,
        gamma=0.002,
        L1=abs(q) * region,
        L2=0.0,
        L3=abs(r),
        f_y_sup=0.0,
        Phi_sup=0.5 * abs(g) * region**2,
        sigma_x_sup=(0.0,),
        b_x_sup=abs(a),
        b_u_sup=abs(b),
        sigma_u_sup=0.0,
        Phi_x_sup=abs(g) * region,
    )
    return ProblemSpec(
        n=1, d=1, k=1, T=T, x0=np.array([x0]),
        coeffs=coeffs, domain=BoxDomain((-u_max,), (u_max,)), constants=constants,
    )


def build_bounded_tanh(
    gamma: float = 0.4,
    revert_rate: float = 0.4,
    drift_control: float = 0.5,
    vol_base: float = 0.6,
    vol_control: float = 0.15,
    gen_y: float = 0.3,
    gen_z: float = 0.2,
    gen_xu: float = 0.3,
    gen_u: float = 0.2,
    terminal: float = 0.6,
    T: float = 1.0,
    x0: float = 0.3,
) -> ProblemSpec:
    """Bounded non-quadratic-cost family with tanh coefficients.

    Every declared constant is active: nonzero generator at the origin,
    genuine quadratic z-growth plus a linear z term, bounded state/control
    sensitivity in drift, diffusion, and generator. The drift reverts to the
    origin and the diffusion fades in the state tails, so simulated states
    stay inside a band where low-degree polynomial regression is accurate
    out to the most extreme path of a large batch.
    """

    def sech2(v):
        return 1.0 - np.tanh(v) ** 2

    def f(t, x, y, z, u):
        xs = _scalar_state(x)
        quad = 0.5 * gamma * np.einsum("md,md->m", z, z)
        return gen_y * np.tanh(y) + quad + gen_z * z[:, 0] + (gen_xu * np.tanh(xs) + gen_u) * u[:, 0]

    coeffs = CoefficientSet(
        b=lambda t, x, u: -revert_rate * np.tanh(x) + drift_control * u,
        sigma=lambda t, x, u: (vol_base * sech2(x) + vol_control * u)[:, :, None],
        f=f,
        Phi=lambda x: terminal * np.tanh(_scalar_state(x)),
        b_x=lambda t, x, u: (-revert_rate * sech2(x))[:, :, None],
        b_u=lambda t, x, u: np.full((x.shape[0], 1, 1), drift_control),
        sigma_x=lambda t, x, u: (-2.0 * vol_base * np.tanh(x) * sech2(x))[:, None, :, None],
        sigma_u=lambda t, x, u: np.full((x.shape[0], 1, 1, 1), vol_control),
        f_x=lambda t, x, y, z, u: (gen_xu * sech2(_scalar_state(x)) * u[:, 0])[:, None],
        f_y=lambda t, x, y, z, u: gen_y * (1.0 - np.tanh(y) ** 2),
        f_z=lambda t, x, y, z, u: gamma * z + gen_z,
        f_u=lambda t, x, y, z, u: (gen_xu * np.tanh(_scalar_state(x)) + gen_u)[:, None],
        Phi_x=lambda x: (terminal * (1.0 - np.tanh(_scalar_state(x)) ** 2))[:, None],
    )
    # max of |2 tanh(v) sech^2(v)| over v is 4/(3 sqrt(3)) ~ 0.7698
    constants = AssumptionConstants(
        alpha=gen_xu + gen_u,
        gamma=gamma,
        L1=gen_xu,
        L2=gen_z,
        L3=gen_xu + gen_u,
        f_y_sup=gen_y,
        Phi_sup=terminal,
        sigma_x_sup=(vol_base * 0.7699,),
        b_x_sup=revert_rate,
        b_u_sup=drift_control,
        sigma_u_sup=vol_control,
        Phi_x_sup=terminal,
    )
    return ProblemSpec(
        n=1, d=1, k=1, T=T, x0=np.array([x0]),
        coeffs=coeffs, domain=BoxDomain((-1.0,), (1.0,)), constants=constants,
    )


def build_controlled_geometric(mu: float = 0.0, vol: float = 0.2, x0: float = 1.0, u_max: float = 1.0) -> ProblemSpec:
    """Multiplicative dynamics dX = X (mu + u) dt + vol X dW with zero cost
    coefficients. The drift is bilinear in state and control, so, unlike in
    the linear-quadratic family, the state is not affine in the control."""

    coeffs = CoefficientSet(
        b=lambda t, x, u: x * (mu + u[:, 0])[:, None],
        sigma=lambda t, x, u: vol * x[:, :, None],
        f=Zero(),
        Phi=Zero(),
        b_x=lambda t, x, u: (mu + u[:, 0])[:, None, None],
        b_u=lambda t, x, u: x[:, :, None],
        sigma_x=lambda t, x, u: np.full((x.shape[0], 1, 1, 1), vol),
        sigma_u=Zero(1, 1, 1),
        f_x=Zero(1),
        f_y=Zero(),
        f_z=Zero(1),
        f_u=Zero(1),
        Phi_x=Zero(1),
    )
    region = VALIDATION_BOUND
    constants = AssumptionConstants(
        alpha=0.0,
        gamma=1.0,
        L1=0.0,
        L2=0.0,
        L3=0.0,
        f_y_sup=0.0,
        Phi_sup=0.0,
        sigma_x_sup=(vol,),
        b_x_sup=abs(mu) + u_max,
        b_u_sup=region,
        sigma_u_sup=0.0,
        Phi_x_sup=0.0,
    )
    return ProblemSpec(
        n=1, d=1, k=1, T=1.0, x0=np.array([x0]),
        coeffs=coeffs, domain=BoxDomain((-u_max,), (u_max,)), constants=constants,
    )


FAMILIES = {
    "exponential_utility": build_exponential_utility,
    "linear_quadratic": build_linear_quadratic,
    "bounded_tanh": build_bounded_tanh,
    "controlled_geometric": build_controlled_geometric,
}


@dataclass
class RiccatiSolution:
    """Closed-form reference of the scalar control problem with linear
    dynamics and quadratic cost.

    In reversed time s = T - t, P' = 2 a P + q - k P^2 with k = b^2 / r,
    P(0) = g, and c' = sigma0^2 P / 2, c(0) = 0. For k > 0, P = phi' / (k phi)
    with phi'' = 2 a phi' + k q phi, phi(0) = 1, phi'(0) = k g, which gives
    P = (g C + (a g + q) S) / (C + (k g - a) S) and
    c = sigma0^2 [(a + lambda) s + ln(C + (k g - a) S)] / (2 k), where
    C, S are cosh(lambda s), sinh(lambda s) / lambda scaled by e^{-lambda s}
    (mu = a^2 + k q = lambda^2 > 0), 1 and s (mu = 0), or cos(w s) and
    sin(w s) / w with w^2 = -mu and lambda = 0 (mu < 0). For b = 0,
    P = g + (2 a g + q) (e^{2 a s} - 1) / (2 a), linear in s when a = 0.
    """

    a: float
    b: float
    sigma0: float
    q: float
    r: float
    g: float
    T: float
    x0: float

    def _weight_and_offset(self, t):
        s = self.T - np.atleast_1d(np.asarray(t, dtype=np.float64))
        a, q, g = self.a, self.q, self.g
        half_var = 0.5 * self.sigma0 * self.sigma0
        k = self.b * self.b / self.r
        if k == 0.0:
            if a == 0.0:
                growth, growth_integral = s, 0.5 * s * s
            else:
                growth = np.expm1(2.0 * a * s) / (2.0 * a)
                growth_integral = (growth - s) / (2.0 * a)
            slope = 2.0 * a * g + q
            return g + slope * growth, half_var * (g * s + slope * growth_integral)
        mu = a * a + k * q
        lam = 0.0
        if mu > 0.0:
            lam = math.sqrt(mu)
            cosh_part = 0.5 * (1.0 + np.exp(-2.0 * lam * s))
            sinh_part = -np.expm1(-2.0 * lam * s) / (2.0 * lam)
        elif mu == 0.0:
            cosh_part, sinh_part = np.ones_like(s), s
        else:
            w = math.sqrt(-mu)
            cosh_part, sinh_part = np.cos(w * s), np.sin(w * s) / w
        denom = cosh_part + (k * g - a) * sinh_part
        weight = (g * cosh_part + (a * g + q) * sinh_part) / denom
        offset = half_var * ((a + lam) * s + np.log(denom)) / k
        return weight, offset

    def value_weight(self, t):
        """P(t): quadratic weight of the value function."""
        return self._weight_and_offset(t)[0]

    def value_offset(self, t):
        """Additive value term from the diffusion."""
        return self._weight_and_offset(t)[1]

    @property
    def optimal_cost(self) -> float:
        p0, c0 = self._weight_and_offset(0.0)
        return 0.5 * float(p0[0]) * self.x0**2 + float(c0[0])

    def gain(self, t):
        """Feedback gain: the optimal control is u = -gain(t) * x."""
        return (self.b / self.r) * self.value_weight(t)

    def feedback(self) -> FeedbackControl:
        def fn(t, states):
            k_t = float(self.gain(t)[0])
            return -k_t * states

        return FeedbackControl(fn, k=1)


def solve_lq_riccati(
    a: float, b: float, sigma0: float, q: float, r: float, g: float, T: float, x0: float
) -> RiccatiSolution:
    """Riccati reference, independent of the Monte Carlo solvers."""
    return RiccatiSolution(a, b, sigma0, q, r, g, T, x0)


def riccati_from_spec(spec_params: dict) -> RiccatiSolution:
    """Riccati reference for a linear-quadratic family built with the same
    keyword parameters."""
    defaults = inspect.signature(build_linear_quadratic).parameters
    names = inspect.signature(solve_lq_riccati).parameters
    return solve_lq_riccati(**{name: spec_params.get(name, defaults[name].default) for name in names})

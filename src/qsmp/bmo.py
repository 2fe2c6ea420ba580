"""Bounded-mean-oscillation diagnostics for stochastic integrals on a grid.

Covers the critical-exponent function and its inverse (both in the offset
from 1), a grid estimator of the BMO2 norm of an integral process, the energy
inequality, the reverse Hoelder constant, and exact multiplicative stepping
of stochastic exponentials.

The BMO2 estimator streams: it walks the steps backwards with one running
(M,) tail of the squared integrand, so beyond its input it holds one step's
vectors and regression, never a whole-path array of squares or tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, located
from .paths import abs_max
from .regression import RegressionBasis, StepRegressor

#: Marker for an infinite critical exponent (zero-norm integrand).
P_INFINITE = math.inf


def psi_of_offset(h: float) -> float:
    """psi(1 + h) computed from the offset h > 0, for the critical-exponent
    function psi(x) = sqrt(1 + ln((2x-1)/(2x-2)) / x^2) - 1 on (1, inf),
    which is strictly decreasing, in a cancellation-free form.

    Working with the offset keeps the evaluation meaningful for h far below
    the float spacing around 1 (large targets push the root that close to 1).
    """
    if not h > 0.0:
        raise ValueError(f"offset must be > 0, got {h}")
    if math.isinf(h):
        return 0.0
    # ln((1+2h)/(2h)) without forming the ratio.
    log_ratio = math.log1p(2.0 * h) - math.log(2.0 * h)
    x = 1.0 + h
    t = log_ratio / (x * x)
    return math.expm1(0.5 * math.log1p(t))


def psi_inverse_offset(nu: float) -> float:
    """Offset h > 0 with psi(1 + h) = nu, found by bisection in log h.

    The bracket is grown by doubling/halving until it straddles the target;
    the returned offset satisfies |psi(1+h) - nu| <= 1e-10. Returns ``inf``
    for nu = 0 (no oscillation: every exponent works) and 0.0 when the root
    underflows the float range (targets beyond ~25.6).
    """
    if nu < 0.0:
        raise ValueError(f"target must be >= 0, got {nu}")
    if nu == 0.0:
        return math.inf
    hi = 1.0
    while psi_of_offset(hi) >= nu:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    lo = min(1.0, hi)
    while psi_of_offset(lo) <= nu:
        lo /= 2.0
        if lo < 1e-315:
            return 0.0
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(400):
        log_mid = 0.5 * (log_lo + log_hi)
        val = psi_of_offset(math.exp(log_mid))
        if abs(val - nu) <= 1e-12:
            return math.exp(log_mid)
        if val > nu:
            log_lo = log_mid
        else:
            log_hi = log_mid
    return math.exp(0.5 * (log_lo + log_hi))


def conjugate_exponent_from_offset(h: float) -> float:
    """p* = p/(p-1) for p = 1 + h; exact even when h is tiny."""
    if math.isinf(h):
        return 1.0
    if h == 0.0:
        return math.inf
    return 1.0 + 1.0 / h


def reverse_holder_K(p: float, bmo2: float):
    """Moment constant for the reverse Hoelder inequality.

    Returns ``None`` (undefined marker) when the defining bracket is not
    positive, i.e. when p is at or beyond the critical exponent of a
    martingale with the given BMO2 norm.
    """
    if p < 1.0:
        raise ValueError(f"reverse Hoelder exponent must be >= 1, got {p}")
    if bmo2 < 0.0:
        raise ValueError("bmo2 must be >= 0")
    expo = p * p * (bmo2 * bmo2 + 2.0 * bmo2)
    if expo > 700.0:
        return None if p > 1.0 else 1.0
    bracket = 1.0 - (2.0 * (p - 1.0) / (2.0 * p - 1.0)) * math.exp(expo)
    if bracket <= 0.0:
        return None
    return 1.0 / bracket


def quadratic_variation(integrand: np.ndarray, grid) -> np.ndarray:
    """Pathwise discrete quadratic variation sum_i |H_i|^2 dt; shape (M,)."""
    integrand = np.asarray(integrand, dtype=np.float64)
    return np.einsum("mnd,mnd->m", integrand, integrand) * grid.dt


def estimate_bmo2(
    integrand: np.ndarray,
    grid,
    features: np.ndarray | None = None,
    basis: RegressionBasis | None = None,
    ridge: float | None = None,
) -> float:
    """Grid lower-bound estimator of the BMO2 norm of the integral of H dW.

    For each grid time the conditional tail E[sum_{i>=j} |H_i|^2 dt | state]
    is fitted by regression on features of the supplied per-step states (a
    plain mean when no states are given); the estimate is the square root of
    the maximum fitted value over paths and times. Deterministic grid times
    stand in for arbitrary stopping times and the empirical maximum for the
    essential supremum, so the estimator can only undershoot the true norm.

    The tails are accumulated one step at a time, from the last step back,
    and equal ``np.cumsum`` over the reversed steps bit for bit; raises
    ``SolverError`` at the step where a fitted tail first (counting down)
    stops being finite.
    """
    return _tail_sup_profile(integrand, grid, features, basis, ridge)[0]


def _tail_sup_profile(integrand, grid, features, basis, ridge, quantile=None):
    """(square root of the largest fitted conditional tail over paths and
    times, square root of the largest per-time ``quantile`` of the fitted
    tails, or 0.0 when no quantile is asked for).

    The tail sum_{i>=j} |H_i|^2 dt is one running (M,) vector, walked from
    step N-1 down to 0 and fitted at each step, so only one step's squares
    and tail are held. Its sums run in the order of ``np.cumsum`` over the
    reversed steps, so every tail, fit and estimate matches that whole-path
    form bit for bit. Raises ``SolverError`` at the first step, counting
    down, whose fitted tail is not finite: the step of a NaN or infinite
    square, or of a non-finite feature.
    """
    integrand = np.asarray(integrand, dtype=np.float64)
    m_paths, n_steps, _ = integrand.shape
    if n_steps != grid.N:
        raise ValueError(f"integrand has {n_steps} steps, grid has {grid.N}")
    basis = basis or RegressionBasis(2)
    square = np.empty(m_paths)
    tail = np.zeros(m_paths)
    best_max = 0.0
    best_q = 0.0
    for j in range(n_steps - 1, -1, -1):
        h_j = integrand[:, j]
        np.einsum("md,md->m", h_j, h_j, out=square)
        square *= grid.dt
        tail += square  # tail = sum_{i >= j} |H_i|^2 dt
        if features is None:
            fitted = np.full(m_paths, tail.mean())
        else:
            fitted, _ = located(lambda: StepRegressor(basis, features[:, j], ridge), step=j).fit(tail)
        fitted = np.maximum(fitted, 0.0)
        top = float(fitted.max())
        if not math.isfinite(top):
            raise SolverError("fitted BMO tail is not finite", step=j)
        best_max = max(best_max, top)
        if quantile is not None:
            best_q = max(best_q, float(np.quantile(fitted, quantile)))
    return math.sqrt(best_max), math.sqrt(best_q)


@dataclass
class EnergyCheckRow:
    n: int
    lhs: float
    rhs: float
    rel_se: float
    passed: bool


def energy_check(
    integrand: np.ndarray,
    grid,
    n_max: int,
    features: np.ndarray | None = None,
    basis: RegressionBasis | None = None,
    bmo2: float | None = None,
) -> list[EnergyCheckRow]:
    """Empirical energy inequality E[<M>_T^n] <= n! * ||M||_BMO2^(2n).

    The right side uses the grid estimator (a lower bound of the true norm),
    so a failure flags either a bug or estimator looseness; the constant
    integrand case calibrates which, since there the estimator is exact.
    """
    if n_max > 6:
        raise ValueError("n_max above 6 risks factorial/moment overflow")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    qv = quadratic_variation(integrand, grid)
    if bmo2 is None:
        bmo2 = estimate_bmo2(integrand, grid, features, basis)
    rows = []
    m_paths = qv.shape[0]
    for n in range(1, n_max + 1):
        powers = qv**n
        lhs = float(powers.mean())
        se = float(powers.std()) / math.sqrt(m_paths)
        rhs = math.factorial(n) * bmo2 ** (2 * n)
        rel_se = se / lhs if lhs > 0 else 0.0
        # tiny relative slack so that exactly-tight deterministic cases
        # (zero Monte Carlo spread) are not failed by float rounding
        passed = lhs <= rhs * (1.0 + 5.0 * rel_se + 1e-9)
        rows.append(EnergyCheckRow(n, lhs, rhs, rel_se, passed))
    return rows


def log_exponential_increment(rate, integrand, increment, dt: float) -> np.ndarray:
    """rate dt + H . dW - |H|^2 dt / 2, shape (M,), for the integrand H and
    increment dW of one step, both (M, d): the step of the log of an
    exponential weight."""
    step = rate * dt + np.einsum("md,md->m", integrand, increment)
    step -= 0.5 * np.einsum("md,md->m", integrand, integrand) * dt
    return step


def cumulate_log_exponential(log_values: np.ndarray, what: str) -> np.ndarray:
    """Exponential weights from their log-increments, in place.

    ``log_values`` (M, N+1) holds the start in column 0 and the increment of
    step i in column i+1; each column becomes the running sum, then its exp.
    Raises with step i when the exponent after step i is non-finite or leaves
    [-700, 700], beyond which exp overflows.
    """
    for i in range(log_values.shape[1] - 1):
        log_values[:, i + 1] += log_values[:, i]
        if not abs_max(log_values[:, i + 1]) <= 700.0:
            raise SolverError(f"{what} exponent overflow", step=i)
    return np.exp(log_values, out=log_values)


@dataclass
class BmoReport:
    """Summary diagnostics for one grid integrand."""

    bmo2_estimate: float
    bmo2_quantile_estimate: float
    p_M: float
    p_M_star: float
    reverse_holder_p: float
    reverse_holder_K: float | None
    energy_checks: list[EnergyCheckRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "bmo2_estimate": self.bmo2_estimate,
            "bmo2_quantile_estimate": self.bmo2_quantile_estimate,
            "p_M": self.p_M,
            "p_M_star": self.p_M_star,
            "reverse_holder_p": self.reverse_holder_p,
            "reverse_holder_K": self.reverse_holder_K,
            "energy_checks": [
                {"n": r.n, "lhs": r.lhs, "rhs": r.rhs, "rel_se": r.rel_se, "pass": r.passed}
                for r in self.energy_checks
            ],
        }


def bmo_report(
    integrand: np.ndarray,
    grid,
    features: np.ndarray | None = None,
    basis: RegressionBasis | None = None,
    n_max: int = 3,
    ridge: float | None = None,
) -> BmoReport:
    """Full BMO diagnostic: norm estimate (with its 99.9%-quantile variant,
    robust to fit outliers), critical exponents, energy rows, and the reverse
    Hoelder constant at the interior exponent p = 1 + 0.9 (p_M - 1) (p = 2
    when p_M is infinite)."""
    est, est_q = _tail_sup_profile(integrand, grid, features, basis, ridge, quantile=0.999)
    offset = psi_inverse_offset(est)
    p_m = P_INFINITE if math.isinf(offset) else 1.0 + offset
    p_star = conjugate_exponent_from_offset(offset)
    if math.isinf(offset):
        rh_p = 2.0
    else:
        rh_p = 1.0 + 0.9 * offset
    rh_k = reverse_holder_K(rh_p, est)
    rows = energy_check(integrand, grid, n_max, features, basis, bmo2=est)
    return BmoReport(est, est_q, p_m, p_star, rh_p, rh_k, rows)

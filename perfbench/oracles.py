"""Reference values and the result gate of every benchmarked invocation.

The references are computed here with numpy alone, not with ``qsmp``, so a
change to the package cannot move its own target:

- ``exp_utility_y0``: Y0 = ln E[exp(tanh W_1)] for the exponential-utility
  problem at the zero control (Cole-Hopf), by Gauss-Hermite quadrature.
- ``lq_optimal_cost``: the optimal cost of the scalar linear-quadratic family
  at its default parameters, by RK4 on its Riccati equation.

Each gate reads the ``summary.txt`` the CLI wrote and returns ``None`` when
the result holds, or a one-line reason when it misses.
"""

from __future__ import annotations

import functools
import re

import numpy as np

# Tolerances, checked on seeds 1-30 (lq_descend: seeds 1-10) of the shipped configs.
SOLVE_SE_LIMIT = 4.0  # |Y0 - oracle| within this many reported standard errors
DESCENT_SE_LIMIT = 4.0  # |J - J*| within this many standard errors ...
DESCENT_REL_SLACK = 0.01  # ... plus this share of J*: 20 iterations stop short of J*
MP_VIOLATION_LIMIT = 0.05  # largest share of maximum-principle samples out of tolerance


@functools.lru_cache(maxsize=None)
def exp_utility_y0(nodes: int = 200) -> float:
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return float(np.log((w * np.exp(np.tanh(x))).sum() / w.sum()))


@functools.lru_cache(maxsize=None)
def lq_optimal_cost(a=0.5, b=1.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0, x0=1.0, steps=4000) -> float:
    """J* = P(0) x0^2 / 2 + c(0), with P' = -2aP - q + (b^2/r) P^2, P(T) = g
    and c' = -sigma0^2 P / 2, c(T) = 0, integrated in reversed time."""

    def rhs(y):
        p = y[0]
        return np.array([2.0 * a * p + q - (b * b / r) * p * p, 0.5 * sigma0 * sigma0 * p])

    y = np.array([g, 0.0])
    h = T / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(0.5 * y[0] * x0 * x0 + y[1])


def _numbers(summary: str, pattern: str):
    match = re.search(pattern, summary, re.MULTILINE)
    if match is None:
        return None
    return [float(v) for v in match.groups()]


def _missing(pattern: str) -> str:
    return f"summary has no line matching {pattern!r}"


def gate_solve(summary: str):
    pattern = r"^Y0 = (\S+) \+/- (\S+)$"
    found = _numbers(summary, pattern)
    if found is None:
        return _missing(pattern)
    y0, se = found
    ref = exp_utility_y0()
    if not abs(y0 - ref) <= SOLVE_SE_LIMIT * se:
        return f"Y0 = {y0} is {abs(y0 - ref) / se:.2f} SE from the oracle {ref:.6f} (limit {SOLVE_SE_LIMIT})"
    return None


def gate_descend(summary: str):
    pattern = r"^final J = (\S+) \+/- (\S+)$"
    found = _numbers(summary, pattern)
    if found is None:
        return _missing(pattern)
    cost, se = found
    ref = lq_optimal_cost()
    if not abs(cost - ref) <= DESCENT_SE_LIMIT * se + DESCENT_REL_SLACK * ref:
        return f"final J = {cost} misses the Riccati cost {ref:.6f} by more than {DESCENT_SE_LIMIT} SE + {DESCENT_REL_SLACK:.0%}"
    return None


def gate_gradient_check(summary: str):
    pattern = r"^gap = (\S+) vs 3 x combined se = (\S+)$"
    found = _numbers(summary, pattern)
    if found is None:
        return _missing(pattern)
    gap, limit = found
    if not gap <= limit:
        return f"gradient gap {gap} exceeds 3 combined SE = {limit}"
    if "inconclusive: False" not in summary:
        return "gradient check is not conclusive"
    return None


def gate_mp_check(summary: str):
    pattern = r"^violation fraction = (\S+) over"
    found = _numbers(summary, pattern)
    if found is None:
        return _missing(pattern)
    if not found[0] <= MP_VIOLATION_LIMIT:
        return f"maximum-principle violation fraction {found[0]} above {MP_VIOLATION_LIMIT}"
    return None


def gate_adjoint(summary: str):
    pattern = r"^min Gamma = (\S+)"
    found = _numbers(summary, pattern)
    if found is None:
        return _missing(pattern)
    if not found[0] > 0:
        return f"min Gamma = {found[0]} is not positive"
    return None


def gate_bmo(summary: str):
    if "energy inequality: all pass" not in summary.splitlines():
        return "BMO energy checks do not all pass"
    return None


def gate_constants(summary: str):
    if "validation passed: True" not in summary.splitlines():
        return "assumption validation does not pass"
    return None


# Gate by config name (the file stem under configs/).
GATES = {
    "lq_descend": gate_descend,
    "exp_utility_gradient_check": gate_gradient_check,
    "lq_mp_check": gate_mp_check,
    "tanh_constants": gate_constants,
    "exp_utility_solve": gate_solve,
    "inline_quadratic": gate_solve,
    "tanh_adjoint": gate_adjoint,
    "tanh_bmo": gate_bmo,
}

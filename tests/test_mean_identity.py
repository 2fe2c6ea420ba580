"""Every regression keeps batch means, so each equation of a sweep has y0
equal to the mean of its pathwise targets (terminal value plus driver sum).
On a problem with f_y != 0 this watches the affine equation's lam * y term
in its driver sum, and, through the partner process, the quadratic driver
sum that reaches the calling process through shared storage."""

import pytest

from qsmp import bsde, paths, smp
from qsmp.config import build_expression_problem
from qsmp.model import BoxDomain
from test_multidim import CONSTANTS, SOURCES, constant_control
from test_pipelined_sweep import _assert_reaped, _set_pipelined, partners  # noqa: F401 (a fixture)
from test_worker_checks import needs_two_cpus


def _sweep(monkeypatch, pipelined):
    # The declared constants stay those of the problem without the y-term:
    # they set only the abort level and the truncation radius here, and with
    # f_y_sup = 0.5 the derived constants underflow.
    spec = build_expression_problem(
        n=2, d=2, k=2, T=1.0, x0=[0.1, -0.2], sources={**SOURCES, "f": SOURCES["f"] + " - 0.5*y"},
        domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)), constants=CONSTANTS,
    )
    grid = paths.TimeGrid(20, 1.0)
    noise = paths.simulate_brownian(grid, 2000, 2, 4)
    forward = paths.solve_forward_sde(spec, grid, noise, constant_control([0.3, -0.2]))
    uhat_at = smp._direction(constant_control([1.0, -1.0]), grid, forward)
    _set_pipelined(monkeypatch, pipelined)
    backward, aux, _, _ = smp._derivative_sweep(spec, grid, noise, forward, uhat_at, bsde.RegressionBasis(2))
    return backward, aux


@pytest.mark.parametrize("pipelined", [False, pytest.param(True, marks=needs_two_cpus)])
def test_y0_is_the_mean_of_the_pathwise_targets(pipelined, monkeypatch, partners):
    backward, aux = _sweep(monkeypatch, pipelined)
    for solution in (backward, aux):
        assert abs(solution.y0 - solution.pathwise_targets.mean()) <= 1e-6
    # The auxiliary value is the cost derivative, far from zero here.
    assert abs(aux.y0) > 1e-2
    assert len(partners()) == int(pipelined)
    if pipelined:
        _assert_reaped(partners())

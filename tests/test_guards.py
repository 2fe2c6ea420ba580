"""Every guard of the solvers reads max |a| as max(a.max(), -a.min()), with no
temporary |a|. Each must raise the same exception class, text and step as
before on a NaN, on +inf and -inf, and just above its bound: in one process,
and where the partner process runs the guarded step (the descent's second
half of the forward paths, the quadratic step of a pipelined sweep)."""

import dataclasses
import math
import os

import numpy as np
import pytest

from qsmp import bsde, paths, smp
from qsmp.errors import ExplosionError, SolverError
from conftest import linear_alone
from test_pipelined_sweep import _assert_reaped, _set_pipelined, _sweep_error, partners  # noqa: F401 (a fixture)
from test_worker_checks import needs_two_cpus

M_PATHS, N_STEPS = 600, 20
ABOVE = 1.0 + 1e-6
VALUES = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "above": ABOVE, "-above": -ABOVE}


@pytest.fixture
def lq(lq_spec):
    grid = paths.TimeGrid(N_STEPS, 1.0)
    return lq_spec, grid, paths.simulate_brownian(grid, M_PATHS, 1, seed=101)


def _bad(value, bound):
    """The NaN or infinity as it is, a relative level times ``bound``."""
    return value if not math.isfinite(value) else value * bound


def _exploding(spec, grid, value, first=None, second=None):
    """``spec`` whose drift sends path 0 to ``value`` at step ``first`` and
    path M-1 at step ``second``: the first path of the caller's half of the
    paths and the last of the partner's half."""
    b, parent, dt = spec.coeffs.b, os.getpid(), grid.dt

    def drift(t, x, u):
        out = np.array(b(t, x, u), dtype=np.float64)
        whole = x.shape[0] == M_PATHS
        for step, row, mine in ((first, 0, os.getpid() == parent), (second, -1, os.getpid() != parent)):
            if step is not None and t == grid.times[step] and (whole or mine):
                out[row] = (value - x[row]) / dt
        return out

    return dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, b=drift))


def _forward_error(spec, grid, noise, monkeypatch, through_partner):
    policy = smp.AffineFeedbackPolicy.zeros(grid, spec.n, spec.k, spec.domain)
    if not through_partner:
        with pytest.raises(SolverError) as raised:
            paths.solve_forward_sde(spec, grid, noise, policy.control())
        return raised.value
    _set_pipelined(monkeypatch, True)
    storage = smp._gradient_storage(spec, grid, noise)
    with smp._descent_partner(spec, grid, noise, storage[0], None) as partner:
        assert isinstance(partner, bsde.Partner)
        with pytest.raises(SolverError) as raised:
            smp._policy_gradient(spec, grid, noise, policy, None, storage, partner)
    assert partner.pid is None
    return raised.value


@needs_two_cpus
@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("first, second", [(9, None), (None, 9), (9, 6), (6, 9), (7, 7)])
def test_forward_explosion(value, first, second, lq, monkeypatch):
    spec, grid, noise = lq
    spec = _exploding(spec, grid, _bad(VALUES[value], paths.EXPLOSION_GUARD), first, second)
    errors = [_forward_error(spec, grid, noise, monkeypatch, through) for through in (False, True)]
    step = min(s for s in (first, second) if s is not None)
    for err in errors:
        assert type(err) is ExplosionError and err.step == step
        assert str(err) == f"forward state left the admissible range (step {step})"


def test_forward_guard_holds_at_its_bound(lq):
    spec, grid, noise = lq
    spec = _exploding(spec, grid, paths.EXPLOSION_GUARD * (1.0 - 1e-6), first=N_STEPS - 1)
    paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.0,)))


def _generator(spec, grid, step, value):
    """``spec`` whose generator puts ``value`` on path 0 at ``step``; a
    finite value is a level that path 0's Y reaches there: the generator is
    (level - Y) / dt at the first iterate and keeps that for the next."""
    f, kept = spec.coeffs.f, {}

    def generator(t, x, y, z, u):
        out = np.array(f(t, x, y, z, u), dtype=np.float64)
        if t == grid.times[step]:
            if math.isfinite(value):
                kept.setdefault(t, (value - y[0]) / grid.dt)
                out[0] = kept[t]
            else:
                out[0] = value
        return out

    return dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, f=generator))


def _assert_same_error(errors, step, text):
    for err in errors:
        assert type(err) is SolverError and err.step == step
    assert str(errors[0]) == str(errors[1])
    assert str(errors[0]).startswith(text) and str(errors[0]).endswith(f"(step {step})")


@needs_two_cpus
@pytest.mark.parametrize(
    "value, text",
    [
        ("nan", "fixed-point sub-iteration did not converge"),
        ("+inf", "backward value turned non-finite"),
        ("-inf", "backward value turned non-finite"),
        ("above", "|Y| exceeded 10*A = "),
        ("-above", "|Y| exceeded 10*A = "),
    ],
)
def test_quadratic_step_guards(value, text, lq, monkeypatch, partners):
    spec, grid, noise = lq
    spec = _generator(spec, grid, 11, _bad(VALUES[value], 10.0 * bsde.derive_constants(spec).A))
    errors = [_sweep_error(spec, grid, noise, monkeypatch, pipelined) for pipelined in (False, True)]
    _assert_same_error(errors, 11, text)
    _assert_reaped(partners())


def test_quadratic_guard_holds_below_its_bound(lq):
    spec, grid, noise = lq
    spec = _generator(spec, grid, 11, 10.0 * bsde.derive_constants(spec).A * (1.0 - 1e-6))
    forward = paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.2,)))
    bsde.solve_quadratic_bsde(spec, grid, noise, forward, width=2)


@needs_two_cpus
@pytest.mark.parametrize("value", ["nan", "+inf", "-inf"])
def test_costate_guard(value, lq, monkeypatch, partners):
    spec, grid, noise = lq
    f_x = spec.coeffs.f_x

    def slope(t, x, y, z, u):
        out = np.array(f_x(t, x, y, z, u), dtype=np.float64)
        if t == grid.times[13]:
            out[0] = VALUES[value]
        return out

    spec = dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, f_x=slope))
    errors = [_sweep_error(spec, grid, noise, monkeypatch, pipelined) for pipelined in (False, True)]
    _assert_same_error(errors, 13, "costate turned non-finite")
    _assert_reaped(partners())


@pytest.mark.parametrize("value", ["nan", "+inf", "-inf"])
def test_affine_step_guard(value, lq):
    _, grid, noise = lq
    phi = np.zeros((M_PATHS, N_STEPS))
    phi[0, 5] = VALUES[value]
    states = np.zeros((M_PATHS, N_STEPS + 1, 1))
    states[:, :, 0] = np.linspace(-1.0, 1.0, M_PATHS)[:, None]
    with pytest.raises(SolverError) as raised:
        linear_alone(grid, noise, states, 1.0, phi=phi)
    assert type(raised.value) is SolverError and str(raised.value) == "backward value turned non-finite (step 5)"

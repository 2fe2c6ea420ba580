"""Structural zeros declared once (``model.Zero``, ``model.WithoutY``) and
skipped by the solvers: the quadratic step of a generator free of y is
explicit, the costate and the control gradient skip every term with a zero
factor, and the descent forms no log Gamma where Gamma is identically one.
The markers must be true, and the fast path must give the same bits as the
general one, which a spec takes when every marker is replaced by a plain
callable."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

from qsmp import adjoint, bsde, config, families, model, paths, smp
from qsmp.config import build_expression_problem
from qsmp.errors import SolverError
from qsmp.model import BoxDomain, WithoutY, Zero
from test_multidim import CONSTANTS, SOURCES
from test_pipelined_sweep import _set_pipelined
from test_worker_checks import needs_two_cpus

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def two_dimensional():
    return build_expression_problem(
        n=2, d=2, k=2, T=1.0, x0=[0.1, -0.2], sources=SOURCES,
        domain=BoxDomain((-1.0, -1.0), (1.0, 1.0)), constants=CONSTANTS,
    )


def inline_quadratic():
    return config.load_config(str(CONFIGS / "inline_quadratic.cfg")).spec


SPECS = {
    **families.FAMILIES,
    "inline_quadratic": inline_quadratic,
    "two_dimensional": two_dimensional,
}

#: The markers each problem carries: its Zero fields, and whether f is free of y.
MARKERS = {
    "exponential_utility": ({"b_x", "sigma_x", "sigma_u", "f_x", "f_y", "f_u"}, True),
    "linear_quadratic": ({"sigma_x", "sigma_u", "f_y", "f_z"}, True),
    "bounded_tanh": (set(), False),
    "controlled_geometric": ({"f", "Phi", "sigma_u", "f_x", "f_y", "f_z", "f_u", "Phi_x"}, True),
    "inline_quadratic": ({"b_x", "sigma_x", "sigma_u", "f_x", "f_y", "f_u"}, True),
    "two_dimensional": ({"sigma_u", "f_y"}, True),
}


def _field_shape(spec, name):
    """The trailing shape of field ``name`` in the table of ``qsmp.model``."""
    n, d, k = spec.n, spec.d, spec.k
    return {
        "b": (n,), "sigma": (n, d), "f": (), "Phi": (), "b_x": (n, n), "b_u": (n, k),
        "sigma_x": (d, n, n), "sigma_u": (d, n, k), "f_x": (n,), "f_y": (), "f_z": (d,), "f_u": (k,), "Phi_x": (n,),
    }[name]


def _arguments(spec, name, rng, m_paths=7):
    """Arguments of field ``name`` at ``m_paths`` random points."""
    x = rng.normal(size=(m_paths, spec.n))
    if name in ("Phi", "Phi_x"):
        return (x,)
    u = spec.domain.project(rng.normal(size=(m_paths, spec.k)))
    if name in ("b", "sigma", "b_x", "b_u", "sigma_x", "sigma_u"):
        return 0.3, x, u
    return 0.3, x, rng.normal(size=m_paths), rng.normal(size=(m_paths, spec.d)), u


@pytest.mark.parametrize("problem", SPECS)
def test_every_zero_marker_returns_zeros_of_its_field(problem):
    spec = SPECS[problem]()
    rng = np.random.default_rng(5)
    zeros = set()
    for field in dataclasses.fields(spec.coeffs):
        fn = getattr(spec.coeffs, field.name)
        if isinstance(fn, Zero):
            zeros.add(field.name)
            value = fn(*_arguments(spec, field.name, rng))
            assert value.dtype == np.float64 and np.array_equal(value, np.zeros((7,) + _field_shape(spec, field.name)))
    expected_zeros, free_of_y = MARKERS[problem]
    assert zeros == expected_zeros
    assert model.reads_y(spec.coeffs.f) is not free_of_y


@pytest.mark.parametrize("problem", [name for name, (_, free) in MARKERS.items() if free])
def test_every_generator_free_of_y_ignores_y(problem):
    spec = SPECS[problem]()
    t, x, y, z, u = _arguments(spec, "f", np.random.default_rng(6), m_paths=50)
    f = spec.coeffs.f
    assert isinstance(f, (WithoutY, Zero))
    assert np.array_equal(f(t, x, y, z, u), f(t, x, y + 1.7, z, u))


def _plain(fn):
    """``fn`` as a plain callable, which carries no marker."""
    return lambda *args: fn(*args)


def unmarked(spec):
    """``spec`` with every coefficient a plain callable: the general path."""
    plain = {field.name: _plain(getattr(spec.coeffs, field.name)) for field in dataclasses.fields(spec.coeffs)}
    return dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, **plain))


#: name -> (problem, base control, direction control, N, M)
CHAINS = {
    "lq": ("linear_quadratic", (0.2,), (-0.3,), 20, 2400),
    "exp_utility": ("exponential_utility", (0.2,), (-0.3,), 20, 2400),
    "two_dimensional": ("two_dimensional", (0.3, -0.2), (-0.5, 0.4), 12, 1600),
}


def _chain(name):
    problem, u_bar, u, n_steps, m_paths = CHAINS[name]
    spec = SPECS[problem]()
    grid = paths.TimeGrid(n_steps, 1.0)
    noise = paths.simulate_brownian(grid, m_paths, spec.d, seed=111)
    return spec, grid, noise, paths.ConstantControl(u_bar), paths.ConstantControl(u)


def _results(spec, grid, noise, u_bar, u):
    """Everything the fast path changes, as a flat list of arrays and numbers."""
    basis = bsde.RegressionBasis(2)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    backward, costate = adjoint.solve_state_and_costate(spec, grid, noise, forward, basis=basis)
    policy = smp.AffineFeedbackPolicy.random(grid, spec.n, spec.k, spec.domain, np.random.default_rng(112), 0.5)
    descent = smp.projected_gradient_descent(spec, grid, noise, policy, 0.5, 3, basis)
    gradient = smp.gateaux_check(spec, grid, noise, u_bar, u, basis=basis)
    mp = smp.check_maximum_principle(spec, grid, noise, u_bar, n_times=4, n_states=16, n_candidates=4, basis=basis)
    return [
        backward.Y, backward.Z, backward.pathwise_targets, costate.p, costate.q, costate.terminal,
        [dataclasses.astuple(row) for row in descent.trace], descent.policy.offsets, descent.policy.gains,
        descent.halted_on_divergence, gradient.to_dict(), mp.to_dict(),
    ]


def _assert_same(fast, general):
    assert len(fast) == len(general)
    for j, (a, b) in enumerate(zip(fast, general)):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), j
        else:
            assert a == b, j


@pytest.mark.parametrize("pipelined", [False, pytest.param(True, marks=needs_two_cpus)], ids=["one_process", "forked"])
@pytest.mark.parametrize("name", CHAINS)
def test_fast_path_equals_the_general_path(name, pipelined, monkeypatch):
    # Forked: the descent runs through its partner, the checks in workers.
    _set_pipelined(monkeypatch, pipelined)
    spec, grid, noise, u_bar, u = _chain(name)
    _assert_same(_results(spec, grid, noise, u_bar, u), _results(unmarked(spec), grid, noise, u_bar, u))


def _counting(spec, calls):
    """``spec`` whose generator counts its calls, keeping its marker."""
    f = spec.coeffs.f

    def counted(*args):
        calls.append(args[0])
        return (f.fn if isinstance(f, WithoutY) else f)(*args)

    marked = WithoutY(counted) if isinstance(f, WithoutY) else counted
    return dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, f=marked))


@pytest.mark.parametrize("name", CHAINS)
def test_the_explicit_step_evaluates_f_once(name):
    spec, grid, noise, u_bar, _ = _chain(name)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    counts = []
    for candidate in (spec, unmarked(spec)):
        calls = []
        bsde.solve_quadratic_bsde(_counting(candidate, calls), grid, noise, forward, width=2)
        counts.append(len(calls))
    assert counts[0] == grid.N
    if name == "lq":
        # The iteration's second evaluation only confirms the fixed point.
        assert counts[1] == 2 * grid.N


def _nan_at(spec, grid, step):
    """``spec`` whose generator free of y gives NaN on path 0 at ``step``."""
    f = spec.coeffs.f.fn

    def generator(t, x, z, u):
        out = np.array(f(t, x, z, u), dtype=np.float64)
        if t == grid.times[step]:
            out[0] = math.nan
        return out

    return dataclasses.replace(spec, coeffs=dataclasses.replace(spec.coeffs, f=WithoutY(generator)))


@pytest.mark.parametrize("pipelined", [False, pytest.param(True, marks=needs_two_cpus)], ids=["one_process", "forked"])
def test_nan_from_a_generator_free_of_y_is_a_non_finite_value(pipelined, monkeypatch):
    # Before the explicit step, the iteration reported this NaN as a fixed
    # point that did not converge; with the marker removed it still does.
    _set_pipelined(monkeypatch, pipelined)
    spec, grid, noise, u_bar, _ = _chain("lq")
    spec = _nan_at(spec, grid, 11)
    forward = paths.solve_forward_sde(spec, grid, noise, u_bar)
    expected = ((spec, "backward value turned non-finite"), (unmarked(spec), "fixed-point sub-iteration did not converge"))
    for candidate, text in expected:
        with pytest.raises(SolverError) as raised:
            adjoint.solve_state_and_costate(candidate, grid, noise, forward, width=2)
        assert type(raised.value) is SolverError and str(raised.value) == f"{text} (step 11)"


def test_unit_gamma_stores_no_log_gamma():
    grid = paths.TimeGrid(5, 1.0)
    noise = paths.simulate_brownian(grid, 100, 1, seed=113)
    lq, exp_utility = families.build_linear_quadratic(), families.build_exponential_utility()
    assert smp._gradient_storage(lq, grid, noise)[2] is None
    assert smp._gradient_storage(unmarked(lq), grid, noise)[2].shape == (100, grid.N + 1)
    assert smp._gradient_storage(exp_utility, grid, noise)[2].shape == (100, grid.N + 1)


def test_unit_gamma_forms_no_log_gamma_in_the_derivative_sweep(monkeypatch):
    # The gradient check's sweep allocates its (M, N+1) log Gamma through
    # smp.step_major; where Gamma is identically one it allocates none and
    # returns a read-only view of one value.
    grid = paths.TimeGrid(5, 1.0)
    noise = paths.simulate_brownian(grid, 100, 1, seed=113)
    allocated = []

    def recording_step_major(shape, **kwargs):
        allocated.append(shape)
        return paths.step_major(shape, **kwargs)

    monkeypatch.setattr(smp, "step_major", recording_step_major)
    lq = families.build_linear_quadratic()
    for spec, unit in ((lq, True), (unmarked(lq), False), (families.build_exponential_utility(), False)):
        allocated.clear()
        forward = paths.solve_forward_sde(spec, grid, noise, paths.ConstantControl((0.2,)))
        uhat_at = smp._direction(paths.ConstantControl((0.5,)), grid, forward)
        gamma = smp._derivative_sweep(spec, grid, noise, forward, uhat_at, None)[3]
        assert ((100, grid.N + 1) in allocated) is not unit
        assert gamma.shape == (100, grid.N + 1)
        if unit:
            assert gamma.strides == (0, 0) and not gamma.flags.writeable and np.all(gamma == 1.0)


@pytest.mark.parametrize(
    "lower, upper",
    [((-1.0, 0.0), (1.0, 0.5)), ((0.25, -2.0), (0.25, -2.0)), ((-math.inf, 0.0), (0.0, math.inf))],
    ids=["box", "degenerate", "half_open"],
)
def test_box_mask_on_the_projected_control_is_the_raw_mask(lower, upper):
    box = BoxDomain(lower, upper)
    assert box.pullback_from_projection
    specials = [-math.inf, math.inf, math.nan, -1.0, 1.0, 0.0, 0.5, 0.25, -2.0, -0.999, 0.7, 3.0]
    raw = np.array([[a, b] for a in specials for b in specials])
    weight = np.random.default_rng(7).normal(size=raw.shape)
    at_raw = box.pullback(raw, weight.copy())
    at_projection = box.pullback(box.project(raw), weight.copy())
    assert np.array_equal(at_raw, at_projection)
    assert np.count_nonzero(at_raw == 0.0) > 0


def test_ball_and_halfspace_read_the_raw_point():
    assert not model.BallDomain((0.0,), 1.0).pullback_from_projection
    assert not model.HalfspaceDomain(((1.0,),), (0.5,)).pullback_from_projection

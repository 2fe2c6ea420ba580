"""Step-major storage: every path-step array keeps its logical shape
(M, steps, ...) and indexing, while each step's slice ``a[:, i]`` is one
contiguous block."""

import ast
import math
import pathlib

import numpy as np
import pytest

from qsmp import adjoint, paths, smp

M, N = 300, 6


@pytest.fixture(scope="module")
def chain(tanh_spec):
    grid = paths.TimeGrid(N, 1.0)
    noise = paths.simulate_brownian(grid, M, tanh_spec.d, seed=3)
    forward = paths.solve_forward_sde(tanh_spec, grid, noise, paths.ConstantControl((0.1,)))
    backward, costate = adjoint.solve_state_and_costate(tanh_spec, grid, noise, forward)
    return grid, noise, forward, backward, costate


def test_step_slices_are_contiguous(tanh_spec, chain, monkeypatch):
    grid, noise, forward, backward, costate = chain
    n, d, k = tanh_spec.n, tanh_spec.d, tanh_spec.k
    uhat = paths.realize_control_along(paths.ConstantControl((0.3,)), grid, forward.states) - forward.controls
    _, _, phi, gamma = smp._derivative_sweep(tanh_spec, grid, noise, forward, uhat, None)
    # The descent's weights live inside the policy gradient: record what it allocates.
    allocated = []

    def recording_step_major(shape, fill=None):
        allocated.append(paths.step_major(shape, fill))
        return allocated[-1]

    monkeypatch.setattr(smp, "step_major", recording_step_major)
    smp._policy_gradient(tanh_spec, grid, noise, smp.AffineFeedbackPolicy.zeros(grid, n, k, tanh_spec.domain), None)
    (weight,) = [a for a in allocated if a.shape == (M, N, k)]
    arrays = {
        "increments": (noise.increments, (M, N, d)),
        "states": (forward.states, (M, N + 1, n)),
        "controls": (forward.controls, (M, N + 1, k)),
        "Y": (backward.Y, (M, N + 1)),
        "Z": (backward.Z, (M, N + 1, d)),
        "p": (costate.p, (M, N + 1, n)),
        "q": (costate.q, (M, N + 1, n, d)),
        "gamma": (gamma, (M, N + 1)),
        "weight": (weight, (M, N, k)),
        "phi": (phi, (M, N)),
    }
    for name, (array, shape) in arrays.items():
        assert array.shape == shape, name
        assert all(array[:, i].flags.c_contiguous for i in range(shape[1])), name


def test_brownian_draw_order_is_unchanged():
    # 2500 paths span several draw blocks, the last one partial.
    grid = paths.TimeGrid(7, 0.5)
    noise = paths.simulate_brownian(grid, 2500, 3, seed=11, stream_id=2)
    expected = np.random.default_rng([11, 2, 0x5D]).standard_normal((2500, 7, 3)) * math.sqrt(grid.dt)
    assert np.array_equal(noise.increments, expected)
    assert not noise.increments.flags.writeable


def test_step_major_keeps_indexing():
    a = paths.step_major((4, 3, 2), fill=1.5)
    assert a.shape == (4, 3, 2) and np.all(a == 1.5)
    a[2, 1] = [7.0, 8.0]
    assert a[2, 1, 1] == 8.0 and a[:, 1].flags.c_contiguous


#: Public top-level names of ``src/qsmp`` that no other code in ``src``
#: refers to, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "hamiltonian": "the paper's Hamiltonian; its finite differences check hamiltonian_u",
    "hamiltonian_u": "H_u at one point with the diffusion shift, the paper's form of the gradient",
    "check_decoupling": "the relation Y1 = Yhat + p . X1, reached from tests only (ROADMAP item 5)",
    "psi": "the critical-exponent function of the BMO bounds, beside psi_of_offset",
    "psi_inverse": "the inverse of psi as a plain exponent, beside psi_inverse_offset",
    "stochastic_exponential": "the BMO martingale's exponential, whose positivity tests check",
    "pretty_print": "renders an expression that re-parses to the same tree",
    "ConstantControl": "the simplest control for library callers; configs write constants as expressions",
    "expansion_rate_check": "the forward expansion rate, reached from tests only (ROADMAP item 5)",
    "cost_functional": "the cost J(u) as one call for library callers",
    "y_expansion_rate_check": "the backward expansion rate, reached from tests only (ROADMAP item 5)",
    "load_container": "reads back what save_container writes",
}


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_public_name_in_src_is_referenced():
    """A public name that nothing in ``src`` refers to is a second copy or a
    capability no pipeline runs; it goes, or it is allowed above with a reason."""
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsmp"
    defined, referenced = set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            own = _defined_names(node)
            defined |= {name for name in own if not name.startswith("_")}
            # Names, attributes and imports; a definition's use of its own name
            # (recursion) does not count.
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    used.add(sub.name)
            referenced |= used - own
    unreferenced = defined - referenced
    assert unreferenced - set(UNREFERENCED_ALLOWED) == set()
    assert set(UNREFERENCED_ALLOWED) - unreferenced == set(), "allowed names that are referenced now"

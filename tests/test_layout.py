"""Step-major storage: every path-step array keeps its logical shape
(M, steps, ...) and indexing, while each step's slice ``a[:, i]`` is one
contiguous block."""

import ast
import math
import pathlib

import numpy as np
import pytest

from qsmp import adjoint, config, paths, smp

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
    uhat_at = smp._direction(paths.ConstantControl((0.3,)), grid, forward)
    _, _, phi, gamma = smp._derivative_sweep(tanh_spec, grid, noise, forward, uhat_at, None)
    # The descent's weights live inside the policy gradient: record what it allocates.
    allocated = []

    def recording_shared_step_major(shape):
        allocated.append(paths.shared_step_major(shape))
        return allocated[-1]

    monkeypatch.setattr(smp, "shared_step_major", recording_shared_step_major)
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


#: Public top-level names of ``src/qsmp``, and public methods and properties
#: (``Class.member``) of its classes, that no other code in ``src`` refers
#: to, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "pretty_print": "renders an expression that re-parses to the same tree",
    "ConstantControl": "the simplest control for library callers; configs write constants as expressions",
    "cost_functional": "the cost J(u) as one call for library callers",
    "load_container": "reads back what save_container writes",
    "RiccatiSolution.optimal_cost": "the linear-quadratic oracle J* that descent results are compared against",
    "RiccatiSolution.value_offset": "the constant term c(t) of the Riccati value function, part of the oracle J*",
}

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qsmp"


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _units(tree):
    """(public names it defines, names it refers to) for each top-level
    statement; a class is split into one unit per method and one for the
    rest of its body. A definition's use of its own name (recursion) does
    not count as a reference."""
    for node in tree.body:
        own = _defined_names(node)
        members = []
        if isinstance(node, ast.ClassDef):
            members = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for member in members:
                public = set() if member.name.startswith("_") else {f"{node.name}.{member.name}"}
                yield public, _used_names(member) - {node.name, member.name}
        public = {name for name in own if not name.startswith("_")}
        yield public, _used_names(node, skip=members) - own


def _used_names(node, skip=()):
    """Names, attributes and imported names anywhere under ``node``, except
    under the nodes in ``skip``."""
    used, todo = set(), [node]
    while todo:
        sub = todo.pop()
        if any(sub is s for s in skip):
            continue
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
        todo.extend(ast.iter_child_nodes(sub))
    return used


def test_every_public_name_in_src_is_referenced():
    """A public name or class member that nothing in ``src`` refers to is a
    second copy or a capability no pipeline runs; it goes, or it is allowed
    above with a reason. Members count as referenced by attribute name."""
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for public, used in _units(ast.parse(path.read_text(), str(path))):
            defined |= public
            referenced |= used
    unreferenced = {name for name in defined if name.rpartition(".")[2] not in referenced}
    assert unreferenced - set(UNREFERENCED_ALLOWED) == set()
    assert set(UNREFERENCED_ALLOWED) - unreferenced == set(), "allowed names that are referenced now"


def test_every_import_in_src_is_used():
    """No module of ``src/qsmp`` imports a name it never uses: a deletion
    leaves none behind."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


_FAMILY_REASON = "config surface: the [problem] keys of a family reach its builder through FAMILIES"
_SCHEMA_REASON = "config schema: _parse_section sets each field from the key of the same name"

#: Defaulted parameters (``function(parameter)``) and dataclass fields
#: (``Class(field)``) of ``src/qsmp`` that no call in ``src`` sets, each with
#: the reason it stays; an entry without a parenthesis covers every option of
#: that function or class.
UNSET_OPTIONS_ALLOWED = {
    "cli.main(argv)": "the console-script entry calls main() without arguments and it reads sys.argv",
    "families.build_exponential_utility": _FAMILY_REASON,
    "families.build_linear_quadratic": _FAMILY_REASON,
    "families.build_bounded_tanh": _FAMILY_REASON,
    "families.build_controlled_geometric": _FAMILY_REASON,
    "paths.simulate_brownian(stream_id)": "fresh-stream draws for the out-of-sample estimates of ROADMAP items 5 and 8",
    "smp._derivative_sweep(width)": "the full-storage test references sweep at width N+1",
    **{f"config.{schema.__name__}": _SCHEMA_REASON for schema in config._SCHEMAS.values()},
}


def _options(node, prefix, cls=None):
    """(qualified name, the name its callers call, {option: positional index,
    None for a keyword-only one}) for each function, method and dataclass
    under ``node``; the options are the defaulted parameters or fields."""
    for sub in ast.iter_child_nodes(node):
        qual = f"{prefix}.{getattr(sub, 'name', '')}"
        if isinstance(sub, ast.ClassDef):
            if any("dataclass" in ast.unparse(d) for d in sub.decorator_list):
                fields = [f for f in sub.body if isinstance(f, ast.AnnAssign)]
                yield qual, sub.name, {f.target.id: j for j, f in enumerate(fields) if f.value is not None}
            yield from _options(sub, qual, sub)
        elif isinstance(sub, ast.FunctionDef):
            args = sub.args
            positional = args.posonlyargs + args.args
            bound = cls is not None and "staticmethod" not in {ast.unparse(d) for d in sub.decorator_list}
            first = len(positional) - len(args.defaults)
            options = {a.arg: j - bound for j, a in enumerate(positional) if j >= first}
            options.update({a.arg: None for a, default in zip(args.kwonlyargs, args.kw_defaults) if default})
            yield qual, cls.name if sub.name == "__init__" else sub.name, options
            yield from _options(sub, qual)
        else:
            yield from _options(sub, prefix, cls)


def test_every_option_in_src_is_set_by_a_caller():
    """A defaulted parameter or dataclass field that no call in ``src`` sets
    is an option no pipeline uses; it goes, or it is allowed above with a
    reason. Calls match by the called name, and a call sets an option by
    keyword, by position, or through ``*`` or ``**``."""
    options, calls = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        options += _options(tree, path.stem)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                calls.setdefault(getattr(call.func, "id", getattr(call.func, "attr", None)), []).append(call)

    def is_set(callee, option, index):
        return any(
            any(kw.arg in (option, None) for kw in call.keywords)
            or index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))
            for call in calls.get(callee, ())
        )

    unset = {
        (qual, option) for qual, callee, opts in options for option, index in opts.items()
        if not is_set(callee, option, index)
    }
    allowed = {(qual, option) for qual, option in unset if {qual, f"{qual}({option})"} & set(UNSET_OPTIONS_ALLOWED)}
    assert sorted(f"{qual}({option})" for qual, option in unset - allowed) == []
    used = {entry for qual, option in unset for entry in (qual, f"{qual}({option})")}
    assert set(UNSET_OPTIONS_ALLOWED) - used == set(), "allowed options that a caller sets now"


def _abs_then_max(call):
    """Whether ``call`` is ``np.abs(a).max()`` or ``np.max(np.abs(a))`` (also
    with ``absolute``, ``amax`` or the builtin ``abs``)."""
    def is_abs(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in ("abs", "absolute") or getattr(node.func, "id", None) == "abs"
        )

    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "max" and is_abs(func.value):
        return True
    return getattr(func, "attr", None) in ("max", "amax") and bool(call.args) and is_abs(call.args[0])


def test_no_abs_then_max_in_src():
    """max |a| of an array goes through ``paths.abs_max``, which reads the
    same value without allocating the temporary |a|."""
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and _abs_then_max(node)
    ]
    assert sites == [], "use paths.abs_max"


def test_one_fork_layer_in_src():
    """Every process ``src/qsmp`` forks is a ``bsde._Child``: no module
    imports ``multiprocessing`` or ``concurrent``, and ``os.fork`` is called
    at one site."""
    banned = ("multiprocessing", "concurrent")
    imports, forks = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                imports += [f"{where} {alias.name}" for alias in node.names if alias.name.partition(".")[0] in banned]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] in banned:
                imports.append(f"{where} {node.module}")
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork":
                forks.append(where)
    assert imports == []
    assert len(forks) == 1, forks


def _zero_fields(source: str) -> list:
    """The keywords of each ``CoefficientSet(...)`` call in ``source`` whose
    coefficient makes its zeros itself: a lambda or a local function that
    returns a literal 0, a product with one, or the result of a call of
    ``np.zeros``, ``np.zeros_like`` (or any callee named ``*zeros*``) or of
    ``np.full`` with a literal 0."""
    def is_zero(node):
        return isinstance(node, ast.Constant) and not isinstance(node.value, bool) and node.value == 0

    def makes_zeros(expression):
        for node in ast.walk(expression):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", None) or getattr(node.func, "id", "")
                zero_fill = callee in ("full", "full_like") and len(node.args) > 1 and is_zero(node.args[1])
                if "zeros" in callee or zero_fill:
                    return True
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                if is_zero(node.left) or is_zero(node.right):
                    return True
        return is_zero(expression)

    found = []
    tree = ast.parse(source)
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "CoefficientSet"):
            continue
        for keyword in call.keywords:
            todo, bodies = [keyword.value], []
            while todo:
                node = todo.pop()
                if isinstance(node, ast.Lambda):
                    bodies.append(node.body)
                elif isinstance(node, ast.Name) and node.id in functions:
                    returns = [ret for ret in ast.walk(functions[node.id]) if isinstance(ret, ast.Return)]
                    bodies += [ret.value for ret in returns if ret.value]
                elif isinstance(node, ast.Call):  # a marker's argument, such as WithoutY(f)
                    todo += node.args
            if any(makes_zeros(body) for body in bodies):
                found.append(keyword.arg)
    return found


def test_identically_zero_coefficients_in_families_are_markers():
    """An identically zero field of a built-in family is a ``model.Zero``,
    which the solvers skip; zeros made by a lambda or a function would take
    the slow path unnoticed."""
    assert _zero_fields((PACKAGE / "families.py").read_text()) == []
    # The lint sees the forms it forbids.
    forbidden = """
def build():
    def f(t, x, z, u):
        return np.zeros(x.shape[0])
    return CoefficientSet(
        f=WithoutY(f), f_y=lambda t, x, y, z, u: _zeros(x.shape[0]), f_z=lambda t, x, y, z, u: 0.0 * z,
        b_x=lambda t, x, u: np.full((x.shape[0], 1, 1), 0.0), Phi=lambda x: np.zeros_like(x[:, 0]),
        b=lambda t, x, u: u.copy(), f_u=Zero(1),
    )
"""
    assert _zero_fields(forbidden) == ["f", "f_y", "f_z", "b_x", "Phi"]

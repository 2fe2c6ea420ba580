"""Experiment configuration files.

Flat INI-style text: ``[section]`` headers with ``key = value`` pairs,
comments starting with ``#`` or ``;``. Unknown sections or keys are rejected
outright so that a malformed file never half-runs. Numeric lists and inline
coefficient definitions reuse the expression language of :mod:`qsmp.expr`.

Recognised sections and keys::

    [problem]      family = <name> plus builder parameters, OR an inline
                   definition: n, d, k (>= 1), x0, b, sigma, f, Phi, domain
                   (box | ball | halfspace-intersection) with
                   domain_lower, domain_upper | domain_center, domain_radius |
                   domain_normals, domain_offsets, and the declared constants
                   (finite, >= 0; gamma > 0) alpha, gamma, L1, L2, L3,
                   f_y_sup, Phi_sup, sigma_x_sup, b_x_sup, b_u_sup,
                   sigma_u_sup, Phi_x_sup
    [grid]         N (>= 1), T (finite, > 0)
    [monte_carlo]  M (>= 1), seed (>= 0)
    [pipeline]     kind (optional; one of the pipelines, and it must match
                   the subcommand)
    [output]       directory (optional)
    [controls]     u_bar, u: feedback expressions [expr, ...] in t, x1..xn,
                   or the special value ``riccati`` (linear_quadratic only)
    [descent]      iterations (>= 1), step and init_scale (finite), init
                   (zeros|random), init_seed (descend only)
    [check]        times, states, candidates (>= 1), groups (>= 2),
                   se_multiplier (finite, >= 0), boundary_bias (in [0, 1])
                   (mp-check only)
    [gradient_check] epsilons (at least 4, in (0, 1]) (gradient-check only)
    [bmo]          source (backward|constant), level (finite), n_max (1 to 6)
                   (bmo only)
    [tolerances]   basis_degree (>= 0, every pipeline), truncation_radius
                   and ridge (>= 0; solve, adjoint, bmo), validation_samples
                   (>= 1; constants); a pipeline rejects a key it does not use

Every section but ``[problem]`` is parsed from one dataclass schema
(:data:`_SCHEMAS`), which declares each key's type, default or
required-ness, and bounds. A pipeline rejects a section that only another
pipeline reads (:data:`SECTION_READERS`). Family parameters must be finite
numbers.

A family problem without ``[controls]`` uses that family's default pair of
controls; an inline problem defaults both u_bar and u to k zeros.
"""

from __future__ import annotations

import configparser
import inspect
import math
import operator
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import expr
from .errors import ConfigError, SolverError
from .families import FAMILIES, riccati_from_spec
from .model import (
    AssumptionConstants,
    BallDomain,
    BoxDomain,
    CoefficientSet,
    HalfspaceDomain,
    ProblemSpec,
    WithoutY,
    Zero,
)
from .paths import DEFAULT_EPSILONS, FeedbackControl, TimeGrid, check_epsilons

PIPELINES = ("solve", "adjoint", "gradient-check", "descend", "mp-check", "bmo", "constants")

_CONSTANT_KEYS = tuple(spec.name for spec in fields(AssumptionConstants) if spec.name != "sigma_x_sup")

# The keys of each [problem] domain kind.
_DOMAIN_KEYS = {
    "box": ("domain_lower", "domain_upper"),
    "ball": ("domain_center", "domain_radius"),
    "halfspace-intersection": ("domain_normals", "domain_offsets"),
}

_INLINE_KEYS = {
    "n", "d", "k", "x0", "b", "sigma", "f", "Phi", "domain", "sigma_x_sup", *_CONSTANT_KEYS,
    *(key for keys in _DOMAIN_KEYS.values() for key in keys),
}

_DEFAULT_CONTROLS = {
    "exponential_utility": ("[0.0]", "[0.5]"),
    "linear_quadratic": ("riccati", "[0.0]"),
    "bounded_tanh": ("[0.1]", "[0.5*tanh(x1)]"),
    "controlled_geometric": ("[0.0]", "[0.4]"),
}


def _key(default=MISSING, **rules):
    """A key of a schema section, ``default`` where the file omits it; a key
    without a default is required. ``rules`` may give "choices", "min" and
    "max" (inclusive), "above" (exclusive), "finite", and "pipelines": the
    only pipelines that use the key, which any other rejects."""
    return field(default=default, metadata=rules)


@dataclass
class GridParams:
    N: int = _key(min=1)
    T: float = _key(finite=True, above=0)


@dataclass
class MonteCarloParams:
    M: int = _key(min=1)
    seed: int = _key(min=0)


@dataclass
class PipelineParams:
    kind: str | None = _key(None, choices=PIPELINES)  # must match the subcommand


@dataclass
class OutputParams:
    directory: str | None = None


@dataclass
class ControlsParams:
    u_bar: str | None = None  # None: the family's default control
    u: str | None = None


@dataclass
class DescentParams:
    iterations: int = _key(25, min=1)
    step: float = _key(0.5, finite=True)
    init: str = _key("zeros", choices=("zeros", "random"))
    init_scale: float = _key(0.5, finite=True)
    init_seed: int = 0


@dataclass
class CheckParams:
    times: int = _key(12, min=1)
    states: int = _key(48, min=1)
    candidates: int = _key(8, min=1)
    groups: int = _key(8, min=2)  # the replicate standard error needs two
    se_multiplier: float = _key(5.0, finite=True, min=0)
    boundary_bias: float = _key(0.5, min=0, max=1)


@dataclass
class GradientCheckParams:
    epsilons: list = DEFAULT_EPSILONS


@dataclass
class BmoParams:
    source: str = _key("backward", choices=("backward", "constant"))
    level: float = _key(0.3, finite=True)
    n_max: int = _key(3, min=1, max=6)


_SOLVERS = ("solve", "adjoint", "bmo")


@dataclass
class Overrides:
    basis_degree: int | None = _key(None, min=0)  # every pipeline
    truncation_radius: float | None = _key(None, pipelines=_SOLVERS, min=0)
    ridge: float | None = _key(None, pipelines=_SOLVERS, min=0)
    validation_samples: int = _key(256, pipelines=("constants",), min=1)


#: Sections that one pipeline alone reads; any other pipeline rejects them.
SECTION_READERS = {"descent": "descend", "check": "mp-check", "bmo": "bmo", "gradient_check": "gradient-check"}


# Every section but [problem], parsed from a dataclass: each field is a key,
# its annotation gives the type and its default the default (see _key).
# A new key is one field line.
_SCHEMAS = {
    "grid": GridParams,
    "monte_carlo": MonteCarloParams,
    "pipeline": PipelineParams,
    "output": OutputParams,
    "controls": ControlsParams,
    "descent": DescentParams,
    "check": CheckParams,
    "gradient_check": GradientCheckParams,
    "bmo": BmoParams,
    "tolerances": Overrides,
}


@dataclass
class ExperimentConfig:
    spec: ProblemSpec
    grid: TimeGrid
    M: int
    seed: int
    pipeline: str | None
    output_dir: str | None
    controls: dict  # "u_bar" and "u" -> Control
    descent: DescentParams
    check: CheckParams
    bmo: BmoParams
    gradient_epsilons: list
    overrides: Overrides
    family: str | None
    raw: dict = field(default_factory=dict)

    def control(self, which: str):
        return self.controls[which]


def check_pipeline(cfg: ExperimentConfig, pipeline: str) -> None:
    """Rejects a config for ``pipeline`` that declares another pipeline, has
    a section that only another pipeline reads, or sets a [tolerances] key
    that ``pipeline`` does not use."""
    if cfg.pipeline not in (None, pipeline):
        message = f"config declares pipeline {cfg.pipeline!r} but the {pipeline} subcommand was invoked"
        raise ConfigError(message, "[pipeline] kind")
    for section, reader in SECTION_READERS.items():
        if section in cfg.raw and reader != pipeline:
            raise ConfigError(f"only the {reader} pipeline reads this section, not {pipeline}", f"[{section}]")
    for spec in fields(Overrides):
        if spec.name in cfg.raw.get("tolerances", {}) and pipeline not in spec.metadata.get("pipelines", PIPELINES):
            raise ConfigError(f"the {pipeline} pipeline does not use this key", f"[tolerances] {spec.name}")


_TYPE_NAMES = {int: "an integer", float: "a number"}
# The bound rules of _key, each a test that NaN fails.
_BOUNDS = {"min": (operator.ge, ">="), "above": (operator.gt, ">"), "max": (operator.le, "<=")}


def _scalar(kind, section, key, value):
    if kind is list:
        return _numeric_list(section, key, value)
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"expected {_TYPE_NAMES[kind]}, got {value!r}", f"[{section}] {key}")


def _parse_section(section: str, values: dict):
    """The dataclass of a _SCHEMAS section from its raw ``key = value``
    pairs, parsed in field order."""
    schema = _SCHEMAS[section]
    hints = typing.get_type_hints(schema)
    for key in values:
        if key not in hints:
            raise ConfigError(f"unknown key {key!r}", f"[{section}] {key}")
    parsed = {}
    for spec in fields(schema):
        location = f"[{section}] {spec.name}"
        if spec.name not in values:
            if spec.default is MISSING:
                raise ConfigError(f"missing key {spec.name}", location)
            continue
        # ``int | None`` parses as int
        kind = next(t for t in typing.get_args(hints[spec.name]) or (hints[spec.name],) if t is not type(None))
        value = parsed[spec.name] = _scalar(kind, section, spec.name, values[spec.name])
        rules = spec.metadata
        if "choices" in rules and value not in rules["choices"]:
            raise ConfigError(f"{spec.name} must be {' or '.join(rules['choices'])}", location)
        for rule, (holds, sign) in _BOUNDS.items():
            if rule in rules and not holds(value, rules[rule]):
                raise ConfigError(f"{spec.name} must be {sign} {rules[rule]}", location)
        if rules.get("finite") and not math.isfinite(value):
            raise ConfigError(f"{spec.name} must be finite", location)
    return schema(**parsed)


def _numeric_list(section, key, value):
    try:
        ast = expr.parse_expression(value, (0, 0, 0))
        expr.list_shape(ast)  # rejects ragged and mixed lists
        result = expr.evaluate_expression(ast, {})
    except expr.ExpressionError as err:
        raise ConfigError(f"invalid numeric list: {err}", f"[{section}] {key}")
    if isinstance(result, list):
        if result and isinstance(result[0], list):
            return [[float(v) for v in row] for row in result]
        return [float(v) for v in result]
    return [float(result)]


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#", ";"),
        interpolation=None,
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}")

    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    for section in raw:
        if section != "problem" and section not in _SCHEMAS:
            raise ConfigError(f"unknown section [{section}]", f"[{section}]")
    if "problem" not in raw:
        raise ConfigError("missing required section [problem]", "[problem]")
    params = {name: _parse_section(name, raw.get(name, {})) for name in _SCHEMAS}

    grid = TimeGrid(params["grid"].N, params["grid"].T)
    spec, family, family_params = _build_problem(raw["problem"], params["grid"].T)

    zeros = "[" + ", ".join(["0.0"] * spec.k) + "]"
    defaults = dict(zip(("u_bar", "u"), _DEFAULT_CONTROLS.get(family, (zeros, zeros))))
    sources = {**defaults, **{which: v for which, v in vars(params["controls"]).items() if v is not None}}
    controls = {which: build_control(which, sources[which], spec, family, family_params) for which in ("u_bar", "u")}
    try:
        epsilons = check_epsilons(params["gradient_check"].epsilons)
    except ValueError as err:
        raise ConfigError(str(err), "[gradient_check] epsilons")

    return ExperimentConfig(
        spec=spec,
        grid=grid,
        M=params["monte_carlo"].M,
        seed=params["monte_carlo"].seed,
        pipeline=params["pipeline"].kind,
        output_dir=params["output"].directory,
        controls=controls,
        descent=params["descent"],
        check=params["check"],
        bmo=params["bmo"],
        gradient_epsilons=epsilons,
        overrides=params["tolerances"],
        family=family,
        raw=raw,
    )


def _build_problem(section: dict, horizon: float):
    if "family" in section:
        name = section["family"]
        if name not in FAMILIES:
            raise ConfigError(f"unknown family {name!r}; available: {sorted(FAMILIES)}", "[problem] family")
        builder = FAMILIES[name]
        signature = inspect.signature(builder)
        for key in section:
            if key != "family" and key not in signature.parameters:
                raise ConfigError(f"family {name} has no parameter {key!r}", f"[problem] {key}")
        params = {key: _scalar(float, "problem", key, value) for key, value in section.items() if key != "family"}
        if "T" in signature.parameters and "T" not in params:
            params["T"] = horizon
        try:
            spec = builder(**params)
        except ValueError as err:
            raise ConfigError(f"family {name}: {err}", "[problem]")
        # After the builder, so that its own message comes first: a builder
        # need not validate every parameter it takes (sigma0, x0).
        for key, value in params.items():
            if not math.isfinite(value):
                raise ConfigError(f"family {name}: {key} must be finite", f"[problem] {key}")
        if abs(spec.T - horizon) > 1e-12:
            raise ConfigError(f"grid horizon T={horizon} differs from the family horizon T={spec.T}", "[grid] T")
        return spec, name, params

    for key in section:
        if key not in _INLINE_KEYS:
            raise ConfigError(f"unknown key {key!r}", f"[problem] {key}")
    for key in ("n", "d", "k", "x0", "b", "sigma", "f", "Phi", "domain", "gamma"):
        if key not in section:
            raise ConfigError(f"inline problem needs key {key}", f"[problem] {key}")
    dims = tuple(_scalar(int, "problem", key, section[key]) for key in ("n", "d", "k"))
    for key, size in zip("ndk", dims):
        if size < 1:
            raise ConfigError(f"{key} must be >= 1", f"[problem] {key}")
    try:
        domain = _build_domain(section, dims[2])
    except ValueError as err:
        raise ConfigError(str(err), "[problem] domain")
    spec = build_expression_problem(
        n=dims[0],
        d=dims[1],
        k=dims[2],
        T=horizon,
        x0=_numeric_list("problem", "x0", section["x0"]),
        sources={key: section[key] for key in ("b", "sigma", "f", "Phi")},
        domain=domain,
        constants=_build_constants(section, dims[1]),
    )
    return spec, None, {}


def _build_domain(section: dict, k: int):
    kind = section["domain"]
    if kind not in _DOMAIN_KEYS:
        raise ConfigError(f"unknown domain kind {kind!r}; expected {', '.join(_DOMAIN_KEYS)}", "[problem] domain")
    for key in section:
        if key.startswith("domain_") and key not in _DOMAIN_KEYS[kind]:
            raise ConfigError(f"a {kind} domain has no key {key!r}", f"[problem] {key}")
    if kind == "box":
        lower = _vector(section, "domain_lower", k, "[-1.0]" if k == 1 else "")
        return BoxDomain(lower, _vector(section, "domain_upper", k, "[1.0]" if k == 1 else ""))
    if kind == "ball":
        center = _vector(section, "domain_center", k, "[0.0]")
        return BallDomain(center, _scalar(float, "problem", "domain_radius", section.get("domain_radius", "1.0")))
    if "domain_normals" not in section or "domain_offsets" not in section:
        raise ConfigError("halfspace domain needs domain_normals and domain_offsets", "[problem] domain")
    normals = _numeric_list("problem", "domain_normals", section["domain_normals"])
    offsets = _numeric_list("problem", "domain_offsets", section["domain_offsets"])
    if not isinstance(normals[0], list):
        normals = [normals]
    return HalfspaceDomain(tuple(map(tuple, normals)), tuple(offsets))


def _vector(section: dict, key: str, length: int, default: str) -> tuple:
    """The [problem] key ``key``, ``default`` where it is absent, as a flat
    list of ``length`` numbers."""
    values = _numeric_list("problem", key, section.get(key, default))
    if len(values) != length or any(isinstance(v, list) for v in values):
        raise ConfigError(f"{key} must be a list of {length} numbers", f"[problem] {key}")
    return tuple(values)


def _build_constants(section: dict, d: int) -> AssumptionConstants:
    values = {key: _scalar(float, "problem", key, section.get(key, "0.0")) for key in _CONSTANT_KEYS}
    sigma_x = _vector(section, "sigma_x_sup", d, "[" + ", ".join(["0.0"] * d) + "]")
    for key, value in [*values.items(), *(("sigma_x_sup", s) for s in sigma_x)]:
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{key} must be finite and nonnegative", f"[problem] {key}")
    try:
        return AssumptionConstants(sigma_x_sup=sigma_x, **values)
    except ValueError as err:  # gamma = 0
        raise ConfigError(str(err), "[problem] gamma")


def _parse_coefficient(source: str, dims, key: str):
    try:
        ast = expr.parse_expression(source, dims)
        expr.list_shape(ast)  # rejects ragged and mixed lists
        return ast
    except expr.ExpressionError as err:
        raise ConfigError(f"invalid expression: {err}", f"[problem] {key}")


def _vector_asts(ast, length: int, key: str):
    shape = expr.list_shape(ast)
    items = list(ast.items) if shape else [ast]
    if len(shape) > 1 or len(items) != length:
        raise ConfigError(f"{key} must be a list of length {length}", f"[problem] {key}")
    return items


def _matrix_asts(ast, rows: int, cols: int, key: str):
    shape = expr.list_shape(ast)
    if shape == ():
        if rows != 1 or cols != 1:
            raise ConfigError(f"{key} must be a {rows}x{cols} matrix", f"[problem] {key}")
        return [[ast]]
    if len(shape) == 1:
        if rows == 1 and shape[0] == cols:
            return [list(ast.items)]
        if cols == 1 and shape[0] == rows:
            return [[item] for item in ast.items]
        raise ConfigError(f"{key} must be a {rows}x{cols} matrix", f"[problem] {key}")
    if shape != (rows, cols):
        raise ConfigError(
            f"{key} has shape {shape[0]}x{shape[1]}, expected {rows}x{cols}", f"[problem] {key}"
        )
    return [list(row.items) for row in ast.items]


def _state_env(t, x, u=None, y=None, z=None):
    env = {"t": t}
    for j in range(x.shape[1]):
        env[f"x{j+1}"] = x[:, j]
    if u is not None:
        for j in range(u.shape[1]):
            env[f"u{j+1}"] = u[:, j]
    if y is not None:
        env["y"] = y
    if z is not None:
        for j in range(z.shape[1]):
            env[f"z{j+1}"] = z[:, j]
    return env


def _eval_to(what, shape, asts, env):
    """Evaluate the nested list of ASTs of ``what`` (a coefficient or a
    control) into a dense array of the given shape (leading batch dimension
    inferred from the environment arrays). A failure is a
    :class:`SolverError` naming ``what``, to which a solver adds its step."""
    m = next((value.shape[0] for value in env.values() if isinstance(value, np.ndarray)), 1)
    out = np.empty((m,) + shape)
    for idx in np.ndindex(shape):
        node = asts
        for axis in idx:
            node = node[axis]
        try:
            out[(slice(None),) + idx] = expr.evaluate_expression(node, env)
        except expr.EvaluationError as err:
            raise SolverError(f"{what}: {err}") from None
    return out


def _unless_free(field, base, names, *shape):
    """``field``, or a :class:`qsmp.model.Zero` of trailing shape ``shape``
    where none of the variables ``names`` occurs in the expression ``base``:
    a derivative in variables the expression does not read."""
    return field if expr.variables(base) & set(names) else Zero(*shape)


def build_expression_problem(n, d, k, T, x0, sources, domain, constants) -> ProblemSpec:
    """Wire a ProblemSpec from coefficient expressions; derivatives are
    obtained by symbolic differentiation of the parsed trees. A derivative
    field is a :class:`qsmp.model.Zero` where its variables do not occur in
    the expression (a test on the text, not on the folded derivative), and
    f is :class:`qsmp.model.WithoutY` where y does not occur in it."""
    dims = (n, d, k)
    b_src = _parse_coefficient(sources["b"], dims, "b")
    sigma_src = _parse_coefficient(sources["sigma"], dims, "sigma")
    b_ast = _vector_asts(b_src, n, "b")
    sigma_ast = _matrix_asts(sigma_src, n, d, "sigma")
    f_ast = _parse_coefficient(sources["f"], dims, "f")
    phi_ast = _parse_coefficient(sources["Phi"], dims, "Phi")
    for key, ast in (("f", f_ast), ("Phi", phi_ast)):
        if isinstance(ast, expr.ListLit):
            raise ConfigError(f"{key} must be a scalar expression", f"[problem] {key}")

    x_vars = [f"x{j+1}" for j in range(n)]
    u_vars = [f"u{j+1}" for j in range(k)]
    z_vars = [f"z{j+1}" for j in range(d)]

    b_x_ast = [[expr.differentiate(b_ast[a], v) for v in x_vars] for a in range(n)]
    b_u_ast = [[expr.differentiate(b_ast[a], v) for v in u_vars] for a in range(n)]
    # sigma_x[i][a][b] = d sigma[a][i] / d x_b  (per diffusion column i)
    sigma_x_ast = [
        [[expr.differentiate(sigma_ast[a][i], v) for v in x_vars] for a in range(n)]
        for i in range(d)
    ]
    sigma_u_ast = [
        [[expr.differentiate(sigma_ast[a][i], v) for v in u_vars] for a in range(n)]
        for i in range(d)
    ]
    f_x_ast = [expr.differentiate(f_ast, v) for v in x_vars]
    f_y_ast = expr.differentiate(f_ast, "y")
    f_z_ast = [expr.differentiate(f_ast, v) for v in z_vars]
    f_u_ast = [expr.differentiate(f_ast, v) for v in u_vars]
    phi_x_ast = [expr.differentiate(phi_ast, v) for v in x_vars]

    # A coefficient of (t, x, u), one of the generator's (t, x, y, z, u), and one of the terminal state.
    def of_state(name, shape, asts):
        return lambda t, x, u: _eval_to(f"coefficient {name}", shape, asts, _state_env(t, x, u))

    def of_generator(name, shape, asts):
        return lambda t, x, y, z, u: _eval_to(f"coefficient {name}", shape, asts, _state_env(t, x, u, y, z))

    def of_terminal(name, shape, asts):
        return lambda x: _eval_to(f"coefficient {name}", shape, asts, _state_env(0.0, x))

    f = of_generator("f", (), f_ast)
    coeffs = CoefficientSet(
        b=of_state("b", (n,), b_ast),
        sigma=of_state("sigma", (n, d), sigma_ast),
        f=f if "y" in expr.variables(f_ast) else WithoutY(lambda t, x, z, u: f(t, x, None, z, u)),
        Phi=of_terminal("Phi", (), phi_ast),
        b_x=_unless_free(of_state("b_x", (n, n), b_x_ast), b_src, x_vars, n, n),
        b_u=_unless_free(of_state("b_u", (n, k), b_u_ast), b_src, u_vars, n, k),
        sigma_x=_unless_free(of_state("sigma_x", (d, n, n), sigma_x_ast), sigma_src, x_vars, d, n, n),
        sigma_u=_unless_free(of_state("sigma_u", (d, n, k), sigma_u_ast), sigma_src, u_vars, d, n, k),
        f_x=_unless_free(of_generator("f_x", (n,), f_x_ast), f_ast, x_vars, n),
        f_y=_unless_free(of_generator("f_y", (), f_y_ast), f_ast, ["y"]),
        f_z=_unless_free(of_generator("f_z", (d,), f_z_ast), f_ast, z_vars, d),
        f_u=_unless_free(of_generator("f_u", (k,), f_u_ast), f_ast, u_vars, k),
        Phi_x=_unless_free(of_terminal("Phi_x", (n,), phi_x_ast), phi_ast, x_vars, n),
    )
    x0_arr = np.asarray(x0, dtype=np.float64)
    if x0_arr.shape != (n,):
        raise ConfigError(f"x0 must have length n={n}", "[problem] x0")
    try:
        return ProblemSpec(n=n, d=d, k=k, T=T, x0=x0_arr, coeffs=coeffs, domain=domain, constants=constants)
    except ValueError as err:
        raise ConfigError(str(err), "[problem]")


def build_control(which: str, source: str, spec: ProblemSpec, family, family_params: dict):
    """The feedback control of the [controls] entry ``which``: ``riccati``
    or a list of k expressions in t, x1..xn (a bare expression when k = 1)."""
    location = f"[controls] {which}"
    if source == "riccati":
        if family != "linear_quadratic":
            raise ConfigError("the riccati control is only available for the linear_quadratic family", location)
        return riccati_from_spec(family_params).feedback()
    try:
        ast = expr.parse_expression(source, (spec.n, 0, 0))
        shape = expr.list_shape(ast)
    except expr.ExpressionError as err:
        raise ConfigError(f"invalid control expression: {err}", location)
    if shape != (spec.k,) and not (shape == () and spec.k == 1):
        raise ConfigError(f"control must have k={spec.k} components", location)
    comps = list(ast.items) if shape else [ast]
    return FeedbackControl(lambda t, x: _eval_to(f"control {which}", (spec.k,), comps, _state_env(t, x)), k=spec.k)

"""Experiment configuration files.

Flat INI-style text: ``[section]`` headers with ``key = value`` pairs,
comments starting with ``#`` or ``;``. Unknown sections or keys are rejected
outright so that a malformed file never half-runs. Numeric lists and inline
coefficient definitions reuse the expression language of :mod:`qsmp.expr`.

Recognised sections and keys::

    [problem]      family = <name> plus builder parameters, OR an inline
                   definition: n, d, k, x0, b, sigma, f, Phi, domain
                   (box | ball | halfspace-intersection) with
                   domain_lower, domain_upper | domain_center, domain_radius |
                   domain_normals, domain_offsets, and the declared constants
                   alpha, gamma, L1, L2, L3, f_y_sup, Phi_sup, sigma_x_sup,
                   b_x_sup, b_u_sup, sigma_u_sup, Phi_x_sup
    [grid]         N, T
    [monte_carlo]  M, seed
    [pipeline]     kind (optional; must match the subcommand when present)
    [output]       directory (optional)
    [controls]     u_bar, u: feedback expressions [expr, ...] in t, x1..xn,
                   or the special value ``riccati`` (linear_quadratic only)
    [descent]      iterations, step, init (zeros|random), init_scale, init_seed
                   (descend only)
    [check]        times, states, candidates, groups, se_multiplier,
                   boundary_bias (mp-check only)
    [gradient_check] epsilons (gradient-check only)
    [bmo]          source (backward|constant), level, n_max (at most 6)
                   (bmo only)
    [tolerances]   basis_degree (every pipeline), truncation_radius and ridge
                   (solve, adjoint, bmo), validation_samples (constants); a
                   pipeline rejects a key it does not use

A pipeline rejects a section that only another pipeline reads
(:data:`SECTION_READERS`). Family parameters and the float keys of
``[descent]``, ``[check]`` and ``[bmo]`` must be finite numbers.

A family problem without ``[controls]`` uses that family's default pair of
controls; an inline problem defaults both u_bar and u to k zeros.
"""

from __future__ import annotations

import configparser
import inspect
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import expr
from .errors import ConfigError
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

# Keys of the sections without a dataclass; the dataclass-backed sections
# (_SCHEMAS, below) take their keys from the dataclass fields.
_SECTION_KEYS = {
    "problem": None,  # validated separately
    "grid": {"N", "T"},
    "monte_carlo": {"M", "seed"},
    "pipeline": {"kind"},
    "output": {"directory"},
    "controls": {"u_bar", "u"},
    "gradient_check": {"epsilons"},
}

_CONSTANT_KEYS = (
    "alpha", "gamma", "L1", "L2", "L3", "f_y_sup", "Phi_sup",
    "b_x_sup", "b_u_sup", "sigma_u_sup", "Phi_x_sup",
)

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


def _choice(default, *others):
    return field(default=default, metadata={"choices": (default, *others)})


def _bounded(default, **bounds):
    """A key whose values below ``min`` or above ``max`` mean nothing."""
    return field(default=default, metadata=bounds)


def _finite(default, **bounds):
    """A float key whose NaN, infinities and values beyond ``min`` or ``max`` mean nothing."""
    return field(default=default, metadata={"finite": True, **bounds})


@dataclass
class DescentParams:
    iterations: int = _bounded(25, min=1)
    step: float = _finite(0.5)
    init: str = _choice("zeros", "random")
    init_scale: float = _finite(0.5)
    init_seed: int = 0


@dataclass
class CheckParams:
    times: int = _bounded(12, min=1)
    states: int = _bounded(48, min=1)
    candidates: int = _bounded(8, min=1)
    groups: int = _bounded(8, min=2)  # the replicate standard error needs two
    se_multiplier: float = _finite(5.0, min=0)
    boundary_bias: float = _bounded(0.5, min=0, max=1)


@dataclass
class BmoParams:
    source: str = _choice("backward", "constant")
    level: float = _finite(0.3)
    n_max: int = _bounded(3, min=1, max=6)


def _used_by(*pipelines, default=None, **bounds):
    """A [tolerances] key that only the named pipelines use; any other
    pipeline rejects it rather than ignore it."""
    return field(default=default, metadata={"pipelines": pipelines, **bounds})


_SOLVERS = ("solve", "adjoint", "bmo")


@dataclass
class Overrides:
    basis_degree: int | None = _bounded(None, min=0)  # every pipeline
    truncation_radius: float | None = _used_by(*_SOLVERS, min=0)
    ridge: float | None = _used_by(*_SOLVERS, min=0)
    validation_samples: int = _used_by("constants", default=256, min=1)


#: Sections that one pipeline alone reads; any other pipeline rejects them.
SECTION_READERS = {"descent": "descend", "check": "mp-check", "bmo": "bmo", "gradient_check": "gradient-check"}


def unused_tolerances(pipeline: str, keys) -> list:
    """The given [tolerances] keys that ``pipeline`` does not use, sorted."""
    users = {spec.name: spec.metadata.get("pipelines", PIPELINES) for spec in fields(Overrides)}
    return sorted(key for key in keys if pipeline not in users[key])


# Sections parsed from a dataclass: each field is a key, its annotation gives
# the type and its default the default; metadata may add "choices", "min" or
# "max" (both inclusive), or "finite".
# A new key in one of these sections is one field line.
_SCHEMAS = {"descent": DescentParams, "check": CheckParams, "bmo": BmoParams, "tolerances": Overrides}


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


_TYPE_NAMES = {int: "an integer", float: "a number"}


def _scalar(kind, section, key, value):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"expected {_TYPE_NAMES[kind]}, got {value!r}", f"[{section}] {key}")


def _required(raw: dict, section: str, *typed_keys):
    """The values of required ``(key, type)`` pairs of a section; every key
    is checked for presence before any is parsed."""
    values = raw[section]
    for key, _ in typed_keys:
        if key not in values:
            raise ConfigError(f"missing key {key}", f"[{section}] {key}")
    return [_scalar(kind, section, key, values[key]) for key, kind in typed_keys]


def _parse_section(section: str, values: dict):
    """The dataclass of a _SCHEMAS section, from its raw ``key = value``
    pairs (keys already checked), parsed in field order."""
    schema = _SCHEMAS[section]
    hints = typing.get_type_hints(schema)
    parsed = schema()
    for spec in fields(schema):
        if spec.name not in values:
            continue
        # ``int | None`` parses as int
        kind = next(t for t in typing.get_args(hints[spec.name]) or (hints[spec.name],) if t is not type(None))
        value = _scalar(kind, section, spec.name, values[spec.name])
        choices, low, high = (spec.metadata.get(key) for key in ("choices", "min", "max"))
        if choices is not None and value not in choices:
            raise ConfigError(f"{spec.name} must be {' or '.join(choices)}", f"[{section}] {spec.name}")
        # Written so that NaN fails too.
        if low is not None and not value >= low:
            raise ConfigError(f"{spec.name} must be >= {low}", f"[{section}] {spec.name}")
        if high is not None and not value <= high:
            raise ConfigError(f"{spec.name} must be <= {high}", f"[{section}] {spec.name}")
        if spec.metadata.get("finite") and not math.isfinite(value):
            raise ConfigError(f"{spec.name} must be finite", f"[{section}] {spec.name}")
        setattr(parsed, spec.name, value)
    return parsed


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
        strict=True,
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
        if section in _SCHEMAS:
            allowed = {spec.name for spec in fields(_SCHEMAS[section])}
        elif section in _SECTION_KEYS:
            allowed = _SECTION_KEYS[section]
        else:
            raise ConfigError(f"unknown section [{section}]", f"[{section}]")
        if allowed is not None:
            for key in raw[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r}", f"[{section}] {key}")

    for required in ("problem", "grid", "monte_carlo"):
        if required not in raw:
            raise ConfigError(f"missing required section [{required}]", f"[{required}]")

    n_steps, horizon = _required(raw, "grid", ("N", int), ("T", float))
    if n_steps < 1 or horizon <= 0:
        raise ConfigError("need N >= 1 and T > 0", "[grid]")
    grid = TimeGrid(n_steps, horizon)

    m_paths, seed = _required(raw, "monte_carlo", ("M", int), ("seed", int))
    if m_paths < 1 or seed < 0:
        raise ConfigError("need M >= 1 and seed >= 0", "[monte_carlo]")

    pipeline = None
    if "pipeline" in raw:
        pipeline = raw["pipeline"].get("kind")
        if pipeline not in PIPELINES:
            raise ConfigError(
                f"unknown pipeline {pipeline!r}; expected one of {PIPELINES}", "[pipeline] kind"
            )

    spec, family, family_params = _build_problem(raw["problem"], horizon)

    zeros = "[" + ", ".join(["0.0"] * spec.k) + "]"
    defaults = dict(zip(("u_bar", "u"), _DEFAULT_CONTROLS.get(family, (zeros, zeros))))
    sources = {**defaults, **raw.get("controls", {})}
    controls = {which: build_control(which, sources[which], spec, family, family_params) for which in ("u_bar", "u")}

    descent, check, bmo_params = (_parse_section(name, raw.get(name, {})) for name in ("descent", "check", "bmo"))

    epsilons = list(DEFAULT_EPSILONS)
    if "gradient_check" in raw and "epsilons" in raw["gradient_check"]:
        try:
            epsilons = check_epsilons(_numeric_list("gradient_check", "epsilons", raw["gradient_check"]["epsilons"]))
        except ValueError as err:
            raise ConfigError(str(err), "[gradient_check] epsilons")

    return ExperimentConfig(
        spec=spec,
        grid=grid,
        M=m_paths,
        seed=seed,
        pipeline=pipeline,
        output_dir=raw.get("output", {}).get("directory"),
        controls=controls,
        descent=descent,
        check=check,
        bmo=bmo_params,
        gradient_epsilons=epsilons,
        overrides=_parse_section("tolerances", raw.get("tolerances", {})),
        family=family,
        raw=raw,
    )


def _build_problem(section: dict, horizon: float):
    if "family" in section:
        name = section["family"]
        if name not in FAMILIES:
            raise ConfigError(
                f"unknown family {name!r}; available: {sorted(FAMILIES)}", "[problem] family"
            )
        builder = FAMILIES[name]
        signature = inspect.signature(builder)
        params = {}
        for key, value in section.items():
            if key == "family":
                continue
            if key not in signature.parameters:
                raise ConfigError(
                    f"family {name} has no parameter {key!r}", f"[problem] {key}"
                )
            params[key] = _scalar(float, "problem", key, value)
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
            raise ConfigError(
                f"grid horizon T={horizon} differs from the family horizon T={spec.T}",
                "[grid] T",
            )
        return spec, name, params

    for key in section:
        if key not in _INLINE_KEYS:
            raise ConfigError(f"unknown key {key!r}", f"[problem] {key}")
    for key in ("n", "d", "k", "x0", "b", "sigma", "f", "Phi", "domain", "gamma"):
        if key not in section:
            raise ConfigError(f"inline problem needs key {key}", f"[problem] {key}")
    dims = tuple(_scalar(int, "problem", key, section[key]) for key in ("n", "d", "k"))
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
        lower = _numeric_list("problem", "domain_lower", section.get("domain_lower", "[-1.0]" if k == 1 else ""))
        upper = _numeric_list("problem", "domain_upper", section.get("domain_upper", "[1.0]" if k == 1 else ""))
        if len(lower) != k or len(upper) != k:
            raise ConfigError(f"box bounds must have length k={k}", "[problem] domain_lower")
        return BoxDomain(tuple(lower), tuple(upper))
    if kind == "ball":
        center = _numeric_list("problem", "domain_center", section.get("domain_center", "[0.0]"))
        radius = _scalar(float, "problem", "domain_radius", section.get("domain_radius", "1.0"))
        if len(center) != k:
            raise ConfigError(f"ball center must have length k={k}", "[problem] domain_center")
        return BallDomain(tuple(center), radius)
    if kind == "halfspace-intersection":
        if "domain_normals" not in section or "domain_offsets" not in section:
            raise ConfigError("halfspace domain needs domain_normals and domain_offsets", "[problem] domain")
        normals = _numeric_list("problem", "domain_normals", section["domain_normals"])
        offsets = _numeric_list("problem", "domain_offsets", section["domain_offsets"])
        if not isinstance(normals[0], list):
            normals = [normals]
        return HalfspaceDomain(tuple(map(tuple, normals)), tuple(offsets))


def _build_constants(section: dict, d: int) -> AssumptionConstants:
    values = {}
    for key in _CONSTANT_KEYS:
        values[key] = _scalar(float, "problem", key, section.get(key, "0.0"))
    sigma_x = _numeric_list("problem", "sigma_x_sup", section.get("sigma_x_sup", "[" + ", ".join(["0.0"] * d) + "]"))
    if len(sigma_x) != d:
        raise ConfigError(f"sigma_x_sup must have length d={d}", "[problem] sigma_x_sup")
    try:
        return AssumptionConstants(sigma_x_sup=tuple(sigma_x), **values)
    except ValueError as err:
        raise ConfigError(str(err), "[problem]")


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


def _eval_to(shape, asts, env):
    """Evaluate a nested list of ASTs into a dense array of the given shape
    (leading batch dimension inferred from the environment arrays)."""
    m = next((value.shape[0] for value in env.values() if isinstance(value, np.ndarray)), 1)
    out = np.empty((m,) + shape)
    for idx in np.ndindex(shape):
        node = asts
        for axis in idx:
            node = node[axis]
        value = expr.evaluate_expression(node, env)
        out[(slice(None),) + idx] = value
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
    if isinstance(f_ast, expr.ListLit) or isinstance(phi_ast, expr.ListLit):
        raise ConfigError("f and Phi must be scalar expressions", "[problem] f")

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

    def f(t, x, y, z, u):
        return _eval_to((), f_ast, _state_env(t, x, u, y, z))[:]

    coeffs = CoefficientSet(
        b=lambda t, x, u: _eval_to((n,), b_ast, _state_env(t, x, u)),
        sigma=lambda t, x, u: _eval_to((n, d), sigma_ast, _state_env(t, x, u)),
        f=f if "y" in expr.variables(f_ast) else WithoutY(lambda t, x, z, u: f(t, x, None, z, u)),
        Phi=lambda x: _eval_to((), phi_ast, _state_env(0.0, x)),
        b_x=_unless_free(lambda t, x, u: _eval_to((n, n), b_x_ast, _state_env(t, x, u)), b_src, x_vars, n, n),
        b_u=_unless_free(lambda t, x, u: _eval_to((n, k), b_u_ast, _state_env(t, x, u)), b_src, u_vars, n, k),
        sigma_x=_unless_free(
            lambda t, x, u: _eval_to((d, n, n), sigma_x_ast, _state_env(t, x, u)), sigma_src, x_vars, d, n, n
        ),
        sigma_u=_unless_free(
            lambda t, x, u: _eval_to((d, n, k), sigma_u_ast, _state_env(t, x, u)), sigma_src, u_vars, d, n, k
        ),
        f_x=_unless_free(lambda t, x, y, z, u: _eval_to((n,), f_x_ast, _state_env(t, x, u, y, z)), f_ast, x_vars, n),
        f_y=_unless_free(lambda t, x, y, z, u: _eval_to((), f_y_ast, _state_env(t, x, u, y, z)), f_ast, ["y"]),
        f_z=_unless_free(lambda t, x, y, z, u: _eval_to((d,), f_z_ast, _state_env(t, x, u, y, z)), f_ast, z_vars, d),
        f_u=_unless_free(lambda t, x, y, z, u: _eval_to((k,), f_u_ast, _state_env(t, x, u, y, z)), f_ast, u_vars, k),
        Phi_x=_unless_free(lambda x: _eval_to((n,), phi_x_ast, _state_env(0.0, x)), phi_ast, x_vars, n),
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

    def fn(t, states):
        env = _state_env(t, states)
        out = np.empty((states.shape[0], spec.k))
        for j, comp in enumerate(comps):
            out[:, j] = expr.evaluate_expression(comp, env)
        return out

    return FeedbackControl(fn, k=spec.k)

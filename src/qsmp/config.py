"""Experiment configuration files.

Flat INI-style text: ``[section]`` headers with ``key = value`` pairs,
comments starting with ``#`` or ``;``. Unknown sections or keys are rejected
outright so that a malformed file never half-runs. Numeric lists and inline
coefficient definitions reuse the expression language of :mod:`qsmp.expr`.

Recognised sections and keys::

    [problem]      family = <name> plus builder parameters, OR an inline
                   definition: n, d, k, x0, b, sigma, f, Phi, domain
                   (box | ball | halfspace-intersection) with
                   domain_lower/upper | domain_center/radius |
                   domain_normals/offsets, and the declared constants
                   alpha, gamma, L1, L2, L3, f_y_sup, Phi_sup, sigma_x_sup,
                   b_x_sup, b_u_sup, sigma_u_sup, Phi_x_sup
    [grid]         N, T
    [monte_carlo]  M, seed
    [pipeline]     kind (optional; must match the subcommand when present)
    [output]       directory (optional)
    [controls]     u_bar, u: feedback expressions [expr, ...] in t, x1..xn,
                   or the special value ``riccati`` (linear_quadratic only)
    [descent]      iterations, step, init (zeros|random), init_scale, init_seed
    [check]        times, states, candidates, groups, se_multiplier,
                   boundary_bias
    [gradient_check] epsilons
    [bmo]          source (backward|constant), level, n_max
    [tolerances]   basis_degree, truncation_radius, ridge, validation_samples
"""

from __future__ import annotations

import configparser
import inspect
from dataclasses import dataclass, field

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
)
from .paths import FeedbackControl, TimeGrid

PIPELINES = ("solve", "adjoint", "gradient-check", "descend", "mp-check", "bmo", "constants")

_SECTION_KEYS = {
    "problem": None,  # validated separately
    "grid": {"N", "T"},
    "monte_carlo": {"M", "seed"},
    "pipeline": {"kind"},
    "output": {"directory"},
    "controls": {"u_bar", "u"},
    "descent": {"iterations", "step", "init", "init_scale", "init_seed"},
    "check": {"times", "states", "candidates", "groups", "se_multiplier", "boundary_bias"},
    "gradient_check": {"epsilons"},
    "bmo": {"source", "level", "n_max"},
    "tolerances": {"basis_degree", "truncation_radius", "ridge", "validation_samples"},
}

_CONSTANT_KEYS = (
    "alpha", "gamma", "L1", "L2", "L3", "f_y_sup", "Phi_sup",
    "b_x_sup", "b_u_sup", "sigma_u_sup", "Phi_x_sup",
)

_INLINE_KEYS = {
    "n", "d", "k", "x0", "b", "sigma", "f", "Phi", "domain",
    "domain_lower", "domain_upper", "domain_center", "domain_radius",
    "domain_normals", "domain_offsets", "sigma_x_sup", *_CONSTANT_KEYS,
}

_DEFAULT_CONTROLS = {
    "exponential_utility": ("[0.0]", "[0.5]"),
    "linear_quadratic": ("riccati", "[0.0]"),
    "bounded_tanh": ("[0.1]", "[0.5*tanh(x1)]"),
    "controlled_geometric": ("[0.0]", "[0.4]"),
}


@dataclass
class DescentParams:
    iterations: int = 25
    step: float = 0.5
    init: str = "zeros"
    init_scale: float = 0.5
    init_seed: int = 0


@dataclass
class CheckParams:
    times: int = 12
    states: int = 48
    candidates: int = 8
    groups: int = 8
    se_multiplier: float = 5.0
    boundary_bias: float = 0.5


@dataclass
class BmoParams:
    source: str = "backward"
    level: float = 0.3
    n_max: int = 3


@dataclass
class Overrides:
    basis_degree: int | None = None
    truncation_radius: float | None = None
    ridge: float | None = None
    validation_samples: int = 256


@dataclass
class ExperimentConfig:
    spec: ProblemSpec
    grid: TimeGrid
    M: int
    seed: int
    pipeline: str | None
    output_dir: str | None
    u_bar_source: str
    u_source: str
    descent: DescentParams
    check: CheckParams
    bmo: BmoParams
    gradient_epsilons: list
    overrides: Overrides
    family: str | None
    family_params: dict
    raw: dict = field(default_factory=dict)

    def control(self, which: str):
        source = self.u_bar_source if which == "u_bar" else self.u_source
        return build_control(source, self.spec, self.family, self.family_params)


def _float(section, key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", f"[{section}] {key}")


def _int(section, key, value):
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", f"[{section}] {key}")
    return out


def _numeric_list(section, key, value):
    try:
        ast = expr.parse_expression(value, (0, 0, 0))
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
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]", f"[{section}]")
        allowed = _SECTION_KEYS[section]
        if allowed is not None:
            for key in raw[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r}", f"[{section}] {key}")

    for required in ("problem", "grid", "monte_carlo"):
        if required not in raw:
            raise ConfigError(f"missing required section [{required}]", f"[{required}]")

    grid_sec = raw["grid"]
    for key in ("N", "T"):
        if key not in grid_sec:
            raise ConfigError(f"missing key {key}", f"[grid] {key}")
    n_steps = _int("grid", "N", grid_sec["N"])
    horizon = _float("grid", "T", grid_sec["T"])
    if n_steps < 1 or horizon <= 0:
        raise ConfigError("need N >= 1 and T > 0", "[grid]")
    grid = TimeGrid(n_steps, horizon)

    mc = raw["monte_carlo"]
    for key in ("M", "seed"):
        if key not in mc:
            raise ConfigError(f"missing key {key}", f"[monte_carlo] {key}")
    m_paths = _int("monte_carlo", "M", mc["M"])
    seed = _int("monte_carlo", "seed", mc["seed"])
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

    controls = raw.get("controls", {})
    default_bar, default_u = _DEFAULT_CONTROLS.get(family, ("[0.0]", "[0.0]"))
    u_bar_source = controls.get("u_bar", default_bar)
    u_source = controls.get("u", default_u)
    for which, source in (("u_bar", u_bar_source), ("u", u_source)):
        _validate_control_source(source, spec, family, which)

    descent = DescentParams()
    if "descent" in raw:
        sec = raw["descent"]
        if "iterations" in sec:
            descent.iterations = _int("descent", "iterations", sec["iterations"])
        if "step" in sec:
            descent.step = _float("descent", "step", sec["step"])
        if "init" in sec:
            if sec["init"] not in ("zeros", "random"):
                raise ConfigError("init must be zeros or random", "[descent] init")
            descent.init = sec["init"]
        if "init_scale" in sec:
            descent.init_scale = _float("descent", "init_scale", sec["init_scale"])
        if "init_seed" in sec:
            descent.init_seed = _int("descent", "init_seed", sec["init_seed"])

    check = CheckParams()
    if "check" in raw:
        sec = raw["check"]
        for key in ("times", "states", "candidates", "groups"):
            if key in sec:
                setattr(check, key, _int("check", key, sec[key]))
        for key in ("se_multiplier", "boundary_bias"):
            if key in sec:
                setattr(check, key, _float("check", key, sec[key]))

    bmo_params = BmoParams()
    if "bmo" in raw:
        sec = raw["bmo"]
        if "source" in sec:
            if sec["source"] not in ("backward", "constant"):
                raise ConfigError("source must be backward or constant", "[bmo] source")
            bmo_params.source = sec["source"]
        if "level" in sec:
            bmo_params.level = _float("bmo", "level", sec["level"])
        if "n_max" in sec:
            bmo_params.n_max = _int("bmo", "n_max", sec["n_max"])
            if bmo_params.n_max > 6:
                raise ConfigError("n_max must be <= 6", "[bmo] n_max")

    epsilons = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    if "gradient_check" in raw and "epsilons" in raw["gradient_check"]:
        epsilons = _numeric_list("gradient_check", "epsilons", raw["gradient_check"]["epsilons"])
        if len(epsilons) < 4 or any(not 0 < e <= 1 for e in epsilons):
            raise ConfigError("need >= 4 epsilons in (0, 1]", "[gradient_check] epsilons")

    overrides = Overrides()
    sec = raw.get("tolerances", {})
    for key, parse in (("basis_degree", _int), ("truncation_radius", _float), ("ridge", _float),
                       ("validation_samples", _int)):
        if key in sec:
            setattr(overrides, key, parse("tolerances", key, sec[key]))

    return ExperimentConfig(
        spec=spec,
        grid=grid,
        M=m_paths,
        seed=seed,
        pipeline=pipeline,
        output_dir=raw.get("output", {}).get("directory"),
        u_bar_source=u_bar_source,
        u_source=u_source,
        descent=descent,
        check=check,
        bmo=bmo_params,
        gradient_epsilons=epsilons,
        overrides=overrides,
        family=family,
        family_params=family_params,
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
            params[key] = _float("problem", key, value)
        if "T" in signature.parameters and "T" not in params:
            params["T"] = horizon
        spec = builder(**params)
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
    dims = tuple(_int("problem", key, section[key]) for key in ("n", "d", "k"))
    spec = build_expression_problem(
        n=dims[0],
        d=dims[1],
        k=dims[2],
        T=horizon,
        x0=_numeric_list("problem", "x0", section["x0"]),
        sources={key: section[key] for key in ("b", "sigma", "f", "Phi")},
        domain=_build_domain(section, dims[2]),
        constants=_build_constants(section, dims[1]),
    )
    return spec, None, {}


def _build_domain(section: dict, k: int):
    kind = section["domain"]
    if kind == "box":
        lower = _numeric_list("problem", "domain_lower", section.get("domain_lower", "[-1.0]" if k == 1 else ""))
        upper = _numeric_list("problem", "domain_upper", section.get("domain_upper", "[1.0]" if k == 1 else ""))
        if len(lower) != k or len(upper) != k:
            raise ConfigError(f"box bounds must have length k={k}", "[problem] domain_lower")
        return BoxDomain(tuple(lower), tuple(upper))
    if kind == "ball":
        center = _numeric_list("problem", "domain_center", section.get("domain_center", "[0.0]"))
        radius = _float("problem", "domain_radius", section.get("domain_radius", "1.0"))
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
    raise ConfigError(
        f"unknown domain kind {kind!r}; expected box, ball, or halfspace-intersection",
        "[problem] domain",
    )


def _build_constants(section: dict, d: int) -> AssumptionConstants:
    values = {}
    for key in _CONSTANT_KEYS:
        values[key] = _float("problem", key, section.get(key, "0.0"))
    sigma_x = _numeric_list("problem", "sigma_x_sup", section.get("sigma_x_sup", "[" + ", ".join(["0.0"] * d) + "]"))
    if len(sigma_x) != d:
        raise ConfigError(f"sigma_x_sup must have length d={d}", "[problem] sigma_x_sup")
    try:
        return AssumptionConstants(sigma_x_sup=tuple(sigma_x), **values)
    except ValueError as err:
        raise ConfigError(str(err), "[problem]")


def _parse_coefficient(source: str, dims, key: str):
    try:
        return expr.parse_expression(source, dims)
    except expr.ExpressionError as err:
        raise ConfigError(f"invalid expression: {err}", f"[problem] {key}")


def _vector_asts(ast, length: int, key: str):
    shape = expr.list_shape(ast)
    if shape == ():
        if length != 1:
            raise ConfigError(f"{key} must be a list of length {length}", f"[problem] {key}")
        return [ast]
    if len(shape) != 1 or shape[0] != length:
        raise ConfigError(f"{key} must be a list of length {length}", f"[problem] {key}")
    return list(ast.items)


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
    m = None
    for value in env.values():
        if isinstance(value, np.ndarray):
            m = value.shape[0]
            break
    if m is None:
        m = 1
    out = np.empty((m,) + shape)
    it = np.ndindex(shape) if shape else [()]
    for idx in it:
        node = asts
        for axis in idx:
            node = node[axis]
        value = expr.evaluate_expression(node, env)
        out[(slice(None),) + idx] = value
    return out


def build_expression_problem(n, d, k, T, x0, sources, domain, constants) -> ProblemSpec:
    """Wire a ProblemSpec from coefficient expressions; derivatives are
    obtained by symbolic differentiation of the parsed trees."""
    dims = (n, d, k)
    b_ast = _vector_asts(_parse_coefficient(sources["b"], dims, "b"), n, "b")
    sigma_ast = _matrix_asts(_parse_coefficient(sources["sigma"], dims, "sigma"), n, d, "sigma")
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

    coeffs = CoefficientSet(
        b=lambda t, x, u: _eval_to((n,), b_ast, _state_env(t, x, u)),
        sigma=lambda t, x, u: _eval_to((n, d), sigma_ast, _state_env(t, x, u)),
        f=lambda t, x, y, z, u: _eval_to((), f_ast, _state_env(t, x, u, y, z))[:],
        Phi=lambda x: _eval_to((), phi_ast, _state_env(0.0, x)),
        b_x=lambda t, x, u: _eval_to((n, n), b_x_ast, _state_env(t, x, u)),
        b_u=lambda t, x, u: _eval_to((n, k), b_u_ast, _state_env(t, x, u)),
        sigma_x=lambda t, x, u: _eval_to((d, n, n), sigma_x_ast, _state_env(t, x, u)),
        sigma_u=lambda t, x, u: _eval_to((d, n, k), sigma_u_ast, _state_env(t, x, u)),
        f_x=lambda t, x, y, z, u: _eval_to((n,), f_x_ast, _state_env(t, x, u, y, z)),
        f_y=lambda t, x, y, z, u: _eval_to((), f_y_ast, _state_env(t, x, u, y, z)),
        f_z=lambda t, x, y, z, u: _eval_to((d,), f_z_ast, _state_env(t, x, u, y, z)),
        f_u=lambda t, x, y, z, u: _eval_to((k,), f_u_ast, _state_env(t, x, u, y, z)),
        Phi_x=lambda x: _eval_to((n,), phi_x_ast, _state_env(0.0, x)),
    )
    x0_arr = np.asarray(x0, dtype=np.float64)
    if x0_arr.shape != (n,):
        raise ConfigError(f"x0 must have length n={n}", "[problem] x0")
    try:
        return ProblemSpec(n=n, d=d, k=k, T=T, x0=x0_arr, coeffs=coeffs, domain=domain, constants=constants)
    except ValueError as err:
        raise ConfigError(str(err), "[problem]")


def _validate_control_source(source: str, spec: ProblemSpec, family, which: str):
    if source == "riccati":
        if family != "linear_quadratic":
            raise ConfigError(
                "the riccati control is only available for the linear_quadratic family",
                f"[controls] {which}",
            )
        return
    try:
        ast = expr.parse_expression(source, (spec.n, 0, 0))
    except expr.ExpressionError as err:
        raise ConfigError(f"invalid control expression: {err}", f"[controls] {which}")
    shape = expr.list_shape(ast)
    length = shape[0] if shape else 1
    if length != spec.k:
        raise ConfigError(f"control must have k={spec.k} components", f"[controls] {which}")


def build_control(source: str, spec: ProblemSpec, family=None, family_params=None):
    """Materialise a [controls] entry into a feedback control."""
    if source == "riccati":
        return riccati_from_spec(family_params or {}).feedback()
    ast = expr.parse_expression(source, (spec.n, 0, 0))
    shape = expr.list_shape(ast)
    comps = list(ast.items) if shape else [ast]

    def fn(t, states):
        env = _state_env(t, states)
        out = np.empty((states.shape[0], spec.k))
        for j, comp in enumerate(comps):
            out[:, j] = expr.evaluate_expression(comp, env)
        return out

    return FeedbackControl(fn, k=spec.k)

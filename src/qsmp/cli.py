"""Command-line experiment driver.

Subcommands match the pipeline names: solve, adjoint, gradient-check,
descend, mp-check, bmo, constants. Every run writes a deterministic set of
artifacts (manifest, summary, result tables) into the output directory;
rerunning with the same configuration and seed reproduces them byte for
byte regardless of the number of worker processes (the checks run their
independent solves in forked workers, see :mod:`qsmp.smp`) and of the BLAS
thread count, which the environment sets before numpy loads
(``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``).

Exit codes: 0 success, 1 solver error, 2 configuration error,
3 inconclusive check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from .errors import ConfigError, QsmpError


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsmp",
        description="Forward-backward stochastic control experiments",
    )
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in _PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt",
                       help="result table format (manifest and summary are always written)")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except QsmpError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1


def _run(args) -> int:
    from . import config as config_mod

    cfg = config_mod.load_config(args.config)
    config_mod.check_pipeline(cfg, args.pipeline)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")
        cfg.seed = args.seed
    out_dir = args.out or cfg.output_dir
    if not out_dir:
        raise ConfigError("no output directory: set [output] directory or pass --out")
    os.makedirs(out_dir, exist_ok=True)

    with open(args.config, "rb") as handle:
        config_bytes = handle.read()

    runner = _PIPELINES[args.pipeline]
    exit_code, summary_lines, report, tables, extra = runner(cfg)

    _write_artifacts(
        out_dir=out_dir,
        fmt=args.fmt,
        pipeline=args.pipeline,
        cfg=cfg,
        config_bytes=config_bytes,
        summary_lines=summary_lines,
        report=report,
        tables=tables,
        extra_writers=extra,
    )
    return exit_code


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _json_safe(obj.item())
        except (AttributeError, ValueError):
            return str(obj)
    return obj


def _write_artifacts(out_dir, fmt, pipeline, cfg, config_bytes, summary_lines, report, tables, extra_writers):
    import numpy

    from . import __version__, storage

    manifest = {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "pipeline": pipeline,
        "seed": cfg.seed,
        "config": cfg.raw,
        "versions": {"qsmp": __version__, "numpy": numpy.__version__},
    }
    storage.atomic_write_text(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(_json_safe(manifest), sort_keys=True, indent=2) + "\n",
    )
    storage.atomic_write_text(os.path.join(out_dir, "summary.txt"), "\n".join(summary_lines) + "\n")
    if fmt == "json":
        storage.atomic_write_text(
            os.path.join(out_dir, f"{pipeline.replace('-', '_')}.json"),
            json.dumps(_json_safe(report), sort_keys=True, indent=2) + "\n",
        )
    else:
        for name, (header, rows) in tables.items():
            storage.write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    for writer in extra_writers:
        writer(out_dir)


def _setup(cfg):
    from . import paths
    from .bsde import RegressionBasis

    noise = paths.simulate_brownian(cfg.grid, cfg.M, cfg.spec.d, cfg.seed)
    basis = None
    if cfg.overrides.basis_degree is not None:
        basis = RegressionBasis(cfg.overrides.basis_degree)
    return noise, basis


def _fmt(value, digits=6):
    return f"{value:.{digits}g}"


def _pipeline_constants(cfg):
    from .model import derive_constants, validate_assumptions

    validation = validate_assumptions(cfg.spec, cfg.overrides.validation_samples, seed=cfg.seed)
    derived = derive_constants(cfg.spec)
    report = {"derived_constants": derived.to_dict(), "validation": validation.to_dict()}
    tables = {
        "constants": (
            ["name", "value"],
            [[k, float(v)] for k, v in derived.to_dict().items()],
        ),
        "validation": (
            ["name", "pass", "worst_ratio"],
            [[c.name, int(c.passed), c.worst_ratio] for c in validation.checks],
        ),
    }
    lines = [
        f"validation passed: {validation.passed}",
        f"alpha_tilde = {_fmt(derived.alpha_tilde)}",
        f"A = {_fmt(derived.A)}",
        f"p_bar = {_fmt(derived.p_bar, 17)}",
        f"p_bar_star = {_fmt(derived.p_bar_star)}",
        f"admissibility exponent 4*p_bar_star = {_fmt(derived.admissibility_exponent)}",
    ]
    return 0, lines, report, tables, []


def _pipeline_solve(cfg):
    import numpy as np

    from . import storage
    from .bsde import estimate_apriori_bound, solve_quadratic_bsde
    from .model import derive_constants
    from .paths import solve_forward_sde

    noise, basis = _setup(cfg)
    control = cfg.control("u_bar")
    forward = solve_forward_sde(cfg.spec, cfg.grid, noise, control)
    backward = solve_quadratic_bsde(
        cfg.spec, cfg.grid, noise, forward, basis=basis,
        truncation_radius=cfg.overrides.truncation_radius, ridge=cfg.overrides.ridge,
    )
    constants = derive_constants(cfg.spec)
    bound = estimate_apriori_bound(backward, constants, cfg.grid, forward, basis=basis, ridge=cfg.overrides.ridge)
    report = {
        "y0": backward.y0,
        "y0_se": backward.y0_standard_error,
        "bound": bound.to_dict(),
    }
    times = cfg.grid.times
    step_rows = [
        [float(times[i]), float(backward.Y[:, i].mean()), float(backward.Y[:, i].std()),
         float(np.abs(backward.Z[:, i]).mean())]
        for i in range(cfg.grid.N + 1)
    ]
    tables = {"solution_steps": (["t", "mean_Y", "std_Y", "mean_abs_Z"], step_rows)}
    lines = [
        f"Y0 = {_fmt(backward.y0)} +/- {_fmt(backward.y0_standard_error)}",
        f"sup|Y| = {_fmt(bound.sup_abs_y)}",
        f"bmo2 estimate = {_fmt(bound.bmo2_estimate)}",
        f"sup|Y| + bmo2^2 = {_fmt(bound.combined)} vs A = {_fmt(bound.ceiling)}"
        f" ({'holds' if bound.combined_passed else 'VIOLATED'})",
    ]

    def _write_container(out_dir):
        storage.save_solution(os.path.join(out_dir, "solution.qsmp"), cfg.grid, forward, backward)
        storage.export_paths_csv(os.path.join(out_dir, "paths_sample.csv"), cfg.grid, forward, backward)

    return 0, lines, report, tables, [_write_container]


def _pipeline_adjoint(cfg):
    import numpy as np

    from . import adjoint as adjoint_mod
    from .bmo import cumulate_log_exponential
    from .paths import shared_step_major, solve_forward_sde

    noise, basis = _setup(cfg)
    grid = cfg.grid
    forward = solve_forward_sde(cfg.spec, grid, noise, cfg.control("u_bar"))
    rows = [[float(t)] for t in grid.times]  # t, mean |p|, mean |q|, mean Gamma
    log_gamma = shared_step_major((noise.M, grid.N + 1))  # zeros, and the visit writes it

    def add_norms(i, p, q):
        rows[i] += [float(np.linalg.norm(p, axis=1).mean()), float(np.sqrt((q**2).sum(axis=(1, 2))).mean())]

    def visit(point):
        add_norms(point.i, point.p, point.q)
        log_gamma[:, point.i + 1] = adjoint_mod.gamma_log_increment(point, noise, grid.dt)

    _, adj = adjoint_mod.solve_state_and_costate(
        cfg.spec, grid, noise, forward, basis=basis,
        ridge=cfg.overrides.ridge, truncation_radius=cfg.overrides.truncation_radius, width=2, visit=visit,
    )
    add_norms(grid.N, adj.terminal, np.zeros_like(adj.q[:, 0]))  # no step solves step N, where q is zero
    gamma = cumulate_log_exponential(log_gamma, adjoint_mod.GAMMA_NAME)
    for i, row in enumerate(rows):
        row.append(float(gamma[:, i].mean()))
    report = {
        "p0_mean": [float(v) for v in adj.p[:, 0].mean(axis=0)],
        "gamma_terminal_mean": float(gamma[:, -1].mean()),
        "gamma_min": float(gamma.min()),
    }
    tables = {"adjoint_steps": (["t", "mean_p_norm", "mean_q_norm", "mean_gamma"], rows)}
    lines = [
        f"p0 mean = {report['p0_mean']}",
        f"E[Gamma_T] = {_fmt(report['gamma_terminal_mean'])}",
        f"min Gamma = {_fmt(report['gamma_min'])} (positivity {'holds' if report['gamma_min'] > 0 else 'VIOLATED'})",
    ]
    return 0, lines, report, tables, []


def _pipeline_gradient_check(cfg):
    from .smp import gateaux_check

    noise, basis = _setup(cfg)
    rep = gateaux_check(
        cfg.spec, cfg.grid, noise, cfg.control("u_bar"), cfg.control("u"),
        epsilons=cfg.gradient_epsilons, basis=basis,
    )
    report = rep.to_dict()
    tables = {
        "gradient_check": (
            ["epsilon", "quotient", "se"],
            [[e, q, s] for e, q, s in zip(rep.epsilons, rep.fd_slopes, rep.fd_slope_ses)],
        )
    }
    gap = abs(rep.extrapolated_intercept - rep.yhat0)
    lines = [
        f"extrapolated intercept = {_fmt(rep.extrapolated_intercept)} +/- {_fmt(rep.intercept_se)}",
        f"derivative (auxiliary solve) = {_fmt(rep.yhat0)} +/- {_fmt(rep.yhat0_se)}",
        f"derivative (weighted integral) = {_fmt(rep.yhat0_gamma)} +/- {_fmt(rep.yhat0_gamma_se)}",
        f"gap = {_fmt(gap)} vs 3 x combined se = {_fmt(3 * rep.intercept_gap_se())}",
        f"inconclusive: {rep.inconclusive}",
    ]
    return (3 if rep.inconclusive else 0), lines, report, tables, []


def _pipeline_descend(cfg):
    import numpy as np

    from . import storage
    from .smp import AffineFeedbackPolicy, projected_gradient_descent

    noise, basis = _setup(cfg)
    if cfg.descent.init == "zeros":
        policy = AffineFeedbackPolicy.zeros(cfg.grid, cfg.spec.n, cfg.spec.k, cfg.spec.domain)
    else:
        rng = np.random.default_rng([cfg.descent.init_seed, 0xD5])
        policy = AffineFeedbackPolicy.random(
            cfg.grid, cfg.spec.n, cfg.spec.k, cfg.spec.domain, rng, scale=cfg.descent.init_scale
        )
    result = projected_gradient_descent(
        cfg.spec, cfg.grid, noise, policy, cfg.descent.step, cfg.descent.iterations, basis=basis
    )
    report = {
        "final_cost": result.trace[-1].cost,
        "best_cost": min(row.cost for row in result.trace),
        "iterations": len(result.trace),
        "halted_on_divergence": result.halted_on_divergence,
    }
    tables = {
        "descent_trace": (
            ["iteration", "J", "stderr", "gradient_norm"],
            [[row.iteration, row.cost, row.cost_se, row.gradient_norm] for row in result.trace],
        )
    }
    lines = [
        f"iterations = {len(result.trace)}",
        f"final J = {_fmt(result.trace[-1].cost)} +/- {_fmt(result.trace[-1].cost_se)}",
        f"halted on divergence: {result.halted_on_divergence}",
    ]

    def _write_policy(out_dir):
        storage.save_container(
            os.path.join(out_dir, "policy.qsmp"),
            {"N": cfg.grid.N, "n": cfg.spec.n, "k": cfg.spec.k},
            {"offsets": result.policy.offsets, "gains": result.policy.gains},
        )

    return 0, lines, report, tables, [_write_policy]


def _pipeline_mp_check(cfg):
    from .smp import check_maximum_principle, replicate_group_size

    try:
        replicate_group_size(cfg.M, cfg.check.groups)
    except ValueError as err:
        raise ConfigError(f"{err} with [monte_carlo] M = {cfg.M}", "[check] groups") from None
    noise, basis = _setup(cfg)
    rep = check_maximum_principle(
        cfg.spec, cfg.grid, noise, cfg.control("u_bar"),
        n_times=cfg.check.times, n_states=cfg.check.states,
        n_candidates=cfg.check.candidates, groups=cfg.check.groups,
        se_multiplier=cfg.check.se_multiplier, boundary_bias=cfg.check.boundary_bias,
        basis=basis, seed=cfg.seed,
    )
    report = rep.to_dict()
    tables = {
        "mp_check": (
            ["time_index", "min_inner"],
            [[i, v] for i, v in enumerate(rep.per_time_min)],
        )
    }
    lines = [
        f"min inner product = {_fmt(rep.min_inner)}",
        f"violation fraction = {_fmt(rep.violation_fraction)} over {rep.n_samples} samples",
        f"tolerance = {rep.se_multiplier} pointwise standard errors",
    ]
    return 0, lines, report, tables, []


def _pipeline_bmo(cfg):
    from .bmo import bmo_report
    from .bsde import solve_quadratic_bsde
    from .paths import solve_forward_sde, step_major

    noise, basis = _setup(cfg)
    if cfg.bmo.source == "backward":
        forward = solve_forward_sde(cfg.spec, cfg.grid, noise, cfg.control("u_bar"))
        backward = solve_quadratic_bsde(
            cfg.spec, cfg.grid, noise, forward, basis=basis,
            truncation_radius=cfg.overrides.truncation_radius, ridge=cfg.overrides.ridge,
        )
        integrand = backward.Z[:, : cfg.grid.N, :]
        features = forward.states
    else:
        integrand = step_major((cfg.M, cfg.grid.N, cfg.spec.d), fill=cfg.bmo.level)
        features = None
    rep = bmo_report(
        integrand, cfg.grid, features=features, basis=basis, n_max=cfg.bmo.n_max, ridge=cfg.overrides.ridge
    )
    report = rep.to_dict()
    tables = {
        "energy_checks": (
            ["n", "lhs", "rhs", "margin"],
            [[row.n, row.lhs, row.rhs, row.rhs - row.lhs] for row in rep.energy_checks],
        )
    }
    lines = [
        f"bmo2 estimate = {_fmt(rep.bmo2_estimate)} (99.9% variant {_fmt(rep.bmo2_quantile_estimate)})",
        f"p_M = {_fmt(rep.p_M, 17)}  p_M* = {_fmt(rep.p_M_star)}",
        f"reverse Hoelder K({_fmt(rep.reverse_holder_p)}) = "
        + (_fmt(rep.reverse_holder_K) if rep.reverse_holder_K is not None else "undefined"),
        "energy inequality: " + ("all pass" if all(r.passed for r in rep.energy_checks) else "FAILURES"),
    ]
    return 0, lines, report, tables, []


_PIPELINES = {
    "solve": _pipeline_solve,
    "adjoint": _pipeline_adjoint,
    "gradient-check": _pipeline_gradient_check,
    "descend": _pipeline_descend,
    "mp-check": _pipeline_mp_check,
    "bmo": _pipeline_bmo,
    "constants": _pipeline_constants,
}


if __name__ == "__main__":
    sys.exit(main())

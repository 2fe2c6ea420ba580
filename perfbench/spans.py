"""In-process span recorder for the traced pass of the benchmark.

The launcher installs it inside one CLI process. It wraps the public
functions of each ``qsmp`` layer from the outside (the package itself is not
edited), keeps every aggregate in memory, and hands one summary back when the
process ends.

Self time of a span is its duration minus the time its child spans cover.
The recorder's own bookkeeping (counting, hashing state samples) runs outside
the timed interval of the span that caused it and is charged to no span, so
it shows up in the benchmark's ``cli.other_s`` and never in a layer's
``self_s``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Layer names are module names.
FUNCTIONS = (
    ("paths", "simulate_brownian", "paths.simulate_brownian"),
    ("paths", "solve_forward_sde", "paths.solve_forward_sde"),
    ("bsde", "solve_quadratic_bsde", "bsde.solve_quadratic_bsde"),
    ("bsde", "solve_linear_bsde", "bsde.solve_linear_bsde"),
    ("bsde", "estimate_apriori_bound", "bsde.estimate_apriori_bound"),
    ("adjoint", "solve_adjoint", "adjoint.solve_adjoint"),
    ("adjoint", "optimality_weight", "adjoint.optimality_weight"),
    ("adjoint", "gamma_process", "adjoint.gamma_process"),
    ("adjoint", "solve_auxiliary", "adjoint.solve_auxiliary"),
    ("smp", "gateaux_check", "smp.gateaux_check"),
    ("smp", "projected_gradient_descent", "smp.projected_gradient_descent"),
    ("smp", "check_maximum_principle", "smp.check_maximum_principle"),
    ("bmo", "estimate_bmo2", "bmo.estimate_bmo2"),
    ("bmo", "bmo_report", "bmo.bmo_report"),
    ("model", "validate_assumptions", "model.validate_assumptions"),
    ("families", "solve_lq_riccati", "families.solve_lq_riccati"),
    ("storage", "atomic_write_bytes", "storage.atomic_write_bytes"),
    ("storage", "atomic_write_text", "storage.atomic_write_text"),
    ("storage", "save_container", "storage.save_container"),
    ("storage", "save_solution", "storage.save_solution"),
    ("storage", "write_csv", "storage.write_csv"),
    ("storage", "export_paths_csv", "storage.export_paths_csv"),
)

_DERIVATIVES = ("b_x", "b_u", "sigma_x", "sigma_u", "f_x", "f_y", "f_z", "f_u", "Phi_x")


class Tracer:
    """Aggregates spans by name: self time, call count and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.distinct = defaultdict(set)
        self._stack = []  # one [name, seconds covered by children] per open span

    def call(self, name, fn, args=(), kwargs=None, after=None):
        """Runs ``fn`` inside a span; ``after(tracer, parent_name, args,
        result)`` runs once it returns, outside the timed interval."""
        enter = self.clock()
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        try:
            start = self.clock()
            try:
                result = fn(*args, **(kwargs or {}))
            finally:
                end = self.clock()
                self._stack.pop()
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
            if after is not None:
                after(self, parent[0] if parent else None, args, result)
            return result
        finally:
            if parent is not None:
                parent[1] += self.clock() - enter

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        return traced

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts.update({name: len(keys) for name, keys in self.distinct.items()})
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": counts}


def _qsmp_modules():
    return [mod for name, mod in sys.modules.items() if name == "qsmp" or name.startswith("qsmp.")]


def patch_function(tracer, module_name, attr, span, after=None):
    """Rebinds ``attr`` in every loaded ``qsmp`` module that holds it, since
    the modules import each other's functions with ``from .x import y``.
    A function the package no longer has is left untraced."""
    original = getattr(sys.modules.get(f"qsmp.{module_name}"), attr, None)
    if original is None:
        return
    traced = tracer.wrap(span, original, after)
    for mod in _qsmp_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _after_build(tracer, parent, args, result):
    import numpy as np

    reg = args[0]
    states = np.ascontiguousarray(args[2], dtype=np.float64)
    m_paths, n_feat = reg.features.shape
    key = hashlib.blake2b(states.tobytes(), digest_size=16)
    key.update(repr(states.shape).encode())
    tracer.distinct["regression.unique_state_sets"].add(key.digest())
    # Computed from array shapes: Gram (2 M F^2), Cholesky (F^3 / 3); bytes
    # read from the states and written and read back as the feature matrix.
    tracer.counts["regression.gram_flops"] += 2 * m_paths * n_feat**2 + n_feat**3 / 3
    tracer.counts["regression.bytes"] += states.nbytes + 2 * reg.features.nbytes


def _after_fit(tracer, parent, args, result):
    import numpy as np

    reg, targets = args[0], np.asarray(args[1])
    m_paths, n_feat = reg.features.shape
    cols = 1 if targets.ndim == 1 else targets.shape[1]
    tracer.counts["regression.fit.cols"] += cols
    # Moment (2 M F K), two triangular-by-LU solves (4/3 F^3 + 4 F^2 K) and the
    # fitted values (2 M F K); bytes: features read twice, targets in, fit out.
    tracer.counts["regression.fit_flops"] += 4 * m_paths * n_feat * cols + 4 * n_feat**3 / 3 + 4 * n_feat**2 * cols
    tracer.counts["regression.bytes"] += 2 * reg.features.nbytes + 2 * m_paths * cols * 8


def _after_forward(tracer, parent, args, result):
    m_paths, steps_plus_one = result.states.shape[:2]
    tracer.counts["paths.path_steps"] += m_paths * (steps_plus_one - 1)


def _after_backward(tracer, parent, args, result):
    tracer.counts["bsde.steps"] += result.Y.shape[1] - 1


def instrument(tracer):
    """Wraps the public functions of every layer. Call after every ``qsmp``
    module is imported."""
    from qsmp import regression

    hooks = {
        "paths.solve_forward_sde": _after_forward,
        "bsde.solve_quadratic_bsde": _after_backward,
    }
    for module_name, attr, span in FUNCTIONS:
        patch_function(tracer, module_name, attr, span, hooks.get(span))
    for cls, attr, span, after in (
        ("StepRegressor", "__init__", "regression.build", _after_build),
        ("StepRegressor", "fit", "regression.fit", _after_fit),
        ("StepFit", "evaluate", "regression.evaluate", None),
    ):
        owner = getattr(regression, cls, None)
        if owner is not None:
            setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), after))


def _after_coefficient(name):
    def count(tracer, parent, args, result):
        tracer.counts["model.coeff_evals"] += 1
        if name == "f" and parent == "bsde.solve_quadratic_bsde":
            tracer.counts["bsde.generator_evals"] += 1
        if name in _DERIVATIVES and parent is not None and parent.startswith("adjoint."):
            tracer.counts["adjoint.derivative_evals"] += 1

    return count


def instrument_coefficients(tracer, cfg):
    """Replaces the loaded problem's coefficient callables with traced ones
    (``dataclasses.replace`` on the frozen spec)."""
    import dataclasses

    coeffs = cfg.spec.coeffs
    traced = {
        field.name: tracer.wrap(f"model.coeff.{field.name}", getattr(coeffs, field.name), _after_coefficient(field.name))
        for field in dataclasses.fields(coeffs)
    }
    cfg.spec = dataclasses.replace(cfg.spec, coeffs=dataclasses.replace(coeffs, **traced))


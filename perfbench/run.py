"""Benchmark of the ``qsmp`` command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It runs the shipped ``configs/*.cfg``
through ``qsmp.cli`` one fresh process at a time (a closed loop with a single
client: the next process starts only after the previous one exits), passes
``--seed N`` to every invocation, and checks every result (see
``oracles.py``). BLAS threads stay at their default.

Timing starts after 3 s of untimed warm-up invocations. ``--trace 0``
repeats the workload for about S seconds and reports the
end-to-end metrics as medians over the repetitions. ``--trace 1`` runs the
workload untraced for about S/2 seconds, then once with the span recorder of
``spans.py``, once single-threaded, and then the M-scaling diagnostic; it
reports the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

# Workload -> (pipeline, config stem) invocations, run in this order.
WORKLOADS = {
    # Regression- and adjoint-bound: 8000 Gram/Cholesky builds on 3981 state sets.
    "descend": (("descend", "lq_descend"),),
    # Regression at moderate and small M (six quadratic chains, eight 2,500-path groups).
    "checks": (("gradient-check", "exp_utility_gradient_check"), ("mp-check", "lq_mp_check")),
    # Start-up, config/expression parsing, storage and BMO: about half is set-up.
    "short_runs": (
        ("constants", "tanh_constants"),
        ("solve", "exp_utility_solve"),
        ("solve", "inline_quadratic"),
        ("adjoint", "tanh_adjoint"),
        ("bmo", "tanh_bmo"),
    ),
}
SCALING = (("solve", "exp_utility_solve"), ("adjoint", "tanh_adjoint"))
SCALING_M = (5000, 20000, 80000)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WARM_UP_S = 3.0
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    pipeline: str
    config: str
    code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    rss_mb: float
    digest: str
    bytes_written: int
    files_written: int
    manifest_seed: int | None
    trace: dict | None
    failure: str | None = None

    @property
    def label(self):
        return f"{self.pipeline}:{self.config}"


@dataclass
class Bench:
    root: str
    work: str
    seed: int
    deadline: float
    reference: dict = field(default_factory=dict)
    invocations: list = field(default_factory=list)

    def invoke(self, pipeline, config_path, trace=False, env=None, gated=True) -> Invocation:
        """One CLI process into a fresh output directory. Hashing the
        artifacts and removing the directory happen after the timed window."""
        inv_dir = tempfile.mkdtemp(dir=self.work)
        out_dir = os.path.join(inv_dir, "out")
        report_path = os.path.join(inv_dir, "report.json")
        cmd = [
            sys.executable, os.path.join(HERE, "launch.py"), report_path, "1" if trace else "0", "--",
            pipeline, "--config", config_path, "--seed", str(self.seed), "--out", out_dir,
        ]
        child_env = dict(os.environ, **(env or {}))
        child_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(self.root, "src"), os.environ.get("PYTHONPATH")) if p
        )
        with open(os.path.join(inv_dir, "stdout"), "wb") as out, open(os.path.join(inv_dir, "stderr"), "wb") as err:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.Popen(cmd, cwd=self.root, env=child_env, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end_ns = time.monotonic_ns()
        proc.returncode = code = os.waitstatus_to_exitcode(status)

        report = json.loads(_read_text(report_path) or "{}")
        digest, n_bytes, n_files = _hash_tree(out_dir)
        summary = _read_text(os.path.join(out_dir, "summary.txt"))
        manifest = json.loads(_read_text(os.path.join(out_dir, "manifest.json")) or "{}")
        stderr_tail = _read_text(os.path.join(inv_dir, "stderr"))[-400:]
        shutil.rmtree(inv_dir)

        config = os.path.splitext(os.path.basename(config_path))[0]
        inv = Invocation(
            pipeline=pipeline,
            config=config,
            code=code,
            wall_s=(end_ns - spawn_ns) / 1e9,
            setup_s=(report["ready_ns"] - spawn_ns) / 1e9 if "ready_ns" in report else 0.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            digest=digest,
            bytes_written=n_bytes,
            files_written=n_files,
            manifest_seed=manifest.get("seed"),
            trace=report.get("trace"),
        )
        if code != 0:
            inv.failure = f"exit code {code}" + (" (inconclusive)" if code == 3 else "") + f": {stderr_tail.strip()}"
        elif inv.manifest_seed != self.seed:
            inv.failure = f"manifest.json records seed {inv.manifest_seed}, not --seed {self.seed}"
        elif gated:
            inv.failure = oracles.GATES[config](summary)
            first = self.reference.setdefault(inv.label, digest)
            if inv.failure is None and digest != first:
                inv.failure = "artifacts hash differently from the first run of this seed"
        self.invocations.append(inv)
        return inv

    def run_workload(self, workload, trace=False, env=None) -> list:
        return [
            self.invoke(pipeline, os.path.join(self.root, "configs", f"{config}.cfg"), trace=trace, env=env)
            for pipeline, config in WORKLOADS[workload]
        ]

    def warm_up(self, seconds=WARM_UP_S):
        """Untimed short invocations before any timing: the first processes
        after an idle spell run up to 40% slower (cold caches, clock ramp)."""
        config = os.path.join(self.root, "configs", "tanh_constants.cfg")
        start = time.monotonic()
        while time.monotonic() - start < seconds:
            self.invoke("constants", config)

    def repeat(self, workload, seconds) -> list:
        """Untraced repetitions for about ``seconds``: a repetition starts only
        if the mean so far says it ends in time, and at least one runs."""
        reps = []
        start = time.monotonic()
        while True:
            reps.append(self.run_workload(workload))
            elapsed = time.monotonic() - start
            if elapsed * (len(reps) + 1) / len(reps) > seconds or time.monotonic() > self.deadline - 60:
                return reps


def _read_text(path) -> str:
    if not os.path.exists(path):
        return ""
    with open(path, errors="replace") as handle:
        return handle.read()


def _hash_tree(directory):
    """sha256 over every artifact (relative path and content), with the total
    byte and file counts."""
    digest = hashlib.sha256()
    n_bytes = n_files = 0
    if not os.path.isdir(directory):
        return "", 0, 0
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
                    n_bytes += len(block)
            n_files += 1
    return digest.hexdigest(), n_bytes, n_files


def rep_totals(rep) -> dict:
    """End-to-end metrics of one repetition, summed or maxed over its processes."""
    return {
        "wall_s": sum(inv.wall_s for inv in rep),
        "setup_s": sum(inv.setup_s for inv in rep),
        "cpu_s": sum(inv.cpu_s for inv in rep),
        "peak_rss_mb": max(inv.rss_mb for inv in rep),
    }


def end_to_end(reps) -> dict:
    totals = [rep_totals(rep) for rep in reps]
    return {name: statistics.median(t[name] for t in totals) for name in E2E_UNITS}


# Per-layer metrics: name -> unit. Every traced run reports all of them.
LAYER_UNITS = {
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_qsmp_s": "s",
    "config.load_config.self_s": "s",
    "paths.simulate_brownian.self_s": "s",
    "paths.solve_forward_sde.calls": "count",
    "paths.solve_forward_sde.self_s": "s",
    "paths.path_steps": "count",
    "regression.build.calls": "count",
    "regression.build.self_s": "s",
    "regression.fit.calls": "count",
    "regression.fit.cols": "count",
    "regression.fit.self_s": "s",
    "regression.evaluate.self_s": "s",
    "regression.unique_state_sets": "count",
    "regression.build_reuse": "ratio",
    "regression.gram_flops": "flop",
    "regression.fit_flops": "flop",
    "regression.bytes": "B",
    "bsde.solve_quadratic_bsde.calls": "count",
    "bsde.solve_quadratic_bsde.self_s": "s",
    "bsde.solve_linear_bsde.self_s": "s",
    "bsde.estimate_apriori_bound.self_s": "s",
    "bsde.generator_evals_per_step": "count",
    "adjoint.solve_adjoint.self_s": "s",
    "adjoint.optimality_weight.self_s": "s",
    "adjoint.gamma_process.self_s": "s",
    "adjoint.solve_auxiliary.self_s": "s",
    "adjoint.derivative_evals": "count",
    "smp.self_s": "s",
    "bmo.estimate_bmo2.self_s": "s",
    "bmo.bmo_report.self_s": "s",
    "model.coeff_evals": "count",
    "model.coeff_s": "s",
    "model.validate_assumptions.self_s": "s",
    "storage.bytes_written": "B",
    "storage.files_written": "count",
    "storage.self_s": "s",
    "families.solve_lq_riccati.self_s": "s",
    "cli.other_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "threads1.wall_s": "s",
    "threads1.hash_mismatches": "count",
}
for _pipeline, _config in SCALING:
    for _m in SCALING_M:
        LAYER_UNITS[f"scaling.{_pipeline}.M{_m}.regression_ns"] = "ns/path-step"
        LAYER_UNITS[f"scaling.{_pipeline}.M{_m}.self_ns"] = "ns/path-step"

_SETUP_SPANS = ("setup.import_numpy", "setup.import_scipy", "setup.import_qsmp", "config.load_config")
_REGRESSION_SPANS = ("regression.build", "regression.fit", "regression.evaluate")


def merge_traces(invocations) -> dict:
    self_s, calls, counts = {}, {}, {}
    for inv in invocations:
        for into, part in ((self_s, "self_s"), (calls, "calls"), (counts, "counts")):
            for name, value in inv.trace[part].items():
                into[name] = into.get(name, 0) + value
    return {"self_s": self_s, "calls": calls, "counts": counts}


def layer_metrics(traced, untraced_wall_s) -> dict:
    """Per-layer metrics of one traced repetition. ``<span>.self_s`` and
    ``<span>.calls`` come straight from the spans, other names from the
    counters, except the derived ones below."""
    t = merge_traces(traced)
    s, calls, counts = t["self_s"], t["calls"], t["counts"]

    def total(prefix):
        return sum(v for k, v in s.items() if k.startswith(prefix))

    wall = sum(inv.wall_s for inv in traced)
    builds = calls.get("regression.build", 0)
    steps = counts.get("bsde.steps", 0)
    out = {
        "setup.import_numpy_s": s.get("setup.import_numpy", 0.0),
        "setup.import_scipy_s": s.get("setup.import_scipy", 0.0),
        "setup.import_qsmp_s": s.get("setup.import_qsmp", 0.0),
        "regression.build_reuse": counts.get("regression.unique_state_sets", 0) / builds if builds else 0.0,
        "bsde.generator_evals_per_step": counts.get("bsde.generator_evals", 0) / steps if steps else 0.0,
        "smp.self_s": total("smp."),
        "model.coeff_s": total("model.coeff."),
        "storage.self_s": total("storage."),
        "storage.bytes_written": sum(inv.bytes_written for inv in traced),
        "storage.files_written": sum(inv.files_written for inv in traced),
        "cli.other_s": wall - sum(s.values()),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall - untraced_wall_s,
    }
    for name in LAYER_UNITS:
        if name in out or name.startswith(("threads1.", "scaling.")):
            continue
        if name.endswith(".self_s"):
            out[name] = s.get(name.removesuffix(".self_s"), 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name.removesuffix(".calls"), 0)
        else:
            out[name] = counts.get(name, 0)
    return out


def per_path_step(inv) -> tuple:
    """(regression self ns, total pipeline self ns) per simulated path-step."""
    s = inv.trace["self_s"]
    steps = inv.trace["counts"].get("paths.path_steps", 0) or 1
    regression = sum(s.get(name, 0.0) for name in _REGRESSION_SPANS)
    pipeline = sum(v for k, v in s.items() if k not in _SETUP_SPANS)
    return regression / steps * 1e9, pipeline / steps * 1e9


def scaling_configs(bench) -> list:
    """Copies of the shipped configs at each M, written into the work directory."""
    made = []
    for pipeline, config in SCALING:
        with open(os.path.join(bench.root, "configs", f"{config}.cfg")) as handle:
            text = handle.read()
        for m in SCALING_M:
            scaled, n = re.subn(r"^M\s*=.*$", f"M = {m}", text, flags=re.MULTILINE)
            if n != 1:
                raise SystemExit(f"perfbench: cannot set M in configs/{config}.cfg")
            path = os.path.join(bench.work, f"{config}_M{m}.cfg")
            with open(path, "w") as handle:
                handle.write(scaled)
            made.append((pipeline, m, path))
    return made


def traced_pass(bench, workload, seconds) -> dict:
    reps = bench.repeat(workload, seconds / 2)
    untraced_wall = end_to_end(reps)["wall_s"]
    traced = bench.run_workload(workload, trace=True)
    metrics = layer_metrics(traced, untraced_wall)

    single = bench.run_workload(workload, env={var: "1" for var in THREAD_VARS})
    metrics["threads1.wall_s"] = sum(inv.wall_s for inv in single)
    metrics["threads1.hash_mismatches"] = sum(
        inv.digest != bench.reference[inv.label] for inv in single
    )

    scaling = []
    for pipeline, m, path in scaling_configs(bench):
        inv = bench.invoke(pipeline, path, trace=True, gated=False)
        regression_ns, self_ns = per_path_step(inv) if inv.trace else (0.0, 0.0)
        metrics[f"scaling.{pipeline}.M{m}.regression_ns"] = regression_ns
        metrics[f"scaling.{pipeline}.M{m}.self_ns"] = self_ns
        scaling.append((pipeline, m, inv, regression_ns, self_ns))

    print(f"# traced pass of {workload}: per invocation (self time in s)")
    for inv in traced:
        selfs = sorted(inv.trace["self_s"].items(), key=lambda kv: -kv[1])[:6]
        top = ", ".join(f"{k}={v:.3f}" for k, v in selfs)
        print(f"#   {inv.label}: wall {inv.wall_s:.3f} setup {inv.setup_s:.3f} | {top}")
    layers = sum(v for k, v in merge_traces(traced)["self_s"].items())
    print(
        f"# self times {layers:.4f} s + cli.other_s {metrics['cli.other_s']:.4f} s"
        f" = traced wall {metrics['trace.wall_s']:.4f} s; untraced median {untraced_wall:.4f} s,"
        f" overhead {metrics['trace.overhead_s']:.4f} s"
    )
    for inv_single in single:
        same = inv_single.digest == bench.reference[inv_single.label]
        print(f"#   1 thread {inv_single.label}: wall {inv_single.wall_s:.3f} s, artifacts {'identical' if same else 'DIFFER'}")
    print(f"# single-thread wall {metrics['threads1.wall_s']:.3f} s vs default {untraced_wall:.3f} s")
    for pipeline, m, inv, regression_ns, self_ns in scaling:
        print(f"# scaling {pipeline} M={m}: wall {inv.wall_s:.3f} s, regression {regression_ns:.1f} ns"
              f" and pipeline self {self_ns:.1f} ns per path-step")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38, help="as run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.monotonic()
    root = os.getcwd()
    needed = [os.path.join(root, "src", "qsmp", "cli.py")] + [
        os.path.join(root, "configs", f"{config}.cfg") for _, config in WORKLOADS[args.workload]
    ]
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        print(f"perfbench: run from the root of a qsmp checkout; missing {missing[0]}", file=sys.stderr)
        return 2

    # Compile the package's bytecode once, untimed: users pay that only on a
    # first run, and the first timed process would otherwise pay it here.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")], check=True,
                   stdout=subprocess.DEVNULL)
    work_base = os.path.join(root, ".perfbench_work")
    os.makedirs(work_base, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_base)
    bench = Bench(root=root, work=work, seed=args.seed, deadline=started + DEADLINE_S)
    try:
        bench.warm_up()
        if args.trace:
            metrics = traced_pass(bench, args.workload, args.seconds)
            units = LAYER_UNITS
        else:
            reps = bench.repeat(args.workload, args.seconds)
            metrics = end_to_end(reps)
            units = E2E_UNITS
            for i, rep in enumerate(reps):
                totals = rep_totals(rep)
                print(f"# rep {i}: " + ", ".join(f"{k} {v:.4f}" for k, v in totals.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_base):
            os.rmdir(work_base)

    failed = [inv for inv in bench.invocations if inv.failure]
    attempted = len(bench.invocations)
    for inv in failed:
        print(f"# FAILED {inv.label}: {inv.failure}")
    print(f"# {args.workload} seed {args.seed}: {attempted} invocations, {len(failed)} failed,"
          f" fail_rate {len(failed) / attempted:.4f} ratio")
    for name, unit in units.items():
        print(f"#   {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qsmp import bmo, cli, config, storage
from qsmp.errors import ConfigError
from qsmp.regression import RegressionBasis

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
[problem]
family = exponential_utility

[grid]
N = 20
T = 1.0

[monte_carlo]
M = 500
seed = 3
"""


TINY_DESCEND = """
[problem]
family = linear_quadratic

[grid]
N = 20
T = 1.0

[monte_carlo]
M = 3000
seed = 3

[descent]
iterations = 3
step = 0.5

[tolerances]
basis_degree = 2
"""

TINY_GRADIENT_CHECK = BASE.replace("M = 500", "M = 2000") + "\n[controls]\nu_bar = [0.0]\nu = [1.0]\n"

# Regressions on 12000 paths per step (mp-check's replicate groups: 1500), so
# the BLAS products are compared at 1 and 2 threads at both sizes.
TINY_MP_CHECK = """
[problem]
family = linear_quadratic

[grid]
N = 10
T = 1.0

[monte_carlo]
M = 12000
seed = 3

[controls]
u_bar = riccati

[tolerances]
basis_degree = 2
"""

TINY_BMO = """
[problem]
family = bounded_tanh

[grid]
N = 10
T = 1.0

[monte_carlo]
M = 12000
seed = 3

[bmo]
source = backward
n_max = 3
"""

# [tolerances] keys that a pipeline does not use, and must reject.
UNUSED_TOLERANCES = [
    (pipeline, key)
    for pipeline in ("gradient-check", "descend", "mp-check", "constants")
    for key in ("ridge", "truncation_radius")
] + [
    (pipeline, "validation_samples")
    for pipeline in ("solve", "adjoint", "gradient-check", "descend", "mp-check", "bmo")
]


class TestConfigParsing:
    def test_family_config(self, tmp_path):
        cfg = config.load_config(write(tmp_path, BASE))
        assert cfg.spec.n == 1 and cfg.M == 500 and cfg.seed == 3
        assert cfg.family == "exponential_utility"

    def test_family_parameter_forwarding(self, tmp_path):
        cfg = config.load_config(write(tmp_path, BASE.replace(
            "family = exponential_utility", "family = exponential_utility\ngamma = 0.5")))
        assert cfg.spec.constants.gamma == 0.5

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, BASE + "\n[wat]\nx = 1\n"))
        assert "[wat]" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, BASE + "\n[grid]\n"))
        # duplicate section is a parse error too
        assert "parse" in str(err.value) or "grid" in str(err.value)

    def test_missing_section_rejected(self, tmp_path):
        text = BASE.replace("[monte_carlo]\nM = 500\nseed = 3", "")
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, text))
        assert "monte_carlo" in str(err.value)

    def test_bad_number_located(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, BASE.replace("M = 500", "M = lots")))
        assert "[monte_carlo] M" in str(err.value)

    def test_bad_pipeline_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            config.load_config(write(tmp_path, BASE + "\n[pipeline]\nkind = warp\n"))

    def test_horizon_mismatch_rejected(self, tmp_path):
        text = BASE.replace("family = exponential_utility",
                            "family = linear_quadratic\nT = 2.0")
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, text))
        assert "horizon" in str(err.value)

    def test_control_expression_dimension_checked(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, BASE + "\n[controls]\nu = [1, 2]\n"))
        assert "k=1" in str(err.value)

    def test_riccati_control_only_for_lq(self, tmp_path):
        with pytest.raises(ConfigError):
            config.load_config(write(tmp_path, BASE + "\n[controls]\nu_bar = riccati\n"))

    def test_inline_problem(self):
        cfg = config.load_config(os.path.join(CONFIG_DIR, "inline_quadratic.cfg"))
        assert cfg.family is None
        assert cfg.spec.constants.gamma == 1.0
        ctrl = cfg.control("u_bar")
        values = ctrl.values(0, 0.0, np.zeros((4, 1)))
        assert values.shape == (4, 1)

    def test_inline_bad_expression_located(self, tmp_path):
        text = """
[problem]
n = 1
d = 1
k = 1
x0 = [0.0]
b = [u1*(]
sigma = [[1.0]]
f = 0
Phi = 0
domain = box
domain_lower = [-1]
domain_upper = [1]
gamma = 1.0

[grid]
N = 5
T = 1.0

[monte_carlo]
M = 10
seed = 0
"""
        with pytest.raises(ConfigError) as err:
            config.load_config(write(tmp_path, text))
        assert "[problem] b" in str(err.value)
        assert "column" in str(err.value)

    def test_shipped_configs_all_parse(self):
        for name in sorted(os.listdir(CONFIG_DIR)):
            if name.endswith(".cfg"):
                config.load_config(os.path.join(CONFIG_DIR, name))


MALFORMED = [
    "",  # empty
    "[problem]\nfamily = exponential_utility\n",  # missing sections
    BASE + "\n[descent]\niterations = -nope\n",
    BASE + "\n[check]\ngroups = 2.5\n",
    BASE.replace("N = 20", "N = 0"),
    BASE.replace("seed = 3", "seed = -1"),
    BASE + "\n[bmo]\nsource = sideways\n",
    BASE + "\n[gradient_check]\nepsilons = [2.0, 1.0, 0.5, 0.25]\n",
    BASE + "\n[tolerances]\nbasis_degree = eleventy\n",
    "[problem]\nn = 1\nd = 1\nk = 1\n" + BASE.split("[grid]")[1].join(["[grid]", ""]),
    "=\n",
    "[problem\nfamily = exponential_utility\n",
]


class TestConfigRejection:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_configs_raise_config_error(self, tmp_path, text):
        with pytest.raises(ConfigError):
            config.load_config(write(tmp_path, text))

    def test_fuzzed_mutations_never_crash(self, tmp_path):
        rng = np.random.default_rng(99)
        lines = BASE.strip().split("\n")
        mutations = ["[", "]", "=", "==", "#", "\x00", "familyfamily", "1e999", "-", "..", "[more]"]
        for i in range(200):
            mutated = list(lines)
            for _ in range(int(rng.integers(1, 4))):
                idx = int(rng.integers(0, len(mutated)))
                mutated[idx] = mutated[idx] + str(rng.choice(mutations))
            path = write(tmp_path, "\n".join(mutated), name=f"fuzz{i}.cfg")
            try:
                config.load_config(path)
            except ConfigError:
                pass  # rejection is the expected outcome; crashes are not


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_constants_pipeline(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "constants", "--config", os.path.join(CONFIG_DIR, "tanh_constants.cfg"),
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pipeline"] == "constants"
        assert "config_sha256" in manifest
        rows = (out / "constants.csv").read_text().strip().split("\n")
        names = {line.split(",")[0] for line in rows[1:]}
        assert {"alpha_tilde", "A", "p_bar", "p_bar_star", "admissibility_exponent"} <= names

    def test_solve_pipeline_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "solve", "--config", os.path.join(CONFIG_DIR, "inline_quadratic.cfg"),
            "--out", str(out),
        ])
        assert code == 0
        for artifact in ("manifest.json", "summary.txt", "solution_steps.csv",
                         "solution.qsmp", "paths_sample.csv"):
            assert (out / artifact).exists(), artifact

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "solve", "--config", os.path.join(CONFIG_DIR, "inline_quadratic.cfg"),
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        report = json.loads((out / "solve.json").read_text())
        assert "y0" in report and "bound" in report

    def test_determinism_across_runs_and_threads(self, tmp_path):
        # Separate processes, so the BLAS thread count is set before numpy loads.
        descend = write(tmp_path, TINY_DESCEND, name="tiny_descend.cfg")
        adjoint = write(tmp_path, BASE, name="tiny_adjoint.cfg")
        gradient = write(tmp_path, TINY_GRADIENT_CHECK, name="tiny_gradient_check.cfg")
        mp_check = write(tmp_path, TINY_MP_CHECK, name="tiny_mp_check.cfg")
        bmo = write(tmp_path, TINY_BMO, name="tiny_bmo.cfg")
        runs = (
            ("descend", descend), ("solve", os.path.join(CONFIG_DIR, "inline_quadratic.cfg")),
            ("adjoint", adjoint), ("gradient-check", gradient),
            ("mp-check", mp_check), ("bmo", bmo),
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        for pipeline, cfg in runs:
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{pipeline}_{threads}"
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
                env.update({var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
                proc = subprocess.run(
                    [sys.executable, "-m", "qsmp.cli", pipeline, "--config", cfg, "--out", str(out)],
                    env=env, capture_output=True,
                )
                assert proc.returncode == 0, proc.stderr
                outs.append(out)
            names = sorted(os.listdir(outs[0]))
            assert names == sorted(os.listdir(outs[1]))
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (pipeline, name)

    @pytest.mark.parametrize("pipeline,key", UNUSED_TOLERANCES)
    def test_unused_tolerance_key_rejected(self, tmp_path, capsys, pipeline, key):
        path = write(tmp_path, BASE + f"\n[tolerances]\n{key} = 2\n")
        assert run_cli([pipeline, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"[tolerances] {key}" in err and pipeline in err

    @pytest.mark.parametrize("pipeline", ["solve", "adjoint", "bmo"])
    def test_solver_tolerances_reach_the_pipeline(self, tmp_path, pipeline):
        # A truncation radius far below the size of Z must move the result.
        plain = write(tmp_path, BASE, name="plain.cfg")
        capped = write(tmp_path, BASE + "\n[tolerances]\nridge = 1e-6\ntruncation_radius = 0.05\n", name="capped.cfg")
        summaries = []
        for cfg in (plain, capped):
            out = tmp_path / ("out_" + os.path.basename(cfg))
            assert run_cli([pipeline, "--config", cfg, "--out", str(out)]) == 0
            summaries.append((out / "summary.txt").read_text())
        assert summaries[0] != summaries[1]

    def test_seed_override_changes_results(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = os.path.join(CONFIG_DIR, "inline_quadratic.cfg")
        run_cli(["solve", "--config", cfg, "--out", str(out_a)])
        run_cli(["solve", "--config", cfg, "--out", str(out_b), "--seed", "123"])
        assert (out_a / "summary.txt").read_text() != (out_b / "summary.txt").read_text()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed"] == 123

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nfamily = nonsense\n" + BASE.split("[grid]")[1].join(["[grid]", ""]))
        bad.write_text(BASE.replace("exponential_utility", "nonsense"))
        code = run_cli(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_config_exit_code(self, tmp_path):
        code = run_cli(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_pipeline_mismatch_rejected(self, tmp_path):
        code = run_cli([
            "solve", "--config", os.path.join(CONFIG_DIR, "tanh_constants.cfg"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_gradient_check_pipeline(self, tmp_path):
        cfg_text = """
[problem]
family = exponential_utility

[grid]
N = 25
T = 1.0

[monte_carlo]
M = 8000
seed = 2

[controls]
u_bar = [0.0]
u = [1.0]
"""
        path = tmp_path / "g.cfg"
        path.write_text(cfg_text)
        out = tmp_path / "out"
        code = run_cli(["gradient-check", "--config", str(path), "--out", str(out)])
        assert code == 0
        rows = (out / "gradient_check.csv").read_text().strip().split("\n")
        assert rows[0] == "epsilon,quotient,se"
        assert len(rows) == 6

    def test_gradient_check_inconclusive_exit_three(self, tmp_path):
        cfg_text = """
[problem]
family = bounded_tanh

[grid]
N = 10
T = 1.0

[monte_carlo]
M = 96
seed = 5

[controls]
u_bar = [0.1]
u = [0.5*tanh(x1)]
"""
        path = tmp_path / "g.cfg"
        path.write_text(cfg_text)
        code = run_cli(["gradient-check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsmp.cli", "constants", "--config",
             os.path.join(CONFIG_DIR, "tanh_constants.cfg"), "--out", "/tmp/qsmp_cli_entry_test"],
            capture_output=True,
        )
        assert proc.returncode == 0


class TestSchema:
    def test_every_accepted_key_is_documented(self):
        # Section -> its entry in the module docstring's key list.
        block = config.__doc__.split("Recognised sections and keys::\n\n")[1].split("\n\n")[0]
        docs = {}
        for line in block.splitlines():
            match = re.match(r"\s*\[(\w+)\]\s*(.*)", line)
            if match:
                section = match.group(1)
                docs[section] = match.group(2)
            else:
                docs[section] += " " + line.strip()
        accepted = {name: {f.name for f in dataclasses.fields(schema)} for name, schema in config._SCHEMAS.items()}
        accepted["problem"] = {"family", *config._INLINE_KEYS}
        assert set(docs) == set(accepted)
        for section, keys in accepted.items():
            for key in keys:
                assert re.search(rf"\b{key}\b", docs[section]), f"[{section}] {key}"

    def test_schema_defaults_and_bounds(self, tmp_path):
        cfg = config.load_config(write(tmp_path, BASE))
        assert cfg.descent == config.DescentParams() and cfg.descent.init == "zeros"
        assert cfg.bmo.source == "backward" and cfg.overrides.validation_samples == 256
        assert cfg.overrides.basis_degree is None
        cfg = config.load_config(write(tmp_path, BASE + "\n[bmo]\nn_max = 6\nlevel = 2\n[tolerances]\nridge = 1e-4\n"))
        assert (cfg.bmo.n_max, cfg.bmo.level, cfg.overrides.ridge) == (6, 2.0, 1e-4)
        for text, location, message in (
            ("[bmo]\nn_max = 7", "[bmo] n_max", "n_max must be <= 6"),
            ("[descent]\ninit = ones", "[descent] init", "init must be zeros or random"),
            ("[check]\nse_multiplier = lots", "[check] se_multiplier", "expected a number"),
            ("[tolerances]\nbasis_degree = 1.5", "[tolerances] basis_degree", "expected an integer"),
            ("[descent]\nwarp = 1", "[descent] warp", "unknown key 'warp'"),
            # Values that mean nothing below (or above) a bound.
            ("[check]\ngroups = 1", "[check] groups", "groups must be >= 2"),
            ("[check]\ngroups = 0", "[check] groups", "groups must be >= 2"),
            ("[check]\ntimes = 0", "[check] times", "times must be >= 1"),
            ("[check]\nstates = 0", "[check] states", "states must be >= 1"),
            ("[check]\ncandidates = 0", "[check] candidates", "candidates must be >= 1"),
            ("[check]\nse_multiplier = -1", "[check] se_multiplier", "se_multiplier must be >= 0"),
            ("[check]\nse_multiplier = nan", "[check] se_multiplier", "se_multiplier must be >= 0"),
            ("[check]\nse_multiplier = inf", "[check] se_multiplier", "se_multiplier must be finite"),
            ("[check]\nboundary_bias = 1.5", "[check] boundary_bias", "boundary_bias must be <= 1"),
            ("[check]\nboundary_bias = -0.5", "[check] boundary_bias", "boundary_bias must be >= 0"),
            ("[descent]\niterations = 0", "[descent] iterations", "iterations must be >= 1"),
            ("[bmo]\nn_max = 0", "[bmo] n_max", "n_max must be >= 1"),
            ("[tolerances]\nbasis_degree = -1", "[tolerances] basis_degree", "basis_degree must be >= 0"),
            ("[tolerances]\nridge = -1", "[tolerances] ridge", "ridge must be >= 0"),
            ("[tolerances]\ntruncation_radius = -1", "[tolerances] truncation_radius", "truncation_radius must be >= 0"),
            ("[tolerances]\nvalidation_samples = 0", "[tolerances] validation_samples", "validation_samples must be >= 1"),
            # NaN and infinities, which mean nothing as a step or a scale.
            ("[descent]\nstep = nan", "[descent] step", "step must be finite"),
            ("[descent]\nstep = inf", "[descent] step", "step must be finite"),
            ("[descent]\ninit_scale = nan", "[descent] init_scale", "init_scale must be finite"),
            ("[descent]\ninit_scale = inf", "[descent] init_scale", "init_scale must be finite"),
        ):
            with pytest.raises(ConfigError) as err:
                config.load_config(write(tmp_path, BASE + "\n" + text + "\n"))
            assert location in str(err.value) and message in str(err.value)


class TestTolerancesReachThePipeline:
    def test_solve_bound_uses_basis_degree_and_ridge(self, tmp_path):
        path = write(tmp_path, BASE + "\n[tolerances]\nbasis_degree = 1\nridge = 1e-3\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", path, "--out", str(out), "--format", "json"]) == 0
        report = json.loads((out / "solve.json").read_text())
        _, arrays = storage.load_container(str(out / "solution.qsmp"))
        grid = config.load_config(path).grid
        expected = bmo.estimate_bmo2(
            arrays["Z"][:, : grid.N], grid, features=arrays["states"],
            basis=RegressionBasis(1), ridge=1e-3,
        )
        assert report["bound"]["bmo2_estimate"] == pytest.approx(expected, rel=1e-12)

    def test_descend_random_init_is_deterministic(self, tmp_path):
        random_init = TINY_DESCEND.replace("step = 0.5\n", "step = 0.5\ninit = random\ninit_scale = 0.3\ninit_seed = 7\n")
        configs = {"random": write(tmp_path, random_init, name="random.cfg"), "zeros": write(tmp_path, TINY_DESCEND, name="zeros.cfg")}
        assert config.load_config(configs["random"]).descent.init == "random"
        outs = {}
        for run, cfg in (("random", "random"), ("random_again", "random"), ("zeros", "zeros")):
            outs[run] = tmp_path / run
            assert run_cli(["descend", "--config", configs[cfg], "--out", str(outs[run])]) == 0
        names = sorted(os.listdir(outs["random"]))
        assert names == sorted(os.listdir(outs["random_again"]))
        for name in names:
            assert (outs["random"] / name).read_bytes() == (outs["random_again"] / name).read_bytes(), name
        trace = "descent_trace.csv"
        assert (outs["random"] / trace).read_bytes() != (outs["zeros"] / trace).read_bytes()


INLINE_2D = """
[problem]
n = 2
d = 2
k = 2
x0 = [0.1, -0.2]
b = [0.2*x2 + u1, -0.3*x1 + u2]
sigma = [[0.5, 0.2*tanh(x2)], [0.1, 0.4 + 0.1*tanh(x1)]]
f = 0.25*(z1^2 + z2^2) + 0.1*(u1^2 + u2^2)
Phi = 0.5*tanh(x1) + 0.25*tanh(x2)
domain = box
domain_lower = [-1.0, -1.0]
domain_upper = [1.0, 1.0]
gamma = 0.5
Phi_sup = 0.75
sigma_x_sup = [0.0, 0.25]

[grid]
N = 10
T = 1.0

[monte_carlo]
M = 500
seed = 1
"""


class TestControlsAndLists:
    def test_ragged_control_list_located(self, tmp_path, capsys):
        text = BASE.replace("exponential_utility", "bounded_tanh") + "\n[controls]\nu = [[1], [2, 3]]\n"
        assert run_cli(["constants", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert "[controls] u: invalid control expression: line 1, column 1: matrix rows" in capsys.readouterr().err

    @pytest.mark.parametrize("value,message", [("[[u1], [1, 2]]", "matrix rows"), ("[[u1], 2]", "mixed scalar")])
    def test_ragged_or_mixed_coefficient_list_located(self, tmp_path, capsys, value, message):
        text = INLINE_2D.replace("b = [0.2*x2 + u1, -0.3*x1 + u2]", f"b = {value}")
        assert run_cli(["solve", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert f"[problem] b: invalid expression: line 1, column 1: {message}" in capsys.readouterr().err

    def test_control_given_as_rows_rejected_at_load(self, tmp_path, capsys):
        text = INLINE_2D + "\n[controls]\nu_bar = [[0.1, 0.2], [0.3, 0.4]]\nu = [0.0, 0.0]\n"
        assert run_cli(["solve", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert "[controls] u_bar: control must have k=2 components" in capsys.readouterr().err

    def test_inline_controls_default_to_k_zeros(self, tmp_path):
        path = write(tmp_path, INLINE_2D)
        cfg = config.load_config(path)
        for which in ("u_bar", "u"):
            assert np.array_equal(cfg.control(which).values(0, 0.0, np.ones((3, 2))), np.zeros((3, 2)))
        assert run_cli(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("key,value", [("x0", "[[1], 2]"), ("x0", "[[1], [2, 3]]"), ("sigma_x_sup", "[[0.0], 1]")])
    def test_ragged_numeric_list_located(self, tmp_path, key, value):
        with open(os.path.join(CONFIG_DIR, "inline_quadratic.cfg")) as handle:
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", handle.read(), flags=re.M)
        with pytest.raises(ConfigError, match=rf"\[problem\] {key}: invalid numeric list"):
            config.load_config(write(tmp_path, text))

    @pytest.mark.parametrize("family,parameter,message", [
        ("exponential_utility", "gamma = -1", "gamma must be positive"),
        ("linear_quadratic", "r = 0", "control weight r must be positive"),
        ("linear_quadratic", "a = nan", "assumption constants must be finite and nonnegative"),
    ], ids=["gamma", "r", "a"])
    def test_family_parameter_rejected_by_its_builder_located(self, tmp_path, capsys, family, parameter, message):
        text = BASE.replace("family = exponential_utility", f"family = {family}\n{parameter}")
        assert run_cli(["constants", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: [problem]: family {family}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["domain_lower", "domain_upper", "domain_normals"])
    def test_domain_key_of_another_kind_located(self, tmp_path, capsys, key):
        with open(os.path.join(CONFIG_DIR, "inline_quadratic.cfg")) as handle:
            text = handle.read().replace(
                "domain = box\ndomain_lower = [-1.0]\ndomain_upper = [1.0]", f"domain = ball\n{key} = [1.0]"
            )
        assert run_cli(["solve", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: [problem] {key}: a ball domain has no key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("domain,message", [
        ("domain = ball\ndomain_radius = -1", "radius must be positive"),
        ("domain = box\ndomain_lower = [1.0]\ndomain_upper = [-1.0]", "box bounds must satisfy lower <= upper"),
        ("domain = halfspace-intersection\ndomain_normals = [[0.0]]\ndomain_offsets = [1.0]",
         "halfspace normals must be nonzero"),
    ], ids=["ball", "box", "halfspace"])
    def test_domain_rejected_by_its_constructor_located(self, tmp_path, capsys, domain, message):
        with open(os.path.join(CONFIG_DIR, "inline_quadratic.cfg")) as handle:
            text = handle.read().replace("domain = box\ndomain_lower = [-1.0]\ndomain_upper = [1.0]", domain)
        assert run_cli(["solve", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: [problem] domain: {message}" in capsys.readouterr().err

    def test_epsilons_given_as_rows_rejected(self, tmp_path):
        text = BASE + "\n[gradient_check]\nepsilons = [[0.5], [0.25], [0.125], [0.1]]\n"
        with pytest.raises(ConfigError, match=r"\[gradient_check\] epsilons: need >= 4 epsilons in \(0, 1\]"):
            config.load_config(write(tmp_path, text))


class TestPipelineScope:
    """A config reaches a pipeline only with what that pipeline reads."""

    @pytest.mark.parametrize("pipeline", ["constants", "solve"])
    @pytest.mark.parametrize("parameter", ["sigma0 = nan", "x0 = inf"], ids=["sigma0", "x0"])
    def test_non_finite_family_parameter_located(self, tmp_path, capsys, pipeline, parameter):
        # The linear-quadratic builder derives no checked constant from these two.
        text = BASE.replace("family = exponential_utility", f"family = linear_quadratic\n{parameter}")
        key = parameter.split(" ")[0]
        assert run_cli([pipeline, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: [problem] {key}: family linear_quadratic: {key} must be finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_bmo_level_located(self, tmp_path, capsys, value):
        # A NaN level once ran to exit 0 with an estimate of 0, an infinite one with inf.
        text = BASE + f"\n[bmo]\nsource = constant\nlevel = {value}\n"
        assert run_cli(["bmo", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert "config error: [bmo] level: level must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pipeline, section, reader", [
        (pipeline, section, reader)
        for section, reader in config.SECTION_READERS.items()
        for pipeline in config.PIPELINES if pipeline != reader
    ])
    def test_section_of_another_pipeline_rejected(self, tmp_path, capsys, pipeline, section, reader):
        # Every key takes its default, so the section alone is the fault.
        path = write(tmp_path, BASE + f"\n[{section}]\n")
        assert run_cli([pipeline, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: [{section}]: only the {reader} pipeline reads this section, not {pipeline}" in err

    def test_solve_rejects_descent_and_bmo_sections(self, tmp_path, capsys):
        text = BASE + "\n[descent]\niterations = 3\n\n[bmo]\nn_max = 2\n"
        assert run_cli(["solve", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
        assert "[descent]: only the descend pipeline reads this section, not solve" in capsys.readouterr().err

    @pytest.mark.parametrize("section, reader", list(config.SECTION_READERS.items()))
    def test_own_section_accepted(self, tmp_path, section, reader):
        cfg = write(tmp_path, TINY_GRADIENT_CHECK.replace("M = 2000", "M = 800") + f"\n[{section}]\n")
        assert run_cli([reader, "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 3)

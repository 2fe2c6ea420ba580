"""Every bad input ends in a located error, never in a traceback.

The table sets each key of each shipped config, in turn, to each of a fixed
list of bad values, and runs the config's pipeline through ``cli.main`` in
this process. The configs are shrunk to M = 640 paths and N = 8 steps, with
3 descent iterations: 85 keys, 14 values, 1190 runs, about 10 s on 2 cores.
Every run must exit 0, 1, 2 or 3 with no exception; an exit 2 names its
section and key, an exit 1 a step or a phase, and an exit-0 summary holds
no NaN or infinity."""

import configparser
import importlib.util
import pathlib
import re

import pytest

from qsmp import cli, families, model
from qsmp.errors import SolverError

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
_tool = importlib.util.spec_from_file_location("artifact_hashes", ROOT / "tools" / "artifact_hashes.py")
artifact_hashes = importlib.util.module_from_spec(_tool)
_tool.loader.exec_module(artifact_hashes)
#: Shipped config stem -> the pipeline that runs it.
PIPELINES = artifact_hashes.PIPELINES

BAD_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e300", "", "abc", "1e-300", "[nan]", "2.5", "[[0]]", "3", "100")

#: How an exit 1 names where it failed: a step, or a phase without steps.
WHERE = re.compile(r"\((step \d+|deriving the constants|validating the assumptions)\)$")


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    # A run without --out writes to the config's [output] directory, which
    # is relative: here, under tmp_path.
    monkeypatch.chdir(tmp_path)


def shrunk(stem):
    parser = configparser.ConfigParser(delimiters=("=",), comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    parser.read(CONFIGS / f"{stem}.cfg")
    parser["grid"]["N"], parser["monte_carlo"]["M"] = "8", "640"
    if parser.has_section("descent"):
        parser["descent"]["iterations"] = "3"
    return parser


def run(parser, pipeline, path, capsys):
    with open(path, "w") as handle:
        parser.write(handle)
    capsys.readouterr()
    code = cli.main([pipeline, "--config", str(path)])
    return code, capsys.readouterr().err


def names_key(err, section, key):
    """Whether a config error names the edited key: at its location, or as
    one of a group of keys at fault together (a family's builder rejects
    its parameter set, a domain's constructor its bounds)."""
    if f"[{section}] {key}" in err:
        return True
    return section == "problem" and ("[problem]: family " in err or key.startswith("domain") and "[problem] domain:" in err)


@pytest.mark.parametrize("stem", sorted(PIPELINES))
def test_every_bad_value_ends_in_a_located_error(stem, tmp_path, capsys):
    # Without --out, so [output] directory is edited too.
    parser, pipeline = shrunk(stem), PIPELINES[stem]
    faults = []
    for section in parser.sections():
        for key, kept in list(parser[section].items()):
            for value in BAD_VALUES:
                parser[section][key] = value
                edit = f"[{section}] {key} = {value!r}"
                try:
                    code, err = run(parser, pipeline, tmp_path / "edited.cfg", capsys)
                except Exception as exc:  # a traceback, not a located error
                    faults.append(f"{edit}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    parser[section][key] = kept
                if code == 2 and not (err.startswith("config error: ") and names_key(err, section, key)):
                    faults.append(f"{edit}: exit 2 does not name the key: {err!r}")
                elif code == 1 and not WHERE.search(err.strip()):
                    faults.append(f"{edit}: exit 1 names no step or phase: {err!r}")
                elif code == 0:
                    directory = value if (section, key) == ("output", "directory") else parser["output"]["directory"]
                    summary = (tmp_path / directory / "summary.txt").read_text()
                    if re.search(r"\b(nan|inf)\b", summary, re.IGNORECASE):
                        faults.append(f"{edit}: exit 0 with a non-finite summary: {summary!r}")
                elif code not in (1, 2, 3):
                    faults.append(f"{edit}: exit {code}")
    assert faults == []


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("stem", sorted(PIPELINES))
def test_non_finite_horizon_is_a_grid_error(stem, value, tmp_path, capsys):
    # A NaN horizon once passed the hand-written check T <= 0 and ended in
    # a ValueError from TimeGrid.
    parser = shrunk(stem)
    parser["grid"]["T"] = value
    path = tmp_path / "edited.cfg"
    with open(path, "w") as handle:
        parser.write(handle)
    assert cli.main([PIPELINES[stem], "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: [grid] T: T must be ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stem, section, key", [
    ("tanh_constants", "grid", "T"),
    *(("inline_quadratic", "problem", key) for key in ("L2", "L3", "f_y_sup", "sigma_x_sup")),
])
def test_overflow_of_a_derived_constant_is_a_degenerate_parameter_set(stem, section, key, tmp_path, capsys):
    # Each of these once raised OverflowError from model.derive_constants.
    parser = shrunk(stem)
    parser[section][key] = "[1e300]" if key == "sigma_x_sup" else "1e300"
    code, err = run(parser, PIPELINES[stem], tmp_path / "edited.cfg", capsys)
    assert code == 1
    assert err == "solver error: degenerate parameter set: a constant overflows (deriving the constants)\n"


def test_derive_constants_overflow_raises_a_solver_error():
    spec = families.build_linear_quadratic()
    constants = model.AssumptionConstants(**{**vars(spec.constants), "L3": 1e300})
    with pytest.raises(SolverError, match=r"a constant overflows \(deriving the constants\)"):
        model.derive_constants(model.ProblemSpec(**{**vars(spec), "constants": constants}))


@pytest.mark.parametrize("pipeline, key, value, where", [
    ("solve", "Phi", "log(x1)", r"coefficient Phi: .*log of a non-positive value \(step 8\)"),
    ("adjoint", "Phi", "log(x1)", r"coefficient Phi: .*log of a non-positive value \(step 8\)"),
    ("gradient-check", "Phi", "sqrt(x1)", r"coefficient Phi: .*sqrt of a negative value \(step 8\)"),
    ("descend", "b", "[log(x1 + 1)]", r"coefficient b: .*log of a non-positive value \(step \d\)"),
    ("mp-check", "f", "0.5*z1^2 + sqrt(x1 + 1)", r"coefficient f: .*sqrt of a negative value \(step \d\)"),
    ("constants", "Phi", "log(x1)", r"coefficient Phi: .*log of a non-positive value \(validating the assumptions\)"),
    ("solve", "u_bar", "[log(x1)]", r"control u_bar: .*log of a non-positive value \(step 0\)"),
])
def test_failing_expression_names_its_coefficient_and_step(pipeline, key, value, where, tmp_path, capsys):
    # From x0 = 0 about half the paths end where log(x1) and sqrt(x1) fail.
    # expr.EvaluationError is a ValueError, which once escaped the CLI as a
    # traceback.
    parser = shrunk("inline_quadratic")
    if key == "u_bar":
        parser["controls"] = {"u_bar": value}
    else:
        parser["problem"][key] = value
    code, err = run(parser, pipeline, tmp_path / "edited.cfg", capsys)
    assert code == 1
    assert re.fullmatch(rf"solver error: {where}\n", err), err

"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import os
import time

import pytest

import oracles
import run
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def hashing(tracer_, parent, args, result):
        clock.now += 5.0  # bookkeeping: charged to no span

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("inner", inner, hashing)

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        traced_inner()

    tracer.call("outer", outer)
    assert tracer.self_s == {"inner": 4.0, "outer": 4.0}
    assert tracer.calls == {"inner": 2, "outer": 1}
    # 18 s elapsed: 8 s of self time, 10 s of bookkeeping outside every span.
    assert clock.now == 18.0


def test_self_time_when_a_child_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def failing():
        clock.now += 2.0
        raise ValueError

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            tracer.call("child", failing)

    tracer.call("outer", outer)
    assert tracer.self_s == {"child": 2.0, "outer": 1.0}


PASSING = {
    "exp_utility_solve": "Y0 = 0.191769 +/- 0.00440406\nsup|Y| = 1.08858\n",
    "inline_quadratic": "Y0 = 0.190208 +/- 0.00973154\n",
    "lq_descend": "iterations = 20\nfinal J = 0.935184 +/- 0.00356577\nhalted on divergence: False\n",
    "exp_utility_gradient_check": "gap = 4.64702e-05 vs 3 x combined se = 0.00259108\ninconclusive: False\n",
    "lq_mp_check": "min inner product = -0.179054\nviolation fraction = 0.00737847 over 4608 samples\n",
    "tanh_adjoint": "E[Gamma_T] = 1.32066\nmin Gamma = 0.459171 (positivity holds)\n",
    "tanh_bmo": "bmo2 estimate = 0.295233 (99.9% variant 0.290912)\nenergy inequality: all pass\n",
    "tanh_constants": "validation passed: True\nA = 86.7368\n",
}

PERTURBED = {
    "exp_utility_solve": "Y0 = 0.211769 +/- 0.00440406\n",
    "inline_quadratic": "Y0 = 0.130208 +/- 0.00973154\n",
    "lq_descend": "final J = 0.985184 +/- 0.00356577\n",
    "exp_utility_gradient_check": "gap = 0.00264702 vs 3 x combined se = 0.00259108\ninconclusive: False\n",
    "lq_mp_check": "violation fraction = 0.0737847 over 4608 samples\n",
    "tanh_adjoint": "min Gamma = -0.459171 (positivity VIOLATED)\n",
    "tanh_bmo": "energy inequality: FAILURES\n",
    "tanh_constants": "validation passed: False\n",
}


def test_every_config_has_a_gate():
    configs = {config for invocations in run.WORKLOADS.values() for _, config in invocations}
    assert configs == set(oracles.GATES) == set(PASSING) == set(PERTURBED)


@pytest.mark.parametrize("config", sorted(oracles.GATES))
def test_gate_passes_a_good_result_and_fails_a_perturbed_one(config):
    gate = oracles.GATES[config]
    assert gate(PASSING[config]) is None
    assert gate(PERTURBED[config]) is not None
    assert gate("") is not None


def test_references():
    assert oracles.exp_utility_y0() == pytest.approx(0.188926, abs=5e-7)
    assert oracles.lq_optimal_cost() == pytest.approx(0.931982, abs=5e-7)


def test_seed_reaches_the_cli(tmp_path):
    bench = run.Bench(root=ROOT, work=str(tmp_path), seed=4242, deadline=time.monotonic() + 120)
    inv = bench.invoke("constants", os.path.join(ROOT, "configs", "tanh_constants.cfg"))
    assert inv.manifest_seed == 4242
    assert inv.failure is None
    assert 0 < inv.setup_s < inv.wall_s
    assert os.listdir(tmp_path) == []


def test_benchmark_json_lists_what_the_runs_print():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS

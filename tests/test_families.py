import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qsmp import families


def _reference(a, b, sigma0, q, r, g, T):
    """P and c of the scalar Riccati system by tight RK45 in reversed time."""

    def rhs(s, y):
        return [2.0 * a * y[0] + q - (b * b / r) * y[0] ** 2, 0.5 * sigma0 * sigma0 * y[0]]

    return solve_ivp(rhs, (0.0, T), [g, 0.0], method="RK45", dense_output=True, rtol=1e-12, atol=1e-13).sol


class TestRiccatiClosedForm:
    @pytest.mark.parametrize(
        "params",
        [
            dict(a=0.5, b=1.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0),  # shipped defaults
            dict(a=-0.7, b=2.0, sigma0=0.3, q=0.4, r=0.5, g=3.0, T=2.0),
            dict(a=0.5, b=1.0, sigma0=0.5, q=1.0, r=1.0, g=0.0, T=1.0),  # zero terminal weight
            dict(a=0.0, b=1.0, sigma0=0.5, q=0.0, r=1.0, g=1.0, T=1.0),  # a^2 + k q = 0
            dict(a=0.2, b=1.0, sigma0=0.5, q=-0.1, r=1.0, g=0.5, T=1.0),  # a^2 + k q < 0
            dict(a=0.3, b=0.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0),  # b = 0: linear
            dict(a=0.0, b=0.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0),  # b = 0, a = 0
        ],
    )
    def test_matches_ode_integration(self, params):
        ric = families.solve_lq_riccati(x0=1.0, **params)
        ref = _reference(**params)
        t = np.linspace(0.0, params["T"], 41)
        weight, offset = ref(params["T"] - t)
        assert np.abs(ric.value_weight(t) - weight).max() <= 1e-10
        assert np.abs(ric.value_offset(t) - offset).max() <= 1e-10

    def test_terminal_values_and_cost(self):
        ric = families.solve_lq_riccati(a=0.5, b=1.0, sigma0=0.5, q=1.0, r=1.0, g=1.0, T=1.0, x0=1.0)
        assert ric.value_weight(1.0)[0] == pytest.approx(1.0, abs=1e-15)
        assert ric.value_offset(1.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert ric.optimal_cost == pytest.approx(0.5 * ric.value_weight(0.0)[0] + ric.value_offset(0.0)[0])
        assert ric.gain(np.array([0.0, 0.5])).shape == (2,)

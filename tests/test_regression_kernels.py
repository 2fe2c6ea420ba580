"""The reductions of a step's regression: the Gram matrix and the moments are
each one einsum over all paths, the fitted values BLAS products over chunks
of ``regression._CHUNK`` paths, and the triangular solves the gufunc under
``np.linalg.solve``. The bits must not depend on the BLAS thread count,
also beyond one chunk of paths; the solves must be the bits of
``np.linalg.solve``; and the Gram must be exactly symmetric and accurate."""

import os
import subprocess
import sys

import numpy as np
import pytest

from qsmp import regression
from qsmp.regression import RegressionBasis, StepRegressor

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_bits_independent_of_blas_threads_beyond_one_chunk():
    # 100003 paths are six chunks and a remainder; with the fitted values as
    # one BLAS product over all paths, 10 and 35 features gave other bits at
    # 1 and 2 threads. The factor, the coefficients and the fitted values
    # must be the same bits.
    script = (
        "import hashlib, numpy as np\n"
        "from qsmp.regression import RegressionBasis, StepRegressor\n"
        "rng = np.random.default_rng(7)\n"
        "h = hashlib.sha256()\n"
        "for dim, degree in ((1, 0), (1, 2), (1, 3), (2, 3), (4, 3)):\n"
        "    reg = StepRegressor(RegressionBasis(degree), 1.0 + rng.standard_normal((100003, dim)))\n"
        "    h.update(reg.chol.tobytes())\n"
        "    for k in (1, 3):\n"
        "        fitted, fit = reg.fit(rng.standard_normal((100003, k)))\n"
        "        h.update(fitted.tobytes() + fit.coefficients.tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        env.update({var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n_feat", range(1, 36))
def test_cho_solve_is_two_linalg_solves(n_feat, k):
    # The gufunc is private to numpy: if an upgrade moves it or changes what
    # it computes, this fails.
    rng = np.random.default_rng(100 * n_feat + k)
    a = rng.standard_normal((n_feat, 4 * n_feat))
    chol = np.linalg.cholesky(a @ a.T + 1e-3 * np.eye(n_feat))
    rhs = rng.standard_normal((n_feat, k))
    expected = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    assert np.array_equal(regression._cho_solve(chol, rhs), expected)


@pytest.mark.parametrize("dim, degree", [(1, 2), (1, 3), (2, 3), (4, 3)])
def test_gram_is_symmetric_and_matches_a_long_double_sum(dim, degree):
    rng = np.random.default_rng(8 + dim + degree)
    reg = StepRegressor(RegressionBasis(degree), 1.0 + rng.standard_normal((80000, dim)))
    rows = reg.features.T
    gram = regression._gram(rows)
    assert np.array_equal(gram, gram.T)
    wide = rows.astype(np.longdouble)
    reference = np.array([[np.sum(a * b) for b in wide] for a in wide])
    # Relative to sqrt(G_ii G_jj), the scale of an entry (Cauchy-Schwarz):
    # an off-diagonal sum near zero is no less accurate than the others.
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    assert np.max(np.abs(gram - reference) / scale) <= 1e-13


def test_exponents_are_built_once_and_read_only():
    basis = RegressionBasis(3)
    expo = basis.exponents(2)
    assert RegressionBasis(3).exponents(2) is expo
    assert not expo.flags.writeable
    with pytest.raises(ValueError):
        expo[0, 0] = 1

"""Least-squares machinery for empirical conditional expectations on path batches.

Every reduction over the path axis runs over fixed chunks of ``_CHUNK`` paths,
with the chunk results added in chunk order. Within a chunk, the Gram matrix
and the fitted values are BLAS ``@`` products, and the moments stay on
``np.einsum``, which calls no BLAS. With one target column, ``@`` for a moment
is a matrix-vector product that OpenBLAS may divide between threads along the
summed path axis (seen at 2 threads with one feature and 12000 or more paths
per chunk, and with 29 or more features), which changes the last bits. The
Gram and fitted-value products gave the same bits at 1 and 2 threads for 1 to
40 features, 48 to 16384 paths per chunk and 1 to 3 targets. Results are
therefore reproducible bit for bit across BLAS thread counts, as verified at 1
and 2 threads only: the machine measured has 2 cores.

A step's regression (:class:`StepRegressor`) may be built straight into a
given (F, M) buffer, such as a slot of a pipelined sweep's shared ring
(:class:`qsmp.bsde.Partner`), so no copy of the features is made. The build
centres the states once, for the scale and for the features, and starts
each feature from its first factor, making power arrays only for powers
p >= 2. The bits are those of the plain product of powers from a row of
ones, since 1.0 * a is exactly a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import IllConditionedBasisError

_CHUNK = 16384


def default_ridge(n_samples: int) -> float:
    """Default ridge parameter: numerical rank safety without visible bias."""
    return 1e-8 * n_samples


@dataclass(frozen=True)
class RegressionBasis:
    """Feature map used for per-time-step regressions: all monomials of the
    state variables up to the given total degree, the constant included
    (degree 0 keeps only the constant, which turns every regression into a
    plain batch mean).
    """

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    def exponents(self, state_dim: int) -> np.ndarray:
        """Exponent matrix (F, state_dim); row 0 is the constant feature."""
        rows = []
        for deg in range(self.degree + 1):
            for combo in combinations_with_replacement(range(state_dim), deg):
                row = np.zeros(state_dim, dtype=np.int64)
                for j in combo:
                    row[j] += 1
                rows.append(row)
        return np.array(rows, dtype=np.int64)

    def features(self, states: np.ndarray, shift=None, scale=None) -> np.ndarray:
        """Evaluate the feature map on a batch of states (M, state_dim)."""
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 1:
            states = states[:, None]
        state_dim = states.shape[1]
        if shift is None:
            shift = np.zeros(state_dim)
        if scale is None:
            scale = np.ones(state_dim)
        return self.monomials((states - shift) / scale)

    def monomials(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The features of centred and scaled states ``z`` (M, state_dim),
        written as the rows of ``out`` (F, M), a new array by default; returns
        the (M, F) transpose. Each feature is one contiguous row (strided
        column writes are an order of magnitude slower), the product of its
        coordinates' powers in coordinate order. A power p >= 2 is its power
        p - 1 times the coordinate, and power 1 is the coordinate itself."""
        m_paths, state_dim = z.shape
        expo = self.exponents(state_dim)
        feats = np.empty((expo.shape[0], m_paths)) if out is None else out
        pows = [[None, z[:, j]] for j in range(state_dim)]
        for j, powers in enumerate(pows):
            for _ in range(2, self.degree + 1):
                powers.append(powers[-1] * z[:, j])
        for f_idx, row in enumerate(expo):
            factors = [pows[j][p] for j, p in enumerate(row) if p]
            if not factors:
                feats[f_idx] = 1.0
            elif len(factors) == 1:
                feats[f_idx] = factors[0]
            else:
                np.multiply(factors[0], factors[1], out=feats[f_idx])
                for factor in factors[2:]:
                    feats[f_idx] *= factor
        return feats.T


def _chunked_matvec(features: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    out = np.empty((features.shape[0], coeffs.shape[1]))
    for start in range(0, features.shape[0], _CHUNK):
        fc = features[start : start + _CHUNK]
        out[start : start + _CHUNK] = fc @ coeffs
    return out


def _factorise(features: np.ndarray, ridge: float | None) -> np.ndarray:
    """Cholesky factor of F'F + ridge I, with F'F accumulated in a fixed
    chunk order (thread-count independent).

    With ``ridge=0`` a rank-deficient feature matrix raises
    :class:`IllConditionedBasisError` instead of silently picking a solution.
    """
    m_paths, n_feat = features.shape
    if m_paths <= n_feat:
        raise IllConditionedBasisError(
            f"need more samples ({m_paths}) than features ({n_feat})"
        )
    if ridge is None:
        ridge = default_ridge(m_paths)
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    gram = np.zeros((n_feat, n_feat))
    for start in range(0, m_paths, _CHUNK):
        fc = features[start : start + _CHUNK]
        gram += fc.T @ fc
    try:
        chol = np.linalg.cholesky(gram + ridge * np.eye(n_feat))
    except np.linalg.LinAlgError:
        raise IllConditionedBasisError("feature Gram matrix is not positive definite")
    if ridge == 0.0:
        diag = np.diag(chol)
        if np.min(diag) <= 1e-13 * max(np.max(diag), 1.0):
            raise IllConditionedBasisError("features are numerically rank deficient")
    return chol


def _project(features: np.ndarray, chol: np.ndarray, targets: np.ndarray):
    """(coefficients (F, K), fitted values (M, K)) of targets (M, K)."""
    moment = np.zeros((features.shape[1], targets.shape[1]))
    for start in range(0, targets.shape[0], _CHUNK):
        fc = features[start : start + _CHUNK]
        yc = targets[start : start + _CHUNK]
        moment += np.einsum("mi,mk->ik", fc, yc)
    coeffs = _cho_solve(chol, moment)
    return coeffs, _chunked_matvec(features, coeffs)


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    y = np.linalg.solve(chol, rhs)
    return np.linalg.solve(chol.T, y)


@dataclass
class StepFit:
    """A fitted per-time-step conditional expectation, reusable on new states."""

    basis: RegressionBasis
    shift: np.ndarray
    scale: np.ndarray
    coefficients: np.ndarray  # (F, K)

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        feats = self.basis.features(states, self.shift, self.scale)
        return _chunked_matvec(feats, self.coefficients)


class StepRegressor:
    """Shares one feature matrix (and its Cholesky factor ``chol``) across
    the several targets regressed at a single backward time step. The
    features (M, F) are the transpose of ``out`` (F, M) if given, whatever
    it held before, else of a new array; both give the same bits."""

    def __init__(self, basis: RegressionBasis, states: np.ndarray, ridge: float | None = None, out=None):
        states = np.asarray(states, dtype=np.float64)
        if states.ndim == 1:
            states = states[:, None]
        self.basis = basis
        self.shift = states.mean(axis=0)
        # The states are centred once, for the scale and for the features.
        # The scale is numpy's own formula of ``np.std``: the same bits.
        z = states - self.shift
        scale = np.sqrt(np.add.reduce(np.square(z), axis=0) / states.shape[0])
        self.scale = np.where(scale > 1e-12, scale, 1.0)
        z /= self.scale
        self.features = basis.monomials(z, out)
        self.chol = _factorise(self.features, ridge)

    @classmethod
    def from_parts(cls, basis, shift, scale, features, chol) -> "StepRegressor":
        """The regressor with the given attributes, such as another process
        built: the features are neither evaluated nor factorised again."""
        reg = cls.__new__(cls)
        reg.basis, reg.shift, reg.scale, reg.features, reg.chol = basis, shift, scale, features, chol
        return reg

    def fit(self, targets: np.ndarray) -> tuple[np.ndarray, StepFit]:
        """Returns (fitted values, reusable fit); targets (M,) or (M, K)."""
        targets = np.asarray(targets, dtype=np.float64)
        squeeze = targets.ndim == 1
        if squeeze:
            targets = targets[:, None]
        coeffs, fitted = _project(self.features, self.chol, targets)
        fit = StepFit(self.basis, self.shift, self.scale, coeffs)
        if squeeze:
            return fitted[:, 0], fit
        return fitted, fit

"""Least-squares machinery for empirical conditional expectations on path batches.

Each reduction over the path axis is ``np.einsum`` over all M paths: row i
of the Gram matrix F'F is one einsum of feature row i with rows i to F-1,
mirrored below the diagonal (exactly symmetric), and the moments F'Y are one
einsum. einsum calls no BLAS, so neither depends on the BLAS thread count.
OpenBLAS ``syrk``, which formed the Gram before, took about 7.5 ns a path
for the 3 features of a degree-2 basis in one dimension (130 to 160 us a
build at M = 20000, against 60 to 80 us for the einsums). The fitted values
are BLAS products, written into the result, over chunks of ``_CHUNK``
paths: as one product over 100003 paths, with 10 or 35 features and one
target, their last bits differed at 1 and 2 BLAS threads; in chunks they
agreed up to 100003 paths and 35 features. The triangular solves call the
LAPACK gufunc under ``np.linalg.solve`` without its wrapper (9 us a fit).
So the results are the same bits at any BLAS thread count, as verified at 1
and 2 threads only: the machine measured has 2 cores.

A step's regression (:class:`StepRegressor`) may be built straight into a
given (F, M) buffer, such as a slot of a pipelined sweep's shared ring
(:class:`qsmp.bsde.Partner`), so no copy of the features is made. The build
centres the states once, for the scale and for the features, and starts
each feature from its first factor; a power of one coordinate is built in
its own row from the row of the power below. The bits are those of the
plain product of powers from a row of ones, since 1.0 * a is exactly a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement

import numpy as np
from numpy.linalg import _umath_linalg

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
    plain batch mean)."""

    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @cache
    def exponents(self, state_dim: int) -> np.ndarray:
        """Exponent matrix (F, state_dim), read-only and built once per
        degree and dimension; row 0 is the constant feature."""
        combos = (c for deg in range(self.degree + 1) for c in combinations_with_replacement(range(state_dim), deg))
        expo = np.array([[c.count(j) for j in range(state_dim)] for c in combos], dtype=np.int64)
        expo.flags.writeable = False
        return expo

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
        coordinates' powers in coordinate order. A power of one coordinate
        is a feature itself, and the features come by degree: power 1 is
        the coordinate, power p >= 2 the row of power p - 1 times it, and
        the other features read those rows, so no power array is made."""
        m_paths, state_dim = z.shape
        expo = self.exponents(state_dim)
        feats = np.empty((expo.shape[0], m_paths)) if out is None else out
        pows = [[None] for _ in range(state_dim)]  # pows[j][p]: the row of coordinate j to the power p
        for f_idx, row in enumerate(expo.tolist()):
            factors = [(j, p) for j, p in enumerate(row) if p]
            if not factors:
                feats[f_idx] = 1.0
            elif len(factors) == 1:
                ((j, p),) = factors
                if p == 1:
                    feats[f_idx] = z[:, j]
                else:
                    np.multiply(pows[j][p - 1], z[:, j], out=feats[f_idx])
                pows[j].append(feats[f_idx])
            else:
                (j, p), (k, q), *rest = factors
                np.multiply(pows[j][p], pows[k][q], out=feats[f_idx])
                for k, q in rest:
                    feats[f_idx] *= pows[k][q]
        return feats.T


def _chunked_matvec(features: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    out = np.empty((features.shape[0], coeffs.shape[1]))
    for start in range(0, features.shape[0], _CHUNK):
        np.matmul(features[start : start + _CHUNK], coeffs, out=out[start : start + _CHUNK])
    return out


def _factorise(features: np.ndarray, ridge: float | None) -> np.ndarray:
    """Cholesky factor of F'F + ridge I (:func:`_gram`).

    With ``ridge=0`` a rank-deficient feature matrix raises
    :class:`IllConditionedBasisError` instead of silently picking a solution.
    """
    m_paths, n_feat = features.shape
    if m_paths <= n_feat:
        raise IllConditionedBasisError(f"need more samples ({m_paths}) than features ({n_feat})")
    ridge = default_ridge(m_paths) if ridge is None else ridge
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    try:
        chol = np.linalg.cholesky(_gram(features.T) + ridge * np.eye(n_feat))
    except np.linalg.LinAlgError:
        raise IllConditionedBasisError("feature Gram matrix is not positive definite")
    if ridge == 0.0:
        diag = np.diag(chol)
        if np.min(diag) <= 1e-13 * max(np.max(diag), 1.0):
            raise IllConditionedBasisError("features are numerically rank deficient")
    return chol


def _gram(rows: np.ndarray) -> np.ndarray:
    """F'F of the (F, M) feature rows: row i's upper part is one einsum of
    row i with rows i to F-1, mirrored below the diagonal."""
    gram = np.empty((len(rows), len(rows)))
    for i in range(len(rows)):
        np.einsum("jm,m->j", rows[i:], rows[i], out=gram[i, i:])
        gram[i:, i] = gram[i, i:]
    return gram


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x of (L L') x = rhs (F, K) by the gufunc of ``np.linalg.solve``: the
    same bits, without the wrapper's check for a singular L (never one)."""
    y = _umath_linalg.solve(chol, rhs, signature="dd->d")
    return _umath_linalg.solve(chol.T, y, signature="dd->d")


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
        coeffs = _cho_solve(self.chol, np.einsum("im,mk->ik", self.features.T, targets))
        fitted = _chunked_matvec(self.features, coeffs)
        fit = StepFit(self.basis, self.shift, self.scale, coeffs)
        if squeeze:
            return fitted[:, 0], fit
        return fitted, fit

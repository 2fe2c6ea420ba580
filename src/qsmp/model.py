"""Problem definition: coefficients, declared growth constants, control domain.

Evaluator conventions (all vectorised over a batch of size M):

====================  =========================  ===========================
evaluator             arguments                  result
====================  =========================  ===========================
b(t, x, u)            t float, x (M,n), u (M,k)  (M, n)
sigma(t, x, u)                                   (M, n, d)
f(t, x, y, z, u)      y (M,), z (M,d)            (M,)
Phi(x)                x (M,n)                    (M,)
b_x(t, x, u)                                     (M, n, n)   d b_i / d x_j
b_u(t, x, u)                                     (M, n, k)
sigma_x(t, x, u)                                 (M, d, n, n)  per column i
sigma_u(t, x, u)                                 (M, d, n, k)
f_x / f_y / f_z / f_u                            (M,n) / (M,) / (M,d) / (M,k)
Phi_x(x)                                         (M, n)
====================  =========================  ===========================

The i-th diffusion column is sigma[..., :, i]; sigma_x[:, i] is the Jacobian
of that column with respect to the state.

Two markers declare structure once, so that the solvers stop computing it:

- a :class:`Zero` coefficient is identically zero. Called like the field it
  stands for, it returns zeros of that field's shape; the costate step, the
  control gradient and the descent's weight Gamma skip every term it is a
  factor of.
- a :class:`WithoutY` generator does not read y. Its implicit step is then
  explicit, and the quadratic step evaluates it once (as it does a
  :class:`Zero` generator).

A plain callable carries no marker and takes the general path, with the
same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from . import bmo
from .errors import SolverError, located
from .paths import abs_max


class Zero:
    """An identically zero coefficient of trailing shape ``shape``: called
    with the field's arguments, it returns zeros (M,) + ``shape``, M the
    length of the last argument (u, or x for Phi and Phi_x)."""

    def __init__(self, *shape):
        self.shape = shape

    def __call__(self, *args):
        return np.zeros((len(args[-1]),) + self.shape)


class WithoutY:
    """A generator that does not read y: ``fn(t, x, z, u)``, called as
    f(t, x, y, z, u) with y ignored."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t, x, y, z, u):
        return self.fn(t, x, z, u)


def reads_y(f) -> bool:
    """False for a generator marked free of y (:class:`WithoutY`, :class:`Zero`)."""
    return not isinstance(f, (WithoutY, Zero))


@dataclass(frozen=True)
class CoefficientSet:
    b: Callable
    sigma: Callable
    f: Callable
    Phi: Callable
    b_x: Callable
    b_u: Callable
    sigma_x: Callable
    sigma_u: Callable
    f_x: Callable
    f_y: Callable
    f_z: Callable
    f_u: Callable
    Phi_x: Callable


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared growth/bound constants for the coefficient set.

    These are inputs, not derived quantities: global verification over
    unbounded domains is impossible, so the toolkit spot-checks them by
    sampling (see :func:`validate_assumptions`).
    """

    alpha: float
    gamma: float
    L1: float
    L2: float
    L3: float
    f_y_sup: float
    Phi_sup: float
    sigma_x_sup: tuple
    b_x_sup: float
    b_u_sup: float
    sigma_u_sup: float
    Phi_x_sup: float

    def __post_init__(self):
        object.__setattr__(self, "sigma_x_sup", tuple(float(s) for s in self.sigma_x_sup))
        values = [
            self.alpha, self.gamma, self.L1, self.L2, self.L3, self.f_y_sup,
            self.Phi_sup, self.b_x_sup, self.b_u_sup, self.sigma_u_sup, self.Phi_x_sup,
            *self.sigma_x_sup,
        ]
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError("assumption constants must be finite and nonnegative")
        if not self.gamma > 0:
            raise ValueError("gamma must be strictly positive")


class ControlDomain:
    """Convex control domain with an exact projection."""

    kind = "abstract"
    #: Whether :meth:`pullback` gives the same bits at the projected point
    #: as at the raw one, so a caller may pass the control it already holds.
    pullback_from_projection = False

    def project(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def pullback(self, raw: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """J^T weight for J the Jacobian of :meth:`project` at ``raw``, both
        (S, k), written into ``weight``. This default is the identity, exact
        only where ``raw`` lies inside the domain."""
        return weight

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int, boundary_bias: float = 0.0) -> np.ndarray:
        """Draw candidate points inside the domain. With ``boundary_bias`` in
        (0, 1], that fraction of draws is taken outside and projected back,
        stressing the boundary where variational inequalities bind."""
        raise NotImplementedError


@dataclass(frozen=True)
class BoxDomain(ControlDomain):
    lower: tuple
    upper: tuple
    kind = "box"
    pullback_from_projection = True

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return len(self.lower)

    def project(self, v):
        return np.clip(np.asarray(v, dtype=np.float64), self.lower, self.upper)

    def pullback(self, raw, weight):
        """Zeroes the components at or past a bound. The projection of
        ``raw`` is at a bound exactly where ``raw`` is at or past it (NaN is
        neither), so ``raw`` may also be the projected point."""
        weight[(raw <= self.lower) | (raw >= self.upper)] = 0.0
        return weight

    def contains(self, v, tol=1e-9):
        v = np.asarray(v, dtype=np.float64)
        lo = np.asarray(self.lower) - tol
        hi = np.asarray(self.upper) + tol
        return np.all((v >= lo) & (v <= hi), axis=-1)

    def sample(self, rng, size, boundary_bias=0.0):
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        out = rng.uniform(lo, hi, size=(size, self.dim))
        n_bias = int(round(boundary_bias * size))
        if n_bias:
            wide = rng.uniform(mid - 1.5 * half, mid + 1.5 * half, size=(n_bias, self.dim))
            out[:n_bias] = self.project(wide)
        return out


def clip_rows(rows: np.ndarray, radius: float) -> np.ndarray:
    """``rows`` with every row longer than ``radius`` scaled back to that
    length; the rows themselves when the radius is infinite or no row is
    longer."""
    if not math.isfinite(radius):
        return rows
    # numpy's own formula for the 2-norm over the last axis, without the
    # overhead of ``np.linalg.norm``: the same bits.
    norms = np.sqrt(np.add.reduce(rows * rows, axis=-1, keepdims=True))
    over = norms > radius
    if not over.any():
        return rows
    return rows * np.where(over, radius / np.where(norms > 0, norms, 1.0), 1.0)


@dataclass(frozen=True)
class BallDomain(ControlDomain):
    center: tuple
    radius: float
    kind = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in np.atleast_1d(self.center)))
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self):
        return len(self.center)

    def project(self, v):
        return np.asarray(self.center) + clip_rows(np.asarray(v, dtype=np.float64) - self.center, self.radius)

    def pullback(self, raw, weight):
        """Outside the ball the projection is c + R v / |v| with v = raw - c,
        whose Jacobian (R / |v|) (I - v v^T / |v|^2) is symmetric."""
        offset = np.asarray(raw, dtype=np.float64) - self.center
        norm = np.linalg.norm(offset, axis=-1)
        out = norm > self.radius
        if np.any(out):
            v, w, r = offset[out], weight[out], norm[out, None]
            radial = np.einsum("sk,sk->s", v, w)[:, None] / r**2
            weight[out] = (self.radius / r) * (w - radial * v)
        return weight

    def contains(self, v, tol=1e-9):
        v = np.asarray(v, dtype=np.float64)
        return np.linalg.norm(v - self.center, axis=-1) <= self.radius + tol

    def sample(self, rng, size, boundary_bias=0.0):
        direction = rng.standard_normal((size, self.dim))
        direction /= np.maximum(np.linalg.norm(direction, axis=-1, keepdims=True), 1e-300)
        radii = self.radius * rng.uniform(0.0, 1.0, size=(size, 1)) ** (1.0 / self.dim)
        n_bias = int(round(boundary_bias * size))
        if n_bias:
            radii[:n_bias] = self.radius * rng.uniform(1.0, 2.0, size=(n_bias, 1))
        return self.project(np.asarray(self.center) + direction * radii)


@dataclass(frozen=True)
class HalfspaceDomain(ControlDomain):
    """Intersection of halfspaces {v : A v <= c}; may be unbounded.

    The projection runs Dykstra's alternating scheme over the single-halfspace
    projections (each of which is closed form) to tolerance 1e-12.
    """

    normals: tuple  # rows of A
    offsets: tuple  # entries of c
    kind = "halfspace-intersection"

    def __post_init__(self):
        a_mat = np.atleast_2d(np.asarray(self.normals, dtype=np.float64))
        c_vec = np.atleast_1d(np.asarray(self.offsets, dtype=np.float64))
        if a_mat.shape[0] != c_vec.shape[0]:
            raise ValueError("one offset per halfspace required")
        if np.any(np.linalg.norm(a_mat, axis=1) < 1e-12):
            raise ValueError("halfspace normals must be nonzero")
        object.__setattr__(self, "normals", tuple(map(tuple, a_mat)))
        object.__setattr__(self, "offsets", tuple(c_vec))

    @property
    def dim(self):
        return len(self.normals[0])

    def _arrays(self):
        return np.asarray(self.normals), np.asarray(self.offsets)

    def contains(self, v, tol=1e-9):
        a_mat, c_vec = self._arrays()
        slack = np.einsum("...k,hk->...h", np.asarray(v, dtype=np.float64), a_mat) - c_vec
        return np.all(slack <= tol, axis=-1)

    def project(self, v):
        v = np.asarray(v, dtype=np.float64)
        flat = v.reshape(-1, v.shape[-1]).copy()
        inside = self.contains(flat, tol=0.0)
        todo = ~inside
        if np.any(todo):
            flat[todo] = self._dykstra(flat[todo])
        return flat.reshape(v.shape)

    def pullback(self, raw, weight):
        """Outside the domain, J = I - A_F^T (A_F A_F^T)^+ A_F = J^T for the
        faces F active at the projection (slack above -1e-9; Dykstra's steps
        stop at 1e-13): the projection onto their common tangent space."""
        out = ~self.contains(raw, tol=0.0)
        if np.any(out):
            a_mat, c_vec = self._arrays()
            active = self._dykstra(raw[out]) @ a_mat.T - c_vec > -1e-9
            a_f = active[:, :, None] * a_mat  # (S, H, k), zero rows off F
            a_f_t = np.swapaxes(a_f, 1, 2)
            w = weight[out][:, :, None]
            weight[out] = (w - a_f_t @ np.linalg.pinv(a_f @ a_f_t) @ a_f @ w)[:, :, 0]
        return weight

    def _dykstra(self, pts):
        a_mat, c_vec = self._arrays()
        norms_sq = np.einsum("hk,hk->h", a_mat, a_mat)
        x = pts.copy()
        corrections = np.zeros((a_mat.shape[0],) + pts.shape)
        for _ in range(500):
            x_prev = x.copy()
            for h in range(a_mat.shape[0]):
                y = x + corrections[h]
                viol = np.maximum(np.einsum("mk,k->m", y, a_mat[h]) - c_vec[h], 0.0)
                x = y - (viol / norms_sq[h])[:, None] * a_mat[h]
                corrections[h] = y - x
            if abs_max(x - x_prev) <= 1e-13:
                break
        return x

    def _inscribed_ball(self):
        """(centre, r): a ball of radius r inside the domain, r the largest
        such radius capped at 1, and of those centres the one nearest the
        origin (the projection of the origin onto the halfspaces moved
        inwards by r)."""
        a_mat, c_vec = self._arrays()
        norms = np.linalg.norm(a_mat, axis=1)
        radius = min(1.0, _chebyshev_radius(a_mat, c_vec, norms))
        inner = HalfspaceDomain(self.normals, tuple(c_vec - radius * norms))
        return inner.project(np.zeros(self.dim)), radius

    def sample(self, rng, size, boundary_bias=0.0):
        """Normal draws about the centre of :meth:`_inscribed_ball`, scaled by
        its radius, projected into the domain."""
        centre, radius = self._inscribed_ball()
        draws = rng.standard_normal((size, self.dim))
        n_bias = int(round(boundary_bias * size))
        if n_bias:
            draws[:n_bias] = 3.0 * rng.standard_normal((n_bias, self.dim))
        return self.project(centre + radius * draws)


def _chebyshev_radius(a_mat: np.ndarray, c_vec: np.ndarray, norms: np.ndarray) -> float:
    """Radius of the largest ball in {v : A v <= c}, the linear program
    max r s.t. A v + r |a| <= c, from its dual: the least c . y over y >= 0
    with A^T y = 0 and |a| . y = 1. The dual optimum sits at a vertex, which
    has at most k + 1 nonzero entries, so every support of up to k + 1 of
    the H faces is tried (about H^(k+1) small solves). ``inf`` when no such
    y exists (the domain holds any ball)."""
    rows = np.vstack([a_mat.T, norms])
    rhs = np.zeros(rows.shape[0])
    rhs[-1] = 1.0
    best = math.inf
    for size in range(1, rows.shape[0] + 1):
        for support in map(list, combinations(range(len(c_vec)), size)):
            y = np.linalg.lstsq(rows[:, support], rhs, rcond=None)[0]
            if np.all(y >= -1e-12) and np.allclose(rows[:, support] @ y, rhs, rtol=0.0, atol=1e-12):
                best = min(best, float(y @ c_vec[support]))
    return best


@dataclass(frozen=True)
class ProblemSpec:
    n: int
    d: int
    k: int
    T: float
    x0: np.ndarray
    coeffs: CoefficientSet
    domain: ControlDomain
    constants: AssumptionConstants

    def __post_init__(self):
        if min(self.n, self.d, self.k) < 1:
            raise ValueError("dimensions n, d, k must be >= 1")
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        x0 = np.asarray(self.x0, dtype=np.float64).reshape(-1).copy()
        if x0.shape != (self.n,):
            raise ValueError(f"x0 must have length n={self.n}")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        if len(self.constants.sigma_x_sup) != self.d:
            raise ValueError("sigma_x_sup needs one bound per Brownian component")


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants of the well-posedness theory.

    ``p_bar`` can sit closer to 1 than one float spacing when the target of
    the critical-exponent equation is large; ``p_bar_minus_one`` keeps the
    offset exactly, and the conjugate ``p_bar_star`` is computed from it.
    """

    alpha_tilde: float
    A: float
    p_bar: float
    p_bar_minus_one: float
    p_bar_star: float
    admissibility_exponent: float

    def to_dict(self) -> dict:
        return {
            "alpha_tilde": self.alpha_tilde,
            "A": self.A,
            "p_bar": self.p_bar,
            "p_bar_star": self.p_bar_star,
            "admissibility_exponent": self.admissibility_exponent,
        }


def _degenerate(reason: str) -> SolverError:
    return SolverError(f"degenerate parameter set: {reason}", phase="deriving the constants")


def derive_constants(spec: ProblemSpec) -> DerivedConstants:
    """Ceiling A for the backward solution, critical exponent of the
    linearisation weights, and the admissibility moment exponent."""
    c = spec.constants
    gamma, t_hor = c.gamma, spec.T
    try:  # a float power or math.exp beyond the float range raises
        alpha_tilde = math.exp(t_hor * c.f_y_sup) * (
            c.Phi_sup + t_hor * c.f_y_sup + c.alpha * t_hor + c.L2**2 * t_hor / (4.0 * gamma)
        )
        growth = 4.0 * gamma * alpha_tilde
        if growth > 700.0:
            raise _degenerate("exponential ceiling overflows")
        big_a = alpha_tilde + (1.0 / (2.0 * gamma)) * math.exp(growth) * (
            1.0 / (4.0 * gamma) + (1.0 + c.f_y_sup * t_hor) * alpha_tilde
        )
        sigma_x_term = 2.0 * t_hor * sum(s**2 for s in c.sigma_x_sup)
        target = math.sqrt(
            (c.L3**2 * t_hor + 2.0 * gamma**2 * big_a) * (3.0 + 4.0 * spec.n * spec.d) + sigma_x_term
        )
    except OverflowError:
        raise _degenerate("a constant overflows") from None
    if not math.isfinite(target):
        raise _degenerate("critical-exponent target is not finite")
    offset = bmo.psi_inverse_offset(target)
    if offset == 0.0:
        raise _degenerate(f"critical exponent underflows (target {target:.3g})")
    p_star = bmo.conjugate_exponent_from_offset(offset)
    return DerivedConstants(
        alpha_tilde=alpha_tilde,
        A=big_a,
        p_bar=1.0 + offset if math.isfinite(offset) else math.inf,
        p_bar_minus_one=offset,
        p_bar_star=p_star,
        admissibility_exponent=4.0 * p_star,
    )


#: Half-width of the validation sampling box (controls are then projected).
VALIDATION_BOUND = 10.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst_ratio: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "pass": c.passed, "worst_ratio": c.worst_ratio, "detail": c.detail}
                for c in self.checks
            ],
        }


_RATIO_FLOOR = 1e-12
_RATIO_TOL = 1e-9
_FD_STEP = 1e-5
_FD_TOL = 1e-6


def validate_assumptions(
    spec: ProblemSpec,
    sample_count: int,
    seed: int = 0,
) -> ValidationReport:
    """Spot-check the declared constants and derivative evaluators by sampling.

    Each declared inequality is evaluated at random points whose x, y, z and
    u coordinates lie in [-VALIDATION_BOUND, VALIDATION_BOUND]; the report
    carries the worst observed left/right ratio per check (values above 1
    fail). Derivative evaluators are compared against central finite
    differences of the base evaluators. Non-finite evaluator output raises
    immediately: it signals an ill-posed problem, not a failed bound, and
    so does an evaluator that raises a :class:`qsmp.errors.SolverError`.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    return located(_sampled_checks, spec, sample_count, seed, phase="validating the assumptions")


def _sampled_checks(spec: ProblemSpec, sample_count: int, seed: int) -> ValidationReport:
    rng = np.random.default_rng([seed, 1])
    m = sample_count
    n, d, k = spec.n, spec.d, spec.k
    t_vals = rng.uniform(0.0, spec.T, size=max(4, m // 8))
    x = rng.uniform(-VALIDATION_BOUND, VALIDATION_BOUND, size=(m, n))
    y = rng.uniform(-VALIDATION_BOUND, VALIDATION_BOUND, size=m)
    z = rng.uniform(-VALIDATION_BOUND, VALIDATION_BOUND, size=(m, d))
    u = spec.domain.project(rng.uniform(-VALIDATION_BOUND, VALIDATION_BOUND, size=(m, k)))
    zeros_y = np.zeros(m)
    zeros_z = np.zeros((m, d))

    co, cs = spec.coeffs, spec.constants
    report = ValidationReport([])

    def to_finite(name, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise SolverError(f"evaluator {name} returned non-finite values")
        return arr

    def ratio_check(name, lhs, rhs):
        lhs = np.asarray(lhs, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        ratios = lhs / np.maximum(rhs, _RATIO_FLOOR)
        worst = float(ratios.max()) if ratios.size else 0.0
        report.checks.append(CheckResult(name, worst <= 1.0 + _RATIO_TOL, worst))

    growth = 1.0 + np.abs(y) + np.einsum("md,md->m", z, z) + np.linalg.norm(u, axis=1)

    worst_fd = 0.0
    for t in t_vals:
        f0 = to_finite("f", co.f(t, x, zeros_y, zeros_z, u))
        fx = to_finite("f_x", co.f_x(t, x, y, z, u))
        fy = to_finite("f_y", co.f_y(t, x, y, z, u))
        fz = to_finite("f_z", co.f_z(t, x, y, z, u))
        fu = to_finite("f_u", co.f_u(t, x, y, z, u))
        bx = to_finite("b_x", co.b_x(t, x, u))
        bu = to_finite("b_u", co.b_u(t, x, u))
        sx = to_finite("sigma_x", co.sigma_x(t, x, u))
        su = to_finite("sigma_u", co.sigma_u(t, x, u))
        ratio_check(f"f_at_origin@t={t:.3g}", np.abs(f0), np.full(m, cs.alpha))
        ratio_check(f"f_x_growth@t={t:.3g}", np.linalg.norm(fx, axis=1), cs.L1 * growth)
        ratio_check(f"f_y_bound@t={t:.3g}", np.abs(fy), np.full(m, cs.f_y_sup))
        ratio_check(
            f"f_z_growth@t={t:.3g}",
            np.linalg.norm(fz, axis=1),
            cs.L2 + cs.gamma * np.linalg.norm(z, axis=1),
        )
        ratio_check(f"f_u_growth@t={t:.3g}", np.linalg.norm(fu, axis=1), cs.L3 * growth)
        ratio_check(f"b_x_bound@t={t:.3g}", _fro(bx), np.full(m, cs.b_x_sup))
        ratio_check(f"b_u_bound@t={t:.3g}", _fro(bu), np.full(m, cs.b_u_sup))
        for i in range(d):
            ratio_check(f"sigma_x_bound[{i}]@t={t:.3g}", _fro(sx[:, i]), np.full(m, cs.sigma_x_sup[i]))
        ratio_check(f"sigma_u_bound@t={t:.3g}", _fro(su).max(axis=-1), np.full(m, cs.sigma_u_sup))
        worst_fd = max(worst_fd, _derivative_discrepancy(co, t, x, y, z, u, bx, bu, sx, su, fx, fy, fz, fu))

    phi = to_finite("Phi", co.Phi(x))
    phi_x = to_finite("Phi_x", co.Phi_x(x))
    ratio_check("Phi_bound", np.abs(phi), np.full(m, cs.Phi_sup))
    ratio_check("Phi_x_bound", np.linalg.norm(phi_x, axis=1), np.full(m, cs.Phi_x_sup))
    worst_fd = max(worst_fd, _terminal_discrepancy(co, x, phi_x))

    report.checks.append(
        CheckResult(
            "derivative_finite_differences",
            worst_fd <= _FD_TOL,
            worst_fd / _FD_TOL,
            f"max relative discrepancy {worst_fd:.3g} at h={_FD_STEP:g}",
        )
    )
    return report


def _fro(arr):
    """Frobenius norm over the trailing two axes."""
    return np.sqrt(np.einsum("...ij,...ij->...", arr, arr))


def _central_difference(fn, args, pos, j):
    """Central difference of ``fn(*args)`` in component j of argument ``pos``
    (in the whole argument when it is one-dimensional, as y is)."""
    bump = np.zeros_like(args[pos])
    if bump.ndim == 1:
        bump[:] = _FD_STEP
    else:
        bump[:, j] = _FD_STEP
    up, down = list(args), list(args)
    up[pos], down[pos] = args[pos] + bump, args[pos] - bump
    return (np.asarray(fn(*up)) - np.asarray(fn(*down))) / (2 * _FD_STEP)


def _relative_gap(fd, exact, scale) -> float:
    return float(abs_max(fd - exact) / (1.0 + abs_max(scale)))


def _derivative_discrepancy(co, t, x, y, z, u, bx, bu, sx, su, fx, fy, fz, fu) -> float:
    """Largest relative gap between the declared derivatives of b, sigma and
    f and central differences of the base evaluators."""
    state_args, gen_args = (t, x, u), (t, x, y, z, u)
    worst = 0.0
    for pos, jac_b, jac_s in ((1, bx, sx), (2, bu, su)):
        for j in range(jac_b.shape[2]):
            fd_b = _central_difference(co.b, state_args, pos, j)
            # fd_s is (M, n, d); the declared Jacobians are per diffusion column.
            fd_s = np.moveaxis(_central_difference(co.sigma, state_args, pos, j), 2, 1)
            worst = max(worst, _relative_gap(fd_b, jac_b[:, :, j], jac_b))
            worst = max(worst, _relative_gap(fd_s, jac_s[:, :, :, j], jac_s))
    for pos, grad in ((1, fx), (2, fy[:, None]), (3, fz), (4, fu)):
        for j in range(grad.shape[1]):
            fd = _central_difference(co.f, gen_args, pos, j)
            worst = max(worst, _relative_gap(fd, grad[:, j], grad))
    return worst


def _terminal_discrepancy(co, x, phi_x) -> float:
    worst = 0.0
    for j in range(x.shape[1]):
        worst = max(worst, _relative_gap(_central_difference(co.Phi, (x,), 0, j), phi_x[:, j], phi_x))
    return worst

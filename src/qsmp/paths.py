"""Time discretisation, Brownian batches, and Euler stepping of the state
dynamics.

Path-step arrays have the logical shape (M, N+1, ...) (or (M, N, ...)) and
are stored step-major (:func:`step_major`): the scheme walks the grid one
step at a time, so each step's slice ``a[:, i]`` is one contiguous block.
"""

from __future__ import annotations

import math
import mmap
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ExplosionError, located

if TYPE_CHECKING:  # annotations only: model imports this module, for abs_max
    from .model import ProblemSpec

EXPLOSION_GUARD = 1e8
#: Paths per block when Brownian increments are drawn.
_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps; the last point is pinned to T."""

    N: int
    T: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not self.T > 0:
            raise ValueError("T must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        times = np.arange(self.N + 1) * self.dt
        times[-1] = self.T
        return times


def abs_max(a: np.ndarray):
    """max |a| as ``np.maximum(a.max(), -a.min())``: the same value as
    ``np.abs(a).max()`` without the temporary |a|, NaN where ``a`` holds a
    NaN, and +0.0 (not the -0.0 of ``-a.min()``) where ``a`` is all zeros."""
    return np.maximum(a.max(), -a.min()) + 0.0


def step_major(shape, fill=None) -> np.ndarray:
    """A float array of logical shape (M, steps, ...) stored step by step,
    so that ``a[:, i]`` is C-contiguous; uninitialised unless ``fill`` is
    given."""
    m_paths, steps, *rest = shape
    block = (steps, m_paths, *rest)
    return np.moveaxis(np.empty(block) if fill is None else np.full(block, float(fill)), 0, 1)


def shared_zeros(shape) -> np.ndarray:
    """A float array of zeros in an anonymous shared mapping. A process forked
    while it lives maps the same pages: each sees what the other writes, and
    neither's write copies a page, as a write to a private array shared by
    the fork does."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def shared_step_major(shape) -> np.ndarray:
    """:func:`step_major` storage of zeros in an anonymous shared mapping
    (:func:`shared_zeros`): for what a sweep's visit writes while the
    sweep's partner process runs (:func:`qsmp.bsde.backward_sweep`)."""
    m_paths, steps, *rest = shape
    return np.moveaxis(shared_zeros((steps, m_paths, *rest)), 0, 1)


@dataclass(frozen=True)
class BrownianBatch:
    """Batch of Brownian increments, reproducible from (seed, stream_id);
    stored step-major (see :func:`step_major`)."""

    increments: np.ndarray  # (M, N, d)
    seed: int
    stream_id: int

    @property
    def M(self) -> int:
        return self.increments.shape[0]

    @property
    def d(self) -> int:
        return self.increments.shape[2]


def simulate_brownian(grid: TimeGrid, M: int, d: int, seed: int, stream_id: int = 0) -> BrownianBatch:
    """Normal(0, dt) increments, independent across (path, step, component).

    The same (seed, stream_id) regenerates the batch bit-for-bit; disjoint
    stream ids give independent batches for partitioned simulation.
    """
    if M < 1 or d < 1:
        raise ValueError("M and d must be >= 1")
    rng = np.random.default_rng([int(seed), int(stream_id), 0x5D])
    incs = step_major((M, grid.N, d))
    # The stream fills the batch path by path; drawing it one block of paths
    # at a time gives the same values without a path-major copy of it all.
    for start in range(0, M, _DRAW_BLOCK):
        block = incs[start : start + _DRAW_BLOCK]
        np.multiply(rng.standard_normal(block.shape), math.sqrt(grid.dt), out=block)
    incs.setflags(write=False)
    return BrownianBatch(incs, int(seed), int(stream_id))


class Control:
    """A control policy evaluated step by step along simulated states."""

    def values(self, i: int, t: float, states: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FeedbackControl(Control):
    """Markovian feedback map u(t, x); ``fn(t, states (M,n)) -> (M,k)``."""

    fn: object
    k: int

    def values(self, i, t, states):
        out = np.asarray(located(self.fn, t, states, step=i), dtype=np.float64)
        if out.shape != (states.shape[0], self.k):
            raise ValueError(f"feedback returned shape {out.shape}, expected (M, {self.k})")
        return out


@dataclass(frozen=True)
class ConstantControl(Control):
    value: tuple

    def values(self, i, t, states):
        return np.broadcast_to(np.asarray(self.value, dtype=np.float64), (states.shape[0], len(self.value)))


@dataclass(frozen=True)
class ForwardBatch:
    """States and realized controls of the forward equation on the grid,
    stored step-major (see :func:`step_major`)."""

    states: np.ndarray  # (M, N+1, n)
    controls: np.ndarray  # (M, N+1, k)


def solve_forward_sde(
    spec: ProblemSpec,
    grid: TimeGrid,
    noise: BrownianBatch,
    control: Control,
    out: ForwardBatch | None = None,
    rows: slice = slice(None),
) -> ForwardBatch:
    """Euler-Maruyama: X_{i+1} = X_i + b dt + sigma dW; exact for constant
    coefficients. Aborts with the step index if a state leaves the blow-up
    guard or turns non-finite. Writes into ``out`` if given, else into a new
    batch, and steps only the paths ``rows``: no path reads another, so two
    processes that share ``out`` may each step one part of the paths (the
    control must be a feedback one, which reads only the states given)."""
    if noise.increments.shape[1] != grid.N or noise.d != spec.d:
        raise ValueError("noise batch does not match grid/spec dimensions")
    times = grid.times
    dt = grid.dt
    if out is None:
        out = ForwardBatch(step_major((noise.M, grid.N + 1, spec.n)), step_major((noise.M, grid.N + 1, spec.k)))
    states, controls, increments = out.states[rows], out.controls[rows], noise.increments[rows]
    states[:, 0] = spec.x0
    co = spec.coeffs
    for i in range(grid.N):
        x_i = states[:, i]
        u_i = control.values(i, times[i], x_i)
        controls[:, i] = u_i
        drift = np.asarray(located(co.b, times[i], x_i, u_i, step=i), dtype=np.float64)
        diff = np.asarray(located(co.sigma, times[i], x_i, u_i, step=i), dtype=np.float64)
        nxt = x_i + drift * dt + np.einsum("mnd,md->mn", diff, increments[:, i])
        if not abs_max(nxt) <= EXPLOSION_GUARD:  # also NaN and infinities
            raise ExplosionError("forward state left the admissible range", step=i)
        states[:, i + 1] = nxt
    controls[:, grid.N] = control.values(grid.N, times[-1], states[:, grid.N])
    return out


DEFAULT_EPSILONS = (0.25, 0.125, 0.0625, 0.03125, 0.015625)


def check_epsilons(epsilons) -> list:
    """At least four perturbation sizes in (0, 1], as a list of floats."""
    eps_list = list(epsilons)
    if len(eps_list) < 4 or not all(isinstance(e, numbers.Real) and 0.0 < e <= 1.0 for e in eps_list):
        raise ValueError("need >= 4 epsilons in (0, 1]")
    return [float(e) for e in eps_list]

"""Continuous relaxation dynamics for QUBO instances.

Three solver families share one pair of integrators:

  first order (kinds I and II):
      dx_i/dt = -alpha x_i + beta sum_j J_ij phi(x_j)
  second order (kind III):
      d2x_i/dt2 = gamma dx_i/dt - alpha x_i + beta sum_j J_ij phi(x_j)

Kinds I and II are one first-order path: both take constant alpha and
beta or schedules (functions of the step index), and kind II keeps its
name because callers construct it.  Kind III adds the velocity
term.  The bifurcation-machine mode (kind TBM) is kind III with the
sign nonlinearity, gamma = 0, the pump p = LinearRamp(0, 2, max_steps),
and coefficients alpha(t) = delta * (delta - p(t)), beta = delta *
xi0; it is executed through the identical class-III path so the
mapping is exact step for step.

Integration is plain forward Euler with step dt for both orders: a
second-order step advances the position by dt times the old velocity
and the velocity by dt times the acceleration evaluated at the old
state.  Second-order trajectories are confined to the derivative
window [-w, w]: a coordinate crossing it is clamped to the boundary
and its velocity multiplied by zero, which acts as the threshold
element of the bifurcation machine.  The step multiplies v by
(clamped x == unclamped x).  For a finite velocity that is zeroing it,
except that a negative one becomes -0.0; it sits at a coordinate
clamped to +-w != 0, so no state, spin or energy depends on that sign.
A NaN position compares unequal, and its row diverges at that step
either way.  An inf or NaN velocity crossing the window becomes NaN
(inf * 0), so its row diverges at the next step instead of resting at
the wall.  A trajectory is steady once
max_i |delta x_i| < steady_tol * dt; steady_tol = 0 therefore never
converges and runs a fixed step count.  A state with an entry beyond
|x| = 1e6, or a non-finite one, ends as a diverged row.  A SolverConfig
checks itself when it is made, so a bad config fails before any
trajectory and the step loops hold only arithmetic.

Each block decides before its first step what it can never do:

  * Schedules are evaluated once per block, one value per step; a
    constant is only repeated.
  * A block proven bounded skips the divergence scan, which could not
    fire on it.  First order: with 0 < alpha dt < 2 at every step, every
    state stays within B = max(max|x0|, dt max|beta| s / (1 - q)), where
    q = max |1 - alpha dt| and s is the largest column sum of |J| (every
    |phi| <= 1); the scan is skipped when 2 B < 1e6.  Second order: with
    gamma = 0, a window <= 1e6, a finite start and dt^2 max_steps
    (max|beta| s + max|alpha| max(window, max|x0|)) far below overflow,
    every clamp leaves |x| <= window and no inf or NaN can form.  Such a
    block that cannot converge either (steady_tol = 0, every TBM run)
    has no row to settle, so retire returns at once.
  * A constant gamma = 0 drops the gamma v term: the step computes
    b h - a x, not b h + (0 v - a x).  The two are equal except that an
    exact zero in v or in the acceleration may take the other sign, so
    spins, energies and labels cannot change.
  * A float32 block of kind I or II steps in float32 (J cast once per
    block, coefficients rounded to float32) only when the first-order
    bound holds for the rounded values with float32's contraction floor
    and overflow margin (_first_order_bounded), so it is never scanned
    for divergence.  Every other float32 block, and every second-order
    one, runs in float64 from the rounded starts; a block of any other
    dtype runs in float64.  Spins, energies and labels come from the
    final signs in float64 either way.

Whole blocks of trajectories integrate together as (runs, n) arrays.
Each step touches only the rows still running, held as compact arrays;
a row that converges or diverges is written back into the block once
and dropped.  A row test (every entry steady, every entry within the
limit) is one byte-string comparison over the block (_all_rows), not
a call per row.  run_batch returns the block as one Batch of arrays:
final spins, energies, steps, status codes and labels; a RunOutcome
is one row of it, made only when asked for.  Output bytes are
deterministic: the same inputs give the same bits on replay and at
any worker count, because workers never change a block's shape.  BLAS
may round the coupling product of a row differently depending on how
many rows share it, so a row run alone and the same row inside a block
agree in spins, steps, status and label, and in states and energies to
1e-12 relative, but not necessarily bit for bit.  trajectory runs one
row and hands the step loop a list, to which it appends a copy of the
state after every step.

Initial states are uniform on [-a, a]^n, and second-order runs start
at rest (zero velocity).  random_initial draws one row
from np.random.default_rng(seed); initial_states draws a block of rows
with the same bits by running numpy's seeding hash and PCG64 stream
over the whole seed column at once.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from . import energy as energy_mod
from .errors import ValidationError
from .instance import Instance
from .textio import _check_finite, _check_int, _is_finite, _is_real, _shown

__all__ = [
    "Schedule",
    "LinearRamp",
    "SolverConfig",
    "RunOutcome",
    "Batch",
    "random_initial",
    "initial_states",
    "run_batch",
    "trajectory",
]

DIVERGENCE_LIMIT = 1e6

Schedule = Union[float, Callable[[int], float]]


@dataclass(frozen=True)
class LinearRamp:
    """Linear schedule from start to stop over num_steps, then held."""

    start: float
    stop: float
    num_steps: int

    def __call__(self, step: int) -> float:
        if step >= self.num_steps:
            return self.stop
        return self.start + (self.stop - self.start) * step / self.num_steps


_NONLINEARITIES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sign": np.sign,
    # ndarray.clip skips np.clip's array-function dispatch, but it is not
    # the bare clip ufunc either: numpy 2.4 routes every call, here and in
    # _second_order's window clip, through the Python function
    # numpy._core._methods._clip
    "identity-clip": lambda x, out=None: x.clip(-1.0, 1.0, out=out),
}


# The SolverConfig fields each solver kind reads; every other field keeps
# its default.  bench's sweep axes and cli's solver flags follow.
_FIRST_ORDER_READS = ("alpha", "beta", "nonlinearity", "dt", "max_steps", "steady_tol",
                      "init_amplitude")
_READS = {
    "I": _FIRST_ORDER_READS,
    "II": _FIRST_ORDER_READS,
    "III": _FIRST_ORDER_READS + ("gamma", "derivative_window"),
    "TBM": ("delta", "xi0", "derivative_window", "dt", "max_steps", "init_amplitude"),
}


@dataclass(frozen=True)
class SolverConfig:
    """Solver selection and integration parameters.

    kind: "I", "II", "III", or "TBM".  alpha, beta, gamma accept finite
    constants or per-step schedules (not evaluated here); kind TBM
    derives them from its finite detuning delta and coupling scale xi0
    under the pump LinearRamp(0.0, 2.0, max_steps).  nonlinearity is a
    key of _NONLINEARITIES.  derivative_window (a real > 0) bounds
    second-order trajectories (use float("inf") to disable).
    init_amplitude (a real > 0, twice it finite) is the half-width of
    the uniform initial condition.  dt must be finite and > 0, max_steps
    an integer >= 1 and steady_tol >= 0.  Every field is checked when
    made, and a field the kind does not read (_READS) must keep its
    default, so SolverConfig(kind="I", gamma=0.5) raises and
    SolverConfig(kind="TBM") runs with delta 1.0 and xi0 0.1.  Each
    constant is then stored as a Python float (max_steps as an int), so
    equal configs have equal reprs, which sweep hashes digest.
    """

    kind: str = "I"
    alpha: Schedule = 1.0
    beta: Schedule = 1.0
    gamma: Schedule = 0.0
    nonlinearity: str = "tanh"
    derivative_window: float = 1.0
    dt: float = 0.1
    max_steps: int = 1000
    steady_tol: float = 1e-9
    init_amplitude: float = 0.5
    delta: float = 1.0
    xi0: float = 0.1

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _READS):
            raise ValidationError(f"unknown solver kind {self.kind!r}")
        if not (isinstance(self.nonlinearity, str) and self.nonlinearity in _NONLINEARITIES):
            raise ValidationError(f"unknown nonlinearity {self.nonlinearity!r}; "
                                  f"choose from {sorted(_NONLINEARITIES)}")
        if not (_is_real(self.derivative_window) and self.derivative_window > 0):
            raise ValidationError("derivative window must be positive (finite or inf), "
                                  f"got {_shown(self.derivative_window)}")
        if not (_is_finite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be positive and finite, got {_shown(self.dt)}")
        _check_int(self.max_steps, "max_steps", least=1)
        if not (_is_real(self.steady_tol) and self.steady_tol >= 0):
            raise ValidationError(
                f"steady_tol must be >= 0 (finite or inf), got {_shown(self.steady_tol)}"
            )
        _check_amplitude(self.init_amplitude)
        for name in ("alpha", "beta", "gamma"):
            if not callable(getattr(self, name)):
                _check_finite(getattr(self, name), name)
        _check_finite(self.delta, "delta")
        _check_finite(self.xi0, "xi0")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("kind", *_READS[self.kind]) and value != f.default:
                raise ValidationError(f"{f.name} does not apply to solver kind {self.kind}")
            if _is_real(value):
                plain = int(value) if f.name == "max_steps" else float(value)
                object.__setattr__(self, f.name, plain)


# a row's status code in a Batch (RUNNING: stopped at max_steps unconverged)
RUNNING, CONVERGED, DIVERGED = 0, 1, 2


@dataclass(frozen=True, eq=False)
class RunOutcome:
    """Result of one trajectory: one row of a Batch.

    final_spins is sign(x) with sign(0) := +1, a view into the batch's
    spins.  label is never None: a diverged run is labelled diverged,
    and a run on an instance without a pattern set (hence without a
    planted spectrum) unlabelled.
    """

    final_spins: np.ndarray
    final_energy: float
    steps_used: int
    converged: bool
    diverged: bool
    label: energy_mod.OutcomeLabel


@dataclass(frozen=True, eq=False)
class Batch:
    """Result of run_batch: one entry per row of the initial block, as arrays.

    spins is the (r, n) int8 block of final signs, energies their
    energies, steps the steps each row used and status its code:
    CONVERGED, DIVERGED, or RUNNING for a row that stopped at max_steps.
    labels holds one OutcomeLabel per row.  batch[i], and iteration,
    give row i as a RunOutcome.
    """

    spins: np.ndarray
    energies: np.ndarray
    steps: np.ndarray
    status: np.ndarray
    labels: list[energy_mod.OutcomeLabel]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int) -> RunOutcome:
        i = operator.index(i)
        code = int(self.status[i])
        return RunOutcome(
            final_spins=self.spins[i],
            final_energy=float(self.energies[i]),
            steps_used=int(self.steps[i]),
            converged=code == CONVERGED,
            diverged=code == DIVERGED,
            label=self.labels[i],
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def _check_amplitude(amplitude: float) -> float:
    # numpy's uniform needs the width 2a finite as well
    if not (_is_finite(amplitude) and amplitude > 0 and math.isfinite(2.0 * float(amplitude))):
        raise ValidationError(
            f"amplitude must be positive and finite (2*amplitude too), got {_shown(amplitude)}"
        )
    return float(amplitude)


def random_initial(n: int, amplitude: float = 0.5, seed: int = 0) -> np.ndarray:
    """Uniform initial state on [-amplitude, amplitude]^n.

    n is an integer >= 0 and seed one entry under initial_states' seed rule.
    """
    a = _check_amplitude(amplitude)
    _check_int(n, "n", least=0)
    _seed_column([seed])
    return np.random.default_rng(seed).uniform(-a, a, size=n)


# numpy's SeedSequence (pool of four uint32 words) and PCG64 (128-bit LCG
# with XSL-RR output), restated over a column of seeds at once.
_U32 = 0xFFFFFFFF
_M32 = np.uint64(_U32)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO_HALVES = (_MULT_LO & _M32, _MULT_LO >> 32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _U32)
    return out


# The running hash constant does not depend on the data, so precompute it:
# 4 pool words plus 12 cross mixes use _HASH_A, 8 output words use _HASH_B.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def _hashmix(value: np.ndarray, i: int) -> np.ndarray:
    value = (value ^ np.uint32(_HASH_A[i])) * np.uint32(_HASH_A[i + 1])
    return value ^ (value >> 16)


def _seed_words(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, uint64), one column per word.

    The entropy words are (seed & 0xffffffff, seed >> 32); a seed below
    2^32 has one word, and the pool pads it with the same zero word.
    """
    pool = [
        _hashmix((seeds & _M32).astype(np.uint32), 0),
        _hashmix((seeds >> 32).astype(np.uint32), 1),
    ]
    pool += [_hashmix(np.zeros_like(pool[0]), i) for i in (2, 3)]
    i = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], i)
                pool[dst] = mixed ^ (mixed >> 16)
                i += 1
    halves = []
    for j in range(8):
        v = (pool[j % 4] ^ np.uint32(_HASH_B[j])) * np.uint32(_HASH_B[j + 1])
        halves.append((v ^ (v >> 16)).astype(np.uint64))
    return [halves[2 * j] | (halves[2 * j + 1] << 32) for j in range(4)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * _PCG_MULT + inc mod 2^128 on (hi, lo) uint64 columns."""
    # high word of the 64 x 64 -> 128 bit product lo * _MULT_LO, in 32-bit halves
    lo0, lo1 = lo & _M32, lo >> 32
    m0, m1 = _MULT_LO_HALVES
    p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry_hi = lo1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry_hi + hi * _MULT_LO + lo * _MULT_HI + inc_hi
    new_hi += (new_lo < inc_lo).astype(np.uint64)
    return new_hi, new_lo


def _seed_column(seeds) -> np.ndarray:
    """seeds as a 1-D uint64 array of integers in [0, 2^64), no bools."""
    # entry by entry: np.asarray makes [2**63 + 5, 7] float64, losing digits
    column = seeds if isinstance(seeds, np.ndarray) else np.array(seeds, dtype=object)
    integers = column.dtype.kind in "iu" or (column.dtype == object and all(
        isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in column.flat))
    if column.ndim != 1 or (column.size and not integers):
        raise ValidationError("seeds must be a 1-D array of integers")
    if column.size and (column.min() < 0 or column.max() >= 2**64):
        raise ValidationError("seeds must be >= 0 and < 2^64")
    return column.astype(np.uint64)


def initial_states(n: int, amplitude: float, seeds) -> np.ndarray:
    """(len(seeds), n) block whose row i equals random_initial(n, amplitude, seeds[i]).

    The rows match np.random.default_rng(seed).uniform(-a, a, n) bit for
    bit.  Seeds must be integers in [0, 2^64).  The seeding hash runs
    once over the whole seed column, and then the generators step one
    output column at a time, so every temporary has one entry per row.
    """
    a = _check_amplitude(amplitude)
    _check_int(n, "n", least=0)
    seeds = _seed_column(seeds)
    state_hi, state_lo, seq_hi, seq_lo = _seed_words(seeds)
    # PCG64 srandom: inc = 2 * seq + 1, state = (inc + state) * MULT + inc
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((seeds.size, n))
    low, width = -a, a - -a
    for col in range(n):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        u = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, col] = low + width * ((u >> 11) * 2.0**-53)
    return out


# Far below the largest float64, 1.8e308, and float32, 3.4e38: a magnitude
# under it leaves room for the sums and rounding of one step without
# reaching inf.
_SAFE = 1e300
_SAFE32 = 1e30


def _per_step(coeff: Schedule, count: int):
    """coeff at steps 0 .. count - 1, and the values it takes as an array.

    A schedule is called for every step here, once per block; a constant
    is repeated, so a block never holds count copies of it.
    """
    if callable(coeff):
        values = [coeff(step) for step in range(count)]
        return values, np.array(values, dtype=np.float64)
    return itertools.repeat(coeff, count), np.array([coeff], dtype=np.float64)


def _sizes(j: np.ndarray, x0: np.ndarray) -> tuple[float, float]:
    """max |x0|, and s, the largest column sum of |j| (summed in float64).

    Every |phi| <= 1, so s bounds every entry of phi(x) @ j.
    """
    return (float(np.abs(x0).max(initial=0.0)),
            float(np.abs(j).sum(axis=0, dtype=np.float64).max(initial=0.0)))


def _first_order_bounded(j, x0, dt, alphas, betas) -> bool:
    """True when no state of the block can reach half the divergence limit.

    The block steps in x0's dtype, float64 or float32, with j and every
    coefficient rounded to it, and the bound is taken on those rounded
    values.  With 0 < a dt < 2 at every step and q = max |1 - a dt|, a
    step maps |x| <= B to |x| <= q B + dt max|b| s <= B, so every state
    stays within B = max(max|x0|, dt max|b| s / (1 - q)).  A contraction
    1 - q >= 1e-9 in float64, or 1e-3 in float32, dwarfs the few ulps a
    step rounds by (eps 2.2e-16 and 1.2e-7), the factor 2 covers the
    rest, and a x and b (phi(x) @ j) below _SAFE (_SAFE32) cannot
    overflow.  A j whose cast overflowed has s = inf and is not bounded.
    """
    narrow = x0.dtype == np.float32
    safe, contraction = (_SAFE32, 1e-3) if narrow else (_SAFE, 1e-9)
    dt = float(x0.dtype.type(dt))
    alphas, betas = (np.asarray(c, dtype=x0.dtype).astype(np.float64) for c in (alphas, betas))
    ad = alphas * dt
    if not ((ad > 0).all() and (ad < 2).all()):
        return False
    q = float(np.abs(1.0 - ad).max())
    x_max, s = _sizes(j, x0)
    push = float(np.abs(betas).max()) * s
    if not (q <= 1.0 - contraction and math.isfinite(x_max) and math.isfinite(push)):
        return False
    bound = max(x_max, dt * push / (1.0 - q))
    return (2.0 * bound < DIVERGENCE_LIMIT
            and float(np.abs(alphas).max()) * 2.0 * bound + push < safe)


def _second_order_bounded(j, x0, dt, steps, window, alphas, betas) -> bool:
    """True when no row of an undamped (gamma = 0) block can diverge.

    Every step clamps x to the window, so after it |x| <= window <= the
    divergence limit.  No |x| ever exceeds max(window, max|x0|), so no
    acceleration exceeds m = max|b| s + max|a| max(window, max|x0|), no
    velocity exceeds steps dt m and no move dt v exceeds steps dt^2 m;
    with all three below _SAFE no entry turns inf or NaN.
    """
    x_max, s = _sizes(j, x0)
    if not (window <= DIVERGENCE_LIMIT and math.isfinite(x_max)):
        return False
    m = float(np.abs(betas).max()) * s + float(np.abs(alphas).max()) * max(window, x_max)
    return m * max(1.0, steps * dt, steps * dt * dt) < _SAFE


def _all_rows(flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = flags[i].all() for a C-contiguous (r, n) bool block.

    all(axis=1) pays a call per row.  Here each row is read as one
    n-byte string, which equals n bytes of 1 (True) exactly when every
    entry is True, so the whole block is one comparison.
    """
    n = flags.shape[1]
    if n == 0:
        out.fill(True)
    else:
        np.equal(flags.view(f"S{n}")[:, 0], b"\x01" * n, out=out)
    return out


class _Rows:
    """Status and step bookkeeping of a (runs, n) block of trajectories.

    x is a copy of the start block in its dtype.  The integrators step
    compact arrays holding only the live rows, the ones still running;
    ``live`` maps them to their rows in the block.
    A row that converges or diverges is written into ``x`` once and
    dropped from ``live``.  With a threshold <= 0 no row can converge,
    so ``steady`` is False and the integrators skip the steady measure.
    A block proven bounded skips the divergence scan; when its rows
    cannot converge either, retire returns at once.  The bookkeeping is
    of status only: trajectory's history is appended by the step loops.
    """

    def __init__(self, x0: np.ndarray, max_steps: int, threshold: float, bounded: bool):
        self.x = np.array(x0)  # a copy in x0's dtype, float64 or float32
        r = self.x.shape[0]
        self.steps = np.full(r, max_steps, dtype=np.int64)
        self.status = np.full(r, RUNNING, dtype=np.int8)
        self.live = np.arange(r)
        self.threshold = threshold
        self.steady = threshold > 0
        self.scan = not bounded
        # Per-row and per-entry flags live in preallocated buffers: numpy
        # keeps freed arrays under 1 KiB for reuse, one set per byte size,
        # so fresh flag arrays at every live count would pin that memory.
        self._flags = np.empty((3, r), dtype=bool)
        self._entries = np.empty(self.x.shape, dtype=bool)

    def retire(self, step: int, x: np.ndarray, move: np.ndarray | None,
               scratch: np.ndarray):
        """Settle the live rows after step; return the mask of rows kept.

        x holds the live states after the step and move the per-entry
        steady measure, or None when not self.steady; scratch, shaped
        like x, is overwritten.  A row diverges once any entry is
        non-finite or beyond the limit, and converges once every entry
        of move is below the threshold.  Returns None when every live
        row keeps running; the mask is a view that the next call
        overwrites.
        """
        # The maximum is NaN when any entry is, and NaN <= limit is
        # False, so a bounded block has no diverged row.
        bounded = not self.scan or np.abs(x, out=scratch).max() <= DIVERGENCE_LIMIT
        if bounded and move is None:
            return None
        m = len(x)
        done, entries = self._flags[1, :m], self._entries[:m]
        if move is not None:
            _all_rows(np.less(move, self.threshold, out=entries), done)
        if not bounded:
            diverged = self._flags[0, :m]
            _all_rows(np.less_equal(scratch, DIVERGENCE_LIMIT, out=entries), diverged)
            np.logical_not(diverged, out=diverged)
            if move is None:
                done[:] = diverged
            else:
                done |= diverged
        if not np.count_nonzero(done):  # a C call, where done.any() goes through Python
            return None
        rows = self.live[done]
        self.x[rows] = x[done]
        self.status[rows] = (
            CONVERGED if bounded else np.where(diverged[done], DIVERGED, CONVERGED)
        )
        self.steps[rows] = step + 1
        keep = np.logical_not(done, out=self._flags[2, :m])
        self.live = self.live[keep]
        return keep

    def result(self, x: np.ndarray):
        """Full block of final states, steps used and status codes."""
        self.x[self.live] = x
        return self.x, self.steps, self.status


# The step loops below allocate only when rows retire: every temporary
# is written through out= into scratch arrays made once per block and
# cut to the live rows.  Each element still sees the same operations in
# the same order as the plain expressions in the comments, so the bits
# are the same; the one exception, gamma = 0, is in the module doc.


def _first_order(j: np.ndarray, x0: np.ndarray, cfg: SolverConfig, record: list | None):
    dt, phi, steps = cfg.dt, _NONLINEARITIES[cfg.nonlinearity], cfg.max_steps
    alphas, alpha_values = _per_step(cfg.alpha, steps)
    betas, beta_values = _per_step(cfg.beta, steps)
    # a float32 block steps in float32 only where its bound holds in float32
    narrow = j.astype(np.float32) if x0.dtype == np.float32 else None
    if narrow is not None and _first_order_bounded(narrow, x0, dt, alpha_values, beta_values):
        j, bounded = narrow, True
    else:
        x0 = x0.astype(np.float64, copy=False)
        bounded = _first_order_bounded(j, x0, dt, alpha_values, beta_values)
    rows = _Rows(x0, steps, cfg.steady_tol * dt, bounded)
    x = rows.x.copy()
    # f holds phi(x), then a * x, then the divergence scratch
    f, dx = np.empty_like(x), np.empty_like(x)
    for step, a, b in zip(range(steps), alphas, betas):
        if not len(x):
            break
        # dx = dt * (b * (phi(x) @ j) - a * x)
        np.matmul(phi(x, out=f), j, out=dx)
        if b != 1.0:  # 1.0 * y == y exactly
            dx *= b
        dx -= np.multiply(x, a, out=f)
        dx *= dt
        x += dx
        if record is not None:
            record.append(x.copy())
        move = np.abs(dx, out=dx) if rows.steady else None
        keep = rows.retire(step, x, move, f)
        if keep is not None:
            x = x[keep]
            f, dx = f[: len(x)], dx[: len(x)]
    return rows.result(x)


def _second_order_coefficients(cfg: SolverConfig):
    """alpha, beta, gamma, nonlinearity and steady_tol: kind III's own, or TBM's."""
    # The pump keeps TBM's coefficients time dependent for the whole
    # schedule, so the machine integrates a fixed step count instead of
    # stopping at an intermediate wall-pinned state.
    if cfg.kind == "III":
        return cfg.alpha, cfg.beta, cfg.gamma, cfg.nonlinearity, cfg.steady_tol
    delta, pump = cfg.delta, LinearRamp(0.0, 2.0, cfg.max_steps)
    return lambda step: delta * (delta - pump(step)), delta * cfg.xi0, 0.0, "sign", 0.0


def _second_order(j: np.ndarray, x0: np.ndarray, cfg: SolverConfig, record: list | None):
    alpha, beta, gamma, nonlinearity, steady_tol = _second_order_coefficients(cfg)
    dt, window, steps = cfg.dt, cfg.derivative_window, cfg.max_steps
    phi = _NONLINEARITIES[nonlinearity]
    alphas, alpha_values = _per_step(alpha, steps)
    betas, beta_values = _per_step(beta, steps)
    gammas, _ = _per_step(gamma, steps)
    damped = callable(gamma) or gamma != 0
    bounded = not damped and _second_order_bounded(j, x0, dt, steps, window,
                                                   alpha_values, beta_values)
    rows = _Rows(x0, steps, steady_tol * dt, bounded)
    x, v = rows.x.copy(), np.zeros_like(rows.x)
    # x, x_new and f rotate every step.  f holds phi(x), then a * x, then
    # the clamped x_new, which becomes the new x.  The unclamped x_new
    # becomes f, which retire overwrites as its divergence scratch, and
    # the old x becomes the next x_new.
    x_new, f, acc, t = (np.empty_like(x) for _ in range(4))
    inside = np.empty(x.shape, dtype=bool)
    for step, a, b, g in zip(range(steps), alphas, betas, gammas):
        if not len(x):
            break
        # acc = g * v - a * x + b * (phi(x) @ j)
        np.matmul(phi(x, out=f), j, out=acc)
        acc *= b
        if damped:
            np.multiply(v, g, out=t)
            t -= np.multiply(x, a, out=f)
            acc += t
        else:  # gamma = 0: g * v is a zero (see the module doc)
            acc -= np.multiply(x, a, out=f)
        # x_new = x + dt * v; v += dt * acc
        np.add(x, np.multiply(v, dt, out=t), out=x_new)
        v += np.multiply(acc, dt, out=t)
        # clamp to the window; v *= 0 where the clamp moved x (see the module doc)
        x_new.clip(-window, window, out=f)
        v *= np.equal(f, x_new, out=inside)
        x_new, f = f, x_new
        move = None
        if rows.steady:
            # move = max(|x_new - x|, dt * |v|): steady only when both
            # the realized move and the imminent move are below
            # threshold; from zero velocity the first realized move is
            # identically zero and alone would trip the detector.
            move = np.abs(np.subtract(x_new, x, out=acc), out=acc)
            np.maximum(move, np.multiply(np.abs(v, out=t), dt, out=t), out=move)
        x, x_new = x_new, x
        if record is not None:
            record.append(x.copy())
        keep = rows.retire(step, x, move, f)
        if keep is not None:
            x, v = x[keep], v[keep]
            x_new, f, acc, t, inside = (a[: len(x)] for a in (x_new, f, acc, t, inside))
    return rows.result(x)


# A finite but huge coefficient can overflow mid-step: the row then holds
# inf or nan and retires as diverged, which is data, not a warning.
@np.errstate(over="ignore", invalid="ignore")
def _integrate_block(
    inst: Instance,
    cfg: SolverConfig,
    x0: np.ndarray,
    record: list | None = None,
):
    if cfg.kind in ("I", "II"):
        return _first_order(inst.coupling, x0, cfg, record)
    return _second_order(inst.coupling, x0.astype(np.float64, copy=False), cfg, record)


def _spins(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1, -1).astype(np.int8)


def run_batch(inst: Instance, cfg: SolverConfig, x0_block: np.ndarray) -> Batch:
    """Integrate a (runs, n) block of initial states in one sweep.

    A float32 block runs kinds I and II in float32 where the module doc
    allows it; any other block runs in float64.  A single run is a
    one-row block.  Diverged rows come back flagged, so harnesses count
    them as a failure category.  When the instance carries a pattern
    set, and so a planted spectrum, one OutcomeClassifier built for the
    block labels every row that did not diverge.  The result is one
    Batch of arrays; batch[i] is row i as a RunOutcome.
    The seeds that made x0_block (initial_states) stay with the caller.
    """
    x0_block = np.asarray(x0_block)  # the integrators take it to float64 or float32
    if x0_block.ndim != 2 or x0_block.shape[1] != inst.n:
        raise ValidationError(f"initial block must be (runs, {inst.n})")
    x, steps, status = _integrate_block(inst, cfg, x0_block)
    spins = _spins(x)
    energies = energy_mod.qubo_energy_many(inst.coupling, spins)
    kept = (status != DIVERGED).tolist()
    if inst.pattern_set is None:
        labels = [energy_mod._UNLABELLED if k else energy_mod._DIVERGED for k in kept]
    else:
        classify = energy_mod.OutcomeClassifier(inst.pattern_set, inst.spectrum).classify
        labels = [classify(row, energy) if k else energy_mod._DIVERGED
                  for k, row, energy in zip(kept, spins, energies.tolist())]
    return Batch(spins, energies, steps, status, labels)


def trajectory(inst: Instance, cfg: SolverConfig, x0: np.ndarray) -> np.ndarray:
    """Full state history of one run, shape (steps_taken + 1, n).

    Row 0 is the initial state; integration stops at convergence,
    divergence, or max_steps exactly as in run_batch.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (inst.n,):
        raise ValidationError(f"initial state must have shape ({inst.n},)")
    history = [x0[None, :]]
    _integrate_block(inst, cfg, x0[None, :], record=history)
    return np.vstack(history)

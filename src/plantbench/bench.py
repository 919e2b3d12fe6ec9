"""Experiment sweeps: SR grids, transition scans, and K sweeps.

A sweep evaluates a solver over a small cartesian parameter grid.  Each
grid point runs runs_per_point independent trajectories whose initial
states come from per-run seeds derived as

    seed = blake2b("{base_seed}:{point_index}:{run_index}") mod 2^63,

so results are reproducible bit for bit, independent of worker count,
and grid points never share seeds.  Set-up is per block, not per run:
derive_seeds hashes a point's "{base_seed}:{point_index}:" prefix once
and copies that hash state for each run index, and
dynamics.initial_states draws the point's whole (runs, n) block of
initial states, each row the same bits as
random_initial(n, amplitude, seed).  A run is a hit when its final
energy is the ground energy to energy's 1e-9 relative tolerance, so
mirrors (E(x) = E(-x)) and every state of a degenerate ground count.
The ground energy is the brute-force minimum for n <=
oracle.BRUTE_FORCE_LIMIT and the lowest planted energy above that,
where a run ending below the planted range is below, not a hit.

Per point the sweep also tallies the energy.LABEL_CATEGORIES counts
and the energy.BAND_KEYS counts of the planted energy range.  CSV
emission uses one row per grid point with a fixed column schema:

    <axis names...>, sr, n_runs, hits, diverged,
    label:<category>..., band:<fraction>..., band:below, band:above

textio._write_csv writes every table, floats with repr so files
round-trip exactly.  A text
sidecar (<out>.meta.txt) records the spec hash, seeds, and versions;
no timestamps are written anywhere, which keeps replays byte-identical.

K sweeps regenerate an orthogonal instance per K (dw = 0.001), set the
projection strength to half the dominant eigenvalue, and aggregate an
energy histogram (uniform bins between the found extremes, one bin when
they lie within energy's 1e-9 relative tolerance, log density shifted
by render.LOG_SHIFT = 3e-5, Gaussian smoothing of one bin width for
plotting only) together with the label and band tallies; a K whose
runs all diverge has nothing to aggregate and raises ValidationError.

Both sweep kinds run a block of trajectories per grid point or K
through one integrate-and-tally path, and spread points over worker
processes through one in-order map.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence, Union

import numpy as np

from . import energy as energy_mod
from . import oracle as oracle_mod
from .dynamics import _READS, DIVERGED, SolverConfig, initial_states, run_batch
from .errors import ValidationError
from .instance import (
    Instance,
    _check_orthogonal,
    build_couplings,
    catalogue_pattern_set,
    generate_orthogonal_patterns,
    perturb_patterns,
    shared_sign_coordinate,
)
from .render import LOG_SHIFT
from .textio import _check_finite, _check_int, _no_repeats, _write_csv, _write_text

__all__ = [
    "LOG_SHIFT",
    "SweepSpec",
    "PointResult",
    "SweepResult",
    "HistogramReport",
    "KSweepEntry",
    "CataloguePerturbationFactory",
    "CatalogueWeightStepFactory",
    "EquidistantPerturbationFactory",
    "derive_seed",
    "derive_seeds",
    "default_alpha_grid",
    "sweep_sr",
    "sweep_k",
    "histogram",
    "write_sweep_csv",
    "write_ksweep_csv",
    "write_hist_csv",
    "write_sidecar",
]

HIST_BINS = 60

InstanceSource = Union[Instance, Callable[[float], Instance]]


def _seed_key(base_seed: int, parts) -> str:
    return ":".join([str(int(base_seed))] + [str(p) for p in parts])


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit seed from a base seed and identifying parts."""
    key = _seed_key(base_seed, parts).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") & (2**63 - 1)


def derive_seeds(base_seed: int, *parts, count: int) -> np.ndarray:
    """[derive_seed(base_seed, *parts, r) for r in range(count)] as int64.

    The shared key prefix is hashed once; each run index only copies
    the hash state and feeds its own digits.
    """
    prefix = _seed_key(base_seed, parts) + ":"
    head = hashlib.blake2b(prefix.encode(), digest_size=8)
    digests = []
    for r in range(count):
        h = head.copy()
        h.update(b"%d" % r)
        digests.append(h.digest())
    words = np.frombuffer(b"".join(digests), dtype=">u8") & np.uint64(2**63 - 1)
    return words.astype(np.int64)


def _block_seeds(n: int, base_seed: int, *parts, count: int) -> np.ndarray:
    """derive_seeds(base_seed, *parts, count=count) for a block of count runs of n coordinates.

    The block's (count, n) float64 initial states are allocated first and
    released: a block the process cannot hold fails there at once, as
    numpy's MemoryError naming the shape, not after count seeds have
    been hashed one by one in Python.
    """
    np.empty((count, n))
    return derive_seeds(base_seed, *parts, count=count)


def default_alpha_grid(lam_max: float, num: int = 50) -> tuple[float, ...]:
    """num >= 1 log-spaced projection strengths spanning [lam/20, 4*lam],
    for a finite lam_max > 0."""
    _check_finite(lam_max, "lam_max")
    if lam_max <= 0:
        raise ValidationError("alpha grid needs a positive eigenvalue scale")
    _check_int(num, "num", least=1)
    return tuple(float(v) for v in np.geomspace(lam_max / 20, 4 * lam_max, num))


# ---------------------------------------------------------------------------
# sweep specification

# The parameters a solver axis may set, per SolverConfig kind: those of
# alpha, beta, delta and xi0 the kind reads (dynamics._READS).
_SOLVER_AXES = {kind: tuple(name for name in ("alpha", "beta", "delta", "xi0") if name in reads)
                for kind, reads in _READS.items()}


def _axis(axis) -> tuple[str, tuple[float, ...]]:
    """One (name, values) sweep axis, its values finite reals made floats."""
    try:
        name, values = axis
        values = tuple(values)
    except (TypeError, ValueError):
        raise ValidationError(f"an axis is a (name, values) pair, got {axis!r}") from None
    if not values:
        raise ValidationError(f"axis {name!r} is empty")
    for v in values:
        _check_finite(v, f"axis {name!r} value")
    return str(name), tuple(float(v) for v in values)


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid, checked when it is made.

    instance is either a fixed Instance or a picklable factory mapping
    the first axis value to an Instance (lambdas will break process
    pools), and solver a SolverConfig.  axes holds one or two (name,
    values) pairs with distinct names and finite real values; grid
    points enumerate the cartesian product in row-major order.  runs_per_point is an integer >= 1 and
    base_seed an integer.  Each axis after a factory's first, or any
    axis of a fixed instance, sets a parameter the solver's kind reads
    (_SOLVER_AXES: alpha or beta for I, II and III, delta or xi0 for
    TBM).  A hit is a run that ends at the ground energy (see the module
    docstring): mirrors and degenerate ground states count, runs below
    the planted range do not.  Band counts use energy.DEFAULT_FRACTIONS.
    """

    instance: InstanceSource
    solver: SolverConfig
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    runs_per_point: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.instance, Instance) or callable(self.instance)):
            raise ValidationError(
                f"instance must be an Instance or a factory, got {self.instance!r}"
            )
        if not isinstance(self.solver, SolverConfig):
            raise ValidationError(f"solver must be a SolverConfig, got {self.solver!r}")
        if not (isinstance(self.axes, (tuple, list)) and 1 <= len(self.axes) <= 2):
            raise ValidationError("axes must hold one or two (name, values) pairs")
        _check_int(self.runs_per_point, "runs_per_point", least=1)
        _check_int(self.base_seed, "base_seed")
        # plain ints, so equal specs have equal reprs and so equal hashes
        object.__setattr__(self, "runs_per_point", int(self.runs_per_point))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(self, "axes", tuple(_axis(axis) for axis in self.axes))
        # the CSV keys each row's cells by axis name
        _no_repeats(self.axis_names, "axis names")
        kind = self.solver.kind
        for name in self.axis_names[0 if isinstance(self.instance, Instance) else 1:]:
            if name not in _SOLVER_AXES[kind]:
                raise ValidationError(f"axis {name!r} does not apply to solver kind {kind}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(values) for _, values in self.axes)

    @property
    def n_points(self) -> int:
        return math.prod(self.grid_shape)

    def point_coords(self, index: int) -> tuple[tuple[str, float], ...]:
        at = np.unravel_index(index, self.grid_shape)
        return tuple((name, values[i]) for (name, values), i in zip(self.axes, at))

    def spec_hash(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        if isinstance(self.instance, Instance):
            h.update(b"instance:")
            h.update(self.instance.label.encode())
            h.update(np.ascontiguousarray(self.instance.coupling).tobytes())
        else:
            h.update(b"factory:")
            h.update(repr(self.instance).encode())
        h.update(repr(self.solver).encode())
        h.update(repr(self.axes).encode())
        h.update(
            repr((self.runs_per_point, self.base_seed, energy_mod.DEFAULT_FRACTIONS)).encode()
        )
        return h.hexdigest()


@dataclass(frozen=True)
class PointResult:
    """Aggregate of one grid point."""

    coords: tuple[tuple[str, float], ...]
    n_runs: int
    hits: int
    label_counts: tuple[tuple[str, int], ...]
    measure_counts: tuple[tuple[str, int], ...]

    @property
    def sr(self) -> float:
        return self.hits / self.n_runs


@dataclass(frozen=True)
class SweepResult:
    """Ordered grid-point aggregates of a spec."""

    spec: SweepSpec
    points: tuple[PointResult, ...]

    @property
    def sr_grid(self) -> np.ndarray:
        return np.array([p.sr for p in self.points]).reshape(self.spec.grid_shape)

    def max_sr(self) -> float:
        return max(p.sr for p in self.points)


# ---------------------------------------------------------------------------
# instance factories for transition scans: sweep_sr on a spec whose
# instance is one of these deforms the instance along the first axis


def _scaled_edit(ps, pattern_index: int, coordinate: int, scale: float, value: float):
    """Edit (pattern, coordinate) by value relative to the stored sign.

    value is expressed for a +1 coordinate (so -2 always means a full
    flip); the stored sign folds in via multiplication.
    """
    base = float(ps.patterns[pattern_index, coordinate])
    return (pattern_index, coordinate, scale * value * base)


@dataclass(frozen=True)
class CataloguePerturbationFactory:
    """Continuous flip of one coordinate of the lightest pattern.

    The scan value is the perturbation of a coordinate whose sign all
    planted patterns share, expressed for a +1 coordinate: 0 leaves the
    catalogue instance untouched and -2 flips the coordinate entirely.
    """

    catalogue_id: str = "c"

    def __call__(self, value: float) -> Instance:
        ps = catalogue_pattern_set(self.catalogue_id)
        edit = _scaled_edit(ps, 0, shared_sign_coordinate(ps), 1.0, float(value))
        perturbed = perturb_patterns(ps, [edit])
        return build_couplings(
            perturbed, label=f"small-{self.catalogue_id}-dxi={float(value)!r}"
        )


@dataclass(frozen=True)
class CatalogueWeightStepFactory:
    """Rebuilds a catalogue instance with a different weight step dw."""

    catalogue_id: str = "c"

    def __call__(self, value: float) -> Instance:
        ps = catalogue_pattern_set(self.catalogue_id, dw=float(value))
        return build_couplings(
            ps, label=f"small-{self.catalogue_id}-dw={float(value)!r}"
        )


@dataclass(frozen=True)
class EquidistantPerturbationFactory:
    """One-parameter deformation of the equidistant four-pattern set.

    At the first coordinate where patterns 1 and 2 agree and pattern 3
    opposes them, patterns 1 and 2 move away from the hypercube corner
    by 0.2p and pattern 3 moves toward zero by 0.1p.
    """

    catalogue_id: str = "f"

    def __call__(self, p: float) -> Instance:
        ps = catalogue_pattern_set(self.catalogue_id)
        pats = ps.patterns
        split = np.flatnonzero((pats[0] == pats[1]) & (pats[1] != pats[2]))
        if not split.size:
            raise ValidationError("no coordinate with patterns 1,2 vs 3 sign split")
        coord = int(split[0])
        p = float(p)
        edits = [
            _scaled_edit(ps, 0, coord, 0.2, p),
            _scaled_edit(ps, 1, coord, 0.2, p),
            _scaled_edit(ps, 2, coord, -0.1, p),
        ]
        perturbed = perturb_patterns(ps, edits)
        return build_couplings(perturbed, label=f"small-{self.catalogue_id}-p={p!r}")


# ---------------------------------------------------------------------------
# point evaluation


def _ground_energy(inst: Instance) -> float:
    """Brute-force ground energy up to the oracle's limit, lowest planted energy beyond."""
    if inst.n <= oracle_mod.BRUTE_FORCE_LIMIT:
        return oracle_mod.brute_force(inst).ground_energy
    if inst.spectrum is None:
        raise ValidationError("a ground state beyond brute force needs a planted instance")
    return inst.spectrum.e_min


def _run_point(
    inst: Instance, cfg: SolverConfig, seeds: np.ndarray, ground: float | None,
    dtype=np.float64,
) -> tuple[dict[str, int], dict[str, int], np.ndarray, int]:
    """Integrate one run per seed from starts in dtype, and tally the outcomes.

    Returns the energy.LABEL_CATEGORIES counts, the energy.BAND_KEYS
    counts (all zero without a planted spectrum), the final energies of
    the runs that did not diverge, and how many of those ended at the
    ground energy (0 when ground is None).
    """
    x0 = initial_states(inst.n, cfg.init_amplitude, seeds).astype(dtype, copy=False)
    batch = run_batch(inst, cfg, x0)
    counts = dict.fromkeys(energy_mod.LABEL_CATEGORIES, 0)
    for label in batch.labels:
        counts[label.category] += 1
    e = batch.energies[batch.status != DIVERGED]
    if inst.spectrum is None:
        bands = dict.fromkeys(energy_mod.BAND_KEYS, 0)
    else:
        bands = energy_mod.measure_bins(inst.spectrum, e)
    hits = 0
    if ground is not None:
        hits = int(np.count_nonzero(np.abs(e - ground) <= energy_mod._tolerance(ground)))
    return counts, bands, e, hits


def _eval_point(spec: SweepSpec, index: int) -> PointResult:
    coords = spec.point_coords(index)
    if isinstance(spec.instance, Instance):
        inst = spec.instance
        solver_axes = coords
    else:
        inst = spec.instance(coords[0][1])
        solver_axes = coords[1:]
    cfg = replace(spec.solver, **dict(solver_axes))
    seeds = _block_seeds(inst.n, spec.base_seed, index, count=spec.runs_per_point)
    counts, bands, _, hits = _run_point(inst, cfg, seeds, _ground_energy(inst))
    return PointResult(
        coords=coords,
        n_runs=spec.runs_per_point,
        hits=hits,
        label_counts=tuple(counts.items()),
        measure_counts=tuple(bands.items()),
    )


def _map_in_order(fn: Callable, items: Sequence, threads: int) -> list:
    """[fn(item) for item in items], over min(threads, len(items)) worker processes.

    A process pool starts all its workers at the first submit, so it
    gets no more workers than items; a single worker is this process.
    Executor.map yields results in input order, so the worker count
    changes wall time only, never results.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here: the pool module pulls in multiprocessing, which a
    # serial run never needs and would pay for at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def sweep_sr(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Success-rate grid over the spec's axes.

    Output is byte-stable for a given spec: worker count only changes
    wall time, never results (points are reduced in index order).
    threads must be an integer >= 1.
    """
    _check_int(threads, "threads", least=1)
    points = _map_in_order(partial(_eval_point, spec), range(spec.n_points), threads)
    return SweepResult(spec=spec, points=tuple(points))


# ---------------------------------------------------------------------------
# histograms and K sweeps


@dataclass(frozen=True)
class HistogramReport:
    """Uniform-bin energy histogram between the found extremes.

    density integrates to 1 over the found range; log_density_shifted
    is log(density + LOG_SHIFT) so empty bins sit at a finite floor.
    smoothed_density convolves density with a unit-bin-width Gaussian
    for plotting only; counts stay raw.  A degenerate report (the
    extremes within energy's 1e-9 relative tolerance, so all energies
    one level) uses one bin of nominal width 1.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    density: tuple[float, ...]
    log_density_shifted: tuple[float, ...]
    smoothed_density: tuple[float, ...]
    degenerate: bool


def _gaussian_smooth(density: np.ndarray) -> np.ndarray:
    radius = 4
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * offsets.astype(np.float64) ** 2)
    kernel /= kernel.sum()
    # the centred slice of the full convolution keeps len(density) values
    # for any length; mode="same" returns max(len(density), 9) of them
    return np.convolve(density, kernel)[radius:radius + len(density)]


def histogram(energies: Sequence[float]) -> HistogramReport:
    """Histogram of found energies in HIST_BINS bins with log-shifted density."""
    e = np.asarray(list(energies), dtype=np.float64)
    if e.size < 1:
        raise ValidationError("histogram needs at least one energy")
    lo, hi = float(e.min()), float(e.max())
    # HIST_BINS bins between extremes a few ulps apart would be narrower
    # than the float spacing there
    degenerate = hi - lo <= energy_mod._tolerance(lo, hi)
    if degenerate:
        lo, hi = lo - 0.5, hi + 0.5
    try:
        counts, edges = np.histogram(e, bins=1 if degenerate else HIST_BINS, range=(lo, hi))
    except ValueError as exc:  # lo +- 0.5 rounds back at this magnitude, or not finite
        raise ValidationError(f"cannot bin energies in [{lo!r}, {hi!r}]: {exc}") from None
    # a degenerate bin has width 1 by definition, whatever lo +- 0.5 rounds to
    width = 1.0 if degenerate else edges[1] - edges[0]
    density = counts / (e.size * width)
    return HistogramReport(
        edges=tuple(float(v) for v in edges),
        counts=tuple(int(c) for c in counts),
        density=tuple(float(v) for v in density),
        log_density_shifted=tuple(float(v) for v in np.log(density + LOG_SHIFT)),
        smoothed_density=tuple(float(v) for v in _gaussian_smooth(density)),
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class KSweepEntry:
    """Aggregates for one pattern count K."""

    k: int
    n: int
    lambda_max: float
    alpha: float
    planted_min: float
    planted_max: float
    mean_energy: float
    n_runs: int
    label_counts: tuple[tuple[str, int], ...]
    measure_counts: tuple[tuple[str, int], ...]
    hist: HistogramReport


def _k_solver(n: int, alpha: float, weight_sum: float) -> SolverConfig:
    """The first-order solver a K sweep at n runs with projection alpha.

    Forward Euler needs (alpha + |eigenvalue|) * dt < 2 for every coupling
    eigenvalue; with the positive weights sweep_k admits, the orthogonal
    ladder's lower spectral edge is exactly -weight_sum.  The step takes
    (alpha + weight_sum) * dt <= 1, a 2x margin against both edges, so
    every mode of the linearised step has a multiplier >= 0 and none
    alternates in sign.  max_steps holds the relaxation time max_steps *
    dt, to within one step, at the horizon (2000 if n >= 1024 else 1000)
    * min(0.1, 0.5 / (alpha + weight_sum)) that the K sweep's statistics
    were recorded with: the horizon of a 4x margin at 1000 (2000) steps.
    A row stops at steady_tol 1e-4, not SolverConfig's 1e-9, with the
    same final spins (see sweep_k).  _eval_k runs the config on float32
    starts, so it integrates in float32 wherever dynamics can prove the
    block bounded in float32.
    """
    edges = alpha + weight_sum
    horizon = (2000 if n >= 1024 else 1000) * min(0.1, 0.5 / edges)
    dt = min(0.1, 1.0 / edges)
    return SolverConfig(kind="I", alpha=alpha, beta=1.0, dt=dt,
                        max_steps=round(horizon / dt), steady_tol=1e-4)


def _eval_k(n: int, k: int, runs: int, base_seed: int, dw: float) -> KSweepEntry:
    ps = generate_orthogonal_patterns(
        n, k, seed=derive_seed(base_seed, "instance", k), dw=dw
    )
    inst = build_couplings(ps, label=f"orthogonal-n{n}-k{k}")
    lam = oracle_mod.max_eigenvalue(inst)
    alpha = lam / 2.0
    cfg = _k_solver(n, alpha, float(np.sum(ps.weights)))
    seeds = _block_seeds(n, base_seed, k, count=runs)
    counts, bands, e, _ = _run_point(inst, cfg, seeds, None, dtype=np.float32)
    if e.size == 0:
        raise ValidationError(
            f"K={k}: all {counts['diverged']} runs diverged, no energies to aggregate"
        )
    try:
        hist = histogram(e)
    except ValidationError as exc:
        raise ValidationError(f"K={k}: {exc}") from None
    return KSweepEntry(
        k=k,
        n=n,
        lambda_max=lam,
        alpha=alpha,
        planted_min=float(inst.spectrum.e_min),
        planted_max=float(inst.spectrum.e_max),
        mean_energy=float(e.mean()),
        n_runs=runs,
        label_counts=tuple(counts.items()),
        measure_counts=tuple(bands.items()),
        hist=hist,
    )


def sweep_k(
    n: int,
    k_values: Sequence[int],
    runs_per_k: int | None = None,
    base_seed: int = 0,
    dw: float = 0.001,
    threads: int = 1,
) -> tuple[KSweepEntry, ...]:
    """Relaxation statistics per pattern count K at alpha = lambda/2.

    Each K regenerates an orthogonal instance (w0 = 1, the given dw) with
    a seed derived from (base_seed, "instance", K), then integrates
    runs_per_k first-order trajectories from uniform starts on
    [-0.5, 0.5]^n, with the step size capped by the spectral edges of
    the instance so forward Euler stays stable at any scale (_k_solver).
    Runs default to 1000 below n = 1024 and to 100 at n >= 1024.  The
    step dt = min(0.1, 1 / (alpha + sum(w))) and the relaxation time
    max_steps * dt = (2000 if n >= 1024 else 1000) * min(0.1, 0.5 /
    (alpha + sum(w))): 500 steps below n = 1024 and 1000 at n >= 1024
    wherever the cap binds, 1000 and 2000 where 0.1 caps both.  A row stops
    once max|delta x| < 1e-4 * dt, not at SolverConfig's 1e-9: every
    output of a K is a function of the final spins alone, and (alpha +
    sum(w)) * dt <= 1, so every mode of the linearised step has a
    multiplier >= 0 and none alternates in sign.  A slow drift can still
    carry a coordinate across zero: at half this step, 1e-3 flipped a
    row at K = 30, 34 or 39 in three of five seeds at n = 64.  At this
    step 1e-4 kept every final spin of 1e-9 at n = 64 (K 1..64, seeds
    0..4), n = 512 (K 100, seeds 0 and 1) and n = 1024 (K 200, 300 and
    500, seed 0).
    The starts are rounded to float32 and each K integrates in float32
    when dynamics proves its block bounded in float32 (J finite there,
    a contraction of at least 1e-3 per step), in float64 otherwise;
    energies, labels and bands come from the final spins in float64.
    Against float64 that flipped the final spins of 7 of 320,000 rows at
    n = 64 (K 1..64, seeds 0..4), 1 of 5,000 at n = 512 (K 100) and 3 of
    1,500 at n = 1024 (K 200, 300 and 500), all but one of them rows
    that ran to max_steps in both.  At n = 1024 the 1e-4 * dt rule is
    below float32's resolution of the states, so most rows run to
    max_steps.
    Histograms use HIST_BINS bins and bands energy.DEFAULT_FRACTIONS.
    Each K may be listed once: the histogram CSV keys its rows by K.  n
    must be a power of two >= 2, each K an integer in 1..n, dw finite
    with each weight 1 + m*dw > 0, runs_per_k and threads integers >= 1
    and base_seed an integer, all checked before any K runs.
    """
    ks = list(k_values)
    for k in ks:
        _check_int(k, "K")
    ks = [int(k) for k in ks]
    if not ks:
        raise ValidationError("k_values is empty")
    _no_repeats(ks, "K values")
    for k in ks:
        _check_orthogonal(n, k)
    _check_finite(dw, "dw")
    # the weights 1 + m*dw of K are monotone in m, so m = 1 or m = K is the least
    least = {k: min(1.0 + dw, 1.0 + k * dw) for k in ks}
    bad = [k for k, w in least.items() if not w > 0]
    if bad:
        k = min(bad)
        raise ValidationError(
            f"dw must be > -1/K so that every weight 1 + m*dw is > 0; "
            f"dw={dw!r} gives K={k} the weight {least[k]!r}"
        )
    if runs_per_k is None:
        runs_per_k = 100 if n >= 1024 else 1000
    _check_int(runs_per_k, "runs_per_k", least=1)
    _check_int(base_seed, "base_seed")
    _check_int(threads, "threads", least=1)
    evaluate = partial(_eval_k, n, runs=runs_per_k, base_seed=base_seed, dw=dw)
    return tuple(_map_in_order(evaluate, ks, threads))


# ---------------------------------------------------------------------------
# serialization


def _count_columns(label_counts, measure_counts) -> dict[str, int]:
    # label_counts holds every energy.LABEL_CATEGORIES entry, in order
    return ({f"label:{c}": v for c, v in label_counts}
            | {f"band:{key}": v for key, v in measure_counts})


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per grid point; schema documented in the module docstring."""
    _write_csv(path, [
        {**dict(p.coords), "sr": p.sr, "n_runs": p.n_runs, "hits": p.hits,
         "diverged": dict(p.label_counts)["diverged"],
         **_count_columns(p.label_counts, p.measure_counts)}
        for p in result.points
    ])


_KSWEEP_FIELDS = ("k", "n", "lambda_max", "alpha", "planted_min", "planted_max",
                  "mean_energy", "n_runs")


def write_ksweep_csv(entries: Sequence[KSweepEntry], path) -> None:
    """Per-K aggregate table (measure-report input)."""
    _write_csv(path, [
        {**{f: getattr(e, f) for f in _KSWEEP_FIELDS},
         **_count_columns(e.label_counts, e.measure_counts)}
        for e in entries
    ])


def write_hist_csv(entries: Sequence[KSweepEntry], path) -> None:
    """Long-format histogram table: one row per (K, bin)."""
    _write_csv(path, [
        {"k": e.k, "bin": b, "left": h.edges[b], "right": h.edges[b + 1],
         "count": h.counts[b], "density": h.density[b],
         "log_density_shifted": h.log_density_shifted[b],
         "smoothed_density": h.smoothed_density[b],
         "planted_min": e.planted_min, "planted_max": e.planted_max}
        for e in entries for h in [e.hist] for b in range(len(h.counts))
    ])


def write_sidecar(result: SweepResult, path) -> None:
    """Structured text metadata next to a sweep CSV (no timestamps)."""
    from . import __version__

    spec = result.spec
    if isinstance(spec.instance, Instance):
        label = spec.instance.label
    else:
        label = repr(spec.instance)
    lines = [
        "format: plantbench-sweep-meta 1",
        f"tool_version: {__version__}",
        f"spec_hash: {spec.spec_hash()}",
        f"instance: {label}",
        f"solver: {spec.solver!r}",
        f"base_seed: {spec.base_seed}",
        f"runs_per_point: {spec.runs_per_point}",
    ]
    for name, values in spec.axes:
        lines.append(f"axis {name}: " + " ".join(repr(v) for v in values))
    _write_text(path, "\n".join(lines) + "\n")

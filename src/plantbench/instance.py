"""Planted-pattern QUBO instance construction.

Instances encode K binary patterns xi^m in a symmetric coupling matrix
through a weighted Hebbian rule,

    J_ij = sum_m w_m * xi_i^m * xi_j^m,   J_ii = 0,

with the weight ladder w_m = w0 + m*dw (m = 1..K).  A nonzero dw splits
the energy degeneracy of the stored patterns, so the heaviest pattern is
planted as the intended ground state of E(x) = -1/2 x^T J x.

Two pattern sources are supported: exactly orthogonal sets drawn from a
Sylvester-Hadamard basis (any power-of-two n = 2^m, whose row r is
H[r, c] = (-1)^popcount(r & c), its row indices, taken along a fixed
order built only as far as the k a set uses, relabelled by a random
linear map on GF(2)^m that is accepted when its n images are distinct),
and a small catalogue of hand-picked n = 8 triples/quadruples, stored
as the flip sets that realise their pairwise Hamming distances, which
place the planted optimum in controlled competition with the other
patterns.  Pattern entries can additionally be deformed
by real-valued perturbations delta_xi to interpolate between instances.
A PatternSet and an Instance check their fields when made, so every one,
however built, coarse-grained, transformed or loaded, holds one
invariant: k >= 1 +-1 patterns with weights and perturbations of
matching shape, and a square, finite, exactly symmetric coupling matrix
with a zero diagonal and its pattern set's n, all in read-only arrays, a
one-line label, and a positive finite coarse-graining step when there is
one.  An Instance computes its planted spectrum when made, so it is
never passed in or stale; the orthogonal closed form is certified there,
once.
Weights, couplings and planted energies are computed with overflow
warnings off; planted energies that overflow are rejected.

_reals is the library's one gate for the arrays it is handed: these
fields and every bare array of energy, oracle, dynamics and bench go
through it.  It refuses a ragged nesting, text (numeric text too),
complex entries and object entries that are no real number a float can
hold (textio._is_real), each with "<what> must be an array of real
numbers", and returns the rest in their own dtype, or cast to the dtype
a field needs (float64 here).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .textio import (
    CATALOGUE, _check_int, _check_real, _finite, _fmt, _int, _is_finite, _is_real, _read_text,
    _shown, _write_text,
)

__all__ = [
    "PatternSet",
    "Instance",
    "CATALOGUE",
    "make_pattern_set",
    "generate_orthogonal_patterns",
    "catalogue_pattern_set",
    "generate_small_scale",
    "perturb_patterns",
    "build_couplings",
    "coarse_grain",
    "hamming_distances",
    "shared_sign_coordinate",
    "save_instance",
    "load_instance",
]

FORMAT_VERSION = 1

# Beyond this size a saved file omits the dense coupling block of a
# pattern-built instance and load_instance rebuilds it from the patterns.
DENSE_EXPORT_LIMIT = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of a; the caller's own array stays writable."""
    a = a.view()
    a.setflags(write=False)
    return a


def _reals(a, what: str, dtype=None) -> np.ndarray:
    """a as an array of real numbers, in its own dtype or cast to dtype.

    Every array the library is handed comes through here.  A ragged
    nesting, text (numeric text too), complex entries and object entries
    that are no real number a float can hold (textio._is_real) raise a
    ValidationError naming what.
    """
    try:
        arr = np.asarray(a)
    except ValueError:  # a ragged nesting; None is no real number
        arr = np.asarray(None)
    if not (arr.dtype.kind in "biuf" or arr.dtype == object and all(map(_is_real, arr.flat))):
        raise ValidationError(f"{what} must be an array of real numbers")
    return arr if dtype is None else arr.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class PatternSet:
    """K patterns of dimension n with their weight ladder.

    weights is the stored ladder: make_pattern_set fills it from the
    formula w0 + m*dw unless given an explicit one (catalogue entry (e)
    stores its formula ladder in reversed order).  perturbations, when
    present, holds the real-valued delta_xi added to the binary entries
    before couplings are built (all zero is stored as None; non-finite
    values are left for build_couplings to reject).  generator records
    (kind, seed) for sets that can be regenerated instead of stored.  k
    and n are read off the patterns.
    """

    patterns: np.ndarray            # (k, n) int8, entries +-1
    weights: np.ndarray             # (k,) float64
    perturbations: np.ndarray | None = None   # (k, n) float64
    generator: tuple[str, int] | None = None

    def __post_init__(self):
        patterns = _reals(self.patterns, "patterns")
        if patterns.ndim != 2:
            raise ValidationError("patterns must be a (k, n) matrix")
        k, n = patterns.shape
        if k < 1:
            raise ValidationError("need at least one pattern")
        if not np.isin(patterns, (-1, 1)).all():
            raise ValidationError("pattern entries must be +1 or -1")
        weights = _reals(self.weights, "weights", np.float64)
        if weights.shape != (k,):
            raise ValidationError(f"weights must have shape ({k},)")
        if self.perturbations is not None:
            pert = _reals(self.perturbations, "perturbations", np.float64)
            if pert.shape != (k, n):
                raise ValidationError(f"perturbations must have shape ({k}, {n})")
            object.__setattr__(self, "perturbations", _readonly(pert) if pert.any() else None)
        object.__setattr__(self, "patterns", _readonly(patterns.astype(np.int8, copy=False)))
        object.__setattr__(self, "weights", _readonly(weights))

    @property
    def k(self) -> int:
        return self.patterns.shape[0]

    @property
    def n(self) -> int:
        return self.patterns.shape[1]

    def effective_patterns(self) -> np.ndarray:
        """Binary patterns plus perturbations, as float64."""
        eff = self.patterns.astype(np.float64)
        if self.perturbations is not None:
            eff = eff + self.perturbations
        return eff

    def gram(self) -> np.ndarray:
        """Integer-valued xi^mu . xi^nu of the binary patterns, (k, k) float64.

        Float64 so the product runs on BLAS; every partial sum of +-1
        products is an integer of magnitude <= n, exact for n <= 2^53.
        """
        p = self.patterns.astype(np.float64)
        return p @ p.T

    def is_orthogonal(self) -> bool:
        return bool(np.array_equal(self.gram(), self.n * np.eye(self.k)))

    def is_perturbed(self) -> bool:
        return self.perturbations is not None


@dataclass(frozen=True, eq=False)
class Instance:
    """A coupling matrix together with its provenance.

    pattern_set is the PatternSet the couplings were built from, or None
    for an external matrix loaded without pattern data.  coarse_delta
    records the positive quantisation step if the matrix was
    coarse-grained, and label is one line of text.  n is read off the
    coupling.  spectrum is computed when the instance is made, not
    passed (see energy.planted_spectrum), or None without a pattern set.
    """

    coupling: np.ndarray            # (n, n) float64, symmetric, zero diagonal
    pattern_set: PatternSet | None
    label: str
    coarse_delta: float | None = None
    spectrum: "object | None" = field(init=False)   # energy.PlantedSpectrum

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        from . import energy  # energy imports this module

        # a saved file holds the label on one line
        if not isinstance(self.label, str) or "\n" in self.label or "\r" in self.label:
            raise ValidationError(f"label must be text on one line, got {_shown(self.label)}")
        ps = self.pattern_set
        if ps is not None and not isinstance(ps, PatternSet):
            raise ValidationError(
                f"pattern_set must be a PatternSet or None, got {type(ps).__name__}"
            )
        if self.coarse_delta is not None:
            _check_coarse_step(self.coarse_delta)
        j = _reals(self.coupling, "coupling", np.float64)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValidationError(f"coupling matrix must be square, got shape {j.shape}")
        if not np.isfinite(j).all():
            raise ValidationError(f"{self.label}: couplings or planted energies are not finite")
        if not np.array_equal(j, j.T):
            raise ValidationError("coupling matrix is not symmetric")
        if np.any(np.diagonal(j) != 0.0):
            raise ValidationError("coupling diagonal must be zero")
        if ps is not None and ps.n != j.shape[0]:
            raise ValidationError("pattern set and instance dimensions differ")
        object.__setattr__(self, "coupling", _readonly(j))
        spectrum = None if ps is None else energy.planted_spectrum(ps, self)
        if spectrum is not None and not np.isfinite(spectrum.energies).all():
            raise ValidationError(f"{self.label}: couplings or planted energies are not finite")
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def n(self) -> int:
        return self.coupling.shape[0]


@np.errstate(over="ignore", invalid="ignore")
def make_pattern_set(
    patterns: np.ndarray,
    w0: float = 1.0,
    dw: float = 0.0,
    weights: np.ndarray | None = None,
    generator: tuple[str, int] | None = None,
) -> PatternSet:
    """A PatternSet, its weights the ladder w_m = w0 + m*dw unless given.

    The degeneracy split only works as intended for |dw| well below 1/k;
    that is a guideline for choosing dw, not a hard limit, since scans
    deliberately push dw far beyond it.  w0 and dw must be real numbers
    (a ladder that is not finite is left for the Instance check).  The
    set is unperturbed; perturb_patterns perturbs it.
    """
    _check_real(w0, "w0")
    _check_real(dw, "dw")
    if weights is None:
        k = len(np.atleast_2d(_reals(patterns, "patterns")))
        weights = w0 + np.arange(1, k + 1, dtype=np.float64) * dw
    return PatternSet(patterns, weights, generator=generator)


def _row_selection_chain(n: int, k: int) -> list[int]:
    """The first min(k, n-1) of a fixed ordering of the row indices 1..n-1.

    The elementwise product of rows a, b, c of H_n is row a^b^c, so a
    selected triple whose index XOR lands back in the selection (or
    hits index 0, whose row is constant and therefore always implied)
    plants an unintended composite state as deep as, or nearly as deep
    as, the patterns themselves.  The chain orders indices greedily so
    each prefix creates as few such closed index quadruples as
    possible (none at all while an XOR-free prefix exists); ties pick
    the smallest index, making the chain a pure function of n.  The
    order is greedy, so its first k picks are made in k steps and the
    rest of it is never built.
    """
    univ = np.arange(n)
    pair_counts = np.zeros(n, dtype=np.int64)
    scores = np.zeros(n, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    # Index 0 joins as a virtual member: its constant row shows up in
    # any product relation through the global column signs whether or
    # not it is selected.
    m = min(k, n - 1)
    sel = np.zeros(m + 1, dtype=np.int64)
    taken[0] = True
    for i in range(1, m + 1):
        y = int(np.argmin(np.where(taken, np.iinfo(np.int64).max, scores)))
        scores += 3 * pair_counts[univ ^ y]
        # y ^ a is distinct for distinct a, so no index repeats
        pair_counts[y ^ sel[:i]] += 1
        sel[i] = y
        taken[y] = True
    return sel[1:].tolist()


def _gf2_images(n: int, rng: np.random.Generator) -> np.ndarray:
    """Images of 0..n-1 under a random invertible linear map on GF(2)^m, n = 2^m.

    Each attempt draws m nonzero column masks; the image of an index is
    the XOR of the masks of its set bits.  A linear map on GF(2)^m is
    invertible exactly when it is injective, so a draw is kept once its
    n images are distinct.
    """
    m = int(n).bit_length() - 1
    bits = (np.arange(n)[:, None] >> np.arange(m)) & 1
    while True:
        cols = rng.integers(1, n, size=m)
        images = np.bitwise_xor.reduce(bits * cols, axis=1)
        if np.bincount(images).max() == 1:  # n distinct images
            return images


def _check_orthogonal(n: int, k: int) -> None:
    _check_int(n, "n")
    _check_int(k, "k")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValidationError(f"orthogonal construction needs n a power of two >= 2, got {n}")
    # numpy cannot make an array of more than intp-max bytes at all, so an
    # n x n float64 coupling matrix past that is refused here; a smaller
    # one the process cannot hold fails as MemoryError when allocated
    if int(n) ** 2 > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"n={n} is too large: an n x n coupling matrix cannot be allocated")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got k={k}")
    if k > n:
        raise ValidationError(f"at most n={n} mutually orthogonal patterns exist, got k={k}")


def generate_orthogonal_patterns(
    n: int, k: int, seed: int, w0: float = 1.0, dw: float = 0.0
) -> PatternSet:
    """Draw k mutually orthogonal +-1 patterns of dimension n.

    Rows are taken from the Sylvester-Hadamard basis H_n, whose row r
    is H[r, c] = (-1)^popcount(r & c), along a fixed low-coherence
    order (see _row_selection_chain) that postpones index triples whose
    XOR falls back into the selection, because such triples would plant
    composite states energetically degenerate with the patterns.  A
    seeded invertible GF(2) map rerandomizes the concrete row indices
    without touching that closure structure: m = log2(n) random nonzero
    column masks are redrawn until the n images they give are distinct.
    The columns are then permuted and both rows and columns get random
    sign flips; every step preserves pairwise orthogonality exactly
    (integer arithmetic, no roundoff).  Deterministic for fixed
    (n, k, seed).

    n must be a power of two >= 2 small enough for numpy to address an
    n x n float64 coupling matrix (n <= 2^29 on a 64-bit host), so a
    size no process could build fails before any work; k must be >= 1,
    and orthogonality caps it at n (the constant row joins only when
    k = n, completing the full basis).  seed must be >= 0.  All three
    are integers.
    """
    _check_orthogonal(n, k)
    _check_int(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    images = _gf2_images(n, rng)
    rows = images[list((*_row_selection_chain(n, k), 0)[:k])]
    col_perm = rng.permutation(n)
    col_signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    row_signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(k, 1))
    # H_n[rows][:, col_perm], each entry (-1)^popcount(r & c)
    h = 1 - 2 * (np.bitwise_count(rows[:, None] & col_perm) & 1).astype(np.int8)
    patterns = h * col_signs * row_signs
    return make_pattern_set(patterns, w0=w0, dw=dw, generator=("hadamard", int(seed)))


_SMALL_N = 8


@np.errstate(over="ignore", invalid="ignore")
def catalogue_pattern_set(
    instance_id: str, literal_weights: bool = False, dw: float | None = None
) -> PatternSet:
    """Patterns and weights for one catalogue entry.

    Pattern m is all +1 with the coordinates of the entry's stored flip
    set S_m flipped (pattern 1 stays all +1), which reproduces the
    entry's Hamming distances (see textio.CATALOGUE).  For entry (e),
    whose increment is negative while the last pattern is planted
    heaviest, the default ladder is the formula ladder in reversed
    order, (0.61, 0.74, 0.87); pass literal_weights=True to apply
    w_m = 1 + m*dw verbatim instead.  dw overrides the catalogue
    increment when given (used by scans), and must then be a real
    number; literal_weights must be a bool.
    """
    if not isinstance(literal_weights, bool):
        raise ValidationError(f"literal_weights must be a bool, got {_shown(literal_weights)}")
    if instance_id not in CATALOGUE:
        raise ValidationError(
            f"unknown catalogue id {instance_id!r}; choose from {sorted(CATALOGUE)}"
        )
    _, cat_dw, sets = CATALOGUE[instance_id]
    if dw is None:
        dw = cat_dw
    _check_real(dw, "dw")
    k = len(sets)
    patterns = np.ones((k, _SMALL_N), dtype=np.int8)
    for m, flips in enumerate(sets):
        patterns[m, list(flips)] = -1
    weights = None
    if dw < 0 and not literal_weights:
        weights = (1.0 + np.arange(1, k + 1, dtype=np.float64) * dw)[::-1].copy()
    return make_pattern_set(patterns, dw=dw, weights=weights)


def generate_small_scale(instance_id: str) -> Instance:
    """Build the coupling matrix for one catalogue entry."""
    return build_couplings(catalogue_pattern_set(instance_id), label=f"small-{instance_id}")


def perturb_patterns(
    ps: PatternSet, edits: list[tuple[int, int, float]]
) -> PatternSet:
    """Set delta_xi entries, returning a new PatternSet.

    edits is a list of (pattern index, coordinate index, delta), both
    indices 0-based integers and delta a real number (one that is not
    finite is left for build_couplings to reject).  Entries are set, not
    accumulated, so an edit of 0.0 clears a previous one.  A delta of -2
    on a +1 coordinate flips it to an exact -1 in the effective pattern.
    """
    try:
        edits = list(edits)
    except TypeError:
        raise ValidationError(f"edits must be a list of edits, got {_shown(edits)}") from None
    pert = (
        np.zeros((ps.k, ps.n)) if ps.perturbations is None else ps.perturbations.copy()
    )
    for edit in edits:
        try:
            m, j, delta = edit
        except (TypeError, ValueError):
            raise ValidationError(
                f"an edit must be (pattern index, coordinate index, delta), got {_shown(edit)}"
            ) from None
        _check_int(m, "edit pattern index")
        _check_int(j, "edit coordinate index")
        _check_real(delta, "edit delta")
        if not (0 <= m < ps.k and 0 <= j < ps.n):
            raise ValidationError(f"edit ({m}, {j}) outside a {ps.k} x {ps.n} pattern set")
        pert[m, j] = delta
    return replace(ps, perturbations=pert)


def _mirror_upper(j: np.ndarray) -> np.ndarray:
    """Zero the diagonal and copy the upper triangle onto the lower."""
    out = np.triu(j, k=1)
    return out + out.T


@np.errstate(over="ignore", invalid="ignore")
def build_couplings(ps: PatternSet, label: str | None = None) -> Instance:
    """Couplings from a pattern set via the weighted Hebbian rule.

    J = sum_m w_m xi^m (xi^m)^T with the diagonal zeroed, using the
    effective (perturbed) patterns.  The upper triangle is mirrored onto
    the lower, since with perturbations the product is not bitwise
    symmetric.  The instance computes its planted spectrum on the
    finished matrix.
    """
    eff = ps.effective_patterns()
    j = _mirror_upper((eff * ps.weights[:, None]).T @ eff)
    if label is None:
        kind = ps.generator[0] if ps.generator else "hebb"
        label = f"{kind}-n{ps.n}-k{ps.k}"
    return Instance(coupling=j, pattern_set=ps, label=label)


def _check_coarse_step(delta_j) -> None:
    """Raise unless delta_j is a positive, finite real number."""
    if not (_is_finite(delta_j) and delta_j > 0):
        raise ValidationError(
            f"coarse-graining step must be positive and finite, got {_shown(delta_j)}"
        )


@np.errstate(over="ignore", invalid="ignore")
def coarse_grain(inst: Instance, delta_j: float) -> Instance:
    """Quantise couplings to integer multiples of delta_j.

    Off-diagonal entries become floor(J_ij / delta_j); the floor is
    applied to the upper triangle and mirrored, and the diagonal stays
    zero.  The result computes its planted spectrum on the new matrix.
    Raises for a delta_j that is not positive and finite, and for a
    quotient that overflows.
    """
    _check_coarse_step(delta_j)
    j = _mirror_upper(np.floor(inst.coupling / delta_j))
    return replace(inst, coupling=j, coarse_delta=float(delta_j))


def hamming_distances(ps: PatternSet) -> np.ndarray:
    """Pairwise Hamming distances of the binary patterns, (k, k) int."""
    return ((ps.n - ps.gram()) // 2).astype(np.int64)


def shared_sign_coordinate(ps: PatternSet) -> int:
    """Smallest coordinate where every pattern carries the same sign.

    Perturbing one pattern there changes its distance to all others at
    once, which is what the pattern-displacement scans want.
    """
    same = np.all(ps.patterns == ps.patterns[0], axis=0)
    idx = np.nonzero(same)[0]
    if idx.size == 0:
        raise ValidationError("patterns share no common-sign coordinate")
    return int(idx[0])


# ---------------------------------------------------------------------------
# serialisation

def _float_row(text: str, what: str) -> list[float]:
    return [_finite(t, what) for t in text.split()]


def _pattern_row(text: str) -> list[int]:
    row = [_int(t, "pattern entry") for t in text.split()]
    if any(v not in (1, -1) for v in row):
        raise ValidationError("pattern entries must be +1 or -1")
    return row


def _block(rows: list[list], k: int, n: int, what: str, dtype) -> np.ndarray:
    """rows as a (k, n) array, or ValidationError naming what."""
    if len(rows) != k or any(len(row) != n for row in rows):
        raise ValidationError(f"{what} rows do not match the declared {k} x {n}")
    return np.array(rows, dtype=dtype)


def _rebuild(ps: PatternSet, label: str, coarse: float | None) -> Instance:
    """The instance a file without a coupling block stands for: Hebb couplings
    of ps, coarse-grained when the file records a step."""
    inst = build_couplings(ps, label=label)
    return inst if coarse is None else coarse_grain(inst, coarse)


def save_instance(inst: Instance, path: str | os.PathLike) -> None:
    """Write an instance as a line-oriented text file.

    Pattern-built instances store their pattern set (or just the
    generator tag when one is recorded and no perturbations apply);
    the dense coupling block is included for n <= DENSE_EXPORT_LIMIT,
    for external instances, which have nothing else to store, and for
    any instance whose couplings _rebuild does not reproduce bit for bit
    (a gauge transform of coarse-grained couplings).  Floats are written
    with repr so the round-trip through load_instance is bit-exact.
    """
    if not isinstance(inst, Instance):
        raise ValidationError(f"inst must be an Instance, got {type(inst).__name__}")
    ps = inst.pattern_set
    lines = [f"format_version: {FORMAT_VERSION}"]
    lines.append(f"label: {inst.label}")
    lines.append(f"n: {inst.n}")
    if ps is not None:
        lines.append(f"k: {ps.k}")
        lines.append("weights: " + " ".join(_fmt(w) for w in ps.weights))
        if ps.generator is not None:
            lines.append(f"generator: {ps.generator[0]} {ps.generator[1]}")
        else:
            for row in ps.patterns:
                lines.append("pattern: " + " ".join(str(int(v)) for v in row))
        if ps.perturbations is not None:
            for row in ps.perturbations:
                lines.append("perturbation: " + " ".join(_fmt(v) for v in row))
    if inst.coarse_delta is not None:
        lines.append(f"coarse_grain: {_fmt(inst.coarse_delta)}")
    if (
        inst.n <= DENSE_EXPORT_LIMIT
        or ps is None
        or _rebuild(ps, inst.label, inst.coarse_delta).coupling.tobytes()
        != inst.coupling.tobytes()
    ):
        lines.append("coupling:")
        for row in inst.coupling:
            lines.append(" ".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


# Keys older files wrote and nothing reads: the generator line holds the
# seed, and the weights line the ladder.
_RETIRED_KEYS = ("seed", "w0", "dw")
_FIELD_KEYS = ("format_version", "label", "n", "k", "weights", "generator", "coarse_grain")


def load_instance(path: str | os.PathLike) -> Instance:
    """Read an instance written by save_instance.

    The file must declare its sizes, hold finite numbers and +-1 pattern
    entries, and give a weights line whenever it declares k; what it
    describes must then hold the invariant of every Instance and
    PatternSet, planted spectrum included (see the module docstring).
    Violations, unparsable values and unknown or repeated keys raise
    ValidationError.  The retired keys seed, w0 and dw are skipped, so
    older files holding them load.
    """
    fields: dict[str, str] = {}
    pattern_rows: list[list[int]] = []
    pert_rows: list[list[float]] = []
    coupling_rows: list[list[float]] = []
    in_coupling = False
    for line in _read_text(path).split("\n"):
        if not line.strip():
            continue
        if in_coupling:
            coupling_rows.append(_float_row(line, "coupling entry"))
            continue
        if ":" not in line:
            raise ValidationError(f"malformed line in instance file: {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        # the label is the text after "label: ", spaces and all
        value = value.removeprefix(" ") if key == "label" else value.strip()
        if key == "pattern":
            pattern_rows.append(_pattern_row(value))
        elif key == "perturbation":
            pert_rows.append(_float_row(value, "perturbation"))
        elif key == "coupling":
            in_coupling = True
        elif key in _FIELD_KEYS:
            if key in fields:
                raise ValidationError(f"key {key!r} repeated in instance file")
            fields[key] = value
        elif key not in _RETIRED_KEYS:
            raise ValidationError(f"unknown key {key!r} in instance file")
    for key in ("format_version", "n"):
        if key not in fields:
            raise ValidationError(f"instance file missing required field {key!r}")
    version = _int(fields["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {version}")
    n = _int(fields["n"], "n", least=1)
    label = fields.get("label", "")

    ps = None
    if "k" in fields:
        k = _int(fields["k"], "k", least=1)
        if "weights" not in fields:
            raise ValidationError("instance file declares k but no weights")
        weights = np.array(_float_row(fields["weights"], "weight"))
        if weights.shape != (k,):
            raise ValidationError("weights row does not match k")
        generator = None
        if "generator" in fields:
            kind, _, gseed = fields["generator"].partition(" ")
            if kind.strip() != "hadamard":
                raise ValidationError(f"unknown generator kind {kind!r}")
            generator = (kind.strip(), _int(gseed, "generator seed", least=0))
            patterns = generate_orthogonal_patterns(n, k, generator[1]).patterns
        elif pattern_rows:
            patterns = _block(pattern_rows, k, n, "pattern", np.int8)
        else:
            raise ValidationError("pattern source declared but no patterns present")
        pert = None
        if pert_rows:
            pert = _block(pert_rows, k, n, "perturbation", np.float64)
        ps = PatternSet(patterns, weights, pert, generator)

    coarse = _finite(fields["coarse_grain"], "coarse_grain") if "coarse_grain" in fields else None

    if coupling_rows:
        return Instance(
            coupling=_block(coupling_rows, n, n, "coupling", np.float64), pattern_set=ps,
            label=label, coarse_delta=coarse,
        )

    if ps is None:
        raise ValidationError("instance file has neither patterns nor couplings")
    return _rebuild(ps, label, coarse)


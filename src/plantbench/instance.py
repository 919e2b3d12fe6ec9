"""Planted-pattern QUBO instance construction.

Instances encode K binary patterns xi^m in a symmetric coupling matrix
through a weighted Hebbian rule,

    J_ij = sum_m w_m * xi_i^m * xi_j^m,   J_ii = 0,

with the weight ladder w_m = w0 + m*dw (m = 1..K).  A nonzero dw splits
the energy degeneracy of the stored patterns, so the heaviest pattern is
planted as the intended ground state of E(x) = -1/2 x^T J x.

Two pattern sources are supported: exactly orthogonal sets drawn from a
Sylvester-Hadamard basis (any power-of-two n), and a small catalogue of
hand-picked n = 8 triples/quadruples whose pairwise Hamming distances
place the planted optimum in controlled competition with the other
patterns.  Pattern entries can additionally be deformed by real-valued
perturbations delta_xi to interpolate between instances.  Weights and
couplings are computed with overflow warnings off; _with_spectrum
rejects any non-finite result.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .textio import CATALOGUE, _finite, _fmt, _int, _read_text, _write_text

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
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PatternSet:
    """K patterns of dimension n with their weight ladder.

    weights is the stored ladder: make_pattern_set fills it from the
    formula w0 + m*dw unless given an explicit one (catalogue entry (e)
    stores its formula ladder in reversed order).  perturbations, when
    present, holds the real-valued delta_xi added to the binary entries
    before couplings are built.  generator records (kind, seed) for sets
    that can be regenerated instead of stored.
    """

    n: int
    k: int
    patterns: np.ndarray            # (k, n) int8, entries +-1
    weights: np.ndarray             # (k,) float64
    perturbations: np.ndarray | None = None   # (k, n) float64
    generator: tuple[str, int] | None = None

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
        return self.perturbations is not None and bool(np.any(self.perturbations))


@dataclass(frozen=True, eq=False)
class Instance:
    """A coupling matrix together with its provenance.

    pattern_set is the PatternSet the couplings were built from, or None
    for an external matrix loaded without pattern data.  spectrum holds
    the planted energies (see energy.PlantedSpectrum) when a pattern set
    is available.  coarse_delta records the quantisation step if the
    matrix was coarse-grained.
    """

    n: int
    coupling: np.ndarray            # (n, n) float64, symmetric, zero diagonal
    pattern_set: PatternSet | None
    spectrum: "object | None"
    label: str
    coarse_delta: float | None = None


def _validate_patterns(patterns: np.ndarray) -> np.ndarray:
    patterns = np.asarray(patterns)
    if patterns.ndim != 2:
        raise ValidationError("patterns must be a (k, n) matrix")
    if not np.isin(patterns, (-1, 1)).all():
        raise ValidationError("pattern entries must be +1 or -1")
    return patterns.astype(np.int8)


@np.errstate(over="ignore", invalid="ignore")
def make_pattern_set(
    patterns: np.ndarray,
    w0: float = 1.0,
    dw: float = 0.0,
    weights: np.ndarray | None = None,
    perturbations: np.ndarray | None = None,
    generator: tuple[str, int] | None = None,
) -> PatternSet:
    """Assemble a validated PatternSet.

    When weights is omitted the ladder w_m = w0 + m*dw is used.  The
    degeneracy split only works as intended for |dw| well below 1/k;
    that is a guideline for choosing dw, not a hard limit, since scans
    deliberately push dw far beyond it.
    """
    patterns = _validate_patterns(patterns)
    k, n = patterns.shape
    if k < 1:
        raise ValidationError("need at least one pattern")
    if weights is None:
        weights = w0 + np.arange(1, k + 1, dtype=np.float64) * dw
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (k,):
            raise ValidationError(f"weights must have shape ({k},)")
    if perturbations is not None:
        perturbations = np.asarray(perturbations, dtype=np.float64)
        if perturbations.shape != (k, n):
            raise ValidationError(f"perturbations must have shape ({k}, {n})")
        if not np.any(perturbations):
            perturbations = None
    return PatternSet(
        n=n,
        k=k,
        patterns=_readonly(patterns),
        weights=_readonly(weights),
        perturbations=None if perturbations is None else _readonly(perturbations),
        generator=generator,
    )


def _sylvester_hadamard(n: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int8)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]]).astype(np.int8)
    return h


@functools.lru_cache(maxsize=None)
def _row_selection_chain(n: int) -> tuple[int, ...]:
    """Fixed ordering of the nonzero Hadamard row indices 1..n-1.

    The elementwise product of rows a, b, c of H_n is row a^b^c, so a
    selected triple whose index XOR lands back in the selection (or
    hits index 0, whose row is constant and therefore always implied)
    plants an unintended composite state as deep as, or nearly as deep
    as, the patterns themselves.  The chain orders indices greedily so
    each prefix creates as few such closed index quadruples as
    possible (none at all while an XOR-free prefix exists); ties pick
    the smallest index, making the chain a pure function of n.
    """
    univ = np.arange(n)
    pair_counts = np.zeros(n, dtype=np.int64)
    scores = np.zeros(n, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    remaining[0] = False
    # Index 0 joins as a virtual member: its constant row shows up in
    # any product relation through the global column signs whether or
    # not it is selected.
    sel: list[int] = [0]
    for _ in range(n - 1):
        cand = np.nonzero(remaining)[0]
        y = int(cand[np.argmin(scores[cand])])
        scores += 3 * pair_counts[univ ^ y]
        for a in sel:
            pair_counts[y ^ a] += 1
        sel.append(y)
        remaining[y] = False
    return tuple(sel[1:])


def _random_gl2(m: int, rng: np.random.Generator) -> list[int]:
    """Random invertible m x m bit matrix, returned as column masks."""
    while True:
        cols = [int(v) for v in rng.integers(1, 1 << m, size=m)]
        # Gaussian elimination over GF(2) on a copy to test invertibility.
        work = list(cols)
        rank = 0
        for bit in range(m):
            pivot = next((i for i in range(rank, m) if work[i] >> bit & 1), None)
            if pivot is None:
                break
            work[rank], work[pivot] = work[pivot], work[rank]
            for i in range(m):
                if i != rank and work[i] >> bit & 1:
                    work[i] ^= work[rank]
            rank += 1
        if rank == m:
            return cols


def _apply_gl2(cols: list[int], index: int) -> int:
    out = 0
    bit = 0
    while index:
        if index & 1:
            out ^= cols[bit]
        index >>= 1
        bit += 1
    return out


def _check_orthogonal(n: int, k: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValidationError(f"orthogonal construction needs n a power of two >= 2, got {n}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got k={k}")
    if k > n:
        raise ValidationError(f"at most n={n} mutually orthogonal patterns exist, got k={k}")


def generate_orthogonal_patterns(
    n: int, k: int, seed: int, w0: float = 1.0, dw: float = 0.0
) -> PatternSet:
    """Draw k mutually orthogonal +-1 patterns of dimension n.

    Rows are taken from the Sylvester-Hadamard basis H_n along a fixed
    low-coherence order (see _row_selection_chain) that postpones index
    triples whose XOR falls back into the selection, because such
    triples would plant composite states energetically degenerate with
    the patterns.  A seeded invertible GF(2) map rerandomizes the
    concrete rows without touching that closure structure, and the
    columns are then permuted and both rows and columns get random
    sign flips; every step preserves pairwise orthogonality exactly
    (integer arithmetic, no roundoff).  Deterministic for fixed
    (n, k, seed).

    n must be a power of two >= 2; k must be >= 1, and orthogonality
    caps it at n (the constant row joins only when k = n, completing
    the full basis).  seed must be >= 0.
    """
    _check_orthogonal(n, k)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    cols = _random_gl2(n.bit_length() - 1, rng)
    rows = [_apply_gl2(cols, c) for c in _row_selection_chain(n)[: min(k, n - 1)]]
    if k == n:
        rows.append(0)
    h = _sylvester_hadamard(n)
    col_perm = rng.permutation(n)
    col_signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
    row_signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(k, 1))
    patterns = h[rows][:, col_perm] * col_signs * row_signs
    return make_pattern_set(patterns, w0=w0, dw=dw, generator=("hadamard", int(seed)))


_SMALL_N = 8


def _flip_sets(dist: np.ndarray) -> list[tuple[int, ...]]:
    """Lowest-lexicographic coordinate flip sets realising a distance matrix.

    Pattern 1 is gauge-fixed to all +1; pattern m is all +1 with the
    coordinates in set S_m flipped, so |S_i symdiff S_j| must equal
    dist[i, j].  S_2 can always be taken as the prefix {0..d12-1}; each
    later set is the lexicographically first combination meeting every
    pairwise constraint.
    """
    k = dist.shape[0]
    sets: list[tuple[int, ...]] = [()]
    for m in range(1, k):
        size = int(dist[0, m])
        if m == 1:
            sets.append(tuple(range(size)))
            continue
        found = None
        for cand in itertools.combinations(range(_SMALL_N), size):
            ok = True
            cset = set(cand)
            for j in range(1, m):
                want = (dist[0, j] + dist[0, m] - dist[j, m])
                if want % 2 or len(cset & set(sets[j])) * 2 != want:
                    ok = False
                    break
            if ok:
                found = cand
                break
        if found is None:
            raise ValidationError("distance matrix admits no +-1 realisation at n=8")
        sets.append(found)
    return sets


@np.errstate(over="ignore", invalid="ignore")
def catalogue_pattern_set(
    instance_id: str, literal_weights: bool = False, dw: float | None = None
) -> PatternSet:
    """Patterns and weights for one catalogue entry.

    Pattern 1 is all +1 and the remaining patterns are the
    lowest-lexicographic flip sets reproducing the entry's Hamming
    distances.  For entry (e), whose increment is negative while the
    last pattern is planted heaviest, the default ladder is the formula
    ladder in reversed order, (0.61, 0.74, 0.87); pass
    literal_weights=True to apply w_m = 1 + m*dw verbatim instead.
    dw overrides the catalogue increment when given (used by scans).
    """
    if instance_id not in CATALOGUE:
        raise ValidationError(
            f"unknown catalogue id {instance_id!r}; choose from {sorted(CATALOGUE)}"
        )
    dist_rows, cat_dw = CATALOGUE[instance_id]
    if dw is None:
        dw = cat_dw
    dist = np.array(dist_rows)
    sets = _flip_sets(dist)
    k = dist.shape[0]
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
    indices 0-based.  Entries are set, not accumulated, so an edit of
    0.0 clears a previous one.  A delta of -2 on a +1 coordinate flips
    it to an exact -1 in the effective pattern.
    """
    pert = (
        np.zeros((ps.k, ps.n)) if ps.perturbations is None else ps.perturbations.copy()
    )
    for m, j, delta in edits:
        if not (0 <= m < ps.k and 0 <= j < ps.n):
            raise ValidationError(f"edit ({m}, {j}) outside a {ps.k} x {ps.n} pattern set")
        pert[m, j] = delta
    return make_pattern_set(
        ps.patterns, weights=ps.weights, perturbations=pert, generator=ps.generator
    )


def _mirror_upper(j: np.ndarray) -> np.ndarray:
    """Zero the diagonal and copy the upper triangle onto the lower."""
    out = np.triu(j, k=1)
    return out + out.T


@np.errstate(over="ignore", invalid="ignore")
def build_couplings(
    ps: PatternSet,
    rule: str = "hebb",
    label: str | None = None,
) -> Instance:
    """Couplings from a pattern set via the weighted Hebbian rule.

    rule "hebb" (default) applies J = sum_m w_m xi^m (xi^m)^T with the
    diagonal zeroed.  rule "pseudoinverse" corrects for pattern overlap
    through the inverse of Q_{mu nu} = (1/n) xi^mu . xi^nu,

        J = sum_{mu,nu} wbar_{mu nu} xi^mu (Q^-1)_{mu nu} xi^nu,

    with the symmetric weight blend wbar_{mu nu} = (w_mu + w_nu) / 2, so
    an orthogonal unperturbed set (Q = I) reproduces the plain rule
    exactly.  The upper triangle is mirrored onto the lower as a
    symmetry guarantee.

    The planted energies of the binary patterns on the finished matrix
    are attached as the instance spectrum.
    """
    eff = ps.effective_patterns()
    if rule == "hebb":
        j = (eff * ps.weights[:, None]).T @ eff
    elif rule == "pseudoinverse":
        q = (eff @ eff.T) / ps.n
        try:
            q_inv = np.linalg.inv(q)
        except np.linalg.LinAlgError:
            raise ValidationError(
                "overlap matrix is singular; pseudoinverse rule needs linearly "
                "independent patterns"
            ) from None
        blend = (ps.weights[:, None] + ps.weights[None, :]) / 2.0
        j = eff.T @ ((blend * q_inv) @ eff)
        j = (j + j.T) / 2.0
    else:
        raise ValidationError(f"unknown coupling rule {rule!r}")
    j = _mirror_upper(j)
    if label is None:
        kind = ps.generator[0] if ps.generator else "hebb"
        label = f"{kind}-n{ps.n}-k{ps.k}"
    inst = Instance(n=ps.n, coupling=_readonly(j), pattern_set=ps, spectrum=None, label=label)
    return _with_spectrum(inst)


@np.errstate(over="ignore", invalid="ignore")
def _with_spectrum(inst: Instance) -> Instance:
    """inst with the planted energies of its pattern set (None without one)
    attached, once couplings and energies are finite: every instance that
    is built, coarse-grained or loaded passes here."""
    from . import energy  # energy imports this module

    ps = inst.pattern_set
    spectrum = None if ps is None else energy.planted_spectrum(ps, inst)
    energies = () if spectrum is None else spectrum.energies
    if not (np.isfinite(inst.coupling).all() and np.isfinite(energies).all()):
        raise ValidationError(f"{inst.label}: couplings or planted energies are not finite")
    return replace(inst, spectrum=spectrum)


@np.errstate(over="ignore", invalid="ignore")
def coarse_grain(inst: Instance, delta_j: float) -> Instance:
    """Quantise couplings to integer multiples of delta_j.

    Off-diagonal entries become floor(J_ij / delta_j); the floor is
    applied to the upper triangle and mirrored, and the diagonal stays
    zero.  The planted spectrum is recomputed on the quantised matrix.
    Raises for a delta_j that is not positive and finite, and for a
    quotient that overflows.
    """
    if not (delta_j > 0 and np.isfinite(delta_j)):
        raise ValidationError(
            f"coarse-graining step must be positive and finite, got {delta_j}"
        )
    j = _mirror_upper(np.floor(inst.coupling / delta_j))
    return _with_spectrum(replace(inst, coupling=_readonly(j), coarse_delta=float(delta_j)))


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


def _validate_coupling(j: np.ndarray) -> np.ndarray:
    if not np.array_equal(j, j.T):
        raise ValidationError("coupling matrix is not symmetric")
    if np.any(np.diagonal(j) != 0.0):
        raise ValidationError("coupling diagonal must be zero")
    return j


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
    (another coupling rule, a gauge transform).  Floats are written
    with repr so the round-trip through load_instance is bit-exact.
    """
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

    Structural invariants (exact coupling symmetry, zero diagonal,
    declared sizes, finite numbers, +-1 pattern entries, a weights line
    whenever k is declared) are validated; violations, unparsable values
    and unknown or repeated keys raise ValidationError.  The retired
    keys seed, w0 and dw are skipped, so older files holding them load.
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
        value = value.strip()
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
        ps = make_pattern_set(
            patterns, weights=weights, perturbations=pert, generator=generator
        )

    coarse = _finite(fields["coarse_grain"], "coarse_grain") if "coarse_grain" in fields else None

    if coupling_rows:
        j = _validate_coupling(_block(coupling_rows, n, n, "coupling", np.float64))
        return _with_spectrum(Instance(
            n=n, coupling=_readonly(j), pattern_set=ps, spectrum=None, label=label,
            coarse_delta=coarse,
        ))

    if ps is None:
        raise ValidationError("instance file has neither patterns nor couplings")
    return _rebuild(ps, label, coarse)


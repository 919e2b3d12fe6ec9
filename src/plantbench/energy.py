"""Energies, planted spectra, and outcome classification.

The QUBO objective throughout is

    E(x) = -1/2 sum_{i != j} J_ij x_i x_j = -1/2 x^T J x,   x in {-1, +1}^n,

so each unordered pair contributes -J_ij x_i x_j once.  For an
orthogonal unperturbed pattern set the planted energies have the closed
form

    E_m = -(w_m n^2 - n sum_k w_k) / 2,

because J = sum_k w_k xi^k (xi^k)^T - (sum_k w_k) I and xi^m hits its
own outer product with overlap n while every other term vanishes.
It makes each pattern an eigenvector, eigenvalue n w_m - sum_k w_k.
planted_spectrum, run once when an Instance is made, evaluates both
energy routes, insists they agree, and certifies the closed-form top
eigenvalue against the matrix for oracle.max_eigenvalue.

Solver outcomes are labelled structurally: exact match to a planted
pattern, to its mirror (global flip, an exact symmetry of E), or to a
three-pattern mixture sign(s_1 xi^a + s_2 xi^b + s_3 xi^c) or its
mirror; everything else is spurious, or below/above when the energy
falls outside the planted range.  A label carries its category, its
pattern and its mixture signature, nothing more.  Relative positions
inside the range are summarised by nested fraction bands of the
planted span, closed at the range edges with a 1e-9 relative
tolerance.

This module owns what a sweep tallies: the LABEL_CATEGORIES of
OutcomeLabel and the BAND_KEYS of measure_bins.  Its 1e-9 relative
tolerance (_tolerance) closes the planted range and decides when bench
counts a final energy as the ground energy, a hit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import ValidationError
from .instance import Instance, PatternSet, _readonly, _reals
from .textio import _check_int, _is_real, _shown

__all__ = [
    "PlantedSpectrum",
    "LABEL_CATEGORIES",
    "OutcomeLabel",
    "OutcomeClassifier",
    "DEFAULT_FRACTIONS",
    "BAND_KEYS",
    "DEFAULT_MIXED_CAP",
    "qubo_energy",
    "qubo_energy_many",
    "planted_spectrum",
    "measure_bins",
    "band_label",
    "gauge_transform",
]

DEFAULT_FRACTIONS: tuple[float, ...] = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0)

# Mixed-state matching enumerates every signed three-pattern mixture; it
# is skipped (outcomes fall through to spurious) when the candidate count
# would exceed this cap.
DEFAULT_MIXED_CAP = 20000

_REL_TOL = 1e-9


def _tolerance(*energies: float) -> float:
    """The 1e-9 relative tolerance at the scale of energies, at least 1e-9."""
    return _REL_TOL * max(1.0, *(abs(e) for e in energies))


def _coupling_of(inst: "Instance | np.ndarray") -> np.ndarray:
    """inst's coupling matrix, or a bare array that is a real, square
    (n, n) matrix with n >= 1, as float64 (its finiteness is not checked)."""
    j = inst.coupling if isinstance(inst, Instance) else _reals(inst, "coupling", np.float64)
    if j.ndim != 2 or not j.shape[0] == j.shape[1] >= 1:
        raise ValidationError(f"coupling must be a real square matrix of size >= 1, "
                              f"got shape {j.shape}")
    return j


def qubo_energy(inst: "Instance | np.ndarray", x: np.ndarray) -> float:
    """E(x) = -1/2 x^T J x for a single +-1 state: qubo_energy_many on one row."""
    j = _coupling_of(inst)
    x = _reals(x, "state")
    if x.shape != (j.shape[0],):
        raise ValidationError(f"state must have shape ({j.shape[0]},), got {x.shape}")
    return float(qubo_energy_many(j, x[None, :])[0])


def qubo_energy_many(inst: "Instance | np.ndarray", states: np.ndarray) -> np.ndarray:
    """Energies of a (r, n) block of states whose entries are all +1 or -1."""
    j = _coupling_of(inst)
    xs = _reals(states, "states")
    if xs.ndim != 2 or xs.shape[1] != j.shape[0]:
        raise ValidationError(f"states must be (r, {j.shape[0]}), got {xs.shape}")
    if not ((xs == 1) | (xs == -1)).all():
        raise ValidationError("state entries must be +1 or -1")
    return _energies(j, xs.astype(np.float64))


def _energies(j: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """-1/2 x^T J x for each row of a float64 (r, n) block, unchecked."""
    return -0.5 * np.einsum("ri,ri->r", xs @ j, xs)


@dataclass(frozen=True, eq=False)
class PlantedSpectrum:
    """Energies of the planted patterns on a coupling matrix, and
    lambda_max: its top eigenvalue from the orthogonal closed form,
    certified once when the instance is made (None where it is not)."""

    energies: np.ndarray            # (k,) float64, pattern order
    e_min: float
    e_max: float
    lambda_max: float | None = None

    @property
    def ground_index(self) -> int:
        """0-based index of the lowest-energy planted pattern."""
        return int(np.argmin(self.energies))

    @property
    def span(self) -> float:
        return self.e_max - self.e_min


def closed_form_applies(ps: PatternSet, inst: Instance) -> bool:
    """Whether the orthogonal closed forms describe ps on inst.

    They need an orthogonal, unperturbed pattern set and couplings that
    were not coarse-grained.  planted_spectrum still verifies both
    closed forms against the matrix itself before trusting them.
    """
    return ps.is_orthogonal() and not ps.is_perturbed() and inst.coarse_delta is None


def _certified_lambda_max(j: np.ndarray, pj: np.ndarray, ps: PatternSet) -> float | None:
    """Largest eigenvalue of j from the orthogonal closed form, or None.

    pj is P @ j for the patterns P as float64 rows.  The closed form is
    accepted only when the matrix confirms it, each check to 1e-9
    relative: J xi^m = lam_m xi^m for every pattern, and
    ||J||_F^2 = sum(lam_m^2) + (n - K) W^2 with W = sum(w).  The first
    check fixes K eigenpairs; the zero trace of every Instance and the
    Frobenius norm then give the other n - K eigenvalues sum -(n - K) W
    and sum of squares (n - K) W^2, which by Cauchy-Schwarz pins every
    one of them to -W (within sqrt(1e-9) * ||J||_F).  A non-finite
    residual fails.
    """
    n, k = ps.n, ps.k
    total = float(np.sum(ps.weights))
    lam = n * ps.weights - total
    # the claimed spectral norm of J; checks in its units cannot overflow
    norm = max(float(np.max(np.abs(lam))), abs(total))
    if norm == 0:  # all weights zero claim J = 0
        return 0.0 if not np.any(j) else None
    ls, ws = lam / norm, total / norm
    if not np.max(np.abs(pj / norm - ps.patterns * ls[:, None])) <= _REL_TOL:
        return None
    js = j / norm
    want = float(np.sum(ls * ls)) + (n - k) * ws * ws
    if not abs(float(np.vdot(js, js)) - want) <= _REL_TOL * want:
        return None
    top = float(lam.max())
    return max(top, -total) if k < n else top


def planted_spectrum(ps: PatternSet, inst: Instance) -> PlantedSpectrum:
    """Planted energies of the binary patterns of ps on inst.coupling.

    The energies are evaluated directly on each pattern.  Where the
    orthogonal closed form applies (closed_form_applies), it is taken
    instead, after a cross-check against the direct route to 1e-9
    relative; disagreement means the couplings do not belong to this
    pattern set and raises.  There the closed-form top eigenvalue is
    also certified from the same pattern product into lambda_max.
    """
    j = inst.coupling
    if j.shape[0] != ps.n:
        raise ValidationError("pattern set and instance dimensions differ")
    p = ps.patterns.astype(np.float64)
    pj = p @ j
    direct = -0.5 * np.einsum("ri,ri->r", pj, p)   # _energies on the shared product
    energies, lambda_max = direct, None
    if closed_form_applies(ps, inst):
        total = float(np.sum(ps.weights))
        closed = -(ps.weights * ps.n ** 2 - ps.n * total) / 2.0
        scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(direct)))
        if np.any(np.abs(closed - direct) > _REL_TOL * scale):
            worst = int(np.argmax(np.abs(closed - direct) / scale))
            raise ValidationError(
                "closed-form and direct planted energies disagree "
                f"(pattern {worst + 1}: {float(closed[worst])!r} vs {float(direct[worst])!r})"
            )
        energies, lambda_max = closed, _certified_lambda_max(j, pj, ps)
    return PlantedSpectrum(
        energies=_readonly(energies.astype(np.float64)),
        e_min=float(energies.min()),
        e_max=float(energies.max()),
        lambda_max=lambda_max,
    )


# every OutcomeLabel category, in the column order of the sweep tables
LABEL_CATEGORIES = ("planted", "mirror", "mixed", "spurious", "below", "above",
                    "diverged", "unlabelled")


@dataclass(frozen=True)
class OutcomeLabel:
    """Structural label of a solver outcome.

    category is one of LABEL_CATEGORIES; below/above apply only when
    no structural match exists and the energy leaves the planted range.
    pattern is 1-based and set for planted and mirror labels; signature
    is set for mixed ones.
    """

    category: str
    pattern: int | None = None
    signature: tuple[tuple[int, int], ...] | None = None   # ((pattern, sign), ...)

    def short(self) -> str:
        if self.category in ("planted", "mirror"):
            return f"{self.category}:{self.pattern}"
        if self.category == "mixed":
            parts = [str(self.signature[0][0])]
            for pat, sign in self.signature[1:]:
                parts.append(f"{'+' if sign > 0 else '-'}{pat}")
            return "mixed:" + "".join(parts)
        return self.category


_BELOW = OutcomeLabel("below")
_ABOVE = OutcomeLabel("above")
_SPURIOUS = OutcomeLabel("spurious")
_DIVERGED = OutcomeLabel("diverged")
_UNLABELLED = OutcomeLabel("unlabelled")


def _planted_range(spectrum: PlantedSpectrum) -> tuple[float, float]:
    """The planted range widened by the 1e-9 relative edge tolerance."""
    tol = _tolerance(spectrum.e_min, spectrum.e_max)
    return spectrum.e_min - tol, spectrum.e_max + tol


class OutcomeClassifier:
    """Labels +-1 states against a pattern set.

    Planted patterns, their mirrors, and (when the candidate count
    stays under DEFAULT_MIXED_CAP) every signed three-pattern mixture
    and its mirror are tabulated once as finished labels; classification
    is then a hash lookup, so a classifier can be reused across many
    runs.  Earlier entries win ties, giving the precedence planted >
    mirror > mixed with the lexicographically first signature.  A row
    outside the table is below, above or spurious by its energy.
    """

    def __init__(self, ps: PatternSet, spectrum: PlantedSpectrum):
        table: dict[bytes, OutcomeLabel] = {}
        patterns = ps.patterns
        for m in range(ps.k):
            table.setdefault(patterns[m].tobytes(), OutcomeLabel("planted", m + 1))
        for m in range(ps.k):
            table.setdefault((-patterns[m]).tobytes(), OutcomeLabel("mirror", m + 1))
        self.mixed_skipped = comb(ps.k, 3) * 4 > DEFAULT_MIXED_CAP
        if not self.mixed_skipped:
            for combo in itertools.combinations(range(ps.k), 3):
                rows = patterns[list(combo)].astype(np.int64)
                for tail in itertools.product((1, -1), repeat=2):
                    signs = (1,) + tail
                    state = np.where(rows.T @ signs > 0, 1, -1).astype(np.int8)
                    sig = tuple((c + 1, s) for c, s in zip(combo, signs))
                    label = OutcomeLabel("mixed", signature=sig)
                    table.setdefault(state.tobytes(), label)
                    table.setdefault((-state).tobytes(), label)
        self._table = table
        self._n = ps.n
        self._lo, self._hi = _planted_range(spectrum)

    def classify(self, x: np.ndarray, energy: float) -> OutcomeLabel:
        # an int8 row, what run_batch passes, is real and needs no conversion
        int8 = isinstance(x, np.ndarray) and x.dtype == np.int8
        x = x if int8 else _reals(x, "state")
        # the bytes of an int8 block of any shape with n entries can match a key
        if x.shape != (self._n,):
            raise ValidationError(f"state must have {self._n} entries, got shape {x.shape}")
        label = self._table.get(x.tobytes()) if int8 else None
        if label is None:
            # table keys are int8 rows of n +-1 entries, so only a miss
            # needs the entry check
            if not ((x == 1) | (x == -1)).all():
                raise ValidationError("state entries must be +1 or -1")
            if not int8:
                label = self._table.get(x.astype(np.int8).tobytes())
        if label is not None:
            return label
        if not (_is_real(energy) and energy == energy):
            raise ValidationError(f"energy must be a real number, not NaN, got {_shown(energy)}")
        if energy < self._lo:
            return _BELOW
        if energy > self._hi:
            return _ABOVE
        return _SPURIOUS


def band_label(fraction: float) -> str:
    """Stable text key for a band fraction, e.g. 0.0625 -> "1/16".

    The key is the float's exact ratio, short for the dyadic
    DEFAULT_FRACTIONS; a non-dyadic float gets its exact ratio too
    (1/3 -> "6004799503160661/18014398509481984").
    """
    num, den = float(fraction).as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


# the keys of measure_bins, in column order: one band per fraction, then out of range
BAND_KEYS = tuple(band_label(f) for f in DEFAULT_FRACTIONS) + ("below", "above")


def measure_bins(spectrum: PlantedSpectrum, energies: np.ndarray) -> dict[str, int]:
    """Count energies in the nested DEFAULT_FRACTIONS bands of the planted range.

    An energy E is assigned to the smallest fraction f with
    E < e_min + f * (e_max - e_min); the final band is closed at e_max.
    Energies within a 1e-9 relative tolerance of either range edge
    count as inside (first or final band), so a planted hit whose
    recomputed energy drifts an ulp never leaks into below/above.
    Keys are BAND_KEYS: band_label(f) per fraction, then "below" and
    "above".  A zero span (a single planted level) puts every energy
    within that tolerance of the level in the full band "1".  energies
    must be 1-D and hold no NaN.
    """
    span = spectrum.span
    e = _reals(energies, "energies", np.float64)
    if e.ndim != 1 or np.isnan(e).any():
        raise ValidationError(f"energies must be a 1-D array without NaN, got shape {e.shape}")
    lo, hi = _planted_range(spectrum)
    thresholds = spectrum.e_min + span * np.array(DEFAULT_FRACTIONS)
    thresholds[-1] = spectrum.e_max
    bands = len(DEFAULT_FRACTIONS)
    below = e < lo
    above = e > hi
    inside = e[~below & ~above]
    if span > 0:
        idx = np.minimum(np.searchsorted(thresholds, inside, side="right"), bands - 1)
    else:
        idx = np.full(inside.shape, bands - 1)
    counts = np.bincount(idx, minlength=bands).tolist()
    return dict(zip(BAND_KEYS, counts + [int(below.sum()), int(above.sum())]))


def gauge_transform(inst: Instance, flips) -> Instance:
    """Flip the listed sites: J'_ij = s_i s_j J_ij with s_i = -1 on flips.

    Patterns and perturbations transform the same way, so the recomputed
    planted energies equal the originals bit for bit (terms only flip sign).
    Each flip is an integer site index in 0..n-1 (not a bool).
    """
    flips = list(flips)
    for i in flips:
        _check_int(i, "flip index")
    if not all(0 <= i < inst.n for i in flips):
        raise ValidationError("flip index outside instance")
    s = np.ones(inst.n, dtype=np.int8)
    s[np.array(flips, dtype=np.int64)] = -1
    sf = s.astype(np.float64)
    ps = inst.pattern_set
    if ps is not None:
        ps = PatternSet(
            ps.patterns * s, ps.weights,
            None if ps.perturbations is None else ps.perturbations * sf,
        )
    return replace(inst, coupling=inst.coupling * np.outer(sf, sf), pattern_set=ps)

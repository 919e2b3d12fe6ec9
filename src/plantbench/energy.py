"""Energies, planted spectra, and outcome classification.

The QUBO objective throughout is

    E(x) = -1/2 sum_{i != j} J_ij x_i x_j = -1/2 x^T J x,   x in {-1, +1}^n,

so each unordered pair contributes -J_ij x_i x_j once.  For an
orthogonal unperturbed pattern set the planted energies have the closed
form

    E_m = -(w_m n^2 - n sum_k w_k) / 2,

because J = sum_k w_k xi^k (xi^k)^T - (sum_k w_k) I and xi^m hits its
own outer product with overlap n while every other term vanishes.
planted_spectrum evaluates both routes and insists they agree.

Solver outcomes are labelled structurally: exact match to a planted
pattern, to its mirror (global flip, an exact symmetry of E), or to a
three-pattern mixture sign(s_1 xi^a + s_2 xi^b + s_3 xi^c) or its
mirror; everything else is spurious, or below/above when the energy
falls outside the planted range.  A label carries its category, its
pattern and its mixture signature, nothing more.  Relative positions
inside the range are summarised by nested fraction bands of the
planted span, closed at the range edges with a 1e-9 relative
tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

import numpy as np

from .errors import ValidationError
from .instance import Instance, PatternSet, _readonly, make_pattern_set

__all__ = [
    "PlantedSpectrum",
    "OutcomeLabel",
    "OutcomeClassifier",
    "DEFAULT_FRACTIONS",
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


def _coupling_of(inst: "Instance | np.ndarray") -> np.ndarray:
    if isinstance(inst, Instance):
        return inst.coupling
    return np.asarray(inst, dtype=np.float64)


def _check_state(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x)
    if x.shape != (n,):
        raise ValidationError(f"state must have shape ({n},), got {x.shape}")
    if not np.isin(x, (-1, 1)).all():
        raise ValidationError("state entries must be +1 or -1")
    return x.astype(np.float64)


def qubo_energy(inst: "Instance | np.ndarray", x: np.ndarray) -> float:
    """E(x) = -1/2 x^T J x for a single +-1 state."""
    j = _coupling_of(inst)
    xf = _check_state(x, j.shape[0])
    return float(-0.5 * (xf @ (j @ xf)))


def qubo_energy_many(inst: "Instance | np.ndarray", states: np.ndarray) -> np.ndarray:
    """Energies of a (r, n) block of +-1 states."""
    j = _coupling_of(inst)
    xs = np.asarray(states, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != j.shape[0]:
        raise ValidationError(f"states must be (r, {j.shape[0]}), got {xs.shape}")
    return _energies(j, xs)


def _energies(j: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """-1/2 x^T J x for each row of a float64 (r, n) block, unchecked."""
    return -0.5 * np.einsum("ri,ri->r", xs @ j, xs)


@dataclass(frozen=True, eq=False)
class PlantedSpectrum:
    """Energies of the planted patterns on a coupling matrix."""

    energies: np.ndarray            # (k,) float64, pattern order
    e_min: float
    e_max: float

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
    were not coarse-grained.  planted_spectrum and oracle.max_eigenvalue
    both ask this one predicate, and both still verify the closed form
    against the matrix itself before trusting it.
    """
    return ps.is_orthogonal() and not ps.is_perturbed() and inst.coarse_delta is None


def planted_spectrum(ps: PatternSet, inst: Instance, method: str = "auto") -> PlantedSpectrum:
    """Planted energies of the binary patterns of ps on inst.coupling.

    method "direct" evaluates qubo_energy on each pattern.  method
    "closed" uses the orthogonal closed form (errors when the set is
    perturbed, non-orthogonal, or the matrix was coarse-grained).
    "auto" takes the closed form whenever it applies and cross-checks
    it against the direct route to 1e-9 relative; disagreement means
    the couplings do not belong to this pattern set and raises.
    """
    j = inst.coupling
    if j.shape[0] != ps.n:
        raise ValidationError("pattern set and instance dimensions differ")
    closed_ok = closed_form_applies(ps, inst)
    if method == "closed" and not closed_ok:
        raise ValidationError(
            "closed form needs an orthogonal unperturbed set on uncoarsened couplings"
        )
    direct = _energies(j, ps.patterns.astype(np.float64))
    if method == "direct" or not closed_ok:
        energies = direct
    else:
        total = float(np.sum(ps.weights))
        closed = -(ps.weights * ps.n ** 2 - ps.n * total) / 2.0
        scale = np.maximum(1.0, np.maximum(np.abs(closed), np.abs(direct)))
        if np.any(np.abs(closed - direct) > _REL_TOL * scale):
            worst = int(np.argmax(np.abs(closed - direct) / scale))
            raise ValidationError(
                "closed-form and direct planted energies disagree "
                f"(pattern {worst + 1}: {float(closed[worst])!r} vs {float(direct[worst])!r})"
            )
        energies = closed
    return PlantedSpectrum(
        energies=_readonly(energies.astype(np.float64)),
        e_min=float(energies.min()),
        e_max=float(energies.max()),
    )


@dataclass(frozen=True)
class OutcomeLabel:
    """Structural label of a solver outcome.

    category is one of planted, mirror, mixed, spurious, below, above;
    below/above apply only when no structural match exists and the
    energy leaves the planted range.  pattern is 1-based and set for
    planted and mirror labels; signature is set for mixed ones.
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


def _planted_range(spectrum: PlantedSpectrum) -> tuple[float, float]:
    """The planted range widened by the 1e-9 relative edge tolerance."""
    tol = _REL_TOL * max(1.0, abs(spectrum.e_min), abs(spectrum.e_max))
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
        self._lo, self._hi = _planted_range(spectrum)

    def classify(self, x: np.ndarray, energy: float) -> OutcomeLabel:
        x = np.asarray(x)
        key = x.tobytes() if x.dtype == np.int8 else None
        label = self._table.get(key)
        if label is None:
            # table keys are int8 rows of +-1, so only a miss needs the check
            if not ((x == 1) | (x == -1)).all():
                raise ValidationError("state entries must be +1 or -1")
            if key is None:
                label = self._table.get(x.astype(np.int8).tobytes())
        if label is not None:
            return label
        if energy < self._lo:
            return _BELOW
        if energy > self._hi:
            return _ABOVE
        return _SPURIOUS


def band_label(fraction: float) -> str:
    """Stable text key for a band fraction, e.g. 0.0625 -> "1/16"."""
    frac = Fraction(fraction).limit_denominator(64)
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def measure_bins(spectrum: PlantedSpectrum, energies: np.ndarray) -> dict[str, int]:
    """Count energies in the nested DEFAULT_FRACTIONS bands of the planted range.

    An energy E is assigned to the smallest fraction f with
    E < e_min + f * (e_max - e_min); the final band is closed at e_max.
    Energies within a 1e-9 relative tolerance of either range edge
    count as inside (first or final band), so a planted hit whose
    recomputed energy drifts an ulp never leaks into below/above.
    Keys are band_label(f) plus "below" and "above".  A zero span (a
    single planted level) puts every energy within that tolerance of
    the level in the full band "1".
    """
    span = spectrum.e_max - spectrum.e_min
    e = np.asarray(energies, dtype=np.float64)
    lo, hi = _planted_range(spectrum)
    thresholds = spectrum.e_min + span * np.array(DEFAULT_FRACTIONS)
    thresholds[-1] = spectrum.e_max
    labels = [band_label(f) for f in DEFAULT_FRACTIONS]
    counts = dict.fromkeys(labels + ["below", "above"], 0)
    below = e < lo
    above = e > hi
    counts["below"] = int(below.sum())
    counts["above"] = int(above.sum())
    inside = e[~below & ~above]
    if span > 0:
        idx = np.minimum(np.searchsorted(thresholds, inside, side="right"), len(labels) - 1)
    else:
        idx = np.full(inside.shape, len(labels) - 1)
    for i, lab in enumerate(labels):
        counts[lab] = int((idx == i).sum())
    return counts


def gauge_transform(inst: Instance, flips) -> Instance:
    """Flip the listed sites: J'_ij = s_i s_j J_ij with s_i = -1 on flips.

    Patterns and perturbations transform the same way, so planted
    energies are preserved exactly and the spectrum object is reused.
    """
    s = np.ones(inst.n, dtype=np.int8)
    flips = np.asarray(list(flips), dtype=np.int64)
    if flips.size:
        if flips.min() < 0 or flips.max() >= inst.n:
            raise ValidationError("flip index outside instance")
        s[flips] = -1
    sf = s.astype(np.float64)
    j = inst.coupling * np.outer(sf, sf)
    out = replace(inst, coupling=_readonly(j))
    ps = inst.pattern_set
    if ps is not None:
        new_ps = make_pattern_set(
            ps.patterns * s,
            weights=ps.weights,
            perturbations=None if ps.perturbations is None else ps.perturbations * sf,
        )
        out = replace(out, pattern_set=new_ps)
    return out

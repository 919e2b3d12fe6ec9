"""Exact references: exhaustive ground states and extreme eigenvalues.

brute_force enumerates half the hypercube (the first spin is pinned to
+1, since E(x) = E(-x) makes mirror pairs redundant) in vectorised
chunks, so n = 24 is the practical ceiling.

max_eigenvalue takes one of two direct routes.  On an orthogonal
unperturbed pattern set with uncoarsened couplings,
J = sum_m w_m xi^m (xi^m)^T - W*I with W = sum(w), so each pattern is an
eigenvector with eigenvalue n*w_m - W and the n - K directions
orthogonal to all patterns share the eigenvalue -W.  That closed form
is used only after the matrix itself certifies it; everything else
goes to a dense symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import _coupling_of, _energies, closed_form_applies
from .errors import ValidationError
from .instance import Instance, PatternSet, _readonly

__all__ = ["SpectrumReport", "brute_force", "max_eigenvalue"]

BRUTE_FORCE_LIMIT = 24
FULL_SPECTRUM_LIMIT = 16

_CHUNK_BITS = 16

# Relative tolerance of the closed-form eigenvalue certificate.
_CERT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Exhaustive ground-state data for one instance.

    Enumeration fixes the first spin to +1, so every mirror pair is
    visited exactly once: degeneracy counts minima over that half, and
    energy_multiset (when requested) holds the 2^(n-1) energies sorted
    ascending.
    """

    ground_state: np.ndarray        # (n,) int8, first spin +1
    ground_energy: float
    degeneracy: int
    energy_multiset: np.ndarray | None = None


@np.errstate(over="ignore", invalid="ignore")
def brute_force(inst: "Instance | np.ndarray", full_spectrum: bool = False) -> SpectrumReport:
    """Exact minimum of E(x) = -1/2 x^T J x by half-cube enumeration.

    Works up to n = 24 (n = 16 when full_spectrum asks for the whole
    energy multiset).  Deterministic: states are visited in binary
    counting order and the first minimiser is reported.  A non-finite
    energy raises ValidationError.
    """
    j = _coupling_of(inst)
    n = j.shape[0]
    if full_spectrum and n > FULL_SPECTRUM_LIMIT:
        raise ValidationError(f"full spectrum is capped at n = {FULL_SPECTRUM_LIMIT}, got {n}")
    if n > BRUTE_FORCE_LIMIT:
        raise ValidationError(f"brute force is capped at n = {BRUTE_FORCE_LIMIT}, got {n}")
    total = 1 << (n - 1)
    chunk = min(total, 1 << _CHUNK_BITS)
    shifts = np.arange(n - 1, dtype=np.uint32)
    best_energy = np.inf
    best_state: np.ndarray | None = None
    degeneracy = 0
    collected: list[np.ndarray] = []
    for start in range(0, total, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint32)
        bits = (codes[:, None] >> shifts) & 1
        states = np.empty((chunk, n), dtype=np.float64)
        states[:, 0] = 1.0
        states[:, 1:] = 1.0 - 2.0 * bits
        energies = _energies(j, states)
        if not np.isfinite(energies).all():
            raise ValidationError("brute force met a non-finite energy")
        if full_spectrum:
            collected.append(energies)
        chunk_min = float(energies.min())
        if chunk_min < best_energy:
            best_energy = chunk_min
            matches = energies == chunk_min
            degeneracy = int(matches.sum())
            best_state = states[int(np.argmax(matches))].astype(np.int8)
        elif chunk_min == best_energy:
            degeneracy += int((energies == chunk_min).sum())
    multiset = None
    if full_spectrum:
        multiset = _readonly(np.sort(np.concatenate(collected)))
    return SpectrumReport(
        ground_state=_readonly(best_state),
        ground_energy=best_energy,
        degeneracy=degeneracy,
        energy_multiset=multiset,
    )


def _certified_closed_form(j: np.ndarray, ps: PatternSet) -> float | None:
    """Largest eigenvalue from the orthogonal closed form, or None.

    The closed form is accepted only when the matrix confirms it, each
    check to _CERT_TOL relative: J xi^m = lam_m xi^m for every pattern,
    trace(J) = 0, and ||J||_F^2 = sum(lam_m^2) + (n - K) W^2.  The first
    check fixes K eigenpairs; the trace and Frobenius norm then give
    the other n - K eigenvalues sum -(n - K) W and sum of squares
    (n - K) W^2, which by Cauchy-Schwarz pins every one of them to -W
    (within sqrt(_CERT_TOL) * ||J||_F).
    """
    n, k = ps.n, ps.k
    total = float(np.sum(ps.weights))
    lam = n * ps.weights - total
    # the claimed spectral norm of J; checks in its units cannot overflow
    norm = max(float(np.max(np.abs(lam))), abs(total))
    if norm == 0:  # all weights zero claim J = 0
        return 0.0 if not np.any(j) else None
    js, ls, ws = j / norm, lam / norm, total / norm
    p = ps.patterns.T.astype(np.float64)
    if np.max(np.abs(js @ p - p * ls)) > _CERT_TOL:
        return None
    if abs(float(np.trace(js))) > _CERT_TOL:
        return None
    want = float(np.sum(ls * ls)) + (n - k) * ws * ws
    if abs(float(np.vdot(js, js)) - want) > _CERT_TOL * want:
        return None
    top = float(lam.max())
    return max(top, -total) if k < n else top


def max_eigenvalue(inst: "Instance | np.ndarray") -> float:
    """Largest eigenvalue of the coupling matrix.

    Instances whose pattern set admits the orthogonal closed form (see
    energy.closed_form_applies) get n*max(w) - sum(w), or -sum(w) when
    K < n and that is larger, once the certificate of
    _certified_closed_form holds.  Every other input, a failed certificate included, takes
    the last value of np.linalg.eigvalsh.
    """
    j = _coupling_of(inst)
    ps = inst.pattern_set if isinstance(inst, Instance) else None
    if ps is not None and closed_form_applies(ps, inst):
        top = _certified_closed_form(j, ps)
        if top is not None:
            return top
    return float(np.linalg.eigvalsh(j)[-1])

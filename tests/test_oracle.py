"""Exhaustive ground states and dominant eigenvalues against references."""

from dataclasses import replace

import numpy as np
import pytest

from plantbench import (
    ValidationError,
    brute_force,
    build_couplings,
    catalogue_pattern_set,
    coarse_grain,
    generate_orthogonal_patterns,
    generate_small_scale,
    make_pattern_set,
    max_eigenvalue,
    perturb_patterns,
)
from plantbench.oracle import BRUTE_FORCE_LIMIT, FULL_SPECTRUM_LIMIT

from conftest import exhaustive_minimum, random_symmetric


# ---------------------------------------------------------------------------
# brute force


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
def test_brute_force_matches_enumeration(n):
    for seed in range(4):
        j = random_symmetric(n, seed=seed, integer=True)
        want_e, want_x, want_deg = exhaustive_minimum(j)
        report = brute_force(j)
        assert report.ground_energy == want_e
        assert report.degeneracy == want_deg
        assert report.ground_state[0] == 1
        assert -0.5 * report.ground_state @ j @ report.ground_state == want_e


def test_brute_force_float_couplings():
    j = random_symmetric(9, seed=42)
    want_e, _, _ = exhaustive_minimum(j)
    report = brute_force(j)
    assert report.ground_energy == pytest.approx(want_e, rel=1e-12)


def test_brute_force_knows_catalogue_ground_states(catalogue_instances):
    # the heaviest planted pattern is the global minimum for every entry
    expected = {
        "a": (2, -46.4), "b": (3, -31.8), "b*": (3, -52.0), "c": (3, -29.6),
        "d": (3, -36.0), "e": (3, -33.5), "f": (4, -24.8),
    }
    for ident, (pattern, energy) in expected.items():
        inst = catalogue_instances[ident]
        report = brute_force(inst)
        assert report.ground_energy == pytest.approx(energy, abs=1e-9), ident
        winner = inst.pattern_set.patterns[pattern - 1]
        assert (
            np.array_equal(report.ground_state, winner)
            or np.array_equal(report.ground_state, -winner)
        ), ident


def test_full_spectrum_shape_and_order():
    j = random_symmetric(7, seed=6, integer=True)
    report = brute_force(j, full_spectrum=True)
    assert report.energy_multiset.shape == (2**6,)
    assert np.all(np.diff(report.energy_multiset) >= 0)
    assert report.energy_multiset[0] == report.ground_energy


def test_brute_force_spans_chunk_boundaries():
    # n = 18 forces two 2^16-state chunks through the accumulator; the
    # reference enumerates the whole half-cube in one unchunked shot
    n = 18
    j = random_symmetric(n, seed=13, integer=True)
    codes = np.arange(1 << (n - 1), dtype=np.uint32)
    states = np.empty((codes.size, n))
    states[:, 0] = 1.0
    states[:, 1:] = 1.0 - 2.0 * ((codes[:, None] >> np.arange(n - 1)) & 1)
    energies = -0.5 * ((states @ j) * states).sum(axis=1)
    report = brute_force(j)
    assert report.ground_energy == float(energies.min())
    assert report.degeneracy == int((energies == energies.min()).sum())


def test_capacity_limits():
    with pytest.raises(ValidationError, match="brute force is capped at n = 24, got 25"):
        brute_force(np.zeros((BRUTE_FORCE_LIMIT + 1, BRUTE_FORCE_LIMIT + 1)))
    with pytest.raises(ValidationError, match="full spectrum is capped at n = 16, got 18"):
        brute_force(
            np.zeros((FULL_SPECTRUM_LIMIT + 2, FULL_SPECTRUM_LIMIT + 2)),
            full_spectrum=True,
        )


# an all-NaN chunk used to hand best_state = None to _readonly
# (AttributeError), and an infinite one to report -inf as the ground energy
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [np.inf, 1e308])
def test_brute_force_rejects_non_finite_energies(big):
    j = np.array([[0.0, big, 1.0], [big, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValidationError, match="non-finite energy"):
        brute_force(j)


# a bare coupling with a NaN entry used to return eigvalsh's nan
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_max_eigenvalue_rejects_non_finite_couplings(bad):
    j = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValidationError, match="coupling entries must be finite"):
        max_eigenvalue(j)


def test_degenerate_ground_counted_once_per_mirror_pair():
    # J = antiferromagnetic pair: ground states (+1,-1) and (-1,+1) are
    # one mirror pair, so degeneracy over the half-cube is 1
    j = np.array([[0.0, -1.0], [-1.0, 0.0]])
    report = brute_force(j)
    assert report.ground_energy == -1.0
    assert report.degeneracy == 1


# ---------------------------------------------------------------------------
# dominant eigenvalue


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_max_eigenvalue_matches_dense_solver(n):
    for seed in range(3):
        j = random_symmetric(n, seed=seed)
        want = float(np.linalg.eigvalsh(j).max())
        assert max_eigenvalue(j) == pytest.approx(want, abs=1e-8)


def test_max_eigenvalue_on_planted_instance():
    ps = generate_orthogonal_patterns(64, 5, seed=8, dw=0.002)
    inst = build_couplings(ps)
    want = float(np.linalg.eigvalsh(inst.coupling).max())
    assert max_eigenvalue(inst) == pytest.approx(want, abs=1e-8)


def test_max_eigenvalue_survives_all_ones_orthogonal_start():
    # dominant eigenvector orthogonal to the all-ones vector
    v = np.array([1.0, -1.0, 1.0, -1.0])
    j = np.outer(v, v)
    np.fill_diagonal(j, 0.0)
    want = float(np.linalg.eigvalsh(j).max())
    assert max_eigenvalue(j) == pytest.approx(want, abs=1e-9)


def test_max_eigenvalue_zero_matrix():
    assert max_eigenvalue(np.zeros((5, 5))) == 0.0


def _forbid_eigvalsh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("closed form expected, eigvalsh was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)


_CLOSED_FORM_CASES = [
    (64, 5, 1.0, 0.002),        # K < n: top pattern beats -W
    (64, 40, 1.0, 0.0006),
    (16, 16, 1.0, 0.01),        # K = n, non-flat ladder
    (16, 16, 1.0, 0.0),         # K = n, flat ladder: J = 0
    (32, 6, 1.0, 0.01),
    (8, 3, -1.0, 0.1),          # negative ladder: -W on top
]


# each id ends in the coupling rule its case is built with
@pytest.mark.parametrize("n, k, w0, dw", _CLOSED_FORM_CASES,
                         ids=["-".join(map(str, case)) + "-hebb" for case in _CLOSED_FORM_CASES])
def test_max_eigenvalue_closed_form(monkeypatch, n, k, w0, dw):
    ps = generate_orthogonal_patterns(n, k, seed=3, w0=w0, dw=dw)
    inst = build_couplings(ps)
    total = float(np.sum(ps.weights))
    want = max(n * float(ps.weights.max()) - total, -total if k < n else -np.inf)
    dense = float(np.linalg.eigvalsh(inst.coupling)[-1])
    _forbid_eigvalsh(monkeypatch)
    got = max_eigenvalue(inst)
    assert got == want
    assert got == pytest.approx(dense, rel=1e-12, abs=1e-12)
    if k == n and dw == 0.0:
        assert got == 0.0


def _altered_couplings(kind):
    """Orthogonal instance and a copy of its couplings that no longer
    match its patterns."""
    # at weights near 1e300 the squares of the Frobenius check overflow
    scale = 1e300 if kind == "frobenius-1e300" else 1.0
    extra = generate_orthogonal_patterns(32, 6, seed=5, dw=0.01)
    ps = make_pattern_set(extra.patterns[:4], w0=scale, dw=0.01 * scale)
    inst = build_couplings(ps)
    j = inst.coupling.copy()
    if kind == "eigenvector":
        j[0, 1] += 2.0
        j[1, 0] += 2.0
    else:
        # a trace-free rank-2 term orthogonal to every pattern keeps each
        # pattern an eigenvector; only the Frobenius check can notice it
        u, v = extra.patterns[4:].astype(np.float64)
        j += 2.0 * scale * (np.outer(u, u) - np.outer(v, v))
    j.setflags(write=False)
    return inst, j


def _uncertified_instance(case):
    """An Instance on which the orthogonal closed form is not certified."""
    ps = generate_orthogonal_patterns(32, 4, seed=5, dw=0.01)
    if case == "perturbed":
        return build_couplings(perturb_patterns(ps, [(0, 3, 0.25)]))
    if case == "coarse":
        return coarse_grain(build_couplings(ps), 0.3)
    if case == "catalogue":
        return generate_small_scale("c")
    if case == "external":
        return replace(build_couplings(ps), pattern_set=None)
    built, j = _altered_couplings(case)
    return replace(built, coupling=j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "case", ["perturbed", "coarse", "catalogue", "ndarray", "eigenvector", "frobenius",
             "frobenius-1e300"]
)
def test_max_eigenvalue_falls_back_to_eigvalsh(case):
    if case == "ndarray":
        inst = np.array(_uncertified_instance("external").coupling)
    elif case == "eigenvector":
        # the extra coupling moves planted energies, so no Instance holds
        # it; the fallback still sees the raw matrix
        built, inst = _altered_couplings(case)
        with pytest.raises(ValidationError, match="planted energies disagree"):
            replace(built, coupling=inst)
        ps = built.pattern_set
    else:
        inst = _uncertified_instance(case)
        ps = inst.pattern_set
    coupling = inst if isinstance(inst, np.ndarray) else inst.coupling
    want = float(np.linalg.eigvalsh(coupling)[-1])
    assert max_eigenvalue(inst) == want
    if case.startswith(("eigenvector", "frobenius")):
        closed = 32 * float(ps.weights.max()) - float(np.sum(ps.weights))
        assert abs(want - closed) > 0.05


@pytest.mark.parametrize(
    "case", _CLOSED_FORM_CASES + ["perturbed", "coarse", "catalogue", "external", "frobenius"],
    ids=lambda case: case if isinstance(case, str) else "-".join(map(str, case)),
)
def test_spectrum_holds_the_certified_lambda_max(case):
    if isinstance(case, str):
        spectrum = _uncertified_instance(case).spectrum
        assert spectrum is None or spectrum.lambda_max is None
        return
    n, k, w0, dw = case
    ps = generate_orthogonal_patterns(n, k, seed=3, w0=w0, dw=dw)
    # the closed form, evaluated as the oracle always has: the largest
    # lam_m = n w_m - W, or -W when K < n and that is larger
    total = float(np.sum(ps.weights))
    top = float((n * ps.weights - total).max())
    want = max(top, -total) if k < n else top
    assert build_couplings(ps).spectrum.lambda_max.hex() == want.hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_max_eigenvalue_falls_back_when_only_the_trace_fails(monkeypatch):
    # c * (I - P P^T / n) vanishes on every pattern, so each eigenpair
    # holds, and it moves the n - K complement eigenvalues from -W to
    # c - W.  With c = 2W they become +W: the Frobenius norm is unchanged
    # and only the trace, now c (n - K), tells; at K = 12 > n/2, W is
    # above the top pattern eigenvalue, so the closed form would be wrong.
    # Such a J has a non-zero diagonal, so no Instance holds it and the
    # certificate, which runs only when an Instance is made, never sees
    # it; the raw matrix takes eigvalsh
    n = 16
    ps = generate_orthogonal_patterns(n, 12, seed=5, dw=0.01)
    inst = build_couplings(ps)
    total = float(np.sum(ps.weights))
    lam = n * ps.weights - total
    p = ps.patterns.T.astype(np.float64)
    j = inst.coupling + 2.0 * total * (np.eye(n) - p @ p.T / n)
    j.setflags(write=False)
    assert np.abs(j @ p - p * lam).max() < 1e-9
    want_frobenius = float(np.sum(lam * lam)) + (n - 12) * total * total
    assert float(np.vdot(j, j)) == pytest.approx(want_frobenius, rel=1e-12)
    assert float(np.trace(j)) == pytest.approx(2.0 * total * (n - 12))
    want = float(np.linalg.eigvalsh(j)[-1])
    assert want == pytest.approx(total) and want > float(lam.max()) + 1.0
    with pytest.raises(ValidationError, match="diagonal must be zero"):
        replace(inst, coupling=j)
    assert max_eigenvalue(j) == want
    # the unaltered instance still takes the certified closed form
    _forbid_eigvalsh(monkeypatch)
    assert max_eigenvalue(inst) == float(lam.max())


def test_max_eigenvalue_falls_back_on_zero_weights_with_couplings():
    # all-zero weights claim J = 0; a non-zero J must not return 0
    ps = generate_orthogonal_patterns(16, 3, seed=2, w0=0.0, dw=0.0)
    inst = build_couplings(ps)
    assert not np.any(inst.coupling)
    j = random_symmetric(16, seed=4)
    # j moves the planted energies off 0, so no Instance holds it; the
    # fallback still sees the raw matrix
    with pytest.raises(ValidationError, match="planted energies disagree"):
        replace(inst, coupling=j)
    want = float(np.linalg.eigvalsh(j)[-1])
    assert want > 0
    assert max_eigenvalue(j) == want
    assert max_eigenvalue(inst) == 0.0

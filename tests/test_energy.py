"""Energy evaluation, planted spectra, outcome labels, measure bands."""

import itertools
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantbench import (
    OutcomeClassifier,
    ValidationError,
    band_label,
    build_couplings,
    catalogue_pattern_set,
    gauge_transform,
    generate_orthogonal_patterns,
    measure_bins,
    planted_spectrum,
    qubo_energy,
    qubo_energy_many,
)
from plantbench.energy import (
    DEFAULT_FRACTIONS,
    DEFAULT_MIXED_CAP,
    PlantedSpectrum,
    _certified_lambda_max,
)

from conftest import random_symmetric


# ---------------------------------------------------------------------------
# energy evaluation


def test_energy_against_pair_sum():
    j = random_symmetric(6, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.choice([-1, 1], size=6)
        pair_sum = -sum(
            j[i, k] * x[i] * x[k] for i in range(6) for k in range(i + 1, 6)
        )
        assert qubo_energy(j, x) == pytest.approx(pair_sum, rel=1e-12)


def test_energy_many_matches_single():
    j = random_symmetric(10, seed=2)
    states = np.random.default_rng(3).choice([-1, 1], size=(40, 10))
    many = qubo_energy_many(j, states)
    for row, e in zip(states, many):
        assert e == pytest.approx(qubo_energy(j, row), rel=1e-12)


def test_energy_rejects_non_binary_state():
    j = random_symmetric(4, seed=4)
    with pytest.raises(ValidationError):
        qubo_energy(j, np.array([1, 0, 1, -1]))


# qubo_energy_many used to score rows of 0.5 and 2.0 (or NaN) as states,
# which qubo_energy refused
@pytest.mark.parametrize("bad", [0.5, 2.0, 0.0, np.nan])
def test_energy_many_rejects_non_binary_states(bad):
    j = random_symmetric(4, seed=4)
    states = np.array([[1, -1, 1, -1], [1, 1, -1, -1]], dtype=np.float64)
    states[1, 2] = bad
    with pytest.raises(ValidationError, match="state entries must be \\+1 or -1"):
        qubo_energy_many(j, states)
    with pytest.raises(ValidationError, match="state entries must be \\+1 or -1"):
        qubo_energy(j, states[1])
    assert qubo_energy(j, states[0]) == qubo_energy_many(j, states[:1])[0]


# a bare coupling array used to reach numpy unchecked: a 1-D or text
# array raised numpy's ValueError, (0, 0) "negative shift count" in
# brute force, and (2, 3) a broadcast ValueError or LinAlgError
@pytest.mark.parametrize("coupling, shape", [
    (np.zeros(3), "(3,)"),
    (np.zeros((0, 0)), "(0, 0)"),
    (np.zeros((2, 3)), "(2, 3)"),
    (np.zeros((2, 2, 2)), "(2, 2, 2)"),
    (np.array([["0", "1"], ["1", "0"]]), "(2, 2)"),
    (np.eye(2, dtype=complex), "(2, 2)"),
    ([[0.0, 1.0], [1.0]], "()"),
])
def test_bare_coupling_arrays_are_checked(coupling, shape):
    from plantbench import brute_force, max_eigenvalue

    message = f"coupling must be a real square matrix of size >= 1, got shape {shape}"
    if not isinstance(coupling, np.ndarray) or coupling.dtype.kind not in "biuf":
        # the array gate refuses a text, complex or ragged array first
        message = "coupling must be an array of real numbers"
    for call in (lambda: qubo_energy(coupling, np.ones(2)),
                 lambda: qubo_energy_many(coupling, np.ones((1, 2))),
                 lambda: brute_force(coupling),
                 lambda: max_eigenvalue(coupling)):
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_mirror_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    j = random_symmetric(n, seed=seed + 1)
    x = rng.choice([-1, 1], size=n)
    assert qubo_energy(j, x) == qubo_energy(j, -x)


# ---------------------------------------------------------------------------
# planted spectrum


def test_closed_form_matches_direct():
    ps = generate_orthogonal_patterns(64, 9, seed=7, dw=0.004)
    inst = build_couplings(ps)
    spec = planted_spectrum(ps, inst)
    total = float(np.sum(ps.weights))
    assert np.array_equal(spec.energies, -(ps.weights * 64 ** 2 - 64 * total) / 2.0)
    np.testing.assert_allclose(spec.energies, qubo_energy_many(inst, ps.patterns), rtol=1e-9)
    assert spec.ground_index == ps.k - 1  # heaviest pattern sits lowest


def test_lambda_max_certificate_fails_on_a_non_finite_residual():
    # the certificate runs with overflow warnings off, so an overflowing
    # pattern product must fail it rather than pass a comparison
    ps = generate_orthogonal_patterns(16, 3, seed=0, dw=0.01)
    inst = build_couplings(ps)
    pj = ps.patterns.astype(np.float64) @ inst.coupling
    assert _certified_lambda_max(inst.coupling, pj, ps) == inst.spectrum.lambda_max
    for bad in (np.inf, -np.inf, np.nan):
        spoiled = pj.copy()
        spoiled[0, 0] = bad
        assert _certified_lambda_max(inst.coupling, spoiled, ps) is None


def test_spectrum_detects_foreign_couplings():
    ps = generate_orthogonal_patterns(16, 3, seed=0, dw=0.01)
    other = build_couplings(generate_orthogonal_patterns(16, 3, seed=1, dw=0.01))
    with pytest.raises(ValidationError):
        planted_spectrum(ps, other)


# ---------------------------------------------------------------------------
# outcome labels


@pytest.fixture(scope="module")
def c_classifier():
    ps = catalogue_pattern_set("c")
    inst = build_couplings(ps)
    return ps, inst, OutcomeClassifier(ps, inst.spectrum)


def test_planted_and_mirror_labels(c_classifier):
    ps, inst, clf = c_classifier
    for m in range(ps.k):
        e = float(inst.spectrum.energies[m])
        assert clf.classify(ps.patterns[m], e).short() == f"planted:{m + 1}"
        assert clf.classify(-ps.patterns[m], e).short() == f"mirror:{m + 1}"


def test_mixed_label(c_classifier):
    ps, inst, clf = c_classifier
    mix = np.sign(ps.patterns.astype(np.int64).sum(axis=0)).astype(np.int8)
    e = qubo_energy(inst, mix)
    label = clf.classify(mix, e)
    assert label.category == "mixed"
    assert label.signature == ((1, 1), (2, 1), (3, 1))
    assert label.short() == "mixed:1+2+3"


def test_spurious_and_range_labels(c_classifier):
    ps, inst, clf = c_classifier
    spec = inst.spectrum
    probe = ps.patterns[0].copy()
    probe[5] = -probe[5]  # one flip away: structurally unknown
    e = qubo_energy(inst, probe)
    label = clf.classify(probe, e)
    assert label.category in ("spurious", "below", "above")
    # energies pushed outside the planted range force below/above
    assert clf.classify(probe, spec.e_min - 1.0).category == "below"
    assert clf.classify(probe, spec.e_max + 1.0).category == "above"
    # a structural match keeps its category even when out of range
    assert clf.classify(ps.patterns[0], spec.e_max + 1.0).category == "planted"



@pytest.mark.parametrize("bad", [0, 2, np.nan])
def test_classify_rejects_non_spin_entries(c_classifier, bad):
    ps, inst, clf = c_classifier
    probe = ps.patterns[0].astype(np.float64)
    probe[3] = bad
    with pytest.raises(ValidationError, match="must be \\+1 or -1"):
        clf.classify(probe, 0.0)


@pytest.mark.parametrize("dtype, bad", [(np.int8, 0), (np.int8, 2), (np.float64, 1.5)])
def test_classify_checks_entries_before_the_table(c_classifier, dtype, bad):
    # only an int8 row whose bytes are a table key skips the entry check;
    # 1.5 * (+-1) would truncate onto the planted row
    ps, inst, clf = c_classifier
    probe = ps.patterns[0].astype(dtype)
    probe[3] = bad * probe[3]
    with pytest.raises(ValidationError, match="must be \\+1 or -1"):
        clf.classify(probe, 0.0)


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_classify_accepts_spin_dtypes(c_classifier, dtype):
    ps, inst, clf = c_classifier
    e = float(inst.spectrum.energies[0])
    assert clf.classify(ps.patterns[0].astype(dtype), e).short() == "planted:1"
    assert clf.classify(-ps.patterns[0].astype(dtype), e).short() == "mirror:1"

def test_classifier_precedence_prefers_planted():
    # pattern 2 equals the mirror of pattern 1: its own planted entry
    # must win the table slot over the mirror alias
    from plantbench import make_pattern_set

    ps = make_pattern_set(
        np.array([[1, 1, 1, 1], [-1, -1, -1, -1]]), w0=1.0, dw=0.1
    )
    inst = build_couplings(ps)
    clf = OutcomeClassifier(ps, inst.spectrum)
    label = clf.classify(ps.patterns[1], float(inst.spectrum.energies[1]))
    assert label.short() == "planted:2"


def test_mixed_cap_skips_enumeration():
    # C(40, 3) * 4 = 39,520 signed mixtures exceed the cap of 20,000
    ps = generate_orthogonal_patterns(64, 40, seed=1, dw=0.001)
    inst = build_couplings(ps)
    clf = OutcomeClassifier(ps, inst.spectrum)
    assert clf.mixed_skipped
    mix = np.sign(ps.patterns[:3].astype(np.int64).sum(axis=0)).astype(np.int8)
    label = clf.classify(mix, qubo_energy(inst, mix))
    assert label.category in ("spurious", "below", "above")


def _label_probe_block(ps, rng, rows):
    """Planted, mirror, three-pattern mixture and random rows, shuffled."""
    pats = ps.patterns.astype(np.int8)
    mixes = np.sign(pats[:3].astype(np.int64).sum(axis=0)).astype(np.int8)
    pool = np.vstack([pats, -pats, mixes, -mixes,
                      rng.choice(np.array([-1, 1], dtype=np.int8), size=(8, ps.n))])
    return pool[rng.integers(0, len(pool), size=rows)]


@pytest.mark.parametrize("case", ["catalogue", "mixed_skipped"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reused_classifier_matches_fresh_ones(case, seed):
    # table labels are built once and then shared; every label must
    # still equal a fresh classifier's
    if case == "catalogue":
        ps = catalogue_pattern_set("c")
    else:
        ps = generate_orthogonal_patterns(64, 40, seed=1, dw=0.001)
    inst = build_couplings(ps)
    spec = inst.spectrum
    clf = OutcomeClassifier(ps, spec)
    assert clf.mixed_skipped == (case == "mixed_skipped")
    rng = np.random.default_rng(seed)
    block = _label_probe_block(ps, rng, 120)
    energies = qubo_energy_many(inst, block)
    shift = rng.choice([0.0, 0.0, spec.e_min - spec.e_max - 1.0, spec.span + 1.0],
                       size=len(block))
    categories = set()
    for row, e in zip(block, energies + shift):
        got = clf.classify(row, float(e))
        assert got == OutcomeClassifier(ps, spec).classify(row, float(e))
        categories.add(got.category)
    assert {"planted", "mirror"} <= categories
    assert ("mixed" in categories) == (case == "catalogue")


def test_classify_outcome_one_off(c_classifier):
    ps, inst, _ = c_classifier
    label = OutcomeClassifier(ps, inst.spectrum).classify(
        ps.patterns[2], float(inst.spectrum.energies[2])
    )
    assert label.short() == "planted:3"


# a row of the wrong length used to be labelled by its energy alone: a
# three-entry row on catalogue c came back "above"; and an int8 block of
# eight +-1 entries in another shape by its bytes: (1, 8) ones came back
# "planted:1"
@pytest.mark.parametrize("row", [
    np.ones(3, dtype=np.int8), np.ones(9, dtype=np.int8), np.ones(3), -np.ones((2, 8)),
    np.ones((1, 8), dtype=np.int8), -np.ones((8, 1), dtype=np.int8),
])
def test_classify_rejects_a_row_of_the_wrong_length(c_classifier, row):
    _, inst, clf = c_classifier
    with pytest.raises(ValidationError, match="state must have 8 entries"):
        clf.classify(row, inst.spectrum.e_max + 1.0)


def _mirrored_c():
    """Catalogue c plus the mirror of its pattern 1: a planted/mirror tie."""
    from plantbench import make_pattern_set

    ps = catalogue_pattern_set("c")
    return make_pattern_set(np.vstack([ps.patterns, -ps.patterns[:1]]), w0=1.0, dw=0.01)


_RULE_SETS = {
    "c": lambda: catalogue_pattern_set("c"),
    "f": lambda: catalogue_pattern_set("f"),
    "c-mirrored": _mirrored_c,
    "n16": lambda: generate_orthogonal_patterns(16, 7, seed=3, dw=0.01),
    "n64-k40": lambda: generate_orthogonal_patterns(64, 40, seed=1, dw=0.001),
}


@pytest.fixture(scope="module", params=sorted(_RULE_SETS))
def rule_case(request):
    ps = _RULE_SETS[request.param]()
    inst = build_couplings(ps)
    return ps, inst, OutcomeClassifier(ps, inst.spectrum)


def _three_pattern_mixtures(ps):
    """Every signed mixture in combination, then sign-tail order; none past the cap."""
    if comb(ps.k, 3) * 4 > DEFAULT_MIXED_CAP:
        return []
    out = []
    for combo in itertools.combinations(range(ps.k), 3):
        for tail in itertools.product((1, -1), repeat=2):
            signs = (1,) + tail
            mix = sum(s * ps.patterns[c].astype(np.int64) for c, s in zip(combo, signs))
            out.append((np.sign(mix), tuple((c + 1, s) for c, s in zip(combo, signs))))
    return out


def _rule_label(ps, spec, mixtures, row, energy):
    """The labelling rules restated one by one, without a table."""
    if not np.isin(row, (-1, 1)).all():
        return "invalid"
    for m in range(ps.k):
        if np.array_equal(row, ps.patterns[m]):
            return f"planted:{m + 1}"
    for m in range(ps.k):
        if np.array_equal(row, -ps.patterns[m]):
            return f"mirror:{m + 1}"
    for mix, sig in mixtures:
        if np.array_equal(row, mix) or np.array_equal(row, -mix):
            return "mixed:" + str(sig[0][0]) + "".join(
                f"{'+' if s > 0 else '-'}{c}" for c, s in sig[1:])
    tol = 1e-9 * max(1.0, abs(spec.e_min), abs(spec.e_max))
    if energy < spec.e_min - tol:
        return "below"
    if energy > spec.e_max + tol:
        return "above"
    return "spurious"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_classify_matches_restated_rules(rule_case, seed):
    ps, inst, clf = rule_case
    spec = inst.spectrum
    rng = np.random.default_rng(seed)
    mixtures = _three_pattern_mixtures(ps)
    pats = ps.patterns.astype(np.int8)
    pool = [pats, -pats, rng.choice(np.array([-1, 1], dtype=np.int8), size=(8, ps.n))]
    if mixtures:
        picks = rng.integers(0, len(mixtures), size=8)
        mixes = np.array([mixtures[i][0] for i in picks], dtype=np.int8)
        pool += [mixes, -mixes]
    pool = np.vstack(pool)
    block = pool[rng.integers(0, len(pool), size=60)]
    energies = qubo_energy_many(inst, block)
    tol = 1e-9 * max(1.0, abs(spec.e_min), abs(spec.e_max))
    shift = rng.choice([0.0, 0.0, -spec.span - 1.0, spec.span + 1.0], size=len(block))
    energies = energies + shift
    edges = rng.random(len(block)) < 0.2
    energies[edges] = rng.choice([spec.e_min - tol, spec.e_min - 2 * tol,
                                  spec.e_max + tol, spec.e_max + 2 * tol], size=edges.sum())
    for row, e in zip(block, energies.tolist()):
        dtype = rng.choice(["int8", "int64", "float64"])
        row = row.astype(dtype)
        if rng.random() < 0.15:
            # an entry off +-1: 0, 2, 255 (int8 -1 after a wrap), 1.5 (1 truncated)
            bad = {"int8": [0, 2], "int64": [0, 2, 255], "float64": [0.0, 1.5, -1.5]}[dtype]
            row[rng.integers(ps.n)] = rng.choice(bad)
        want = _rule_label(ps, spec, mixtures, row, e)
        if want == "invalid":
            with pytest.raises(ValidationError, match="must be \\+1 or -1"):
                clf.classify(row, e)
        else:
            assert clf.classify(row, e).short() == want


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("mult", [0.0, 0.5, 1.0, 1.0 + 1e-6, 2.0])
def test_classify_range_edge_agrees_with_measure_bins(c_classifier, side, mult):
    # one tolerant planted range for labels and bands, up to the edge ulp
    ps, inst, clf = c_classifier
    spec = inst.spectrum
    probe = ps.patterns[0].copy()
    probe[5] = -probe[5]  # one flip away: no structural label
    tol = 1e-9 * max(1.0, abs(spec.e_min), abs(spec.e_max))
    edge = spec.e_min - mult * tol if side == "below" else spec.e_max + mult * tol
    for e in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
        category = clf.classify(probe, float(e)).category
        counts = measure_bins(spec, np.array([e]))
        assert category in ("spurious", "below", "above")
        assert (category == "below") == (counts["below"] == 1)
        assert (category == "above") == (counts["above"] == 1)


# ---------------------------------------------------------------------------
# measure bands


def unit_spectrum():
    return PlantedSpectrum(energies=np.array([0.0, 1.0]), e_min=0.0, e_max=1.0)


def test_measure_bins_band_assignment():
    spec = unit_spectrum()
    energies = [0.0, 0.05, 0.08, 0.2, 0.4, 0.7, 0.9, 1.0, -0.5, 1.5]
    counts = measure_bins(spec, np.array(energies))
    assert counts == {
        "1/16": 2,   # 0.0 and 0.05
        "1/8": 1,    # 0.08
        "1/4": 1,    # 0.2
        "1/2": 1,    # 0.4
        "3/4": 1,    # 0.7
        "1": 2,      # 0.9 and the closed edge 1.0
        "below": 1,
        "above": 1,
    }


def test_measure_bins_edges_are_tolerance_closed():
    spec = unit_spectrum()
    eps = 1e-13
    counts = measure_bins(spec, np.array([-eps, 1.0 + eps]))
    assert counts["below"] == 0 and counts["above"] == 0
    assert counts["1/16"] == 1 and counts["1"] == 1


def test_measure_bins_zero_span_counts_single_level():
    # every energy within tolerance of the one level is in the full band
    spec = PlantedSpectrum(energies=np.array([2.0, 2.0]), e_min=2.0, e_max=2.0)
    counts = measure_bins(spec, np.array([2.0, 2.0 - 1e-12, 2.0 + 1e-12, 1.9, 2.5, 3.0]))
    assert counts == {
        "1/16": 0, "1/8": 0, "1/4": 0, "1/2": 0, "3/4": 0,
        "1": 3, "below": 1, "above": 2,
    }


def single_level_reference(level: float, energies: np.ndarray) -> dict[str, int]:
    """The zero-span rule bench applied before measure_bins counted it."""
    labels = [band_label(f) for f in DEFAULT_FRACTIONS]
    counts = dict.fromkeys(labels + ["below", "above"], 0)
    e = np.asarray(energies, dtype=np.float64)
    tol = 1e-9 * max(1.0, abs(level))
    counts["below"] = int((e < level - tol).sum())
    counts["above"] = int((e > level + tol).sum())
    counts["1"] = int(e.size) - counts["below"] - counts["above"]
    return counts


@settings(max_examples=300, deadline=None)
@given(
    level=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    offsets=st.lists(
        st.tuples(
            st.sampled_from([-1, 1]),
            # multiples of the tolerance: exactly at the level, just
            # inside, at the edge, just outside, far outside
            st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3]),
        ),
        max_size=40,
    ),
)
def test_measure_bins_zero_span_matches_single_level_rule(level, offsets):
    tol = 1e-9 * max(1.0, abs(level))
    energies = np.array([level + sign * mult * tol for sign, mult in offsets])
    spec = PlantedSpectrum(energies=np.array([level]), e_min=level, e_max=level)
    assert measure_bins(spec, energies) == single_level_reference(level, energies)


def test_band_label_formatting():
    assert band_label(1 / 16) == "1/16"
    assert band_label(0.75) == "3/4"
    assert band_label(1.0) == "1"


# ---------------------------------------------------------------------------
# gauge transform


def test_gauge_transform_preserves_full_spectrum():
    from plantbench import brute_force

    ps = generate_orthogonal_patterns(8, 3, seed=5, dw=0.1)
    inst = build_couplings(ps)
    flipped = gauge_transform(inst, [0, 3, 4])
    base = brute_force(inst, full_spectrum=True).energy_multiset
    moved = brute_force(flipped, full_spectrum=True).energy_multiset
    np.testing.assert_array_equal(base, moved)


def test_gauge_transform_moves_patterns_consistently():
    ps = catalogue_pattern_set("b")
    inst = build_couplings(ps)
    flipped = gauge_transform(inst, [1, 2])
    fps = flipped.pattern_set
    for m in range(ps.k):
        assert qubo_energy(flipped, fps.patterns[m]) == pytest.approx(
            float(inst.spectrum.energies[m]), rel=1e-12
        )


def test_gauge_transform_rejects_out_of_range_site():
    inst = build_couplings(catalogue_pattern_set("a"))
    with pytest.raises(ValidationError):
        gauge_transform(inst, [8])


@pytest.mark.parametrize("flips, message", [
    ([-1], "flip index outside instance"),
    ([2**70], "flip index outside instance"),
    # 1.5 and True used to flip site 1
    ([1.5], "flip index must be an integer, got 1.5"),
    ([True], "flip index must be an integer, got True"),
    (np.array([0.0]), "flip index must be an integer, got np.float64(0.0)"),
])
def test_gauge_transform_rejects_non_integer_and_outside_sites(flips, message):
    inst = build_couplings(catalogue_pattern_set("a"))
    with pytest.raises(ValidationError, match=re.escape(message)):
        gauge_transform(inst, flips)
    assert gauge_transform(inst, np.array([1, 2])).pattern_set.patterns[0, 1] == -1

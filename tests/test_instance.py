"""Pattern construction, catalogue geometry, the Hebb rule, file I/O."""

import hashlib
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantbench import (
    CATALOGUE,
    Instance,
    OutcomeClassifier,
    PatternSet,
    ValidationError,
    brute_force,
    build_couplings,
    catalogue_pattern_set,
    coarse_grain,
    SolverConfig,
    gauge_transform,
    generate_orthogonal_patterns,
    generate_small_scale,
    hamming_distances,
    histogram,
    initial_states,
    load_instance,
    make_pattern_set,
    max_eigenvalue,
    measure_bins,
    perturb_patterns,
    planted_spectrum,
    qubo_energy,
    qubo_energy_many,
    run_batch,
    save_instance,
    shared_sign_coordinate,
    trajectory,
)
from plantbench import instance

CATALOGUE_IDS = ("a", "b", "b*", "c", "d", "e", "f")


# ---------------------------------------------------------------------------
# orthogonal construction


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_generated_patterns_are_orthogonal(log_n, seed, data):
    n = 2**log_n
    k = data.draw(st.integers(min_value=1, max_value=n))
    ps = generate_orthogonal_patterns(n, k, seed=seed)
    gram = ps.patterns.astype(np.int64) @ ps.patterns.astype(np.int64).T
    assert np.array_equal(gram, n * np.eye(k, dtype=np.int64))
    assert ps.is_orthogonal()


def test_generated_patterns_entries_and_weights():
    ps = generate_orthogonal_patterns(16, 5, seed=3, w0=1.0, dw=0.01)
    assert ps.patterns.shape == (5, 16)
    assert np.isin(ps.patterns, (-1, 1)).all()
    expected = 1.0 + 0.01 * np.arange(1, 6)
    np.testing.assert_allclose(ps.weights, expected, rtol=0, atol=1e-15)


def test_generation_is_deterministic_per_seed():
    a = generate_orthogonal_patterns(32, 6, seed=11)
    b = generate_orthogonal_patterns(32, 6, seed=11)
    c = generate_orthogonal_patterns(32, 6, seed=12)
    assert np.array_equal(a.patterns, b.patterns)
    assert not np.array_equal(a.patterns, c.patterns)


@pytest.mark.parametrize("bad_n", [0, 3, 6, 12, 100])
def test_non_power_of_two_rejected(bad_n):
    with pytest.raises(ValidationError, match=f"power of two >= 2, got {bad_n}"):
        generate_orthogonal_patterns(bad_n, 2, seed=0)


def test_too_many_patterns_rejected():
    with pytest.raises(ValidationError, match="at most n=8 mutually orthogonal patterns"):
        generate_orthogonal_patterns(8, 9, seed=0)


@pytest.mark.parametrize("k", [0, -3])
def test_pattern_count_below_one_rejected(k):
    # a non-positive count gets its own message, not the capacity one
    with pytest.raises(ValidationError, match="k must be >= 1"):
        generate_orthogonal_patterns(16, k, seed=0)


def test_negative_seed_rejected():
    # numpy's ValueError used to escape from default_rng
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        generate_orthogonal_patterns(16, 2, seed=-1)


# a float n or k used to raise a TypeError from n & (n - 1) or a slice,
# and a float seed numpy's TypeError
@pytest.mark.parametrize("n, k, seed, message", [
    (8.0, 2, 0, "n must be an integer, got 8.0"),
    (True, 1, 0, "n must be an integer, got True"),
    (8, 2.0, 0, "k must be an integer, got 2.0"),
    (8, 2, 1.5, "seed must be an integer, got 1.5"),
    (8, 2, None, "seed must be an integer, got None"),
])
def test_non_integer_arguments_rejected(n, k, seed, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        generate_orthogonal_patterns(n, k, seed)


def test_numpy_integer_arguments_accepted():
    ps = generate_orthogonal_patterns(np.int64(8), np.int32(3), np.uint8(5))
    assert np.array_equal(ps.patterns, generate_orthogonal_patterns(8, 3, 5).patterns)
    assert ps.generator == ("hadamard", 5)


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Every generator bit is part of the contract: sweep-k rebuilds its
# instances from seeds, and load_instance rebuilds patterns from a saved
# "generator: hadamard <seed>" line.  The digests below pin the patterns
# for k in {1, n/2, n-1, n} at seeds 0 and 7.
@pytest.mark.parametrize("n, digest", [
    (2, "0b02685b2210b64339566b579fe3068c"),
    (4, "c418a2c07205a02d5d1c35ec879c4bb1"),
    (8, "77cbd7a8c8212b2982c5973010eba01e"),
    (64, "e5ddfbeb5d9b2437fbb0b280793f791d"),
    (1024, "f99b8e05a449577d8768159204be858a"),
])
def test_generator_bits_are_pinned(n, digest):
    ks = sorted({1, n // 2, n - 1, n})
    assert _digest(generate_orthogonal_patterns(n, k, seed).patterns
                   for k in ks for seed in (0, 7)) == digest


# at n = 4 and 8 a random GF(2) map is often singular and redrawn, so
# these pin the redraw rule along with the rest
@pytest.mark.parametrize("n, digest", [
    (4, "4ddb5fdafd0dfa97e0844ccfa8b632b1"),
    (8, "b8ff3ee090b5e64dd43ba91f78d9ba41"),
])
def test_generator_bits_are_pinned_over_many_seeds(n, digest):
    assert _digest(generate_orthogonal_patterns(n, n - 1, seed).patterns
                   for seed in range(500)) == digest


# the row order is greedy, so a set needs only its first k picks: at
# n = 65536 the whole order took most of a minute, its first two picks
# take milliseconds; the digest was recorded from the whole order
def test_generator_bits_are_pinned_at_a_large_n():
    start = time.perf_counter()
    ps = generate_orthogonal_patterns(65536, 2, 0)
    assert time.perf_counter() - start < 5.0
    assert _digest([ps.patterns]) == "0a913e69f1ae4a25384701796648477a"


@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_row_order_prefixes_agree(n):
    whole = instance._row_selection_chain(n, n)
    assert sorted(whole) == list(range(1, n))
    for k in range(1, n + 1):
        assert instance._row_selection_chain(n, k) == whole[:k]


def test_an_n_whose_coupling_matrix_numpy_cannot_allocate_is_rejected():
    with pytest.raises(ValidationError, match="n=4611686018427387904 is too large"):
        generate_orthogonal_patterns(2**62, 2, 0)


def test_catalogue_bits_are_pinned():
    sets = [catalogue_pattern_set(i) for i in sorted(CATALOGUE)]
    assert len(sets) == 7
    assert (_digest(a for ps in sets for a in (ps.patterns, ps.weights))
            == "7bd595e2c3a968bdcdcb2885a1003dd7")


def test_gram_products_exact_at_full_load():
    # n = K = 1024: the float64 Gram products of +-1 rows are exact integers
    ps = generate_orthogonal_patterns(1024, 1024, seed=1)
    assert ps.is_orthogonal() is True
    assert np.array_equal(ps.gram(), 1024 * np.eye(1024))
    dist = hamming_distances(ps)
    assert dist.dtype == np.int64
    assert np.array_equal(dist, 512 * (1 - np.eye(1024, dtype=np.int64)))
    broken = ps.patterns.copy()
    broken[0, 0] = -broken[0, 0]
    assert make_pattern_set(broken).is_orthogonal() is False


# ---------------------------------------------------------------------------
# catalogue


def test_catalogue_distance_matrices_are_realised():
    for ident in CATALOGUE_IDS:
        ps = catalogue_pattern_set(ident)
        want = np.array(CATALOGUE[ident][0])
        assert np.array_equal(hamming_distances(ps), want), ident
        assert np.array_equal(ps.patterns[0], np.ones(8, dtype=np.int8))


def test_catalogue_weight_ladders():
    ps = catalogue_pattern_set("c")
    np.testing.assert_allclose(ps.weights, [1.1, 1.2, 1.3], atol=1e-15)
    # (e) plants the last pattern heaviest: formula ladder reversed
    ps_e = catalogue_pattern_set("e")
    np.testing.assert_allclose(ps_e.weights, [0.61, 0.74, 0.87], atol=1e-15)
    ps_lit = catalogue_pattern_set("e", literal_weights=True)
    np.testing.assert_allclose(ps_lit.weights, [0.87, 0.74, 0.61], atol=1e-15)


# a non-bool literal_weights used to be accepted by its truth value
@pytest.mark.parametrize("flag", ["x", 1, None])
def test_catalogue_literal_weights_must_be_a_bool(flag):
    with pytest.raises(ValidationError, match="literal_weights must be a bool"):
        catalogue_pattern_set("c", literal_weights=flag)


def test_catalogue_dw_override():
    ps = catalogue_pattern_set("c", dw=0.4)
    np.testing.assert_allclose(ps.weights, [1.4, 1.8, 2.2], atol=1e-15)


def test_unknown_catalogue_id():
    with pytest.raises(ValidationError):
        catalogue_pattern_set("z")


# ---------------------------------------------------------------------------
# the Hebb rule


def test_hebb_rule_hand_case():
    # two orthogonal 2-vectors: J_12 = w1*1*1 + w2*1*(-1) = w1 - w2
    ps = make_pattern_set(np.array([[1, 1], [1, -1]]), w0=1.0, dw=0.1)
    inst = build_couplings(ps)
    assert inst.coupling[0, 0] == 0.0 and inst.coupling[1, 1] == 0.0
    assert inst.coupling[0, 1] == pytest.approx(1.1 - 1.2, abs=1e-15)
    assert inst.coupling[1, 0] == inst.coupling[0, 1]


def test_coupling_matrix_structure():
    ps = generate_orthogonal_patterns(64, 7, seed=5, dw=0.003)
    inst = build_couplings(ps)
    assert np.array_equal(inst.coupling, inst.coupling.T)
    assert np.all(np.diag(inst.coupling) == 0.0)
    assert not inst.coupling.flags.writeable


def test_instance_size_is_read_off_the_coupling():
    # an Instance used to take n=5 next to an 8 x 8 coupling block
    inst = Instance(coupling=np.zeros((8, 8)), pattern_set=None, label="z")
    assert inst.n == 8


# each used to be accepted when made, and then fail inside run_batch or
# brute_force, or (asymmetric) run with a quietly symmetrised energy;
# fields override pattern_set=None and label="z"
@pytest.mark.parametrize("coupling, fields, message", [
    (np.zeros((3, 4)), {}, r"must be square, got shape \(3, 4\)"),
    (np.zeros((2, 2, 2)), {}, "must be square"),
    (np.array([[0.0, np.nan], [np.nan, 0.0]]), {},
     "z: couplings or planted energies are not finite"),
    (np.array([[0.0, 1.0], [0.5, 0.0]]), {}, "coupling matrix is not symmetric"),
    (np.eye(2), {}, "coupling diagonal must be zero"),
    (np.zeros((4, 4)), {"pattern_set": catalogue_pattern_set("c")},
     "pattern set and instance dimensions differ"),
    # these used to escape as ValueError and OverflowError
    ("abc", {}, "coupling must be an array of real numbers"),
    ([[0, 10**400], [10**400, 0]], {}, "coupling must be an array of real numbers"),
    # this used to escape as AttributeError
    (np.zeros((2, 2)), {"pattern_set": "x"}, "pattern_set must be a PatternSet or None, got str"),
    # save_instance used to fail on the first; the others saved and loaded,
    # though coarse_grain takes no such step
    (np.zeros((2, 2)), {"coarse_delta": "abc"}, "step must be positive and finite, got 'abc'"),
    (np.zeros((2, 2)), {"coarse_delta": -1.0}, "step must be positive and finite, got -1.0"),
    (np.zeros((2, 2)), {"coarse_delta": 0}, "step must be positive and finite, got 0"),
    # used to save a file that load_instance rejects ("key 'n' repeated")
    (np.zeros((2, 2)), {"label": "t\nn: 3"}, "label must be text on one line"),
    (np.zeros((2, 2)), {"label": None}, "label must be text on one line, got None"),
], ids=["3x4", "3d", "nan", "asymmetric", "diagonal", "pattern-n", "text", "int-overflow",
        "pattern-set-text", "coarse-text", "coarse-negative", "coarse-zero",
        "label-line-break", "label-none"])
def test_instance_rejects_what_is_no_coupling_matrix(coupling, fields, message):
    with pytest.raises(ValidationError, match=message):
        Instance(**{"coupling": coupling, "pattern_set": None, "label": "z", **fields})


@pytest.mark.parametrize("patterns, weights, perturbations, message", [
    (np.ones(4), np.ones(1), None, r"patterns must be a \(k, n\) matrix"),
    (np.ones((0, 4)), np.ones(0), None, "need at least one pattern"),
    (np.array([[1, 2], [1, -1]]), np.ones(2), None, r"pattern entries must be \+1 or -1"),
    (np.ones((2, 4)), np.ones(3), None, r"weights must have shape \(2,\)"),
    (np.ones((2, 4)), np.ones(2), np.ones((2, 3)), r"perturbations must have shape \(2, 4\)"),
    # these used to escape as ValueError
    (np.ones((2, 4)), "abc", None, "weights must be an array of real numbers"),
    (np.ones((2, 4)), np.ones(2), "abc", "perturbations must be an array of real numbers"),
], ids=["1d", "k0", "entry-2", "weights-shape", "perturbations-shape", "weights-text",
        "perturbations-text"])
def test_pattern_set_rejects_malformed_fields(patterns, weights, perturbations, message):
    with pytest.raises(ValidationError, match=message):
        PatternSet(patterns, weights, perturbations)


# The array gate (instance._reals): every array the library is handed is
# converted there, and a ragged nesting, text, complex entries or an int
# past float range raise ValidationError naming the array.  These used to
# escape as numpy's ValueError or TypeError, convert numeric text, or turn
# complex entries into their real parts with only a ComplexWarning.
_PS = catalogue_pattern_set("c")
_INST = build_couplings(_PS)
_CFG = SolverConfig(kind="I", alpha=1.0, beta=1.0, dt=0.1, max_steps=10)
_GATED = {
    "instance-coupling": ((8, 8), "coupling", lambda a: Instance(a, None, "z")),
    "patterns": ((3, 8), "patterns", lambda a: PatternSet(a, np.ones(3))),
    "make-pattern-set": ((3, 8), "patterns", make_pattern_set),
    "weights": ((3,), "weights", lambda a: PatternSet(_PS.patterns, a)),
    "perturbations": ((3, 8), "perturbations", lambda a: PatternSet(_PS.patterns, np.ones(3), a)),
    "qubo-energy-coupling": ((8, 8), "coupling", lambda a: qubo_energy(a, np.ones(8))),
    "qubo-energy-state": ((8,), "state", lambda a: qubo_energy(_INST, a)),
    "qubo-energy-many": ((3, 8), "states", lambda a: qubo_energy_many(_INST, a)),
    "brute-force": ((8, 8), "coupling", brute_force),
    "max-eigenvalue": ((8, 8), "coupling", max_eigenvalue),
    "classify": ((8,), "state",
                 lambda a: OutcomeClassifier(_PS, _INST.spectrum).classify(a, 0.0)),
    "measure-bins": ((3,), "energies", lambda a: measure_bins(_INST.spectrum, a)),
    "run-batch": ((3, 8), "initial block", lambda a: run_batch(_INST, _CFG, a)),
    "trajectory": ((8,), "initial state", lambda a: trajectory(_INST, _CFG, a)),
    "histogram": ((3,), "energies", histogram),
}


def _malformed(kind, shape):
    if kind == "ragged":  # the last row, or entry, is one entry too long
        nested = np.ones(shape).tolist()
        nested[-1] = nested[-1] + [1.0] if len(shape) == 2 else [1.0, 1.0]
        return nested
    fill = {"text": "a", "numeric-text": "1", "complex": 1 + 0j, "int-overflow": 10**400}[kind]
    return np.full(shape, fill, dtype=object if kind == "int-overflow" else None)


@pytest.mark.parametrize("kind", ["ragged", "text", "numeric-text", "complex", "int-overflow"])
@pytest.mark.parametrize("site", list(_GATED))
def test_every_gated_array_refuses_what_is_no_real_array(site, kind):
    shape, what, call = _GATED[site]
    with pytest.raises(ValidationError, match=f"^{what} must be an array of real numbers$"):
        call(_malformed(kind, shape))


# measure_bins used to count a NaN in band 1 and flatten a 2-D block,
# histogram to take a 2-D block, and classify to label a row outside its
# table by a NaN energy (spurious)
_MISS = np.array([-1, 1, 1, 1, 1, 1, 1, 1], dtype=np.int8)


@pytest.mark.parametrize("call, message", [
    (lambda: measure_bins(_INST.spectrum, [np.nan]), "without NaN"),
    (lambda: measure_bins(_INST.spectrum, [[1.0]]), r"1-D array without NaN, got shape \(1, 1\)"),
    (lambda: histogram([[1.0]]), r"1-D array of energies, got shape \(1, 1\)"),
    (lambda: OutcomeClassifier(_PS, _INST.spectrum).classify(_MISS, np.nan),
     "energy must be a real number, not NaN, got nan"),
    (lambda: OutcomeClassifier(_PS, _INST.spectrum).classify(_MISS, "a"),
     "energy must be a real number, not NaN, got 'a'"),
], ids=["measure-nan", "measure-2d", "histogram-2d", "classify-nan", "classify-text"])
def test_energies_must_be_one_dimensional_and_real(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


def test_classify_reads_no_energy_on_a_table_hit():
    row = _PS.patterns[0]
    assert OutcomeClassifier(_PS, _INST.spectrum).classify(row, np.nan).category == "planted"


@pytest.mark.parametrize("a", [
    [[0, 1], [1, 0]],
    [[0.0, -2.5], [-2.5, 0.0]],
    [[False, True], [True, False]],
    np.array([[0, 3], [3, 0]], dtype=np.int8),
    np.array([[0.1, 0.2]], dtype=np.float32),
    [[0, 2**70], [2**70, 0]],
    np.array([2**70, -1], dtype=object),
    [1, 2**63],
], ids=["ints", "floats", "bools", "int8", "float32", "int-2**70", "object-2**70", "past-int64"])
@pytest.mark.parametrize("dtype", [None, np.float64])
def test_the_gate_converts_real_arrays_as_numpy_does(a, dtype):
    got = instance._reals(a, "x", dtype)
    want = np.asarray(a, dtype=dtype)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    if isinstance(a, np.ndarray) and dtype in (None, a.dtype):
        assert got is a  # an array in the asked dtype is not copied


def test_pattern_set_and_instance_store_read_only_arrays():
    patterns = np.array([[1, 1], [1, -1]])
    weights = np.array([1.0, 2.0])
    ps = PatternSet(patterns, weights, np.zeros((2, 2)))
    assert ps.perturbations is None and not ps.is_perturbed()
    perturbed = PatternSet(patterns, weights, [[0.0, 0.5], [0.0, 0.0]])
    # the Hebb coupling of ps: J_12 = 1*1*1 + 2*1*(-1)
    coupling = np.array([[0.0, -1.0], [-1.0, 0.0]])
    inst = Instance(coupling=coupling, pattern_set=ps, label="z")
    assert ps.patterns.dtype == np.int8 and perturbed.perturbations.dtype == np.float64
    for stored in (ps.patterns, ps.weights, perturbed.perturbations, inst.coupling):
        assert not stored.flags.writeable
    # the caller's own arrays stay writable
    assert weights.flags.writeable and coupling.flags.writeable


# ---------------------------------------------------------------------------
# planted spectrum


def _saved_and_loaded(inst, path):
    save_instance(inst, path)
    return load_instance(path)


@pytest.mark.parametrize("make", [
    lambda tmp: build_couplings(catalogue_pattern_set("c")),
    lambda tmp: build_couplings(perturb_patterns(catalogue_pattern_set("c"), [(0, 1, -0.7)])),
    lambda tmp: coarse_grain(build_couplings(catalogue_pattern_set("a")), 0.5),
    lambda tmp: _saved_and_loaded(generate_small_scale("d"), tmp / "dense.inst"),
    lambda tmp: _saved_and_loaded(build_couplings(_n128()), tmp / "rebuild.inst"),
    lambda tmp: _saved_and_loaded(coarse_grain(build_couplings(_n128()), 0.5),
                                  tmp / "coarse.inst"),
    lambda tmp: gauge_transform(build_couplings(_n128()), [0, 5, 17]),
    lambda tmp: gauge_transform(coarse_grain(build_couplings(_n128()), 0.5), [0, 5, 17]),
    lambda tmp: replace(generate_small_scale("c"), label="relabelled"),
    lambda tmp: replace(generate_small_scale("c"), pattern_set=None),
    lambda tmp: Instance(coupling=generate_small_scale("b").coupling,
                         pattern_set=catalogue_pattern_set("b"), label="direct"),
    lambda tmp: Instance(coupling=np.zeros((8, 8)), pattern_set=None, label="bare"),
], ids=["build", "build-perturbed", "coarse", "load-dense", "load-rebuild",
        "load-coarse-rebuild", "gauge", "gauge-coarse", "replace-label", "replace-no-patterns",
        "direct", "direct-bare"])
def test_every_instance_computes_its_planted_spectrum(tmp_path, make):
    # the spectrum used to be an argument: only the builders filled it in
    inst = make(tmp_path)
    if inst.pattern_set is None:
        assert inst.spectrum is None
        return
    want = planted_spectrum(inst.pattern_set, inst)
    assert inst.spectrum.energies.tobytes() == want.energies.tobytes()
    assert (inst.spectrum.e_min, inst.spectrum.e_max) == (want.e_min, want.e_max)


@pytest.mark.parametrize("make", [
    lambda: build_couplings(_n128()),
    lambda: coarse_grain(build_couplings(_n128()), 0.5),
    lambda: build_couplings(perturb_patterns(catalogue_pattern_set("c"), [(0, 1, -0.7)])),
], ids=["closed-form", "coarse", "perturbed"])
def test_gauge_transform_keeps_planted_energies_bit_for_bit(make):
    # the transformed instance recomputes its spectrum; flipping signs is exact
    inst = make()
    flipped = gauge_transform(inst, [0, 5, 7])
    assert flipped.spectrum.energies.tobytes() == inst.spectrum.energies.tobytes()


def test_spectrum_is_no_argument():
    inst = generate_small_scale("c")
    with pytest.raises(TypeError):
        Instance(coupling=inst.coupling, pattern_set=None, spectrum=None, label="z")
    with pytest.raises(ValueError):
        replace(inst, spectrum=inst.spectrum)


def test_scaled_and_direct_instances_score_against_their_own_energies():
    # replacing the coupling used to keep the stored range (-29.6, -23.2)
    # of catalogue c, so every run on 2 J fell below it
    inst = generate_small_scale("c")
    scaled = replace(inst, coupling=2 * inst.coupling)
    assert scaled.spectrum.e_min == pytest.approx(-59.2)
    assert scaled.spectrum.e_max == pytest.approx(-46.4)
    # a directly made instance used to carry no spectrum, so its runs
    # were all unlabelled
    direct = Instance(coupling=inst.coupling, pattern_set=inst.pattern_set, label="direct")
    seeds = np.arange(20)
    cfg = SolverConfig(kind="I", alpha=3.0, max_steps=200)
    labels = [o.label.category for o in run_batch(
        direct, cfg, initial_states(direct.n, cfg.init_amplitude, seeds))]
    assert "unlabelled" not in labels and "planted" in labels


# ---------------------------------------------------------------------------
# perturbations


def test_perturbation_sets_and_clears_entries():
    ps = catalogue_pattern_set("c")
    pert = perturb_patterns(ps, [(0, 1, -2.0)])
    assert pert.perturbations[0, 1] == -2.0
    assert pert.effective_patterns()[0, 1] == pytest.approx(-1.0)
    cleared = perturb_patterns(pert, [(0, 1, 0.0)])
    assert not cleared.is_perturbed()


def test_perturbation_bounds_checked():
    ps = catalogue_pattern_set("c")
    with pytest.raises(ValidationError):
        perturb_patterns(ps, [(3, 0, -1.0)])
    with pytest.raises(ValidationError):
        perturb_patterns(ps, [(0, 8, -1.0)])


# a bool index used to edit pattern 1 silently, and the others escaped as
# numpy's IndexError or an unpacking or float ValueError
@pytest.mark.parametrize("edit, message", [
    ((True, 1, 0.1), "edit pattern index must be an integer, got True"),
    ((0.5, 1, 0.1), "edit pattern index must be an integer, got 0.5"),
    ((0, np.float64(1.0), 0.1), "edit coordinate index must be an integer, got"),
    ((0, 1, "x"), "edit delta must be a real number, got 'x'"),
    ((0, 1, False), "edit delta must be a real number, got False"),
    ((0, 1), "an edit must be (pattern index, coordinate index, delta), got (0, 1)"),
    ((0, 1, 0.1, 0.2), "an edit must be (pattern index, coordinate index, delta)"),
    (5, "an edit must be (pattern index, coordinate index, delta), got 5"),
])
def test_perturbation_edits_are_checked(edit, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        perturb_patterns(catalogue_pattern_set("c"), [edit])


# edits that are not a list used to escape as TypeError: 'int' object is
# not iterable
def test_perturbation_edits_must_be_a_list():
    with pytest.raises(ValidationError, match="edits must be a list of edits, got 5"):
        perturb_patterns(catalogue_pattern_set("c"), 5)


def test_perturbation_accepts_numpy_indices_and_leaves_nan_to_the_instance():
    ps = perturb_patterns(catalogue_pattern_set("c"), [(np.int64(1), np.uint8(2), np.nan)])
    assert np.isnan(ps.perturbations[1, 2])
    with pytest.raises(ValidationError, match="couplings or planted energies are not finite"):
        build_couplings(ps)


# each used to escape as numpy's UFuncTypeError or a TypeError
@pytest.mark.parametrize("make, message", [
    (lambda: make_pattern_set(np.ones((2, 4)), w0="x"), "w0 must be a real number, got 'x'"),
    (lambda: make_pattern_set(np.ones((2, 4)), dw=None), "dw must be a real number, got None"),
    (lambda: make_pattern_set(np.ones((2, 4)), w0=True), "w0 must be a real number, got True"),
    (lambda: generate_orthogonal_patterns(8, 2, 0, w0="x"), "w0 must be a real number"),
    (lambda: generate_orthogonal_patterns(8, 2, 0, dw=[0.1]), "dw must be a real number"),
    (lambda: catalogue_pattern_set("c", dw="x"), "dw must be a real number, got 'x'"),
    (lambda: catalogue_pattern_set("c", dw=False), "dw must be a real number, got False"),
])
def test_ladder_parameters_must_be_real_numbers(make, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("w0, dw", [(np.inf, 0.0), (1.0, np.nan), (1e308, 1e308)])
def test_a_ladder_that_is_not_finite_is_left_to_the_instance(w0, dw):
    ps = make_pattern_set(np.ones((2, 4)), w0=w0, dw=dw)
    with pytest.raises(ValidationError, match="couplings or planted energies are not finite"):
        build_couplings(ps)


def test_shared_sign_coordinate_is_shared():
    for ident in ("a", "b", "b*", "c", "d", "e"):
        ps = catalogue_pattern_set(ident)
        col = ps.patterns[:, shared_sign_coordinate(ps)]
        assert np.all(col == col[0]), ident


def test_equidistant_patterns_share_no_coordinate():
    with pytest.raises(ValidationError):
        shared_sign_coordinate(catalogue_pattern_set("f"))


# ---------------------------------------------------------------------------
# coarse graining


def test_coarse_grain_quantises_with_floor():
    ps = catalogue_pattern_set("a")
    inst = build_couplings(ps)
    coarse = coarse_grain(inst, 0.5)
    expect = np.floor(inst.coupling / 0.5)
    expect = np.triu(expect, k=1) + np.triu(expect, k=1).T
    np.testing.assert_array_equal(coarse.coupling, expect)
    assert coarse.coarse_delta == 0.5
    assert np.all(np.diag(coarse.coupling) == 0.0)


def test_coarse_grain_rejects_nonpositive_step():
    inst = build_couplings(catalogue_pattern_set("a"))
    # a non-finite step used to pass and write an unloadable instance
    for step in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="positive and finite"):
            coarse_grain(inst, step)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coarse_grain_without_patterns_checks_finiteness():
    # a matrix without a pattern set used to come back with inf couplings
    inst = replace(build_couplings(catalogue_pattern_set("c")), pattern_set=None)
    with pytest.raises(ValidationError, match="not finite"):
        coarse_grain(inst, 1e-320)
    assert coarse_grain(inst, 0.5).spectrum is None


# ---------------------------------------------------------------------------
# file round trips


def test_instance_round_trip(tmp_path):
    ps = generate_orthogonal_patterns(16, 3, seed=21, dw=0.01)
    inst = build_couplings(ps)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.coupling, inst.coupling)
    assert back.n == inst.n
    assert back.label == inst.label
    bps = back.pattern_set
    assert bps is not None
    assert np.array_equal(bps.patterns, ps.patterns)
    np.testing.assert_array_equal(bps.weights, ps.weights)
    # a label's outer spaces used to be stripped on load
    for label in (" t ", ""):
        save_instance(replace(inst, label=label), path)
        assert load_instance(path).label == label


# a non-instance used to escape as AttributeError: 'str' object has no
# attribute 'pattern_set'; it is rejected before any file is opened
def test_save_instance_rejects_a_non_instance(tmp_path):
    path = tmp_path / "x.inst"
    with pytest.raises(ValidationError, match="inst must be an Instance, got str"):
        save_instance("x", path)
    assert not path.exists()


def test_perturbed_instance_round_trip(tmp_path):
    ps = perturb_patterns(catalogue_pattern_set("c"), [(0, 1, -0.7)])
    inst = build_couplings(ps)
    path = tmp_path / "pert.txt"
    save_instance(inst, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.coupling, inst.coupling)
    np.testing.assert_array_equal(back.pattern_set.perturbations, ps.perturbations)


def _n128():
    return generate_orthogonal_patterns(128, 5, seed=3, dw=0.01)


@pytest.mark.parametrize("make, dense", [
    (lambda: build_couplings(_n128()), False),
    (lambda: coarse_grain(build_couplings(_n128()), 0.5), False),
    # this used to reload as its Hebb rebuild, off by up to 1.0
    (lambda: gauge_transform(coarse_grain(build_couplings(_n128()), 0.5), [0, 5, 17]),
     True),
], ids=["hebb", "hebb-coarse", "gauge"])
def test_round_trip_above_the_dense_limit(tmp_path, make, dense):
    # above n = 64 the coupling block is written only when the Hebb
    # rebuild from the pattern set would not reproduce it bit for bit
    inst = make()
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    assert ("coupling:" in path.read_text().splitlines()) is dense
    back = load_instance(path)
    assert back.coupling.tobytes() == inst.coupling.tobytes()
    assert back.coarse_delta == inst.coarse_delta


def test_external_instance_round_trip(tmp_path):
    # a bare matrix is an instance without a pattern set: always dense
    built = build_couplings(catalogue_pattern_set("d"))
    inst = replace(built, pattern_set=None)
    path = tmp_path / "external.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.coupling.tobytes() == inst.coupling.tobytes()
    assert back.pattern_set is None and back.spectrum is None
    assert back.label == inst.label


def _external(text):
    """An external instance file of size 2 with the given coupling rows."""
    return "format_version: 1\nlabel: ext\nn: 2\nseed: 0\ncoupling:\n" + text


def test_load_rejects_asymmetric_matrix(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(_external("0.0 1.0\n0.5 0.0\n"))
    with pytest.raises(ValidationError, match="not symmetric"):
        load_instance(path)


def _catalogue_c_lines(tmp_path):
    path = tmp_path / "c.txt"
    save_instance(build_couplings(catalogue_pattern_set("c")), path)
    return path.read_text().splitlines()


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _set_coupling(lines, i, j, token):
    """Replace entry (i, j) of the dense coupling block."""
    row = _first(lines, "coupling:") + 1 + i
    tokens = lines[row].split()
    tokens[j] = token
    lines[row] = " ".join(tokens)


def _drop_last_coupling_entry(lines):
    row = _first(lines, "coupling:") + 1
    lines[row] = lines[row].rsplit(" ", 1)[0]


def _replace_line(prefix, new):
    def edit(lines):
        lines[_first(lines, prefix)] = new
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_replace_line("n:", "n: abc"), "n must be an integer"),
        (_replace_line("pattern:", "pattern: 1 1 1 x 1 1 1 1"), "pattern entry"),
        (_replace_line("pattern:", "pattern: 1 1 1 300 1 1 1 1"), r"\+1 or -1"),
        (lambda lines: _set_coupling(lines, 0, 1, "x"), "coupling entry"),
        (_drop_last_coupling_entry, "coupling rows"),
        (lambda lines: (_set_coupling(lines, 0, 1, "nan"), _set_coupling(lines, 1, 0, "nan")),
         "coupling entry must be finite"),
        # a missing weights line used to load a flat ladder, w0 = 1 and dw = 0
        (lambda lines: lines.pop(_first(lines, "weights:")), "declares k but no weights"),
        # a misspelt key used to be dropped: an empty label, or no coarse-graining
        (_replace_line("label:", "lable: small-c"), "unknown key 'lable'"),
        # a second label used to replace the first with exit 0
        (lambda lines: lines.insert(_first(lines, "label:") + 1, "label: second"),
         "key 'label' repeated"),
    ],
    ids=["n", "pattern-token", "pattern-overflow", "coupling-token", "coupling-ragged",
         "coupling-nan", "weights-missing", "unknown-key", "repeated-key"],
)
def test_load_instance_rejects_malformed_values(tmp_path, edit, message):
    # these used to escape as ValueError/OverflowError, and NaN as "not symmetric"
    lines = _catalogue_c_lines(tmp_path)
    edit(lines)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=message):
        load_instance(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.0 x\nx 0.0\n", "coupling entry"),
        ("0.0 1.0\n1.0\n", "coupling rows"),
        ("0.0 nan\nnan 0.0\n", "coupling entry must be finite"),
    ],
    ids=["token", "ragged", "nan"],
)
def test_load_instance_rejects_malformed_external_rows(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(_external(text))
    with pytest.raises(ValidationError, match=message):
        load_instance(path)


def test_load_instance_skips_retired_keys(tmp_path):
    # files written before seed, w0 and dw were dropped still load
    inst = build_couplings(catalogue_pattern_set("c"))
    lines = _catalogue_c_lines(tmp_path)
    at = _first(lines, "weights:")
    lines[at:at] = ["seed: 0", "w0: 1.0", "dw: 0.1"]
    path = tmp_path / "old.txt"
    path.write_text("\n".join(lines) + "\n")
    back = load_instance(path)
    assert back.coupling.tobytes() == inst.coupling.tobytes()
    assert back.pattern_set.weights.tobytes() == inst.pattern_set.weights.tobytes()
    assert back.label == inst.label


def test_load_instance_names_mismatched_planted_energies_as_plain_floats(tmp_path):
    path = tmp_path / "n8.txt"
    save_instance(build_couplings(generate_orthogonal_patterns(8, 2, seed=0)), path)
    lines = path.read_text().splitlines()
    _set_coupling(lines, 0, 1, "5.0")
    _set_coupling(lines, 1, 0, "5.0")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="disagree") as info:
        load_instance(path)
    # the message used to print np.float64(-24.0)
    assert "(pattern 2: -24.0 vs -19.0)" in str(info.value)


def test_load_instance_rejects_missing_path_and_directory(tmp_path):
    with pytest.raises(ValidationError, match="cannot read .*No such file"):
        load_instance(tmp_path / "nope.txt")
    with pytest.raises(ValidationError, match="cannot read .*Is a directory"):
        load_instance(tmp_path)

"""Pattern construction, catalogue geometry, coupling rules, file I/O."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantbench import (
    CATALOGUE,
    ValidationError,
    build_couplings,
    catalogue_pattern_set,
    coarse_grain,
    gauge_transform,
    generate_orthogonal_patterns,
    hamming_distances,
    load_instance,
    make_pattern_set,
    perturb_patterns,
    save_instance,
    shared_sign_coordinate,
)

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


def test_catalogue_dw_override():
    ps = catalogue_pattern_set("c", dw=0.4)
    np.testing.assert_allclose(ps.weights, [1.4, 1.8, 2.2], atol=1e-15)


def test_unknown_catalogue_id():
    with pytest.raises(ValidationError):
        catalogue_pattern_set("z")


# ---------------------------------------------------------------------------
# coupling rules


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


def test_pseudoinverse_matches_hebb_when_orthogonal():
    ps = generate_orthogonal_patterns(16, 4, seed=9, dw=0.05)
    plain = build_couplings(ps, rule="hebb")
    pinv = build_couplings(ps, rule="pseudoinverse")
    np.testing.assert_allclose(pinv.coupling, plain.coupling, atol=1e-10)


def test_pseudoinverse_pins_planted_energies_of_correlated_patterns():
    # overlapping (non-orthogonal) patterns: the overlap correction must
    # keep each pattern's energy at the closed-form ladder value
    patterns = np.array(
        [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, -1, -1, -1, 1],
            [1, -1, -1, 1, 1, 1, -1, 1],
        ]
    )
    ps = make_pattern_set(patterns, w0=1.0, dw=0.1)
    assert not ps.is_orthogonal()
    inst = build_couplings(ps, rule="pseudoinverse")
    n, w = ps.n, ps.weights
    want = -(w * n**2 - n * w.sum()) / 2.0
    got = np.array(
        [-0.5 * p @ inst.coupling @ p for p in patterns.astype(np.float64)]
    )
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_unknown_rule_rejected():
    ps = catalogue_pattern_set("a")
    with pytest.raises(ValidationError):
        build_couplings(ps, rule="projection")


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
    inst = replace(build_couplings(catalogue_pattern_set("c")), pattern_set=None,
                   spectrum=None)
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
    # these used to reload as their Hebb rebuild, off by up to 0.035 and 1.0
    (lambda: build_couplings(perturb_patterns(_n128(), [(0, 3, -0.4), (2, 9, 0.3)]),
                             rule="pseudoinverse"), True),
    (lambda: gauge_transform(coarse_grain(build_couplings(_n128()), 0.5), [0, 5, 17]),
     True),
], ids=["hebb", "hebb-coarse", "pseudoinverse", "gauge"])
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
    inst = replace(built, pattern_set=None, spectrum=None)
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

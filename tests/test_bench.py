"""Sweep harness: seeds, grids, factories, histograms, CSV emission."""

import re

import numpy as np
import pytest

from plantbench import (
    CataloguePerturbationFactory,
    CatalogueWeightStepFactory,
    EquidistantPerturbationFactory,
    SolverConfig,
    SweepSpec,
    TbmParams,
    ValidationError,
    brute_force,
    build_couplings,
    catalogue_pattern_set,
    coarse_grain,
    default_alpha_grid,
    derive_seed,
    derive_seeds,
    generate_orthogonal_patterns,
    histogram,
    perturb_patterns,
    qubo_energy,
    random_initial,
    run_batch,
    scan_transition,
    shared_sign_coordinate,
    sweep_k,
    sweep_sr,
    write_hist_csv,
    write_ksweep_csv,
    write_sidecar,
    write_sweep_csv,
)
from plantbench import bench
from plantbench.textio import _write_csv


# ---------------------------------------------------------------------------
# seeds and grids


def test_derive_seed_is_stable_and_bounded():
    a = derive_seed(0, 3, 17)
    assert a == derive_seed(0, 3, 17)
    assert 0 <= a < 2**63
    assert derive_seed(0, 3, 18) != a
    assert derive_seed(1, 3, 17) != a


def test_derive_seed_no_collisions_across_grid():
    seen = set()
    for point in range(500):
        for run in range(2000):
            seen.add(derive_seed(0, point, run))
    assert len(seen) == 500 * 2000


@pytest.mark.parametrize("parts", [(), (3,), (499,), ("solve",), ("instance", 48)])
@pytest.mark.parametrize("base", [0, 7, 2**40])
def test_derive_seeds_matches_derive_seed(base, parts):
    got = derive_seeds(base, *parts, count=1200)
    assert got.dtype == np.int64 and got.shape == (1200,)
    assert got.tolist() == [derive_seed(base, *parts, r) for r in range(1200)]
    assert derive_seeds(base, *parts, count=0).shape == (0,)


def test_default_alpha_grid_spans_and_is_logarithmic():
    grid = default_alpha_grid(10.0)
    assert len(grid) == 50
    assert grid[0] == pytest.approx(0.5)
    assert grid[-1] == pytest.approx(40.0)
    ratios = np.diff(np.log(np.array(grid)))
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    with pytest.raises(ValidationError):
        default_alpha_grid(0.0)


# ---------------------------------------------------------------------------
# sweep specification


@pytest.fixture(scope="module")
def inst_a():
    return build_couplings(catalogue_pattern_set("a"), label="small-a")


def test_spec_validation(inst_a):
    cfg = SolverConfig()
    with pytest.raises(ValidationError):
        SweepSpec(instance=inst_a, solver=cfg, axes=())
    with pytest.raises(ValidationError):
        SweepSpec(instance=inst_a, solver=cfg, axes=(("alpha", ()),))
    with pytest.raises(ValidationError):
        SweepSpec(instance=inst_a, solver=cfg,
                  axes=(("alpha", (1.0,)),), runs_per_point=0)
    # the CSV keys each row's cells by axis name
    with pytest.raises(ValidationError, match="axis names repeat"):
        SweepSpec(instance=inst_a, solver=cfg,
                  axes=(("alpha", (1.0,)), ("alpha", (2.0,))))


# each spec used to be accepted: alpha on the bifurcation machine and
# delta or xi0 on a relaxation solver changed nothing, so the sweep
# reported seed noise as a trend, and gamma and dxi failed only at the
# first grid point
@pytest.mark.parametrize("solver, axes", [
    (SolverConfig(kind="TBM", tbm=TbmParams()), (("alpha", (1.0, 2.0)),)),
    (SolverConfig(kind="I"), (("delta", (1.0, 2.0)),)),
    (SolverConfig(kind="III"), (("alpha", (1.0,)), ("xi0", (0.1, 0.2)))),
    (SolverConfig(kind="III"), (("gamma", (0.0, 0.1)),)),
    (SolverConfig(kind="I"), (("dxi", (-2.0, 0.0)), ("alpha", (1.0,)))),
], ids=["tbm-alpha", "class1-delta", "class3-xi0", "gamma", "dxi-on-fixed-instance"])
def test_spec_rejects_axes_the_solver_does_not_read(inst_a, monkeypatch, solver, axes):
    def never(*args, **kwargs):
        raise AssertionError("run_batch called")

    monkeypatch.setattr(bench, "run_batch", never)
    with pytest.raises(ValidationError, match=f"does not apply to solver kind {solver.kind}"):
        SweepSpec(instance=inst_a, solver=solver, axes=axes, runs_per_point=2)


# each used to be accepted: 2.5 raised TypeError inside derive_seeds,
# True wrote n_runs as True, base_seed 1.5 ran base 1's seeds under
# another spec_hash, and a NaN axis value diverged every run
@pytest.mark.parametrize("field, value, message", [
    ("runs_per_point", 2.5, "runs_per_point must be an integer >= 1"),
    ("runs_per_point", True, "runs_per_point must be an integer >= 1"),
    ("base_seed", 1.5, "base_seed must be an integer"),
    ("base_seed", True, "base_seed must be an integer"),
    ("axes", (("alpha", (1.0, float("nan"))),), "axis 'alpha' value must be finite"),
    ("axes", (("alpha", (1.0,)), ("beta", (float("inf"),))), "axis 'beta' value must be finite"),
])
def test_spec_checks_counts_seeds_and_axis_values(inst_a, field, value, message):
    given = {"axes": (("alpha", (1.0,)),), "runs_per_point": 2, "base_seed": 0, field: value}
    with pytest.raises(ValidationError, match=re.escape(message)):
        SweepSpec(instance=inst_a, solver=SolverConfig(), **given)
    spec = SweepSpec(instance=inst_a, solver=SolverConfig(), axes=(("alpha", (1.0,)),),
                     runs_per_point=np.int64(2), base_seed=np.int64(-3))
    assert spec.runs_per_point == 2 and spec.base_seed == -3


def test_spec_checks_factory_axis_values():
    with pytest.raises(ValidationError, match="axis 'dxi' value must be finite"):
        SweepSpec(instance=CataloguePerturbationFactory("c"), solver=SolverConfig(),
                  axes=(("dxi", (float("nan"),)), ("alpha", (1.0,))))


def test_spec_hash_tracks_content(inst_a):
    cfg = SolverConfig()
    base = SweepSpec(instance=inst_a, solver=cfg, axes=(("alpha", (1.0, 2.0)),))
    same = SweepSpec(instance=inst_a, solver=cfg, axes=(("alpha", (1.0, 2.0)),))
    other = SweepSpec(instance=inst_a, solver=cfg, axes=(("alpha", (1.0, 3.0)),))
    assert base.spec_hash() == same.spec_hash()
    assert base.spec_hash() != other.spec_hash()


def test_point_coords_row_major(inst_a):
    spec = SweepSpec(
        instance=inst_a,
        solver=SolverConfig(),
        axes=(("alpha", (1.0, 2.0)), ("beta", (0.5, 1.0, 2.0))),
    )
    assert spec.grid_shape == (2, 3)
    assert spec.point_coords(0) == (("alpha", 1.0), ("beta", 0.5))
    assert spec.point_coords(4) == (("alpha", 2.0), ("beta", 1.0))


# ---------------------------------------------------------------------------
# sweeps


def small_sweep(inst, runs=50, seed=5):
    return SweepSpec(
        instance=inst,
        solver=SolverConfig(kind="I", dt=0.1, max_steps=600),
        axes=(("alpha", (1.0, 3.0, 6.0, 12.0)),),
        runs_per_point=runs,
        base_seed=seed,
    )


def test_sweep_point_invariants(inst_a):
    result = sweep_sr(small_sweep(inst_a))
    assert len(result.points) == 4
    for point in result.points:
        assert point.n_runs == 50
        assert 0 <= point.hits <= 50
        assert point.sr == point.hits / 50
        labels = dict(point.label_counts)
        assert sum(labels.values()) == 50
        bands = dict(point.measure_counts)
        assert sum(bands.values()) == 50 - labels["diverged"]


def test_sweep_easy_instance_has_plateau(inst_a):
    result = sweep_sr(small_sweep(inst_a, runs=80))
    assert result.max_sr() == 1.0


def test_sweep_thread_count_does_not_change_results(inst_a):
    spec = small_sweep(inst_a, runs=30)
    serial = sweep_sr(spec, threads=1)
    parallel = sweep_sr(spec, threads=3)
    assert serial.spec.spec_hash() == parallel.spec.spec_hash()
    for a, b in zip(serial.points, parallel.points):
        assert a == b


def test_sweep_two_axes_shape(inst_a):
    spec = SweepSpec(
        instance=inst_a,
        solver=SolverConfig(kind="I", max_steps=300),
        axes=(("alpha", (2.0, 4.0)), ("beta", (0.5, 1.0, 1.5))),
        runs_per_point=20,
    )
    result = sweep_sr(spec)
    assert result.sr_grid.shape == (2, 3)
    assert [p.coords for p in result.points] == [spec.point_coords(i) for i in range(6)]


def test_hits_count_runs_ending_at_the_ground_energy(inst_a):
    cfg = SolverConfig(kind="I", alpha=3.0, max_steps=400)
    seeds = np.arange(80, dtype=np.int64)
    report = brute_force(inst_a)
    ground = report.ground_state
    x0 = np.vstack([random_initial(8, cfg.init_amplitude, int(s)) for s in seeds])
    spins = [o.final_spins for o in run_batch(inst_a, cfg, x0, seeds=seeds)]
    plain = sum(np.array_equal(s, ground) for s in spins)
    mirror = sum(np.array_equal(s, -ground) for s in spins)
    # (a) has one ground state, so the ground energy is hit by it and its mirror only
    assert report.degeneracy == 1 and plain > 0 and mirror > 0
    assert bench._run_point(inst_a, cfg, seeds, report.ground_energy)[3] == plain + mirror
    assert bench._run_point(inst_a, cfg, seeds, None)[3] == 0


def test_hits_count_every_state_of_a_degenerate_ground():
    # a flat ladder makes each of its three planted patterns a ground
    # state; matching one chosen state used to count about a third of them
    flat = build_couplings(generate_orthogonal_patterns(16, 3, seed=0, dw=0.0))
    assert brute_force(flat).degeneracy == 3
    spec = SweepSpec(instance=flat, solver=SolverConfig(kind="I"),
                     axes=(("alpha", (4.0,)),), runs_per_point=60)
    point = sweep_sr(spec).points[0]
    labels = dict(point.label_counts)
    assert point.hits == labels["planted"] + labels["mirror"] == 60


def test_ground_energy_brute_force_then_lowest_planted(inst_a, monkeypatch):
    # (a)'s planted ladder puts pattern 3 heaviest but its true ground
    # state is pattern 2
    assert bench._ground_energy(inst_a) == brute_force(inst_a).ground_energy
    assert inst_a.spectrum.ground_index == 1
    assert np.argmax(inst_a.pattern_set.weights) == 2
    big = build_couplings(generate_orthogonal_patterns(32, 4, seed=5, dw=0.01))
    # coarse-graining moves pattern 1 below the heaviest pattern 3
    coarse = coarse_grain(
        build_couplings(generate_orthogonal_patterns(32, 3, seed=0, dw=0.01)), 0.3
    )
    assert coarse.spectrum.ground_index == 0 and np.argmax(coarse.pattern_set.weights) == 2

    def no_brute_force(inst):
        raise AssertionError("brute force beyond its limit")

    # beyond the limit the lowest planted energy is the target
    monkeypatch.setattr(bench.oracle_mod, "brute_force", no_brute_force)
    for inst in (big, coarse):
        assert bench._ground_energy(inst) == inst.spectrum.e_min


# ---------------------------------------------------------------------------
# transition factories


def test_dxi_factory_endpoints():
    factory = CataloguePerturbationFactory("c")
    ps = catalogue_pattern_set("c")
    coord = shared_sign_coordinate(ps)
    plain = build_couplings(ps)
    at_zero = factory(0.0)
    np.testing.assert_array_equal(at_zero.coupling, plain.coupling)
    # -2 flips the shared coordinate of pattern 1 exactly
    flipped_ps = catalogue_pattern_set("c")
    flipped_patterns = flipped_ps.patterns.copy()
    flipped_patterns[0, coord] *= -1
    at_flip = factory(-2.0)
    eff = at_flip.pattern_set.effective_patterns()
    np.testing.assert_allclose(eff[0, coord], float(flipped_patterns[0, coord]))


def test_dxi_factory_scales_with_stored_sign():
    # the scan value is expressed for a +1 coordinate; a stored -1
    # coordinate must move toward +1 instead
    ps = catalogue_pattern_set("c")
    edit = bench._scaled_edit(ps, 1, 0, 1.0, -2.0)
    eff = perturb_patterns(ps, [edit]).effective_patterns()
    assert eff[1, 0] == pytest.approx(1.0)  # stored -1, fully flipped


def test_dw_factory_overrides_weight_step():
    factory = CatalogueWeightStepFactory("c")
    inst = factory(0.1)
    plain = build_couplings(catalogue_pattern_set("c"))
    np.testing.assert_allclose(inst.coupling, plain.coupling, atol=1e-12)
    wide = factory(0.5)
    np.testing.assert_allclose(
        wide.pattern_set.weights, [1.5, 2.0, 2.5], atol=1e-12
    )


def test_equidistant_factory_edits():
    factory = EquidistantPerturbationFactory("f")
    ps = catalogue_pattern_set("f")
    coord = next(
        j for j in range(8) if ps.patterns[0, j] == ps.patterns[1, j] != ps.patterns[2, j]
    )
    inst = factory(1.0)
    pert = inst.pattern_set.perturbations
    sign = float(ps.patterns[0, coord])
    assert pert[0, coord] == pytest.approx(0.2 * sign)
    assert pert[1, coord] == pytest.approx(0.2 * sign)
    assert pert[2, coord] == pytest.approx(-0.1 * float(ps.patterns[2, coord]))
    assert factory(0.0).pattern_set.is_perturbed() is False


def test_scan_transition_requires_factory(inst_a):
    spec = SweepSpec(
        instance=inst_a, solver=SolverConfig(), axes=(("alpha", (1.0,)),)
    )
    with pytest.raises(ValidationError):
        scan_transition(spec)


def test_scan_transition_runs_end_to_end():
    spec = SweepSpec(
        instance=CataloguePerturbationFactory("c"),
        solver=SolverConfig(kind="I", max_steps=500),
        axes=(("dxi", (-2.0, 0.0)), ("alpha", (2.0, 4.0, 8.0))),
        runs_per_point=30,
        base_seed=1,
    )
    result = scan_transition(spec, threads=2)
    assert result.sr_grid.shape == (2, 3)
    # full flip turns (c) easy; the unperturbed instance stays hard
    assert result.sr_grid[0].max() == 1.0
    assert result.sr_grid[1].max() < 1.0


# ---------------------------------------------------------------------------
# histograms


def test_histogram_counts_and_density():
    rng = np.random.default_rng(0)
    e = rng.normal(size=400)
    report = histogram(e)
    assert sum(report.counts) == 400
    widths = np.diff(np.array(report.edges))
    assert np.sum(np.array(report.density) * widths) == pytest.approx(1.0)
    assert report.edges[0] == e.min() and report.edges[-1] == e.max()
    assert len(report.smoothed_density) == 60
    assert not report.degenerate


def test_histogram_degenerate_single_level():
    report = histogram([2.5] * 10)
    assert report.degenerate
    assert report.counts == (10,)
    assert report.edges == (2.0, 3.0)
    assert report.density == (1.0,)
    # the kernel centre; the smoothing used to return 9 values, the first
    # the kernel tail 0.00013383062461474175
    assert report.smoothed_density == (0.39894346935609776,)
    # here (lo + 0.5) - (lo - 0.5) rounds away from 1; the bin width is 1 anyway
    assert histogram([-0.6872023179929557] * 3).density == (1.0,)


# the one bin of a degenerate report, fewer than the 9-point smoothing
# kernel, used to get 9 shifted values
@pytest.mark.parametrize("n_bins", [1, 60])
def test_histogram_smoothing_keeps_one_value_per_bin(n_bins):
    energies = [2.5] * 10 if n_bins == 1 else np.random.default_rng(n_bins).normal(size=200)
    report = histogram(energies)
    assert len(report.smoothed_density) == len(report.counts) == len(report.density) == n_bins
    # bin i sums density[j] * kernel[i - j] over the bins j within 4 of it
    kernel = np.exp(-0.5 * np.arange(-4, 5) ** 2.0)
    kernel /= kernel.sum()
    d = report.density
    expected = [
        sum(d[j] * kernel[i - j + 4] for j in range(max(0, i - 4), min(len(d), i + 5)))
        for i in range(len(d))
    ]
    assert report.smoothed_density == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_histogram_rejects_empty():
    with pytest.raises(ValidationError):
        histogram([])


# ---------------------------------------------------------------------------
# K sweep


def test_sweep_k_entries():
    entries = sweep_k(16, [1, 2, 4], runs_per_k=40, base_seed=3)
    assert [e.k for e in entries] == [1, 2, 4]
    for entry in entries:
        assert entry.n == 16
        assert entry.alpha == pytest.approx(entry.lambda_max / 2)
        assert entry.n_runs == 40
        assert sum(dict(entry.label_counts).values()) == 40
        assert entry.planted_min <= entry.mean_energy <= 0.0
        bands = dict(entry.measure_counts)
        assert sum(bands.values()) == 40 - dict(entry.label_counts)["diverged"]
    # K = 1 has a single planted level: the degenerate band rule applies
    k1 = dict(entries[0].measure_counts)
    assert k1["1"] + k1["below"] + k1["above"] == 40


def test_sweep_k_threads_match():
    serial = sweep_k(16, [2, 3], runs_per_k=25, base_seed=0, threads=1)
    parallel = sweep_k(16, [2, 3], runs_per_k=25, base_seed=0, threads=2)
    assert serial == parallel


def test_sweep_k_rejects_empty():
    with pytest.raises(ValidationError):
        sweep_k(16, [])


# runs_per_k=0 or -2 used to fail with "K=4: all 0 runs diverged" and
# 2.5 with a TypeError; each is now rejected before any K runs
@pytest.mark.parametrize("given, message", [
    ({"runs_per_k": 0}, "runs_per_k must be an integer >= 1"),
    ({"runs_per_k": -2}, "runs_per_k must be an integer >= 1"),
    ({"runs_per_k": 2.5}, "runs_per_k must be an integer >= 1"),
    ({"runs_per_k": True}, "runs_per_k must be an integer >= 1"),
    ({"base_seed": 1.5}, "base_seed must be an integer"),
    ({"base_seed": False}, "base_seed must be an integer"),
    # NaN used to fail the weight ladder rule, which it does not break,
    # and +inf passed it
    ({"dw": float("nan")}, "dw must be finite, got nan"),
    ({"dw": float("inf")}, "dw must be finite, got inf"),
    ({"dw": float("-inf")}, "dw must be finite, got -inf"),
])
def test_sweep_k_checks_runs_and_seed_before_any_k(monkeypatch, given, message):
    monkeypatch.setattr(bench, "run_batch", None)
    with pytest.raises(ValidationError, match=re.escape(message)):
        sweep_k(16, [4], **given)


def test_sweep_k_rejects_repeated_k():
    # a repeated K used to write two identical rows, and report drew
    # both K's histogram bins as one zig-zag line
    with pytest.raises(ValidationError, match=r"K values repeat: \[4\]"):
        sweep_k(16, [4, 2, 4], runs_per_k=5)


# ---------------------------------------------------------------------------
# writers


def read_lines(path):
    return path.read_text().splitlines()


def test_write_sweep_csv_round_trip(tmp_path, inst_a):
    result = sweep_sr(small_sweep(inst_a, runs=20))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    lines = read_lines(path)
    header = lines[0].split(",")
    assert header[0] == "alpha"
    assert "sr" in header and "label:planted" in header and "band:1" in header
    assert len(lines) == 1 + 4
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["alpha"]) == 1.0
    assert float(first["sr"]) == result.points[0].sr


def test_write_sidecar_fields(tmp_path, inst_a):
    result = sweep_sr(small_sweep(inst_a, runs=20))
    path = tmp_path / "sweep.meta.txt"
    write_sidecar(result, path)
    text = path.read_text()
    assert f"spec_hash: {result.spec.spec_hash()}" in text
    assert "instance: small-a" in text
    assert "axis alpha: 1.0 3.0 6.0 12.0" in text
    assert "wall" not in text  # timing must never reach disk


def test_write_ksweep_and_hist_csv(tmp_path):
    entries = sweep_k(16, [1, 3], runs_per_k=30, base_seed=2)
    kpath = tmp_path / "k.csv"
    hpath = tmp_path / "k.hist.csv"
    write_ksweep_csv(entries, kpath)
    write_hist_csv(entries, hpath)
    klines = read_lines(kpath)
    assert len(klines) == 3
    kheader = klines[0].split(",")
    for col in ("k", "lambda_max", "alpha", "mean_energy", "band:1"):
        assert col in kheader
    hlines = read_lines(hpath)
    hheader = hlines[0].split(",")
    assert hheader[:3] == ["k", "bin", "left"]
    ks = {int(line.split(",")[0]) for line in hlines[1:]}
    assert ks == {1, 3}
    # every float cell must round-trip through repr exactly
    row = dict(zip(hheader, hlines[1].split(",")))
    assert repr(float(row["density"])) == row["density"]


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, [{"k": np.int64(5), "x": 1.0, "y": np.float64(0.1)},
                      {"k": 7, "x": 2, "y": -0.5}])
    # integers, numpy's too, with str; every other cell as repr(float)
    assert path.read_text() == "k,x,y\n5,1.0,0.1\n7,2,-0.5\n"
    with pytest.raises(ValidationError):
        _write_csv(tmp_path / "empty.csv", [])
    assert not (tmp_path / "empty.csv").exists()


def test_writers_reject_empty_input(tmp_path, inst_a):
    # write_hist_csv([]) used to write a header-only file
    no_points = bench.SweepResult(spec=small_sweep(inst_a), points=())
    for write, data in ((write_sweep_csv, no_points), (write_ksweep_csv, []),
                        (write_hist_csv, [])):
        with pytest.raises(ValidationError):
            write(data, tmp_path / "x.csv")
    assert list(tmp_path.iterdir()) == []

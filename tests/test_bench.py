"""Sweep harness: seeds, grids, factories, histograms, CSV emission."""

import concurrent.futures
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plantbench import (
    CataloguePerturbationFactory,
    CatalogueWeightStepFactory,
    EquidistantPerturbationFactory,
    Instance,
    OutcomeClassifier,
    SolverConfig,
    SweepSpec,
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
    initial_states,
    max_eigenvalue,
    measure_bins,
    perturb_patterns,
    qubo_energy,
    random_initial,
    run_batch,
    shared_sign_coordinate,
    sweep_k,
    sweep_sr,
    write_hist_csv,
    write_ksweep_csv,
    write_sidecar,
    write_sweep_csv,
)
from plantbench import bench, energy
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
    with pytest.raises(ValidationError, match="alpha grid needs a positive eigenvalue scale"):
        default_alpha_grid(0.0)


# inf used to emit numpy's "invalid value encountered in subtract"
# RuntimeWarning (an error in this suite), nan gave 50 NaNs and num=0
# an empty grid
@pytest.mark.parametrize("lam_max, num, message", [
    (float("inf"), 50, "lam_max must be finite, got inf"),
    (float("nan"), 50, "lam_max must be finite, got nan"),
    ("10", 50, "lam_max must be finite, got '10'"),
    (-1.0, 50, "alpha grid needs a positive eigenvalue scale"),
    (10.0, 0, "num must be an integer >= 1, got 0"),
    (10.0, 2.0, "num must be an integer >= 1, got 2.0"),
    (10.0, True, "num must be an integer >= 1, got True"),
])
def test_default_alpha_grid_rejects_bad_arguments(lam_max, num, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        default_alpha_grid(lam_max, num)


# ---------------------------------------------------------------------------
# sweep specification


@pytest.fixture(scope="module")
def inst_a():
    return build_couplings(catalogue_pattern_set("a"), label="small-a")


def test_spec_validation(inst_a):
    cfg = SolverConfig()
    for axes in ((), 5, None):
        with pytest.raises(ValidationError, match="one or two"):
            SweepSpec(instance=inst_a, solver=cfg, axes=axes)
    with pytest.raises(ValidationError):
        SweepSpec(instance=inst_a, solver=cfg, axes=(("alpha", ()),))
    with pytest.raises(ValidationError):
        SweepSpec(instance=inst_a, solver=cfg,
                  axes=(("alpha", (1.0,)),), runs_per_point=0)
    # the CSV keys each row's cells by axis name
    with pytest.raises(ValidationError, match="axis names repeat"):
        SweepSpec(instance=inst_a, solver=cfg,
                  axes=(("alpha", (1.0,)), ("alpha", (2.0,))))
    # each used to escape as a TypeError, ValueError or AttributeError, or
    # (a string instance) to fail only when the sweep called it
    for axes in ((("alpha", 1.0),), (("alpha",),), (("alpha", ("x",)),), (("alpha", "1"),)):
        with pytest.raises(ValidationError, match="axis"):
            SweepSpec(instance=inst_a, solver=cfg, axes=axes)
    with pytest.raises(ValidationError, match="solver must be a SolverConfig"):
        SweepSpec(instance=inst_a, solver=None, axes=(("alpha", (1.0,)),))
    with pytest.raises(ValidationError, match="instance must be an Instance or a factory"):
        SweepSpec(instance="a", solver=cfg, axes=(("alpha", (1.0,)),))


# a Python int beyond float range used to escape as OverflowError (dt's
# was accepted)
@pytest.mark.parametrize("make", [
    lambda big, inst: SolverConfig(alpha=big),
    lambda big, inst: SolverConfig(beta=big),
    lambda big, inst: SolverConfig(gamma=big),
    lambda big, inst: SolverConfig(init_amplitude=big),
    lambda big, inst: SolverConfig(dt=big),
    lambda big, inst: SolverConfig(kind="TBM", delta=big),
    lambda big, inst: SweepSpec(instance=inst, solver=SolverConfig(), axes=(("alpha", (big,)),)),
    # these used to be accepted and overflow in run_batch, to raise a
    # ValueError formatting the message (past Python's 4300-digit limit),
    # and to raise a TypeError
    lambda big, inst: SolverConfig(derivative_window=big),
    lambda big, inst: SolverConfig(steady_tol=big),
    lambda big, inst: SolverConfig(alpha=big ** 13),
    lambda big, inst: coarse_grain(inst, big),
], ids=["alpha", "beta", "gamma", "init_amplitude", "dt", "tbm-delta", "axis-value",
        "derivative-window", "steady-tol", "alpha-5200-digits", "coarse-step"])
def test_ints_beyond_float_range_rejected(inst_a, make):
    with pytest.raises(ValidationError, match="finite"):
        make(10**400, inst_a)


# each spec used to be accepted: alpha on the bifurcation machine and
# delta or xi0 on a relaxation solver changed nothing, so the sweep
# reported seed noise as a trend, and gamma and dxi failed only at the
# first grid point
@pytest.mark.parametrize("solver, axes", [
    (SolverConfig(kind="TBM"), (("alpha", (1.0, 2.0)),)),
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


# equal specs used to hash differently: spec_hash digests repr(solver), and
# a SolverConfig or SweepSpec kept 2, 2.0 and np.float64(2.0) as given
def test_equal_specs_hash_equal():
    inst = build_couplings(catalogue_pattern_set("c"), label="small-c")

    def spec(delta, max_steps, runs, seed):
        return SweepSpec(instance=inst, solver=SolverConfig(kind="TBM", delta=delta,
                                                            max_steps=max_steps),
                         axes=(("xi0", (0.5,)),), runs_per_point=runs, base_seed=seed)

    specs = [spec(2, 10, 3, 1), spec(2.0, np.int64(10), np.int64(3), np.int64(1)),
             spec(np.float64(2.0), 10, 3, 1)]
    assert specs[0] == specs[1] == specs[2]
    assert len({s.spec_hash() for s in specs}) == 1
    for s in specs:
        assert type(s.solver.delta) is float and type(s.solver.max_steps) is int
        assert type(s.runs_per_point) is int and type(s.base_seed) is int


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


@pytest.mark.parametrize("threads", [2.5, 0, -1, True])
def test_sweep_sr_rejects_a_bad_thread_count_before_any_point(monkeypatch, inst_a, threads):
    monkeypatch.setattr(bench, "run_batch", None)
    with pytest.raises(ValidationError, match=re.escape(
            f"threads must be an integer >= 1, got {threads!r}")):
        sweep_sr(small_sweep(inst_a), threads=threads)


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
    spins = [o.final_spins for o in run_batch(inst_a, cfg, x0)]
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


@pytest.fixture(scope="module")
def tally_cases(inst_a):
    """Instance, solver and ground energy: catalogue (a), (c) where runs
    end in mixtures, (a) without its pattern set (every row unlabelled),
    and n = 64, K = 40, whose classifier skips the mixtures."""
    inst_c = build_couplings(catalogue_pattern_set("c"))
    bare = Instance(coupling=inst_a.coupling, pattern_set=None, label="bare-a")
    n64 = build_couplings(generate_orthogonal_patterns(64, 40, seed=3, dw=0.001))
    assert OutcomeClassifier(n64.pattern_set, n64.spectrum).mixed_skipped
    alpha = max_eigenvalue(n64) / 2.0
    dt = min(0.1, 0.5 / (alpha + float(np.sum(n64.pattern_set.weights))))
    return {
        "a": (inst_a, SolverConfig(kind="I", alpha=3.0, max_steps=400),
              brute_force(inst_a).ground_energy),
        "c": (inst_c, SolverConfig(kind="I", alpha=4.5, max_steps=400),
              brute_force(inst_c).ground_energy),
        "bare": (bare, SolverConfig(kind="I", alpha=3.0, max_steps=400),
                 brute_force(bare).ground_energy),
        "n64": (n64, SolverConfig(kind="I", alpha=alpha, dt=dt, max_steps=300),
                n64.spectrum.e_min),
    }


def _per_row_tally(inst, cfg, x0, ground):
    """Label counts, kept energies and hits, one RunOutcome at a time."""
    counts = dict.fromkeys(energy.LABEL_CATEGORIES, 0)
    kept = []
    for out in run_batch(inst, cfg, x0):
        counts[out.label.category] += 1
        if not out.diverged:
            kept.append(out.final_energy)
    e = np.array(kept)
    hits = 0
    if ground is not None:
        hits = int(np.count_nonzero(np.abs(e - ground) <= energy._tolerance(ground)))
    return counts, e, hits


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(["a", "c", "bare", "n64"]),
    seed=st.integers(min_value=0, max_value=2**32),
    blown=st.lists(st.booleans(), min_size=1, max_size=24),
    alpha_scale=st.sampled_from([0.3, 1.0, 1.5]),
    max_steps=st.sampled_from([40, 400]),
    with_ground=st.booleans(),
)
def test_run_point_tally_matches_the_per_row_tally(tally_cases, case, seed, blown, alpha_scale,
                                                    max_steps, with_ground):
    inst, cfg, ground = tally_cases[case]
    cfg = replace(cfg, alpha=cfg.alpha * alpha_scale, max_steps=max_steps)
    ground = ground if with_ground else None
    seeds = derive_seeds(seed, "tally", count=len(blown))
    x0 = initial_states(inst.n, cfg.init_amplitude, seeds)
    x0[np.array(blown), 0] = 1e7  # beyond the divergence limit: diverged at the first step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "initial_states", lambda n, a, s: x0.copy())
        counts, bands, e, hits = bench._run_point(inst, cfg, seeds, ground)
    want_counts, want_e, want_hits = _per_row_tally(inst, cfg, x0, ground)
    assert counts == want_counts and list(counts) == list(energy.LABEL_CATEGORIES)
    assert counts["diverged"] == sum(blown)
    assert counts["unlabelled"] == (0 if case != "bare" else len(blown) - sum(blown))
    assert e.dtype == want_e.dtype and e.tobytes() == want_e.tobytes()
    assert hits == want_hits
    if inst.spectrum is not None:
        assert bands == measure_bins(inst.spectrum, want_e)


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
    # entry e has no coordinate where patterns 1 and 2 agree against 3
    with pytest.raises(ValidationError, match="sign split"):
        EquidistantPerturbationFactory("e")(1.0)


def test_scan_transition_runs_end_to_end():
    spec = SweepSpec(
        instance=CataloguePerturbationFactory("c"),
        solver=SolverConfig(kind="I", max_steps=500),
        axes=(("dxi", (-2.0, 0.0)), ("alpha", (2.0, 4.0, 8.0))),
        runs_per_point=30,
        base_seed=1,
    )
    result = sweep_sr(spec, threads=2)
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


def test_histogram_energies_within_tolerance_are_one_level():
    # 60 bins between energies 1 ulp apart used to raise numpy's "Too
    # many bins for data range", so a valid sweep-k exited 3
    report = histogram([1.0, np.nextafter(1.0, 2.0), 1.0])
    assert report.degenerate
    assert report.counts == (3,)
    assert report.density == (1.0,)
    # within the 1e-9 relative tolerance at any scale, beyond it binned
    assert histogram([-100.0, -100.0 + 5e-8]).degenerate
    assert not histogram([-100.0, -100.0 + 2e-7]).degenerate


@pytest.mark.parametrize("energies", [[1.0, np.inf], [-np.inf, 1.0], [np.inf], [np.nan, 1.0]])
def test_histogram_rejects_non_finite_energies(energies):
    with pytest.raises(ValidationError, match="cannot bin energies"):
        histogram(energies)


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


# a process pool starts all its workers at the first submit, and the map
# used to ask for `threads` of them however few items there were
@pytest.mark.parametrize("threads, items, workers", [
    (8, 0, []), (8, 1, []), (8, 3, [3]), (2, 5, [2]), (1, 4, []),
])
def test_map_in_order_starts_no_more_workers_than_items(monkeypatch, threads, items, workers):
    made = []

    class Pool:  # records the pool asked for and maps in this process
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return map(fn, values)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert bench._map_in_order(lambda i: -i, range(items), threads) == [-i for i in range(items)]
    assert made == workers
    made.clear()
    # one K at --threads 8 runs in this process
    assert sweep_k(16, [2], runs_per_k=5, base_seed=0, threads=8)
    assert made == []


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
    # threads=2.5 used to raise a TypeError from the process pool, and 0,
    # -1 and True ran serially
    ({"threads": 2.5}, "threads must be an integer >= 1, got 2.5"),
    ({"threads": 0}, "threads must be an integer >= 1, got 0"),
    ({"threads": -1}, "threads must be an integer >= 1, got -1"),
    ({"threads": True}, "threads must be an integer >= 1, got True"),
])
def test_sweep_k_checks_runs_and_seed_before_any_k(monkeypatch, given, message):
    monkeypatch.setattr(bench, "run_batch", None)
    with pytest.raises(ValidationError, match=re.escape(message)):
        sweep_k(16, [4], **given)


# a float n or K used to raise a TypeError from n & (n - 1), and K = 2.5
# silently ran K = 2
@pytest.mark.parametrize("n, ks, message", [
    (16.0, [2], "n must be an integer, got 16.0"),
    (16, [2.5], "K must be an integer, got 2.5"),
    (16, [4, 2.0], "K must be an integer, got 2.0"),
    (16, [True], "K must be an integer, got True"),
    # an n whose coupling matrix numpy cannot allocate at all
    (2**62, [2], "n=4611686018427387904 is too large"),
])
def test_sweep_k_rejects_non_integer_sizes(monkeypatch, n, ks, message):
    monkeypatch.setattr(bench, "run_batch", None)
    with pytest.raises(ValidationError, match=re.escape(message)):
        sweep_k(n, ks, runs_per_k=2)


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

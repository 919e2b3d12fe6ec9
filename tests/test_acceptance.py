"""End-to-end guarantees of the toolkit, one test per guarantee.

The tests run in the order the guarantees are documented in the
README.  Statistical checks pin their seeds, grids, and run counts so
every assertion is reproducible bit for bit; thresholds leave room for
the binomial noise of the pinned run counts.  The large-scale mean
energy check integrates 300 trajectories at n = 1024 and is the
longest test in the default run (about a minute).
"""

import math
import time

import numpy as np

from plantbench import (
    CataloguePerturbationFactory,
    CatalogueWeightStepFactory,
    SolverConfig,
    SweepSpec,
    brute_force,
    build_couplings,
    default_alpha_grid,
    derive_seed,
    gauge_transform,
    generate_orthogonal_patterns,
    generate_small_scale,
    max_eigenvalue,
    qubo_energy_many,
    random_initial,
    run_batch,
    sweep_k,
    sweep_sr,
    trajectory,
)
from plantbench.cli import main as cli_main
from plantbench.energy import closed_form_applies


# ---------------------------------------------------------------------------
# helpers


def _longest_plateau(srs) -> int:
    """Length of the longest run of consecutive SR = 1 grid points."""
    best = cur = 0
    for sr in srs:
        cur = cur + 1 if sr == 1.0 else 0
        best = max(best, cur)
    return best


def _two_proportion_p(h1: int, n1: int, h2: int, n2: int) -> float:
    """Two-sided pooled z-test p-value for equal success probabilities."""
    pooled = (h1 + h2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        return 1.0
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (h1 / n1 - h2 / n2) / se
    return math.erfc(abs(z) / math.sqrt(2.0))


def _alpha_sweep(catalogue_id: str, num: int, runs: int, base_seed: int):
    """Class-I success-rate profile over the default alpha grid."""
    inst = generate_small_scale(catalogue_id)
    grid = default_alpha_grid(max_eigenvalue(inst), num)
    spec = SweepSpec(
        instance=inst,
        solver=SolverConfig(kind="I"),
        axes=(("alpha", grid),),
        runs_per_point=runs,
        base_seed=base_seed,
    )
    return sweep_sr(spec)


# ---------------------------------------------------------------------------
# 1. catalogue fidelity

CATALOGUE_SUMMARIES = {
    "a": "catalogue a: distances (1, 3, 4) dw=0.1",
    "b": "catalogue b: distances (4, 3, 3) dw=0.1",
    "b*": "catalogue b*: distances (2, 4, 2) dw=0.3",
    "c": "catalogue c: distances (3, 3, 4) dw=0.1",
    "d": "catalogue d: distances (4, 4, 2) dw=0.1",
    "e": "catalogue e: distances (4, 1, 3) dw=-0.13",
    "f": "catalogue f: distances (4, 4, 4, 4) dw=0.1",
}


def test_catalogue_distances_and_weight_steps(capsys):
    start = time.perf_counter()
    for ident, expected in CATALOGUE_SUMMARIES.items():
        assert cli_main(["gen-small", "--id", ident]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert first_line == expected
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. the heaviest pattern is the ground state


def test_ground_state_is_heaviest_pattern():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        n = int(rng.choice([8, 16]))
        k = int(rng.integers(1, n // 2 + 1))
        dw = float((0.05 + 0.9 * rng.random()) / k)
        ps = generate_orthogonal_patterns(n, k, seed=int(rng.integers(2**31)), dw=dw)
        inst = build_couplings(ps)
        ground = brute_force(inst).ground_state
        heaviest = ps.patterns[int(np.argmax(ps.weights))]
        assert np.array_equal(ground, heaviest) or np.array_equal(ground, -heaviest)


# ---------------------------------------------------------------------------
# 3. planted energies in closed form


def test_planted_energy_closed_form_matches_direct():
    rng = np.random.default_rng(7)
    sizes = (8, 64, 1024)
    for i in range(100):
        n = sizes[i % len(sizes)]
        k = int(rng.integers(1, min(n, 32) + 1))
        dw = float(rng.uniform(0.001, 1.0) / k)
        ps = generate_orthogonal_patterns(n, k, seed=int(rng.integers(2**31)), dw=dw)
        inst = build_couplings(ps)
        assert closed_form_applies(ps, inst)
        closed = inst.spectrum.energies
        direct = qubo_energy_many(inst, ps.patterns)
        scale = np.maximum(1.0, np.abs(direct))
        assert float(np.max(np.abs(closed - direct) / scale)) <= 1e-9


# ---------------------------------------------------------------------------
# 4. an easy and a hard catalogue instance separate under class I


def test_success_rate_plateau_separates_instances():
    easy = _alpha_sweep("a", num=50, runs=500, base_seed=0)
    assert _longest_plateau(p.sr for p in easy.points) >= 3
    hard = _alpha_sweep("c", num=50, runs=500, base_seed=0)
    assert hard.max_sr() < 1.0


# ---------------------------------------------------------------------------
# 5. success rate depends only on the ratio of decay to coupling rate


def test_success_rate_depends_only_on_rate_ratio():
    inst = generate_small_scale("b")
    grid = default_alpha_grid(max_eigenvalue(inst), 10)
    base = SweepSpec(
        instance=inst,
        solver=SolverConfig(kind="I", beta=1.0, dt=0.1, max_steps=1000),
        axes=(("alpha", grid),),
        runs_per_point=500,
        base_seed=101,
    )
    doubled = SweepSpec(
        instance=inst,
        solver=SolverConfig(kind="I", beta=2.0, dt=0.05, max_steps=2000),
        axes=(("alpha", tuple(2.0 * a for a in grid)),),
        runs_per_point=500,
        base_seed=202,
    )
    for p1, p2 in zip(sweep_sr(base).points, sweep_sr(doubled).points):
        assert _two_proportion_p(p1.hits, p1.n_runs, p2.hits, p2.n_runs) > 0.01


# ---------------------------------------------------------------------------
# 6. deformations open and close the certain-success region


def test_perturbation_and_weight_step_move_the_easy_region():
    inst = generate_small_scale("c")
    agrid = default_alpha_grid(max_eigenvalue(inst), 20)

    flip = SweepSpec(
        instance=CataloguePerturbationFactory(catalogue_id="c"),
        solver=SolverConfig(kind="I"),
        axes=(("dxi", (-2.0, 0.0)), ("alpha", agrid)),
        runs_per_point=200,
        base_seed=12,
    )
    flip_grid = sweep_sr(flip).sr_grid
    assert np.count_nonzero(flip_grid[0] == 1.0) >= 1   # full coordinate flip
    assert np.count_nonzero(flip_grid[1] == 1.0) == 0   # untouched instance

    steps = SweepSpec(
        instance=CatalogueWeightStepFactory(catalogue_id="c"),
        solver=SolverConfig(kind="I"),
        axes=(("dw", (0.1, 0.5)), ("alpha", agrid)),
        runs_per_point=200,
        base_seed=11,
    )
    step_grid = sweep_sr(steps).sr_grid
    assert np.count_nonzero(step_grid[0] == 1.0) == 0   # catalogue weight step
    assert np.count_nonzero(step_grid[1] == 1.0) >= 1   # widened weight ladder


# ---------------------------------------------------------------------------
# 7. the bifurcation machine solves what class I cannot


def test_bifurcation_machine_reaches_certain_success():
    spec = SweepSpec(
        instance=generate_small_scale("c"),
        solver=SolverConfig(kind="TBM", dt=0.1, max_steps=1000),
        axes=(
            ("delta", (3.8, 4.0, 4.2, 4.4, 4.6, 4.8, 5.0)),
            ("xi0", (0.56, 0.60, 0.64, 0.68, 0.72)),
        ),
        runs_per_point=200,
        base_seed=0,
    )
    assert sweep_sr(spec).max_sr() == 1.0


# ---------------------------------------------------------------------------
# 8. full pattern load with flat weights cancels every coupling


def test_full_pattern_load_with_flat_weights_zeroes_couplings():
    for n in (8, 64, 1024):
        ps = generate_orthogonal_patterns(n, n, seed=3, dw=0.0)
        inst = build_couplings(ps)
        assert float(np.max(np.abs(inst.coupling))) == 0.0


# ---------------------------------------------------------------------------
# 9. medium-scale regimes: retrieval at small K, Gaussian bulk at large K


def test_medium_scale_label_and_histogram_regimes():
    retrieved = total = 0
    for entry in sweep_k(64, [2, 4, 6, 8], base_seed=0):
        counts = dict(entry.label_counts)
        assert counts.get("mixed", 0) == 0
        assert counts.get("spurious", 0) == 0
        retrieved += counts.get("planted", 0) + counts.get("mirror", 0)
        total += entry.n_runs
    assert retrieved / total >= 0.95

    entries = sweep_k(64, list(range(40, 56)), base_seed=0)
    pooled = np.zeros(len(entries[0].hist.counts), dtype=np.float64)
    for entry in entries:
        assert not entry.hist.degenerate
        pooled += np.asarray(entry.hist.counts, dtype=np.float64)
    # Every per-K histogram spans its own energy range with the same
    # bin count, so summing counts pools the range-normalized energies.
    centers = (np.arange(pooled.size) + 0.5) / pooled.size
    weights = pooled / pooled.sum()
    mean = float(np.sum(weights * centers))
    sigma = math.sqrt(float(np.sum(weights * (centers - mean) ** 2)))
    skew = float(np.sum(weights * (centers - mean) ** 3)) / sigma**3
    mass = float(np.sum(weights[np.abs(centers - mean) <= 2.0 * sigma]))
    assert abs(skew) < 0.5
    assert mass >= 0.8


# ---------------------------------------------------------------------------
# 10. large-scale mean energy follows the halving rule


def test_large_scale_mean_energy_follows_halving_rule():
    for entry in sweep_k(1024, [200, 300, 500], base_seed=0, threads=3):
        span = entry.planted_max - entry.planted_min
        predicted = entry.planted_min + span * 2.0 ** (-1.0 - entry.k / 200.0)
        assert abs(entry.mean_energy - predicted) <= 0.15 * span


# ---------------------------------------------------------------------------
# 11. symmetries: global flip, gauge, and trajectory negation


def test_energy_and_dynamics_symmetries():
    rng = np.random.default_rng(11)

    cases = 0
    while cases < 10_000:
        n = int(rng.integers(2, 33))
        a = rng.normal(size=(n, n))
        coupling = (a + a.T) / 2.0
        np.fill_diagonal(coupling, 0.0)
        states = rng.choice(np.array([-1.0, 1.0]), size=(100, n))
        assert np.array_equal(
            qubo_energy_many(coupling, states), qubo_energy_many(coupling, -states)
        )
        cases += states.shape[0]

    ps = generate_orthogonal_patterns(8, 3, seed=2, dw=0.2)
    for inst in (generate_small_scale("c"), generate_small_scale("f"), build_couplings(ps)):
        base = brute_force(inst, full_spectrum=True).energy_multiset
        flip_sets = [np.flatnonzero(rng.random(inst.n) < 0.5) for _ in range(3)]
        flip_sets += [[site] for site in range(inst.n)]
        for flips in flip_sets:
            flipped = gauge_transform(inst, flips)
            assert np.array_equal(base, brute_force(flipped, full_spectrum=True).energy_multiset)

    inst = generate_small_scale("d")
    for cfg in (
        SolverConfig(kind="I", alpha=1.3, dt=0.1, max_steps=200),
        SolverConfig(kind="II", alpha=1.3, dt=0.05, max_steps=400),
    ):
        x0 = random_initial(inst.n, 0.5, seed=5)
        forward = trajectory(inst, cfg, x0)
        mirrored = trajectory(inst, cfg, -x0)
        assert forward.shape == mirrored.shape
        assert float(np.max(np.abs(forward + mirrored))) <= 1e-12


# ---------------------------------------------------------------------------
# 12. no solver ever reports an energy below the exact ground state


def test_solvers_never_undershoot_exact_ground_energy():
    rng = np.random.default_rng(4)
    instances = [generate_small_scale(i) for i in ("a", "b", "b*", "c", "d", "e", "f")]
    for i in range(3):
        k = int(rng.integers(2, 9))
        dw = float(rng.uniform(0.01, 0.9) / k)
        ps = generate_orthogonal_patterns(16, k, seed=100 + i, dw=dw)
        instances.append(build_couplings(ps))
    for inst in instances:
        ground = brute_force(inst).ground_energy
        tol = 1e-9 * max(1.0, abs(ground))
        lam = max_eigenvalue(inst)
        configs = (
            SolverConfig(kind="I", alpha=lam / 2.0),
            SolverConfig(kind="II", alpha=lam / 2.0, dt=0.05),
            SolverConfig(kind="III", alpha=lam / 2.0, gamma=0.1, dt=0.05),
            SolverConfig(kind="TBM", dt=0.1, max_steps=1000, delta=4.6, xi0=0.64),
        )
        for cfg in configs:
            seeds = np.array(
                [derive_seed(9, inst.label, cfg.kind, r) for r in range(32)],
                dtype=np.int64,
            )
            x0 = np.vstack([random_initial(inst.n, 0.5, int(s)) for s in seeds])
            for outcome in run_batch(inst, cfg, x0):
                assert outcome.final_energy >= ground - tol


# ---------------------------------------------------------------------------
# 13. manifest replays reproduce every output byte, at any worker count


def test_manifest_replay_is_byte_identical_across_threads(tmp_path):
    first = tmp_path / "sweep.csv"
    argv = [
        "sweep-sr", "--small", "c", "--alpha-grid", "0.4:3.2:8",
        "--runs", "60", "--seed", "0", "--threads", "2", "--out", str(first),
    ]
    assert cli_main(argv) == 0

    manifest = (tmp_path / "sweep.csv.manifest.txt").read_text(encoding="utf-8")
    argv_line = next(l for l in manifest.splitlines() if l.startswith("argv: "))
    replay = argv_line[len("argv: "):].split()
    second = tmp_path / "replay.csv"
    replay[replay.index("--threads") + 1] = "1"
    replay[replay.index("--out") + 1] = str(second)
    assert cli_main(replay) == 0

    assert first.read_bytes() == second.read_bytes()
    assert (
        (tmp_path / "sweep.csv.meta.txt").read_bytes()
        == (tmp_path / "replay.csv.meta.txt").read_bytes()
    )

    svg_first = tmp_path / "first.svg"
    svg_second = tmp_path / "second.svg"
    assert cli_main(["report", "--in", str(first), "--kind", "heatmap", "--out", str(svg_first)]) == 0
    assert cli_main(["report", "--in", str(second), "--kind", "heatmap", "--out", str(svg_second)]) == 0
    assert svg_first.read_bytes() == svg_second.read_bytes()

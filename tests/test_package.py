"""The top-level namespace: one export list per module, nothing lost."""

import plantbench
from plantbench import bench, dynamics, energy, errors, instance, oracle

# Every name the package exported before the per-kind run aliases, the
# one-off classifier wrapper, DegenerateSpectrumError, the bare-matrix
# file format, the cluster and mode helpers, mirror, the one-row run
# with its DivergenceError, PumpRamp, and every exception type but
# ValidationError were deleted.
STILL_EXPORTED = [
    "__version__", "ValidationError", "CATALOGUE", "PatternSet", "Instance", "make_pattern_set",
    "generate_orthogonal_patterns", "catalogue_pattern_set",
    "generate_small_scale", "perturb_patterns", "build_couplings",
    "coarse_grain", "hamming_distances", "shared_sign_coordinate",
    "save_instance", "load_instance",
    "qubo_energy", "qubo_energy_many", "PlantedSpectrum",
    "planted_spectrum", "OutcomeLabel", "OutcomeClassifier", "band_label",
    "measure_bins", "gauge_transform", "SpectrumReport",
    "brute_force", "max_eigenvalue", "LinearRamp", "TbmParams",
    "SolverConfig", "RunOutcome", "random_initial", "run_batch",
    "trajectory", "SweepSpec", "PointResult", "SweepResult",
    "HistogramReport", "KSweepEntry", "CataloguePerturbationFactory",
    "CatalogueWeightStepFactory", "EquidistantPerturbationFactory",
    "derive_seed", "default_alpha_grid", "sweep_sr", "scan_transition",
    "sweep_k", "histogram", "write_sweep_csv", "write_ksweep_csv",
    "write_hist_csv", "write_sidecar",
]

DELETED = [
    "run_class1", "run_class2", "run_class3", "run_tbm",
    "classify_outcome", "DegenerateSpectrumError", "save_dense", "load_dense",
    "count_modes", "cluster_split", "cluster_report", "mirror",
    "run", "DivergenceError", "PumpRamp",
    "PlantbenchError", "UnsupportedDimensionError", "CapacityError",
]


def test_all_is_the_module_lists_in_order():
    modules = (errors, instance, energy, oracle, dynamics, bench)
    expected = ["__version__"] + [name for mod in modules for name in mod.__all__]
    assert plantbench.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves_to_its_module_object():
    for mod in (errors, instance, energy, oracle, dynamics, bench):
        for name in mod.__all__:
            assert getattr(plantbench, name) is getattr(mod, name), name


def test_errors_export_one_type():
    assert errors.__all__ == ["ValidationError"]


def test_log_shift_is_defined_once_in_render():
    assert plantbench.LOG_SHIFT is bench.LOG_SHIFT is plantbench.render.LOG_SHIFT == 3e-5


def test_earlier_exports_kept_and_deleted_names_gone():
    assert set(STILL_EXPORTED) <= set(plantbench.__all__)
    for name in DELETED:
        assert name not in plantbench.__all__
        assert not hasattr(plantbench, name), name

"""Command-line behaviour: subcommands, exit codes, manifests, replay."""

import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plantbench import (
    Instance,
    SolverConfig,
    bench,
    brute_force,
    build_couplings,
    catalogue_pattern_set,
    cli,
    dynamics,
    initial_states,
    load_instance,
    run_batch,
    save_instance,
)
from plantbench.cli import main


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# gen / gen-small


def test_gen_writes_instance_and_manifest(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    code = run_cli(["gen", "--n", "16", "--k", "3", "--dw", "0.1",
                    "--seed", "5", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "planted energies" in printed and "pattern 3" in printed
    inst = load_instance(out)
    assert inst.n == 16 and inst.pattern_set.k == 3
    manifest = (str(out) + ".manifest.txt")
    lines = Path(manifest).read_text(encoding="utf-8")
    assert "command: gen" in lines
    assert f"output: {out} blake2b=" in lines
    assert "argv: gen --n 16" in lines


def test_gen_rejects_bad_dimension(tmp_path, capsys):
    code = run_cli(["gen", "--n", "6", "--k", "2",
                    "--out", str(tmp_path / "x.txt")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(["gen", "--n", "16"])
    assert info.value.code == 2


def test_solver_class2_is_a_usage_error(tmp_path, capsys):
    # kind II needs schedules, which only the library can set
    with pytest.raises(SystemExit) as info:
        run_cli(["sweep-sr", "--small", "c", "--solver", "class2", "--runs", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert "invalid choice: 'class2'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_non_finite_coarse_exits_3_before_writing(tmp_path, capsys):
    # --coarse inf used to write coarse_grain: inf, which no reader accepts
    out = tmp_path / "x.inst"
    assert run_cli(["gen", "--n", "8", "--k", "2", "--coarse", "inf",
                    "--out", str(out)]) == 3
    assert "positive and finite" in _error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_gen_small_prints_catalogue_summary(capsys):
    listed = {
        "a": ("(1, 3, 4)", "0.1"),
        "b": ("(4, 3, 3)", "0.1"),
        "b*": ("(2, 4, 2)", "0.3"),
        "c": ("(3, 3, 4)", "0.1"),
        "d": ("(4, 4, 2)", "0.1"),
        "e": ("(4, 1, 3)", "-0.13"),
        "f": ("(4, 4, 4, 4)", "0.1"),
    }
    for ident, (dists, dw) in listed.items():
        assert run_cli(["gen-small", "--id", ident]) == 0
        out = capsys.readouterr().out
        assert f"distances {dists} dw={dw}" in out, ident


def test_gen_small_accepts_bstar_alias(capsys):
    assert run_cli(["gen-small", "--id", "bstar"]) == 0
    assert "catalogue b*" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# solve / oracle


@pytest.fixture()
def small_c(tmp_path):
    path = tmp_path / "c.txt"
    assert run_cli(["gen-small", "--id", "c", "--out", str(path)]) == 0
    return path


def test_solve_csv_schema_and_determinism(tmp_path, small_c, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["solve", "--instance", str(small_c), "--solver", "class1",
            "--alpha", "3", "--runs", "5", "--seed", "1"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "seed,energy,label,steps,converged"
    assert len(lines) == 6
    for line in lines[1:]:
        seed, energy, label, steps, converged = line.split(",")
        float(energy), int(seed), int(steps)
        assert converged in ("true", "false")


# blake2b digests of solve's CSV as the per-row writer made it: catalogue
# (c) under class1 with converged and unconverged rows, under tbm, and
# with a beta that diverges every row
@pytest.mark.parametrize("argv, digest", [
    (["--solver", "class1", "--alpha", "3", "--steps", "130", "--runs", "40", "--seed", "1"],
     "14ded7aa78d68dd62fcc2d6e4ffdac72"),
    (["--solver", "tbm", "--delta", "4.6", "--xi0", "0.64", "--runs", "20", "--seed", "3"],
     "0e5fd31e8c40b60941326ebd9c9cac44"),
    (["--solver", "class1", "--beta", "1e308", "--runs", "5"],
     "f9756b1d9777439be8ee8b3ee4f2c774"),
], ids=["class1", "tbm", "diverged"])
def test_solve_output_is_pinned(small_c, capsys, argv, digest):
    assert run_cli(["solve", "--instance", str(small_c), *argv]) == 0
    text = capsys.readouterr().out
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == digest


def test_solve_missing_instance_exits_3(tmp_path, capsys):
    code = run_cli(["solve", "--instance", str(tmp_path / "nope.txt")])
    assert code == 3


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    return err


@pytest.fixture()
def trajectories(monkeypatch):
    """The row counts of every run_batch call that the CLI makes."""
    rows = []
    # solve imports run_batch from dynamics when it runs
    for owner in (bench, dynamics):
        def counted(inst, cfg, x0, *args, _run=owner.run_batch, **kwargs):
            rows.append(len(x0))
            return _run(inst, cfg, x0, *args, **kwargs)

        monkeypatch.setattr(owner, "run_batch", counted)
    return rows


# the directory and missing-parent cases escaped as OSError tracebacks
# (exit 1), and the sweeps met an unwritable output only after the grid
@pytest.mark.parametrize("argv, message", [
    (["solve", "--instance", "{dir}"], "cannot read .*Is a directory"),
    (["report", "--in", "{dir}", "--kind", "heatmap", "--out", "{dir}/x.svg"],
     "cannot read .*Is a directory"),
    (["report", "--in", "{dir}/nope.csv", "--kind", "heatmap", "--out", "{dir}/x.svg"],
     "cannot read .*No such file"),
    (["gen-small", "--id", "c", "--out", "{dir}"], "cannot write .*Is a directory"),
    (["gen", "--n", "16", "--k", "3", "--out", "{dir}/missing/x.inst"],
     "cannot write .*No such file"),
    (["sweep-sr", "--small", "a", "--alpha-grid", "1:2:2", "--runs", "5",
      "--threads", "1", "--out", "{dir}/missing/x.csv"], "cannot write .*No such file"),
    (["scan", "--kind", "dxi", "--values=-2,0", "--alpha-grid", "2", "--runs", "5",
      "--threads", "1", "--out", "{dir}/missing/x.csv"], "cannot write .*No such file"),
    (["sweep-k", "--n", "16", "--k-list", "4", "--runs", "5", "--threads", "1",
      "--out", "{dir}/missing/k.csv"], "cannot write .*No such file"),
], ids=["solve-dir", "report-dir", "report-missing", "gen-small-dir", "gen-missing-dir",
        "sweep-sr-missing-dir", "scan-missing-dir", "sweep-k-missing-dir"])
def test_unreadable_or_unwritable_paths_exit_3(tmp_path, capsys, trajectories, argv,
                                               message):
    code = run_cli([a.format(dir=tmp_path) for a in argv])
    assert code == 3
    assert re.search(message, _error_line(capsys))
    assert not (tmp_path / "x.svg").exists()
    assert trajectories == []


SWEEP_SR = ["sweep-sr", "--small", "a", "--alpha-grid", "1:2:2", "--runs", "5",
            "--threads", "1", "--out"]
SCAN = ["scan", "--kind", "dxi", "--values=-2,0", "--alpha-grid", "2", "--runs", "5",
        "--threads", "1", "--out"]
SWEEP_K = ["sweep-k", "--n", "16", "--k-list", "4", "--runs", "5", "--threads", "1",
           "--out"]


@pytest.mark.parametrize("argv, blocked", [
    (SWEEP_SR, "x.csv.meta.txt"),
    (SWEEP_SR, "x.csv.manifest.txt"),
    (SCAN, "x.csv.meta.txt"),
    (SWEEP_K, "x.hist.csv"),
    (SWEEP_K, "x.csv.manifest.txt"),
    (["gen-small", "--id", "c", "--out"], "x.csv.manifest.txt"),
], ids=["sweep-sr-sidecar", "sweep-sr-manifest", "scan-sidecar", "sweep-k-hist",
        "sweep-k-manifest", "gen-small-manifest"])
def test_unwritable_second_output_exits_3_before_any_work(tmp_path, capsys, trajectories,
                                                          argv, blocked):
    # a directory in the way of the sidecar, hist CSV or manifest
    (tmp_path / blocked).mkdir()
    assert run_cli(argv + [str(tmp_path / "x.csv")]) == 3
    assert re.search(f"cannot write .*{re.escape(blocked)}: Is a directory",
                     _error_line(capsys))
    assert trajectories == []
    assert capsys.readouterr().out == ""  # gen-small printed its summary first
    assert sorted(p.name for p in tmp_path.iterdir()) == [blocked]


# grid and scalar flags of values the solver does not read, or that an
# axis sets, used to be ignored with exit 0
@pytest.mark.parametrize("solver, flag", [
    ("class1", "--delta-grid"), ("class3", "--xi0-grid"),
    ("tbm", "--alpha-grid"), ("tbm", "--beta-grid"),
    ("class1", "--window"), ("class1", "--gamma"), ("class1", "--alpha"),
    ("class1", "--delta"), ("class1", "--beta"),
    ("tbm", "--alpha"), ("tbm", "--beta"), ("tbm", "--gamma"), ("tbm", "--nonlinearity"),
    ("tbm", "--delta"), ("tbm", "--xi0"),
])
def test_sweep_sr_grid_flag_unused_by_solver_exits_3(tmp_path, capsys, trajectories,
                                                     solver, flag):
    # tbm needs both of its grids; class1 reads --beta until --beta-grid sets it
    grids = (["--delta-grid", "1", "--xi0-grid", "0.1"] if solver == "tbm"
             else ["--beta-grid", "1"] if flag == "--beta" else [])
    value = "tanh" if flag == "--nonlinearity" else "1"
    argv = ["sweep-sr", "--small", "c", "--solver", solver, *grids, flag, value,
            "--runs", "5", "--threads", "1", "--out", str(tmp_path / "x.csv")]
    assert run_cli(argv) == 3
    assert f"{flag} does not apply to --solver {solver}" in _error_line(capsys)
    assert trajectories == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("solver, flag", [
    ("tbm", "--alpha"), ("class1", "--delta"), ("class1", "--window"), ("class3", "--delta"),
])
def test_solve_flag_unused_by_solver_exits_3(tmp_path, small_c, capsys, trajectories,
                                             solver, flag):
    out = tmp_path / "r.csv"
    assert run_cli(["solve", "--instance", str(small_c), "--solver", solver, flag, "1",
                    "--runs", "2", "--out", str(out)]) == 3
    assert f"{flag} does not apply to --solver {solver}" in _error_line(capsys)
    assert trajectories == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "c.txt.manifest.txt"]


@pytest.mark.parametrize("argv", [
    ["sweep-sr", "--small", "c", "--solver", "class3", "--alpha-grid", "3",
     "--gamma", "-0.5", "--window", "2", "--threads", "1"],
    ["sweep-sr", "--small", "c", "--solver", "tbm", "--delta-grid", "4.6", "--xi0-grid", "0.64",
     "--window", "2", "--steps", "50", "--threads", "1"],
    ["solve", "--instance", "{c}", "--solver", "tbm", "--delta", "4.6", "--xi0", "0.64"],
], ids=["class3-gamma-window", "tbm-window-steps", "solve-tbm-delta-xi0"])
def test_solver_flags_the_solver_reads_run(tmp_path, small_c, capsys, trajectories, argv):
    out = tmp_path / "x.csv"
    argv = [a.format(c=small_c) for a in argv]
    assert run_cli(argv + ["--runs", "3", "--out", str(out)]) == 0
    assert trajectories == [3]
    assert out.exists()


def test_solve_unwritable_out_runs_nothing(tmp_path, small_c, capsys, trajectories):
    out = tmp_path / "missing" / "r.csv"
    assert run_cli(["solve", "--instance", str(small_c), "--runs", "3",
                    "--out", str(out)]) == 3
    assert "cannot write" in _error_line(capsys)
    assert trajectories == []


def test_failed_command_leaves_an_existing_output_as_it_was(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    csv.write_text("old\n")
    assert run_cli(["sweep-sr", "--small", "a", "--alpha-grid=nan,3", "--runs", "5",
                    "--out", str(csv)]) == 3
    assert csv.read_text() == "old\n"


def test_non_utf8_argument_exits_3_without_a_manifest(tmp_path):
    # a real process: its stderr escapes the argument's undecodable byte
    out = os.fsencode(tmp_path) + b"/\xff.inst"
    proc = subprocess.run(
        [sys.executable, "-m", "plantbench.cli", "gen-small", "--id", "c", "--out", out],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.startswith(b"error: ")
    assert b"text is not UTF-8" in proc.stderr
    assert not os.path.exists(out + b".manifest.txt")


def test_non_utf8_argument_of_a_sweep_exits_3_before_any_work(tmp_path):
    # the manifest cannot record the argument; the grid used to run first
    # and leave the CSV and its sidecar behind
    out = os.fsencode(tmp_path) + b"/\xff.csv"
    proc = subprocess.run([sys.executable, "-m", "plantbench.cli", *SWEEP_SR, out],
                          capture_output=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.count(b"\n") == 1 and b"text is not UTF-8" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["solve", "--instance"],
    ["report", "--kind", "heatmap", "--out", "{dir}/x.svg", "--in"],
], ids=["instance", "csv"])
def test_non_utf8_input_exits_3(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"alpha,sr\n\xff,1\n")
    assert run_cli([a.format(dir=tmp_path) for a in command] + [str(bad)]) == 3
    assert "is not UTF-8 text" in _error_line(capsys)


def test_malformed_instance_file_exits_3(tmp_path, small_c, capsys):
    # an unparsable field used to escape as a ValueError traceback (exit 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(small_c.read_text().replace("n: 8", "n: abc"))
    assert run_cli(["solve", "--instance", str(bad)]) == 3
    assert "n must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ("k: 2\nweights: 1.0\ngenerator: hadamard 0\n", "weights row does not match k"),
    ("k: 2\nweights: 1.0 1.0\ngenerator: sobol 0\n", "unknown generator kind 'sobol'"),
    ("k: 2\nweights: 1.0 1.0\n", "pattern source declared but no patterns present"),
    ("", "instance file has neither patterns nor couplings"),
], ids=["weights", "generator", "no-patterns", "empty"])
def test_instance_without_a_usable_pattern_source_exits_3(tmp_path, capsys, fields, message):
    bad = tmp_path / "bad.inst"
    bad.write_text("format_version: 1\nn: 8\n" + fields)
    assert run_cli(["oracle", "--instance", str(bad)]) == 3
    assert message in _error_line(capsys)


def test_oracle_reports_ground_state(small_c, capsys):
    assert run_cli(["oracle", "--instance", str(small_c),
                    "--full-spectrum", "--eig"]) == 0
    out = capsys.readouterr().out
    assert "ground_energy: -29.6" in out
    assert "degeneracy: 1" in out
    assert "spectrum_size: 128" in out
    assert "lambda_max:" in out


# ---------------------------------------------------------------------------
# sweeps and reports


def test_default_threads_count_the_cpus_the_process_may_use(monkeypatch):
    # under taskset or a cgroup cpuset the affinity mask is smaller than
    # the machine, and only its CPUs can run workers
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cli._threads(argparse.Namespace(threads=None)) == 2
    assert cli._threads(argparse.Namespace(threads=5)) == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._threads(argparse.Namespace(threads=None)) == 64


def test_sweep_report_pipeline(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code = run_cli(["sweep-sr", "--small", "a", "--alpha-grid", "1:8:4",
                    "--runs", "30", "--seed", "3", "--threads", "1",
                    "--out", str(csv)])
    assert code == 0
    assert csv.exists() and (tmp_path / "sweep.csv.meta.txt").exists()
    svg = tmp_path / "sweep.svg"
    assert run_cli(["report", "--in", str(csv), "--kind", "heatmap",
                    "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<?xml")


def test_sweep_requires_some_instance(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli(["sweep-sr", "--alpha-grid", "1:2:2", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_sweep_takes_only_one_instance_source(small_c, tmp_path, capsys):
    # --instance next to --small used to be ignored, and missing from the manifest
    with pytest.raises(SystemExit) as info:
        run_cli(["sweep-sr", "--small", "c", "--instance", str(small_c), "--runs", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "c.txt.manifest.txt"]


def test_grid_spec_parsing(capsys, tmp_path):
    # bad grid syntax is a validation error, not a crash
    code = run_cli(["sweep-sr", "--small", "a", "--alpha-grid", "1:2",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    code = run_cli(["sweep-sr", "--small", "a", "--alpha-grid", "0:2:3:log",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3



@pytest.mark.parametrize("grid", ["nan,3", "3,inf", "nan:3:4", "0:-inf:3:log"])
def test_grid_rejects_non_finite_values(capsys, tmp_path, grid):
    # a NaN alpha used to integrate and report spins as labels
    csv = tmp_path / "x.csv"
    code = run_cli(["sweep-sr", "--small", "c", "--solver", "class1",
                    f"--alpha-grid={grid}", "--runs", "20", "--out", str(csv)])
    assert code == 3
    assert "--alpha-grid must be finite" in capsys.readouterr().err
    assert not csv.exists()

def test_grid_span_overflow_exits_3_without_warnings(capsys, tmp_path):
    # finite endpoints whose span overflows used to print numpy's
    # overflow and invalid-value RuntimeWarnings before the rejection
    csv = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["sweep-sr", "--small", "c", "--solver", "class1",
                        "--alpha-grid=-1.7e308:1.7e308:3", "--runs", "2",
                        "--out", str(csv)])
    assert code == 3
    err = capsys.readouterr().err
    assert "--alpha-grid must be finite" in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not csv.exists()


@pytest.mark.parametrize(
    "flag, value, code",
    [
        ("--dt", "nan", 3), ("--dt", "inf", 3), ("--dt", "-0.1", 3), ("--dt", "0", 3),
        ("--amplitude", "nan", 3), ("--amplitude", "inf", 3), ("--amplitude", "0", 3),
        ("--alpha", "nan", 3), ("--alpha", "x", 3), ("--beta", "inf", 3),
        ("--gamma", "-inf", 3),
        ("--delta", "nan", 3), ("--xi0", "inf", 3),
        ("--window", "0", 3), ("--window", "-1", 3), ("--window", "nan", 3),
        ("--steps", "-1", 3), ("--steps", "0", 3),
        ("--window", "inf", 0),  # an infinite window disables it
    ],
)
def test_solver_flags_are_validated(capsys, tmp_path, flag, value, code):
    # bad values used to run and report every trajectory as diverged;
    # class1 reads no --window, so the accepted infinite window runs class3
    csv = tmp_path / "x.csv"
    solver = "class3" if code == 0 else "class1"
    assert run_cli(["sweep-sr", "--small", "c", "--solver", solver,
                    "--alpha-grid", "3", "--runs", "20", f"{flag}={value}",
                    "--out", str(csv)]) == code
    if code:
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not csv.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["solve", "--instance", "{c}", "--runs", "0"], "--runs"),
        (["solve", "--instance", "{c}", "--runs", "-1"], "--runs"),
        (["sweep-k", "--n", "16", "--k-list", "4", "--runs", "0"], "--runs"),
        (["sweep-k", "--n", "16", "--k-max", "4", "--k-step", "0"], "--k-step"),
        (["gen", "--n", "8", "--k", "3", "--dw", "inf"], "--dw"),
        (["gen", "--n", "8", "--k", "3", "--w0", "nan"], "--w0"),
        (["sweep-k", "--n", "16", "--k-list", "4", "--dw", "nan"], "--dw"),
        (["sweep-sr", "--small", "c", "--runs", "x"], "--runs"),
        (["gen", "--n", "8", "--k", "x"], "--k"),
        (["report", "--in", "{c}", "--kind", "hist", "--k", "x"], "--k"),
        (["sweep-sr", "--small", "c", "--alpha-grid", "2", "--threads", "0"], "--threads"),
        # generator seeds are >= 0; numpy's ValueError used to escape (exit 1)
        (["gen", "--n", "8", "--k", "3", "--seed", "-1"], "seed"),
        # weights 1 + m*dw <= 0: a negative step cap diverged every run, and
        # a zero weight at K = 1 raised ZeroDivisionError (exit 1)
        (["sweep-k", "--n", "16", "--k-list", "4", "--dw", "-5"], "dw"),
        (["sweep-k", "--n", "16", "--k-list", "1", "--dw", "-1"], "dw"),
    ],
)
def test_bad_counts_and_weights_exit_3(tmp_path, small_c, capsys, args, flag):
    # zero counts and steps used to crash with a ValueError traceback; a
    # non-finite weight wrote an unloadable instance or diverged every run
    out = tmp_path / "out.txt"
    argv = [a.format(c=small_c) for a in args] + ["--out", str(out)]
    assert run_cli(argv) == 3
    assert f"error: {flag} must be" in _error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "c.txt.manifest.txt"]


# gen wrote inf couplings that solve then rejected, scan --kind dxi
# escaped as an AttributeError (exit 1), scan --kind p wrote inf cells,
# and each printed numpy's overflow warnings first
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["gen", "--n", "8", "--k", "2", "--w0", "1e308"],
    ["gen", "--n", "8", "--k", "2", "--dw", "1e308"],
    ["gen", "--n", "16", "--k", "3", "--coarse", "1e-320"],
    ["scan", "--kind", "dxi", "--values", "1e308", "--runs", "2", "--threads", "1"],
    ["scan", "--kind", "p", "--values", "1e308", "--runs", "2", "--threads", "1"],
    ["scan", "--kind", "dw", "--values=-1e308", "--runs", "2", "--threads", "1"],
], ids=["gen-w0", "gen-dw", "gen-coarse", "scan-dxi", "scan-p", "scan-dw"])
def test_non_finite_couplings_exit_3(tmp_path, capsys, trajectories, argv):
    assert run_cli(argv + ["--out", str(tmp_path / "x.out")]) == 3
    assert "couplings or planted energies are not finite" in _error_line(capsys)
    assert trajectories == []
    assert list(tmp_path.iterdir()) == []


# each used to fall back to the default grid, every K from 1 to n, or no
# beta axis, and exit 0
@pytest.mark.parametrize("argv, flag", [
    (["sweep-sr", "--small", "c", "--alpha-grid="], "--alpha-grid"),
    (["sweep-sr", "--small", "c", "--beta-grid="], "--beta-grid"),
    (["sweep-sr", "--small", "c", "--solver", "tbm", "--delta-grid=", "--xi0-grid", "0.1"],
     "--delta-grid"),
    (["sweep-sr", "--small", "c", "--solver", "tbm", "--delta-grid", "1", "--xi0-grid="],
     "--xi0-grid"),
    (["scan", "--kind", "dxi", "--values="], "--values"),
    (["sweep-k", "--n", "16", "--k-list="], "--k-list"),
    # this one exited 3 naming k_values, a library parameter
    (["sweep-k", "--n", "16", "--k-min", "5", "--k-max", "2"], "--k-min"),
])
def test_empty_grid_or_k_list_exits_3_before_any_work(tmp_path, capsys, trajectories,
                                                      argv, flag):
    argv = argv + ["--runs", "5", "--threads", "1", "--out", str(tmp_path / "x.csv")]
    assert run_cli(argv) == 3
    assert flag in _error_line(capsys)
    assert trajectories == []
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Planted instances at n = 16, the full-spectrum cap, and at n = 32."""
    d = tmp_path_factory.mktemp("planted")
    paths = {}
    for n in (16, 32):
        paths[f"n{n}"] = d / f"n{n}.inst"
        assert run_cli(["gen", "--n", str(n), "--k", "3", "--out", str(paths[f"n{n}"])]) == 0
    return paths


def _exit_code(argv) -> int:
    try:
        return run_cli(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


# each used to exit 0: sweep-k ran --k-list and ignored the K-range flag,
# oracle ignored --full-spectrum beyond n = 24, scan took an empty --id
# for the kind's default entry, and gen took a --rule that changed no byte
@pytest.mark.parametrize("argv, code, message", [
    (["sweep-k", "--n", "16", "--k-list", "4", "--k-min", "2", "--runs", "5", "--threads", "1"],
     3, "--k-min does not apply with --k-list"),
    (["sweep-k", "--n", "16", "--k-list", "4", "--k-max", "3", "--runs", "5", "--threads", "1"],
     3, "--k-max does not apply with --k-list"),
    (["sweep-k", "--n", "16", "--k-list", "4", "--k-step", "2", "--runs", "5", "--threads", "1"],
     3, "--k-step does not apply with --k-list"),
    (["oracle", "--instance", "{n32}", "--full-spectrum"],
     3, "full spectrum is capped at n = 16, got 32"),
    (["scan", "--kind", "dxi", "--id=", "--values=0", "--runs", "1", "--threads", "1"],
     2, "invalid choice: ''"),
    (["scan", "--kind", "p", "--id", "z", "--values=0", "--runs", "1", "--threads", "1"],
     2, "invalid choice: 'z'"),
    (["gen", "--n", "8", "--k", "2", "--rule", "hebb"],
     2, "unrecognized arguments: --rule hebb"),
], ids=["k-min", "k-max", "k-step", "full-spectrum-n32", "scan-empty-id", "scan-unknown-id",
        "gen-rule"])
def test_flags_that_do_not_apply_fail_before_any_work(tmp_path, capsys, trajectories, planted,
                                                      argv, code, message):
    argv = [a.format(**planted) for a in argv] + ["--out", str(tmp_path / "x.csv")]
    assert _exit_code(argv) == code
    err = _error_line(capsys) if code == 3 else capsys.readouterr().err
    assert message in err
    assert trajectories == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, printed, rows", [
    (["scan", "--kind", "p", "--values=0", "--alpha-grid", "2", "--runs", "2",
      "--threads", "1"], "scan p on f", [2]),
    (["scan", "--kind", "dw", "--id", "bstar", "--values=0.3", "--alpha-grid", "2",
      "--runs", "2", "--threads", "1"], "scan dw on b*", [2]),
    (["sweep-k", "--n", "8", "--k-min", "2", "--k-max", "4", "--k-step", "2", "--runs", "2",
      "--threads", "1"], "K values 2..4 (2)", [2, 2]),
    (["oracle", "--instance", "{n16}", "--full-spectrum"], "spectrum_size: 32768", []),
], ids=["scan-default-id", "scan-bstar", "sweep-k-range", "full-spectrum-n16"])
def test_flags_that_apply_still_run(tmp_path, capsys, trajectories, planted, argv, printed,
                                    rows):
    out = tmp_path / "x.csv"
    assert run_cli([a.format(**planted) for a in argv] + ["--out", str(out)]) == 0
    assert printed in capsys.readouterr().out
    assert trajectories == rows
    assert out.exists()


def _flag_actions():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command, p in sub.choices.items() for action in p._actions]


def test_no_flag_is_parsed_by_bare_int_or_float():
    # a bare type's ValueError is argparse's exit 2; the flag types raise
    # ValidationError, exit 3
    for command, action in _flag_actions():
        assert action.type not in (int, float), (command, action.option_strings)


@pytest.mark.parametrize("argv, config", [
    (["solve", "--instance", "c.txt"], SolverConfig(kind="I")),
    (["sweep-sr", "--small", "c", "--out", "x.csv"], SolverConfig(kind="I")),
    (["sweep-sr", "--small", "c", "--solver", "tbm", "--out", "x.csv"],
     SolverConfig(kind="TBM")),
], ids=["solve", "sweep-sr", "tbm"])
def test_solver_flags_left_out_keep_the_library_defaults(argv, config):
    assert cli._solver_config(cli._build_parser().parse_args(argv)) == config


def test_solve_reports_diverging_runs_and_exits_0(tmp_path, small_c, capsys):
    # divergence is a row label of solve, never exit 4
    out = tmp_path / "r.csv"
    assert run_cli(["solve", "--instance", str(small_c), "--alpha", "1e6",
                    "--dt", "1", "--runs", "3", "--out", str(out)]) == 0
    labels = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
    assert labels == ["diverged"] * 3


# a finite but huge coefficient overflows mid-integration; the overflow
# warnings used to escape, exit 1 with RuntimeWarning as an error
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["--beta", "1e308", "--alpha-grid", "1"],
    ["--solver", "tbm", "--delta-grid", "1e308", "--xi0-grid", "1e308"],
], ids=["beta", "tbm"])
def test_integrator_overflow_counts_as_diverged(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-sr", "--small", "c", *argv, "--runs", "2", "--threads", "1",
                    "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["diverged"] == cells["label:diverged"] == "2"


def test_sweep_k_all_diverged_names_k_and_exits_3(tmp_path, capsys, monkeypatch):
    # used to print numpy's "Mean of empty slice" warning and then fail
    # with a histogram message that named neither K nor the divergence;
    # NaN initial states make every run diverge
    monkeypatch.setattr(bench, "initial_states",
                        lambda n, amplitude, seeds: np.full((len(seeds), n), np.nan))
    out = tmp_path / "k.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["sweep-k", "--n", "16", "--k-list", "4",
                        "--runs", "5", "--threads", "1", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "K=4" in err and "all 5 runs diverged" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_k_unbinnable_energies_exit_3(tmp_path, capsys):
    # at weights near 1e300 every run ends on one energy that lo +- 0.5
    # rounds back to; numpy's "Too many bins" ValueError escaped (exit 1)
    assert run_cli(["sweep-k", "--n", "16", "--k-list", "4", "--dw", "1e300",
                    "--runs", "20", "--threads", "1", "--out", str(tmp_path / "k.csv")]) == 3
    assert "K=4: cannot bin energies" in _error_line(capsys)
    assert list(tmp_path.iterdir()) == []


def test_sweep_k_rejects_k_below_one(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert run_cli(["sweep-k", "--n", "16", "--k-min", "-3", "--k-max", "2",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "k must be >= 1" in err and "at most" not in err
    assert not out.exists()


def test_sweep_k_checks_every_k_before_any_work(tmp_path, capsys, trajectories):
    # K = 4 used to be integrated before K = 17 failed
    assert run_cli(["sweep-k", "--n", "16", "--k-list", "4,17", "--runs", "5",
                    "--threads", "1", "--out", str(tmp_path / "k.csv")]) == 3
    assert "at most n=16 mutually orthogonal patterns exist, got k=17" in _error_line(capsys)
    assert trajectories == []
    assert list(tmp_path.iterdir()) == []


def test_scan_subcommand(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code = run_cli(["scan", "--kind", "dxi", "--values=-2,0",
                    "--alpha-grid", "2:6:3", "--runs", "20", "--seed", "2",
                    "--threads", "1", "--out", str(csv)])
    assert code == 0
    header = csv.read_text().splitlines()[0].split(",")
    assert header[:2] == ["dxi", "alpha"]
    assert "scan dxi on c" in capsys.readouterr().out


def test_scan_without_values_runs_the_default_grid(tmp_path, capsys, trajectories):
    csv = tmp_path / "scan.csv"
    assert run_cli(["scan", "--kind", "dxi", "--alpha-grid", "2", "--runs", "2",
                    "--threads", "1", "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    dxi = [float(line.split(",")[0]) for line in lines[1:]]
    assert dxi == [float(v) for v in np.linspace(-2.0, 0.0, 21)]
    assert trajectories == [2] * 21
    assert "grid (21, 1)" in capsys.readouterr().out


def test_sweep_sr_tbm_needs_both_grids(tmp_path, capsys, trajectories):
    assert run_cli(["sweep-sr", "--small", "c", "--solver", "tbm", "--delta-grid", "4.6",
                    "--runs", "2", "--threads", "1", "--out", str(tmp_path / "x.csv")]) == 3
    assert "tbm sweeps need --delta-grid and --xi0-grid" in _error_line(capsys)
    assert trajectories == []
    assert list(tmp_path.iterdir()) == []


def test_sweep_sr_on_an_instance_without_patterns(tmp_path, capsys):
    # no pattern set: every run is unlabelled, no band is counted, and a
    # hit is a run ending at the brute-force ground energy
    coupling = build_couplings(catalogue_pattern_set("a")).coupling
    bare = Instance(coupling=coupling, pattern_set=None, label="bare-a")
    path = tmp_path / "bare.inst"
    save_instance(bare, path)
    csv = tmp_path / "sr.csv"
    alphas = (1.0, 3.0, 6.0)
    assert run_cli(["sweep-sr", "--instance", str(path), "--alpha-grid", "1,3,6",
                    "--runs", "40", "--seed", "4", "--threads", "1", "--out", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    ground = brute_force(bare).ground_energy
    total_hits = 0
    for index, (alpha, line) in enumerate(zip(alphas, rows)):
        cells = dict(zip(header.split(","), line.split(",")))
        assert int(cells["n_runs"]) == int(cells["label:unlabelled"]) == 40
        assert all(int(v) == 0 for k, v in cells.items() if k.startswith("band:"))
        seeds = bench.derive_seeds(4, index, count=40)
        cfg = SolverConfig(kind="I", alpha=alpha)
        outcomes = run_batch(bare, cfg, initial_states(8, cfg.init_amplitude, seeds))
        hits = sum(abs(o.final_energy - ground) <= 1e-9 * abs(ground) for o in outcomes)
        assert int(cells["hits"]) == hits
        total_hits += hits
    assert total_hits > 0


def test_sweep_sr_beyond_brute_force_needs_patterns(tmp_path, planted, capsys, trajectories):
    inst = load_instance(planted["n32"])
    bare = tmp_path / "bare.inst"
    save_instance(Instance(coupling=inst.coupling, pattern_set=None, label="bare-32"), bare)
    csv = tmp_path / "sr.csv"
    assert run_cli(["sweep-sr", "--instance", str(bare), "--alpha-grid", "1", "--runs", "2",
                    "--threads", "1", "--out", str(csv)]) == 3
    assert "a ground state beyond brute force needs a planted instance" in _error_line(capsys)
    assert trajectories == []
    assert not csv.exists()


def test_oracle_beyond_the_brute_force_cap(planted, capsys):
    assert run_cli(["oracle", "--instance", str(planted["n32"]), "--eig"]) == 0
    out = capsys.readouterr().out
    assert "ground_energy: (n beyond brute-force cap 24)" in out
    assert "lambda_max:" in out


def test_sweep_k_and_all_report_kinds(tmp_path, capsys):
    kcsv = tmp_path / "k.csv"
    code = run_cli(["sweep-k", "--n", "16", "--k-list", "1,2,4",
                    "--runs", "25", "--seed", "0", "--threads", "1",
                    "--out", str(kcsv)])
    assert code == 0
    hist = tmp_path / "k.hist.csv"
    assert hist.exists()
    assert run_cli(["report", "--in", str(hist), "--kind", "hist",
                    "--k", "4", "--out", str(tmp_path / "h.svg")]) == 0
    assert run_cli(["report", "--in", str(kcsv), "--kind", "measure",
                    "--out", str(tmp_path / "m.svg")]) == 0


def test_sweep_k_rejects_unparsable_k_list(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert run_cli(["sweep-k", "--n", "16", "--k-list", "2,x",
                    "--out", str(out)]) == 3
    assert "cannot parse K list" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_k_rejects_repeated_k(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert run_cli(["sweep-k", "--n", "16", "--k-list", "4,4", "--runs", "5",
                    "--out", str(out)]) == 3
    assert "K values repeat: [4]" in _error_line(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind, text", [
    ("heatmap", "alpha,sr\n1,0.5\n"),
    ("measure", "k,n_runs,band:1\n40,3,3\n"),
])
def test_report_k_only_with_hist(tmp_path, capsys, kind, text):
    # --k used to be ignored by the other kinds
    src = tmp_path / "in.csv"
    src.write_text(text)
    out = tmp_path / "x.svg"
    assert run_cli(["report", "--in", str(src), "--kind", kind, "--k", "3",
                    "--out", str(out)]) == 3
    assert "--k applies only to --kind hist" in _error_line(capsys)
    assert not out.exists()


def test_report_empty_csv_writes_nothing(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("alpha,sr\n")
    out = tmp_path / "x.svg"
    assert run_cli(["report", "--in", str(src), "--kind", "heatmap",
                    "--out", str(out)]) == 3
    assert not out.exists()


HIST_HEADER = "k,left,right,log_density_shifted,smoothed_density,planted_min,planted_max\n"


@pytest.mark.parametrize("kind, text", [
    ("heatmap", "alpha,sr\nx,0.5\n"),
    ("heatmap", "alpha,sr\n1\n"),
    ("heatmap", "alpha,sr\n1,nan\n"),
    ("heatmap", "delta,xi0,sr\n1,2,0.5\n1,oops,0.5\n"),
    ("heatmap", "delta,xi0,sr\n1,2\n"),
    ("hist", HIST_HEADER + "40,0,1,-2,0.1,x,1\n"),
    ("hist", HIST_HEADER + "40,0,1\n"),
    ("hist", HIST_HEADER + "4.5,0,1,-2,0.1,-1,1\n"),
    ("measure", "k,n_runs,band:1\n40,abc,3\n"),
    ("measure", "k,n_runs,band:1\n40\n"),
    ("measure", "k,n_runs,band:1\n40,3,3.0\n"),
])
def test_report_malformed_cells_exit_3(tmp_path, capsys, kind, text):
    src = tmp_path / "bad.csv"
    src.write_text(text)
    out = tmp_path / "x.svg"
    assert run_cli(["report", "--in", str(src), "--kind", kind,
                    "--out", str(out)]) == 3
    assert not out.exists()
    assert "CSV" in capsys.readouterr().err


# a repeated grid point used to keep its last sr, and a repeated x or K
# to draw two cells or columns
@pytest.mark.parametrize("kind, text, message", [
    ("heatmap", "delta,xi0,sr\n1,1,0.5\n1,2,0.6\n1,1,0.9\n",
     "grid points repeat: [(1.0, 1.0)]"),
    ("heatmap", "alpha,sr\n1,0.5\n2,0.6\n1,0.9\n", "alpha values repeat: [1.0]"),
    ("measure", "k,n_runs,band:1\n40,3,3\n41,3,3\n40,3,3\n", "K values repeat: [40]"),
], ids=["heatmap-point", "heatmap-x", "measure-k"])
def test_report_repeated_key_row_exits_3(tmp_path, capsys, kind, text, message):
    src = tmp_path / "rep.csv"
    src.write_text(text)
    out = tmp_path / "x.svg"
    assert run_cli(["report", "--in", str(src), "--kind", kind, "--out", str(out)]) == 3
    assert message in _error_line(capsys)
    assert not out.exists()


def test_report_wrong_schema_exits_3(tmp_path, capsys):
    src = tmp_path / "odd.csv"
    src.write_text("foo,bar\n1,2\n")
    assert run_cli(["report", "--in", str(src), "--kind", "heatmap",
                    "--out", str(tmp_path / "x.svg")]) == 3
    assert run_cli(["report", "--in", str(src), "--kind", "hist",
                    "--out", str(tmp_path / "x.svg")]) == 3
    assert run_cli(["report", "--in", str(src), "--kind", "measure",
                    "--out", str(tmp_path / "x.svg")]) == 3


@pytest.mark.parametrize("kind, text, flags, message", [
    ("heatmap", "a,b,c,sr\n1,2,3,0.5\n", [], "heatmap input needs one or two axis columns"),
    ("heatmap", "delta,xi0,sr\n1,1,0.5\n1,2,0.6\n2,1,0.7\n", [],
     "heatmap input is not a full grid"),
    ("hist", HIST_HEADER + "40,0,1,-2,0.1,-1,1\n", ["--k", "41"], "no rows for k=41"),
    ("measure", "k,n_runs\n40,3\n", [], "measure input has no band:* columns"),
    ("measure", "k,n_runs,band:1,band:above\n40,3,1,1\n", [],
     "band counts of each row must sum to n_runs"),
], ids=["three-axes", "partial-grid", "hist-no-k", "no-bands", "band-sum"])
def test_report_inconsistent_table_exits_3(tmp_path, capsys, kind, text, flags, message):
    src = tmp_path / "odd.csv"
    src.write_text(text)
    out = tmp_path / "x.svg"
    assert run_cli(["report", "--in", str(src), "--kind", kind, *flags,
                    "--out", str(out)]) == 3
    assert message in _error_line(capsys)
    assert not out.exists()


# ---------------------------------------------------------------------------
# manifests and replay


def read_manifest_argv(path):
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("argv: "):
            return shlex.split(line[len("argv: "):])
    raise AssertionError("no argv line in manifest")


def test_manifest_replay_reproduces_bytes(tmp_path, capsys):
    # the second output directory holds a space, which the argv line quotes
    for out_dir in (tmp_path, tmp_path / "with space"):
        out_dir.mkdir(exist_ok=True)
        csv = out_dir / "sweep.csv"
        args = ["sweep-sr", "--small", "b", "--alpha-grid", "1:6:3",
                "--runs", "20", "--seed", "7", "--threads", "2",
                "--out", str(csv)]
        assert run_cli(args) == 0
        first = csv.read_bytes()
        meta_first = (out_dir / "sweep.csv.meta.txt").read_bytes()
        replay = read_manifest_argv(str(csv) + ".manifest.txt")
        assert replay == args
        # replay under a different worker count: bytes must not change
        replay[replay.index("--threads") + 1] = "1"
        assert run_cli(replay) == 0
        assert csv.read_bytes() == first
        assert (out_dir / "sweep.csv.meta.txt").read_bytes() == meta_first


def test_manifest_records_input_digest(tmp_path, small_c, capsys):
    out = tmp_path / "runs.csv"
    assert run_cli(["solve", "--instance", str(small_c), "--runs", "2",
                    "--out", str(out)]) == 0
    text = Path(str(out) + ".manifest.txt").read_text(encoding="utf-8")
    assert f"input: {small_c} blake2b=" in text


# each command, the inputs it reads (written beside it in a separate
# directory) and the files it writes besides its manifest
@pytest.mark.parametrize("argv, inputs, outputs", [
    (["gen", "--n", "16", "--k", "3", "--out", "{out}/x.inst"], [], ["x.inst"]),
    (["gen-small", "--id", "c", "--out", "{out}/x.inst"], [], ["x.inst"]),
    (["solve", "--instance", "{in}/c.txt", "--runs", "2", "--out", "{out}/x.csv"],
     ["c.txt"], ["x.csv"]),
    (["oracle", "--instance", "{in}/c.txt", "--out", "{out}/x.txt"], ["c.txt"], ["x.txt"]),
    (["sweep-sr", "--instance", "{in}/c.txt", "--alpha-grid", "2", "--runs", "5",
      "--threads", "1", "--out", "{out}/x.csv"], ["c.txt"], ["x.csv", "x.csv.meta.txt"]),
    (SCAN + ["{out}/x.csv"], [], ["x.csv", "x.csv.meta.txt"]),
    (SWEEP_K + ["{out}/x.csv"], [], ["x.csv", "x.hist.csv"]),
    (["report", "--in", "{in}/sr.csv", "--kind", "heatmap", "--out", "{out}/x.svg"],
     ["sr.csv"], ["x.svg"]),
], ids=["gen", "gen-small", "solve", "oracle", "sweep-sr", "scan", "sweep-k", "report"])
def test_manifest_lists_exactly_the_files_read_and_written(tmp_path, capsys, argv, inputs,
                                                           outputs):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    assert run_cli(["gen-small", "--id", "c", "--out", str(in_dir / "c.txt")]) == 0
    (in_dir / "sr.csv").write_text("alpha,sr\n1,0.5\n2,1\n")
    argv = [a.format(**{"in": in_dir, "out": out_dir}) for a in argv]
    assert run_cli(argv) == 0
    manifest = out_dir / (outputs[0] + ".manifest.txt")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert f"command: {argv[0]}" in lines
    listed = {}
    for line in lines:
        kind, _, rest = line.partition(": ")
        if kind in ("input", "output"):
            path, digest = rest.rsplit(" blake2b=", 1)
            listed.setdefault(kind, []).append(path)
            assert digest == cli._digest(path)
    assert listed.get("input", []) == [str(in_dir / name) for name in inputs]
    assert listed["output"] == [str(out_dir / name) for name in outputs]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        outputs + [manifest.name])

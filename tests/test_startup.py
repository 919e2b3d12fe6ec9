"""Start-up: which invocations import numpy, and the names cli binds.

report, --version and usage errors start without numpy or the numeric
modules of the package: every other command imports what it uses when
it runs.  plantbench.cli binds two numeric names, build_couplings and
catalogue_pattern_set, as forwarders that the commands call by bare
name, so a wrapper installed on plantbench.cli before main runs is
called.
"""

import argparse
import re
import subprocess
import sys

import pytest

from plantbench import CATALOGUE, bench, cli, instance
from plantbench.cli import main

HIST_CSV = ("k,left,right,log_density_shifted,smoothed_density,planted_min,planted_max\n"
            "40,0,1,-2,0.1,-1,1\n")
NUMERIC = re.compile(r"\|\s+(numpy|plantbench\.(bench|dynamics|energy|instance|oracle))\b")


def _imports(tmp_path, *args):
    """Exit code and the numeric modules a fresh `python -X importtime` imported."""
    args = [a.format(dir=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, sorted({m.group(1) for m in NUMERIC.finditer(proc.stderr)})


@pytest.mark.parametrize("argv, code", [
    (["-c", "import plantbench.cli"], 0),
    (["-c", "from plantbench import cli"], 0),
    (["-m", "plantbench.cli", "--version"], 0),
    (["-m", "plantbench.cli", "gen", "--n", "16"], 2),
    (["-m", "plantbench.cli", "report", "--in", "{dir}/sr.csv", "--kind", "heatmap",
      "--out", "{dir}/sr.svg"], 0),
    (["-m", "plantbench.cli", "report", "--in", "{dir}/k.csv", "--kind", "measure",
      "--out", "{dir}/m.svg"], 0),
    (["-m", "plantbench.cli", "report", "--in", "{dir}/k.hist.csv", "--kind", "hist",
      "--k", "40", "--out", "{dir}/h.svg"], 0),
], ids=["import-cli", "from-import-cli", "version", "usage-error", "report-heatmap", "report-measure",
        "report-hist"])
def test_start_up_imports_no_numpy(tmp_path, argv, code):
    (tmp_path / "sr.csv").write_text("alpha,sr\n1,0.5\n2,1\n")
    (tmp_path / "k.csv").write_text("k,n_runs,band:1,band:above\n40,3,2,1\n")
    (tmp_path / "k.hist.csv").write_text(HIST_CSV)
    assert _imports(tmp_path, *argv) == (code, [])


def test_importing_cli_loads_no_openssl():
    # hashlib loads OpenSSL's _hashlib; only writing a manifest needs it
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, plantbench.cli; print('_hashlib' in sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_importing_energy_loads_no_fractions():
    # band_label writes a float's exact ratio, so energy needs no Fraction
    # (fractions imports decimal)
    proc = subprocess.run([sys.executable, "-c", "import sys, plantbench.energy; "
                           "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_a_sweep_still_imports_numpy(tmp_path):
    # the control for the test above: the pattern does see numpy imports
    code, modules = _imports(tmp_path, "-m", "plantbench.cli", "gen-small", "--id", "c")
    assert code == 0 and "numpy" in modules


def test_cli_binds_only_the_two_builders(monkeypatch):
    for name in ("build_couplings", "catalogue_pattern_set"):
        monkeypatch.setattr(instance, name, lambda *args, **kwargs: (args, kwargs))
        assert getattr(cli, name)("c", label="x") == (("c",), {"label": "x"})
    for name in ("bench", "oracle", "run_batch", "load_instance", "SolverConfig"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


def test_main_keeps_a_wrapper_set_on_cli(monkeypatch, tmp_path, capsys):
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return instance.catalogue_pattern_set(*args, **kwargs)

    monkeypatch.setattr(cli, "catalogue_pattern_set", wrapper)
    assert main(["sweep-sr", "--small", "a", "--alpha-grid", "2", "--runs", "3",
                 "--threads", "1", "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == [("a",)]
    assert cli.catalogue_pattern_set is wrapper


def _choices(command: str, dest: str):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_parser_choices_match_the_package_tables():
    assert _choices("gen-small", "id") == sorted(CATALOGUE)
    assert _choices("sweep-sr", "small") == sorted(CATALOGUE)
    assert _choices("scan", "kind") == list(cli._SCAN_KINDS)
    for name, _ in cli._SCAN_KINDS.values():
        assert name in bench.__all__

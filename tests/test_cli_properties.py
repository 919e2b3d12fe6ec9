"""Every argument vector ends in exit 0, 2 or 3, never a traceback.

One strategy per subcommand draws flags from extreme and malformed
values (1e308, 1e-320, nan, inf, 0, -1, unparsable text) at sizes that
keep each call cheap: n <= 16, at most 3 runs, at most 20 solver steps,
and always --threads 1.  A numpy RuntimeWarning is an error.  Exit 3
prints exactly one "error:" line and leaves no file; exit 0 writes only
finite numbers into its CSV files.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plantbench.cli import main

SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# each list ends with values that every flag parser rejects
NUMBERS = st.sampled_from(["1", "0.5", "3", "0", "-1", "1e-320", "1e308", "-1e308",
                           "nan", "inf", "-inf", "x"])
COUNTS = st.sampled_from(["1", "2", "3", "0"])
STEPS = st.sampled_from(["1", "5", "20", "0"])
IDS = st.sampled_from(["a", "b", "bstar", "c", "d", "e", "f", "z"])
SIZES = st.sampled_from(["2", "4", "8", "16", "1", "3", "0", "-1"])
KS = st.sampled_from([str(k) for k in range(1, 9)] + ["0", "-1", "17"])


def _flag(name, values):
    """[name=value] with the value drawn from values."""
    return values.map(lambda v: [f"{name}={v}"])


def _optional(name, values=None):
    """Nothing, or name (with a value when values is given)."""
    present = st.just([name]) if values is None else _flag(name, values)
    return st.one_of(st.just([]), present)


def _concat(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


_POINT = st.one_of(NUMBERS, st.integers(-2, 4).map(str))
GRIDS = st.one_of(
    st.lists(_POINT, min_size=1, max_size=2).map(",".join),
    st.tuples(_POINT, _POINT, COUNTS, st.sampled_from(["", ":log"])).map(
        lambda t: f"{t[0]}:{t[1]}:{t[2]}{t[3]}"
    ),
)


def _some(names, values, most):
    """Up to most of the flags names, each with a value drawn from values."""
    chosen = st.lists(st.sampled_from(names), unique=True, max_size=most)
    return chosen.flatmap(lambda picked: _concat(*[_flag(name, values) for name in picked]))


SOLVERS = st.sampled_from(["class1", "class3", "tbm"])


def _solver_flags():
    """--steps, and some of the other solver flags except --solver."""
    return _concat(
        _some(["--alpha", "--beta", "--gamma", "--delta", "--xi0", "--dt", "--window",
               "--amplitude"], NUMBERS, 3),
        _optional("--nonlinearity", st.sampled_from(["tanh", "sign", "identity-clip"])),
        _flag("--steps", STEPS),
    )


def _commands(files):
    """One strategy per subcommand; {out} stands for the output directory."""
    instances = st.sampled_from(files["instances"])
    out = st.just("{out}/x.csv")
    return {
        "gen": _concat(
            st.just(["gen"]),
            _flag("--n", SIZES), _flag("--k", KS),
            _some(["--w0", "--dw", "--coarse"], NUMBERS, 2),
            _optional("--seed", st.sampled_from(["5", "0", "-1"])),
            _optional("--rule", st.sampled_from(["hebb", "pseudoinverse"])),
            _flag("--out", st.just("{out}/x.inst")),
        ),
        "gen-small": _concat(
            st.just(["gen-small"]), _flag("--id", IDS), _optional("--literal-weights"),
            _optional("--out", st.just("{out}/x.inst")),
        ),
        "solve": _concat(
            st.just(["solve"]), _flag("--instance", instances),
            _optional("--solver", SOLVERS), _solver_flags(),
            _flag("--runs", COUNTS), _optional("--seed", st.sampled_from(["0", "-1", "7"])),
            _optional("--out", out),
        ),
        "oracle": _concat(
            st.just(["oracle"]), _flag("--instance", instances),
            _optional("--full-spectrum"), _optional("--eig"),
            _optional("--out", st.just("{out}/x.txt")),
        ),
        # with the grid flags its solver uses; tbm needs both of its grids
        "sweep-sr": SOLVERS.flatmap(lambda solver: _concat(
            st.just(["sweep-sr", f"--solver={solver}"]),
            st.one_of(_flag("--small", IDS), _flag("--instance", instances)),
            _solver_flags(),
            *([_flag("--delta-grid", GRIDS), _flag("--xi0-grid", GRIDS)] if solver == "tbm"
              else [_optional("--alpha-grid", GRIDS), _optional("--beta-grid", GRIDS)]),
            _flag("--runs", COUNTS), st.just(["--threads=1"]), _flag("--out", out),
        )),
        "scan": _concat(
            st.just(["scan"]), _flag("--kind", st.sampled_from(["dxi", "dw", "p"])),
            _optional("--id", IDS), _flag("--values", GRIDS), _flag("--alpha-grid", GRIDS),
            _flag("--runs", COUNTS), st.just(["--threads=1"]), _flag("--out", out),
        ),
        "sweep-k": _concat(
            st.just(["sweep-k"]),
            _flag("--n", SIZES),
            st.one_of(
                _flag("--k-list", st.lists(KS, min_size=1, max_size=2).map(",".join)),
                _concat(_optional("--k-min", KS), _optional("--k-max", KS),
                        _optional("--k-step", st.sampled_from(["1", "5", "0"]))),
            ),
            _optional("--dw", NUMBERS), _flag("--runs", COUNTS), st.just(["--threads=1"]),
            _flag("--out", out),
        ),
        "report": _concat(
            st.just(["report"]), _flag("--in", st.sampled_from(files["csvs"])),
            _flag("--kind", st.sampled_from(["heatmap", "hist", "measure"])),
            _optional("--k", st.sampled_from(["1", "2", "x"])),
            _flag("--out", st.just("{out}/x.svg")),
        ),
    }


def _code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Instance and report inputs for the commands that read files."""
    d = tmp_path_factory.mktemp("inputs")
    made = [
        ["gen-small", "--id", "c", "--out", f"{d}/c.inst"],
        ["gen", "--n", "16", "--k", "3", "--dw", "0.1", "--out", f"{d}/n16.inst"],
        ["gen", "--n", "16", "--k", "16", "--coarse", "0.5", "--out", f"{d}/full.inst"],
        ["sweep-sr", "--small", "a", "--alpha-grid", "1,3", "--beta-grid", "1,2",
         "--runs", "2", "--steps", "20", "--threads", "1", "--out", f"{d}/sr.csv"],
        ["sweep-k", "--n", "8", "--k-list", "1,2", "--runs", "2", "--threads", "1",
         "--out", f"{d}/k.csv"],
    ]
    for argv in made:
        assert _code(argv)[0] == 0, argv
    (d / "typo.inst").write_text("format_version: 1\nlable: t\nn: 2\n"
                                 "coupling:\n0.0 1.0\n1.0 0.0\n")
    (d / "junk.csv").write_text("alpha,sr\n1,nan\n")
    instances = ["c.inst", "n16.inst", "full.inst", "typo.inst", "missing.inst"]
    csvs = ["sr.csv", "k.csv", "k.hist.csv", "junk.csv", "missing.csv"]
    return {"instances": [f"{d}/{f}" for f in instances],
            "csvs": [f"{d}/{f}" for f in csvs]}


def _finite_cells(path: Path) -> bool:
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # a label such as planted:1
                continue
            if not math.isfinite(value):
                return False
    return True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["gen", "gen-small", "solve", "oracle", "sweep-sr",
                                     "scan", "sweep-k", "report"])
def test_every_argv_exits_0_2_or_3(files, command):
    @SETTINGS
    @given(argv=_commands(files)[command])
    def check(argv):
        with tempfile.TemporaryDirectory() as out:
            code, err = _code([a.replace("{out}", out) for a in argv])
            written = sorted(Path(out).iterdir())
            assert code in (0, 2, 3), (argv, code, err)
            if code == 3:
                assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
            if code != 0:
                assert written == [], (argv, written)
            for path in written:
                if path.suffix == ".csv":
                    assert _finite_cells(path), (argv, path.read_text())

    check()

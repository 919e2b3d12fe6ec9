"""Command-line front end.

Subcommands: gen, gen-small, solve, oracle, sweep-sr, scan, sweep-k,
report.  Every invocation that writes files also writes a manifest
(<first output>.manifest.txt) recording the tool version, the exact
argument vector, input-file digests, and output digests; re-running
the recorded argv reproduces every output byte for byte, including
SVGs and independent of --threads.  Each subparser declares the files
its command writes as a function of --out; main checks them and the
manifest path before the command runs and writes every manifest after
it returns, recording the input files the command reports it read.

Grids are given as "lo:hi:num", "lo:hi:num:log", or an explicit comma
list "0.1,0.2,0.4"; empty grids, nan and inf values, and specs asking
for more than MAX_GRID_POINTS points are rejected.  Worker count comes
from --threads, else the number of CPUs the process may run on.  With
more than one worker, and none of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS set, main sets all three to the cores / workers
share (at least 1) for the command's run, so that workers times BLAS
threads do not exceed the cores; it cannot once numpy is loaded.  The
catalogue id b* may also be spelled bstar.

Each numeric, grid and K-list flag is parsed and range-checked once, by
its argparse type, so a bad value fails before any output check or
work.  A solver flag left out keeps the SolverConfig default, and one
that --solver does not read (dynamics._READS), or whose value a sweep
axis sets, fails; so does a sweep-k K-range flag next to --k-list.

Exit codes: 0 success, 2 usage error (unknown or missing flag, invalid
choice, sweep-sr without exactly one of --instance and --small), 3
validation error: every rejection the package makes is a
ValidationError (unparsable, out-of-range or unread flag values, bad,
unreadable or unwritable files, repeated instance keys or report rows,
unsupported sizes, couplings or planted energies that are not
finite), and main prints it as one "error:" line.  An allocation the
process cannot make (a MemoryError, from this process or a worker)
exits 3 with one "error: out of memory" line too, followed by numpy's
text naming the size and shape when there is one.  Diverging runs are
data: solve labels them "diverged" and the sweeps count them.

Each command imports the numeric modules it uses when it runs, so
report, --version and usage errors run without importing numpy.  A
"lo:hi:num" grid loads numpy as the parser reads it, so a usage error
on an argument vector that holds one may load numpy too.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import sys
from functools import partial
from typing import TYPE_CHECKING

from . import __version__, render
from .errors import ValidationError
from .textio import (
    CATALOGUE,
    _check_finite,
    _check_writable,
    _finite,
    _int,
    _no_repeats,
    _number,
    _positive,
    _read_text,
    _utf8,
    _write_text,
)

if TYPE_CHECKING:
    from .dynamics import SolverConfig
    from .instance import Instance, PatternSet

__all__ = ["main"]

MAX_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# The two numeric names bound here: perfbench/tracer.py wraps them on this
# module, so the commands call them by bare name (ROADMAP item 2).  Every
# other numeric name is imported inside the command that uses it.


def build_couplings(*args, **kwargs) -> Instance:
    from .instance import build_couplings

    return build_couplings(*args, **kwargs)


def catalogue_pattern_set(*args, **kwargs) -> PatternSet:
    from .instance import catalogue_pattern_set

    return catalogue_pattern_set(*args, **kwargs)


# ---------------------------------------------------------------------------
# helpers


def _parse_grid(text: str, what: str = "grid") -> tuple[float, ...]:
    text = text.strip()
    if "," in text or ":" not in text:
        try:
            values = tuple(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise ValidationError(f"cannot parse {what} value list {text!r}") from None
    else:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValidationError(f"{what} spec {text!r} must be lo:hi:num[:log]")
        try:
            lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"cannot parse {what} spec {text!r}") from None
        for v in (lo, hi):
            _check_finite(v, what)
        if not 1 <= num <= MAX_GRID_POINTS:
            raise ValidationError(f"{what} needs 1 to {MAX_GRID_POINTS} points, got {num}")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValidationError(f"unknown {what} scale {parts[3]!r}; only 'log'")
            if lo <= 0 or hi <= 0:
                raise ValidationError(f"log {what} needs positive endpoints")
        import numpy as np  # imported here, like every numeric module of cli

        spaced = np.geomspace if len(parts) == 4 else np.linspace
        # an overflowing span warns here; _check_finite below rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            values = tuple(float(v) for v in spaced(lo, hi, num))
    if not values:
        raise ValidationError(f"{what} {text!r} is empty")
    # finite endpoints can still overflow the step, as in 1e308:-1e308:3
    for v in values:
        _check_finite(v, what)
    return values


def _k_list(text: str, what: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ks = []
    if not ks:
        raise ValidationError(f"{what}: cannot parse K list {text!r}")
    return ks


def _window(text: str, what: str) -> float:
    """A derivative window > 0; inf switches the window off."""
    value = _number(text, what)
    if not value > 0:
        raise ValidationError(f"{what} must be > 0, got {text!r}")
    return value


def _catalogue_id(text: str) -> str:
    """Argparse type for catalogue ids: bstar is a shell-safe b*."""
    return "b*" if text == "bstar" else text


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # honours taskset and cgroup cpusets
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads(args) -> int:
    """--threads, else the number of CPUs this process may run on."""
    return args.threads or _cpus()


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_share(environ, workers: int, cores: int) -> dict[str, str]:
    """The BLAS thread variables that keep workers x BLAS threads <= cores.

    Empty when one worker runs (it may use every core) or when any of
    them is set already: the user's value wins.
    """
    if workers == 1 or any(name in environ for name in _BLAS_VARS):
        return {}
    return dict.fromkeys(_BLAS_VARS, str(max(1, cores // workers)))


def _digest(path: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(first_output: str) -> str:
    return first_output + ".manifest.txt"


def _check_outputs(argv: list[str], *outputs: str) -> None:
    """Fail on an unwritable output or manifest before the command does its work."""
    manifest = _manifest_path(outputs[0])
    _utf8(manifest, shlex.join(argv))  # the manifest records argv
    _check_writable(*outputs, manifest)


def _write_manifest(command: str, argv: list[str], inputs: list[str], outputs: list[str]):
    lines = [
        "format: plantbench-manifest 1",
        f"tool_version: {__version__}",
        f"command: {command}",
        "argv: " + shlex.join(argv),
    ]
    for path in inputs:
        lines.append(f"input: {path} blake2b={_digest(path)}")
    for path in outputs:
        lines.append(f"output: {path} blake2b={_digest(path)}")
    _write_text(_manifest_path(outputs[0]), "\n".join(lines) + "\n")


def _print_spectrum(inst: Instance) -> None:
    spec, ps = inst.spectrum, inst.pattern_set
    print(f"planted energies: e_min={spec.e_min!r} e_max={spec.e_max!r}")
    if ps.k <= 32:
        for m, e in enumerate(spec.energies, start=1):
            print(f"  pattern {m}: E={float(e)!r} weight={float(ps.weights[m - 1])!r}")


def _spins_text(spins) -> str:
    return "".join("+" if s > 0 else "-" for s in spins)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed flags and the output paths its
# subparser declares, and returns the input files it read


def _cmd_gen(args, out) -> list[str]:
    from .instance import coarse_grain, generate_orthogonal_patterns, save_instance

    ps = generate_orthogonal_patterns(args.n, args.k, seed=args.seed, w0=args.w0, dw=args.dw)
    inst = build_couplings(ps, label=f"orthogonal-n{args.n}-k{args.k}")
    if args.coarse is not None:
        inst = coarse_grain(inst, args.coarse)
    save_instance(inst, out)
    _print_spectrum(inst)
    return []


def _cmd_gen_small(args, out=None) -> list[str]:
    from .instance import save_instance

    ps = catalogue_pattern_set(args.id, literal_weights=args.literal_weights)
    inst = build_couplings(ps, label=f"small-{args.id}")
    dists, cat_dw, _ = CATALOGUE[args.id]
    # Distances around the pattern cycle 1..k..1: (d12, d23, d13) for
    # three patterns, (d12, d23, d34, d14) for four.
    cyc = tuple(dists[i][(i + 1) % ps.k] for i in range(ps.k))
    print(f"catalogue {args.id}: distances {cyc} dw={cat_dw!r}")
    _print_spectrum(inst)
    if out is not None:
        save_instance(inst, out)
    return []


# Kind II (scheduled coefficients) is library-only: the CLI cannot set a
# schedule, and with constant coefficients kind II is class1 bit for bit.
_SOLVER_KINDS = {"class1": "I", "class3": "III", "tbm": "TBM"}

# Each solver flag and the SolverConfig field it sets: a flag applies to
# a --solver whose kind reads that field (dynamics._READS), and a
# sweep-sr --<name>-grid needs <name> in bench._SOLVER_AXES.
_FIELDS = {"--alpha": "alpha", "--beta": "beta", "--nonlinearity": "nonlinearity",
           "--dt": "dt", "--steps": "max_steps", "--amplitude": "init_amplitude",
           "--gamma": "gamma", "--window": "derivative_window", "--delta": "delta",
           "--xi0": "xi0"}


def _solver_config(args, axes: tuple[str, ...] = ()) -> SolverConfig:
    """The solver the flags name; fails on a flag it does not read or that axes set."""
    from .dynamics import _READS, SolverConfig

    kind = _SOLVER_KINDS[args.solver]
    given = {}
    for name, field in _FIELDS.items():
        value = getattr(args, name[2:])
        if value is not None:
            if field not in _READS[kind] or field in axes:
                raise ValidationError(f"{name} does not apply to --solver {args.solver}")
            given[field] = value
    return SolverConfig(kind=kind, **given)


def _cmd_solve(args, out=None) -> list[str]:
    from . import bench
    from .dynamics import CONVERGED, initial_states, run_batch
    from .instance import load_instance

    cfg = _solver_config(args)
    inst = load_instance(args.instance)
    seeds = bench._block_seeds(inst.n, args.seed, "solve", count=args.runs)
    x0 = initial_states(inst.n, cfg.init_amplitude, seeds)
    batch = run_batch(inst, cfg, x0)
    rows = zip(seeds.tolist(), batch.energies.tolist(), batch.labels,
               batch.steps.tolist(), (batch.status == CONVERGED).tolist())
    lines = ["seed,energy,label,steps,converged"]
    lines += [f"{seed},{energy!r},{label.short()},{steps},{'true' if converged else 'false'}"
              for seed, energy, label, steps, converged in rows]
    text = "\n".join(lines) + "\n"
    if out is not None:
        _write_text(out, text)
    else:
        sys.stdout.write(text)
    return [args.instance]


def _cmd_oracle(args, out=None) -> list[str]:
    from . import oracle
    from .instance import load_instance

    inst = load_instance(args.instance)
    lines = [f"instance: {inst.label} n={inst.n}"]
    # brute_force rejects a full spectrum beyond its cap, whatever n is
    if inst.n <= oracle.BRUTE_FORCE_LIMIT or args.full_spectrum:
        report = oracle.brute_force(inst, full_spectrum=args.full_spectrum)
        lines.append(f"ground_energy: {report.ground_energy!r}")
        lines.append(f"ground_state: {_spins_text(report.ground_state)}")
        lines.append(f"degeneracy: {report.degeneracy}")
        if args.full_spectrum and report.energy_multiset is not None:
            levels = report.energy_multiset
            lines.append(f"spectrum_size: {len(levels)}")
            lines.append("lowest_levels: " + " ".join(repr(float(e)) for e in levels[:8]))
    else:
        lines.append(f"ground_energy: (n beyond brute-force cap {oracle.BRUTE_FORCE_LIMIT})")
    if args.eig:
        lines.append(f"lambda_max: {oracle.max_eigenvalue(inst)!r}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out is not None:
        _write_text(out, text)
    return [args.instance]


def _sweep_axes(args, inst: Instance) -> tuple[tuple[str, tuple[float, ...]], ...]:
    from . import bench, oracle

    if args.solver == "tbm":
        if args.delta_grid is None or args.xi0_grid is None:
            raise ValidationError("tbm sweeps need --delta-grid and --xi0-grid")
        return (("delta", args.delta_grid), ("xi0", args.xi0_grid))
    alphas = args.alpha_grid
    if alphas is None:
        alphas = bench.default_alpha_grid(oracle.max_eigenvalue(inst))
    axes = [("alpha", alphas)]
    if args.beta_grid is not None:
        axes.append(("beta", args.beta_grid))
    return tuple(axes)


def _sweep(args, instance, solver: SolverConfig, axes, out: str, sidecar: str):
    """The success-rate sweep sweep-sr and scan share, with its CSV and sidecar written."""
    from . import bench

    spec = bench.SweepSpec(instance=instance, solver=solver, axes=axes,
                           runs_per_point=args.runs, base_seed=args.seed)
    result = bench.sweep_sr(spec, threads=args.threads)
    bench.write_sweep_csv(result, out)
    bench.write_sidecar(result, sidecar)
    return result


def _cmd_sweep_sr(args, out, sidecar) -> list[str]:
    from . import bench
    from .instance import load_instance

    reads = bench._SOLVER_AXES[_SOLVER_KINDS[args.solver]]
    for name in ("alpha", "beta", "delta", "xi0"):
        if getattr(args, name + "_grid") is not None and name not in reads:
            raise ValidationError(f"--{name}-grid does not apply to --solver {args.solver}")
    # the axes set alpha (its grid has a default), delta, xi0 and beta with --beta-grid
    axes = ("alpha", "delta", "xi0") + (("beta",) if args.beta_grid is not None else ())
    cfg = _solver_config(args, axes)
    inputs = []
    if args.small:
        inst = build_couplings(catalogue_pattern_set(args.small), label=f"small-{args.small}")
    else:
        inst = load_instance(args.instance)
        inputs.append(args.instance)
    result = _sweep(args, inst, cfg, _sweep_axes(args, inst), out, sidecar)
    print(f"grid {result.spec.grid_shape} runs/point {args.runs} max SR {result.max_sr()!r}")
    return inputs


# Each scan kind's bench factory, by name, and its default --values.
# The parser takes the kinds from here, so building it imports no
# numeric module.
_SCAN_KINDS = {
    "dxi": ("CataloguePerturbationFactory", "-2:0:21"),
    "dw": ("CatalogueWeightStepFactory", "0:0.5:21"),
    "p": ("EquidistantPerturbationFactory", "0:2:21"),
}


def _cmd_scan(args, out, sidecar) -> list[str]:
    from . import bench, oracle
    from .dynamics import SolverConfig

    name, default_values = _SCAN_KINDS[args.kind]
    make = getattr(bench, name)
    # without --id the factory's own catalogue entry is scanned
    factory = make() if args.id is None else make(args.id)
    ident = factory.catalogue_id
    values = args.values
    if values is None:
        values = _parse_grid(default_values)
    alphas = args.alpha_grid
    if alphas is None:
        alphas = bench.default_alpha_grid(oracle.max_eigenvalue(factory(values[0])))
    result = _sweep(args, factory, SolverConfig(kind="I"),
                    ((args.kind, values), ("alpha", alphas)), out, sidecar)
    print(f"scan {args.kind} on {ident}: grid {result.spec.grid_shape} "
          f"max SR {result.max_sr()!r}")
    return []


def _cmd_sweep_k(args, out, hist_path) -> list[str]:
    from . import bench

    ks = args.k_list
    if ks is not None:
        for name in ("--k-min", "--k-max", "--k-step"):
            if getattr(args, name[2:].replace("-", "_")) is not None:
                raise ValidationError(f"{name} does not apply with --k-list")
    else:
        k_min = 1 if args.k_min is None else args.k_min
        k_max = args.n if args.k_max is None else args.k_max
        k_step = 1 if args.k_step is None else args.k_step
        ks = list(range(k_min, k_max + 1, k_step))
        if not ks:
            raise ValidationError(f"--k-min {k_min} --k-max {k_max} --k-step {k_step} "
                                  "gives no K")
    entries = bench.sweep_k(
        args.n,
        ks,
        runs_per_k=args.runs,
        base_seed=args.seed,
        dw=args.dw,
        threads=args.threads,
    )
    bench.write_ksweep_csv(entries, out)
    bench.write_hist_csv(entries, hist_path)
    print(f"n={args.n} K values {ks[0]}..{ks[-1]} ({len(ks)}) runs/K {entries[0].n_runs}")
    return []


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    rows = [line for line in _read_text(path).split("\n") if line.strip()]
    if len(rows) < 2:
        raise ValidationError(f"{path} has no data rows")
    header = rows[0].split(",")
    return header, [row.split(",") for row in rows[1:]]


def _cell(row: list[str], col: int, parse=_finite):
    """Cell col of a report CSV row, parsed by _finite or _int."""
    if col >= len(row):
        raise ValidationError(f"CSV row {','.join(row)!r} has no column {col + 1}")
    return parse(row[col], f"CSV column {col + 1}")


def _render_heatmap(header: list[str], rows: list[list[str]]) -> str:
    if "sr" not in header:
        raise ValidationError("heatmap input needs an 'sr' column")
    sr_col = header.index("sr")
    axis_names = header[:sr_col]
    if not axis_names or len(axis_names) > 2:
        raise ValidationError("heatmap input needs one or two axis columns")
    if len(axis_names) == 1:
        xs = [_cell(r, 0) for r in rows]
        _no_repeats(xs, f"{axis_names[0]} values")
        grid = [[_cell(r, sr_col) for r in rows]]
        return render.heatmap_svg(xs, [0.0], grid, axis_names[0], "", "success rate")
    points = [(_cell(r, 0), _cell(r, 1)) for r in rows]
    _no_repeats(points, "grid points")
    lookup = dict(zip(points, (_cell(r, sr_col) for r in rows)))
    ys = sorted({y for y, _ in lookup})
    xs = sorted({x for _, x in lookup})
    if len(lookup) != len(xs) * len(ys):
        raise ValidationError("heatmap input is not a full grid")
    grid = [[lookup[(y, x)] for x in xs] for y in ys]
    return render.heatmap_svg(
        xs, ys, grid, axis_names[1], axis_names[0], "success rate"
    )


def _render_hist(header: list[str], rows: list[list[str]], k_arg: int | None) -> str:
    needed = ["k", "left", "right", "log_density_shifted", "smoothed_density",
              "planted_min", "planted_max"]
    missing = [c for c in needed if c not in header]
    if missing:
        raise ValidationError(f"histogram input lacks columns: {missing}")
    col = {name: header.index(name) for name in needed}
    ks = [_cell(r, col["k"], _int) for r in rows]
    k = k_arg if k_arg is not None else ks[0]
    sel = [r for r, rk in zip(rows, ks) if rk == k]
    if not sel:
        raise ValidationError(f"no rows for k={k}")
    return render.histogram_svg(
        [_cell(r, col["left"]) for r in sel],
        [_cell(r, col["right"]) for r in sel],
        [_cell(r, col["log_density_shifted"]) for r in sel],
        [_cell(r, col["smoothed_density"]) for r in sel],
        _cell(sel[0], col["planted_min"]),
        _cell(sel[0], col["planted_max"]),
        f"found energies, K={k}",
    )


def _render_measure(header: list[str], rows: list[list[str]]) -> str:
    if "k" not in header or "n_runs" not in header:
        raise ValidationError("measure input needs 'k' and 'n_runs' columns")
    bands = [h for h in header if h.startswith("band:")]
    if not bands:
        raise ValidationError("measure input has no band:* columns")
    k_col, n_col = header.index("k"), header.index("n_runs")
    ks, shares = [], []
    for row in rows:
        total = _cell(row, n_col, _int)
        counts = [_cell(row, header.index(b), _int) for b in bands]
        if total <= 0 or sum(counts) != total:
            raise ValidationError("band counts of each row must sum to n_runs")
        ks.append(_cell(row, k_col, _int))
        shares.append([c / total for c in counts])
    _no_repeats(ks, "K values")
    names = [b.split(":", 1)[1] for b in bands]
    return render.measure_svg(ks, names, shares, "planted-range band shares")


def _cmd_report(args, out) -> list[str]:
    if args.k is not None and args.kind != "hist":
        raise ValidationError("--k applies only to --kind hist")
    header, rows = _read_csv(args.infile)
    if args.kind == "heatmap":
        svg = _render_heatmap(header, rows)
    elif args.kind == "hist":
        svg = _render_hist(header, rows, args.k)
    else:
        svg = _render_measure(header, rows)
    _write_text(out, svg)
    return [args.infile]


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantbench",
        description="Planted-solution QUBO benchmark toolkit",
    )
    parser.add_argument("--version", action="version", version=f"plantbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(p, name, parse, **kw):
        """Option name, parsed and checked by parse(text, name) as argparse reads it."""
        p.add_argument(name, type=lambda text: parse(text, name), **kw)

    count = partial(_int, least=1)

    # the files a command writes, as a function of --out; the first one
    # names the manifest
    def out_only(out):
        return [out]

    def with_sidecar(out):
        return [out, out + ".meta.txt"]

    p = sub.add_parser("gen", help="generate an orthogonal planted instance")
    flag(p, "--n", _int, required=True)
    flag(p, "--k", _int, required=True)
    flag(p, "--w0", _finite, default=1.0)
    flag(p, "--dw", _finite, default=0.0)
    flag(p, "--seed", _int, default=0)
    flag(p, "--coarse", _positive, default=None, metavar="DJ")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen, outputs=out_only)

    p = sub.add_parser("gen-small", help="build a catalogue instance")
    p.add_argument("--id", required=True, type=_catalogue_id, choices=sorted(CATALOGUE))
    p.add_argument("--literal-weights", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen_small, outputs=out_only)

    # None leaves the SolverConfig default in force
    def solver_flags(p):
        p.add_argument("--solver", choices=sorted(_SOLVER_KINDS), default="class1")
        for name in ("--alpha", "--beta", "--gamma", "--delta", "--xi0"):
            flag(p, name, _finite)
        flag(p, "--dt", _positive)
        flag(p, "--steps", count)
        flag(p, "--window", _window)
        p.add_argument("--nonlinearity", choices=["tanh", "sign", "identity-clip"])
        flag(p, "--amplitude", _positive)

    p = sub.add_parser("solve", help="run one solver repeatedly on an instance")
    p.add_argument("--instance", required=True)
    solver_flags(p)
    flag(p, "--runs", count, default=1)
    flag(p, "--seed", _int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve, outputs=out_only)

    p = sub.add_parser("oracle", help="exact ground state / dominant eigenvalue")
    p.add_argument("--instance", required=True)
    p.add_argument("--full-spectrum", action="store_true")
    p.add_argument("--eig", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle, outputs=out_only)

    p = sub.add_parser("sweep-sr", help="success-rate grid")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance")
    source.add_argument("--small", type=_catalogue_id, choices=sorted(CATALOGUE))
    solver_flags(p)
    for name in ("--alpha-grid", "--beta-grid", "--delta-grid", "--xi0-grid"):
        flag(p, name, _parse_grid)
    flag(p, "--runs", count, default=200)
    flag(p, "--seed", _int, default=0)
    flag(p, "--threads", count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_sr, outputs=with_sidecar)

    p = sub.add_parser("scan", help="complexity-transition scan")
    p.add_argument("--kind", required=True, choices=list(_SCAN_KINDS))
    p.add_argument("--id", type=_catalogue_id, choices=sorted(CATALOGUE))
    flag(p, "--values", _parse_grid)
    flag(p, "--alpha-grid", _parse_grid)
    flag(p, "--runs", count, default=200)
    flag(p, "--seed", _int, default=0)
    flag(p, "--threads", count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan, outputs=with_sidecar)

    p = sub.add_parser("sweep-k", help="per-K statistics at alpha = lambda/2")
    flag(p, "--n", _int, required=True)
    # --k-min 1, --k-max n and --k-step 1 when left out; none applies with --k-list
    flag(p, "--k-min", _int)
    flag(p, "--k-max", _int)
    flag(p, "--k-step", count)
    flag(p, "--k-list", _k_list)
    flag(p, "--runs", count)
    flag(p, "--dw", _finite, default=0.001)
    flag(p, "--seed", _int, default=0)
    flag(p, "--threads", count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_k, outputs=lambda out: [
        out, os.path.splitext(out)[0] + ".hist.csv"])

    p = sub.add_parser("report", help="render a CSV as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", required=True, choices=["heatmap", "hist", "measure"])
    flag(p, "--k", _int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report, outputs=out_only)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # a flag's type raises ValidationError, which argparse lets through
        args = _build_parser().parse_args(argv)
        outputs = [] if args.out is None else args.outputs(args.out)
        if outputs:
            _check_outputs(argv, *outputs)
        blas = {}
        if hasattr(args, "threads"):
            args.threads = _threads(args)
            # OpenBLAS sizes its pool when numpy loads, and forked workers
            # keep that size; once numpy is in, the share can no longer move
            if "numpy" not in sys.modules:
                blas = _blas_share(os.environ, args.threads, _cpus())
        os.environ.update(blas)
        try:
            inputs = args.func(args, *outputs)
        finally:
            for name in blas:
                del os.environ[name]
        if outputs:
            _write_manifest(args.command, argv, inputs, outputs)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy fails an allocation before any work on the array, and
        # its message names the size and shape; a MemoryError from
        # Python itself (a list that cannot grow) has no text
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: gen, gen-small, solve, oracle, sweep-sr, scan, sweep-k,
report.  Every invocation that writes files also writes a manifest
(<first output>.manifest.txt) recording the tool version, the exact
argument vector, input-file digests, and output digests; re-running
the recorded argv reproduces every output byte for byte, including
SVGs and independent of --threads.

Grids are given as "lo:hi:num", "lo:hi:num:log", or an explicit comma
list "0.1,0.2,0.4"; empty grids, nan and inf values, and specs asking
for more than MAX_GRID_POINTS points are rejected.  Worker count comes
from --threads, then the PLANTBENCH_THREADS environment variable, then
the CPU count.  The catalogue id b* may also be spelled bstar.

Exit codes: 0 success, 2 usage error, 3 validation error (bad flags,
bad, unreadable or unwritable files, unsupported sizes), 4 numerical
failure (DivergenceError).
No subcommand raises DivergenceError at present: solve reports a
diverging run as a "diverged" row of its CSV, and the sweeps count such
runs in their diverged column, so exit 4 is kept for a numerical
failure that escapes a subcommand.

report, --version and usage errors run without importing numpy or the
numeric modules of the package; every other command imports them when
it starts.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import shlex
import sys
from typing import TYPE_CHECKING

from . import __version__, render
from .errors import DivergenceError, ValidationError
from .textio import (
    CATALOGUE,
    _check_writable,
    _finite,
    _int,
    _read_text,
    _utf8,
    _write_text,
)

if TYPE_CHECKING:
    from .instance import Instance

__all__ = ["main"]

MAX_GRID_POINTS = 100_000


# ---------------------------------------------------------------------------
# numeric names, bound on first use


def _numeric_names() -> dict[str, object]:
    """The numeric modules and functions the commands other than report use."""
    from . import bench
    from . import oracle as oracle_mod
    from .dynamics import SolverConfig, TbmParams, initial_states, run_batch
    from .instance import (
        build_couplings,
        catalogue_pattern_set,
        coarse_grain,
        generate_orthogonal_patterns,
        load_instance,
        save_instance,
    )

    return locals()


def _bind_numeric() -> None:
    """Bind the numeric names into this module, keeping any name already set.

    main calls this before every command but report, so report, --version
    and usage errors start without numpy.  A name already set stays:
    perfbench/tracer.py wraps build_couplings and catalogue_pattern_set
    here before main runs.  This and __getattr__ can go once the
    benchmark no longer patches module names (ROADMAP item 2).
    """
    for name, value in _numeric_names().items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    # PEP 562: the first read of a numeric name from outside binds them all
    if not name.startswith("__"):
        _bind_numeric()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# helpers


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if "," in text or ":" not in text:
        try:
            values = tuple(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise ValidationError(f"cannot parse grid value list {text!r}") from None
    else:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValidationError(f"grid spec {text!r} must be lo:hi:num[:log]")
        try:
            lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"cannot parse grid spec {text!r}") from None
        _check_finite(text, (lo, hi))
        if not 1 <= num <= MAX_GRID_POINTS:
            raise ValidationError(f"grid needs 1 to {MAX_GRID_POINTS} points, got {num}")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValidationError(f"unknown grid scale {parts[3]!r}; only 'log'")
            if lo <= 0 or hi <= 0:
                raise ValidationError("log grids need positive endpoints")
        import numpy as np  # imported here, like every numeric module of cli

        spaced = np.geomspace if len(parts) == 4 else np.linspace
        # an overflowing span warns here; _check_finite below rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            values = tuple(float(v) for v in spaced(lo, hi, num))
    if not values:
        raise ValidationError(f"grid {text!r} is empty")
    # finite endpoints can still overflow the step, as in 1e308:-1e308:3
    _check_finite(text, values)
    return values


def _check_finite(text: str, values: tuple[float, ...]) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"grid {text!r} has a non-finite value")


def _check_finite_flags(args, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValidationError(f"--{flag} must be finite, got {value!r}")


def _check_count_flags(args, *flags: str) -> None:
    """Reject counts and steps below 1; None leaves the default in force."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            name = flag.replace("_", "-")
            raise ValidationError(f"--{name} must be >= 1, got {value}")


def _catalogue_id(text: str) -> str:
    """Argparse type for catalogue ids: bstar is a shell-safe b*."""
    return "b*" if text == "bstar" else text


def _threads(args) -> int:
    if args.threads is not None:
        value = args.threads
    else:
        env = os.environ.get("PLANTBENCH_THREADS", "")
        try:
            value = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValidationError(
                f"PLANTBENCH_THREADS must be an integer, got {env!r}"
            ) from None
    if value < 1:
        raise ValidationError("thread count must be >= 1")
    return value


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
    spec = inst.spectrum
    ps = inst.pattern_set
    if spec is None or ps is None:
        print("planted spectrum: (external instance, none)")
        return
    print(f"planted energies: e_min={spec.e_min!r} e_max={spec.e_max!r}")
    if ps.k <= 32:
        for m, e in enumerate(spec.energies, start=1):
            print(f"  pattern {m}: E={float(e)!r} weight={float(ps.weights[m - 1])!r}")


def _spins_text(spins) -> str:
    return "".join("+" if s > 0 else "-" for s in spins)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args, argv) -> int:
    _check_finite_flags(args, "w0", "dw")
    _check_outputs(argv, args.out)
    ps = generate_orthogonal_patterns(args.n, args.k, seed=args.seed, w0=args.w0, dw=args.dw)
    inst = build_couplings(ps, rule=args.rule, label=f"orthogonal-n{args.n}-k{args.k}")
    if args.coarse is not None:
        inst = coarse_grain(inst, args.coarse)
    save_instance(inst, args.out)
    _print_spectrum(inst)
    _write_manifest("gen", argv, [], [args.out])
    return 0


def _cmd_gen_small(args, argv) -> int:
    if args.out:
        _check_outputs(argv, args.out)
    ps = catalogue_pattern_set(args.id, literal_weights=args.literal_weights)
    inst = build_couplings(ps, label=f"small-{args.id}")
    dists, cat_dw = CATALOGUE[args.id]
    # Distances around the pattern cycle 1..k..1: (d12, d23, d13) for
    # three patterns, (d12, d23, d34, d14) for four.
    cyc = tuple(dists[i][(i + 1) % ps.k] for i in range(ps.k))
    print(f"catalogue {args.id}: distances {cyc} dw={cat_dw!r}")
    _print_spectrum(inst)
    if args.out:
        save_instance(inst, args.out)
        _write_manifest("gen-small", argv, [], [args.out])
    return 0


_SOLVER_KINDS = {"class1": "I", "class2": "II", "class3": "III", "tbm": "TBM"}


def _solver_config(args) -> SolverConfig:
    _check_finite_flags(args, "alpha", "beta", "gamma", "delta", "xi0")
    for flag in ("dt", "amplitude"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"--{flag} must be finite and > 0, got {value!r}")
    # inf is allowed: it disables the derivative window
    if not args.window > 0:
        raise ValidationError(f"--window must be > 0, got {args.window!r}")
    _check_count_flags(args, "steps")
    kind = _SOLVER_KINDS[args.solver]
    tbm = None
    if kind == "TBM":
        tbm = TbmParams(delta=args.delta, xi0=args.xi0)
    return SolverConfig(
        kind=kind,
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        nonlinearity=args.nonlinearity,
        derivative_window=args.window,
        dt=args.dt,
        max_steps=args.steps,
        init_amplitude=args.amplitude,
        tbm=tbm,
    )


def _cmd_solve(args, argv) -> int:
    _check_count_flags(args, "runs")
    if args.out:
        _check_outputs(argv, args.out)
    inst = load_instance(args.instance)
    cfg = _solver_config(args)
    seeds = bench.derive_seeds(args.seed, "solve", count=args.runs)
    x0 = initial_states(inst.n, cfg.init_amplitude, seeds)
    outcomes = run_batch(inst, cfg, x0, seeds=seeds)
    lines = ["seed,energy,label,steps,converged"]
    for out in outcomes:
        if out.diverged:
            label = "diverged"
        elif out.label is None:
            label = "unlabelled"
        else:
            label = out.label.short()
        lines.append(
            f"{out.seed},{out.final_energy!r},{label},{out.steps_used},"
            f"{'true' if out.converged else 'false'}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_manifest("solve", argv, [args.instance], [args.out])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args, argv) -> int:
    if args.out:
        _check_outputs(argv, args.out)
    inst = load_instance(args.instance)
    lines = [f"instance: {inst.label} n={inst.n}"]
    if inst.n <= oracle_mod.BRUTE_FORCE_LIMIT:
        report = oracle_mod.brute_force(inst, full_spectrum=args.full_spectrum)
        lines.append(f"ground_energy: {report.ground_energy!r}")
        lines.append(f"ground_state: {_spins_text(report.ground_state)}")
        lines.append(f"degeneracy: {report.degeneracy}")
        if args.full_spectrum and report.energy_multiset is not None:
            levels = report.energy_multiset
            lines.append(f"spectrum_size: {len(levels)}")
            lines.append("lowest_levels: " + " ".join(repr(float(e)) for e in levels[:8]))
    else:
        lines.append(f"ground_energy: (n beyond brute-force cap {oracle_mod.BRUTE_FORCE_LIMIT})")
    if args.eig:
        lines.append(f"lambda_max: {oracle_mod.max_eigenvalue(inst)!r}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
        _write_manifest("oracle", argv, [args.instance], [args.out])
    return 0


def _sweep_axes(args, inst: Instance) -> tuple[tuple[str, tuple[float, ...]], ...]:
    axes = []
    if args.solver == "tbm":
        delta = _parse_grid(args.delta_grid) if args.delta_grid else None
        xi0 = _parse_grid(args.xi0_grid) if args.xi0_grid else None
        if delta is None or xi0 is None:
            raise ValidationError("tbm sweeps need --delta-grid and --xi0-grid")
        axes = [("delta", delta), ("xi0", xi0)]
    else:
        if args.alpha_grid:
            axes.append(("alpha", _parse_grid(args.alpha_grid)))
        else:
            lam = oracle_mod.max_eigenvalue(inst)
            axes.append(("alpha", bench.default_alpha_grid(lam)))
        if args.beta_grid:
            axes.append(("beta", _parse_grid(args.beta_grid)))
    return tuple(axes)


def _cmd_sweep_sr(args, argv) -> int:
    sidecar = args.out + ".meta.txt"
    _check_outputs(argv, args.out, sidecar)
    inputs = []
    if args.small:
        inst = build_couplings(catalogue_pattern_set(args.small), label=f"small-{args.small}")
    else:
        if not args.instance:
            raise ValidationError("need --instance FILE or --small ID")
        inst = load_instance(args.instance)
        inputs.append(args.instance)
    cfg = _solver_config(args)
    spec = bench.SweepSpec(
        instance=inst,
        solver=cfg,
        axes=_sweep_axes(args, inst),
        runs_per_point=args.runs,
        base_seed=args.seed,
    )
    result = bench.sweep_sr(spec, threads=_threads(args))
    bench.write_sweep_csv(result, args.out)
    bench.write_sidecar(result, sidecar)
    _write_manifest("sweep-sr", argv, inputs, [args.out, sidecar])
    print(f"grid {spec.grid_shape} runs/point {args.runs} max SR {result.max_sr()!r}")
    return 0


# One entry per key of bench.SCAN_FACTORIES; the parser takes the scan
# kinds from here, so building it imports no numeric module.
_SCAN_DEFAULT_VALUES = {
    "dxi": "-2:0:21",
    "dw": "0:0.5:21",
    "p": "0:2:21",
}


def _cmd_scan(args, argv) -> int:
    sidecar = args.out + ".meta.txt"
    _check_outputs(argv, args.out, sidecar)
    ident = args.id or ("f" if args.kind == "p" else "c")
    factory = bench.SCAN_FACTORIES[args.kind](ident)
    values = _parse_grid(args.values or _SCAN_DEFAULT_VALUES[args.kind])
    if args.alpha_grid:
        alphas = _parse_grid(args.alpha_grid)
    else:
        lam = oracle_mod.max_eigenvalue(factory(values[0]))
        alphas = bench.default_alpha_grid(lam)
    spec = bench.SweepSpec(
        instance=factory,
        solver=SolverConfig(kind="I"),
        axes=((args.kind, values), ("alpha", alphas)),
        runs_per_point=args.runs,
        base_seed=args.seed,
    )
    result = bench.scan_transition(spec, threads=_threads(args))
    bench.write_sweep_csv(result, args.out)
    bench.write_sidecar(result, sidecar)
    _write_manifest("scan", argv, [], [args.out, sidecar])
    print(f"scan {args.kind} on {ident}: grid {spec.grid_shape} max SR {result.max_sr()!r}")
    return 0


def _cmd_sweep_k(args, argv) -> int:
    _check_finite_flags(args, "dw")
    _check_count_flags(args, "runs", "k_step")
    hist_path = os.path.splitext(args.out)[0] + ".hist.csv"
    _check_outputs(argv, args.out, hist_path)
    if args.k_list:
        try:
            ks = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
        except ValueError:
            raise ValidationError(f"cannot parse K list {args.k_list!r}") from None
    else:
        k_max = args.k_max if args.k_max is not None else args.n
        ks = list(range(args.k_min, k_max + 1, args.k_step))
    entries = bench.sweep_k(
        args.n,
        ks,
        runs_per_k=args.runs,
        base_seed=args.seed,
        dw=args.dw,
        threads=_threads(args),
    )
    bench.write_ksweep_csv(entries, args.out)
    bench.write_hist_csv(entries, hist_path)
    _write_manifest("sweep-k", argv, [], [args.out, hist_path])
    print(f"n={args.n} K values {ks[0]}..{ks[-1]} ({len(ks)}) runs/K {entries[0].n_runs}")
    return 0


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
        grid = [[_cell(r, sr_col) for r in rows]]
        return render.heatmap_svg(xs, [0.0], grid, axis_names[0], "", "success rate")
    lookup = {(_cell(r, 0), _cell(r, 1)): _cell(r, sr_col) for r in rows}
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
    names = [b.split(":", 1)[1] for b in bands]
    return render.measure_svg(ks, names, shares, "planted-range band shares")


def _cmd_report(args, argv) -> int:
    if args.k is not None and args.kind != "hist":
        raise ValidationError("--k applies only to --kind hist")
    _check_outputs(argv, args.out)
    header, rows = _read_csv(args.infile)
    if args.kind == "heatmap":
        svg = _render_heatmap(header, rows)
    elif args.kind == "hist":
        svg = _render_hist(header, rows, args.k)
    else:
        svg = _render_measure(header, rows)
    _write_text(args.out, svg)
    _write_manifest("report", argv, [args.infile], [args.out])
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantbench",
        description="Planted-solution QUBO benchmark toolkit",
    )
    parser.add_argument("--version", action="version", version=f"plantbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an orthogonal planted instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--dw", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coarse", type=float, default=None, metavar="DJ")
    p.add_argument("--rule", choices=["hebb", "pseudoinverse"], default="hebb")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gen-small", help="build a catalogue instance")
    p.add_argument("--id", required=True, type=_catalogue_id, choices=sorted(CATALOGUE))
    p.add_argument("--literal-weights", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen_small)

    def solver_flags(p, default_solver="class1"):
        p.add_argument("--solver", choices=sorted(_SOLVER_KINDS), default=default_solver)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--gamma", type=float, default=0.0)
        p.add_argument("--delta", type=float, default=1.0)
        p.add_argument("--xi0", type=float, default=0.1)
        p.add_argument("--dt", type=float, default=0.1)
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--window", type=float, default=1.0)
        p.add_argument("--nonlinearity", choices=["tanh", "sign", "identity-clip"],
                       default="tanh")
        p.add_argument("--amplitude", type=float, default=0.5)

    p = sub.add_parser("solve", help="run one solver repeatedly on an instance")
    p.add_argument("--instance", required=True)
    solver_flags(p)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact ground state / dominant eigenvalue")
    p.add_argument("--instance", required=True)
    p.add_argument("--full-spectrum", action="store_true")
    p.add_argument("--eig", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep-sr", help="success-rate grid")
    p.add_argument("--instance", default=None)
    p.add_argument("--small", default=None, type=_catalogue_id,
                   choices=sorted(CATALOGUE))
    solver_flags(p)
    p.add_argument("--alpha-grid", default=None)
    p.add_argument("--beta-grid", default=None)
    p.add_argument("--delta-grid", default=None)
    p.add_argument("--xi0-grid", default=None)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_sr)

    p = sub.add_parser("scan", help="complexity-transition scan")
    p.add_argument("--kind", required=True, choices=list(_SCAN_DEFAULT_VALUES))
    p.add_argument("--id", default=None, type=_catalogue_id)
    p.add_argument("--values", default=None)
    p.add_argument("--alpha-grid", default=None)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("sweep-k", help="per-K statistics at alpha = lambda/2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--k-step", type=int, default=1)
    p.add_argument("--k-list", default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--dw", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_k)

    p = sub.add_parser("report", help="render a CSV as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", required=True, choices=["heatmap", "hist", "measure"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "report":
        _bind_numeric()
    try:
        return args.func(args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Success-rate profiles of first-order relaxation over the decay rate.

The same dynamics that solves instance (a) perfectly over a wide band
of decay rates never reaches certainty on instance (c): (c)'s lighter
patterns sit close enough in energy that their basins keep a fixed
share of the initial-condition mass at every decay rate.  The demo
sweeps the decay rate alpha over a logarithmic grid around the
dominant eigenvalue for (a), (b), and (c), prints an ASCII profile,
and writes one CSV + SVG heatmap per instance under demos/out/.

Run:  python3 demos/success_rate_profiles.py --runs 50
      (rewrites the tracked demos/out/sr_profile_* files byte for byte;
      the default of 200 runs per point gives smoother profiles)
"""

import argparse
import os
import pathlib

from plantbench import (
    SolverConfig,
    SweepSpec,
    default_alpha_grid,
    generate_small_scale,
    max_eigenvalue,
    sweep_sr,
    write_sweep_csv,
)
from plantbench.cli import main as cli_main


def profile(ident: str, runs: int, out_dir: pathlib.Path) -> None:
    inst = generate_small_scale(ident)
    lam = max_eigenvalue(inst)
    spec = SweepSpec(
        instance=inst,
        solver=SolverConfig(kind="I"),
        axes=(("alpha", default_alpha_grid(lam, 50)),),
        runs_per_point=runs,
        base_seed=0,
    )
    result = sweep_sr(spec)
    print(f"instance ({ident}): lambda_max = {lam:.4f}, {runs} runs/point")
    for point in result.points[::5]:
        alpha = point.coords[0][1]
        bar = "#" * round(40 * point.sr)
        print(f"  alpha {alpha:8.4f}  SR {point.sr:5.3f}  |{bar}")
    print(f"  max SR over the grid: {result.max_sr():.3f}")

    safe = ident.replace("*", "star")
    csv_path = out_dir / f"sr_profile_{safe}.csv"
    svg_path = out_dir / f"sr_profile_{safe}.svg"
    write_sweep_csv(result, csv_path)
    cli_main(["report", "--in", str(csv_path), "--kind", "heatmap", "--out", str(svg_path)])
    print(f"  wrote {csv_path} and {svg_path}")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=200, help="runs per grid point")
    args = parser.parse_args()
    # Run from the repository root, so the manifests record demos/out/...
    # wherever the checkout is and whatever the working directory.
    os.chdir(pathlib.Path(__file__).resolve().parent.parent)
    out_dir = pathlib.Path("demos", "out")
    out_dir.mkdir(exist_ok=True)
    for ident in ("a", "b", "c"):
        profile(ident, args.runs, out_dir)
    print("instance (a) shows a wide SR = 1 plateau; (c) never reaches 1.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

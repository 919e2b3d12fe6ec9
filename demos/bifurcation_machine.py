"""The bifurcation machine solves the instance class I cannot.

First-order relaxation never reaches SR = 1 on catalogue instance (c)
(see success_rate_profiles.py).  The two-variable bifurcation machine
- second-order dynamics with a sign nonlinearity, reflecting walls at
+-1, and a pump ramp p(t) = min(2t/N_t, 2) - has a parameter region
where every run lands in the planted ground state.  The demo sweeps
the detuning delta against the coupling scale xi0, prints the SR
table, and writes the grid to demos/out/.

Run:  python3 demos/bifurcation_machine.py --runs 40
      (rewrites the tracked demos/out/tbm_grid* files byte for byte;
      the default of 200 runs per point gives a smoother grid)
"""

import argparse
import os
import pathlib

from plantbench import (
    SolverConfig,
    SweepSpec,
    generate_small_scale,
    sweep_sr,
    write_sweep_csv,
)
from plantbench.cli import main as cli_main

DELTAS = (3.8, 4.0, 4.2, 4.4, 4.6, 4.8, 5.0)
XI0S = (0.56, 0.60, 0.64, 0.68, 0.72)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=200, help="runs per grid point")
    args = parser.parse_args()
    # Run from the repository root, so the manifests record demos/out/...
    # wherever the checkout is and whatever the working directory.
    os.chdir(pathlib.Path(__file__).resolve().parent.parent)
    out_dir = pathlib.Path("demos", "out")
    out_dir.mkdir(exist_ok=True)

    spec = SweepSpec(
        instance=generate_small_scale("c"),
        solver=SolverConfig(kind="TBM", dt=0.1, max_steps=1000),
        axes=(("delta", DELTAS), ("xi0", XI0S)),
        runs_per_point=args.runs,
        base_seed=0,
    )
    result = sweep_sr(spec)
    grid = result.sr_grid

    print(f"bifurcation machine on (c): {args.runs} runs/point")
    print("         " + "".join(f"xi0={x:<7.2f}" for x in XI0S))
    for i, delta in enumerate(DELTAS):
        cells = "".join(f"{grid[i, j]:<11.3f}" for j in range(len(XI0S)))
        print(f"delta={delta:<4.1f} {cells}")
    certain = int((grid == 1.0).sum())
    print(f"cells at SR = 1.0: {certain} of {grid.size} (class I best on (c): < 1.0)")

    csv_path = out_dir / "tbm_grid.csv"
    svg_path = out_dir / "tbm_grid.svg"
    write_sweep_csv(result, csv_path)
    cli_main(["report", "--in", str(csv_path), "--kind", "heatmap", "--out", str(svg_path)])
    print(f"wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

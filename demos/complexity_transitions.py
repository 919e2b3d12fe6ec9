"""Continuous deformations that move an instance across the easy/hard line.

Three one-parameter families, all built on catalogue instances:

  dxi  - continuously flip one shared-sign coordinate of the lightest
         pattern of (c); 0 is the untouched instance, -2 a full flip.
  dw   - rebuild (c) with a different weight-ladder step; larger steps
         separate the planted energies further.
  p    - deform the equidistant four-pattern instance (f) off the
         hypercube corners.

For each family the demo runs a (value x alpha) success-rate grid and
prints, per value, whether a certain-success region (some alpha with
SR = 1) exists, locating the transition.  Grids are written to
demos/out/ as CSV + SVG.

Run:  python3 demos/complexity_transitions.py --runs 60
      (rewrites the tracked demos/out/scan_* files byte for byte;
      the default of 200 runs per point gives smoother grids)
"""

import argparse
import os
import pathlib

import numpy as np

from plantbench import (
    CataloguePerturbationFactory,
    CatalogueWeightStepFactory,
    EquidistantPerturbationFactory,
    SolverConfig,
    SweepSpec,
    default_alpha_grid,
    generate_small_scale,
    max_eigenvalue,
    sweep_sr,
    write_sweep_csv,
)
from plantbench.cli import main as cli_main

SCANS = (
    ("dxi", CataloguePerturbationFactory(catalogue_id="c"), np.linspace(-2.0, 0.0, 11), "c"),
    ("dw", CatalogueWeightStepFactory(catalogue_id="c"), np.linspace(0.0, 0.5, 11), "c"),
    ("p", EquidistantPerturbationFactory(catalogue_id="f"), np.linspace(0.0, 2.0, 11), "f"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=200, help="runs per grid point")
    args = parser.parse_args()
    # Run from the repository root, so the manifests record demos/out/...
    # wherever the checkout is and whatever the working directory.
    os.chdir(pathlib.Path(__file__).resolve().parent.parent)
    out_dir = pathlib.Path("demos", "out")
    out_dir.mkdir(exist_ok=True)

    for name, factory, values, base_id in SCANS:
        agrid = default_alpha_grid(max_eigenvalue(generate_small_scale(base_id)), 20)
        spec = SweepSpec(
            instance=factory,
            solver=SolverConfig(kind="I"),
            axes=((name, tuple(values)), ("alpha", agrid)),
            runs_per_point=args.runs,
            base_seed=0,
        )
        result = sweep_sr(spec)
        grid = result.sr_grid
        print(f"scan {name} on ({base_id}): {args.runs} runs/point")
        for i, value in enumerate(values):
            ones = int(np.count_nonzero(grid[i] == 1.0))
            marker = "certain-success region" if ones else "no SR = 1 point"
            print(f"  {name} = {value:7.3f}: best SR {grid[i].max():5.3f}, {marker} ({ones} cells)")
        csv_path = out_dir / f"scan_{name}.csv"
        svg_path = out_dir / f"scan_{name}.svg"
        write_sweep_csv(result, csv_path)
        cli_main(["report", "--in", str(csv_path), "--kind", "heatmap", "--out", str(svg_path)])
        print(f"  wrote {csv_path} and {svg_path}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

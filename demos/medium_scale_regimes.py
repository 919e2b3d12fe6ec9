"""How the solution landscape changes as patterns are added at n = 64.

With a few planted patterns, first-order relaxation at alpha =
lambda_max/2 retrieves a planted pattern (or its mirror) almost
surely.  Around ten patterns, composite mixtures of planted patterns
take over; past forty, outcomes form a single Gaussian-looking bulk
inside the planted band dominated by spurious states.  The demo runs
a K sweep, prints label shares and the deepest-band occupancy per K,
and writes the aggregate table, band shares, and energy histograms to
demos/out/.

Run:  python3 demos/medium_scale_regimes.py --runs 100
      (rewrites the tracked ksweep, hist and bands files of demos/out/
      byte for byte; the default of 300 runs per K shows the same shape
      more smoothly, and the full 1000-run sweep used by the regression
      suite takes a few minutes)
"""

import argparse
import os
import pathlib

from plantbench import sweep_k, write_hist_csv, write_ksweep_csv
from plantbench.cli import main as cli_main

K_VALUES = (1, 2, 4, 6, 8, 10, 12, 16, 24, 32, 40, 48, 55)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=300, help="runs per K")
    args = parser.parse_args()
    # Run from the repository root, so the manifests record demos/out/...
    # wherever the checkout is and whatever the working directory.
    os.chdir(pathlib.Path(__file__).resolve().parent.parent)
    out_dir = pathlib.Path("demos", "out")
    out_dir.mkdir(exist_ok=True)

    entries = sweep_k(64, K_VALUES, runs_per_k=args.runs, base_seed=0)
    print(f"n = 64, {args.runs} runs/K, alpha = lambda_max/2")
    print(f"{'K':>3} {'planted':>8} {'mirror':>7} {'mixed':>6} {'spurious':>9} {'above':>6}   mean energy")
    for entry in entries:
        counts = dict(entry.label_counts)
        print(
            f"{entry.k:>3}"
            f" {counts.get('planted', 0):>8}"
            f" {counts.get('mirror', 0):>7}"
            f" {counts.get('mixed', 0):>6}"
            f" {counts.get('spurious', 0):>9}"
            f" {counts.get('above', 0):>6}"
            f"   {entry.mean_energy:10.2f}"
            f" (planted band [{entry.planted_min:.2f}, {entry.planted_max:.2f}])"
        )

    ksweep_csv = out_dir / "ksweep_n64.csv"
    hist_csv = out_dir / "hist_n64.csv"
    write_ksweep_csv(entries, ksweep_csv)
    write_hist_csv(entries, hist_csv)
    cli_main(["report", "--in", str(ksweep_csv), "--kind", "measure",
              "--out", str(out_dir / "bands_n64.svg")])
    for k in (4, 55):
        cli_main(["report", "--in", str(hist_csv), "--kind", "hist", "--k", str(k),
                  "--out", str(out_dir / f"hist_n64_k{k}.svg")])
    print(f"wrote {ksweep_csv}, {hist_csv}, and SVG reports in {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

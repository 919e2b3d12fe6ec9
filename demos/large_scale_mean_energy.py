"""Mean relaxation energy at n = 1024 follows a halving rule in K.

Deep in the many-pattern regime the found-energy distribution is a
Gaussian-like bulk whose mean sits a fixed fraction of the planted
span above the bottom, and that fraction halves every 200 patterns:

    mean(E) ~ e_min + (e_max - e_min) * 2 ** (-1 - K/200)

The demo measures the mean at K in {200, 300, 500} with 100 runs each
and compares it with the prediction.  This is the heaviest experiment
in the repository: about 30 s of integration at n = 1024 on one core
(2-vCPU x86 machine, numpy on OpenBLAS).

Run:  python3 demos/large_scale_mean_energy.py [--runs 100] [--threads N]
"""

import argparse

from plantbench import sweep_k

K_VALUES = (200, 300, 500)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100, help="runs per K")
    parser.add_argument("--threads", type=int, default=1, help="worker processes")
    args = parser.parse_args()

    print(f"n = 1024, {args.runs} runs/K, alpha = lambda_max/2 (be patient)")
    entries = sweep_k(
        1024, K_VALUES, runs_per_k=args.runs, base_seed=0, threads=args.threads
    )
    print(f"{'K':>4} {'mean energy':>14} {'predicted':>14} {'|dev|/span':>11}")
    for entry in entries:
        span = entry.planted_max - entry.planted_min
        predicted = entry.planted_min + span * 2.0 ** (-1.0 - entry.k / 200.0)
        deviation = abs(entry.mean_energy - predicted) / span
        print(
            f"{entry.k:>4} {entry.mean_energy:>14.1f} {predicted:>14.1f}"
            f" {deviation:>11.4f}"
        )
    print("the regression suite gates |dev|/span at 0.15 for each K")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

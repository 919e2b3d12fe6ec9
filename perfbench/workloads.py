"""The benchmark's workloads: the plantbench CLI calls that make one figure.

Each workload is a fixed list of CLI invocations built from the seed
argument.  Every invocation passes --threads 1.  A step pairs one
invocation with the check of the files it writes (see checks.py), so a
failed check is charged to the invocation that produced the file.

Why each workload exists, and which layer it stresses, is recorded in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]
    """Maps the work directory to a list of problems (empty when correct)."""


@dataclass(frozen=True)
class Workload:
    name: str
    trajectories: int
    steps: Callable[[int], list[Step]]
    expected_calls: dict[str, int]
    """Span call counts that hold at every seed.  energy.classify is
    checked separately: it must equal the classified (non-diverged) rows."""


def _sweep_sr(ident: str, seed: int, max_sr: str | None) -> Step:
    out = f"sr_{ident}.csv"
    argv = ("sweep-sr", "--small", ident, "--solver", "class1", "--runs", "500",
            "--seed", str(seed), "--threads", "1", "--out", out)
    return Step(argv, lambda d: checks.sweep_csv(d, out, max_sr))


def _report(infile: str, kind: str, out: str, *extra: str) -> Step:
    argv = ("report", "--in", infile, "--kind", kind, *extra, "--out", out)
    return Step(argv, lambda d: checks.svg(d, out))


def _sr_catalogue(seed: int) -> list[Step]:
    # Max SR reaches 1 on the easy instance (a) and stays below 1 on the
    # hard one (c); (b) has no qualitative bound in the paper.
    bounds = {"a": "=1", "b": None, "c": "<1"}
    steps = [_sweep_sr(ident, seed, bound) for ident, bound in bounds.items()]
    steps += [_report(f"sr_{i}.csv", "heatmap", f"sr_{i}.svg") for i in bounds]
    return steps


def _tbm_catalogue(seed: int) -> list[Step]:
    argv = ("sweep-sr", "--small", "c", "--solver", "tbm",
            "--delta-grid", "3.8:5.0:7", "--xi0-grid", "0.56:0.72:5",
            "--dt", "0.1", "--steps", "1000", "--runs", "500",
            "--seed", str(seed), "--threads", "1", "--out", "tbm.csv")
    return [Step(argv, lambda d: checks.sweep_csv(d, "tbm.csv", "=1"))]


def _ksweep_n64(seed: int) -> list[Step]:
    argv = ("sweep-k", "--n", "64", "--k-min", "40", "--k-max", "55",
            "--seed", str(seed), "--threads", "1", "--out", "k64.csv")
    return [
        Step(argv, lambda d: checks.ksweep_csv(d, "k64.csv", pooled_shape=True)),
        _report("k64.csv", "measure", "k64_measure.svg"),
        _report("k64.hist.csv", "hist", "k64_hist48.svg", "--k", "48"),
    ]


def _ksweep_n512(seed: int) -> list[Step]:
    argv = ("sweep-k", "--n", "512", "--k-list", "100",
            "--seed", str(seed), "--threads", "1", "--out", "k512.csv")
    return [Step(argv, lambda d: checks.ksweep_csv(d, "k512.csv", pooled_shape=False))]


# A catalogue sweep makes one brute-force call, one classifier, one
# run_batch and one energy evaluation per grid point: 3 x 50 points in
# sr-catalogue, 7 x 5 in tbm-catalogue.  A K sweep does so per K, with
# an eigenvalue and a histogram instead of the brute force.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sr-catalogue", 3 * 50 * 500, _sr_catalogue,
            {"cli": 6, "bench": 3, "oracle.eig": 3, "oracle.brute": 150,
             "instance.generate": 3, "instance.build": 3, "energy.spectrum": 3,
             "energy.classifier_build": 150, "energy.eval": 150, "energy.measure": 150,
             "dynamics.integrate": 150, "dynamics.init": 75_000, "bench.write": 6,
             "bench.hist": 0, "render.svg": 3},
        ),
        Workload(
            "tbm-catalogue", 35 * 500, _tbm_catalogue,
            {"cli": 1, "bench": 1, "oracle.eig": 0, "oracle.brute": 35,
             "instance.generate": 1, "instance.build": 1, "energy.spectrum": 1,
             "energy.classifier_build": 35, "energy.eval": 35, "energy.measure": 35,
             "dynamics.integrate": 35, "dynamics.init": 17_500, "bench.write": 2,
             "bench.hist": 0, "render.svg": 0},
        ),
        Workload(
            "ksweep-n64", 16 * 1000, _ksweep_n64,
            {"cli": 3, "bench": 1, "oracle.eig": 16, "oracle.brute": 0,
             "instance.generate": 16, "instance.build": 16, "energy.spectrum": 16,
             "energy.classifier_build": 16, "energy.eval": 16, "energy.measure": 16,
             "dynamics.integrate": 16, "dynamics.init": 16_000, "bench.write": 2,
             "bench.hist": 16, "render.svg": 2},
        ),
        Workload(
            "ksweep-n512", 1000, _ksweep_n512,
            {"cli": 1, "bench": 1, "oracle.eig": 1, "oracle.brute": 0,
             "instance.generate": 1, "instance.build": 1, "energy.spectrum": 1,
             "energy.classifier_build": 1, "energy.eval": 1, "energy.measure": 1,
             "dynamics.integrate": 1, "dynamics.init": 1000, "bench.write": 2,
             "bench.hist": 1, "render.svg": 0},
        ),
    )
}

"""Output checks behind the benchmark's failure count.

Every check returns a list of problems; an empty list means the files
are correct.  Structural invariants hold at every seed:

- the label counts of a row sum to n_runs;
- the band counts sum to n_runs minus the diverged runs;
- 0 <= hits <= n_runs and sr == hits / n_runs, exactly.

The paper's qualitative bounds are checked where they exist: max SR
reaches 1 on catalogue (a) and on the bifurcation-machine grid, stays
below 1 on (c) with first-order relaxation, and the pooled n = 64
K = 40..55 histogram keeps the skew and central-mass bounds of
tests/test_acceptance.py.

At the default seed the outputs are also compared with reference.json:
count totals must agree within COUNT_TOL of the runs in the file and
lambda_max within LAMBDA_RTOL.  Byte identity with the reference is
reported, never failed, because an exact eigenvalue legitimately moves
lambda_max in its last ulps.
"""

from __future__ import annotations

import hashlib
import math
import os

COUNT_TOL = 0.01
LAMBDA_RTOL = 1e-9


def _read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cols(header: list[str], prefix: str) -> list[str]:
    return [h for h in header if h.startswith(prefix)]


def _manifest(workdir: str, first_output: str) -> list[str]:
    path = os.path.join(workdir, first_output + ".manifest.txt")
    return [] if os.path.isfile(path) else [f"{first_output}: manifest missing"]


def _counts(row: dict[str, str], header: list[str]) -> tuple[int, int, int]:
    """(n_runs, sum of label counts, sum of band counts) of one CSV row."""
    labels = sum(int(row[c]) for c in _cols(header, "label:"))
    bands = sum(int(row[c]) for c in _cols(header, "band:"))
    return int(row["n_runs"]), labels, bands


def sweep_csv(workdir: str, name: str, max_sr: str | None) -> list[str]:
    """Check a sweep-sr CSV; max_sr is "=1", "<1" or None (no bound)."""
    path = os.path.join(workdir, name)
    if not os.path.isfile(path):
        return [f"{name}: not written"]
    header, rows = _read_csv(path)
    problems = _manifest(workdir, name)
    for i, row in enumerate(rows):
        n_runs, labels, bands = _counts(row, header)
        hits, diverged = int(row["hits"]), int(row["diverged"])
        if labels != n_runs:
            problems.append(f"{name} row {i}: label counts {labels} != n_runs {n_runs}")
        if bands != n_runs - diverged:
            problems.append(f"{name} row {i}: band counts {bands} != n_runs - diverged")
        if not 0 <= hits <= n_runs:
            problems.append(f"{name} row {i}: hits {hits} outside [0, {n_runs}]")
        if float(row["sr"]) != hits / n_runs:
            problems.append(f"{name} row {i}: sr {row['sr']} != hits/n_runs")
    top = max(float(row["sr"]) for row in rows)
    if max_sr == "=1" and top != 1.0:
        problems.append(f"{name}: max SR {top!r}, expected 1")
    if max_sr == "<1" and not top < 1.0:
        problems.append(f"{name}: max SR {top!r}, expected below 1")
    return problems


def _pooled_shape(hist_rows: list[dict[str, str]]) -> tuple[float, float]:
    """Skew and central mass of the range-normalised histograms pooled over K."""
    by_k: dict[str, list[int]] = {}
    for row in hist_rows:
        by_k.setdefault(row["k"], []).append(int(row["count"]))
    pooled = [sum(col) for col in zip(*by_k.values())]
    total = sum(pooled)
    centers = [(b + 0.5) / len(pooled) for b in range(len(pooled))]
    weights = [c / total for c in pooled]
    mean = sum(w * c for w, c in zip(weights, centers))
    sigma = math.sqrt(sum(w * (c - mean) ** 2 for w, c in zip(weights, centers)))
    skew = sum(w * (c - mean) ** 3 for w, c in zip(weights, centers)) / sigma**3
    mass = sum(w for w, c in zip(weights, centers) if abs(c - mean) <= 2.0 * sigma)
    return skew, mass


def ksweep_csv(workdir: str, name: str, pooled_shape: bool) -> list[str]:
    """Check a sweep-k CSV and the .hist.csv written next to it."""
    path = os.path.join(workdir, name)
    hist_name = os.path.splitext(name)[0] + ".hist.csv"
    hist_path = os.path.join(workdir, hist_name)
    if not (os.path.isfile(path) and os.path.isfile(hist_path)):
        return [f"{name}: not written"]
    header, rows = _read_csv(path)
    _, hist_rows = _read_csv(hist_path)
    problems = _manifest(workdir, name)
    hist_total: dict[str, int] = {}
    hist_bins: dict[str, int] = {}
    for row in hist_rows:
        hist_total[row["k"]] = hist_total.get(row["k"], 0) + int(row["count"])
        hist_bins[row["k"]] = hist_bins.get(row["k"], 0) + 1
    for row in rows:
        k = row["k"]
        n_runs, labels, bands = _counts(row, header)
        kept = n_runs - int(row["label:diverged"])
        if labels != n_runs:
            problems.append(f"{name} K={k}: label counts {labels} != n_runs {n_runs}")
        if bands != kept:
            problems.append(f"{name} K={k}: band counts {bands} != n_runs - diverged")
        if float(row["alpha"]) != float(row["lambda_max"]) / 2.0:
            problems.append(f"{name} K={k}: alpha is not lambda_max / 2")
        if hist_total.get(k) != kept:
            problems.append(f"{hist_name} K={k}: histogram counts {hist_total.get(k)} != {kept}")
        if hist_bins.get(k, 0) < 2:
            problems.append(f"{hist_name} K={k}: degenerate histogram")
    if pooled_shape and not problems:
        skew, mass = _pooled_shape(hist_rows)
        if not abs(skew) < 0.5:
            problems.append(f"{hist_name}: pooled skew {skew:.3f}, expected |skew| < 0.5")
        if not mass >= 0.8:
            problems.append(f"{hist_name}: pooled mass within 2 sigma {mass:.3f} < 0.8")
    return problems


def svg(workdir: str, name: str) -> list[str]:
    path = os.path.join(workdir, name)
    if not os.path.isfile(path):
        return [f"{name}: not written"]
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    problems = _manifest(workdir, name)
    if "<svg" not in text[:200] or not text.rstrip().endswith("</svg>"):
        problems.append(f"{name}: not a complete SVG document")
    return problems


# ---------------------------------------------------------------------------
# comparison with the committed reference


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.blake2b(fh.read(), digest_size=16).hexdigest()


def summarize(workdir: str, outputs: list[str]) -> dict:
    """Digests of every output, count totals and lambda_max of every CSV."""
    files = {}
    for name in sorted(outputs):
        entry: dict = {"blake2b": digest(os.path.join(workdir, name))}
        if name.endswith(".csv") and not name.endswith(".hist.csv"):
            header, rows = _read_csv(os.path.join(workdir, name))
            counted = ["hits", "diverged"] + _cols(header, "label:") + _cols(header, "band:")
            entry["runs"] = sum(int(r["n_runs"]) for r in rows)
            entry["counts"] = {
                c: sum(int(r[c]) for r in rows) for c in counted if c in header
            }
            if "lambda_max" in header:
                entry["lambda_max"] = [float(r["lambda_max"]) for r in rows]
        files[name] = entry
    return files


def compare_reference(summary: dict, reference: dict) -> tuple[list[str], bool]:
    """(problems beyond tolerance, whether every output is byte-identical)."""
    problems = []
    identical = summary.keys() == reference.keys()
    for name, ref in reference.items():
        got = summary.get(name)
        if got is None:
            problems.append(f"{name}: missing against the reference")
            continue
        identical &= got["blake2b"] == ref["blake2b"]
        tol = COUNT_TOL * ref.get("runs", 0)
        for col, want in ref.get("counts", {}).items():
            have = got.get("counts", {}).get(col)
            if have is None or abs(have - want) > tol:
                problems.append(f"{name}: {col} total {have} vs reference {want} (tol {tol:g})")
        have_lam, want_lam = got.get("lambda_max", []), ref.get("lambda_max", [])
        if len(have_lam) != len(want_lam):
            problems.append(f"{name}: {len(have_lam)} lambda_max values, reference has {len(want_lam)}")
        for i, (have, want) in enumerate(zip(have_lam, want_lam)):
            if abs(have - want) > LAMBDA_RTOL * abs(want):
                problems.append(f"{name}: lambda_max[{i}] {have!r} vs reference {want!r}")
    return problems, identical

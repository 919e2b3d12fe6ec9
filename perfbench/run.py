"""plantbench benchmark: the paper's CLI sweeps, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --repeats 3

Run from anywhere; the program is taken from src/ next to this
directory, and all files are written under .perfbench_work/ there and
removed afterwards.

--trace 0 times the workload through the real CLI, one fresh process
per invocation, and reports the end-to-end metrics: whole passes of
the workload until --seconds have elapsed, reporting the median pass,
and setup_s, the median of fresh `import plantbench.cli` processes.

--trace 1 runs the workload once untraced and once with every
invocation under perfbench/tracer.py, and reports the per-layer
metrics, the unattributed remainder and the tracing overhead.

--workload all runs every workload --repeats times, interleaved, and
prints the median and quartiles of each metric.  The last line of
standard output is always one JSON object with the keys correct,
attempted, failed and metrics.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracer import COUNTERS, TARGETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

REFERENCE_SEED = 0
# Setup is sampled half before and half after the timed passes, so its
# median covers the same stretch of a drifting shared machine as wall_s.
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170.0
# One BLAS thread in every process; invocations run one at a time, so
# no run ever uses more threads than the machine has CPUs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "traj_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "oracle.eig_s": "s", "oracle.eig_calls": "count",
    "oracle.brute_s": "s", "oracle.brute_calls": "count",
    "dynamics.integrate_s": "s", "dynamics.rows": "count",
    "dynamics.steps_sum": "count", "dynamics.row_steps": "count",
    "dynamics.live_share": "ratio", "dynamics.gflop": "Gflop",
    "dynamics.gflop_per_s": "Gflop/s", "dynamics.converged": "count",
    "dynamics.unconverged": "count", "dynamics.diverged": "count",
    "dynamics.init_s": "s", "dynamics.init_calls": "count",
    "energy.classify_s": "s", "energy.classify_calls": "count",
    "energy.classifier_build_s": "s", "energy.eval_s": "s",
    "energy.spectrum_s": "s", "energy.measure_s": "s",
    "instance.generate_s": "s", "instance.build_s": "s",
    "bench.self_s": "s", "bench.hist_s": "s", "bench.write_s": "s",
    "bench.bytes_written": "B", "render.svg_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "trace.missing": "count",
}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC), **BLAS_ENV}


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def run_pass(workload, seed: int, work_dir: Path, traced: bool) -> Pass:
    out_dir, log_dir = work_dir / "out", work_dir / "log"
    out_dir.mkdir(parents=True)
    log_dir.mkdir()
    steps = workload.steps(seed)
    result = Pass()
    codes = []
    for i, step in enumerate(steps):
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(log_dir / f"{i}.spans.json")]
        else:
            argv = [sys.executable, "-m", "plantbench.cli"]
        code, wall, rss = spawn(argv + list(step.argv), out_dir, log_dir / str(i))
        codes.append(code)
        result.wall_s += wall
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
    # Checks run after the timed invocations, so they add nothing to wall_s.
    for i, (step, code) in enumerate(zip(steps, codes)):
        result.attempted += 1
        problems = step.check(str(out_dir)) if code == 0 else [
            f"`{' '.join(step.argv)}` exited {code}: "
            + (log_dir / f"{i}.err").read_text(errors="replace").strip()[-400:]
        ]
        if traced and code == 0:
            spans_file = log_dir / f"{i}.spans.json"
            if spans_file.is_file():
                result.spans.append(json.loads(spans_file.read_text()))
            else:
                problems.append(f"`{' '.join(step.argv)}` wrote no spans")
        if problems:
            result.failed += 1
            result.problems += problems
    result.outputs = checks.summarize(str(out_dir), [p.name for p in out_dir.iterdir()])
    return result


def setup_times(work_dir: Path, count: int) -> list[float]:
    """Wall seconds of `count` fresh processes that `import plantbench.cli`."""
    argv = [sys.executable, "-c", "import plantbench.cli"]
    samples = []
    for _ in range(count):
        code, wall, _ = spawn(argv, work_dir, work_dir / "setup")
        if code != 0:
            raise RuntimeError("`import plantbench.cli` failed")
        samples.append(wall)
    return samples


def calibration_s() -> float:
    """A fixed numpy kernel, timed for information only (never used to rescale)."""
    import numpy as np

    rng = np.random.default_rng(0)
    j = rng.standard_normal((64, 64))
    x = rng.uniform(-0.5, 0.5, size=(100, 64))
    start = time.perf_counter()
    for _ in range(2000):
        x = np.tanh(x @ j) * 0.5
    return time.perf_counter() - start


def facts() -> dict[str, str]:
    import platform

    import numpy as np

    out = {"nproc": str(os.cpu_count()), "python": platform.python_version(),
           "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            out["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        out["cpu"] = "unknown"
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                out[f"L{level}_per_cpu0"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        out["blas"] = "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        out["blas"] = "unknown"
    out["src_lines"] = str(sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "plantbench").glob("*.py")
    ))
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_reference(name: str, outputs: dict, report: list[str]) -> list[str]:
    ref = load_reference().get(name)
    if ref is None:
        report.append(f"reference: none recorded for {name}")
        return []
    problems, identical = checks.compare_reference(outputs, ref["outputs"])
    report.append(
        f"reference (seed {REFERENCE_SEED}): counts "
        + ("within tolerance" if not problems else "OUT OF TOLERANCE")
        + ("; bytes identical" if identical else "; bytes differ (not a failure)")
    )
    return problems


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    report: list[str]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}"


def end_to_end(workload, seed: int, seconds: float, work_dir: Path) -> Result:
    report = [f"calib_s before {calibration_s():.4f} (information only)"]
    setup_times(work_dir, 1)  # warm-up: byte-compiles the package once
    setup = setup_times(work_dir, SETUP_SAMPLES // 2)
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, seed, work_dir / f"pass{len(passes)}", traced=False))
    setup += setup_times(work_dir, SETUP_SAMPLES - len(setup))
    report.append(f"calib_s after {calibration_s():.4f} (information only)")
    problems = [p for run in passes for p in run.problems]
    if seed == REFERENCE_SEED:
        problems += check_reference(workload.name, passes[0].outputs, report)
    walls = [p.wall_s for p in passes]
    rates = [workload.trajectories / w for w in walls]
    report.append(f"wall_s per pass {[round(w, 4) for w in walls]} ({quartiles(walls)})")
    report.append(f"setup_s samples {[round(s, 4) for s in setup]}")
    metrics = {
        "wall_s": statistics.median(walls),
        "traj_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    return Result(metrics, sum(p.attempted for p in passes),
                  sum(p.failed for p in passes), problems, report)


def merge_spans(spans: list[dict]) -> tuple[Counter, Counter, Counter, list[str]]:
    """Sum self time, calls and counters over the invocations of a pass."""
    self_s, calls, counters = Counter(), Counter(), Counter()
    missing: list[str] = []
    for s in spans:
        self_s.update(s["self_s"])
        calls.update(s["calls"])
        counters.update(s["counters"])
        missing += [m for m in s["missing"] if m not in missing]
    return self_s, calls, counters, missing


def traced(workload, seed: int, work_dir: Path, write_reference: bool) -> Result:
    report: list[str] = []
    plain = run_pass(workload, seed, work_dir / "plain", traced=False)
    trace = run_pass(workload, seed, work_dir / "traced", traced=True)
    problems = plain.problems + trace.problems
    if {k: v["blake2b"] for k, v in plain.outputs.items()} != {
        k: v["blake2b"] for k, v in trace.outputs.items()
    }:
        problems.append("traced outputs differ from untraced outputs")
    self_s, calls, counters, missing = merge_spans(trace.spans)
    if any(not s["module"].startswith(str(SRC)) for s in trace.spans):
        problems.append(f"traced run imported plantbench from outside {SRC}")
    missing_spans = {span for span, module, attr in TARGETS if f"{module}.{attr}" in missing}
    for span, want in workload.expected_calls.items():
        if span not in missing_spans and calls[span] != want:
            problems.append(f"span {span} fired {calls[span]} times, expected {want}")
    have_counters = "dynamics.counters" not in missing and all(c in counters for c in COUNTERS)
    if have_counters and "energy.classify" not in missing_spans:
        classified = counters["rows"] - counters["diverged"]
        if calls["energy.classify"] != classified:
            problems.append(
                f"span energy.classify fired {calls['energy.classify']} times, "
                f"expected {classified} (rows - diverged)"
            )
    if have_counters:
        csv_diverged = sum(o.get("counts", {}).get("label:diverged", 0)
                           for o in plain.outputs.values())
        if csv_diverged != counters["diverged"]:
            problems.append(f"CSV diverged total {csv_diverged} != traced {counters['diverged']}")

    attributed = sum(self_s.values())
    integrate = self_s["dynamics.integrate"]
    metrics = {
        "oracle.eig_s": self_s["oracle.eig"], "oracle.eig_calls": calls["oracle.eig"],
        "oracle.brute_s": self_s["oracle.brute"], "oracle.brute_calls": calls["oracle.brute"],
        "dynamics.integrate_s": integrate, "dynamics.rows": counters["rows"],
        "dynamics.steps_sum": counters["steps_sum"], "dynamics.row_steps": counters["row_steps"],
        "dynamics.live_share": counters["steps_sum"] / counters["row_steps"] if counters["row_steps"] else 0.0,
        "dynamics.gflop": counters["flop"] / 1e9,
        "dynamics.gflop_per_s": counters["flop"] / 1e9 / integrate if integrate else 0.0,
        "dynamics.converged": counters["converged"],
        "dynamics.unconverged": counters["rows"] - counters["converged"] - counters["diverged"],
        "dynamics.diverged": counters["diverged"],
        "dynamics.init_s": self_s["dynamics.init"], "dynamics.init_calls": calls["dynamics.init"],
        "energy.classify_s": self_s["energy.classify"],
        "energy.classify_calls": calls["energy.classify"],
        "energy.classifier_build_s": self_s["energy.classifier_build"],
        "energy.eval_s": self_s["energy.eval"], "energy.spectrum_s": self_s["energy.spectrum"],
        "energy.measure_s": self_s["energy.measure"],
        "instance.generate_s": self_s["instance.generate"], "instance.build_s": self_s["instance.build"],
        "bench.self_s": self_s["bench"], "bench.hist_s": self_s["bench.hist"],
        "bench.write_s": self_s["bench.write"], "bench.bytes_written": counters["bytes_written"],
        "render.svg_s": self_s["render.svg"], "cli.self_s": self_s["cli"],
        "trace.wall_s": trace.wall_s, "trace.overhead_s": trace.wall_s - plain.wall_s,
        "trace.unattributed_s": trace.wall_s - attributed,
        "trace.missing": len(missing),
    }
    if missing:
        report.append("missing (reported as 0): " + ", ".join(missing))
    report.append(f"untraced wall_s {plain.wall_s:.4f}, traced wall_s {trace.wall_s:.4f}")
    shares = sorted(((v, k) for k, v in self_s.items()), reverse=True)
    report.append("self time share of traced wall: " + ", ".join(
        f"{k} {v / trace.wall_s:.1%}" for v, k in shares))
    counter_view = {k: metrics[f"dynamics.{k}"] for k in ("rows", "converged", "unconverged", "diverged")}
    if seed == REFERENCE_SEED:
        problems += check_reference(workload.name, plain.outputs, report)
        ref = load_reference().get(workload.name, {}).get("counters")
        if ref is not None:
            report.append("dynamics counters vs reference: "
                          + ("identical" if ref == counters else f"DIFFERENT (reference {ref})"))
        if write_reference:
            write_reference_entry(workload.name, plain.outputs, counters)
            report.append(f"reference written for {workload.name}")
    report.append(f"dynamics counters {counter_view}")
    return Result(metrics, plain.attempted + trace.attempted,
                  plain.failed + trace.failed, problems, report)


def write_reference_entry(name: str, outputs: dict, counters: dict) -> None:
    ref = load_reference()
    ref[name] = {"seed": REFERENCE_SEED, "outputs": outputs, "counters": counters}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool, write_reference: bool) -> Result:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            return traced(workload, seed, work_dir, write_reference)
        return end_to_end(workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def print_result(name: str, seed: int, result: Result, units: dict[str, str]) -> None:
    print(f"== {name} seed {seed}")
    for line in result.report:
        print(f"  {line}")
    for problem in result.problems:
        print(f"  PROBLEM {problem}")
    for key, value in result.metrics.items():
        print(f"  {key} {value:.6g} {units[key]}")
    frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"  failed_frac {frac:g} ({result.failed}/{result.attempted} invocations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="rounds over all workloads (with --workload all)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"with --trace 1 --seed {REFERENCE_SEED}: record reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "plantbench" / "cli.py").is_file():
        print(f"error: no plantbench sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, for the calibration kernel
    for key, value in facts().items():
        print(f"fact {key} {value}")
    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rounds = args.repeats if args.workload == "all" else 1
    samples: dict[str, list[Result]] = {name: [] for name in names}
    for r in range(rounds):
        # Interleave workloads, rotating the order, so drift of a shared
        # machine spreads over all of them instead of landing on one.
        for name in names[r % len(names):] + names[: r % len(names)]:
            result = run_one(name, args.seed, args.seconds, bool(args.trace), args.write_reference)
            samples[name].append(result)
            print_result(name, args.seed, result, units)
            sys.stdout.flush()
    results = [res for runs in samples.values() for res in runs]
    if args.workload == "all":
        print("== summary (median, quartiles, sample count)")
        metrics = {}
        for name, runs in samples.items():
            for key in units:
                values = [res.metrics[key] for res in runs]
                metrics[f"{name}/{key}"] = statistics.median(values)
                print(f"  {name} {key} {statistics.median(values):.6g} {units[key]} ({quartiles(values)})")
    else:
        metrics = results[0].metrics
    attempted = sum(res.attempted for res in results)
    failed = sum(res.failed for res in results)
    correct = not any(res.problems for res in results)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.split("/")[-1]]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

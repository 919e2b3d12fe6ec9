"""Run one plantbench CLI call with spans around the package's layers.

    python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

The process imports plantbench.cli, replaces each public name in
TARGETS at the module where its callers look it up (bench.run_batch,
not dynamics.run_batch), calls cli.main under a root span "cli", and
writes per-span self time and call counts to SPANS_JSON.  A span's
self time is its duration minus the time of the spans it encloses.
The work counters of the dynamics layer are computed from the
outcomes bench.run_batch returns.  A name that no longer exists, or
outcomes without the RunOutcome fields, are listed as missing rather
than failing the call.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (span, module under plantbench, attribute; Class.method patches a class)
TARGETS = (
    ("bench", "bench", "sweep_sr"),
    ("bench", "bench", "sweep_k"),
    ("bench.hist", "bench", "histogram"),
    ("bench.write", "bench", "write_sweep_csv"),
    ("bench.write", "bench", "write_sidecar"),
    ("bench.write", "bench", "write_ksweep_csv"),
    ("bench.write", "bench", "write_hist_csv"),
    ("dynamics.integrate", "bench", "run_batch"),
    ("dynamics.init", "bench", "random_initial"),
    ("oracle.eig", "oracle", "max_eigenvalue"),
    ("oracle.brute", "oracle", "brute_force"),
    ("energy.classify", "energy", "OutcomeClassifier.classify"),
    ("energy.classifier_build", "energy", "OutcomeClassifier.__init__"),
    ("energy.eval", "energy", "qubo_energy_many"),
    ("energy.spectrum", "energy", "planted_spectrum"),
    ("energy.measure", "energy", "measure_bins"),
    ("instance.generate", "bench", "generate_orthogonal_patterns"),
    ("instance.generate", "cli", "catalogue_pattern_set"),
    ("instance.build", "bench", "build_couplings"),
    ("instance.build", "cli", "build_couplings"),
    ("render.svg", "render", "heatmap_svg"),
    ("render.svg", "render", "histogram_svg"),
    ("render.svg", "render", "measure_svg"),
)

COUNTERS = ("rows", "steps_sum", "row_steps", "flop", "converged", "diverged")


class Tracer:
    """Per-span self time and calls, plus the counters hooks add."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._children: list[float] = []  # enclosed span time, one per open span

    def wrap(self, span: str, fn, after=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.self_s[span] = self.self_s.get(span, 0.0) + took - self._children.pop()
                self.calls[span] = self.calls.get(span, 0) + 1
            if after is not None:
                # Hook time is tracing overhead: hide it from the enclosing
                # span so it lands in the unattributed remainder.
                hook_start = time.perf_counter()
                after(args, kwargs, result)
                took += time.perf_counter() - hook_start
            if self._children:
                self._children[-1] += took
            return result

        return traced

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def count_outcomes(self, args, kwargs, outcomes) -> None:
        """Dynamics work counters from run_batch(inst, cfg, x0_block, ...)."""
        try:
            n = int(args[0].n)
            steps = [int(o.steps_used) for o in outcomes]
            converged = sum(bool(o.converged) for o in outcomes)
            diverged = sum(bool(o.diverged) for o in outcomes)
        except (AttributeError, IndexError, TypeError):
            if "dynamics.counters" not in self.missing:
                self.missing.append("dynamics.counters")
            return
        row_steps = len(steps) * max(steps, default=0)
        self.count("rows", len(steps))
        self.count("steps_sum", sum(steps))
        self.count("row_steps", row_steps)
        self.count("flop", 2 * n * n * row_steps)
        self.count("converged", converged)
        self.count("diverged", diverged)

    def count_bytes(self, args, kwargs, result) -> None:
        """Size of the file a bench writer was given as its second argument."""
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.count("bytes_written", os.path.getsize(path))

    def install(self, package) -> None:
        hooks = {"dynamics.integrate": self.count_outcomes, "bench.write": self.count_bytes}
        for span, module_name, attr in TARGETS:
            owner = getattr(package, module_name, None)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self.wrap(span, fn, hooks.get(span)))


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    import plantbench
    import plantbench.cli

    tracer = Tracer()
    tracer.install(plantbench)
    code = tracer.wrap("cli", plantbench.cli.main)(cli_argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"self_s": tracer.self_s, "calls": tracer.calls,
             "counters": tracer.counters, "missing": tracer.missing,
             "module": plantbench.__file__},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The bredon benchmark: one command, four workloads, checked outputs.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload fiber --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all            # every workload in turn

Everything runs in this one process on one thread.  ``--trace 0`` measures
the end-to-end metrics, each time scaled to a fixed host speed by a
reference task timed between passes (see ``reference_task``); ``--trace 1``
alternates untraced and traced passes for ``--seconds``, and reports the
per-layer metrics of the fastest traced pass plus the tracing overhead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the command exits 1 when any output check fails
and 2 when the package under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import statistics
import sys
import resource
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from tracing import SEARCH, Tracer  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

SETUP_REPEATS = 15
MIN_PASSES = 3
REFERENCE_REPEATS = 2
REFERENCE_NOMINAL_S = 0.040
REFERENCE_WINDOW = 2  # reference timings on each side of a timed interval that scale it

# name -> (unit, meaning); BENCHMARK.json lists the same names and units.
#
# Every timing is scaled to a fixed host speed.  On a shared host, slow
# phases that last from seconds to minutes slow every operation by up to
# two times; the process's CPU time slows with its wall time, so the cause
# is contention inside the CPU, which no choice of sample within one run
# removes when a phase covers the whole run.  So a fixed pure-Python
# reference task, independent of bredon, is timed between every two passes
# (and after every set-up), and the work in between is scaled by
# REFERENCE_NOMINAL_S over the median of the REFERENCE_WINDOW reference
# timings on either side of it: a few seconds of the host's speed, which
# tracks its slow phases without following every burst that a single 40 ms
# timing catches.  A value therefore reads in seconds on a host where the
# reference task takes 40 ms, about its time on an idle host; a change to
# bredon moves it by the same share as it moves the wall time.  Per input,
# the median of its scaled operations is kept: a median of ratios ignores a
# single slow reference sample, where a fastest would pick it.  The raw
# wall-clock times are printed in the report lines.
END_TO_END = {
    "setup_s": ("s", "import bredon, parse the constraint files and build the inputs; median of 15 scaled set-ups"),
    "pass_s": ("s", "one pass over all inputs (solve_s on fiber and duality): sum of each input's scaled median"),
    "op_ms_p50": ("ms", "latency of one operation (a solve, a query or a report); median over inputs of their scaled median"),
    "first_result_ms_p50": ("ms", "from an operation's call to its first result (first stdout line of a solve); as op_ms_p50"),
    "results_per_s": ("1/s", "modules written, returned or reported in one pass, per second of pass_s"),
    "peak_mem_mb": ("MB", "peak resident set size of the process: interpreter, package, inputs and the largest pass"),
}

TRACED_FUNCTIONS = (
    "algebra.make_module",
    "algebra.from_json_dict",
    "localization.underlying_singular",
    "localization.rho_localize",
    "localization.pd_symmetric",
    "localization.real_manifold_validate",
    "localization.forgetful_image_dims",
    "localization.tau_localize",
    "localization.fixed_poincare_polynomial",
    "classification.classify",
    "classification.smith_thom_report",
    "serialize.canonical_dumps",
)

PER_LAYER = {
    "solver.search_self_s": ("s", "enumerate_decompositions minus its make_module and satisfies_constraints children"),
    "solver.finalize_s": ("s", "make_module and satisfies_constraints called from the search"),
    "solver.finalize_share": ("ratio", "finalize_s / enumerate_decompositions time; 0 when the solver does not run"),
    "solver.candidates": ("count", "candidates re-checked by finalize"),
    "solver.accepted": ("count", "candidates that passed the re-check"),
    "solver.accept_ratio": ("ratio", "accepted / candidates; 0 when the solver does not run"),
    **{
        f"{fn}.{kind}": (unit, f"{fn} {what}")
        for fn in TRACED_FUNCTIONS
        for kind, unit, what in (("calls", "count", "calls"), ("self_s", "s", "self time"))
    },
    "serialize.canonical_dumps.bytes": ("bytes", "characters of canonical JSON produced"),
    "cli.parse_s": ("s", "load_json_file plus ConstraintSet.from_json_dict: reading the input files"),
    "cli.main.self_s": ("s", "cli.main minus its traced children: argument parsing and printing"),
    "trace.overhead_ratio": ("ratio", "fastest traced pass / fastest untraced pass, same run"),
}


def reference_task() -> int:
    """Fixed pure-Python work that never touches bredon: small dicts keyed
    by tuples, sorting and JSON, the kind of work the workloads do.  About
    40 ms on an idle host; only its time is used, to scale the others."""
    rng = random.Random(7)
    rows = []
    for _ in range(3000):
        counts: dict[tuple[int, int], int] = {}
        for j in range(8):
            key = (rng.randrange(9), rng.randrange(5))
            counts[key] = counts.get(key, 0) + j
        rows.append(tuple(sorted((p, q, m) for (p, q), m in counts.items())))
    rows.sort()
    return len(json.dumps([[list(t) for t in row] for row in rows[:1500]], separators=(",", ":")))


def import_bredon() -> SimpleNamespace:
    """A fresh import of the package from this checkout's ``src/``.

    Earlier imports are dropped first, so every set-up pays the import and
    the last one leaves the modules the passes use.
    """
    for name in [k for k in sys.modules if k == "bredon" or k.startswith("bredon.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    bredon = importlib.import_module("bredon")
    if not Path(bredon.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bredon was imported from {bredon.__file__}, not from {SRC}")
    parts = ("algebra", "catalog", "classification", "cli", "exceptions",
             "localization", "serialize", "solver")
    return SimpleNamespace(
        bredon=bredon, **{p: importlib.import_module(f"bredon.{p}") for p in parts}
    )


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9)):
        if len(ordered) * (1 - q) >= 10:
            return label, ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return None


class Run:
    """One workload at one seed: set-up, measured passes and the checks."""

    def __init__(self, name: str, seed: int, size: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: str | None = None
        # Timings only: keeping every operation alive would make the
        # collector's full passes, which run inside timed passes, ever slower.
        self.latencies = array("d")
        # Per timed pass: the index of the reference timing before it, and
        # its operations' latencies and first-result times.
        self.timed: list[tuple[int, array, array]] = []
        self.setup_times: list[float] = []
        self.setup_refs: list[int] = []
        self.reference_times = array("d")
        self.workload.prepare(seed, size)
        self.calibrate()
        self.set_up()

    def calibrate(self):
        """Time the reference task, best of REFERENCE_REPEATS."""
        gc.collect()
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - start)
        self.reference_times.append(min(times))

    def scale(self, before: int) -> float:
        """The scale for work done between reference timings ``before`` and
        ``before + 1``."""
        window = self.reference_times[max(0, before + 1 - REFERENCE_WINDOW):before + 1 + REFERENCE_WINDOW]
        return REFERENCE_NOMINAL_S / statistics.median(window)

    def scaled_setups(self) -> list[float]:
        return [t * self.scale(j) for t, j in zip(self.setup_times, self.setup_refs)]

    def scaled_medians(self) -> tuple[list[float], list[float]]:
        """Per input, the median of its scaled latencies and of its scaled
        first-result times."""
        scales = [self.scale(j) for j, _, _ in self.timed]
        def medians(column: int) -> list[float]:
            count = len(self.timed[0][column])
            return [statistics.median(t[column][i] * k for t, k in zip(self.timed, scales))
                    for i in range(count)]
        return medians(1), medians(2)

    def set_up(self):
        """Import the package afresh and build the inputs; later passes use these.

        The previous set-up's inputs are freed first, so that every set-up
        starts from the same heap and its collections scan no more.  The
        reference task is timed right after it, to scale it.
        """
        self.env = self.inputs = None
        gc.collect()
        start = time.perf_counter()
        self.env = import_bredon()
        self.inputs = self.workload.build(self.env, self.seed, self.size)
        self.setup_times.append(time.perf_counter() - start)
        self.setup_refs.append(len(self.reference_times) - 1)
        self.calibrate()

    def one_pass(self, first_query: int, tracer: Tracer | None = None) -> Pass:
        gc.collect()
        if tracer is not None:
            tracer.reset_totals()
            tracer.install()
        start = time.perf_counter()
        try:
            ops = self.workload.run_pass(self.env, self.inputs, tracer, first_query)
        except Exception:  # a crashing pass fails all of its operations
            self.errors.append(traceback.format_exc())
            ops = None
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        planned = len(self.inputs)
        self.attempted += planned
        if ops is None:
            self.failed += planned
            return Pass(wall, [], failed=planned, crashed=True)
        passed = Pass(wall, ops)
        self.workload.check(self.env, self.inputs, passed, self.size)
        if self.digest is None:
            self.digest = passed.digest
        elif passed.digest != self.digest:
            passed.notes.append(f"output digest {passed.digest[:12]} differs from the first pass")
        errors = [op.error for op in ops if op.error] + passed.notes
        passed.failed = min(planned, len(errors))
        self.failed += passed.failed
        self.errors += errors
        passed.results = sum(op.results for op in ops)
        passed.timings = [(op.latency_s, op.first_s) for op in ops]
        passed.ops = []
        return passed

    def record(self, passed: Pass):
        """Keep a timed pass's operation times, to be scaled when the run ends."""
        if passed.crashed:
            return
        latencies = array("d", (latency for latency, _ in passed.timings))
        self.latencies.extend(latencies)
        self.timed.append((len(self.reference_times) - 1, latencies,
                           array("d", (first for _, first in passed.timings))))
        passed.timings = []

    def measure(self, seconds: float) -> list[Pass]:
        """Untraced passes until ``seconds`` have elapsed, at least
        MIN_PASSES, each followed by the reference task that scales it, with
        the set-up repeated between passes, evenly over the window, until
        there are SETUP_REPEATS of them."""
        out = []
        start = time.perf_counter()
        deadline = start + seconds
        while len(out) < MIN_PASSES or time.perf_counter() < deadline:
            out.append(self.one_pass(0))
            self.record(out[-1])
            self.calibrate()
            due = start + seconds * len(self.setup_times) / SETUP_REPEATS
            if len(self.setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
                self.set_up()
        while len(self.setup_times) < SETUP_REPEATS:
            self.set_up()
        return out

    def measure_traced(self, seconds: float, tracer: Tracer) -> tuple[list[Pass], list[tuple[Pass, dict]]]:
        """Untraced and traced passes in turn, so that both see the same
        phases of a shared host; returns the untraced passes and the traced
        ones with their per-layer metrics."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            untraced.append(self.one_pass(0))
            passed = self.one_pass(len(traced) * len(self.inputs), tracer)
            traced.append((passed, layer_metrics(tracer)))
        return untraced, traced

    @staticmethod
    def peak_memory_mb() -> float:
        """The process's peak resident set size so far (Linux reports KiB).

        A tracemalloc pass would give the peak of one pass alone, but it
        runs 10 to 15 times slower than a plain pass (18 s on ``duality``),
        which the run's time budget cannot spare from measuring.
        """
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def finish(self):
        attempted, failed = self.workload.final_check(self.env, self.inputs, self.size)
        self.workload.clean()
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(f"{failed} of {attempted} reference checks failed")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    m = {
        "solver.search_self_s": tracer.self_s(SEARCH),
        "solver.finalize_s": tracer.finalize_s,
        "solver.finalize_share": (
            tracer.finalize_s / tracer.inclusive_s(SEARCH) if tracer.candidates else 0.0
        ),
        "solver.candidates": tracer.candidates,
        "solver.accepted": tracer.accepted,
        "solver.accept_ratio": tracer.accepted / tracer.candidates if tracer.candidates else 0.0,
        "serialize.canonical_dumps.bytes": tracer.dumped_bytes,
        "cli.parse_s": tracer.inclusive_s("cli.load_json_file")
        + tracer.inclusive_s("cli.constraints_from_json"),
        "cli.main.self_s": tracer.self_s("cli.main"),
    }
    for fn in TRACED_FUNCTIONS:
        m[f"{fn}.calls"] = tracer.calls(fn)
        m[f"{fn}.self_s"] = tracer.self_s(fn)
    return m


def end_to_end(run: Run, passes: list[Pass], peak_mb: float) -> tuple[dict, list[str]]:
    """Timings are scaled (see END_TO_END); per input the median over
    passes, then summed or, for the latencies, the median over inputs,
    which keeps ``duality``, whose two solves differ in cost, out of the gap
    between them."""
    passes = [p for p in passes if not p.crashed]
    if not passes:
        raise RuntimeError("every pass crashed:\n" + "\n".join(run.errors[:3]))
    latency, first = run.scaled_medians()
    pass_s = sum(latency)
    values = {
        "setup_s": statistics.median(run.scaled_setups()),
        "pass_s": pass_s,
        "op_ms_p50": statistics.median(latency) * 1e3,
        "first_result_ms_p50": statistics.median(first) * 1e3,
        "results_per_s": passes[0].results / pass_s,
        "peak_mem_mb": peak_mb,
    }
    walls = [p.wall_s for p in passes]
    tail = tail_percentile(run.latencies)
    notes = [
        f"samples: {len(run.setup_times)} set-ups, {len(passes)} passes, "
        f"{len(run.latencies)} operations, {len(run.reference_times)} reference tasks",
        f"wall clock, unscaled: set-up median {statistics.median(run.setup_times):.4f} s, "
        f"pass fastest {min(walls):.4f} s and median {statistics.median(walls):.4f} s; "
        f"reference task median {statistics.median(run.reference_times) * 1e3:.2f} ms "
        f"(nominal {REFERENCE_NOMINAL_S * 1e3:.0f} ms)",
        "op latency tail, unscaled: " + (
            f"{tail[0]} = {tail[1] * 1e3:.4f} ms" if tail
            else f"none (fewer than 100 operations; max {max(run.latencies) * 1e3:.4f} ms)"
        ),
    ]
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload; returns the result object plus report lines."""
    run = Run(name, seed, size)
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  size {size}"]
    if not trace:
        timed = run.measure(seconds)
        values, notes = end_to_end(run, timed, run.peak_memory_mb())
        table = END_TO_END
    else:
        tracer = Tracer()
        untraced, traced = run.measure_traced(seconds, tracer)
        fastest, values = min(traced, key=lambda pair: pair[0].wall_s)
        values["trace.overhead_ratio"] = fastest.wall_s / min(p.wall_s for p in untraced)
        path = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        tracer.write(path, {"workload": name, "seed": seed, "size": size,
                            "passes": len(traced)})
        notes = [f"samples: {len(untraced)} untraced and {len(traced)} traced passes; "
                 f"{len(tracer)} spans written to {path.relative_to(ROOT)}"]
        table = PER_LAYER
    run.finish()
    for key, (unit, meaning) in table.items():
        lines.append(f"  {key:<44} {values[key]:>16.6f} {unit:<6} {meaning}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    lines += [f"  {note}" for note in notes]
    lines.append(f"  failure_ratio {ratio:.6f} ({run.failed} failed of {run.attempted} attempted)")
    lines.append(f"  output digest {run.digest}")
    lines += [f"  FAILED: {e.strip()}" for e in run.errors[:10]]
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, (unit, _) in table.items()},
        "digest": run.digest,
        "lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        import_bredon()
    except ImportError as exc:
        print(f"cannot import bredon from {SRC}: {exc}", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        print("\n".join(results[name]["lines"]), flush=True)
    if len(names) == 1:
        result = results[names[0]]
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests, at smoke size; they take a few seconds.

    python3 benchmarks/selftest.py

(or ``python3 -m pytest benchmarks/selftest.py``).  They check that every
metric is printed by name with its unit, that the output gate fails when a
result loses one module, and that traced and untraced runs emit the same
outputs.  The fault is injected here, in benchmark code, never in ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from functools import cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 0.2
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@cache
def smoke(name: str, trace: bool) -> dict:
    return run.run_workload(name, SEED, SECONDS, trace, size="smoke")


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (unit, _) in run.PER_LAYER.items()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_every_metric_printed_with_its_unit():
    for name in WORKLOADS:
        for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = smoke(name, trace)
            assert result["correct"] and result["failed"] == 0, result["lines"]
            assert set(result["metrics"]) == set(table)
            for key, (unit, _) in table.items():
                assert result["metrics"][key]["unit"] == unit
                assert any(
                    line.split()[:1] == [key] and f" {unit} " in line
                    for line in result["lines"]
                ), (name, key)
            assert any(line.strip().startswith("failure_ratio 0.0") for line in result["lines"])


def test_traced_and_untraced_runs_emit_the_same_outputs():
    for name in WORKLOADS:
        untraced, traced = smoke(name, False), smoke(name, True)
        assert untraced["digest"] and untraced["digest"] == traced["digest"], name


def _drop_one_module(workload):
    """Make the first pass lose one module from its first result."""
    original = workload.run_pass
    done = []

    def faulty(env, inputs, tracer=None, first_query=0):
        ops = original(env, inputs, tracer, first_query)
        if not done:
            done.append(True)
            op = ops[0]
            if isinstance(op.output, str):  # a solve or a report: drop the first line
                op.output = op.output.split("\n", 1)[1]
            else:  # a query: drop the last module
                op.output = op.output[:-1]
            op.results -= 1
        return ops

    workload.run_pass = faulty


def test_gate_fails_when_a_module_is_dropped():
    for name, workload in WORKLOADS.items():
        _drop_one_module(workload)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", str(SEED),
                                 "--seconds", str(SECONDS), "--size", "smoke"])
        finally:
            del workload.run_pass
        result = json.loads(out.getvalue().splitlines()[-1])
        assert code != 0, name
        assert result["correct"] is False and result["failed"] > 0, name
        assert result["failed"] / result["attempted"] > 0
        assert set(result["metrics"]) == set(run.END_TO_END)


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failures = 0
    for label, test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

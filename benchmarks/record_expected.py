"""Record the counts and digests that the benchmark checks outputs against.

From the repository root::

    python3 benchmarks/record_expected.py --record   # rewrite expected.json
    python3 benchmarks/record_expected.py --oracle   # cross-check it

Record only at a commit whose outputs are trusted: the benchmark's gate
compares every later commit with what is written here.

``--oracle`` reads the committed ``expected.json``, never writes it, and
compares each solve set's recorded count and digest with the independent
brute-force enumerator in ``tests/bruteforce.py``.  Each set runs in a
child process; one that the oracle cannot finish within ORACLE_SECONDS, or
within ORACLE_MEMORY_MB (the oracle materialises the whole unpruned
fiber), is reported as not covered.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from run import ROOT, import_bredon
from workloads import HERE, SOLVE_SETS, WORKLOADS, sha256

ORACLE_SECONDS = 600
ORACLE_MEMORY_MB = 2000


def solve_expected(env, name: str, size: str) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.build(env, 0, size)
    return {
        path.name: {"modules": op.results, "sha256": sha256(op.output)}
        for op, path in zip(workload.run_pass(env, inputs), inputs)
    }


def record(size: str) -> dict:
    env = import_bredon()
    pinned = WORKLOADS["pinned"]
    queries = pinned.build(env, 0, size)
    total, digest = pinned.digest(queries, pinned.run_pass(env, queries))
    report = WORKLOADS["report"]
    reference = report.digest(report.reference(env, size)[1])
    report.clean()
    return {
        "fiber": solve_expected(env, "fiber", size),
        "duality": solve_expected(env, "duality", size),
        "pinned": {"queries": len(queries), "modules": total, "sha256": digest},
        "report": {"reference_sha256": reference},
    }


def oracle_set(size: str, name: str, filename: str) -> int:
    """Child process: compare one solve set with tests/bruteforce.py."""
    env = import_bredon()
    sys.path.insert(0, str(ROOT / "tests"))
    from bruteforce import brute_force_decompositions

    path = HERE / "data" / filename
    cs = env.solver.ConstraintSet.from_json_dict(env.serialize.load_json_file(path))
    start = time.perf_counter()
    oracle = brute_force_decompositions(cs)
    text = "".join(env.serialize.canonical_dumps(m.to_json_dict()) + "\n" for m in oracle)
    want = json.loads((HERE / "expected.json").read_text())[size][name][filename]
    agree = (
        oracle == env.solver.enumerate_decompositions(cs)
        and len(oracle) == want["modules"]
        and sha256(text) == want["sha256"]
    )
    print(f"{filename}: oracle {len(oracle)} modules in {time.perf_counter() - start:.1f} s, "
          + ("agrees" if agree else "DISAGREES"))
    return 0 if agree else 1


def oracle_check() -> list[str]:
    """Run oracle_set for every solve set, each in a bounded child process."""

    def limit_memory():
        cap = ORACLE_MEMORY_MB * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    lines = []
    for size in ("full", "smoke"):
        for name in SOLVE_SETS:
            for filename in SOLVE_SETS[name][size]:
                command = [sys.executable, __file__, "--oracle-set", size, name, filename]
                try:
                    child = subprocess.run(command, capture_output=True, text=True,
                                           timeout=ORACLE_SECONDS, preexec_fn=limit_memory)
                except subprocess.TimeoutExpired:
                    lines.append(f"{filename}: oracle did not finish in {ORACLE_SECONDS} s; not covered")
                    continue
                if child.returncode != 0 and "MemoryError" in child.stderr:
                    lines.append(f"{filename}: oracle needs more than {ORACLE_MEMORY_MB} MB; not covered")
                elif child.stdout.strip():
                    lines.append(child.stdout.strip())
                else:
                    lines.append(f"{filename}: oracle failed: {child.stderr.strip()[-300:]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite expected.json")
    mode.add_argument("--oracle", action="store_true", help="cross-check expected.json")
    mode.add_argument("--oracle-set", nargs=3, metavar=("SIZE", "WORKLOAD", "FILE"),
                      help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.oracle_set:
        return oracle_set(*args.oracle_set)
    if args.oracle:
        lines = oracle_check()
        print("\n".join(lines))
        return 0 if all(line.endswith(("agrees", "not covered")) for line in lines) else 1
    data = {size: record(size) for size in ("full", "smoke")}
    (HERE / "expected.json").write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps(data, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

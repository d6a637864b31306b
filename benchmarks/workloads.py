"""The four workloads: their inputs, one timed pass, and the output checks.

Each workload builds its inputs from the seed (the set-up, timed several
times per run), then runs passes.  A pass is a list of operations -- a ``bredon
solve``, a library query or a module report -- each timed from its call to
its last output.  Checks run after a pass and outside its timing; every
operation that fails a check, or raises, is counted as failed.

Why these four (see also BENCHMARK.json and README.md):

* ``fiber``: the Betti-only K3 fiber; every candidate is accepted, so the
  time goes to materialising, re-checking and printing results.
* ``duality``: Poincare-dual constraint sets; the only workload that runs
  mirror forcing, ``pd_symmetric`` and ``real_manifold_validate``, and the
  only one whose class filter rejects candidates.
* ``pinned``: many small library queries with full data derived from the
  catalog; bound by search and per-call overhead, not by ``finalize``.
* ``report``: the library-user path of ``bredon report --format json``; the
  solver does not run.

The Betti-only cubic fiber (130,687 modules, about 15 s per solve) is left
out: too slow to repeat, and ``duality`` already covers n >= 3.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
BUILD = HERE.parent / ".bench_build"  # git-ignored; the report corpus files

# Inputs per size.  "smoke" exists so the benchmark's own tests run in
# seconds; measured runs and the baseline always use "full".
SOLVE_SETS = {
    "fiber": {"full": ["k3_betti.json"], "smoke": ["smoke_fiber.json"]},
    "duality": {
        "full": ["pd_n3.json", "pd_n4_neither.json"],
        "smoke": ["smoke_pd_n3.json", "smoke_pd_n4_neither.json"],
    },
}
REPORT_CORPUS = {"full": 5000, "smoke": 200}
REPORT_REFERENCE = {"full": (0, 500), "smoke": (0, 50)}  # (seed, size)
PINNED_SMOKE_QUERIES = 20


@functools.cache
def expected() -> dict:
    """Counts and digests recorded at the seed commit by record_expected.py."""
    return json.loads((HERE / "expected.json").read_text())


def canonical(data) -> str:
    """Canonical JSON for the checker's digests, independent of bredon."""
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One timed operation and what it produced."""

    latency_s: float
    first_s: float
    results: int
    output: object = None
    error: str | None = None


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]
    failed: int = 0
    digest: str = ""
    notes: list[str] = field(default_factory=list)
    results: int = 0
    crashed: bool = False
    timings: list[tuple[float, float]] = field(default_factory=list)  # (latency_s, first_s) per op


class _TimestampSink:
    """A stdout replacement that records when the first line starts."""

    def __init__(self):
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = time.perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


class Workload:
    name = ""

    def build(self, env, seed: int, size: str):
        """Inputs for one run; the only place the seed is used."""
        raise NotImplementedError

    def run_pass(self, env, inputs, tracer=None, first_query: int = 0) -> list[Op]:
        raise NotImplementedError

    def check(self, env, inputs, passed: Pass, size: str) -> None:
        """Set ``op.error`` on failed operations, add pass-level failures to
        ``passed.notes``, and set the pass's output digest."""
        raise NotImplementedError

    def final_check(self, env, inputs, size: str) -> tuple[int, int]:
        """Checks made once per run; returns (attempted, failed)."""
        return 0, 0

    def prepare(self, seed: int, size: str) -> None:
        """Write the files the inputs name; once per run, before set-up."""

    def clean(self) -> None:
        """Remove the files that prepare wrote; called after a run."""


def _set_query(tracer, query: int):
    if tracer is not None:
        tracer.query_id = query


class SolveWorkload(Workload):
    """``bredon solve`` through ``bredon.cli.main``, stdout captured."""

    def __init__(self, name: str):
        self.name = name

    def build(self, env, seed, size):
        paths = [DATA / f for f in SOLVE_SETS[self.name][size]]
        for path in paths:  # parse once, as a user's first look at the file would
            env.solver.ConstraintSet.from_json_dict(env.serialize.load_json_file(path))
        return paths

    def run_pass(self, env, inputs, tracer=None, first_query=0):
        ops = []
        for i, path in enumerate(inputs):
            _set_query(tracer, first_query + i)
            sink = _TimestampSink()
            start = time.perf_counter()
            with redirect_stdout(sink):
                code = env.cli.main(["solve", "--constraints", str(path)])
            end = time.perf_counter()
            text = "".join(sink.parts)
            ops.append(Op(
                latency_s=end - start,
                first_s=(sink.first if sink.first is not None else end) - start,
                results=text.count("\n"),
                output=text,
                error=None if code == 0 else f"exit code {code}",
            ))
        return ops

    def check(self, env, inputs, passed, size):
        recorded = expected()[size][self.name]
        digests = []
        for op, path in zip(passed.ops, inputs):
            want = recorded[path.name]
            got = sha256(op.output)
            digests.append(got)
            if op.error is None and (op.results != want["modules"] or got != want["sha256"]):
                op.error = f"{path.name}: {op.results} modules, sha256 {got[:12]}"
        passed.digest = sha256(" ".join(digests))


class PinnedWorkload(Workload):
    """Library queries with full data derived from catalog entries."""

    name = "pinned"

    @staticmethod
    def entries(catalog_get, ParameterRange):
        """Every valid k3(b_star, chi), curve(g, r) for r <= g <= 10,
        projective_space(1..4) and the S^3 + RP^3 cubic threefold."""
        out = []
        for b_star in range(0, 25, 2):
            for chi in range(-b_star, b_star + 1):
                try:
                    out.append(catalog_get("k3", b_star=b_star, chi=chi))
                except ParameterRange:
                    continue
        out += [catalog_get("curve", g=g, r=r) for g in range(11) for r in range(g + 1)]
        out += [catalog_get("projective_space", n=n) for n in range(1, 5)]
        out.append(catalog_get("cubic_threefold_s3_rp3"))
        return out

    def build(self, env, seed, size):
        queries = []
        for qid, entry in enumerate(self.entries(env.catalog.catalog_get, env.exceptions.ParameterRange)):
            m = entry.module
            cs = env.solver.ConstraintSet(
                dimension=entry.dimension,
                betti_total=env.localization.underlying_singular(m).dims(),
                betti_fixed=env.localization.rho_localize(m),
                has_fixed_point=entry.has_fixed_point,
                connected=entry.connected,
                poincare_dual=entry.is_real_manifold,
            )
            queries.append((qid, cs, m))
        if size == "smoke":
            queries = queries[::len(queries) // PINNED_SMOKE_QUERIES][:PINNED_SMOKE_QUERIES]
        self.order = random.Random(seed)
        return queries

    def run_pass(self, env, inputs, tracer=None, first_query=0):
        """The queries in a new seeded order every pass, so that each
        query's time is a median over many predecessors: a small query's
        latency depends on the one run before it, and one fixed order made
        the median query latency differ by 13 % between seeds.  The
        operations are returned in input order."""
        order = list(range(len(inputs)))
        self.order.shuffle(order)
        ops: list[Op | None] = [None] * len(inputs)
        for i in order:
            _qid, cs, _source = inputs[i]
            _set_query(tracer, first_query + i)
            start = time.perf_counter()
            found = env.solver.enumerate_decompositions(cs)
            latency = time.perf_counter() - start
            ops[i] = Op(latency, latency, len(found), found)
        return ops

    @staticmethod
    def digest(inputs, ops) -> tuple[int, str]:
        """Total modules and a digest of all results in catalog order."""
        by_query = sorted(
            (qid, [m.to_json_dict() for m in op.output])
            for op, (qid, _cs, _source) in zip(ops, inputs)
        )
        return sum(len(found) for _, found in by_query), sha256(canonical(by_query))

    def check(self, env, inputs, passed, size):
        want = expected()[size]["pinned"]
        for op, (qid, _cs, source) in zip(passed.ops, inputs):
            keys = [m.sort_key() for m in op.output]
            if source not in op.output:
                op.error = f"query {qid}: source module missing"
            elif any(a >= b for a, b in zip(keys, keys[1:])):
                op.error = f"query {qid}: not sorted or has duplicates"
        total, passed.digest = self.digest(inputs, passed.ops)
        if len(passed.ops) != want["queries"] or total != want["modules"] \
                or passed.digest != want["sha256"]:
            passed.notes.append(
                f"{len(passed.ops)} queries, {total} modules, sha256 {passed.digest[:12]}"
            )


def report_corpus(seed: int, count: int) -> list[dict]:
    """Normal forms in the CW box of dimension n = 1..4, as module JSON.

    Free keys (p, q) have 0 <= q <= min(p, n) and p <= 2n; antipodal keys
    (r, t) have r + t <= 2n, which is the box the solver searches.
    """
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randint(1, 4)
        top = 2 * n
        free: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(0, top + 2)):
            p = rng.randint(0, top)
            key = (p, rng.randint(0, min(p, n)))
            free[key] = free.get(key, 0) + rng.randint(1, 3)
        anti: dict[tuple[int, int], int] = {}
        for _ in range(rng.randint(0, n + 1)):
            r = rng.randint(0, top)
            key = (r, rng.randint(0, top - r))
            anti[key] = anti.get(key, 0) + rng.randint(1, 3)
        corpus.append({
            "free": [[p, q, m] for (p, q), m in sorted(free.items())],
            "antipodal": [[r, t, m] for (r, t), m in sorted(anti.items())],
        })
    return corpus


class ReportWorkload(Workload):
    """``bredon report --module FILE --format json``, in-process, per module.

    Each module sits in its own file under the git-ignored ``.bench_build/``
    of the checkout.  The files are written once per run, before the timed
    set-ups and outside them: writing 5,000 small files took 0.16 to 1.7 s
    on the same disk, and that noise belongs to the host, not to bredon.
    The set-up still generates the corpus and its command lines.

    An operation is what ``cli.main`` does for one module apart from
    building its argument parser: parse the arguments, then run the command
    with stdout captured.  Building the parser takes about 3 ms, some 15
    times the report's own work, so it is done once per pass; otherwise it
    would be nearly all this workload measures.
    """

    name = "report"
    directory = BUILD / "report"

    @staticmethod
    def command_lines(corpus: list[dict], directory: Path) -> list[tuple[list[str], dict]]:
        """(command line, module JSON) per module; the file names are fixed."""
        return [
            (["report", "--module", str(directory / f"m{i:05d}.json"), "--format", "json"], data)
            for i, data in enumerate(corpus)
        ]

    @classmethod
    def write_corpus(cls, corpus: list[dict], directory: Path) -> list[tuple[list[str], dict]]:
        directory.mkdir(parents=True, exist_ok=True)
        inputs = cls.command_lines(corpus, directory)
        for (argv, data) in inputs:
            Path(argv[2]).write_text(json.dumps(data))
        return inputs

    def prepare(self, seed, size):
        self.clean()
        self.write_corpus(report_corpus(seed, REPORT_CORPUS[size]), self.directory / "corpus")

    def build(self, env, seed, size):
        return self.command_lines(report_corpus(seed, REPORT_CORPUS[size]), self.directory / "corpus")

    def run_pass(self, env, inputs, tracer=None, first_query=0):
        parser = env.cli.build_parser()
        ops = []
        for i, (argv, _data) in enumerate(inputs):
            _set_query(tracer, first_query + i)
            sink = _TimestampSink()
            start = time.perf_counter()
            with redirect_stdout(sink):
                code = env.cli._run(parser.parse_args(argv))
            latency = time.perf_counter() - start
            ops.append(Op(latency, latency, 1, "".join(sink.parts),
                          None if code == 0 else f"exit code {code}"))
        return ops

    @staticmethod
    def check_one(env, data, op: Op) -> str | None:
        """Check one report against the library, outside the timing."""
        if op.error is not None:
            return op.error
        try:
            return ReportWorkload._check_payload(env, data, json.loads(op.output))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"

    @staticmethod
    def _check_payload(env, data, payload: dict) -> str | None:
        loc, cls = env.localization, env.classification
        module = env.algebra.NormalFormModule.from_json_dict(data)
        ledger = payload["smith_thom"]
        if not (ledger["fixed"] <= ledger["group_cohomology"] <= ledger["singular"]):
            return "Smith-Thom chain fixed <= group cohomology <= singular fails"
        klass = cls.classify(module)
        if klass is not cls.borel_classify(loc.tau_localize(module)):
            return "classify disagrees with borel_classify(tau_localize)"
        if payload["class"] != klass.value or ledger["class"] != klass.value:
            return "report class disagrees with classify"
        fixed = loc.rho_localize(module)
        if fixed.items() != loc.fixed_poincare_polynomial(module).terms:
            return "rho_localize disagrees with fixed_poincare_polynomial"
        if payload["fixed_betti"] != [[d, v] for d, v in fixed.items()]:
            return "reported fixed Betti numbers disagree with rho_localize"
        return None

    @staticmethod
    def digest(ops) -> str:
        return sha256("".join(op.output for op in ops))

    def check(self, env, inputs, passed, size):
        for op, (_argv, data) in zip(passed.ops, inputs):
            op.error = self.check_one(env, data, op)
        passed.digest = self.digest(passed.ops)
        if len(passed.ops) != len(inputs):
            passed.notes.append(f"{len(passed.ops)} reports for {len(inputs)} modules")

    def reference(self, env, size: str):
        """The fixed reference corpus and its reports."""
        seed, count = REPORT_REFERENCE[size]
        inputs = self.write_corpus(report_corpus(seed, count), self.directory / "reference")
        return inputs, self.run_pass(env, inputs)

    def final_check(self, env, inputs, size):
        """The payloads of a fixed reference corpus match expected.json."""
        inputs, ops = self.reference(env, size)
        failed = sum(self.check_one(env, data, op) is not None for op, (_argv, data) in zip(ops, inputs))
        if self.digest(ops) != expected()[size]["report"]["reference_sha256"]:
            failed = max(failed, 1)
        return len(ops), failed

    def clean(self):
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (SolveWorkload("fiber"), SolveWorkload("duality"), PinnedWorkload(), ReportWorkload())
}

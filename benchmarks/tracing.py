"""Spans around calls into the bredon layers, installed by the benchmark only.

The traced run replaces module and class attributes of the imported package
(for example ``bredon.solver.make_module``) with timing wrappers and puts the
originals back afterwards; nothing under ``src/`` knows about tracing.  A
function is wrapped in every namespace that holds it, because the package
calls across modules through its own imports: ``real_manifold_validate``
reaches ``pd_symmetric`` through the globals of ``bredon.localization``, and
the solver's ``finalize`` reaches ``make_module`` through ``bredon.solver``.

Each span records its name, start, end, parent span and query id.  Spans
stay in memory, in flat arrays that the garbage collector does not scan, and
are written out once, when the run ends.  Self time, the duration minus the
time covered by direct child spans, is accumulated as spans close, so
nothing is counted twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from pathlib import Path

# (module that defines the function, attribute, span name).  Class targets
# name the class after a colon and wrap a staticmethod.
TARGETS = (
    ("bredon.cli", "main", "cli.main"),
    ("bredon.serialize", "load_json_file", "cli.load_json_file"),
    ("bredon.solver:ConstraintSet", "from_json_dict", "cli.constraints_from_json"),
    ("bredon.solver", "enumerate_decompositions", "solver.enumerate_decompositions"),
    ("bredon.solver", "satisfies_constraints", "solver.satisfies_constraints"),
    ("bredon.algebra", "make_module", "algebra.make_module"),
    ("bredon.algebra:NormalFormModule", "from_json_dict", "algebra.from_json_dict"),
    ("bredon.localization", "underlying_singular", "localization.underlying_singular"),
    ("bredon.localization", "rho_localize", "localization.rho_localize"),
    ("bredon.localization", "pd_symmetric", "localization.pd_symmetric"),
    ("bredon.localization", "real_manifold_validate", "localization.real_manifold_validate"),
    ("bredon.localization", "forgetful_image_dims", "localization.forgetful_image_dims"),
    ("bredon.localization", "tau_localize", "localization.tau_localize"),
    ("bredon.localization", "fixed_poincare_polynomial", "localization.fixed_poincare_polynomial"),
    ("bredon.classification", "classify", "classification.classify"),
    ("bredon.classification", "smith_thom_report", "classification.smith_thom_report"),
    ("bredon.serialize", "canonical_dumps", "serialize.canonical_dumps"),
)

SEARCH = "solver.enumerate_decompositions"
CHECK = "solver.satisfies_constraints"
DUMPS = "serialize.canonical_dumps"
FINALIZE_CHILDREN = ("algebra.make_module", CHECK)


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_query = array("q")
        self.query_id = -1
        self._stack: list[list] = []  # [span index, name id, child time]
        self._restore: list[tuple] = []
        self.reset_totals()

    def reset_totals(self):
        n = len(self.names)
        self._calls = [0] * n
        self._self_s = [0.0] * n
        self._inclusive_s = [0.0] * n
        self.finalize_s = 0.0
        self.candidates = 0
        self.accepted = 0
        self.dumped_bytes = 0

    def calls(self, name: str) -> int:
        return self._calls[self._ids[name]]

    def self_s(self, name: str) -> float:
        return self._self_s[self._ids[name]]

    def inclusive_s(self, name: str) -> float:
        return self._inclusive_s[self._ids[name]]

    def __len__(self) -> int:
        return len(self.span_name)

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        search_id = self._ids[SEARCH]
        finalize_ids = {self._ids[n] for n in FINALIZE_CHILDREN}
        is_check, is_dumps = name == CHECK, name == DUMPS
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, queries = self.span_parent, self.span_query
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(names), nid, 0.0]
            stack.append(frame)
            names.append(nid)
            parents.append(parent[0] if parent else -1)
            queries.append(self.query_id)
            ends.append(0.0)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[frame[0]] = end
                duration = end - start
                self._calls[nid] += 1
                self._inclusive_s[nid] += duration
                self._self_s[nid] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    if parent[1] == search_id and nid in finalize_ids:
                        self.finalize_s += duration
            if is_check and parent is not None and parent[1] == search_id:
                self.candidates += 1
                self.accepted += bool(result)
            elif is_dumps:
                self.dumped_bytes += len(result)
            return result

        return traced

    def install(self):
        """Wrap every target in every bredon namespace that holds it."""
        namespaces = [m for k, m in sys.modules.items() if k == "bredon" or k.startswith("bredon.")]
        for owner, attr, name in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, staticmethod(self.wrap(name, original.__func__)))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for namespace in namespaces:
                if namespace.__dict__.get(attr) is original:
                    setattr(namespace, attr, wrapper)
                    self._restore.append((namespace, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def write(self, path: Path, meta: dict):
        """Write the spans as gzipped JSON lines: a header, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"meta": meta, "names": self.names,
                  "fields": ["name", "start_s", "end_s", "parent", "query"]}
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end,
                           self.span_parent, self.span_query):
                out.write("[%d,%.9f,%.9f,%d,%d]\n" % row)

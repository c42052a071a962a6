"""Outside-in tracer: spans around mtcbound's public functions.

The tracer changes no file of the library.  `install` replaces each
traced function or method by a wrapper, under every name that refers to
it in any loaded `mtcbound` module (so `obstruction.central_charge`, the
name `verdict` calls through, is wrapped as well as
`modular.central_charge`).  `uninstall` puts the originals back.

A span is (name, start, end, parent span, job id); spans stay in memory
and are written out once, at the end of the run.  `Cyclotomic`
operators are counted, not spanned: each call adds one to the counter of
the innermost open span, so counts are attributed where the work is.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  An attribute "Class.method" wraps a
# method on the class.  Targets missing from the library are skipped, so
# the tracer keeps working when a later version removes one of them.
SPAN_TARGETS = (
    ("mtcbound.cli", "main", "cli.main"),
    ("mtcbound.specfile", "CategorySpecFile.load", "specfile.load"),
    ("mtcbound.specfile", "CategorySpecFile.save", "specfile.save"),
    ("mtcbound.fusion", "validate", "fusion.validate"),
    ("mtcbound.multifusion", "block_partition", "multifusion.block_partition"),
    ("mtcbound.modular", "ModularData.dual_permutation", "modular.dual_permutation"),
    ("mtcbound.modular", "verlinde", "modular.verlinde"),
    ("mtcbound.modular", "validate_modular", "modular.validate_modular"),
    ("mtcbound.modular", "central_charge", "modular.central_charge"),
    ("mtcbound.obstruction", "verdict", "obstruction.verdict"),
    ("mtcbound.obstruction", "candidate_search", "obstruction.candidate_search"),
    ("mtcbound.obstruction", "fusion_inequality_holds", "obstruction.fusion_filter"),
    ("mtcbound.pointed", "metric_modular_data", "pointed.metric_modular_data"),
    ("mtcbound.pointed", "matches_modular_data", "pointed.matches_modular_data"),
    ("mtcbound.pointed", "lagrangian_subgroups", "pointed.lagrangian_subgroups"),
    ("mtcbound.pointed", "validate_metric", "pointed.validate_metric"),
    ("mtcbound.pointed", "milgram_signature", "pointed.milgram_signature"),
)

# Cyclotomic attribute -> operation counted.  __sub__ and __truediv__
# are built from __add__/__neg__ and inverse/__mul__, and __ne__ calls
# __eq__, so they are counted through those.
OP_TARGETS = (
    ("__add__", "add"),
    ("__radd__", "add"),
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("inverse", "inverse"),
    ("__eq__", "eq"),
    ("as_root_of_unity", "root_of_unity"),
    ("approx", "approx"),
    ("real_sign", "real_sign"),
)
OP_NAMES = ("add", "mul", "inverse", "eq", "root_of_unity", "approx", "real_sign")

JOB_SPAN = "bench.job"
OUTSIDE = "bench.outside"  # ops counted while no job runs (output checks)


def _resolve(module_name: str, attr: str):
    """(owner, name, raw attribute) or None when the target is absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job id]
        self._stack: list = []
        self.job = None
        self.ops: dict = defaultdict(Counter)  # innermost span name -> op -> calls
        self._ops_here = self.ops[OUTSIDE]
        self.verdicts: list = []  # ObstructionReport of every traced verdict call
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer._stack.append(len(spans))
            spans.append(record)
            outer_ops = tracer._ops_here
            tracer._ops_here = tracer.ops[name]
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._ops_here = outer_ops
            if name == "obstruction.verdict":
                tracer.verdicts.append(result)
            return result

        return traced

    def run_job(self, job_id, fn):
        """Run one benchmark job under a root span named `bench.job`."""
        self.job = job_id
        try:
            return self._wrap(JOB_SPAN, fn)()
        finally:
            self.job = None

    # -- counters ----------------------------------------------------------

    def _count(self, op: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._ops_here[op] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "mtcbound" and m]
        for module_name, attr, span in SPAN_TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, name, raw = found
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    self._set(owner, name, staticmethod(self._wrap(span, raw.__func__)))
                else:
                    self._set(owner, name, self._wrap(span, raw))
                continue
            wrapped = self._wrap(span, raw)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, alias, wrapped)
        cyclotomic = sys.modules["mtcbound.cyclotomic"].Cyclotomic
        for attr, op in OP_TARGETS:
            raw = cyclotomic.__dict__.get(attr)
            if raw is not None:
                self._set(cyclotomic, attr, self._count(op, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summaries -------------------------------------------------------------

    def span_totals(self, keep_job=None) -> dict:
        """name -> [calls, total seconds, self seconds], over the spans of
        the jobs `keep_job(job id)` accepts (all jobs by default).

        Calls run on one thread and nest, so the time a span's children
        cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _, job) in enumerate(self.spans):
            if keep_job is not None and not keep_job(job):
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[idx]
        return dict(totals)

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "job"],
            "names": names,
            "spans": [
                [code[n], round(a, 7), round(b, 7), p, j] for n, a, b, p, j in self.spans
            ],
            "cyclotomic_ops_by_span": {k: dict(v) for k, v in sorted(self.ops.items()) if v},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

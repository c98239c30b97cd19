"""Traced mode: spans around the public entry points of every nuext layer.

The wrappers are installed from outside the package.  A name bound by
`from .radius import radius_value` in another module is a separate binding,
so every nuext module (the package itself included) that holds the original
function object gets the wrapper, and every binding is restored on exit.

Spans are kept in memory as [id, name, start_ns, end_ns, parent, op] and
written out as JSON lines at the end.  A span's self time is its duration
minus the durations of its direct children.  The kernel calls that golden
section refinement makes (`_lmax_batch` inside `_refine_golden`) are
counted, not spanned, so refinement self time includes them; the grid is
`_lmax_batch` time outside refinement.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); span names are the per-layer buckets
TARGETS = [
    ("nuext.linalg", "hermitian_eigen", "linalg.eigen"),
    ("nuext.linalg", "svd", "linalg.svd"),
    ("nuext.linalg", "is_normal", "linalg.predicates"),
    ("nuext.linalg", "is_self_adjoint", "linalg.predicates"),
    ("nuext.linalg", "operator_norm", "linalg.predicates"),
    ("nuext.linalg", "normal_eigen", "linalg.predicates"),
    ("nuext.radius", "radius_value", "radius.value"),
    ("nuext.radius", "radius_sweep", "radius.sweep"),
    ("nuext.radius", "_lmax_batch", "radius.grid"),
    ("nuext.radius", "_refine_golden", "radius.refine"),
    ("nuext.closedforms", "radius_block", "closedforms"),
    ("nuext.closedforms", "radius_collinear", "closedforms"),
    ("nuext.closedforms", "radius_johnson", "closedforms"),
    ("nuext.closedforms", "radius_wt_family", "closedforms"),
    ("nuext.closedforms", "triangularize_wt", "closedforms"),
    ("nuext.witness", "canonical_form_2x2", "witness.construct"),
    ("nuext.witness", "kadison_split", "witness.construct"),
    ("nuext.witness", "selfadjoint_split", "witness.construct"),
    ("nuext.witness", "shear_split", "witness.construct"),
    ("nuext.witness", "offdiag_perturb", "witness.construct"),
    ("nuext.witness", "block_upper_split", "witness.construct"),
    ("nuext.witness", "blockdiag_lift", "witness.construct"),
    ("nuext.witness", "verify_witness", "witness.verify"),
    ("nuext.classify", "classify", "classify.dispatch"),
    ("nuext.classify", "classify_block_diag", "classify.dispatch"),
    ("nuext.classify", "classify_selfadjoint", "classify.dispatch"),
    ("nuext.classify", "classify_normal", "classify.dispatch"),
    ("nuext.classify", "classify_normaloid", "classify.dispatch"),
    ("nuext.classify", "classify_block_upper", "classify.dispatch"),
    ("nuext.classify", "classify_2x2", "classify.dispatch"),
    ("nuext.cli", "main", "cli.parse"),
    ("nuext.cli", "load_matrix", "cli.parse"),
    ("nuext.cli", "_verdict_fields", "cli.report"),
    ("nuext.cli", "serialize_report", "cli.report"),
    ("nuext.cli", "_emit", "cli.report"),
]
RULES = {
    "classify_block_diag",
    "classify_selfadjoint",
    "classify_normal",
    "classify_normaloid",
    "classify_block_upper",
    "classify_2x2",
}

# (metric, unit, better); counts and self times are per operation
LAYER_METRICS = [
    ("linalg.eigen.calls", "count", "lower"),
    ("linalg.eigen.self_ms", "ms", "lower"),
    ("linalg.svd.self_ms", "ms", "lower"),
    ("linalg.predicates.self_ms", "ms", "lower"),
    ("radius.sweeps", "count", "lower"),
    ("radius.distinct_sweep_ratio", "ratio", "higher"),
    ("radius.grid.angles", "count", "lower"),
    ("radius.grid.self_ms", "ms", "lower"),
    ("radius.refine.brackets", "count", "lower"),
    ("radius.refine.kernel_calls", "count", "lower"),
    ("radius.refine.self_ms", "ms", "lower"),
    ("radius.extract.maximizers", "count", "lower"),
    ("radius.extract.self_ms", "ms", "lower"),
    ("closedforms.calls", "count", "lower"),
    ("closedforms.self_ms", "ms", "lower"),
    ("witness.construct.self_ms", "ms", "lower"),
    ("witness.verify.calls", "count", "lower"),
    ("witness.verify.self_ms", "ms", "lower"),
    ("witness.verify.pass_ratio", "ratio", "higher"),
    ("classify.dispatch.self_ms", "ms", "lower"),
    ("classify.rules_consulted", "count", "lower"),
    ("classify.abstain_rate", "ratio", "lower"),
    ("cli.parse.self_ms", "ms", "lower"),
    ("cli.report.self_ms", "ms", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
]
# span buckets whose self time is reported as <bucket>.self_ms
SELF_TIME = {
    "linalg.eigen": "linalg.eigen.self_ms",
    "linalg.svd": "linalg.svd.self_ms",
    "linalg.predicates": "linalg.predicates.self_ms",
    "radius.grid": "radius.grid.self_ms",
    "radius.refine": "radius.refine.self_ms",
    "radius.sweep": "radius.extract.self_ms",
    "closedforms": "closedforms.self_ms",
    "witness.construct": "witness.construct.self_ms",
    "witness.verify": "witness.verify.self_ms",
    "classify.dispatch": "classify.dispatch.self_ms",
    "cli.parse": "cli.parse.self_ms",
    "cli.report": "cli.report.self_ms",
}


def matrix_key(m) -> bytes:
    a = np.ascontiguousarray(np.asarray(m, dtype=complex))
    return hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=16).digest()


class Tracer:
    """Installs span wrappers on enter and restores every binding on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self._swept: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [len(self.spans), name, time.perf_counter_ns(), 0, parent, self.op]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self.stack.pop()

    def start_op(self, op_id: int, kind: str) -> list:
        self.op = op_id
        self._swept = set()
        return self.begin(f"op.{kind}")

    def _in(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][1] == name

    def _wrap(self, fn, attr: str, name: str):
        tracer = self

        def on_result(args, result):
            c = tracer.counts
            if name in ("radius.value", "radius.sweep"):
                c["radius.sweeps"] += 1
                key = matrix_key(args[0])
                if key not in tracer._swept:
                    tracer._swept.add(key)
                    c["radius.distinct"] += 1
                if name == "radius.sweep":
                    c["radius.extract.maximizers"] += len(result.maximizers)
            elif name == "radius.grid":
                c["radius.grid.angles"] += len(args[2])
            elif name == "radius.refine":
                c["radius.refine.brackets"] += len(args[2])
            elif name == "linalg.eigen":
                c["linalg.eigen.calls"] += 1
            elif name == "closedforms":
                c["closedforms.calls"] += 1
            elif name == "witness.verify":
                c["witness.verify.calls"] += 1
                c["witness.verify.passed"] += bool(result.passed)
            elif attr in RULES:
                c["classify.rules_consulted"] += 1
            elif attr == "serialize_report":
                c["cli.report_bytes"] += len(result.encode("utf-8"))

        def wrapper(*args, **kwargs):
            if name == "radius.grid" and tracer._in("radius.refine"):
                tracer.counts["radius.refine.kernel_calls"] += 1
                return fn(*args, **kwargs)
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        nuext_modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "nuext" or k.startswith("nuext."))
        ]
        try:
            for mod_name, attr, name in TARGETS:
                orig = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(orig, attr, name)
                for mod in nuext_modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, orig))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()
        return False

    # ------------------------------------------------------------ results

    def self_times_ns(self) -> list[int]:
        """Self time of every span: duration minus its direct children."""
        child = [0] * len(self.spans)
        for sid, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[3] - s[2] - child[s[0]] for s in self.spans]

    def layer_metrics(
        self, ops: int, classify_ops: int, unknown: int, overhead_ratio: float
    ) -> dict[str, dict]:
        """Per-operation layer metrics with units, in LAYER_METRICS order.
        The caller knows the abstentions and the traced over untraced
        throughput."""
        self_ms: dict[str, float] = defaultdict(float)
        for rec, st in zip(self.spans, self.self_times_ns()):
            metric = SELF_TIME.get(rec[1])
            if metric is not None:
                self_ms[metric] += st / 1e6
        c = self.counts
        per = 1.0 / max(ops, 1)
        out = {m: c[m] * per for m, unit, _ in LAYER_METRICS if unit in ("count", "B")}
        out.update({m: self_ms[m] * per for m in SELF_TIME.values()})
        sweeps = c["radius.sweeps"]
        out["radius.distinct_sweep_ratio"] = c["radius.distinct"] / sweeps if sweeps else 0.0
        calls = c["witness.verify.calls"]
        out["witness.verify.pass_ratio"] = c["witness.verify.passed"] / calls if calls else 0.0
        out["classify.abstain_rate"] = unknown / classify_ops if classify_ops else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return {m: {"value": out[m], "unit": unit} for m, unit, _ in LAYER_METRICS}

    def by_op_kind(self) -> dict[str, dict[str, float]]:
        """Self ms per span bucket, summed over the operations of each kind;
        shows e.g. grid against refinement inside radius_value calls only."""
        kind_of = {}
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rec, st in zip(self.spans, self.self_times_ns()):
            if rec[4] is None:
                kind_of[rec[5]] = rec[1]
            kind = kind_of.get(rec[5], "?")
            out[kind][rec[1]] += st / 1e6
        return {k: dict(v) for k, v in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start_ns", "end_ns", "parent", "op"), rec))))
                fh.write("\n")

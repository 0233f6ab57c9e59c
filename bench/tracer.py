"""Out-of-tree tracing of twinrep's public layers.

The package has no hooks, so the benchmark wraps public functions and methods
at run time.  `from .x import y` copies a binding, so a function is replaced
in every twinrep module namespace that holds it, not only where it is
defined; methods are replaced on their class.  Spans are appended to an
in-memory list and turned into per-layer metrics (or written to a file) only
after the traced pass ends.

Scalar constructions are counted by a separate `ScalarCounter` pass, because
wrapping `Scalar.__init__` would inflate every span that does arithmetic.
"""

from __future__ import annotations

import collections
import gzip
import json
import math
import sys
import time

# (module, attribute, span name, report self time).  Every twinrep module
# binding the same function object is patched too.
FUNCTIONS = [
    ("twinrep.cli", "main", "cli.main", True),
    ("twinrep.irreducibility", "decide", "irreducibility.decide", True),
    ("twinrep.irreducibility", "witness_check", "irreducibility.witness_check",
     False),
    ("twinrep.irreducibility", "eval_P", "irreducibility.eval_P", False),
    ("twinrep.irreducibility", "cleared_poly", "irreducibility.cleared_poly",
     False),
    ("twinrep.irreducibility", "roots_of_P", "irreducibility.roots_of_P", False),
    ("twinrep.reduction", "reduced_generators", "reduction.reduced_generators",
     False),
    ("twinrep.reduction", "eigvec_w", "reduction.eigvec_w", False),
    ("twinrep.chains", "closed_chain_vector", "chains.closed_chain_vector",
     False),
    ("twinrep.linalg", "mat_rank", "linalg.mat_rank", True),
    ("twinrep.linalg", "kernel", "linalg.kernel", True),
    ("twinrep.oracle", "algebra_closure", "oracle.algebra_closure", True),
    ("twinrep.oracle", "common_eigenlines", "oracle.common_eigenlines", False),
]

# (module, class, attribute, span name, report self time)
METHODS = [
    ("twinrep.linalg", "Matrix", "__matmul__", "linalg.Matrix.matmul", True),
    ("twinrep.linalg", "Subspace", "span", "linalg.Subspace.span", True),
    ("twinrep.linalg", "Subspace", "contains", "linalg.Subspace.contains", True),
    ("twinrep.irreducibility", "ClearedPoly", "eval_complex",
     "irreducibility.ClearedPoly.eval_complex", False),
]

VERDICT_REASONS = {
    "generic": "generic", "root-of-P": "root-of-P", "a=1": "a_eq_1",
    "a=-1": "a_eq_m1", "a=0": "a_eq_0", "T3-criterion": "T3-criterion",
    "T3-special": "T3-special",
}

CLOSURE = "oracle.algebra_closure"
MATMUL = "linalg.Matrix.matmul"
DECIDE = "irreducibility.decide"
ROOTS = "irreducibility.roots_of_P"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "twinrep" or name.startswith("twinrep."))]


class _Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def replace_everywhere(self, original, replacement):
        hits = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        return hits

    def restore(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


class Tracer:
    """Span recorder.  A span is (name, parent span index, op key, start,
    end, raised); `notes` holds per-span facts taken from return values."""

    def __init__(self):
        self.spans = []
        self.notes = {}
        self.op = None
        self._stack = []
        self._patches = _Patches()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        notes = self.notes
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, self.op, t0, t1, raised)
            if observe is not None:
                notes[sid] = observe(result)
            return result

        return traced

    def install(self):
        for mod_name, attr, span, _ in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            if not self._patches.replace_everywhere(original,
                                                    self._wrap(span, original)):
                raise RuntimeError("no binding of %s.%s found" % (mod_name, attr))
        for mod_name, cls_name, attr, span, _ in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__))
            else:
                wrapped = self._wrap(span, raw)
            self._patches.set(cls, attr, wrapped)

    def uninstall(self):
        self._patches.restore()

    def layer_metrics(self):
        """Aggregate the spans into the per-layer metric values."""
        child = [0.0] * len(self.spans)
        for _name, parent, _op, t0, t1, _raised in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = collections.Counter()
        total = collections.Counter()
        own = collections.Counter()
        products = 0
        roots_failed = 0
        for sid, (name, _parent, _op, t0, t1, raised) in enumerate(self.spans):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[sid]
            if name == MATMUL and self._inside(sid, CLOSURE):
                products += 1
            if name == ROOTS and (raised or self.notes.get(sid) == "nonfinite"):
                roots_failed += 1

        out = {}
        for *_, span, with_self in FUNCTIONS + METHODS:
            out[span + ".calls"] = calls[span]
            out[span + ".total_ms"] = total[span] * 1e3
            if with_self:
                out[span + ".self_ms"] = own[span] * 1e3
        out[ROOTS + ".failed"] = roots_failed

        reasons = dict.fromkeys(VERDICT_REASONS.values(), 0)
        dims = []
        gaps = []
        for sid, note in self.notes.items():
            name = self.spans[sid][0]
            if name == DECIDE:
                reasons[VERDICT_REASONS[note]] += 1
            elif name == CLOSURE:
                dims.append(note[0])
                if math.isfinite(note[1]):
                    gaps.append(note[1])
        for key, count in reasons.items():
            out[DECIDE + ".reason." + key] = count
        out[CLOSURE + ".products"] = products
        out[CLOSURE + ".dim_sum"] = sum(dims)
        out[CLOSURE + ".useful_ratio"] = sum(dims) / products if products else 0.0
        # exact closures reject nothing by tolerance, so their gap is infinite
        # and left out; 0 means no float closure ran
        out[CLOSURE + ".min_rank_gap"] = min(gaps) if gaps else 0.0
        return out

    def _inside(self, sid, ancestor):
        parent = self.spans[sid][1]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path):
        """All spans as JSON lines: a header naming the fields, then one
        list per span."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "op", "start_s",
                                            "end_s", "raised"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_roots(roots):
    finite = all(math.isfinite(r.re) and math.isfinite(r.im) for r in roots)
    return None if finite else "nonfinite"


_OBSERVERS = {
    DECIDE: lambda verdict: verdict.reason,
    ROOTS: _observe_roots,
    CLOSURE: lambda result: (result.dim, result.rank_gap),
}


class ScalarCounter:
    """Counts `Scalar` constructions by wrapping `Scalar.__init__`."""

    def __init__(self):
        self.count = 0
        self._patches = _Patches()

    def install(self):
        scalar = sys.modules["twinrep.scalars"].Scalar
        init = scalar.__dict__["__init__"]
        counter = self

        def counting_init(obj, *args, **kwargs):
            counter.count += 1
            init(obj, *args, **kwargs)

        self._patches.set(scalar, "__init__", counting_init)

    def uninstall(self):
        self._patches.restore()

"""Outside-in per-layer trace of upblab.

The tracer rebinds public functions and ExactMatrix methods to wrappers that
record a span (name, start, end, parent) and restores the originals on
``uninstall``.  A function is rebound in every ``upblab.*`` namespace that
binds it, not only its home module: ``states`` imports ``psd_certificate``
and ``matrix_rank`` from ``linalg``, and ``search``/``entangle`` import
``extend_or_certify`` from ``product``, so patching the home module alone
would miss those calls.  No library file is changed.

Spans stay in memory for one item at a time; ``end_item`` folds them into
per-layer totals.  A layer's self time is its spans' durations minus the
time their child spans cover.  Work the tracer does itself (bit-length
scans, counters) is recorded as a ``trace.hooks`` span, so it is kept out
of the layer it interrupted.  The one exception is ``scalars.objects``: it
counts through wrappers on ``ComplexRational.__init__`` and ``from_triple``,
called hundreds of thousands of times per item, which record no span.
Their cost stays in the self time of the layer that creates the objects,
mostly ``linalg.elementwise`` and ``states.partial_transpose``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from upblab import _kernels, catalog, entangle, linalg, product, search, states
from upblab.scalars import ComplexRational

HOOKS = "trace.hooks"

# (module, function, layer).  Several functions may share one layer.
FUNCTIONS = [
    (catalog, "from_doc", "catalog.from_doc"),
    (product, "verify_ops", "product.verify_ops"),
    (product, "extend_or_certify", "product.extend_or_certify"),
    (search, "sample_template", "search.sample_template"),
    (search, "realize_template", "search.realize_template"),
    (search, "scan", "search.scan"),
    (states, "complement_projector", "states.complement_projector"),
    (states, "partial_transpose", "states.partial_transpose"),
    (states, "ppt_report", "states.ppt_report"),
    (states, "subtract_product", "states.subtract_product"),
    (states, "birank", "states.birank"),
    (linalg, "outer", "linalg.elementwise"),
    (linalg, "projector", "linalg.elementwise"),
    (linalg, "psd_certificate", "linalg.psd_certificate"),
    (linalg, "matrix_rank", "linalg.matrix_rank"),
    (linalg, "solve_consistent", "linalg.solve_consistent"),
    (_kernels, "ldl_hermitian", "kernels.ldl_hermitian"),
    (_kernels, "bareiss_rank", "kernels.bareiss_rank"),
    (_kernels, "rref", "kernels.rref"),
    (entangle, "range_product_scan", "entangle.range_product_scan"),
]

METHODS = [
    (linalg.ExactMatrix, "__add__", "linalg.elementwise"),
    (linalg.ExactMatrix, "__sub__", "linalg.elementwise"),
    (linalg.ExactMatrix, "scale", "linalg.elementwise"),
    (linalg.ExactMatrix, "kron", "linalg.elementwise"),
    (linalg.ExactMatrix, "is_hermitian", "linalg.is_hermitian"),
    (linalg.ExactMatrix, "apply", "linalg.apply"),
    (linalg.ExactMatrix, "_triple_rows", "linalg.triple_rows"),
]

# Layers whose self time is reported, in output order.
TIMED_LAYERS = [
    "catalog.from_doc",
    "product.verify_ops",
    "product.extend_or_certify",
    "search.sample_template",
    "search.realize_template",
    "states.complement_projector",
    "states.partial_transpose",
    "states.ppt_report",
    "states.subtract_product",
    "states.birank",
    "linalg.elementwise",
    "linalg.is_hermitian",
    "linalg.apply",
    "linalg.triple_rows",
    "linalg.psd_certificate",
    "linalg.matrix_rank",
    "linalg.solve_consistent",
    "kernels.ldl_hermitian",
    "kernels.bareiss_rank",
    "kernels.rref",
    "entangle.range_product_scan",
]


def _entry_bits(rows):
    best = 0
    for row in rows:
        for p, q, r in row:
            b = max(abs(p).bit_length(), abs(q).bit_length(), r.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self._stack = []
        self._patches = None  # (owner, attribute, original, wrapper)
        self.counts = defaultdict(int)
        self.entry_bits_max = 0
        self.items = 0
        self.item_time = 0.0
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.unattributed = 0.0

    # -- recording ---------------------------------------------------------

    def _hook(self, fn, value, parent):
        t0 = perf_counter()
        fn(value)
        self.spans.append([HOOKS, t0, perf_counter(), parent])

    def _wrap(self, layer, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if before is not None:
                self._hook(before, args, parent)
            span = [layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                self._hook(after, result, parent)
            return result

        return traced

    def _count(self, key, amount):
        self.counts[key] += amount

    def _kernel_args(self, args):
        bits = _entry_bits(args[0])
        if bits > self.entry_bits_max:
            self.entry_bits_max = bits

    def _hooks_for(self, layer):
        if layer.startswith("kernels."):
            return self._kernel_args, None
        if layer == "product.extend_or_certify":
            return None, lambda r: self._count("product.branches", r.branches_explored)
        if layer == "search.realize_template":
            return None, lambda r: self._count(
                "search.feasible", not isinstance(r, search.Infeasible)
            )
        if layer == "search.scan":
            return None, lambda r: self._count("search.upbs_found", len(r.upbs_found))
        return None, None

    # -- installing --------------------------------------------------------

    def _plan(self):
        """(owner, attribute, original, wrapper) for every rebinding."""
        plan = []
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "upblab" or name.startswith("upblab."))
        ]
        for home, attr, layer in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original, *self._hooks_for(layer))
            for ns in namespaces:
                for name, value in vars(ns).items():
                    if value is original:
                        plan.append((ns, name, original, wrapper))
        for cls, attr, layer in METHODS:
            original = cls.__dict__[attr]
            plan.append((cls, attr, original, self._wrap(layer, original)))

        # Instances come from __init__ or from from_triple, which bypasses
        # __init__; counting both counts every ComplexRational created.
        counts = self.counts
        init = ComplexRational.__dict__["__init__"]
        from_triple = ComplexRational.__dict__["from_triple"]
        make = from_triple.__func__

        def counted_init(obj, *args, **kwargs):
            counts["scalars.objects"] += 1
            init(obj, *args, **kwargs)

        def counted_from_triple(cls, t):
            counts["scalars.objects"] += 1
            return make(cls, t)

        plan.append((ComplexRational, "__init__", init, counted_init))
        plan.append((ComplexRational, "from_triple", from_triple, classmethod(counted_from_triple)))
        return plan

    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- folding spans into per-layer totals -------------------------------

    def end_item(self, item_time):
        spans = self.spans
        covered = [0.0] * len(spans)
        roots = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                roots += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self.self_time[name] += end - start - child
            self.calls[name] += 1
        self.unattributed += item_time - roots
        self.item_time += item_time
        self.items += 1
        spans.clear()

    def metrics(self, untraced_time):
        """Per-item layer metrics, by name: (value, unit)."""
        n = self.items
        out = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}_s"] = (self.self_time[layer] / n, "s")
        kernel_calls = sum(self.calls[k] for k in self.calls if k.startswith("kernels."))
        kernel_time = sum(self.self_time[k] for k in self.self_time if k.startswith("kernels."))
        linalg_calls = sum(self.calls[k] for k in self.calls if k.startswith("linalg."))
        templates = self.calls["search.sample_template"]
        feasible_ratio = self.counts["search.feasible"] / templates if templates else 0.0
        out.update(
            {
                "product.extend_calls": (self.calls["product.extend_or_certify"] / n, "count"),
                "product.branches": (self.counts["product.branches"] / n, "count"),
                "search.feasible_ratio": (feasible_ratio, "ratio"),
                "linalg.calls": (linalg_calls / n, "count"),
                "linalg.eliminations": (kernel_calls / n, "count"),
                "kernels.entry_bits_max": (self.entry_bits_max, "bit"),
                "kernels.share": (kernel_time / self.item_time, "ratio"),
                "scalars.objects": (self.counts["scalars.objects"] / n, "count"),
                "trace.unattributed_s": (self.unattributed / n, "s"),
                "trace.overhead_ratio": (self.item_time / untraced_time, "ratio"),
            }
        )
        return out

    def notes(self):
        """Counts that are printed but are not metrics: the scan's template
        count is its fixed budget, and its UPB count has been 0 on every
        seed tried."""
        n = self.items
        return [
            f"search.templates {self.calls['search.sample_template'] / n:.6g} per item",
            f"search.upbs_found {self.counts['search.upbs_found'] / n:.6g} per item",
        ]

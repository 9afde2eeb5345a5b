"""Span tracing for the benchmark's traced run, applied from outside the package.

The package carries no tracing of its own, so this module replaces the
public functions and methods of each layer with wrappers for the length of
one traced run:

* a function is replaced at every import site, i.e. in every loaded
  ``sumrank`` module whose namespace holds the very same object, because
  modules import names directly (``from .matfq import rref`` and so on);
* a method is replaced once, on its class;
* a generator function (``product_descriptors``, ``enumerate_anticodes``,
  ``enumerate_subspaces``) returns an iterator whose every ``next()`` is one
  span, so the work the generator does between yields is attributed to it;
* field arithmetic is counted, not spanned: a span per ``mul`` would cost
  more than the multiplication.

A span records its name, start, end, parent and task id in flat arrays that
stay in memory until the run ends; ``uninstall`` puts every patched name
back, and ``write`` saves the spans.  Self time is a span's duration minus
the durations of its direct children, which nest strictly because the
benchmark is single-threaded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

F_OUTER = 1  # no ancestor span has the same name
F_YIELD = 2  # a generator span that produced an item

# (module, function, span name) for plain and generator functions.
FUNCTIONS = [
    ("sumrank.matfq", "rref", "matfq.rref"),
    ("sumrank.anticode", "is_optimal_anticode", "anticode.is_optimal"),
    ("sumrank.genweights", "weight_profile", "genweights.weight_profile"),
    ("sumrank.genweights", "gen_weight", "genweights.gen_weight"),
    ("sumrank.msrd", "msrd_check", "msrd.check"),
    ("sumrank.wiretap", "threshold_table", "wiretap.threshold_table"),
    ("sumrank.wiretap", "worst_case_leakage", "wiretap.worst_case_leakage"),
    ("sumrank.wiretap", "leakage_dim", "wiretap.leakage_dim"),
    ("sumrank.isom", "equivalent_codes", "isom.equivalent_codes"),
    ("sumrank.isom", "gl_group", "isom.gl_group"),
    ("sumrank.cover", "covering_number", "cover.covering_number"),
    ("sumrank.cover", "meshulam_search", "cover.meshulam_search"),
    ("sumrank.cli", "parse_args", "cli.parse_args"),
    ("sumrank.cli", "run", "cli.run"),
    ("sumrank.cli", "main", "cli.main"),
]
GENERATORS = [
    ("sumrank.matfq", "enumerate_subspaces", "matfq.enumerate_subspaces"),
    ("sumrank.anticode", "product_descriptors", "anticode.enum"),
    ("sumrank.anticode", "enumerate_anticodes", "anticode.enum"),
]
# (module, class, method, span name)
METHODS = [
    ("sumrank.matfq", "Subspace", "intersect", "matfq.intersect"),
    ("sumrank.matfq", "Subspace", "orthogonal", "matfq.orthogonal"),
    ("sumrank.matfq", "MatrixFq", "__matmul__", "matfq.matmul"),
    ("sumrank.code", "LinearCode", "__init__", "code.new"),
    ("sumrank.code", "LinearCode", "intersect", "code.intersect"),
    ("sumrank.code", "LinearCode", "dual", "code.dual"),
    ("sumrank.anticode", "AnticodeDescriptor", "materialize", "anticode.materialize"),
]
# codeword scans: one span name per path, chosen from the code's field
SCANS = ["max_srk", "weighted_max", "srk_distribution", "min_distance"]
# (method of FieldContext, counter)
COUNTERS = [
    ("mul", "gf.mul_calls"),
    ("add", "gf.add_calls"),
    ("sub", "gf.add_calls"),
    ("neg", "gf.add_calls"),
    ("inv", "gf.inv_calls"),
]

# Layer metrics read from the spans: (metric, unit).
LAYER_METRICS = [
    ("gf.mul_calls", "count"),
    ("gf.add_calls", "count"),
    ("gf.inv_calls", "count"),
    ("matfq.rref_calls", "count"),
    ("matfq.rref_cells", "count"),
    ("matfq.rref_self_s", "s"),
    ("matfq.intersect_calls", "count"),
    ("matfq.intersect_s", "s"),
    ("matfq.orthogonal_s", "s"),
    ("matfq.enumerate_subspaces_s", "s"),
    ("matfq.matmul_calls", "count"),
    ("matfq.matmul_s", "s"),
    ("code.new_calls", "count"),
    ("code.new_s", "s"),
    ("code.intersect_calls", "count"),
    ("code.dual_s", "s"),
    ("code.scan_calls", "count"),
    ("code.scan_f2_s", "s"),
    ("code.scan_fq_s", "s"),
    ("anticode.members", "count"),
    ("anticode.enum_self_s", "s"),
    ("anticode.materialize_calls", "count"),
    ("anticode.materialize_s", "s"),
    ("anticode.is_optimal_s", "s"),
    ("genweights.weight_profile_calls", "count"),
    ("genweights.weight_profile_s", "s"),
    ("genweights.weight_profile_self_s", "s"),
    ("genweights.profile_intersect_s", "s"),
    ("genweights.gen_weight_s", "s"),
    ("genweights.members_per_profile", "count"),
    ("msrd.check_s", "s"),
    ("msrd.check_self_s", "s"),
    ("wiretap.threshold_table_s", "s"),
    ("wiretap.worst_case_leakage_s", "s"),
    ("wiretap.leakage_dim_s", "s"),
    ("isom.equivalent_codes_s", "s"),
    ("isom.equivalent_codes_self_s", "s"),
    ("isom.images", "count"),
    ("isom.gl_group_s", "s"),
    ("cover.covering_number_s", "s"),
    ("cover.meshulam_search_s", "s"),
    ("trace.spans", "count"),
]

# Counts that must repeat exactly between two traced runs of one seed.
EXACT = [
    name
    for name, unit in LAYER_METRICS
    if unit == "count" and name != "trace.spans"
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("l")
        self.task = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("B")
        self.counts = {"gf.mul_calls": 0, "gf.add_calls": 0, "gf.inv_calls": 0,
                       "matfq.rref_cells": 0}
        self.task_id = 0
        self._stack: list = []
        self._depth: list = []
        self._patches: list = []

    # ------------------------------------------------------------ spans

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.task.append(self.task_id)
        self.flags.append(F_OUTER if self._depth[nid] == 0 else 0)
        self.end.append(0.0)
        self._depth[nid] += 1
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, yielded: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1
        if yielded:
            self.flags[idx] |= F_YIELD

    # --------------------------------------------------------- wrappers

    def _span_fn(self, fn, nid):
        tr = self

        def wrapper(*args, **kwargs):
            i = tr._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_gen(self, fn, nid):
        tr = self

        class SpanIter:
            __slots__ = ("_it",)

            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                i = tr._open(nid)
                ok = False
                try:
                    item = next(self._it)
                    ok = True
                    return item
                finally:
                    tr._close(i, ok)

        def wrapper(*args, **kwargs):
            return SpanIter(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _rref(self, fn, nid):
        tr = self
        counts = self.counts

        def rref(rows, ncols, ctx):
            rows = list(rows)
            counts["matfq.rref_cells"] += len(rows) * ncols
            i = tr._open(nid)
            try:
                return fn(rows, ncols, ctx)
            finally:
                tr._close(i)

        rref.__wrapped__ = fn
        return rref

    def _scan(self, fn, method):
        tr = self
        f2, fq, other = self._nid("code.scan_f2"), self._nid("code.scan_fq"), None
        if method == "min_distance":
            other = self._nid("code.min_distance")

        def wrapper(code, *args, **kwargs):
            nid = f2 if code.ctx.q == 2 else fq
            if other is not None:
                m = kwargs.get("method", args[0] if args else "enumerate")
                if m != "enumerate":
                    nid = other
            i = tr._open(nid)
            try:
                return fn(code, *args, **kwargs)
            finally:
                tr._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(ctx, *args):
            counts[key] += 1
            return fn(ctx, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement) -> int:
        sites = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sumrank" or modname.startswith("sumrank.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)
                    sites += 1
        return sites

    def install(self) -> None:
        """Patch every layer, importing the modules it patches."""
        import importlib

        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, span in FUNCTIONS + GENERATORS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            nid = self._nid(span)
            if attr == "rref":
                repl = self._rref(original, nid)
            elif (modname, attr, span) in GENERATORS:
                repl = self._span_gen(original, nid)
            else:
                repl = self._span_fn(original, nid)
            if self._patch_everywhere(original, repl) == 0:
                raise RuntimeError(f"{modname}.{attr} has no import site")
        for modname, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name)
            self._set(cls, attr, self._span_fn(cls.__dict__[attr], self._nid(span)))
        code_cls = importlib.import_module("sumrank.code").LinearCode
        for attr in SCANS:
            self._set(code_cls, attr, self._scan(code_cls.__dict__[attr], attr))
        field_cls = importlib.import_module("sumrank.gf").FieldContext
        for attr, key in COUNTERS:
            self._set(field_cls, attr, self._counter(field_cls.__dict__[attr], key))

    def uninstall(self) -> None:
        """Put back every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_sites(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._patches]

    # ------------------------------------------------------- results

    def write(self, path: str) -> None:
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "l"], ["task", "l"],
                       ["start", "d"], ["end", "d"], ["flags", "B"]],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for field, _ in header["arrays"]:
                fh.write(getattr(self, field).tobytes())

    def aggregate(self) -> dict:
        """Per-layer totals over every span recorded."""
        names = self.names
        n = len(self.start)
        name, parent, flags = self.name, self.parent, self.flags
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(names)
        incl = [0.0] * len(names)
        self_t = [0.0] * len(names)
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_t[k] += dur[i] - child[i]
            if flags[i] & F_OUTER:
                incl[k] += dur[i]

        def nid(s):
            return self._ids.get(s, -1)

        def c(s):
            k = nid(s)
            return calls[k] if k >= 0 else 0

        def t(s):
            k = nid(s)
            return incl[k] if k >= 0 else 0.0

        def st(s):
            k = nid(s)
            return self_t[k] if k >= 0 else 0.0

        def under(i, target):
            p = parent[i]
            while p >= 0:
                if name[p] == target:
                    return True
                p = parent[p]
            return False

        enum, wp, eq = nid("anticode.enum"), nid("genweights.weight_profile"), nid("isom.equivalent_codes")
        inter, new = nid("matfq.intersect"), nid("code.new")
        members = profile_members = images = 0
        profile_inter = 0.0
        for i in range(n):
            k = name[i]
            if k == enum and flags[i] & F_YIELD and (parent[i] < 0 or name[parent[i]] != enum):
                members += 1
                if wp >= 0 and under(i, wp):
                    profile_members += 1
            elif k == inter and flags[i] & F_OUTER and wp >= 0 and under(i, wp):
                profile_inter += dur[i]
            elif k == new and eq >= 0 and parent[i] >= 0 and name[parent[i]] == eq:
                images += 1
        wp_calls = c("genweights.weight_profile")
        out = {
            "gf.mul_calls": self.counts["gf.mul_calls"],
            "gf.add_calls": self.counts["gf.add_calls"],
            "gf.inv_calls": self.counts["gf.inv_calls"],
            "matfq.rref_calls": c("matfq.rref"),
            "matfq.rref_cells": self.counts["matfq.rref_cells"],
            "matfq.rref_self_s": st("matfq.rref"),
            "matfq.intersect_calls": c("matfq.intersect"),
            "matfq.intersect_s": t("matfq.intersect"),
            "matfq.orthogonal_s": t("matfq.orthogonal"),
            "matfq.enumerate_subspaces_s": t("matfq.enumerate_subspaces"),
            "matfq.matmul_calls": c("matfq.matmul"),
            "matfq.matmul_s": t("matfq.matmul"),
            "code.new_calls": c("code.new"),
            "code.new_s": t("code.new"),
            "code.intersect_calls": c("code.intersect"),
            "code.dual_s": t("code.dual"),
            "code.scan_calls": c("code.scan_f2") + c("code.scan_fq"),
            "code.scan_f2_s": t("code.scan_f2"),
            "code.scan_fq_s": t("code.scan_fq"),
            "anticode.members": members,
            "anticode.enum_self_s": st("anticode.enum"),
            "anticode.materialize_calls": c("anticode.materialize"),
            "anticode.materialize_s": t("anticode.materialize"),
            "anticode.is_optimal_s": t("anticode.is_optimal"),
            "genweights.weight_profile_calls": wp_calls,
            "genweights.weight_profile_s": t("genweights.weight_profile"),
            "genweights.weight_profile_self_s": st("genweights.weight_profile"),
            "genweights.profile_intersect_s": profile_inter,
            "genweights.gen_weight_s": t("genweights.gen_weight"),
            "genweights.members_per_profile": profile_members / wp_calls if wp_calls else 0.0,
            "msrd.check_s": t("msrd.check"),
            "msrd.check_self_s": st("msrd.check"),
            "wiretap.threshold_table_s": t("wiretap.threshold_table"),
            "wiretap.worst_case_leakage_s": t("wiretap.worst_case_leakage"),
            "wiretap.leakage_dim_s": t("wiretap.leakage_dim"),
            "isom.equivalent_codes_s": t("isom.equivalent_codes"),
            "isom.equivalent_codes_self_s": st("isom.equivalent_codes"),
            "isom.images": images,
            "isom.gl_group_s": t("isom.gl_group"),
            "cover.covering_number_s": t("cover.covering_number"),
            "cover.meshulam_search_s": t("cover.meshulam_search"),
            "trace.spans": n,
        }
        return out

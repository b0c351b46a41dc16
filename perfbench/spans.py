"""Spans and counts for the traced run, recorded from the benchmark's side.

`install` wraps the public functions and methods of the program's layers and
puts each wrapper into every module that imported the original, so that a
name bound by `from .sequences import log_section_space` inside `cech` is
wrapped too.  Class methods are wrapped on the class, which every importer
shares.  Wrapped: module functions and class methods whose names do not start
with "_", plus __init__ and the arithmetic operators.  Properties are not
wrapped.  Generator functions are counted but not timed, since their bodies
run in the caller.

Every wrapped call is counted.  A call that crosses from one layer into
another opens a span (name, start, end, parent); a call within the layer of
the innermost open span only counts, and its time stays in that span.  A
layer's self time is the sum over its spans of duration minus child spans.
Spans and counts stay in memory and are written out by `write` at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import weakref
from array import array
from time import perf_counter

LAYERS = ("forms", "cartier", "sequences", "cech", "purity", "gflinalg", "cli")
_DUNDERS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__")
MAX_SPANS = 2_000_000  # 24 bytes each; later spans are timed but not kept


class Tracer:
    def __init__(self):
        self.layer = None  # layer of the innermost open span
        self.stack: list = []  # open spans: [index, seconds in child spans]
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dropped = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, list] = {}
        self.extra: dict[str, int] = {
            "eliminations.le8": 0,
            "eliminations.le64": 0,
            "eliminations.gt64": 0,
            "entries_eliminated": 0,
            "complexes_contributing": 0,
        }
        self._contributing = weakref.WeakSet()

    # -- hooks for counts that need the arguments or the result ---------------

    def _rref_hook(self, args, _result):
        rows, cols = args[0].array.shape
        size = max(rows, cols)
        key = "le8" if size <= 8 else "le64" if size <= 64 else "gt64"
        self.extra[f"eliminations.{key}"] += 1
        self.extra["entries_eliminated"] += rows * cols

    def _homology_hook(self, args, result):
        cx = args[0]
        if any(result) and cx not in self._contributing:
            self._contributing.add(cx)
            self.extra["complexes_contributing"] += 1

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, layer: str, qualname: str, fn):
        cell = self.calls.setdefault(qualname, [0])
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        hook = {
            "gflinalg.FpMatrix.rref": self._rref_hook,
            "cech.CechComplex.homology_dims": self._homology_hook,
        }.get(qualname)
        name_id = len(self.names)
        self.names.append(qualname)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell[0] += 1
            if tr.layer == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(tr.start)
                if idx < MAX_SPANS:
                    tr.name_of.append(name_id)
                    tr.parent.append(tr.stack[-1][0] if tr.stack else -1)
                    tr.start.append(0.0)
                    tr.end.append(0.0)
                else:
                    idx = -1
                    tr.dropped += 1
                frame = [idx, 0.0]
                outer = tr.layer
                tr.stack.append(frame)
                tr.layer = layer
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    tr.layer = outer
                    tr.stack.pop()
                    dur = t1 - t0
                    tr.self_s[layer] += dur - frame[1]
                    if tr.stack:
                        tr.stack[-1][1] += dur
                    if idx >= 0:
                        tr.start[idx] = t0
                        tr.end[idx] = t1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _wrap_class(self, layer: str, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, qual, attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(layer, qual, attr))

    def install(self, package: str = "logcartier"):
        """Import and wrap every layer of `package`."""
        layers = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        replaced = {}
        for layer, mod in layers.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and self times accumulated so far."""
        return {
            "self_s": dict(self.self_s),
            "calls": {k: v[0] for k, v in self.calls.items()},
            "extra": dict(self.extra),
            "spans": len(self.start),
            "spans_dropped": self.dropped,
        }

    def write(self, path: str) -> None:
        """`path`.json gets the name table and counts, `path`.bin the spans as
        four arrays of `spans` entries each: name index (int32), parent span
        index (int32, -1 at the root), start and end (float64 seconds)."""
        header = self.snapshot()
        header["names"] = self.names
        header["layout"] = ["name_of:i4", "parent:i4", "start:f8", "end:f8"]
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of one round, named as in BENCHMARK.json."""
    calls, extra, self_s = snap["calls"], snap["extra"], snap["self_s"]

    def c(name):
        return calls.get(name, 0)

    complexes = c("cech.CechComplex.__init__")
    out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    counts = {
        "gflinalg.matrices": c("gflinalg.FpMatrix.__init__"),
        "gflinalg.eliminations": c("gflinalg.FpMatrix.rref"),
        "gflinalg.eliminations.le8": extra["eliminations.le8"],
        "gflinalg.eliminations.le64": extra["eliminations.le64"],
        "gflinalg.eliminations.gt64": extra["eliminations.gt64"],
        "gflinalg.entries_eliminated": extra["entries_eliminated"],
        "forms.rings": c("forms.FormRing.__init__"),
        "forms.slices": c("forms.WeightSlice.__init__"),
        "forms.wedges": c("forms.LogForm.wedge"),
        "forms.differentials": c("forms.LogForm.d"),
        "sequences.section_spaces": c("sequences.log_section_space"),
        "sequences.coordinate_solves": c("sequences.SectionSpace.coords_of_vector"),
        "sequences.slice_complexes": c("sequences.SliceComplex.__init__"),
        "cech.complexes": complexes,
        "cech.complexes_contributing": extra["complexes_contributing"],
        "cartier.zb_decompositions": c("cartier.ZBDecomposition.__init__"),
        "cartier.cartier_calls": c("cartier.cartier"),
        "purity.gysin_slices": c("purity.GysinSlice.__init__"),
        "cli.checks": c("cli.CheckResult.__init__"),
    }
    out.update({k: (v, "count") for k, v in counts.items()})
    share = 100.0 * extra["complexes_contributing"] / complexes if complexes else 0.0
    out["cech.contributing_share"] = (share, "%")
    return out

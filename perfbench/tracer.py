"""Span tracer for the per-layer table.

`Tracer.install` wraps the public functions (no leading underscore) defined in
each nlsobolev module, at every module namespace that holds them (``from .grid
import h1_inner`` binds a second name), so calls between layers are recorded
too.  Nothing under src/ changes.
Spans (name, start, end, parent, op) stay in memory until `write`.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# the package's modules; a span is named <layer>.<function>, with the leading
# underscore of _quadrature dropped
LAYERS = ("params", "grid", "_quadrature", "riesz", "functional", "manifold",
          "spectrum", "experiments", "cli")


def _dense_bytes(ret) -> int:
    """rows * cols * 8 of the 2-D arrays returned directly or as attributes."""
    if isinstance(ret, np.ndarray):
        return ret.shape[0] * ret.shape[1] * 8 if ret.ndim == 2 else 0
    attrs = getattr(ret, "__dict__", None)
    if not attrs:
        return 0
    return sum(v.shape[0] * v.shape[1] * 8 for v in attrs.values()
               if isinstance(v, np.ndarray) and v.ndim == 2)


class Tracer:
    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, op, extra)
        self.op = -1              # id of the op in progress
        self._stack: list[int] = []
        self._kernels: set[int] = set()   # ids of AngularKernels already returned
        self.names: list[str] = []

    def install(self, package) -> None:
        """Wrap every public function; their span names go to self.names."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or isinstance(fn, type) or not callable(fn) \
                        or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer.lstrip('_')}.{fname}"
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)
                self.names.append(name)

    def _extra(self, name: str, ret):
        if name == "riesz.angular_kernel":
            hit = id(ret) in self._kernels
            self._kernels.add(id(ret))
            return hit
        if name == "experiments.ratio_sweep":
            rows = ret or []
            return (sum(r.ratio is not None for r in rows), len(rows))
        return _dense_bytes(ret)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ret = None
            t0 = clock()
            try:
                ret = fn(*args, **kwargs)
                return ret
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, self._extra(name, ret))
        return traced

    def stats(self, n_ops: int) -> dict:
        """Per span name: calls, self and total seconds, dense bytes (all per
        op), plus kernel builds and hit ratio and the sweep's rows-with-ratio."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        acc = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "dense_bytes": 0,
                      "builds": 0, "build_s": 0.0, "rows_ok": 0, "rows": 0}
               for name in self.names}
        for j, (name, t0, t1, parent, _, extra) in enumerate(self.spans):
            a = acc[name]
            a["calls"] += 1
            a["total_s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[j]
            if name == "riesz.angular_kernel":
                if not extra:
                    a["builds"] += 1
                    a["build_s"] += t1 - t0
            elif name == "experiments.ratio_sweep":
                a["rows_ok"] += extra[0]
                a["rows"] += extra[1]
            else:
                a["dense_bytes"] += extra
        out = {}
        for name, a in acc.items():
            out[name] = {
                "calls": a["calls"] / n_ops,
                "self_s": a["self_s"] / n_ops,
                "total_s": a["total_s"] / n_ops,
                "dense_bytes": a["dense_bytes"] / n_ops,
                "builds": a["builds"] / n_ops,
                "build_s": a["build_s"] / n_ops,
                "hit_ratio": 1.0 - a["builds"] / a["calls"] if a["calls"] else 0.0,
                "rows_ok_ratio": a["rows_ok"] / a["rows"] if a["rows"] else 0.0,
            }
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")

"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``beltrami`` layer in every
module that imports them, so calls between layers are recorded too.  Each
span keeps its name, start, end, parent span and op id; spans stay in memory
and are written out when the run ends.  Nothing under ``src/`` knows about
the tracer: ``install`` patches module attributes and returns a function
that restores them.

Spans started in a worker thread of ``solve_family`` have no parent on their
own thread; they take the innermost open span of the thread that began the
op, so family self time excludes the entry solves it waits for.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time

# ``summarize`` reports calls and self time per op for each span name.
SPAN_NAMES = (
    "transforms.beurling", "transforms.cauchy", "transforms.estimate_contraction",
    "solver.neumann", "solver.immersion", "solver.residual",
    "family.solve_dbar", "family.solve_family",
    "exhaustion.solve", "exhaustion.taylor_project",
    "grid.fd", "fieldgen.build", "io.write", "io.read", "cli.main",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _fft_size(domain, method) -> int:
    # the quadrature oracle convolves on a zero-padded 2N x 2N grid
    return domain.resolution * (2 if method == "quadrature" else 1)


def _mu_key(mu):
    # tells coefficients apart within one process (bytes hashes are salted)
    sub = mu.extended.samples[::4, ::4]
    return (mu.domain, mu.sup_norm, hash(sub.tobytes()))


def _transform_attrs(tracer, args, kwargs, result):
    phi = _arg(args, kwargs, 0, "phi")
    method = _arg(args, kwargs, 1, "method", "spectral")
    return {"pairs": 1, "n": _fft_size(phi.domain, method)}


def _estimate_attrs(tracer, args, kwargs, result):
    mu = _arg(args, kwargs, 0, "mu")
    iterations = _arg(args, kwargs, 1, "iterations", 8)
    method = _arg(args, kwargs, 2, "method", "spectral")
    tracer.local.last_estimate = result
    # the power loop stops before its first apply when mu is identically 0
    pairs = iterations if mu.sup_norm > 0.0 else 0
    return {"pairs": pairs, "n": _fft_size(mu.domain, method),
            "mu": _mu_key(mu)}


def _observed_rate(trace) -> float:
    """Geometric-mean residual ratio over the second half of a Neumann trace."""
    start = len(trace) // 2
    steps = len(trace) - 1 - start
    if steps < 1 or trace[start] <= 0.0 or trace[-1] <= 0.0:
        return 0.0
    return (trace[-1] / trace[start]) ** (1.0 / steps)


def _neumann_attrs(tracer, args, kwargs, result):
    attrs = {"mu": _mu_key(_arg(args, kwargs, 0, "mu")),
             "iterations": result.iterations}
    q = getattr(tracer.local, "last_estimate", None)
    observed = _observed_rate(result.trace) if len(result.trace) >= 4 else 0.0
    if q and observed > 0.0:
        attrs["rate_ratio"] = q / observed
    return attrs


def _mu_attrs(tracer, args, kwargs, result):
    return {"mu": _mu_key(_arg(args, kwargs, 0, "mu"))}


def _family_attrs(tracer, args, kwargs, result):
    return {"entries_failed": sum(e.result is None for e in result.entries)}


def _exhaust_attrs(tracer, args, kwargs, result):
    return {"steps": len(result[1].steps)}


# (defining module, public name, span name, attribute extractor)
TARGETS = (
    ("beltrami.transforms", "beurling_transform", "transforms.beurling", _transform_attrs),
    ("beltrami.transforms", "cauchy_transform", "transforms.cauchy", _transform_attrs),
    ("beltrami.transforms", "estimate_contraction", "transforms.estimate_contraction",
     _estimate_attrs),
    ("beltrami.solver", "neumann_solve", "solver.neumann", _neumann_attrs),
    ("beltrami.solver", "solve_immersion", "solver.immersion", _mu_attrs),
    ("beltrami.solver", "beltrami_residual", "solver.residual", None),
    ("beltrami.family", "solve_dbar", "family.solve_dbar", _mu_attrs),
    ("beltrami.family", "solve_family", "family.solve_family", _family_attrs),
    ("beltrami.exhaustion", "exhaustion_solve", "exhaustion.solve", _exhaust_attrs),
    ("beltrami.exhaustion", "taylor_project", "exhaustion.taylor_project", None),
    ("beltrami.grid", "fd_wirtinger_dbar", "grid.fd", None),
    ("beltrami.grid", "fd_wirtinger_dz", "grid.fd", None),
    ("beltrami.fieldgen", "builtin_field", "fieldgen.build", None),
    ("beltrami.io", "write_field", "io.write", None),
    ("beltrami.io", "write_pgm_heatmaps", "io.write", None),
    ("beltrami.io", "write_residual_trace_csv", "io.write", None),
    ("beltrami.io", "write_family_report_csv", "io.write", None),
    ("beltrami.io", "write_exhaustion_trace_csv", "io.write", None),
    ("beltrami.io", "read_field", "io.read", None),
)


class Tracer:
    """In-memory span store.  ``op`` tags every span and counter."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent id, op, attrs]
        self.local = threading.local()
        self.op = None
        self.field_inits = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._root_stack = None

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def begin_op(self, op) -> None:
        """Tag later spans with ``op``; this thread's open spans become the
        parents of spans that worker threads start."""
        self.op = op
        self._root_stack = self._stack()

    def span(self, name: str, fn, describe, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._root_stack:
            parent = self._root_stack[-1][0]
        else:
            parent = None
        record = [next(self._ids), name, time.perf_counter(), None, parent,
                  self.op, None]
        self.spans.append(record)
        stack.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
        if describe is not None:
            record[6] = describe(self, args, kwargs, result)
        return result

    def count_field_init(self) -> None:
        with self._lock:
            self.field_inits[self.op] = self.field_inits.get(self.op, 0) + 1

    def dump(self, path) -> None:
        """Write every span as one JSON line (attributes without mu keys)."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, attrs in self.spans:
                attrs = {k: v for k, v in (attrs or {}).items() if k != "mu"}
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


def _wrapper(tracer, fn, name, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, describe, args, kwargs)
    return traced


def install(tracer: Tracer):
    """Wrap every TARGETS function wherever a ``beltrami`` module binds it.

    Returns a function that puts the original objects back.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "beltrami" or n.startswith("beltrami."))]
    restore = []
    for module_name, attr, span_name, describe in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        traced = _wrapper(tracer, original, span_name, describe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    restore.append((module, key, original))

    field_cls = sys.modules["beltrami.grid"].ComplexField
    original_init = field_cls.__init__

    def counted_init(self, *args, **kwargs):
        tracer.count_field_init()
        original_init(self, *args, **kwargs)

    field_cls.__init__ = counted_init
    restore.append((field_cls, "__init__", original_init))

    def uninstall():
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)
    return uninstall


def _union_length(intervals, lo=-math.inf, hi=math.inf) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if stop <= start:
            continue
        if start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def summarize(spans, field_inits: int, window=None) -> dict:
    """Raw per-op layer counts and self times from the spans of one op.

    ``window`` (start, end) bounds the time that counts as covered; spans of
    the untimed check outside it still count as calls and self time.
    """
    children = {}
    for record in spans:
        children.setdefault(record[4], []).append(record)
    out = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES
           for kind in ("calls", "self_s")}
    out.update({"fft_pairs": 0, "fft_gflop": 0.0, "fft_gbytes": 0.0,
                "neumann_iterations": 0, "entries_failed": 0,
                "exhaustion_steps": 0, "field_inits": field_inits,
                "rate_ratio_min": None})
    mus = set()
    for sid, name, start, end, parent, op, attrs in spans:
        kids = [(c[2], c[3]) for c in children.get(sid, ())]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - _union_length(kids, start, end)
        attrs = attrs or {}
        if "mu" in attrs:
            mus.add(attrs["mu"])
        pairs = attrs.get("pairs", 0)
        if pairs:
            n2 = attrs["n"] ** 2
            out["fft_pairs"] += pairs
            # two complex 2-D FFTs per pair, 5 n^2 log2(n^2) flops each, and
            # one complex128 read plus write of the array per FFT
            out["fft_gflop"] += pairs * 2 * 5 * n2 * math.log2(n2) / 1e9
            out["fft_gbytes"] += pairs * 2 * 2 * 16 * n2 / 1e9
        out["neumann_iterations"] += attrs.get("iterations", 0)
        out["entries_failed"] += attrs.get("entries_failed", 0)
        out["exhaustion_steps"] += attrs.get("steps", 0)
        ratio = attrs.get("rate_ratio")
        if ratio is not None and (out["rate_ratio_min"] is None
                                  or ratio < out["rate_ratio_min"]):
            out["rate_ratio_min"] = ratio
    out["mu_count"] = len(mus)
    lo, hi = window if window is not None else (-math.inf, math.inf)
    out["covered_s"] = _union_length([(s[2], s[3]) for s in spans], lo, hi)
    return out


def merge(a: dict, b: dict) -> dict:
    """Add two ``summarize`` results (the minimum for the rate ratio)."""
    out = dict(a)
    for key, value in b.items():
        if key == "rate_ratio_min":
            known = [v for v in (a.get(key), value) if v is not None]
            out[key] = min(known) if known else None
        else:
            out[key] = a.get(key, 0) + value
    return out

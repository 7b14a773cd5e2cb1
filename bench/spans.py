"""Per-layer tracing of shiftdet from outside the package.

``Tracer.install()`` replaces public names of the package's modules with
timing wrappers for the duration of a ``with`` block and restores them
afterwards:

* every module binding of the four quadrature rule constructors, ``solve_chi``,
  ``make_alpha``, ``nystrom_det``, ``nystrom_det_matrix`` and the
  experiment entry points (so ``experiments`` and ``rhp`` calling
  ``gauss_legendre_rule`` by name are both seen);
* the Cauchy evaluators of ``ChiSolution`` and ``AlphaEvaluator``, on the
  classes; ``rhp._cauchy_transform`` and ``_NearCutCauchy.eval`` count the
  points each evaluator hands over and those that rhp sends to the near path;
* the kernel callable handed to ``nystrom_det``/``nystrom_det_matrix`` and
  the ``kernel`` of each solved ``ChiSolution``, timed as ``kernels``;
* ``ThreadPoolExecutor`` in ``experiments``, by a subclass that carries the
  submitting span into each job, so pool jobs nest under the pool span;
* the LAPACK entry points ``numpy.linalg.solve/det/slogdet`` (and
  ``scipy.linalg.lu_factor/lu_solve`` when loaded), as timed events charged
  to the enclosing ``rhp`` or ``determinants`` span.

Each thread keeps its own span stack.  Spans stay in memory; ``summarize``
turns them into the per-layer metrics.  A span's self time is its duration
minus the part covered by its children on the same thread.
"""
from __future__ import annotations

import concurrent.futures
import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

RULES = ("gauss_legendre_rule", "stadium_loop_rule",
         "compactified_line_rule", "truncated_line_rule")
EXPERIMENTS = ("verify_factorization", "asymptotic_sweep", "m_vs_m0",
           "compute_determinant", "fit_decay_slope", "limit_determinants")
CAUCHY = {"ChiSolution": ("chi_at", "chi_inv_at", "delta_chi", "FL_at", "FR_at"),
          "AlphaEvaluator": ("alpha_at",)}
FACTORIZING = ("solve", "det", "slogdet", "lu_factor")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, id, name, parent, thread, attrs):
        self.id, self.name, self.parent = id, name, parent
        self.thread, self.attrs = thread, attrs
        self.start = self.end = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.id, self.name, self.parent, self.thread,
                self.start, self.end, self.attrs]


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: List[Span] = []
        # (function, matrix order, seconds, owning span id or None)
        self.lapack: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[tuple] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, parent.id if parent else None,
                    threading.get_ident(), attrs)
        stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span):
        span.end = perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} ended out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        s = self.begin(name, parent, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    def timed(self, name: str, fn, attrs=None):
        """fn wrapped in a span; attrs(args, kwargs) -> dict is recorded."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)
        return wrapper

    def kernel(self, name: str, fn):
        """A kernel callable timed as ``name``; the outermost kernel span on
        a thread records the number of entries it returned."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not any(s.layer == "kernels" for s in self._stack())
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if outer:
                s.attrs["entries"] = int(np.size(out))
            return out
        return wrapper

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement, extra_modules=()):
        """Replace every binding of ``original`` in the package's modules."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "shiftdet" or n.startswith("shiftdet.")]
        for mod in [*mods, *extra_modules]:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)

    def _lapack(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            order = int(np.shape(a[0] if name == "lu_solve" else a)[-1])
            t0 = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                owner = next((s.id for s in reversed(self._stack())
                              if s.layer in ("rhp", "determinants")), None)
                self.lapack.append((name, order, dt, owner))
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(concurrent.futures.ThreadPoolExecutor):
            # the pool span covers the executor's life on the creating
            # thread: that thread only waits for the jobs meanwhile
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._span = tracer.begin("experiments.pool",
                                          workers=self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                parent = self._span

                def job():
                    with tracer.span("experiments.pool_job", parent=parent):
                        return fn(*args, **kwargs)
                return super().submit(job)

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=wait, cancel_futures=cancel_futures)
                span, self._span = self._span, None
                if span is not None:
                    tracer.end(span)

        return TracedThreadPoolExecutor

    @contextmanager
    def install(self):
        """Patch the package (importing it first) and undo it on exit."""
        import shiftdet.cli  # noqa: F401  (loads every module to patch)
        from shiftdet import determinants, experiments, quadrature, rhp
        try:
            self._install(determinants, experiments, quadrature, rhp)
            yield self
        finally:
            while self._restore:
                owner, attr, value = self._restore.pop()
                setattr(owner, attr, value)

    def _install(self, determinants, experiments, quadrature, rhp):
        gl_signature = inspect.signature(quadrature.gauss_legendre_rule)

        def rule_attrs(args, kwargs):
            bound = gl_signature.bind(*args, **kwargs).arguments
            return {"n": int(bound["n"]), "a": float(bound["a"]),
                    "b": float(bound["b"])}

        for name in RULES:
            fn = getattr(quadrature, name)
            self._rebind(fn, self.timed(
                "quadrature." + name, fn,
                rule_attrs if name == "gauss_legendre_rule" else None))

        solve_chi = rhp.solve_chi

        @functools.wraps(solve_chi)
        def traced_solve_chi(*args, **kwargs):
            with self.span("rhp.solve_chi"):
                chi = solve_chi(*args, **kwargs)
                chi.kernel = self.kernel("kernels.interval", chi.kernel)
            return chi
        self._rebind(solve_chi, traced_solve_chi)
        self._rebind(rhp.make_alpha, self.timed("rhp.make_alpha", rhp.make_alpha))

        for cls_name, methods in CAUCHY.items():
            cls = getattr(rhp, cls_name)
            for meth in methods:
                self._set(cls, meth, self.timed("rhp." + meth, cls.__dict__[meth]))
        self._rebind(rhp._cauchy_transform, self._cauchy_points(rhp._cauchy_transform))
        near_eval = rhp._NearCutCauchy.__dict__["eval"]
        self._set(rhp._NearCutCauchy, "eval", self._near_points(near_eval))

        for name in ("nystrom_det", "nystrom_det_matrix"):
            self._rebind(getattr(determinants, name),
                         self._nystrom(name, getattr(determinants, name)))

        for name in EXPERIMENTS:
            fn = getattr(experiments, name)
            self._rebind(fn, self.timed("experiments." + name, fn))
        self._set(experiments, "ThreadPoolExecutor", self._pool_class())

        for name in ("solve", "det", "slogdet"):
            fn = getattr(np.linalg, name)
            self._rebind(fn, self._lapack(name, fn), [np.linalg])
        scipy_linalg = sys.modules.get("scipy.linalg")
        if scipy_linalg is not None:
            for name in ("lu_factor", "lu_solve"):
                fn = getattr(scipy_linalg, name)
                self._rebind(fn, self._lapack(name, fn), [scipy_linalg])

    def _nystrom(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(kernel, rule, *args, **kwargs):
            kind = "interval" if rule.domain_kind == "interval" else "contour"
            wrapped = self.kernel("kernels." + kind, kernel)
            with self.span("determinants." + name):
                return fn(wrapped, rule, *args, **kwargs)
        return wrapper

    def _attrs(self) -> dict:
        """Attributes of the innermost open span (a throwaway dict if none)."""
        stack = self._stack()
        return stack[-1].attrs if stack else {}

    def _cauchy_points(self, fn):
        """rhp's near/far dispatcher, adding to the calling evaluator's span
        the points rhp kept on the far path and that path's flops."""
        @functools.wraps(fn)
        def wrapper(rule, densities, near, threshold, z, *args, **kwargs):
            attrs = self._attrs()
            near_before = attrs.get("near", 0)
            out = fn(rule, densities, near, threshold, z, *args, **kwargs)
            far = int(np.size(z)) - (attrs.get("near", 0) - near_before)
            attrs["far"] = attrs.get("far", 0) + far
            # one complex (far x n) @ (n x dim) product; densities is n x dim
            attrs["far_flop"] = attrs.get("far_flop", 0.0) + 8.0 * far * np.size(densities)
            return out
        return wrapper

    def _near_points(self, fn):
        """The near-cut Legendre evaluator, counting the points rhp sends it."""
        @functools.wraps(fn)
        def wrapper(near, z_flat, *args, **kwargs):
            attrs = self._attrs()
            attrs["near"] = attrs.get("near", 0) + int(np.size(z_flat))
            return fn(near, z_flat, *args, **kwargs)
        return wrapper


# --------------------------------------------------------------------------
# analysis
# --------------------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    covered = defaultdict(float)
    by_id = {s.id: s for s in spans}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            covered[p.id] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md)."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def self_of(pred) -> float:
        return sum(selfs[s.id] for s in spans if pred(s))

    def named(*names):
        return [s for s in spans if s.name in names]

    gl = named("quadrature.gauss_legendre_rule")
    gl_keys = {(s.attrs["n"], s.attrs["a"], s.attrs["b"]) for s in gl}

    kern = {kind: [s for s in spans if s.name == "kernels." + kind]
            for kind in ("interval", "contour")}
    entries = {kind: sum(s.attrs.get("entries", 0) for s in ss)
               for kind, ss in kern.items()}
    kern_s = {kind: sum(selfs[s.id] for s in ss) for kind, ss in kern.items()}

    cauchy = named(*("rhp." + m for methods in CAUCHY.values() for m in methods))
    far = sum(s.attrs.get("far", 0) for s in cauchy)
    near = sum(s.attrs.get("near", 0) for s in cauchy)
    far_flop = sum(s.attrs.get("far_flop", 0.0) for s in cauchy)

    def owned(prefix):
        return [e for e in tracer.lapack if e[0] in FACTORIZING and e[3] is not None
                and by_id[e[3]].name.startswith(prefix)]
    det_fact = owned("determinants.")
    lu_s = sum(e[2] for e in det_fact)
    lu_gflop = sum(8.0 * e[1] ** 3 / 3.0 for e in det_fact) / 1e9

    pools = named("experiments.pool")
    wait = sum(s.duration for s in pools)
    busy = sum(s.duration for s in named("experiments.pool_job"))
    capacity = sum(s.duration * s.attrs["workers"] for s in pools)

    solves = named("rhp.solve_chi")
    return {
        "quadrature.rule_s": self_of(lambda s: s.layer == "quadrature"),
        "quadrature.gl_calls": len(gl),
        "quadrature.gl_distinct": len(gl_keys),
        "quadrature.gl_reuse": _ratio(len(gl_keys), len(gl)),
        "quadrature.gl_nodes": sum(s.attrs["n"] for s in gl),
        "kernels.interval_s": kern_s["interval"],
        "kernels.contour_s": kern_s["contour"],
        "kernels.interval_entries": entries["interval"],
        "kernels.contour_entries": entries["contour"],
        "kernels.interval_ns_per_entry": 1e9 * _ratio(kern_s["interval"], entries["interval"]),
        "kernels.contour_ns_per_entry": 1e9 * _ratio(kern_s["contour"], entries["contour"]),
        "rhp.solve_s": sum(selfs[s.id] for s in solves),
        "rhp.solve_n": len(solves),
        "rhp.solve_factorizations": len(owned("rhp.solve_chi")),
        "rhp.cauchy_s": sum(selfs[s.id] for s in cauchy),
        "rhp.cauchy_far_points": far,
        "rhp.cauchy_near_points": near,
        "rhp.cauchy_far_gflop": far_flop / 1e9,
        "determinants.self_s": self_of(lambda s: s.layer == "determinants"),
        "determinants.lu_s": lu_s,
        "determinants.factorizations": len(det_fact),
        "determinants.lu_gflop": lu_gflop,
        "determinants.lu_gflops": _ratio(lu_gflop, lu_s),
        "experiments.pool_wait_s": wait,
        "experiments.pool_busy_s": busy,
        "experiments.pool_workers": max((s.attrs["workers"] for s in pools), default=0),
        "experiments.pool_efficiency": _ratio(busy, capacity),
        "cli.self_s": self_of(lambda s: s.layer == "cli"),
    }

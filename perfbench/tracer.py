"""In-memory span tracing of dpl_heatlab's layer entry points.

The tracer wraps public entry points from outside the package: every module
attribute that is bound to a traced function is replaced, so a caller that
imported the function by name (``from .modes import kernel_matrix``) calls
the wrapper too.  Each call becomes a span (name, start, end, parent, thread)
kept in a list until the run ends; counters are incremented at the same
boundaries.

A span opened in a worker thread with an empty stack takes the innermost
open span of the main thread as its parent, which is the call that handed
the work out (``mode_coefficients`` for the coefficient chunks).
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import os
import threading
import time

# (module, attribute) -> span name.  A missing target is skipped and listed
# in ``Tracer.missing``, so a renamed helper makes its metric read 0 instead
# of stopping the run.
FUNCTION_SPANS = [
    ("cli", "main", "cli.main"),
    ("model", "load_bundled", "model.load"),
    ("model", "load_scenario_file", "model.load"),
    ("modes", "build_mode_table", "modes.table"),
    ("modes", "kernel_matrix", "modes.kernel"),
    ("quadrature", "integrate_columns", "quadrature"),
    ("series", "mode_coefficients", "series.coeff"),
    ("series", "assemble_field", "series.assemble_field"),
    ("series", "assemble_at_points", "series.assemble_points"),
    ("trajectory", "position", "trajectory"),
    ("trajectory", "velocity", "trajectory"),
    ("fdm", "solve_fdm", "fdm.solve"),
    ("analysis", "line_profile_y", "analysis.profile"),
    ("analysis", "trajectory_profile", "analysis.profile"),
    ("analysis", "source_peak_distance_sweep", "analysis.peak"),
    ("analysis", "write_field_csv", "analysis.csv"),
    ("analysis", "write_profile_csv", "analysis.csv"),
    ("analysis", "write_sweep_csv", "analysis.csv"),
]

METHOD_SPANS = [
    ("series", "PointSourceFactors", "__call__", "series.factor"),
    ("fdm", "GaussianSourceFactors", "__call__", "fdm.gauss_factor"),
    ("fdm", "GaussianSourceFactors", "__init__", "fdm.gauss_setup"),
]

COUNTERS = ("modes.kernel_evals", "quadrature.batches", "quadrature.samples",
            "series.factor_evals", "series.assembled_terms", "fdm.steps",
            "analysis.csv_bytes")


def _field_error_bound(args, coeffs):
    """Largest field change two tolerance-meeting coefficient sets allow.

    Each coefficient P_mn is accepted within max(abs_tol, rel_tol |P_mn|),
    so two runs that both meet the tolerance differ by at most twice that,
    and the field by at most 2 * sum |prefactor * gain_mn| * tol_mn.
    """
    import numpy as np
    from dpl_heatlab.quadrature import QuadratureSpec
    from dpl_heatlab.series import prefactor

    quad = args.get("quad") or QuadratureSpec()
    table = args["table"]
    weight = abs(prefactor(args["s"], classical=table.classical)) * table.gain
    per_mode = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(coeffs))
    return float(2.0 * np.sum(weight * per_mode))


class Tracer:
    """Span recorder; ``install`` patches the package, ``summary`` reduces."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread id)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.digest = hashlib.sha256()
        self.error_bounds = None  # list when set: see _after_coeffs
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount):
        with self._lock:
            self.counters[name] += int(amount)

    def wrap(self, name, fn, after=None):
        """Return fn recorded as span ``name``; after(bound args, result)."""
        sig = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end,
                                   threading.get_ident()))
            if after is not None:
                after(sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at the layer boundaries ---------------------------------

    def _after_kernel(self, _args, result):
        self.count("modes.kernel_evals", result.size)

    def _after_factor(self, _args, result):
        self.count("series.factor_evals", result.size)

    def _after_coeffs(self, args, result):
        with self._lock:
            self.digest.update(str((result.dtype.str, result.shape)).encode())
            self.digest.update(result.tobytes())
        if self.error_bounds is not None:
            self.error_bounds.append(_field_error_bound(args, result))

    def _after_field(self, args, _result):
        table, grid, mask = args["table"], args["grid"], args.get("mode_mask")
        used = table.nmodes if mask is None else int(mask.sum())
        self.count("series.assembled_terms", used * grid.nx * grid.ny)

    def _after_points(self, args, _result):
        table, mask = args["table"], args.get("mode_mask")
        used = table.nmodes if mask is None else int(mask.sum())
        self.count("series.assembled_terms", used * len(args["xs"]))

    def _after_csv(self, args, _result):
        self.count("analysis.csv_bytes", os.path.getsize(args["path"]))

    def _wrap_quadrature(self, fn):
        """integrate_columns whose integrand is itself a counted span."""
        def with_traced_integrand(f, *args, **kwargs):
            def integrand(taus):
                self.count("quadrature.batches", 1)
                self.count("quadrature.samples", len(taus))
                return f(taus)
            return fn(self.wrap("series.integrand", integrand),
                      *args, **kwargs)
        return self.wrap("quadrature", with_traced_integrand)

    def _count_step(self, fn):
        def step_source(*args, **kwargs):
            self.count("fdm.steps", 1)
            return fn(*args, **kwargs)
        return step_source

    # -- patching ---------------------------------------------------------

    def install(self):
        """Patch every dpl_heatlab module; returns self."""
        names = ("cli", "model", "modes", "quadrature", "series",
                 "trajectory", "fdm", "analysis")
        mods = {n: importlib.import_module(f"dpl_heatlab.{n}") for n in names}
        everywhere = [importlib.import_module("dpl_heatlab"), *mods.values()]
        after = {
            "modes.kernel": self._after_kernel,
            "series.coeff": self._after_coeffs,
            "series.assemble_field": self._after_field,
            "series.assemble_points": self._after_points,
            "analysis.csv": self._after_csv,
        }
        replacements = {}
        for mod, attr, span in FUNCTION_SPANS:
            fn = getattr(mods[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
            elif span == "quadrature":
                replacements[id(fn)] = (fn, self._wrap_quadrature(fn))
            else:
                replacements[id(fn)] = (fn, self.wrap(span, fn,
                                                      after.get(span)))
        source_grid = getattr(mods["fdm"], "_source_grid", None)
        if source_grid is None:
            self.missing.append("fdm._source_grid")
        else:
            replacements[id(source_grid)] = (source_grid,
                                             self._count_step(source_grid))
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        for mod, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(mods[mod], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            after_call = self._after_factor if meth == "__call__" else None
            setattr(cls, meth, self.wrap(span, fn, after_call))
        return self

    # -- reduction ----------------------------------------------------------

    def summary(self):
        """Per-name inclusive/self seconds and call counts, plus Σ self.

        Self time is a span's duration minus the union of its children's
        intervals, so children running in parallel threads are not
        subtracted twice.
        """
        children = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span)
        names = {}
        total_self = 0.0
        for sid, _parent, name, start, end, _tid in self.spans:
            covered = 0.0
            cursor = start
            for _c, _p, _n, c_start, c_end, _t in sorted(
                    children.get(sid, ()), key=lambda c: c[3]):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            self_s = (end - start) - covered
            total_self += self_s
            agg = names.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s
        return {"names": names, "total_self_s": total_self,
                "counters": dict(self.counters),
                "coeff_digest": self.digest.hexdigest()[:32],
                "error_bounds": self.error_bounds,
                "spans": len(self.spans), "missing": self.missing}

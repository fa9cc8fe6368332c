"""In-memory span recorder that wraps lspart's layer functions from outside.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (or None)
and the id of the benchmark operation it ran under. Spans stay in memory and
are written out once, when the run ends.

The program is not edited. ``Tracer.install`` replaces each function named in
``SPANS`` wherever it is bound: every module attribute of a loaded ``lspart``
module that holds the original object (``from .inference import band_plugin``
makes such a copy in ``harness``), and the class attribute for methods and
properties. ``Tracer.uninstall`` puts every original back.

While installed, the tracer also records work counts read from arguments and
return values, and, for the spans in ``MEMORY_SPANS``, the tracemalloc peak
above the allocation at entry.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# (span name, module, attribute or Class.attribute)
SPANS = (
    ("partition.locate", "lspart.partition", "TensorPartition.locate"),
    ("basis.eval_many", "lspart.basis", "BasisSpec.eval_many"),
    ("fit.fit_estimator", "lspart.fit", "FitResult.__init__"),
    ("fit.gram_banded", "lspart.fit", "gram_banded"),
    ("fit.cross_gram", "lspart.fit", "cross_gram"),
    ("fit.factor", "lspart.fit", "BandedCholesky.__init__"),
    ("fit.solve", "lspart.fit", "BandedCholesky.solve"),
    ("fit.gamma_many", "lspart.fit", "FitResult.gamma_many"),
    ("fit.leverage", "lspart.fit", "FitResult.leverage"),
    ("biascorrect.leading_bias_many", "lspart.biascorrect", "leading_bias_many"),
    ("biascorrect.projected_bias_term_many", "lspart.biascorrect",
     "projected_bias_term_many"),
    ("inference.sigma_hat", "lspart.inference", "sigma_hat"),
    ("inference.sigma_mat", "lspart.inference", "VarianceEstimate.sigma_mat"),
    ("inference.omega_many", "lspart.inference", "VarianceEstimate.omega_many"),
    ("inference.pointwise_ci", "lspart.inference", "pointwise_ci"),
    ("inference.band_plugin", "lspart.inference", "band_plugin"),
    ("inference.band_bootstrap", "lspart.inference", "band_bootstrap"),
    ("tuning.rot_select", "lspart.tuning", "rot_select"),
    ("tuning.dpi_select", "lspart.tuning", "dpi_select"),
    ("harness.read_data", "lspart.harness", "read_data"),
    ("harness.run_fit", "lspart.harness", "run_fit"),
    ("harness.run_simulation", "lspart.harness", "run_simulation"),
    ("dgp.dgp_sample", "lspart.dgp", "dgp_sample"),
    ("cli.main", "lspart.cli", "main"),
)

MEMORY_SPANS = (
    "inference.band_plugin",
    "inference.band_bootstrap",
    "fit.leverage",
    "fit.gamma_many",
    "inference.sigma_mat",
)


def _rhs_cols(args, kwargs, result):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return 1 if b.ndim == 1 else b.shape[1]


# span name -> (work counter, value read from (args, kwargs, result))
WORK = {
    "basis.eval_many": ("basis.eval_many.rows", lambda a, k, r: r.n),
    "fit.solve": ("fit.solve.rhs_cols", _rhs_cols),
    "tuning.dpi_select": ("tuning.dpi_select.rot_fallbacks",
                          lambda a, k, r: int(r.rot_fallback)),
}


class Tracer:
    """Records spans, work counts and memory peaks while installed.

    Set ``op`` to the current operation id before each operation. Use as a
    context manager, or call ``install``/``uninstall``; tracemalloc runs
    only while installed with ``memory=True``.
    """

    def __init__(self, memory=True):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, op id]
        self.work = defaultdict(float)
        self.peak_bytes = defaultdict(int)
        self.op = None
        self._stack = []
        self._mem_stack = []  # [traced bytes at entry, highest peak seen]
        self._patches = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        memory = self.memory and name in MEMORY_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            if memory:
                self._mem_enter()
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if memory:
                    self._mem_exit(name)
            if work is not None:
                self.work[work[0]] += work[1](args, kwargs, result)
            return result

        return wrapper

    def _mem_enter(self):
        current, peak = tracemalloc.get_traced_memory()
        # enclosing memory spans keep the peak reached so far before the reset
        for frame in self._mem_stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, 0])

    def _mem_exit(self, name):
        entry, seen = self._mem_stack.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peak_bytes[name] = max(self.peak_bytes[name], peak - entry)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        lspart_modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "lspart" or key.startswith("lspart."))
        ]
        for name, module_name, path in SPANS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget),
                                       original.fset, original.fdel, original.__doc__)
                else:
                    wrapped = self._wrap(name, original)
                self._patch(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for mod in lspart_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_metrics(self, num_ops, peak_bytes):
        """Per-op means of self time and calls for every span in ``SPANS``,
        the work counts, and the memory peaks from ``peak_bytes`` (a dict by
        span name, such as another tracer's ``peak_bytes``); every name is
        present."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for rec, own in zip(self.spans, self.self_times()):
            self_s[rec[0]] += own
            calls[rec[0]] += 1
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.self_s"] = (self_s[name] / num_ops, "s")
            out[f"{name}.calls"] = (calls[name] / num_ops, "count")
        out["basis.eval_many.rows"] = (self.work["basis.eval_many.rows"] / num_ops, "count")
        out["fit.solve.rhs_cols"] = (self.work["fit.solve.rhs_cols"] / num_ops, "count")
        dpi_calls = calls["tuning.dpi_select"]
        fallbacks = self.work["tuning.dpi_select.rot_fallbacks"]
        out["tuning.dpi_select.rot_fallback_ratio"] = (
            fallbacks / dpi_calls if dpi_calls else 0.0, "ratio")
        for name in MEMORY_SPANS:
            out[f"{name}.peak_mb"] = (peak_bytes.get(name, 0) / 2**20, "MB")
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

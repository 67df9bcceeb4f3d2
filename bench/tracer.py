"""In-memory span tracer installed on cqsm's public boundaries from outside.

Each boundary function is replaced, on every cqsm module that exposes it, by a
wrapper that records one span (id, parent id, layer, name, start, end).
Callers look their collaborators up as module attributes at call time
(``run_cqsm`` finds ``cqsm_step`` in ``cqsm.online``'s namespace,
``rollout_episode`` finds ``simulate_from`` in ``cqsm.offline``'s), so
patching those attributes is enough to see every call without touching the
package.  ``NoiseSource.normal`` is counted, not spanned: it runs once per
variate on the scalar paths.
The ``policy`` layer gets no spans; its sub-microsecond calls would cost more
to trace than to run.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import defaultdict

from cqsm.sde import NoiseSource

# (layer, function): the layer is the module that defines the function.
BOUNDARIES = (
    ("experiment", "run_experiment"),
    ("experiment", "write_record_csv"),
    ("experiment", "write_summary_csv"),
    ("online", "run_cqsm"),
    ("online", "cqsm_step"),
    ("online", "initial_action"),
    ("samplers", "langevin_sample"),
    ("samplers", "ddpm_sample"),
    ("lq", "env_step"),
    ("offline", "run_offline"),
    ("offline", "rollout_episode"),
    ("offline", "offline_update"),
    ("offline", "score_gradient_residual"),
    ("sde", "simulate_from"),
    ("sde", "simulate_batch"),
    ("martingale", "orthogonality_residual"),
    ("martingale", "orthogonality_statistics"),
    ("lq_analytic", "solve_lq"),
)
LAYERS = ("sde", "lq", "lq_analytic", "samplers", "online", "offline",
          "martingale", "experiment")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one traced stretch of a workload."""

    def __init__(self):
        self.spans = []
        self.variates = 0
        self.normal_calls = 0
        self.inner_steps = 0
        self.csv_bytes = 0
        self.absent = set()
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every boundary that exists; record the ones that do not."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "cqsm" or name.startswith("cqsm."))]
        for layer, fname in BOUNDARIES:
            owner = importlib.import_module(f"cqsm.{layer}")
            original = getattr(owner, fname, None)
            if original is None:
                self.absent.add(f"{layer}.{fname}")
                continue
            wrapper = self._span(original, layer, self._counter(fname))
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._patches.append((module, fname, original))
                    setattr(module, fname, wrapper)
        original_normal = NoiseSource.normal
        tracer = self

        def normal(noise, size=None):
            tracer.normal_calls += 1
            if size is None:
                tracer.variates += 1
            elif isinstance(size, int):
                tracer.variates += size
            else:
                tracer.variates += math.prod(size)
            return original_normal(noise, size)

        self._patches.append((NoiseSource, "normal", original_normal))
        NoiseSource.normal = normal

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _counter(self, fname):
        if fname == "langevin_sample":
            def count(args, kwargs, result):
                self.inner_steps += int(_arg(args, kwargs, 4, "n_steps"))
        elif fname == "ddpm_sample":
            def count(args, kwargs, result):
                self.inner_steps += _arg(args, kwargs, 2, "schedule").n_steps
        elif fname in ("write_record_csv", "write_summary_csv"):
            def count(args, kwargs, result):
                self.csv_bytes += os.path.getsize(_arg(args, kwargs, 1, "path"))
        else:
            count = None
        return count

    def _span(self, fn, layer, count):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, layer, fn.__name__, start, end))
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """Per layer: (self seconds, span count).  Self time excludes child spans."""
        child_ns = defaultdict(int)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for sid, _, layer, _, start, end in self.spans:
            self_ns[layer] += end - start - child_ns[sid]
            calls[layer] += 1
        return {layer: (self_ns[layer] / 1e9, calls[layer]) for layer in LAYERS}

    def write_spans(self, path):
        """Write the recorded spans as CSV, once, when the traced run ends."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,layer,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%s,%s,%d,%d\n" % span)

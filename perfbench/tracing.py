"""Spans around the public functions of each singlepixel layer.

`install` wraps every function in LAYERS, in every singlepixel module that
holds a reference to it (fwht, for instance, is imported by classical,
measurement and prior), and wraps the methods listed on their classes.  No
file of the package changes.  Each call records a span (id, name, start,
end, parent, info) in memory; `self_times` and `layer_metrics` derive the
per-layer figures from the spans after the run.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

# (span name, module, attribute, info taken from (args, result))
LAYERS = (
    ("cli.simulate", "cli", "run_simulate", None),
    ("cli.reconstruct", "cli", "run_reconstruct", None),
    ("cli.benchmark", "cli", "run_benchmark", None),
    ("cli.cell", "cli", "_benchmark_cell", None),
    ("patterns.build", "patterns", "walsh_hadamard_patterns",
     lambda args, kwargs, out: [list(args[:2]), out.logical_masks.nbytes]),
    ("patterns.save", "patterns", "save_patterns", None),
    ("patterns.load", "patterns", "load_patterns", lambda args, kwargs, out: out.logical_masks.nbytes),
    ("patterns.fwht", "patterns", "fwht", lambda args, kwargs, out: int(out.size)),
    ("measurement.measure", "measurement", "measure", None),
    ("measurement.csv_write", "measurement", "write_measurement_csv", None),
    ("measurement.csv_read", "measurement", "read_measurement_csv", None),
    ("propagation.propagate", "propagation", "propagate", None),
    ("propagation.adjoint", "propagation", "transfer_gradient", None),
    ("classical.hspi", "classical", "hspi_reconstruct", None),
    ("classical.dgi", "classical", "dgi_reconstruct", None),
    ("classical.cstv", "classical", "cstv_reconstruct", lambda args, kwargs, out: out.iterations_used),
    ("tvreg.prox", "tvreg", "tv_prox", None),
    ("prior.reconstruct", "prior", "reconstruct_untrained", None),
    ("prior.step", "prior", "loss_and_gradient", None),
    ("metrics.ssim", "metrics", "ssim", None),
    ("pgm.write", "pgm", "write_pgm", None),
    ("pgm.read", "pgm", "read_pgm", None),
)

# (span name, module, class, attribute, is a property)
METHODS = (
    ("patterns.fingerprint", "patterns", "PatternSet", "fingerprint", True),
    ("network.forward", "network", "GeneratorNet", "forward", False),
    ("network.backward", "network", "GeneratorNet", "backward", False),
    ("prior.adam", "prior", "AdamState", "update", False),
)


class Tracer:
    """Collects spans from every thread of the process.

    A span opened on a thread with no open span of its own (a pool worker)
    takes the innermost open span of the main thread as its parent, the
    call that submitted the work.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            span = next(self._ids)
            stack.append(span)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, out) if info is not None and out is not None else None
                self.spans.append((span, name, start, end, parent, extra))

        return traced


def install(tracer: Tracer) -> None:
    """Replace each listed callable wherever a singlepixel module holds it."""
    modules = [m for k, m in sorted(sys.modules.items()) if k == "singlepixel" or k.startswith("singlepixel.")]
    for name, module, attr, info in LAYERS:
        original = getattr(sys.modules[f"singlepixel.{module}"], attr)
        traced = tracer.wrap(name, original, info)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    for name, module, cls_name, attr, is_property in METHODS:
        cls = getattr(sys.modules[f"singlepixel.{module}"], cls_name)
        original = cls.__dict__[attr]
        if is_property:
            setattr(cls, attr, property(tracer.wrap(name, original.fget)))
        else:
            setattr(cls, attr, tracer.wrap(name, original))


def self_times(spans: list) -> dict:
    """Seconds per span name, each span less the union of its children."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    totals = {}
    for span_id, name, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def layer_metrics(spans: list, workers: int) -> dict:
    """Per-layer figures of one traced round, keyed by metric name."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def count(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    builds = by_name.get("patterns.build", ())
    distinct = {tuple(s[5][0]) for s in builds}
    mask_bytes = sum(s[5][1] for s in builds) + sum(s[5] for s in by_name.get("patterns.load", ()))
    steps = [(s[3] - s[2]) * 1e3 for s in by_name.get("prior.step", ())]
    bench_wall = total("cli.benchmark")
    return {
        "cli.simulate_s": own.get("cli.simulate", 0.0),
        "cli.reconstruct_s": own.get("cli.reconstruct", 0.0),
        "cli.benchmark_s": own.get("cli.benchmark", 0.0),
        "cli.pool_busy": total("cli.cell") / (workers * bench_wall) if bench_wall else 0.0,
        "patterns.build_s": own.get("patterns.build", 0.0),
        "patterns.build_calls": len(builds),
        "patterns.build_useful_ratio": len(distinct) / len(builds) if builds else 0.0,
        "patterns.mask_mb": mask_bytes / 1e6,
        "patterns.save_s": own.get("patterns.save", 0.0),
        "patterns.load_s": own.get("patterns.load", 0.0),
        "patterns.fingerprint_s": own.get("patterns.fingerprint", 0.0),
        "patterns.fwht_s": own.get("patterns.fwht", 0.0),
        "patterns.fwht_calls": count("patterns.fwht"),
        "patterns.fwht_melems": sum(s[5] for s in by_name.get("patterns.fwht", ()) if s[5]) / 1e6,
        "measurement.measure_s": own.get("measurement.measure", 0.0),
        "measurement.csv_write_s": own.get("measurement.csv_write", 0.0),
        "measurement.csv_read_s": own.get("measurement.csv_read", 0.0),
        "propagation.propagate_s": own.get("propagation.propagate", 0.0),
        "propagation.adjoint_s": own.get("propagation.adjoint", 0.0),
        "propagation.calls": count("propagation.propagate") + count("propagation.adjoint"),
        "classical.hspi_s": own.get("classical.hspi", 0.0),
        "classical.dgi_s": own.get("classical.dgi", 0.0),
        "classical.cstv_s": own.get("classical.cstv", 0.0),
        "classical.cstv_iters": sum(s[5] for s in by_name.get("classical.cstv", ()) if s[5]),
        "tvreg.prox_s": own.get("tvreg.prox", 0.0),
        "tvreg.prox_calls": count("tvreg.prox"),
        "network.forward_s": own.get("network.forward", 0.0),
        "network.backward_s": own.get("network.backward", 0.0),
        "network.forward_calls": count("network.forward"),
        "prior.step_ms_p50": statistics.median(steps) if steps else 0.0,
        "prior.steps": len(steps),
        "prior.adam_s": own.get("prior.adam", 0.0),
        "metrics.ssim_s": own.get("metrics.ssim", 0.0),
        "metrics.ssim_calls": count("metrics.ssim"),
        "pgm.write_s": own.get("pgm.write", 0.0),
        "pgm.read_s": own.get("pgm.read", 0.0),
    }

"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces each traced public function with a wrapper in
every vortexcorr module that binds it (a `from ... import` binding is a
separate name, so each one is rebound), and wraps the traced methods on
their classes. The traced call graph is therefore the untraced one. Spans
stay in memory until the job ends.
"""

import functools
import inspect
import os
import sys
import threading
import time

import numpy as np


def _points(*names):
    """Counter: number of points the broadcast arguments describe."""
    def count(args, result):
        return int(np.broadcast(*(args[n] for n in names)).size)
    return count


def _file_bytes(args, result):
    return os.path.getsize(args["path"])


class _Distinct:
    """Counter: 1 for a result object no earlier call returned, else 0.

    A cached correlator call returns the object an earlier call computed,
    so distinct results count the computations (cache misses). Results are
    kept so that their ids are never reused.
    """

    def __init__(self):
        self.seen = {}

    def __call__(self, args, result):
        new = id(result) not in self.seen
        self.seen[id(result)] = result
        return int(new)


# Traced callables, named "module.function" or "module.Class.method",
# each with its counters. A counter maps the bound arguments and the
# result to a number summed over calls (names ending in `max_dim` keep the
# maximum); a counter given as a class is instantiated once per tracer.
TARGETS = {
    "states.build_state": {},
    "fock.QuantumState.correlators": {"computed": _Distinct},
    "fock.change_basis": {
        "max_dim": lambda args, result: result.matrix.shape[0]},
    "fock.pair_isotropy_defect": {},
    "modes.mode_eval": {"points": _points("x", "y")},
    "density.rho1": {"points": _points("x", "y")},
    "density.rho2": {"points": _points("x1", "y1", "x2", "y2")},
    "density.density_grid": {},
    "pairstats.distance_distribution": {},
    "pairstats.angle_distribution": {},
    "pairstats.two_angle_distribution": {},
    "pairstats.summarize": {},
    "sampler.generate_frames": {
        "proposals": lambda args, result: result.meta["proposals"],
        "frames": lambda args, result: result.count},
    "sampler.AngularLaw.__init__": {},
    "sampler.AngularLaw.__call__": {
        "evaluations": _points("theta", "vartheta")},
    "sampler.invert_radial_cdf": {},
    "sampler.counter_uniforms": {
        "draws": lambda args, result: int(np.size(args["frame_indices"]))},
    "sampler.save_frames": {"bytes": _file_bytes},
    "sampler.load_frames": {},
    "sampler.chi_square_gof": {},
    "sampler.empirical_pair_stats": {},
    "oracle.full_report": {},
    "oracle.pair_grid_sweep": {},
    "oracle.reference_rho2": {"points": _points("x1", "y1", "x2", "y2")},
    "oracle.oracle_folded_angle_law": {},
    "oracle.oracle_two_angle_law": {},
    "io.write_csv": {"bytes": _file_bytes},
    "io.write_json": {},
    "svgplot.svg_chart": {},
    "svgplot.svg_heatmap": {},
    "cli.main": {},
}


def add_count(counts, name, value):
    """Fold one counter value into `counts`: names ending in `max_dim` keep
    the maximum, all others the sum."""
    if name.endswith("max_dim"):
        counts[name] = max(counts.get(name, 0), value)
    else:
        counts[name] = counts.get(name, 0) + value


class Tracer:
    """Nested spans per thread plus named counters.

    A span opened on a worker thread with no open span of its own takes
    the main thread's innermost open span as parent, which is the call
    that started the worker.
    """

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, thread]
        self.counts = {}
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = [len(self.spans), name, time.perf_counter(), None,
                    None if parent is None else parent[0],
                    threading.get_ident()]
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack().pop()

    def _record(self, name, counters, signature, args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        for key, counter in counters.items():
            value = counter(bound, result)
            with self._lock:
                add_count(self.counts, f"{name}.{key}", value)

    def wrap(self, fn, name, counters):
        signature = inspect.signature(fn)
        counters = {key: counter() if isinstance(counter, type) else counter
                    for key, counter in counters.items()}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counters:
                    self._record(name, counters, signature, args, kwargs,
                                 result)
                return result
            finally:
                self._close(span)
        return traced

    def install(self):
        """Wrap every traced callable of the loaded vortexcorr package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "vortexcorr" or key.startswith("vortexcorr.")]
        for name, counters in TARGETS.items():
            owner = sys.modules["vortexcorr." + name.split(".")[0]]
            if name.count(".") == 2:      # a method, wrapped on its class
                owner = getattr(owner, name.split(".")[1])
            attr = name.rsplit(".", 1)[1]
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, counters)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once).

    `spans` are [id, name, start, end, parent, ...] records with ids
    0..n-1; returns a list indexed by span id.
    """
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    result = []
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[0], ()), key=lambda c: c[2]):
            lo, hi = max(child[2], cursor), min(child[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result

"""Per-layer tracing of qarrival from outside the package.

`Tracer.installed()` replaces every public function of the five qarrival
modules with a timing wrapper, in every namespace that holds it by name: the
defining module, each module that did `from .x import f`, and the package
itself. Missing one of those bindings would silently drop the calls made
through it. Leaving the context restores the originals.

Each call is a span. A span's self time is its duration minus the durations
of the spans it caused. Spans of one pass through a workload are kept in
memory in order, with their parent, and aggregated per span name. Work counts
are computed from call arguments only, so they repeat exactly between passes.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("numerics", "states", "operators", "measurement", "cli")

# Span names that group several functions into one layer.
ALIASES = {
    "numerics.momentum_to_position": "numerics.fourier",
    "numerics.position_to_momentum": "numerics.fourier",
}

# Regime split of the NEW-eigenstate sample counts (series below, Hankel at and
# above). Fixed here rather than read from qarrival.numerics so that a change
# to the program cannot redefine the counter it is measured by.
BESSEL_SWITCHOVER = 10.0


def _fourier_points(a: dict) -> dict:
    # both directions are a dense sum over every (momentum, position) pair
    return {"points": int(np.size(a["p"])) * int(np.size(a["x"]))}


def _eigenstate_samples(a: dict) -> dict:
    p = np.asarray(a["p"], dtype=float)
    counts = {"samples": int(p.size), "samples_z_lt10": 0, "samples_z_ge10": 0}
    if a["family"].value == "new":
        consts = a["consts"]
        z = p * p * float(a["tau"]) / (2.0 * consts.mass * consts.hbar)
        high = int(np.count_nonzero(z >= BESSEL_SWITCHOVER))
        counts["samples_z_ge10"] = high
        counts["samples_z_lt10"] = int(p.size) - high
    return counts


def _kernel_points(a: dict) -> dict:
    return {"kernel_points": int(a["psi"].grid.size) ** 2}


def _written_bytes(a: dict) -> dict:
    # The benchmark captures CLI output in a text buffer; the count is what
    # the call appended to it (outputs are ASCII, so characters are bytes).
    out = sys.stdout
    start = out.tell()
    return {"bytes": lambda: out.tell() - start}


# span -> (counter, the count names it returns)
COUNTERS = {
    "numerics.fourier": (_fourier_points, ("points",)),
    "operators.eigenstate_values": (_eigenstate_samples, ("samples", "samples_z_lt10", "samples_z_ge10")),
    "measurement.halfline_propagate": (_kernel_points, ("kernel_points",)),
    "cli.write_table": (_written_bytes, ("bytes",)),
}


class Tracer:
    """Span recorder over the public functions of qarrival's modules."""

    def __init__(self, package) -> None:
        self._package = package
        self._modules = [getattr(package, name) for name in MODULES]
        self._wrappers: dict[int, tuple] = {}
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                span = ALIASES.get(f"{short}.{name}", f"{short}.{name}")
                self._wrappers[id(fn)] = (fn, self._wrap(span, short, fn))
        self._stack: list[list] = []
        self.start_pass(record_spans=False)

    def start_pass(self, record_spans: bool) -> None:
        """Clear the per-pass aggregates; keep every span of the pass if asked."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] | None = [] if record_spans else None

    @contextlib.contextmanager
    def installed(self):
        replaced = []
        namespaces = [self._package, *self._modules]
        try:
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(ns, name, entry[1])
                        replaced.append((ns, name, value))
            yield self
        finally:
            for ns, name, value in replaced:
                setattr(ns, name, value)

    def _wrap(self, span: str, module: str, fn):
        counter = COUNTERS.get(span, (None,))[0]
        signature = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            pending = None
            if counter is not None:
                pending = counter(signature.bind(*args, **kwargs).arguments)
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            index = -1
            if tracer.spans is not None:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, at the innermost span it left
                if not getattr(exc, "_bench_counted", False):
                    tracer.errors[module] += 1
                    exc._bench_counted = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[1]
                tracer.total_s[span] += duration
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    tracer.spans[index] = (span, parent, frame[0], end)
                if pending is not None:
                    for key, value in pending.items():
                        tracer.counts[f"{span}.{key}"] += value() if callable(value) else value

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def pass_record(self) -> dict:
        """Aggregates of the current pass, keyed by span name."""
        layers = {
            span: {"calls": self.calls[span], "self_s": self.self_s[span], "total_s": self.total_s[span]}
            for span in sorted(self.calls)
        }
        modules = {m: sum(v["self_s"] for s, v in layers.items() if s.startswith(m + ".")) for m in MODULES}
        return {
            "layers": layers,
            "module_self_s": modules,
            "counts": dict(sorted(self.counts.items())),
            "errors": {m: self.errors[m] for m in MODULES},
        }

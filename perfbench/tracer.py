"""Per-layer tracing from outside the package: wrap public functions in place.

Every public function of the traced modules, and every public method of
their classes, is replaced by a wrapper that counts its calls.  Functions
named in ``spans`` also record a span, whose self time is its duration
minus the spans it covers; time in any other function goes to the nearest
enclosing span.  Names bound by ``from .x import f`` in other beamsight
modules are rebound too, so calls between modules are seen.  Nothing
under ``src/`` is edited.

Counts and times are kept in memory per phase (``setup`` or ``timed``).
When no phase is active the wrappers only call through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("experiment", "scene", "phy", "pipeline", "embedding", "predictor",
          "metrics", "handoff")


def tree_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Counters that are not call counts: (args, kwargs, result) -> amount.
# Indices count ``self`` for methods.
COUNTERS = {
    "pipeline.write_dataset": (
        "pipeline.dataset_bytes", lambda a, k, r: tree_bytes(_arg(a, k, 0, "out_dir"))),
    "pipeline.read_split": ("pipeline.records_read", lambda a, k, r: len(r.samples)),
    "pipeline.read_pairs": ("pipeline.records_read", lambda a, k, r: len(r)),
    "embedding.encode_dataset": (
        "embedding.encode_dataset.samples", lambda a, k, r: len(_arg(a, k, 0, "samples"))),
    "predictor.loss_and_grads": (
        "predictor.samples_trained",
        lambda a, k, r: len(_arg(a, k, 1, "x")) if _arg(a, k, 3, "train", False) else 0),
    "handoff.evaluate_handoff": (
        "handoff.pairs_scored", lambda a, k, r: len(_arg(a, k, 2, "pairs"))),
}


def _span_name(name, args, kwargs):
    """Training and validation calls of loss_and_grads are separate layers."""
    if name == "predictor.loss_and_grads":
        train = bool(_arg(args, kwargs, 3, "train", False))
        return name + (".train" if train else ".eval")
    return name


class Tracer:
    def __init__(self, spans: set[str]):
        self.spans = spans
        self.phase: str | None = None
        self.stats = {}                      # phase -> name -> [calls, self_s]
        self.counts = {}                     # phase -> counter -> amount
        self._stack: list[list[float]] = []  # [start, covered_s] per open span

    def begin(self, phase: str | None) -> None:
        self.phase = phase
        if phase is not None:
            self.stats.setdefault(phase, defaultdict(lambda: [0, 0.0]))
            self.counts.setdefault(phase, defaultdict(float))

    def take(self, phase: str) -> tuple[dict, dict]:
        """Return and clear what was recorded in ``phase``."""
        stats = dict(self.stats.pop(phase, {}))
        counts = dict(self.counts.pop(phase, {}))
        return stats, counts

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            span = _span_name(name, args, kwargs)
            entry = tracer.stats[phase][span]
            entry[0] += 1
            if span not in tracer.spans:
                result = fn(*args, **kwargs)
            else:
                frame = [time.perf_counter(), 0.0]
                tracer._stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - frame[0]
                    tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1][1] += duration
                    entry[1] += duration - frame[1]
            if counter is not None:
                tracer.counts[phase][counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        modules = {layer: importlib.import_module(f"beamsight.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("beamsight")
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replaced[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth, self._wrap(f"{layer}.{meth}", fn))
        # rebind the defining module's name and every ``from .x import f``
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

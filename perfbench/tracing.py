"""Span tracing from outside the program.

A :class:`Tracer` replaces the public functions of each library module
(and a few public methods) with wrappers that record one span per call:
name, start, end, parent span and run id. Every module attribute that
holds the same function object is replaced too, so calls through a name
another module imported (``from .ngram import build_models``) are caught
as well as calls inside the defining module. Names that do not exist
are skipped, so the tracer keeps working while the library is
refactored; a metric that needs a skipped function is unmeasured (see
:meth:`Tracer.unmeasured`), never zero.

Spans stay in memory until :meth:`Tracer.write` stores them; self time
(a span's duration minus its child spans) and per-layer busy time are
derived from the stored spans afterwards. Counters are bumped by hooks
at the same boundaries.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import inspect
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("corpus", "ngram", "scorers", "heli", "adaptation", "evaluation")

# Public methods worth a span. Accessors such as NgramModel.penalty run
# once per gram and would cost more to trace than they take.
METHODS = {
    "ngram": {"NgramModel": ("add_grams", "refresh"), "ModelSet": ("doc_grams", "with_pm")},
    "heli": {"HeliModelSet": ("with_pm",)},
}

# Functions whose last call is replayed under tracemalloc after the run.
MEMORY_PROBES = (
    "ngram.build_models",
    "heli.heli_build",
    "ngram.load_models",
    "heli.load_heli_models",
)

ADAPT = "adaptation.adaptive_identify"

# Metrics the counter hooks below make, and the traced functions each
# needs. Any other ``<layer>.<function>.<stat>`` metric needs its function.
COUNTER_SOURCES = {
    "scorers.gram_lookups": ("scorers.score_with", "scorers.score_language"),
    "ngram.refresh.counts_summed": ("ngram.refresh",),
    "ngram.extract_ngrams.grams": ("ngram.extract_ngrams",),
    "adaptation.rescore_all.calls": (ADAPT, "scorers.score_with", "heli.heli_score_doc"),
    "adaptation.rescore_one.calls": (ADAPT, "scorers.score_language"),
    "adaptation.absorb.calls": (ADAPT, "ngram.add_grams", "heli.heli_add_document"),
    "adaptation.useful_rescore_ratio": (ADAPT, "scorers.to_prediction"),
    "evaluation.sweep.model_builds": ("evaluation.sweep", "ngram.build_models", "heli.heli_build"),
    "evaluation.sweep.cells": ("evaluation.sweep",),
}
SPAN_STATS = ("calls", "s", "self_s", "peak_mb")


class Tracer:
    """Records spans and counters while installed (use as a context manager)."""

    def __init__(self) -> None:
        # (name, layer, start, end, parent index, run id, outermost of its layer)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._layer_depth: Counter = Counter()
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._replay: dict[str, tuple] = {}
        self._adapt_best: dict[int, str] = {}

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"ngramlid.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        self._set(cls, meth, self._wrap(fn, f"{layer}.{meth}", layer))
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ngramlid"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._set(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, layer: str):
        self._originals[name] = fn
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer = self._layer_depth[layer] == 0
        self._stack.append(index)
        self._layer_depth[layer] += 1
        self._active[name] += 1
        self.spans.append((name, layer, perf_counter(), 0.0, parent, self.run_id, outer))
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        name, layer, start, _, parent, run_id, outer = self.spans[index]
        self.spans[index] = (name, layer, start, end, parent, run_id, outer)
        self._stack.pop()
        self._layer_depth[layer] -= 1
        self._active[name] -= 1
        self.counters[f"{name}.calls"] += 1

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def unmeasured(self, metric: str) -> list[str]:
        """The traced functions ``metric`` needs that were not found to wrap."""
        sources = COUNTER_SOURCES.get(metric)
        if sources is None:
            name, _, stat = metric.rpartition(".")
            per_function = name.count(".") == 1 and name.split(".")[0] in LAYERS
            sources = (name,) if per_function and stat in SPAN_STATS else ()
        return [name for name in sources if name not in self._originals]

    # -- results ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls, busy and self seconds per layer, time per span name,
        every counter, and the share of repeat scorings during adaptation
        that changed a document's label."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, layer, start, end, _, _, outer) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur - child[i]
            if outer:
                out[f"{layer}.busy_s"] += dur
        out.update(self.counters)
        rescored = out["adaptation.rescored"]
        out["adaptation.useful_rescore_ratio"] = (
            out["adaptation.rescore_changed"] / rescored if rescored else 0.0
        )
        return dict(out)

    def replay_peaks(self) -> dict[str, float]:
        """Peak traced allocation (MB) of each memory probe's last call."""
        peaks = {}
        for name in MEMORY_PROBES:
            peaks[f"{name}.peak_mb"] = 0.0
            if name not in self._replay:
                continue
            args, kwargs = self._replay[name]
            gc.collect()
            tracemalloc.start()
            try:
                result = self._originals[name](*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del result
            peaks[f"{name}.peak_mb"] = peak / 2**20
        return peaks

    def write(self, path: Path) -> None:
        """Store every span as gzipped TSV: name, start, end, parent, run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun\n")
            for i, (name, _, start, end, parent, run_id, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{run_id}\n")


# -- counter hooks ---------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    """A call argument, whether it was passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _remember_args(name):
    def pre(tracer: Tracer, args, kwargs) -> None:
        tracer._replay[name] = (args, kwargs)

    return pre


def _adapt_start(tracer: Tracer, args, kwargs) -> None:
    tracer._adapt_best = {}


def _prediction_made(tracer: Tracer, args, kwargs, result) -> None:
    # adaptation calls to_prediction once per (re)scoring of a document
    if not tracer.active(ADAPT):
        return
    doc_id = _arg(args, kwargs, 0, "doc_id")
    seen = tracer._adapt_best
    if doc_id in seen:
        tracer.counters["adaptation.rescored"] += 1
        if seen[doc_id] != result.best:
            tracer.counters["adaptation.rescore_changed"] += 1
    seen[doc_id] = result.best


def _full_score(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["scorers.gram_lookups"] += len(_arg(args, kwargs, 1, "grams")) * len(result)
    if tracer.active(ADAPT):
        tracer.counters["adaptation.rescore_all.calls"] += 1


def _single_score(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["scorers.gram_lookups"] += len(_arg(args, kwargs, 1, "grams"))
    if tracer.active(ADAPT):
        tracer.counters["adaptation.rescore_one.calls"] += 1


def _heli_full_score(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.active(ADAPT):
        tracer.counters["adaptation.rescore_all.calls"] += 1


def _grams_added(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.active(ADAPT) and not tracer.active("heli.heli_add_document"):
        tracer.counters["adaptation.absorb.calls"] += 1


def _heli_doc_added(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.active(ADAPT):
        tracer.counters["adaptation.absorb.calls"] += 1


def _refreshed(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["ngram.refresh.counts_summed"] += sum(len(d) for d in args[0].counts.values())


def _extracted(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["ngram.extract_ngrams.grams"] += sum(result.values())


def _model_built(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.active("evaluation.sweep"):
        tracer.counters["evaluation.sweep.model_builds"] += 1


def _swept(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["evaluation.sweep.cells"] += len(result.rows)


_PRE_HOOKS = {name: _remember_args(name) for name in MEMORY_PROBES}
_PRE_HOOKS[ADAPT] = _adapt_start

_POST_HOOKS = {
    "scorers.to_prediction": _prediction_made,
    "scorers.score_with": _full_score,
    "scorers.score_language": _single_score,
    "heli.heli_score_doc": _heli_full_score,
    "ngram.add_grams": _grams_added,
    "heli.heli_add_document": _heli_doc_added,
    "ngram.refresh": _refreshed,
    "ngram.extract_ngrams": _extracted,
    "ngram.build_models": _model_built,
    "heli.heli_build": _model_built,
    "evaluation.sweep": _swept,
}

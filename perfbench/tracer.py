"""Span tracer that wraps named functions of the mvge package from outside.

A span is (name, start, end, parent). Spans are kept in memory and
written out when the traced pass ends. The wrappers are installed by
replacing module or class attributes and are always removed again by
``Tracer.restore``, so a process that is traced and then untraced runs
the original functions. A name that does not exist (a later commit may
rename a private function) is recorded as absent instead of raising.

With ``track_memory=True`` every span also records the peak of the
bytes ``tracemalloc`` sees above the level at span entry. That pass is
run separately from the timing pass, because tracemalloc slows every
allocation and would distort the times.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# span name -> the attributes it wraps, as "module:Class.attr" or "module:attr".
# A span that wraps several names (spmm and its backward, the two places
# build_views is bound) records all of them under one name.
MVGE_LAYERS: dict[str, tuple[str, ...]] = {
    "synth.generate_synthetic": ("mvge.synth:generate_synthetic",),
    "data.save_dataset": ("mvge.data:save_dataset",),
    "data.load_dataset": ("mvge.data:load_dataset",),
    "data.save_embeddings": ("mvge.data:save_embeddings",),
    "data.load_embeddings": ("mvge.data:load_embeddings",),
    "walks.build_views": ("mvge.walks:build_views", "mvge.model:build_views"),
    "graph.validate": ("mvge.graph:Graph.validate",),
    "graph.normalized_adjacency": ("mvge.model:normalized_adjacency",),
    "model.train": ("mvge.model:train",),
    "model.train_step": ("mvge.model:_train_step",),
    "model.encode_ego": ("mvge.model:MVGEModel.encode_ego",),
    "model.encode_agg": ("mvge.model:MVGEModel.encode_agg",),
    "model.backward_ego": ("mvge.model:MVGEModel._backward_ego",),
    "model.backward_agg": ("mvge.model:MVGEModel._backward_agg",),
    "numerics.spmm": ("mvge.model:spmm", "mvge.model:spmm_backward"),
    "model.kl_decoders": ("mvge.model:_kl_terms",),
    "model.adjacency_loss": ("mvge.model:_adjacency_terms",),
    "numerics.adam_step": ("mvge.numerics:Adam.step",),
    "evaluate.logreg_fit": ("mvge.evaluate:LogRegModel.fit",),
    "evaluate.link_split": ("mvge.evaluate:link_split",),
    "evaluate.sample_non_edges": ("mvge.evaluate:_sample_non_edges",),
    "evaluate.sample_label_pairs": ("mvge.evaluate:_sample_label_pairs",),
    "evaluate.roc_auc": ("mvge.evaluate:roc_auc",),
}

# Adam serves both the model and the logistic probe, so its span is named
# .probe when a probe fit is on the stack and .train otherwise.
SPLIT_SPAN = "numerics.adam_step"
PROBE_SPAN = "evaluate.logreg_fit"

# Pair-acceptance counters, taken from the candidate arrays passed to
# Graph.has_edge_mask under each parent span: kept pairs / drawn pairs.
EDGE_MASK_TARGET = "mvge.graph:Graph.has_edge_mask"
ACCEPT_RATIOS = {
    "model.adjacency_loss": "model.adjacency_loss.neg_accept_ratio",
    "evaluate.sample_non_edges": "evaluate.sample_non_edges.accept_ratio",
}

_MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    peak_bytes: int = 0


@dataclass
class _Open:
    index: int
    base_bytes: int = 0
    peak_bytes: int = 0


@dataclass
class Tracer:
    """Records nested spans; single-threaded, like the code it wraps."""

    track_memory: bool = False
    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    pairs: dict[str, list[int]] = field(default_factory=dict)  # parent -> [kept, drawn]
    _stack: list[_Open] = field(default_factory=list)
    _patches: list[tuple[object, str, object, bool]] = field(default_factory=list)

    # -- spans --------------------------------------------------------------

    def current(self) -> str | None:
        return self.spans[self._stack[-1].index].name if self._stack else None

    def on_stack(self, name: str) -> bool:
        return any(self.spans[o.index].name == name for o in self._stack)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].index if self._stack else -1
        opened = _Open(len(self.spans))
        if self.track_memory:
            if self._stack:
                outer = self._stack[-1]
                outer.peak_bytes = max(outer.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            opened.base_bytes = opened.peak_bytes = tracemalloc.get_traced_memory()[0]
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(opened)
        try:
            yield
        finally:
            span = self.spans[opened.index]
            span.end = time.perf_counter()
            self._stack.pop()
            if self.track_memory:
                peak = max(opened.peak_bytes, tracemalloc.get_traced_memory()[1])
                span.peak_bytes = peak - opened.base_bytes
                if self._stack:
                    outer = self._stack[-1]
                    outer.peak_bytes = max(outer.peak_bytes, peak)
                tracemalloc.reset_peak()

    # -- wrapping -----------------------------------------------------------

    def install(self, layers: dict[str, tuple[str, ...]] = MVGE_LAYERS) -> None:
        for name, targets in layers.items():
            for target in targets:
                self._wrap(target, self._span_wrapper(name))
        self._wrap(EDGE_MASK_TARGET, self._edge_mask_wrapper)

    def restore(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, target: str, make_wrapper) -> None:
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        own = attr in vars(owner)
        saved = vars(owner)[attr] if own else None
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved, own))

    def _span_wrapper(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                label = name
                if name == SPLIT_SPAN:
                    label += ".probe" if self.on_stack(PROBE_SPAN) else ".train"
                with self.span(label):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def _edge_mask_wrapper(self, original):
        def wrapper(graph, u, v):
            mask = original(graph, u, v)
            parent = self.current()
            if parent is not None:
                counts = self.pairs.setdefault(parent, [0, 0])
                counts[0] += int((~mask & (u != v)).sum())
                counts[1] += int(mask.size)
            return mask
        return wrapper

    # -- summaries ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and (memory pass) peak_alloc_mb.

        Self time is a span's duration minus the time its direct children cover.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s, inner in zip(self.spans, child_time):
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "peak_alloc_mb": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - inner
            row["peak_alloc_mb"] = max(row["peak_alloc_mb"], s.peak_bytes / _MB)
        return out

    def accept_ratios(self) -> dict[str, dict[str, int | float | None]]:
        out = {}
        for parent, metric in ACCEPT_RATIOS.items():
            kept, drawn = self.pairs.get(parent, (0, 0))
            out[metric] = {"kept": kept, "drawn": drawn,
                           "ratio": kept / drawn if drawn else None}
        return out

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]

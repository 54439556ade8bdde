"""Span tracing of the mccws package from outside it.

``Tracer.install()`` replaces every public function and public method of the
package's modules with a wrapper that records a span (name, start, end,
parent). Each function is rebound wherever a caller looks it up: ``trainer``
imports ``backward`` by name, so ``mccws.trainer.backward`` is wrapped as
well as ``mccws.autodiff.backward``; methods are wrapped on their class, so
``loss_batch -> forward_batch -> encode_batch`` nest as parent and child.
Spans stay in memory until ``dump`` writes them out. The tracer also counts
autodiff node creations (``autodiff._node``) and garbage-collector pauses.
"""

import gc
import importlib
import inspect
import json
import statistics
import sys
import time

MODULES = ("corpus", "model", "autodiff", "optim", "trainer", "metrics",
           "checkpoint", "cli")

# Wrapping these would cost more than they do: Tensor ops and per-token
# vocabulary lookups run hundreds of times per sentence. ``no_grad`` is a
# context manager, so a span around the call would not cover its body.
SKIP_CLASSES = {"Tensor"}
SKIP_NAMES = {"uni_id", "bigram_id", "criterion_token_id", "get_dtype",
              "default_ln_eps", "no_grad"}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.nodes = 0         # autodiff graph nodes created so far
        self.forward_nodes = []  # nodes created inside each forward_batch call
        self.positions = [0, 0]  # [padded, all] over pack_batch outputs
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_start = None
        self._undo = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"mccws.{name}") for name in MODULES]
        namespaces = [m for name, m in sys.modules.items()
                      if name == "mccws" or name.startswith("mccws.")]
        for mod in mods:
            short = mod.__name__.split(".")[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in SKIP_NAMES:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self.wrap(f"{short}.{attr}", obj)
                    for ns in namespaces:
                        for alias, bound in list(vars(ns).items()):
                            if bound is obj:
                                self._set(ns, alias, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if attr not in SKIP_CLASSES:
                        self._wrap_class(short, obj)
                elif hasattr(obj, "callback") and callable(getattr(obj, "callback", None)):
                    # click commands: the callback is the command body
                    self._set(obj, "callback", self.wrap(f"{short}.{obj.name}", obj.callback))
        autodiff = sys.modules["mccws.autodiff"]
        self._set(autodiff, "_node", self._count_nodes(autodiff._node))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for target, attr, old in reversed(self._undo):
            setattr(target, attr, old)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or attr in SKIP_NAMES:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(f"{short}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(f"{short}.{attr}", raw)
            else:
                continue
            self._set(cls, attr, wrapped)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        counts_nodes = name == "model.forward_batch"
        counts_padding = name == "model.pack_batch"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            nodes_before = self.nodes
            try:
                result = fn(*args, **kwargs)
                if counts_padding:
                    ids, lengths = result[0], result[2]
                    total = ids.shape[0] * (ids.shape[1] - 1)
                    self.positions[0] += total - int(lengths.sum())
                    self.positions[1] += total
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if counts_nodes:
                    self.forward_nodes.append(self.nodes - nodes_before)

        traced.__wrapped__ = fn
        return traced

    def _count_nodes(self, node_fn):
        def counted(*args):
            self.nodes += 1
            return node_fn(*args)
        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1
            self._gc_start = None

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "forward_nodes": self.forward_nodes,
                       "positions": self.positions,
                       "gc_pause_s": self.gc_pause_s,
                       "gc_collections": self.gc_collections}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover (spans of
    one thread nest, so children never overlap each other)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# metric -> span; the mean duration per call, child spans included
INCLUSIVE = {
    "autodiff.backward_ms": "autodiff.backward",
    "optim.step_ms": "optim.step",
    "model.segment_text_ms": "model.segment_text",
    "checkpoint.load_ms": "checkpoint.load_checkpoint",
    "checkpoint.save_ms": "checkpoint.save_checkpoint",
    "corpus.decode_bmes_ms": "corpus.decode_bmes",
    "metrics.evaluate_criterion_ms": "metrics.evaluate_criterion",
}
# metric -> span; the mean self time per call
SELF = {f"model.{fn}_ms": f"model.{fn}" for fn in (
    "pack_batch", "loss_batch", "forward_batch", "encode_batch", "fuse_batch",
    "contextualize_batch", "decode_labels", "classify_criterion")}
# Spans that turn text into model input; corpus.prepare_ms is their self
# time per sentence prepared (by prepare_sentence or inside segment_text).
PREPARE = {f"corpus.{fn}" for fn in (
    "load_corpus", "split_long", "prepare_sentence", "word_tokens", "normalize_width",
    "replace_runs", "replace_runs_with_spans", "make_bigrams")}

PER_LAYER = {  # name -> unit, in the order BENCHMARK.json lists them
    **{name: "ms" for name in INCLUSIVE}, **{name: "ms" for name in SELF},
    "corpus.prepare_ms": "ms",
    "trainer.step_ms.p50": "ms", "trainer.step_ms.p90": "ms",
    "gc.pause_ms_per_step": "ms",
    "gc.collections.gen0": "count", "gc.collections.gen1": "count",
    "gc.collections.gen2": "count",
    "autodiff.nodes_per_forward": "count",
    "model.pad_frac": "fraction",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_pct": "%",
}


def layer_metrics(doc: dict, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from one traced process's dump."""
    spans = doc["spans"]
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def durations(name):
        return [(spans[i][2] - spans[i][1]) * 1e3 for i in by_name.get(name, [])]

    out = {}
    for metric, name in INCLUSIVE.items():
        out[metric] = mean(durations(name))
    for metric, name in SELF.items():
        out[metric] = mean([selfs[i] * 1e3 for i in by_name.get(name, [])])
    sentences = len(by_name.get("corpus.prepare_sentence", [])) + len(by_name.get("model.segment_text", []))
    prepare_ms = sum(selfs[i] for name in PREPARE for i in by_name.get(name, [])) * 1e3
    out["corpus.prepare_ms"] = prepare_ms / sentences if sentences else 0.0

    # time between optimizer steps, within one trainer.train call
    steps = by_name.get("optim.step", [])
    gaps = [(spans[b][2] - spans[a][2]) * 1e3 for a, b in zip(steps, steps[1:])
            if spans[a][3] == spans[b][3]]
    out["trainer.step_ms.p50"] = percentile(gaps, 50)
    out["trainer.step_ms.p90"] = percentile(gaps, 90)
    per = len(steps) or len(by_name.get("model.forward_batch", []))
    out["gc.pause_ms_per_step"] = doc["gc_pause_s"] * 1e3 / per if per else 0.0
    for gen, count in enumerate(doc["gc_collections"]):
        out[f"gc.collections.gen{gen}"] = count
    out["autodiff.nodes_per_forward"] = mean(doc["forward_nodes"])
    padded, total = doc["positions"]
    out["model.pad_frac"] = padded / total if total else 0.0

    for module in MODULES:
        out[f"{module}.self_s"] = sum(selfs[i] for i, span in enumerate(spans)
                                      if span[0].startswith(module + "."))
    out["trace.overhead_pct"] = overhead_pct
    return out

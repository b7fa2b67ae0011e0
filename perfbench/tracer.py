"""Per-layer tracing from outside the program.

Tracer.install() wraps the public entry points of cfc.graph, cfc.gcn,
cfc.denoise, cfc.coarse, cfc.gateway, cfc.labelspace and cfc.metrics that
the pipeline calls. A module that did `from .gcn import train` (as
cfc.pipeline does) holds its own reference, so every cfc module's namespace
is searched and each reference to an original function is replaced by its
wrapper; LLMGateway.complete is patched on the class. cfc.pipeline's stage
times come from manifest.json, read by the benchmark. Spans (layer, start,
end, parent, thread) stay in memory until write() at the end of the run;
per_layer() folds them into the per-layer metrics. A layer's time is the sum of its outermost spans, so a
function of one layer calling another of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

import numpy as np

# (module, function, layer). Only the functions the per-layer metrics need
# are wrapped: wrapping per-pair helpers such as labelspace.cosine would add
# call overhead to the very loops being measured.
TARGETS = (
    ("cfc.graph", "load_graph", "graph.load"),
    ("cfc.graph", "sym_normalize_adjacency", "graph.sym_normalize"),
    ("cfc.graph", "rw_normalize_adjacency", "graph.rw_normalize"),
    ("cfc.graph", "spmm", "graph.spmm"),
    ("cfc.gcn", "train", "gcn.train"),
    ("cfc.gcn", "predict", "gcn.predict"),
    ("cfc.gcn", "hidden_states", "gcn.predict"),
    ("cfc.denoise", "label_propagate", "denoise.propagate"),
    ("cfc.denoise", "denoise_ood", "denoise.denoise"),
    ("cfc.denoise", "mixup_augment", "denoise.mixup"),
    ("cfc.coarse", "coarse_detect", "coarse.detect"),
    ("cfc.labelspace", "merge_categories", "labelspace.merge"),
    ("cfc.labelspace", "classify_ood", "labelspace.classify"),
    ("cfc.metrics", "accuracy_report", "metrics"),
    ("cfc.metrics", "auroc", "metrics"),
    ("cfc.metrics", "threshold_baseline", "metrics"),
    ("cfc.metrics", "tune_threshold", "metrics"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent, thread]
        self.counts: dict[str, float] = {}
        self.prompts: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------ recording

    def _open(self, layer: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            self.spans.append([layer, time.perf_counter(), None, parent,
                               threading.get_ident()])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, layer: str, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------------ observers

    def _observe(self, name: str):
        def spmm(args, kwargs, out):
            self.count("graph.spmm_work", args[0].nnz * out.shape[1])

        def train(args, kwargs, result):
            self.count("gcn.train_calls")
            self.count("gcn.epochs", len(result[1]))

        def denoise(args, kwargs, survivors):
            self.count("denoise.candidates", len(set(args[1])))
            self.count("denoise.survivors", len(survivors))

        def coarse(args, kwargs, result):
            self.count("coarse.nodes_screened", len(result.annotations))
            # a reply that never parsed becomes ID, confidence 0, no category
            self.count("coarse.parse_fallbacks",
                       sum(1 for a in result.annotations if not a.category
                           and a.is_id and a.confidence == 0.0))

        def merge(args, kwargs, post):
            self.count("labelspace.raw_categories", len(args[0]))
            self.count("labelspace.merged_labels", len(post.merged_labels))

        def classify(args, kwargs, result):
            self.count("labelspace.nodes_classified", len(result))

        return {"spmm": spmm, "train": train, "denoise_ood": denoise,
                "coarse_detect": coarse, "merge_categories": merge,
                "classify_ood": classify}.get(name)

    def _complete_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def complete(gateway, prompt):
            idx = tracer._open("gateway.call")
            try:
                exchange = original(gateway, prompt)
            finally:
                tracer._close(idx)
            with tracer._lock:
                repeat = prompt in tracer.prompts
                tracer.prompts.add(prompt)
            tracer.count("gateway.repeat_prompts", int(repeat))
            tracer.count("gateway.attempts", exchange.attempt_count)
            return exchange
        return complete

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in
                   ("cfc.graph", "cfc.gcn", "cfc.denoise", "cfc.coarse",
                    "cfc.gateway", "cfc.labelspace", "cfc.metrics",
                    "cfc.pipeline")}
        replace = {}
        for mod_name, fn_name, layer in TARGETS:
            original = getattr(modules[mod_name], fn_name)
            replace[id(original)] = (original, self._wrap(
                original, layer, self._observe(fn_name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cfc" and not mod_name.startswith("cfc."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        gw = modules["cfc.gateway"].LLMGateway
        gw.complete = self._complete_wrapper(gw.complete)

    # ------------------------------------------------------------ reporting

    def layer_seconds(self, layer: str) -> float:
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name != layer or end is None:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def per_layer(self) -> dict[str, float]:
        """Layer metrics over every span recorded so far."""
        out = {
            "graph.load_s": self.layer_seconds("graph.load"),
            "graph.sym_normalize_s": self.layer_seconds("graph.sym_normalize"),
            "graph.rw_normalize_s": self.layer_seconds("graph.rw_normalize"),
            "graph.spmm_calls": sum(1 for s in self.spans if s[0] == "graph.spmm"),
            "graph.spmm_s": self.layer_seconds("graph.spmm"),
            "gcn.train_s": self.layer_seconds("gcn.train"),
            "gcn.predict_s": self.layer_seconds("gcn.predict"),
            "denoise.propagate_s": self.layer_seconds("denoise.propagate"),
            "denoise.mixup_s": self.layer_seconds("denoise.mixup"),
            "coarse.detect_s": self.layer_seconds("coarse.detect"),
            "labelspace.merge_s": self.layer_seconds("labelspace.merge"),
            "labelspace.classify_s": self.layer_seconds("labelspace.classify"),
            "metrics.s": self.layer_seconds("metrics"),
        }
        for name in ("graph.spmm_work", "gcn.train_calls", "gcn.epochs",
                     "denoise.candidates", "denoise.survivors",
                     "coarse.nodes_screened", "coarse.parse_fallbacks",
                     "gateway.attempts", "gateway.repeat_prompts",
                     "labelspace.raw_categories", "labelspace.merged_labels",
                     "labelspace.nodes_classified"):
            out[name] = self.counts.get(name, 0)
        epochs = out["gcn.epochs"]
        out["gcn.epoch_ms"] = 1000.0 * out["gcn.train_s"] / epochs if epochs else 0.0

        calls = sorted((s[1], s[2]) for s in self.spans
                       if s[0] == "gateway.call" and s[2] is not None)
        out["gateway.calls"] = len(calls)
        ms = np.array([1000.0 * (e - b) for b, e in calls])
        out["gateway.call_ms_p50"] = float(np.percentile(ms, 50)) if len(ms) else 0.0
        out["gateway.call_ms_p99"] = float(np.percentile(ms, 99)) if len(ms) else 0.0
        busy, cur_b, cur_e = 0.0, None, None
        for b, e in calls:                       # union of in-flight intervals
            if cur_e is None or b > cur_e:
                if cur_e is not None:
                    busy += cur_e - cur_b
                cur_b, cur_e = b, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            busy += cur_e - cur_b
        out["gateway.busy_s"] = busy
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread}) + "\n")

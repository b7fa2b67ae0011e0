"""Output checker: the program's artifacts against oracles computed here.

Every oracle comes from the generator's plan (oracle.json), the generated
dataset files, or a dense recomputation in numpy; none is a copy of an
earlier run's output. Each check returns a list of problems, empty when the
artifacts are right.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import struct

import numpy as np

# dense and sparse products sum in different orders; values are O(1)
SYNTH_TOL = 1e-9
REPORT_TOL = 1e-12


def _jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(path: str, magic: bytes, dims: int):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise ValueError(f"{path}: bad magic")
    shape = struct.unpack("<" + "I" * dims, blob[4:4 + 4 * dims])
    return shape, blob[4 + 4 * dims:]


def expected_merge(log: dict[str, int], sim: float):
    """The documented merge, computed densely: TF-IDF rows (raw counts,
    idf = ln((1+n)/(1+df)) + 1, L2-normalized), groups = connected
    components of cosine >= sim, label = most frequent member (ties
    alphabetical), groups below max(2, ceil(1% of the total)) discarded.
    Returns (raw -> label or DISCARDED, labels by descending count)."""
    names = sorted(log)
    docs = [[t for t in re.split(r"[^a-z0-9]+", n.lower()) if t] for n in names]
    vocab = {t: j for j, t in enumerate(sorted({t for d in docs for t in d}))}
    tf = np.zeros((len(names), len(vocab)))
    for i, d in enumerate(docs):
        for t in d:
            tf[i, vocab[t]] += 1.0
    df = (tf > 0).sum(axis=0)
    rows = tf * (np.log((1.0 + len(names)) / (1.0 + df)) + 1.0)
    norms = np.linalg.norm(rows, axis=1)
    rows[norms > 0] /= norms[norms > 0, None]
    linked = rows @ rows.T >= sim
    group = [-1] * len(names)
    for root in range(len(names)):
        if group[root] >= 0:
            continue
        group[root], todo = root, [root]
        while todo:
            for j in np.flatnonzero(linked[todo.pop()]):
                if group[j] < 0:
                    group[j] = root
                    todo.append(int(j))
    min_count = max(2, math.ceil(0.01 * sum(log.values())))
    members: dict[int, list[str]] = {}
    for i, g in enumerate(group):
        members.setdefault(g, []).append(names[i])
    raw_to, counts = {}, {}
    for ms in members.values():
        total = sum(log[m] for m in ms)
        label = min(ms, key=lambda m: (-log[m], m))
        for m in ms:
            raw_to[m] = label if total >= min_count else "DISCARDED"
        if total >= min_count:
            counts[label] = total
    return raw_to, sorted(counts, key=lambda lab: (-counts[lab], lab))


class Checker:
    """Holds the oracle and the dense model of one generated input set."""

    def __init__(self, work_dir: str):
        self.work = work_dir
        self.art = os.path.join(work_dir, "artifacts")
        self.oracle = _json(os.path.join(work_dir, "oracle.json"))
        self.labels = self.oracle["labels"]
        self.id_classes = self.oracle["id_classes"]
        self.ood_classes = self.oracle["ood_classes"]
        self.c = len(self.id_classes)
        cindex = {name: k for k, name in enumerate(self.id_classes)}
        self.truth = [cindex.get(lab, self.c) for lab in self.labels]
        self._a_hat = None
        self._x = None

    def path(self, name: str) -> str:
        return os.path.join(self.art, name)

    def config(self) -> dict:
        return _json(os.path.join(self.work, "config.json"))

    # ------------------------------------------------------------ ingest

    def check_split(self) -> list[str]:
        split = _json(self.path("split.json"))
        sets = {k: set(split[k]) for k in ("train_ids", "val_ids", "test_ids")}
        errs = []
        if sets["train_ids"] & sets["val_ids"] or sets["train_ids"] & sets["test_ids"] \
                or sets["val_ids"] & sets["test_ids"]:
            errs.append("split sets overlap")
        for name in self.id_classes + self.ood_classes:
            count = self.labels.count(name)
            n_train = max(1, math.floor(0.5 * count)) if name in self.id_classes else 0
            pool = count - n_train
            n_val = math.floor(0.4 * pool)
            want = {"train_ids": n_train, "val_ids": n_val,
                    "test_ids": pool - n_val}
            for key, n in want.items():
                got = sum(1 for i in sets[key] if self.labels[i] == name)
                if got != n:
                    errs.append(f"split {key} has {got} {name!r} nodes, want {n}")
        return errs

    def test_ids(self) -> list[int]:
        return sorted(_json(self.path("split.json"))["test_ids"])

    # ------------------------------------------------------------ coarse, denoise

    def planned_flags(self, threshold: float) -> set[int]:
        plan = self.oracle["plan"]
        return {i for i in self.test_ids()
                if not plan[i]["is_id"] and plan[i]["confidence"] >= threshold}

    def check_coarse(self, threshold: float) -> list[str]:
        recs = _jsonl(self.path("coarse.jsonl"))
        header = [r for r in recs if r.get("kind") == "header"]
        anns = [r for r in recs if r.get("kind") == "annotation"]
        errs = []
        if len(header) != 1 or header[0]["confidence_threshold"] != threshold:
            errs.append("coarse.jsonl header does not record threshold "
                        f"{threshold}")
        if header and header[0]["mode"] != self.oracle["mode"]:
            errs.append(f"coarse mode {header[0]['mode']!r}, "
                        f"want {self.oracle['mode']!r}")
        if sorted(a["node_id"] for a in anns) != self.test_ids():
            errs.append("coarse.jsonl does not annotate exactly the test set")
        flagged = {a["node_id"] for a in anns
                   if not a["is_id"] and a["confidence"] >= threshold}
        want = self.planned_flags(threshold)
        if flagged != want:
            errs.append(f"flagged set has {len(flagged)} nodes, plan has "
                        f"{len(want)} ({len(flagged ^ want)} differ)")
        denoised = _jsonl(self.path("denoised.jsonl"))
        cands = {r["node_id"] for r in denoised if r.get("kind") == "candidate"}
        kept = {r["node_id"] for r in denoised
                if r.get("kind") == "candidate" and r["kept"]}
        if cands != want:
            errs.append("denoise candidates differ from the planned flagged set")
        if not kept <= cands:
            errs.append("denoise survivors are not a subset of its candidates")
        if not kept:
            errs.append("no denoise survivors")
        return errs

    # ------------------------------------------------------------ dense model

    def _dense_inputs(self):
        if self._a_hat is None:
            n = len(self.labels)
            (rows, dim), raw = _matrix(os.path.join(self.work, "features.bin"),
                                       b"CFCF", 2)
            self._x = np.frombuffer(raw, dtype="<f8").reshape(rows, dim)
            a = np.eye(n)
            for rec in _jsonl(os.path.join(self.work, "edges.jsonl")):
                a[rec["src"], rec["dst"]] = a[rec["dst"], rec["src"]] = 1.0
            inv = 1.0 / np.sqrt(a.sum(axis=1))
            self._a_hat = a * inv[:, None] * inv[None, :]
        return self._a_hat, self._x

    def prelim_forward(self):
        """(hidden, softmax probs) of the prelim checkpoint, dense Â."""
        (d, h, out), raw = _matrix(self.path("prelim.ckpt"), b"CFCW", 3)
        w = np.frombuffer(raw, dtype="<f8")
        w0 = w[:d * h].reshape(d, h)
        w1 = w[d * h:].reshape(h, out)
        a_hat, x = self._dense_inputs()
        hidden = np.maximum(a_hat @ (x @ w0), 0.0)
        logits = (a_hat @ hidden) @ w1
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return hidden, e / e.sum(axis=1, keepdims=True)

    def check_synth(self) -> list[str]:
        mix = self.config()["mixup"]
        meta = _jsonl(self.path("synth.jsonl"))
        header = next(r for r in meta if r.get("kind") == "header")
        rows = sorted((r for r in meta if r.get("kind") == "row"),
                      key=lambda r: r["row"])
        (count, dim), raw = _matrix(self.path("synth.bin"), b"CFCF", 2)
        synth = np.frombuffer(raw, dtype="<f8").reshape(count, dim)
        errs = []
        if count != mix["synth_count"] or len(rows) != count:
            return [f"{count} synthetic rows, want {mix['synth_count']}"]
        hidden, probs = self.prelim_forward()
        survivors = sorted(r["node_id"] for r in _jsonl(self.path("denoised.jsonl"))
                           if r.get("kind") == "candidate" and r["kept"])
        center = hidden[survivors].mean(axis=0)
        scale = 1.0 + float(np.abs(hidden).max())
        if np.abs(center - np.asarray(header["center"])).max() > SYNTH_TOL * scale:
            errs.append("mixup center differs from the survivors' hidden mean")
        train = sorted(_json(self.path("split.json"))["train_ids"])
        conf = sorted((float(probs[i].max()), i) for i in train)
        k = mix["boundary_count"]
        # boundary nodes are the k least confident training nodes; allow
        # rounding-level reordering at the k-th place
        limit = conf[min(k, len(conf) - 1)][0] + SYNTH_TOL
        used = {r["boundary_id"] for r in rows}
        if len(used) != min(k, len(train)) or any(float(probs[b].max()) > limit
                                                  for b in used):
            errs.append("mixup boundary nodes are not the least confident "
                        "training nodes")
        alpha = mix["alpha"]
        want = np.stack([alpha * hidden[r["boundary_id"]] + (1 - alpha) * center
                         for r in rows])
        if any(r["alpha"] != alpha for r in rows) or \
                np.abs(want - synth).max() > SYNTH_TOL * scale:
            errs.append("synthetic rows differ from alpha*h_b + (1-alpha)*center")
        return errs

    # ------------------------------------------------------------ eval

    def predicted_ood(self) -> list[int]:
        return [r["node_id"] for r in _jsonl(self.path("detect.jsonl"))
                if r["pred"] == self.c]

    def _report(self, preds: dict) -> tuple[float, float, float]:
        hit_id = n_id = hit_ood = n_ood = 0
        for node, pred in preds.items():
            if self.truth[node] == self.c:
                n_ood += 1
                hit_ood += pred == self.c
            else:
                n_id += 1
                hit_id += pred == self.truth[node]
        return (hit_id / n_id if n_id else 0.0,
                hit_ood / n_ood if n_ood else 0.0,
                (hit_id + hit_ood) / (n_id + n_ood))

    def _auroc(self, scores: dict) -> float:
        pos = np.array([s for n, s in scores.items() if self.truth[n] == self.c])
        neg = np.array([s for n, s in scores.items() if self.truth[n] != self.c])
        wins = (pos[:, None] > neg[None, :]).sum() \
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        return float(wins / (len(pos) * len(neg)))

    def _cluster_accuracy(self, pairs: list[tuple[int, str]]) -> float:
        """Best injective map predicted label -> true class, by enumeration;
        a predicted label may also map to nothing."""
        preds = sorted({lab for _, lab in pairs})
        trues = sorted({self.labels[n] for n, _ in pairs})
        if len(preds) > 8:
            raise ValueError(f"{len(preds)} predicted labels, too many to enumerate")
        table = {(p, t): 0 for p in preds for t in trues}
        for node, lab in pairs:
            table[lab, self.labels[node]] += 1
        targets = trues + [None] * len(preds)
        best = 0
        for image in itertools.permutations(targets, len(preds)):
            best = max(best, sum(table[p, t] for p, t in zip(preds, image)
                                 if t is not None))
        return best / len(pairs)

    def expected_log(self) -> dict[str, int]:
        """Normalized category -> count over the rejected test nodes."""
        log: dict[str, int] = {}
        plan = self.oracle["plan"]
        for i in self.test_ids():
            if not plan[i]["is_id"]:
                name = re.sub(r"\s+", " ", plan[i]["category"].strip().lower())
                log[name] = log.get(name, 0) + 1
        return log

    def check_labelspace(self) -> list[str]:
        post = _json(self.path("post_labels.json"))
        sim = self.config()["merge"]["sim_threshold"]
        errs = []
        if post["sim_threshold"] != sim:
            errs.append(f"merge ran at {post['sim_threshold']}, config says {sim}")
        log = self.expected_log()
        want_map, want_labels = expected_merge(log, sim)
        if set(post["raw_to_merged"]) != set(log):
            errs.append("merged raw categories differ from the planned verdicts")
        elif post["raw_to_merged"] != want_map:
            bad = sum(post["raw_to_merged"][k] != v for k, v in want_map.items())
            errs.append(f"{bad} raw categories merged differently from the oracle")
        if post["merged_labels"] != want_labels:
            errs.append(f"merged labels {post['merged_labels']}, "
                        f"oracle {want_labels}")
        assigned = {r["node_id"]: r["label"]
                    for r in _jsonl(self.path("ood_assignments.jsonl"))}
        if sorted(assigned) != sorted(self.predicted_ood()):
            errs.append("OOD assignments do not cover exactly the detected nodes")
        if not set(assigned.values()) <= set(post["merged_labels"]):
            errs.append("an OOD assignment is outside the merged label space")
        return errs

    def check_eval(self) -> list[str]:
        doc = _json(self.path("eval.json"))
        methods = doc["methods"]
        detect = _jsonl(self.path("detect.jsonl"))
        test = self.test_ids()
        errs = []
        if sorted(r["node_id"] for r in detect) != test:
            return ["detect.jsonl does not cover exactly the test set"]
        cfc = methods["CFC"]
        acc = self._report({r["node_id"]: r["pred"] for r in detect})
        for key, value in zip(("id_accuracy", "ood_accuracy", "overall_accuracy"), acc):
            if abs(cfc[key] - value) > REPORT_TOL:
                errs.append(f"CFC {key} {cfc[key]}, recomputed {value}")
        roc = self._auroc({r["node_id"]: r["ood_score"] for r in detect})
        if cfc["auroc"] is None or abs(cfc["auroc"] - roc) > 1e-9:
            errs.append(f"CFC auroc {cfc['auroc']}, pair count gives {roc}")

        _, probs = self.prelim_forward()
        soft = self._report({i: int(np.argmax(probs[i])) for i in test})
        base = methods["GCN_softmax"]
        for key, value in zip(("id_accuracy", "ood_accuracy", "overall_accuracy"), soft):
            if abs(base[key] - value) > REPORT_TOL:
                errs.append(f"GCN_softmax {key} {base[key]}, recomputed {value}")
        if not cfc["overall_accuracy"] > base["overall_accuracy"]:
            errs.append("CFC does not beat the untuned GCN_softmax baseline")

        pairs = [(r["node_id"], r["label"])
                 for r in _jsonl(self.path("ood_assignments.jsonl"))
                 if self.truth[r["node_id"]] == self.c]
        want = self._cluster_accuracy(pairs) if pairs else None
        got = doc["cluster_accuracy"]
        if (want is None) != (got is None) or \
                (want is not None and abs(got - want) > REPORT_TOL):
            errs.append(f"cluster accuracy {got}, enumeration gives {want}")
        return errs

    # ------------------------------------------------------------ phases

    def check_outputs(self, threshold: float) -> list[str]:
        """Everything a finished run_all must satisfy."""
        return (self.check_split() + self.check_coarse(threshold)
                + self.check_synth() + self.check_labelspace()
                + self.check_eval())

    def expected_cold_calls(self) -> int:
        extra = 2 if self.oracle["mode"] == "hard_reject" else 0
        return len(self.test_ids()) + extra + len(self.predicted_ood())

    def eval_bytes(self) -> bytes:
        with open(self.path("eval.json"), "rb") as fh:
            return fh.read()

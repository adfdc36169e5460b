"""Span tracer for the benchmark's traced runs.

The tracer wraps public semhard functions at the module attribute their
callers look up, so the program itself is unchanged: `trainer.train`
calls `enc.forward`, and `semhard.encoder.forward` is what gets wrapped.
Each call leaves one span (name, start, end, parent) in memory, and a few
counters are read from the same calls' arguments and results. Untraced
runs never import this module's hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Module -> attribute names wrapped there. "*" means every public function
# defined in that module. A span is named after the function's home module,
# so `semhard.trainer.preprocess` records as `textsem.preprocess`.
TARGETS = {
    "semhard.encoder": "*",
    "semhard.trainer": (
        "train", "corpus_semantics", "validate", "preprocess", "build_tfidf",
        "truncated_svd", "compute_loss", "semantic_factor_matrix", "retrieval_report",
    ),
    "semhard.cli": (
        "load_dataset", "generate_synthetic", "split_dataset", "retrieval_report",
        "export_semantics",
    ),
    "semhard.evaluation": ("recall_at_k",),
}

# Spans whose self time is reported per layer; `cli.*` spans are the
# benchmark's own, one per CLI command.
TRAINER_SPANS = ("trainer.train", "trainer.corpus_semantics")

# Per-layer metrics that must repeat exactly between two traced runs of the
# same input: they count work, not time.
EXACT = (
    "textsem.truncated_svd.calls", "textsem.svd.k", "textsem.tfidf.nnz",
    "textsem.preprocess.calls", "encoder.forward.calls", "trainer.validate.calls",
    "evaluation.recall_at_k.calls", "evaluation.queries", "encoder.save_checkpoint.calls",
    "encoder.checkpoint.bytes", "losses.active_hinge_frac", "losses.unique_hard_neg_frac",
)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory spans and counters for one traced command sequence."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.steps_ms: list[float] = []
        self._step_start = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn):
        name = _span_name(fn)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[f"{name}.calls"] += 1
            if observe is not None:
                observe(self, self.spans[idx], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            if attrs == "*":
                attrs = [
                    n for n, f in vars(module).items()
                    if inspect.isfunction(f) and f.__module__ == module_name
                    and not n.startswith("_")
                ]
            for attr in attrs:
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reporting -------------------------------------------------------

    def seconds(self, *names: str) -> float:
        return float(sum(s[2] - s[1] for s in self.spans if s[0] in names))

    def self_seconds(self, predicate) -> float:
        """Sum of (duration - time covered by direct children) over spans
        whose name satisfies `predicate`."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return sum(
            end - start - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if predicate(name)
        )

    def root_shares(self, root: str) -> dict[str, float]:
        """Share of the `root` spans' time spent in each span name below them."""
        top: list[str] = []  # each span's outermost ancestor; parents come first
        for name, _, _, parent in self.spans:
            top.append(top[parent] if parent >= 0 else name)
        total = self.seconds(root)
        shares: dict[str, float] = defaultdict(float)
        for (name, start, end, _), outer in zip(self.spans, top):
            if outer == root and name != root and total:
                shares[name] += (end - start) / total
        return dict(sorted(shares.items()))

    def metrics(self) -> dict[str, float]:
        c = self.counts
        steps = self.steps_ms or [0.0]
        queries = c["losses.hinge_queries"]
        return {
            "textsem.truncated_svd.s": self.seconds("textsem.truncated_svd"),
            "textsem.truncated_svd.calls": c["textsem.truncated_svd.calls"],
            "textsem.svd.k": c["textsem.svd.k"],
            "textsem.tfidf.nnz": c["textsem.tfidf.nnz"],
            "textsem.preprocess.s": self.seconds("textsem.preprocess"),
            "textsem.preprocess.calls": c["textsem.preprocess.calls"],
            "textsem.build_tfidf.s": self.seconds("textsem.build_tfidf"),
            "data.load_dataset.s": self.seconds("data.load_dataset"),
            "encoder.forward.s": self.seconds("encoder.forward"),
            "encoder.forward.calls": c["encoder.forward.calls"],
            "encoder.backward.s": self.seconds("encoder.backward"),
            "encoder.sgd_step.s": self.seconds("encoder.sgd_step"),
            "trainer.step_ms.p50": float(np.percentile(steps, 50)),
            "trainer.step_ms.p90": float(np.percentile(steps, 90)),
            "encoder.encode.s": self.seconds("encoder.encode_images", "encoder.encode_texts"),
            "trainer.validate.s": self.seconds("trainer.validate"),
            "trainer.validate.calls": c["trainer.validate.calls"],
            "evaluation.retrieval_report.s": self.seconds("evaluation.retrieval_report"),
            "evaluation.recall_at_k.calls": c["evaluation.recall_at_k.calls"],
            "evaluation.queries": c["evaluation.queries"],
            "encoder.save_checkpoint.calls": c["encoder.save_checkpoint.calls"],
            "encoder.save_checkpoint.s": self.seconds("encoder.save_checkpoint"),
            "encoder.checkpoint.bytes": c["encoder.checkpoint.bytes"],
            "encoder.load_checkpoint.s": self.seconds("encoder.load_checkpoint"),
            "losses.compute_loss.s": self.seconds("losses.compute_loss"),
            "losses.semantic_factor_matrix.s": self.seconds("losses.semantic_factor_matrix"),
            "losses.active_hinge_frac": c["losses.active_hinges"] / queries if queries else 0.0,
            "losses.unique_hard_neg_frac": c["losses.unique_hard_negs"] / queries if queries else 0.0,
            "trainer.self.s": self.self_seconds(lambda n: n in TRAINER_SPANS),
            "cli.self.s": self.self_seconds(lambda n: n.startswith("cli.")),
            "cli.eval.s": self.seconds("cli.eval"),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# -- counters read at span boundaries --------------------------------------

def _forward(tracer, span, args, kwargs, result):
    tracer._step_start = span[1]


def _sgd_step(tracer, span, args, kwargs, result):
    # one training step: the batch's forward start to its SGD update's end
    tracer.steps_ms.append(1000.0 * (span[2] - tracer._step_start))


def _truncated_svd(tracer, span, args, kwargs, result):
    tracer.counts["textsem.svd.k"] = result.B.shape[1]


def _build_tfidf(tracer, span, args, kwargs, result):
    tracer.counts["textsem.tfidf.nnz"] += result[1].matrix.nnz


def _recall_at_k(tracer, span, args, kwargs, result):
    sim, direction = args[0], args[3]
    tracer.counts["evaluation.queries"] += sim.shape[0] if direction == "i2t" else sim.shape[1]


def _save_checkpoint(tracer, span, args, kwargs, result):
    tracer.counts["encoder.checkpoint.bytes"] += os.path.getsize(args[1])


def _compute_loss(tracer, span, args, kwargs, result):
    """Active hinges and distinct hard negatives of a max-of-hinges batch:
    2b queries, one per image row and one per text column."""
    if result.hard_neg_img is None:
        return
    block, cfg = args
    S = block.S
    masked = S + block.F if (cfg.variant == "lseh" and block.F is not None) else S.copy()
    np.fill_diagonal(masked, -np.inf)
    diag = np.diag(S)
    rows = np.arange(S.shape[0])
    h_row = cfg.alpha + masked[rows, result.hard_neg_desc] - diag
    h_col = cfg.alpha + masked[result.hard_neg_img, rows] - diag
    c = tracer.counts
    c["losses.hinge_queries"] += 2 * S.shape[0]
    c["losses.active_hinges"] += int((h_row > 0).sum() + (h_col > 0).sum())
    c["losses.unique_hard_negs"] += (
        len(np.unique(result.hard_neg_img)) + len(np.unique(result.hard_neg_desc))
    )


_OBSERVERS = {
    "encoder.forward": _forward,
    "encoder.sgd_step": _sgd_step,
    "textsem.truncated_svd": _truncated_svd,
    "textsem.build_tfidf": _build_tfidf,
    "evaluation.recall_at_k": _recall_at_k,
    "encoder.save_checkpoint": _save_checkpoint,
    "losses.compute_loss": _compute_loss,
}

"""Retrieval metrics and training-efficiency diagnostics.

Recall@k over both retrieval directions, their mean (the validation
score), the signed percent change in epochs needed to reach a reference
score, and per-batch unique hard-negative counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import open_whole
from .errors import ShapeMismatch

I2T = "i2t"
T2I = "t2i"


@dataclass
class RelevanceMap:
    img_to_desc: list[set[int]]  # image index -> relevant description indices
    desc_to_img: list[int]       # description index -> its image
    # image x its sorted descriptions, short rows padded with their first one;
    # desc_to_img as an array. Both are built once, for every recall call.
    desc_grid: np.ndarray = field(init=False, repr=False, compare=False)
    desc_img: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Both maps must describe one partition of the descriptions:
        recall reads img_to_desc for i2t and desc_to_img for t2i."""
        n_img, n_desc = len(self.img_to_desc), len(self.desc_to_img)
        rows = []
        for img, rel in enumerate(self.img_to_desc):
            if not rel:
                raise ValueError(f"image {img} has no relevant descriptions")
            for d in rel:
                if not 0 <= d < n_desc:
                    raise ValueError(f"image {img} lists description {d} of {n_desc}")
                if self.desc_to_img[d] != img:
                    raise ValueError(
                        f"image {img} lists description {d}, "
                        f"which references image {self.desc_to_img[d]}"
                    )
            rows.append(sorted(rel))
        for d, img in enumerate(self.desc_to_img):
            if not 0 <= img < n_img:
                raise ValueError(f"description {d} references image {img}")
            if d not in self.img_to_desc[img]:
                raise ValueError(f"description {d} is listed under no image")
        width = max(map(len, rows), default=0)
        self.desc_grid = np.array([r + r[:1] * (width - len(r)) for r in rows], dtype=np.int64)
        self.desc_img = np.array(self.desc_to_img, dtype=np.int64)


@dataclass
class RetrievalReport:
    i2t: dict[int, float]  # k -> Recall@k percentage
    t2i: dict[int, float]
    m_recall: float


@dataclass
class HardNegStats:
    unique_img: list[int] = field(default_factory=list)   # per batch: #ImEmbs
    unique_desc: list[int] = field(default_factory=list)  # per batch: #DesEmbs


def _ranks(scores: np.ndarray, target: np.ndarray, axis: int = 1) -> np.ndarray:
    """Rank of candidate target[q] in each query q, a row of `scores` (axis=1)
    or a column (axis=0): by descending score, ties to the lower index."""
    q = np.arange(len(target))
    t = scores[q, target][:, np.newaxis] if axis == 1 else scores[target, q][np.newaxis]
    ranks = np.add.reduce(scores > t, axis=axis, dtype=np.int32)  # faster than count_nonzero
    equal = scores == t
    if np.count_nonzero(equal) > np.count_nonzero(t == t):  # a target's score recurs (NaN != NaN)
        tied = np.flatnonzero(np.count_nonzero(equal, axis=axis) > 1)
        before = (np.expand_dims(np.arange(scores.shape[axis]), 1 - axis)
                  < np.expand_dims(target[tied], axis))
        ranks[tied] += np.count_nonzero(np.take(equal, tied, 1 - axis) & before, axis=axis)
    return ranks


def _direction_ranks(sim: np.ndarray, relevance: RelevanceMap, direction: str) -> np.ndarray:
    """Each query's rank of its best-placed relevant item. `sim` is images x
    descriptions; "i2t" queries rows, "t2i" columns. An image's best-placed
    description has its highest score, then its lowest index: argmax over
    the sorted `desc_grid` row takes the first maximum."""
    sim = np.asarray(sim)
    n_img, n_desc = sim.shape
    if len(relevance.img_to_desc) != n_img or len(relevance.desc_to_img) != n_desc:
        raise ShapeMismatch("similarity shape disagrees with relevance map")
    if direction == I2T:
        grid = relevance.desc_grid
        rows = np.arange(n_img)
        best = grid[rows, sim[rows[:, np.newaxis], grid].argmax(axis=1)]
        return _ranks(sim, best)
    if direction == T2I:
        return _ranks(sim, relevance.desc_img, axis=0)
    raise ValueError(f"direction must be {I2T!r} or {T2I!r}")


def _recall(ranks: np.ndarray, k: int) -> float:
    return 100.0 * np.count_nonzero(ranks < k) / len(ranks)


def recall_at_k(
    sim: np.ndarray, relevance: RelevanceMap, k: int, direction: str
) -> float:
    """Percentage of queries with >= 1 relevant item in the top k.

    `sim` is images x descriptions; direction "i2t" queries rows, "t2i"
    columns. An image ranks by its best-placed description (highest score,
    then lowest index), whose rank is the minimum over its descriptions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _recall(_direction_ranks(sim, relevance, direction), k)


def m_recall(values: Sequence[float]) -> float:
    """Mean of the six Recall values (R@1/5/10 in both directions)."""
    if len(values) != 6:
        raise ValueError("m_recall takes exactly six recall values")
    return float(np.mean(values))


def retrieval_report(sim: np.ndarray, relevance: RelevanceMap) -> RetrievalReport:
    """Recall@1/5/10 in both directions, each direction ranked once."""
    def recalls(direction):
        ranks = _direction_ranks(sim, relevance, direction)
        return {k: _recall(ranks, k) for k in (1, 5, 10)}

    i2t, t2i = recalls(I2T), recalls(T2I)
    return RetrievalReport(i2t, t2i, m_recall([*i2t.values(), *t2i.values()]))


def efficiency_difference(epochs_new: float, epochs_ref: float) -> float:
    """Signed percent change in epochs; negative means faster."""
    if epochs_ref <= 0:
        raise ZeroDivisionError("reference epoch count must be > 0")
    return 100.0 * (epochs_new - epochs_ref) / epochs_ref


def epochs_to_threshold(records: Iterable[tuple[float, float]], threshold: float):
    """Earliest epoch fraction whose validation score reaches `threshold`.

    `records` holds (epoch_fraction, m_recall) pairs; returns None when
    the threshold is never reached.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    for epoch_fraction, score in records:
        if score >= threshold:
            return epoch_fraction
    return None


def hard_negative_uniques(
    batch_logs: Iterable[tuple[Sequence[int], Sequence[int]]]
) -> HardNegStats:
    """Per batch, count distinct hard-negative image and description picks.

    Each log entry is (hard_neg_img indices, hard_neg_desc indices) as
    produced by the max-of-hinges losses.
    """
    logs = list(batch_logs)
    return HardNegStats([len(set(map(int, img))) for img, _ in logs],
                        [len(set(map(int, desc))) for _, desc in logs])


def write_csv(path: str | Path, header: str, columns: Sequence[str], rows: Iterable) -> None:
    """A `# header` comment line when `header` is set, the column names, then `rows`."""
    with open_whole(path) as fh:
        if header:
            fh.write(f"# {header}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_report_csv(report: RetrievalReport, path: str | Path, header: str = ""):
    """CSV rows `direction,k,recall` plus an `m_recall` summary line."""
    rows = [[d, k, f"{recalls[k]:.6f}"] for d, recalls in ((I2T, report.i2t), (T2I, report.t2i))
            for k in (1, 5, 10)]
    rows.append(["m_recall", "", f"{report.m_recall:.6f}"])
    write_csv(path, header, ["direction", "k", "recall"], rows)


def write_diagnostics_csv(stats: HardNegStats, path: str | Path, header: str = ""):
    """CSV `batch_index,unique_img,unique_desc`."""
    rows = [[i, *pair] for i, pair in enumerate(zip(stats.unique_img, stats.unique_desc))]
    write_csv(path, header, ["batch_index", "unique_img", "unique_desc"], rows)

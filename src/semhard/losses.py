"""Hinge-based ranking losses over a batch similarity matrix.

Three variants share one similarity block:

- sum-of-hinges ("lsh"): every irrelevant pair contributes;
- max-of-hinges ("lmh"): only the hardest negative per query contributes;
- semantically-enhanced max-of-hinges ("lseh"): the hinge argument is
  shifted by a per-pair semantic factor before taking the max.

All gradients are with respect to the similarity matrix S; the factor
matrix F is a constant. Subgradient at a hinge kink is 0, and argmax
ties break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .textsem import cosine_matrix

VARIANTS = ("lsh", "lmh", "lseh")


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.185
    lam: float = 0.025
    variant: str = "lseh"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class SimilarityBlock:
    S: np.ndarray  # b x b, S[i, j] = sim(image_i, text_j); diagonal = relevant pairs
    F: np.ndarray | None = None  # b x b symmetric semantic factors, zero diagonal

    def __post_init__(self):
        S = np.asarray(self.S, dtype=np.float64)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ShapeMismatch(f"S must be square, got {S.shape}")
        if S.shape[0] < 2:
            raise ShapeMismatch("similarity block needs b >= 2")
        self.S = S
        if self.F is not None:
            F = np.asarray(self.F, dtype=np.float64)
            if F.shape != S.shape:
                raise ShapeMismatch(f"F shape {F.shape} != S shape {S.shape}")
            self.F = F

    @property
    def size(self) -> int:
        return self.S.shape[0]


@dataclass
class LossOutput:
    value: float
    grad_S: np.ndarray
    hard_neg_desc: np.ndarray | None = None  # per image row: hardest text column
    hard_neg_img: np.ndarray | None = None   # per text column: hardest image row


def semantic_factor_matrix(batch_rows: np.ndarray, lam: float) -> np.ndarray:
    """F[i, j] = lam * cos(row_i, row_j) off-diagonal, zero diagonal."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    F = lam * cosine_matrix(np.asarray(batch_rows, dtype=np.float64))
    np.fill_diagonal(F, 0.0)
    return F


def lsh(block: SimilarityBlock, cfg: LossConfig) -> LossOutput:
    """Sum of hinges over all irrelevant pairs, both directions."""
    S = block.S
    b = block.size
    diag = np.diag(S)
    off = ~np.eye(b, dtype=bool)

    # rows: image i against all texts j != i
    h_row = cfg.alpha + S - diag[:, np.newaxis]
    # cols: text i against all images j != i (entry S[j, i])
    h_col = cfg.alpha + S - diag[np.newaxis, :]

    act_row = (h_row > 0) & off
    act_col = (h_col > 0) & off
    value = float(h_row[act_row].sum() + h_col[act_col].sum())

    grad = act_row.astype(np.float64) + act_col.astype(np.float64)
    diag_grad = -(act_row.sum(axis=1) + act_col.sum(axis=0)).astype(np.float64)
    grad[np.diag_indices(b)] = diag_grad
    return LossOutput(value=value, grad_S=grad)


def _max_of_hinges(S: np.ndarray, aug: np.ndarray, alpha: float) -> LossOutput:
    """Shared lmh/lseh core; `aug` holds the scores the argmax ranks."""
    b = S.shape[0]
    diag = np.diag(S)
    masked = aug.copy()
    np.fill_diagonal(masked, -np.inf)

    # hardest text for each image row, hardest image for each text column
    hard_desc = np.argmax(masked, axis=1)
    hard_img = np.argmax(masked, axis=0)

    rows = np.arange(b)
    h_row = alpha + masked[rows, hard_desc] - diag
    h_col = alpha + masked[hard_img, rows] - diag

    value = float(np.maximum(h_row, 0.0).sum() + np.maximum(h_col, 0.0).sum())

    grad = np.zeros((b, b))
    row_act = h_row > 0
    col_act = h_col > 0
    # at most one entry per row, then one per column: no index repeats within a +=
    grad[rows[row_act], hard_desc[row_act]] += 1.0
    grad[hard_img[col_act], rows[col_act]] += 1.0
    grad[rows, rows] -= row_act.astype(np.float64) + col_act.astype(np.float64)
    return LossOutput(
        value=value, grad_S=grad, hard_neg_desc=hard_desc, hard_neg_img=hard_img
    )


def lmh(block: SimilarityBlock, cfg: LossConfig) -> LossOutput:
    """Max of hinges: only the hardest negative per query contributes."""
    return _max_of_hinges(block.S, block.S, cfg.alpha)


def lseh(block: SimilarityBlock, cfg: LossConfig) -> LossOutput:
    """Max of hinges on semantically shifted scores S + F."""
    aug = block.S if block.F is None else block.S + block.F
    return _max_of_hinges(block.S, aug, cfg.alpha)


_DISPATCH = {"lsh": lsh, "lmh": lmh, "lseh": lseh}


def compute_loss(block: SimilarityBlock, cfg: LossConfig) -> LossOutput:
    return _DISPATCH[cfg.variant](block, cfg)

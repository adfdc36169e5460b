"""Minimal bi-encoder: linear image projection + mean-word-embedding text side.

Both encoders emit unit-norm rows, so the batch similarity matrix
S = V @ U.T is a cosine matrix. backward() pushes a gradient on S
through the normalization and the linear maps exactly (no autograd).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .data import read_matrices, write_matrices
from .errors import (BadCheckpoint, EmptySequence, NonFiniteGradient, ShapeMismatch,
                     ZeroNormEmbedding)

CHECKPOINT_MAGIC = b"VSEC"
CHECKPOINT_VERSION = 1
# sequences per block of _mean_embeddings: a training batch of up to 64 is one block
_BLOCK = 64


@dataclass
class ModelParams:
    W_img: np.ndarray   # d_img x d_emb
    E_word: np.ndarray  # vocab_size x d_word
    W_txt: np.ndarray   # d_word x d_emb

    def copy(self) -> "ModelParams":
        return ModelParams(self.W_img.copy(), self.E_word.copy(), self.W_txt.copy())


@dataclass
class Gradients:
    """Parameter gradients. The word gradient is row-sparse: a batch
    touches only the rows of its own tokens."""
    W_img: np.ndarray
    word_ids: np.ndarray   # the batch's distinct token ids, ascending
    word_rows: np.ndarray  # len(word_ids) x d_word, the gradient of those E_word rows
    W_txt: np.ndarray
    vocab_size: int

    @property
    def E_word(self) -> np.ndarray:
        """The dense vocab_size x d_word word gradient, built on demand."""
        g = np.zeros((self.vocab_size, self.word_rows.shape[1]))
        g[self.word_ids] = self.word_rows
        return g


@dataclass
class ForwardCache:
    """Activations kept for the backward pass."""
    X: np.ndarray               # b x d_img input features
    img_norms: np.ndarray       # b row norms of X @ W_img
    V: np.ndarray               # normalized image embeddings
    tokens: TokenLayout         # the batch's token ids
    means: np.ndarray           # b x d_word mean word embeddings
    txt_norms: np.ndarray       # b row norms of means @ W_txt
    U: np.ndarray               # normalized text embeddings


def init_params(
    d_img: int, vocab_size: int, d_word: int = 64, d_emb: int = 64, seed: int = 0
) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init from a seeded generator."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return ModelParams(
        W_img=uniform(d_img, (d_img, d_emb)),
        E_word=uniform(d_word, (vocab_size, d_word)),
        W_txt=uniform(d_word, (d_word, d_emb)),
    )


def _unit_rows(pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `pre` scaled to unit length, and their norms."""
    norms = np.sqrt(np.add.reduce(pre * pre, axis=1))  # np.linalg.norm's sum, undispatched
    if (norms == 0).any():
        raise ZeroNormEmbedding("a projection produced the zero vector")
    return pre / norms[:, np.newaxis], norms


def _features(params: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != params.W_img.shape[0]:
        raise ShapeMismatch(f"feature dim {X.shape[1]} != W_img rows {params.W_img.shape[0]}")
    return X


def encode_images(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Row-normalized X @ W_img."""
    return _unit_rows(_features(params, X) @ params.W_img)[0]


@dataclass(frozen=True)
class TokenLayout:
    """Token-id sequences laid out for one vectorized mean embedding.
    Indexing it with an integer array of rows, or a slice, gives the layout of
    those rows; a slice's arrays are views."""
    lengths: np.ndarray  # token count per sequence
    grid: np.ndarray     # sequences x longest length, ids with zero padding
    pad: np.ndarray      # True where `grid` holds padding

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows: np.ndarray | slice) -> TokenLayout:
        # cut to the rows' longest sequence, so a batch is laid out as its lists would be
        lengths = self.lengths[rows]
        width = lengths.max(initial=0)
        return TokenLayout(lengths, self.grid[rows, :width], self.pad[rows, :width])

    @property
    def ids(self) -> np.ndarray:  # flat caption-major token ids
        return self.grid[~self.pad]


def token_layout(token_seqs: list[list[int]]) -> TokenLayout:
    """Lay out token-id sequences once; raises EmptySequence for an empty one."""
    lengths = np.array([len(seq) for seq in token_seqs], dtype=np.int64)
    if not lengths.all():
        raise EmptySequence(f"token sequence {int(np.argmin(lengths))} is empty")
    padded = np.arange(lengths.max(initial=0)) < lengths[:, np.newaxis]
    grid = np.zeros(padded.shape, dtype=np.int64)
    grid[padded] = np.fromiter(chain.from_iterable(token_seqs), np.int64, lengths.sum())
    return TokenLayout(lengths, grid, ~padded)


def _layout(tokens: TokenLayout | list[list[int]]) -> TokenLayout:
    return tokens if isinstance(tokens, TokenLayout) else token_layout(tokens)


def _padded_rows(E_word: np.ndarray, layout: TokenLayout) -> np.ndarray:
    """The word embeddings of `layout.grid`, zero where it holds padding."""
    rows = E_word[layout.grid]
    rows[layout.pad] = 0.0
    return rows


def _mean_embeddings(params: ModelParams, layout: TokenLayout) -> np.ndarray:
    """Mean word embedding per sequence. Zero-padded rows summed in token
    order, then divided, equal a per-row mean bit for bit.

    The layout is summed _BLOCK sequences at a time, each block cut to its
    own longest sequence, into one sequences x d_word array: only one
    block's padded rows exist at once, where the whole layout's would take
    sequences x longest x d_word floats. A training batch is one block."""
    n = len(layout.lengths)
    sums = np.empty((n, params.E_word.shape[1]))
    for lo in range(0, n, _BLOCK):
        _padded_rows(params.E_word, layout[lo:lo + _BLOCK]).sum(axis=1, out=sums[lo:lo + _BLOCK])
    sums /= layout.lengths[:, np.newaxis]
    return sums


def encode_texts(params: ModelParams, tokens: TokenLayout | list[list[int]]) -> np.ndarray:
    """Row-normalized (mean word embedding) @ W_txt, from id lists or their layout."""
    return _unit_rows(_mean_embeddings(params, _layout(tokens)) @ params.W_txt)[0]


def forward(
    params: ModelParams, X: np.ndarray, tokens: TokenLayout | list[list[int]]
) -> ForwardCache:
    """Encode a batch of (image features, token-id sequence) pairs."""
    X = _features(params, X)
    if X.shape[0] != len(tokens):
        raise ShapeMismatch("batch sizes of images and texts disagree")
    V, img_norms = _unit_rows(X @ params.W_img)
    layout = _layout(tokens)
    means = _mean_embeddings(params, layout)
    U, txt_norms = _unit_rows(means @ params.W_txt)
    return ForwardCache(X, img_norms, V, layout, means, txt_norms, U)


def similarity_matrix(cache: ForwardCache) -> np.ndarray:
    return cache.V @ cache.U.T


def _grad_through_normalize(norms: np.ndarray, out: np.ndarray, g_out: np.ndarray):
    # y = x / ||x||  =>  dL/dx = (g - y * (y . g)) / ||x||
    return (g_out - out * (out * g_out).sum(axis=1, keepdims=True)) / norms[:, np.newaxis]


def backward(params: ModelParams, cache: ForwardCache, grad_S: np.ndarray) -> Gradients:
    """Exact gradients of a loss through S = V @ U.T down to the parameters.
    Only E_word rows of tokens present in the batch receive gradient."""
    b = cache.V.shape[0]
    grad_S = np.asarray(grad_S, dtype=np.float64)
    if grad_S.shape != (b, b):
        raise ShapeMismatch(f"grad_S must be {(b, b)}, got {grad_S.shape}")

    g_V = grad_S @ cache.U
    g_U = grad_S.T @ cache.V
    g_img_pre = _grad_through_normalize(cache.img_norms, cache.V, g_V)
    g_txt_pre = _grad_through_normalize(cache.txt_norms, cache.U, g_U)

    g_W_img = cache.X.T @ g_img_pre
    g_W_txt = cache.means.T @ g_txt_pre
    g_means = g_txt_pre @ params.W_txt.T

    lengths = cache.tokens.lengths
    contrib = np.repeat(g_means / lengths[:, np.newaxis], lengths, axis=0)
    tokens = cache.tokens.ids
    ids = np.unique(tokens)
    d = contrib.shape[1]
    # bincount adds in input order from 0.0, so rows sum in per-caption order
    flat = (np.searchsorted(ids, tokens)[:, np.newaxis] * d + np.arange(d)).ravel()
    rows = np.bincount(flat, contrib.ravel(), len(ids) * d).reshape(len(ids), d)
    return Gradients(g_W_img, ids, rows, g_W_txt, params.E_word.shape[0])


def sgd_step(params: ModelParams, grads: Gradients, learning_rate: float) -> None:
    """In-place p <- p - lr * g, on E_word only over the rows the gradient touches."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    if not all(np.isfinite(g).all() for g in (grads.W_img, grads.word_rows, grads.W_txt)):
        raise NonFiniteGradient("gradient contains NaN or inf")
    params.W_img -= learning_rate * grads.W_img
    params.E_word[grads.word_ids] -= learning_rate * grads.word_rows
    params.W_txt -= learning_rate * grads.W_txt


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """W_img, E_word, W_txt as a binary matrix file; a failed write keeps the old one."""
    mats = [params.W_img, params.E_word, params.W_txt]
    write_matrices(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, mats)


def load_checkpoint(path: str | Path) -> ModelParams:
    """The saved weights; a W_txt that does not join E_word to W_img fails as BadCheckpoint."""
    W_img, E_word, W_txt = read_matrices(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 3)
    need = (E_word.shape[1], W_img.shape[1])  # d_word x d_emb
    if W_txt.shape != need:
        raise BadCheckpoint(f"{path}: W_txt is {W_txt.shape}, but E_word and W_img need {need}")
    return ModelParams(W_img, E_word, W_txt)

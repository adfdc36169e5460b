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
    """Activations kept for the backward pass; `V`, `U` and `txt_norms` view `emb` and `norms`."""
    X: np.ndarray               # b x d_img input features
    tokens: TokenLayout         # the batch's token ids
    means: np.ndarray           # b x d_word mean word embeddings
    emb: np.ndarray             # 2b x d_emb normalized embeddings: b image rows, then b text rows
    norms: np.ndarray           # 2b row norms of the projections
    V = property(lambda self: self.emb[:len(self.X)])
    U = property(lambda self: self.emb[len(self.X):])
    txt_norms = property(lambda self: self.norms[len(self.X):])


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
    if np.count_nonzero(norms) < len(norms):
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
    Indexing it with an integer array of rows gives the layout of those rows."""
    lengths: np.ndarray  # token count per sequence
    grid: np.ndarray     # sequences x longest length, ids with zero padding
    pad: np.ndarray      # True where `grid` holds padding

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, rows: np.ndarray) -> TokenLayout:
        # cut to the rows' longest sequence, so a batch is laid out as its lists would be;
        # take gathers a batch's rows faster than indexing does
        lengths = self.lengths.take(rows)
        width = max(lengths.tolist(), default=0)
        return TokenLayout(lengths, self.grid.take(rows, 0)[:, :width],
                           self.pad.take(rows, 0)[:, :width])

    @property
    def ids(self) -> np.ndarray:  # flat caption-major token ids
        return self.grid[~self.pad]


def id_arrays(token_seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token-id sequences as one sequence-major int64 id array and their lengths."""
    lengths = np.fromiter(map(len, token_seqs), np.int64, len(token_seqs))
    return np.fromiter(chain.from_iterable(token_seqs), np.int64, lengths.sum()), lengths


def token_layout(ids: np.ndarray, lengths: np.ndarray) -> TokenLayout:
    """Lay out sequence-major token ids, `lengths[i]` of them in sequence i, once;
    raises EmptySequence for an empty sequence."""
    if not lengths.all():
        raise EmptySequence(f"token sequence {int(np.argmin(lengths))} is empty")
    padded = np.arange(lengths.max(initial=0)) < lengths[:, np.newaxis]
    grid = np.zeros(padded.shape, dtype=np.int64)
    grid[padded] = ids
    return TokenLayout(lengths, grid, ~padded)


def _layout(tokens: TokenLayout | list[list[int]]) -> TokenLayout:
    return tokens if isinstance(tokens, TokenLayout) else token_layout(*id_arrays(tokens))


def _block_sums(E_word: np.ndarray, layout: TokenLayout, out: np.ndarray) -> None:
    """Each sequence's zero-padded word embeddings summed into `out`, in token
    order. The rows are gathered position-major, longest x sequences x d_word,
    so the sum adds one contiguous slab per token position."""
    rows = E_word.take(layout.grid.T, 0)
    rows[layout.pad.T] = 0.0
    np.add.reduce(rows, axis=0, out=out)


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
        block = layout if n <= _BLOCK else layout[np.arange(lo, min(n, lo + _BLOCK))]
        _block_sums(params.E_word, block, sums[lo:lo + _BLOCK])
    sums /= layout.lengths[:, np.newaxis]
    return sums


def encode_texts(params: ModelParams, tokens: TokenLayout | list[list[int]]) -> np.ndarray:
    """Row-normalized (mean word embedding) @ W_txt, from id lists or their layout."""
    return _unit_rows(_mean_embeddings(params, _layout(tokens)) @ params.W_txt)[0]


def forward(
    params: ModelParams, X: np.ndarray, tokens: TokenLayout | list[list[int]]
) -> ForwardCache:
    """Encode a batch of (image features, token-id sequence) pairs, both towers in one array."""
    X = _features(params, X)
    b = X.shape[0]
    if b != len(tokens):
        raise ShapeMismatch("batch sizes of images and texts disagree")
    layout = _layout(tokens)
    means = _mean_embeddings(params, layout)
    pre = np.empty((2 * b, params.W_img.shape[1]))
    X.dot(params.W_img, out=pre[:b])
    means.dot(params.W_txt, out=pre[b:])
    emb, norms = _unit_rows(pre)
    return ForwardCache(X, layout, means, emb, norms)


def similarity_matrix(cache: ForwardCache) -> np.ndarray:
    return cache.V.dot(cache.U.T)


def _grad_through_normalize(norms: np.ndarray, out: np.ndarray, g_out: np.ndarray):
    # y = x / ||x||  =>  dL/dx = (g - y * (y . g)) / ||x||
    return (g_out - out * np.add.reduce(out * g_out, axis=1, keepdims=True)) / norms[:, np.newaxis]


def backward(params: ModelParams, cache: ForwardCache, grad_S: np.ndarray) -> Gradients:
    """Exact gradients of a loss through S = V @ U.T down to the parameters.
    Only E_word rows of tokens present in the batch receive gradient."""
    b = cache.X.shape[0]
    grad_S = np.asarray(grad_S, dtype=np.float64)
    if grad_S.shape != (b, b):
        raise ShapeMismatch(f"grad_S must be {(b, b)}, got {grad_S.shape}")

    g_emb = np.empty_like(cache.emb)
    grad_S.dot(cache.U, out=g_emb[:b])
    grad_S.T.dot(cache.V, out=g_emb[b:])
    g_pre = _grad_through_normalize(cache.norms, cache.emb, g_emb)  # image rows, then text rows

    g_W_img = cache.X.T.dot(g_pre[:b])
    g_W_txt = cache.means.T.dot(g_pre[b:])
    g_means = g_pre[b:].dot(params.W_txt.T)

    lengths = cache.tokens.lengths
    contrib = (g_means / lengths[:, np.newaxis]).repeat(lengths, axis=0)
    tokens = cache.tokens.ids
    # the distinct ids: sorted, then each kept where it differs from the last
    # (np.unique imports numpy.ma on its first call, about 0.6 MB)
    ids = tokens.copy()
    ids.sort()
    ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    d = contrib.shape[1]
    # bincount adds in input order from 0.0, so rows sum in per-caption order
    flat = (ids.searchsorted(tokens)[:, np.newaxis] * d + np.arange(d)).ravel()
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

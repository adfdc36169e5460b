"""Minimal bi-encoder: linear image projection + mean-word-embedding text side.

Both encoders emit unit-norm rows, so the batch similarity matrix
S = V @ U.T is a cosine matrix. backward() pushes a gradient on S
through the normalization and the linear maps exactly (no autograd).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptySequence,
    NonFiniteGradient,
    ShapeMismatch,
    TruncatedFile,
    ZeroNormEmbedding,
)

CHECKPOINT_MAGIC = b"VSEC"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    W_img: np.ndarray   # d_img x d_emb
    E_word: np.ndarray  # vocab_size x d_word
    W_txt: np.ndarray   # d_word x d_emb

    def copy(self) -> "ModelParams":
        return ModelParams(self.W_img.copy(), self.E_word.copy(), self.W_txt.copy())


@dataclass
class ParamGrads:
    W_img: np.ndarray
    E_word: np.ndarray
    W_txt: np.ndarray


@dataclass
class ForwardCache:
    """Pre-normalization activations kept for the backward pass."""
    X: np.ndarray               # b x d_img input features
    img_pre: np.ndarray         # b x d_emb, X @ W_img
    V: np.ndarray               # normalized image embeddings
    token_seqs: list[list[int]]
    means: np.ndarray           # b x d_word mean word embeddings
    txt_pre: np.ndarray         # b x d_emb, means @ W_txt
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


def _normalize_rows(pre: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(pre, axis=1)
    if np.any(norms == 0):
        raise ZeroNormEmbedding("a projection produced the zero vector")
    return pre / norms[:, np.newaxis]


def encode_images(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Row-normalized X @ W_img."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != params.W_img.shape[0]:
        raise ShapeMismatch(
            f"feature dim {X.shape[1]} != W_img rows {params.W_img.shape[0]}"
        )
    return _normalize_rows(X @ params.W_img)


def _mean_embeddings(params: ModelParams, token_seqs: list[list[int]]) -> np.ndarray:
    means = np.zeros((len(token_seqs), params.E_word.shape[1]))
    for i, seq in enumerate(token_seqs):
        if not seq:
            raise EmptySequence(f"token sequence {i} is empty")
        means[i] = params.E_word[np.asarray(seq, dtype=np.int64)].mean(axis=0)
    return means


def encode_texts(params: ModelParams, token_seqs: list[list[int]]) -> np.ndarray:
    """Row-normalized (mean word embedding) @ W_txt."""
    return _normalize_rows(_mean_embeddings(params, token_seqs) @ params.W_txt)


def forward(
    params: ModelParams, X: np.ndarray, token_seqs: list[list[int]]
) -> ForwardCache:
    """Encode a batch of (image features, token-id sequence) pairs."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != params.W_img.shape[0]:
        raise ShapeMismatch(
            f"feature dim {X.shape[1]} != W_img rows {params.W_img.shape[0]}"
        )
    if X.shape[0] != len(token_seqs):
        raise ShapeMismatch("batch sizes of images and texts disagree")
    img_pre = X @ params.W_img
    means = _mean_embeddings(params, token_seqs)
    txt_pre = means @ params.W_txt
    return ForwardCache(
        X=X,
        img_pre=img_pre,
        V=_normalize_rows(img_pre),
        token_seqs=token_seqs,
        means=means,
        txt_pre=txt_pre,
        U=_normalize_rows(txt_pre),
    )


def similarity_matrix(cache: ForwardCache) -> np.ndarray:
    return cache.V @ cache.U.T


def _grad_through_normalize(pre: np.ndarray, out: np.ndarray, g_out: np.ndarray):
    # y = x / ||x||  =>  dL/dx = (g - y * (y . g)) / ||x||
    norms = np.linalg.norm(pre, axis=1, keepdims=True)
    return (g_out - out * np.sum(out * g_out, axis=1, keepdims=True)) / norms


def backward(params: ModelParams, cache: ForwardCache, grad_S: np.ndarray) -> ParamGrads:
    """Exact gradients of a loss through S = V @ U.T down to the parameters.

    Only E_word rows of tokens present in the batch receive gradient.
    """
    b = cache.V.shape[0]
    grad_S = np.asarray(grad_S, dtype=np.float64)
    if grad_S.shape != (b, b):
        raise ShapeMismatch(f"grad_S must be {(b, b)}, got {grad_S.shape}")

    g_V = grad_S @ cache.U
    g_U = grad_S.T @ cache.V
    g_img_pre = _grad_through_normalize(cache.img_pre, cache.V, g_V)
    g_txt_pre = _grad_through_normalize(cache.txt_pre, cache.U, g_U)

    g_W_img = cache.X.T @ g_img_pre
    g_W_txt = cache.means.T @ g_txt_pre
    g_means = g_txt_pre @ params.W_txt.T

    g_E = np.zeros_like(params.E_word)
    for i, seq in enumerate(cache.token_seqs):
        contrib = g_means[i] / len(seq)
        np.add.at(g_E, np.asarray(seq, dtype=np.int64), contrib)
    return ParamGrads(W_img=g_W_img, E_word=g_E, W_txt=g_W_txt)


def sgd_step(params: ModelParams, grads: ParamGrads, learning_rate: float) -> None:
    """In-place p <- p - lr * g."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    for g in (grads.W_img, grads.E_word, grads.W_txt):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient("gradient contains NaN or inf")
    params.W_img -= learning_rate * grads.W_img
    params.E_word -= learning_rate * grads.E_word
    params.W_txt -= learning_rate * grads.W_txt


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Binary checkpoint: magic, version, shapes, then row-major f64 LE."""
    mats = [params.W_img, params.E_word, params.W_txt]
    with open(Path(path), "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for m in mats:
            fh.write(struct.pack("<II", *m.shape))
        for m in mats:
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> ModelParams:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    header = 8 + 3 * 8
    if len(raw) < header:
        raise TruncatedFile(f"{path}: {len(raw)} bytes, shorter than the checkpoint header")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    shapes = [struct.unpack_from("<II", raw, 8 + 8 * i) for i in range(3)]
    expected = header + 8 * sum(r * c for r, c in shapes)
    if len(raw) < expected:
        raise TruncatedFile(f"{path}: {len(raw)} bytes, but shapes {shapes} need {expected}")
    mats = []
    off = header
    for shape in shapes:
        count = shape[0] * shape[1]
        mats.append(
            np.frombuffer(raw[off : off + 8 * count], dtype="<f8")
            .reshape(shape)
            .copy()
        )
        off += 8 * count
    return ModelParams(*mats)

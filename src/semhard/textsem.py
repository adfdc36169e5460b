"""Corpus semantics: preprocessing, TF-IDF, truncated SVD, row cosines.

The description corpus is turned into a sparse term-document matrix
(raw term count x ln(n/df)) and reduced with a truncated SVD: ARPACK for
large inputs, randomized subspace iteration for small ones. The cosines
of the reduced rows are the semantic similarities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .data import read_matrices, write_matrices
from .errors import AllDocumentsEmpty, BadCheckpoint, ConvergenceFailure, EmptyDataset, KTooLarge
from .stemming import stem
from .stopwords import DEFAULT_STOPWORDS

_TOKEN_RE = re.compile(r"[a-z]+")

EXPORT_MAGIC = b"LSEH"
EXPORT_VERSION = 2

# truncated_svd: the least sketch oversampling, power iterations before the first
# convergence test, the iteration cap, and the relative singular-value tolerance
SVD_OVERSAMPLE = 8
SVD_MIN_ITERS = 4
SVD_MAX_ITERS = 2000
SVD_TOL = 1e-12

# truncated_svd uses ARPACK when min(n, w) exceeds this: below it, ARPACK's
# import costs more time and memory than the subspace iteration it replaces
ARPACK_MIN_DIM = 1000


@dataclass(frozen=True)
class PreprocessConfig:
    min_token_length: int = 3
    stopword_list: frozenset[str] = DEFAULT_STOPWORDS
    stemming_enabled: bool = True

    def __post_init__(self):
        if self.min_token_length < 1:
            raise ValueError("min_token_length must be >= 1")


@dataclass
class TermDocMatrix:
    matrix: sp.csr_matrix     # n_docs x n_terms, TF-IDF weights
    columns: list[list[int]]  # each document's tokens as matrix columns, in order


@dataclass
class ReducedSemantics:
    B: np.ndarray                # n x k reduced description vectors
    singular_values: np.ndarray  # length k, nonincreasing
    V: np.ndarray                # w x k, orthonormal columns


def preprocess(text: str, cfg: PreprocessConfig = PreprocessConfig()) -> list[str]:
    """Lowercase, keep alphabetic runs, drop stopwords, stem, drop short tokens.

    Token order is preserved; a fully filtered text yields [].
    """
    tokens = _TOKEN_RE.findall(text.lower())
    out = []
    for tok in tokens:
        if tok in cfg.stopword_list:
            continue
        if cfg.stemming_enabled:
            tok = stem(tok)
        if len(tok) >= cfg.min_token_length:
            out.append(tok)
    return out


def build_tfidf(docs: list[list[str]]) -> tuple[dict[str, int], TermDocMatrix]:
    """Build the sparse TF-IDF matrix: raw count x ln(n/df), no normalization,
    its term -> column map, and each document's tokens as columns.

    This is the one place the sorted term vocabulary is built. Raises
    EmptyDataset for fewer than 2 documents (one alone has every idf 0),
    and AllDocumentsEmpty when every token sequence is empty; an empty one
    among others is an all-zero row. Rows follow corpus order; columns are
    terms in sorted order.
    """
    if len(docs) < 2:
        raise EmptyDataset(f"TF-IDF needs at least 2 captions, got {len(docs)}")
    lengths = np.fromiter(map(len, docs), np.int64, len(docs))
    if not lengths.any():
        raise AllDocumentsEmpty("every document is empty after preprocessing")

    term_to_index = {t: j for j, t in enumerate(sorted({t for d in docs for t in d}))}
    n, w = len(docs), len(term_to_index)
    columns = [[term_to_index[t] for t in d] for d in docs]
    cols = np.fromiter(chain.from_iterable(columns), np.int64, lengths.sum())
    rows = np.repeat(np.arange(n), lengths)
    tf = sp.csr_matrix((np.ones(cols.size), (rows, cols)), shape=(n, w))
    tf.sum_duplicates()
    df = np.bincount(tf.indices, minlength=w)
    A = tf.multiply(np.log(n / df)[np.newaxis, :]).tocsr()
    return term_to_index, TermDocMatrix(A, columns)


def _canonicalize_signs(V: np.ndarray, B: np.ndarray) -> None:
    """Flip each V column so its largest-magnitude entry is positive."""
    for j in range(V.shape[1]):
        col = V[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            V[:, j] = -col
            B[:, j] = -B[:, j]


def truncated_svd(
    M: sp.spmatrix | np.ndarray,
    k: int,
    seed: int = 0,
) -> ReducedSemantics:
    """Top-k singular triplets, to near machine precision.

    When min(n, w) > ARPACK_MIN_DIM and k < min(n, w), ARPACK
    (`scipy.sparse.linalg.svds`, tol=0) solves it from a seeded start
    vector. Otherwise randomized subspace iteration on k + max(k, SVD_OVERSAMPLE)
    columns runs past SVD_MIN_ITERS until the singular-value estimates change
    by less than SVD_TOL, so it matches a dense SVD even on flat spectra. Either
    way B = M @ V and each V column's largest-magnitude entry is positive.
    Raises ConvergenceFailure when the chosen solver does not converge.
    """
    n, w = M.shape
    if not 1 <= k <= min(n, w):
        raise KTooLarge(f"k={k} exceeds min(n, w)={min(n, w)}")

    rng = np.random.default_rng(seed)
    if min(n, w) > ARPACK_MIN_DIM and k < min(n, w):
        # imported here: loading scipy.sparse.linalg costs about 10 MB RSS and 0.13 s
        from scipy.sparse.linalg import ArpackNoConvergence, svds

        try:
            _, s, Vt = svds(M, k=k, tol=0, v0=rng.standard_normal(min(n, w)),
                            return_singular_vectors="vh")
        except ArpackNoConvergence as exc:
            raise ConvergenceFailure(
                f"ARPACK did not converge for k={k} on a {n}x{w} matrix"
            ) from exc
        return _reduced_semantics(M, s, Vt)

    l = min(k + max(k, SVD_OVERSAMPLE), min(n, w))
    Q = np.linalg.qr(M @ rng.standard_normal((w, l)))[0]

    prev = None
    for it in range(SVD_MAX_ITERS):
        Q = np.linalg.qr(M @ (M.T @ Q))[0]
        if it + 1 < SVD_MIN_ITERS:
            continue
        s = np.linalg.svd(Q.T @ M, compute_uv=False)[:k]
        if prev is not None:
            denom = np.maximum(np.abs(s), 1e-300)
            if np.max(np.abs(s - prev) / denom) < SVD_TOL:
                break
        prev = s
    else:
        raise ConvergenceFailure(
            f"singular values did not stabilize within {SVD_MAX_ITERS} "
            f"iterations for k={k} on a {n}x{w} matrix"
        )

    _, s, Vt = np.linalg.svd(Q.T @ M, full_matrices=False)
    return _reduced_semantics(M, s[:k], Vt[:k])


def _reduced_semantics(M, s: np.ndarray, Vt: np.ndarray) -> ReducedSemantics:
    """Order the k triplets by descending singular value (stable), then
    B = M @ V with canonical column signs."""
    order = np.argsort(-s, kind="stable")
    V = np.ascontiguousarray(Vt[order].T)
    B = np.asarray(M @ V)
    _canonicalize_signs(V, B)
    return ReducedSemantics(B=B, singular_values=s[order], V=V)


def cosine_matrix(rows: np.ndarray) -> np.ndarray:
    """Pairwise cosine of matrix rows; zero rows give zero scores."""
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = rows / safe[:, np.newaxis]
    return unit @ unit.T


def export_semantics(sem: ReducedSemantics, path: str | Path) -> None:
    """Write B and its singular values, a 1 x k row, to one binary matrix file."""
    write_matrices(path, EXPORT_MAGIC, EXPORT_VERSION, [sem.B, sem.singular_values[np.newaxis, :]])


def read_exported_semantics(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read back an exported B matrix and its singular values, one per B column."""
    B, sv = read_matrices(path, EXPORT_MAGIC, EXPORT_VERSION, 2)
    if sv.shape != (1, B.shape[1]):
        raise BadCheckpoint(f"{path}: singular values are {sv.shape}, expected {(1, B.shape[1])}")
    return B, sv[0]

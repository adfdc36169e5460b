"""Corpus semantics: preprocessing, TF-IDF, truncated SVD, row cosines.

The description corpus is turned into a term-document matrix (raw term
count x ln(n/df)) and reduced with a truncated SVD whose route follows the
matrix's form: ARPACK on M^T M for a sparse matrix; for an array, randomized
subspace iteration at small k and one LAPACK SVD otherwise. The cosines of
the reduced rows are the semantic similarities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import read_matrices, write_matrices
from .errors import SemhardError
from .stemming import stem
from .stopwords import DEFAULT_STOPWORDS

if TYPE_CHECKING:
    import scipy.sparse as sp

_TOKEN_RE = re.compile(r"[a-z]+")

EXPORT_MAGIC = b"LSEH"
EXPORT_VERSION = 2

# truncated_svd: the subspace loop's sketch oversampling, which is also the largest k
# the loop serves, its iteration cap, and its relative singular-value tolerance
SVD_OVERSAMPLE = 8
SVD_MAX_ITERS = 2000
SVD_TOL = 1e-12


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
    shape: tuple[int, int]  # n_docs x n_terms
    ids: np.ndarray         # every document's tokens as matrix columns, document-major, as int64
    lengths: np.ndarray     # each document's token count

    def _weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row, column and weight, count x ln(n/df), of every nonzero
        count, in row-major order; both forms are built from this one list."""
        n, w = self.shape
        keys = np.repeat(np.arange(0, n * w, w), self.lengths)  # row * w + col per token
        keys += self.ids
        rows, counts = np.unique(keys, return_counts=True)
        cols = rows % w
        rows //= w  # in place, as the weights below: freed temporaries stay in the heap
        weights = np.log(n / np.bincount(cols, minlength=w))[cols]
        weights *= counts
        return rows, cols, weights

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The TF-IDF weights as a sparse matrix, built on first access."""
        # imported here: `import scipy.sparse` costs about 0.17 s and 20 MB RSS,
        # and only an SVD of a matrix too large for `dense` reads this
        import scipy.sparse as sp

        rows, cols, weights = self._weights()
        indptr = np.searchsorted(rows, np.arange(self.shape[0] + 1))
        return sp.csr_matrix((weights, cols, indptr), shape=self.shape)

    def dense(self) -> np.ndarray:
        """The same TF-IDF weights as `matrix`, as an n x w array."""
        rows, cols, weights = self._weights()
        tf = np.zeros(self.shape)
        tf[rows, cols] = weights
        return tf


@dataclass
class ReducedSemantics:
    B: np.ndarray                # n x k reduced description vectors
    singular_values: np.ndarray  # length k, nonincreasing
    V: np.ndarray                # w x k, orthonormal columns

    @cached_property
    def unit_B(self) -> np.ndarray:
        """B's rows scaled to unit length, computed once: the rows of any
        batch give the same bits as `unit_rows(B[batch])`."""
        return unit_rows(self.B)


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
    """The term -> column map and the TF-IDF term-document matrix: raw count
    x ln(n/df), no normalization, whose sparse form is built only when read.

    This is the one place the sorted term vocabulary is built. Fewer than
    2 documents fail (one alone has every idf 0).
    An empty document is an all-zero row, and a corpus of them has no
    column; `trainer.prepare_text` rejects either at its caption. Rows
    follow corpus order; columns are terms in sorted order.
    """
    if len(docs) < 2:
        raise SemhardError(f"TF-IDF needs at least 2 captions, got {len(docs)}")
    lengths = np.fromiter(map(len, docs), np.int64, len(docs))

    term_to_index = {t: j for j, t in enumerate(sorted({t for d in docs for t in d}))}
    ids = np.fromiter((term_to_index[t] for d in docs for t in d), np.int64, lengths.sum())
    return term_to_index, TermDocMatrix((len(docs), len(term_to_index)), ids, lengths)


def truncated_svd(
    M: sp.spmatrix | np.ndarray,
    k: int,
    seed: int = 0,
) -> ReducedSemantics:
    """Top-k singular triplets, to near machine precision, by the route M's form picks:

    - a SciPy sparse matrix goes to ARPACK (`scipy.sparse.linalg.eigsh`, tol=0,
      seeded start vector) on the w x w operator M^T M: V is its top k
      eigenvectors and sigma = sqrt(max(lambda, 0));
    - a NumPy array goes to randomized subspace iteration when k <= SVD_OVERSAMPLE
      and its sketch of k + SVD_OVERSAMPLE columns is narrower than min(n, w),
      and to one LAPACK SVD (`np.linalg.svd`) of M itself otherwise. The loop
      runs until the singular-value estimates change by at most SVD_TOL. They
      then match a dense SVD's even on flat spectra; their error is the square
      of the subspace's, so B is good to about sqrt(SVD_TOL).

    Every route needs 1 <= k < min(n, w), the rank ARPACK can compute, and
    gives B = M @ V with each V column's largest-magnitude entry positive.
    Any other k fails, and so does a subspace iteration that does not
    converge or an ARPACK call that fails.
    """
    n, w = M.shape
    dense = isinstance(M, np.ndarray)
    if not 1 <= k < min(n, w):
        raise SemhardError(f"k={k} is outside 1..{min(n, w) - 1} for the SVD of a {n}x{w}"
                           f" {'array' if dense else 'sparse matrix'}")

    rng = np.random.default_rng(seed)
    if not dense:
        # imported here: loading scipy.sparse.linalg costs about 10 MB RSS and 0.13 s
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        MT = M.T  # built once, not per product; the stored transpose also multiplies faster
        gram = LinearOperator((w, w), matvec=lambda x: MT @ (M @ x), dtype=M.dtype)
        try:
            lam, V = eigsh(gram, k=k, tol=0, v0=rng.standard_normal(w))
        except ArpackError as exc:
            raise SemhardError(f"ARPACK failed for k={k} on a {n}x{w} matrix: {exc}") from exc
        return _reduced_semantics(M, np.sqrt(np.maximum(lam, 0)), V.T)

    Y = M
    if k <= SVD_OVERSAMPLE and k + SVD_OVERSAMPLE < min(n, w):
        # Y = Q.T @ M serves the next step, the convergence test and the final SVD
        Y = np.linalg.qr(M @ rng.standard_normal((w, k + SVD_OVERSAMPLE)))[0].T @ M
        prev = np.inf
        for _ in range(SVD_MAX_ITERS):
            Y = np.linalg.qr(M @ Y.T)[0].T @ M
            s = np.linalg.svd(Y, compute_uv=False)[:k]
            if np.all(np.abs(s - prev) <= SVD_TOL * s):
                break
            prev = s
        else:
            raise SemhardError(
                f"singular values did not stabilize within {SVD_MAX_ITERS} "
                f"iterations for k={k} on a {n}x{w} matrix"
            )

    _, s, Vt = np.linalg.svd(Y, full_matrices=False)
    return _reduced_semantics(M, s[:k], Vt[:k])


def _reduced_semantics(M, s: np.ndarray, Vt: np.ndarray) -> ReducedSemantics:
    """Order the k triplets by descending singular value (stable), flip each
    V column so its largest-magnitude entry is positive, then B = M @ V."""
    order = np.argsort(-s, kind="stable")
    V = Vt.T.take(order, axis=1)  # the one copy, C-ordered
    V *= np.where(V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])] < 0, -1.0, 1.0)
    return ReducedSemantics(B=np.asarray(M @ V), singular_values=s[order], V=V)


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """The rows scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(rows, axis=1)
    return rows / np.where(norms > 0, norms, 1.0)[:, np.newaxis]


def cosine_matrix(rows: np.ndarray) -> np.ndarray:
    """Pairwise cosine of matrix rows; zero rows give zero scores."""
    unit = unit_rows(rows)
    return unit @ unit.T


def export_semantics(sem: ReducedSemantics, path: str | Path) -> None:
    """Write B and its singular values, a 1 x k row, to one binary matrix file."""
    write_matrices(path, EXPORT_MAGIC, EXPORT_VERSION, [sem.B, sem.singular_values[np.newaxis, :]])


def read_exported_semantics(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read back an exported B matrix and its singular values, one per B column."""
    B, sv = read_matrices(path, EXPORT_MAGIC, EXPORT_VERSION, 2)
    if sv.shape != (1, B.shape[1]):
        raise SemhardError(f"{path}: singular values are {sv.shape}, expected {(1, B.shape[1])}")
    return B, sv[0]

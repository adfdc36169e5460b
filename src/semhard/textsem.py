"""Corpus semantics: preprocessing, TF-IDF, truncated SVD, row cosines.

The description corpus is turned into a sparse term-document matrix
(raw term count x ln(n/df)) and reduced with a randomized truncated SVD;
the cosines of the reduced rows are the semantic similarities.
"""

from __future__ import annotations

import re
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import AllDocumentsEmpty, ConvergenceFailure, KTooLarge
from .stemming import stem
from .stopwords import DEFAULT_STOPWORDS

_TOKEN_RE = re.compile(r"[a-z]+")

EXPORT_MAGIC = b"LSEH"
EXPORT_VERSION = 1

# truncated_svd: extra sketch columns, power iterations before the first
# convergence test, the iteration cap, and the relative singular-value tolerance
SVD_OVERSAMPLE = 8
SVD_MIN_ITERS = 4
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
class Vocabulary:
    term_to_index: dict[str, int]
    document_frequency: np.ndarray  # per-term, aligned with column index
    n_documents: int


@dataclass
class TermDocMatrix:
    matrix: sp.csr_matrix  # n_docs x n_terms, TF-IDF weights

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass
class ReducedSemantics:
    B: np.ndarray                # n x k reduced description vectors
    singular_values: np.ndarray  # length k, nonincreasing
    V: np.ndarray                # w x k, orthonormal columns

    @property
    def n_rows(self) -> int:
        return self.B.shape[0]


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


def build_tfidf(docs: list[list[str]]) -> tuple[Vocabulary, TermDocMatrix]:
    """Build the sparse TF-IDF matrix: raw count x ln(n/df), no normalization.

    Raises AllDocumentsEmpty when every token sequence is empty.
    Rows follow corpus order; columns are terms in sorted order.
    """
    if len(docs) < 2:
        raise ValueError("need at least 2 documents")
    if all(len(d) == 0 for d in docs):
        raise AllDocumentsEmpty("every document is empty after preprocessing")

    terms = sorted({t for d in docs for t in d})
    term_to_index = {t: j for j, t in enumerate(terms)}
    n, w = len(docs), len(terms)

    df = np.zeros(w, dtype=np.int64)
    rows, cols, vals = [], [], []
    empty_rows = []
    for i, doc in enumerate(docs):
        if not doc:
            empty_rows.append(i)
            continue
        counts: dict[int, int] = {}
        for t in doc:
            counts[term_to_index[t]] = counts.get(term_to_index[t], 0) + 1
        for j in sorted(counts):
            df[j] += 1
            rows.append(i)
            cols.append(j)
            vals.append(float(counts[j]))
    if empty_rows:
        warnings.warn(
            f"{len(empty_rows)} description(s) empty after preprocessing; "
            "kept as all-zero rows",
            stacklevel=2,
        )

    idf = np.log(n / df)
    tf = sp.csr_matrix(
        (vals, (rows, cols)), shape=(n, w), dtype=np.float64
    )
    A = tf.multiply(idf[np.newaxis, :]).tocsr()
    vocab = Vocabulary(term_to_index, df, n)
    return vocab, TermDocMatrix(A)


def _canonicalize_signs(V: np.ndarray, B: np.ndarray) -> None:
    """Flip each V column so its largest-magnitude entry is positive."""
    for j in range(V.shape[1]):
        col = V[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            V[:, j] = -col
            B[:, j] = -B[:, j]


def truncated_svd(
    A: TermDocMatrix | sp.spmatrix | np.ndarray,
    k: int,
    seed: int = 0,
) -> ReducedSemantics:
    """Top-k singular triplets via randomized subspace iteration.

    Power iterations continue past SVD_MIN_ITERS until the singular-value
    estimates stabilize below SVD_TOL relative change, so the result
    matches a dense SVD to high accuracy even on flat spectra.
    """
    M = A.matrix if isinstance(A, TermDocMatrix) else A
    n, w = M.shape
    if not 1 <= k <= min(n, w):
        raise KTooLarge(f"k={k} exceeds min(n, w)={min(n, w)}")

    rng = np.random.default_rng(seed)
    l = min(k + SVD_OVERSAMPLE, min(n, w))
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
            f"singular values did not stabilize within {SVD_MAX_ITERS} iterations"
        )

    _, s, Vt = np.linalg.svd(Q.T @ M, full_matrices=False)
    V = np.ascontiguousarray(Vt[:k].T)
    B = np.asarray(M @ V)
    _canonicalize_signs(V, B)
    return ReducedSemantics(B=B, singular_values=s[:k].copy(), V=V)


def cosine_matrix(rows: np.ndarray) -> np.ndarray:
    """Pairwise cosine of matrix rows; zero rows give zero scores."""
    norms = np.linalg.norm(rows, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = rows / safe[:, np.newaxis]
    return unit @ unit.T


def export_semantics(sem: ReducedSemantics, path: str | Path) -> None:
    """Write B as binary (magic, version, n, k, row-major f64 LE) plus a
    sidecar `<path>.sv` text file of singular values, one per line."""
    path = Path(path)
    n, k = sem.B.shape
    with open(path, "wb") as fh:
        fh.write(EXPORT_MAGIC)
        fh.write(struct.pack("<III", EXPORT_VERSION, n, k))
        fh.write(np.ascontiguousarray(sem.B, dtype="<f8").tobytes())
    sidecar = path.with_name(path.name + ".sv")
    sidecar.write_text(
        "".join(f"{v!r}\n" for v in sem.singular_values.tolist()),
        encoding="utf-8",
    )


def read_exported_semantics(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read back an exported B matrix and its sidecar singular values."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != EXPORT_MAGIC:
        raise ValueError("bad magic in semantics export")
    version, n, k = struct.unpack("<III", raw[4:16])
    if version != EXPORT_VERSION:
        raise ValueError(f"unsupported export version {version}")
    B = np.frombuffer(raw[16:], dtype="<f8").reshape(n, k).copy()
    sidecar = path.with_name(path.name + ".sv")
    sv = np.array(
        [float(line) for line in sidecar.read_text().split()], dtype=np.float64
    )
    return B, sv

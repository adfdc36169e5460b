import math
import re
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from semhard import textsem
from semhard.data import SyntheticSpec, generate_synthetic, split_dataset, write_matrices
from semhard.errors import (AllDocumentsEmpty, BadCheckpoint, ConvergenceFailure, KTooLarge,
                            SemhardError)
from semhard.stemming import stem
from semhard.textsem import (
    PreprocessConfig,
    build_tfidf,
    cosine_matrix,
    export_semantics,
    preprocess,
    read_exported_semantics,
    truncated_svd,
)

# Frozen reference table: classic Porter outputs, traced by hand from the
# algorithm's published step examples.
PORTER_REFERENCE = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "valenci": "valenc",
    "hesitanci": "hesit", "digitizer": "digit", "conformabli": "conform",
    "radicalli": "radic", "differentli": "differ", "vileli": "vile",
    "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good", "revival": "reviv", "allowance": "allow",
    "inference": "infer", "airliner": "airlin", "gyroscopic": "gyroscop",
    "adjustable": "adjust", "defensible": "defens", "irritant": "irrit",
    "replacement": "replac", "adjustment": "adjust", "dependent": "depend",
    "adoption": "adopt", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog", "effective": "effect",
    "bowdlerize": "bowdler", "probate": "probat", "rate": "rate",
    "cease": "ceas", "controll": "control", "roll": "roll",
    "running": "run", "runner": "runner", "generalization": "gener",
    "oscillators": "oscil", "opinion": "opinion", "is": "is",
}


def dense_svd_oracle(A, k):
    U, s, Vt = np.linalg.svd(np.asarray(A), full_matrices=False)
    return s[:k]


class TestPreprocess:
    def test_direct_rule_application(self):
        cfg = PreprocessConfig(
            min_token_length=3,
            stopword_list=frozenset({"a", "in"}),
            stemming_enabled=False,
        )
        assert preprocess("A man, in RED!", cfg) == ["man", "red"]

    def test_empty_input(self):
        assert preprocess("") == []

    @pytest.mark.parametrize("word,expected", sorted(PORTER_REFERENCE.items()))
    def test_stemmer_reference_table(self, word, expected):
        assert stem(word) == expected

    def test_stemming_applied_in_pipeline(self):
        cfg = PreprocessConfig(stopword_list=frozenset(), min_token_length=1)
        assert preprocess("running runners", cfg) == ["run", "runner"]

    def test_order_preserved(self):
        cfg = PreprocessConfig(stopword_list=frozenset(), stemming_enabled=False)
        assert preprocess("zebra apple mango", cfg) == ["zebra", "apple", "mango"]

    def test_min_token_length_validated(self):
        with pytest.raises(ValueError):
            PreprocessConfig(min_token_length=0)

    def test_memoized_stem_gives_the_same_tokens(self, monkeypatch):
        captions = generate_synthetic(SyntheticSpec(n_clusters=4, seed=2)).captions
        stem.cache_clear()
        memoized = [preprocess(c) for c in captions]
        assert stem.cache_info().hits > 0
        monkeypatch.setattr(textsem, "stem", stem.__wrapped__)
        assert [preprocess(c) for c in captions] == memoized


def train_split_docs(val_fraction, seed):
    """The preprocessed captions of a default synthetic corpus's train split:
    800 at val_fraction 0.15, and the criterion-6 600 at 0.4."""
    train, _ = split_dataset(generate_synthetic(SyntheticSpec(seed=seed)), val_fraction, seed)
    return [preprocess(c) for c in train.captions]


def train_split_tfidf(val_fraction, seed):
    """The TF-IDF of a default synthetic corpus's train split: 800 x 500 at
    val_fraction 0.15, and the criterion-6 600 x 500 at 0.4."""
    return build_tfidf(train_split_docs(val_fraction, seed))[1]


def tfidf_oracle(docs):
    """count x ln(n/df) by loops: a Counter per document, df counted by hand,
    and columns in sorted term order."""
    column = {t: j for j, t in enumerate(sorted({t for d in docs for t in d}))}
    df = dict.fromkeys(column, 0)
    for d in docs:
        for t in set(d):
            df[t] += 1
    out = np.zeros((len(docs), len(column)))
    for i, d in enumerate(docs):
        for t, count in Counter(d).items():
            out[i, column[t]] = count * math.log(len(docs) / df[t])
    return out


SMALL_DOCS = pytest.mark.parametrize("docs", [
    [["a", "a", "b"], [], ["b", "c", "c", "c"], ["a"], ["c", "b", "c"]],
    [["x"], ["x"]],
], ids=["repeats-and-empty-row", "uniform-term"])


class TestBuildTfidf:
    @SMALL_DOCS
    def test_dense_form_matches_a_loop_oracle(self, docs):
        np.testing.assert_array_max_ulp(build_tfidf(docs)[1].dense(), tfidf_oracle(docs), 1)

    def test_criterion_6_split_matches_a_loop_oracle(self):
        docs = train_split_docs(0.4, 1000)
        tdm = build_tfidf(docs)[1]
        assert tdm.shape == (600, 500)
        np.testing.assert_array_max_ulp(tdm.dense(), tfidf_oracle(docs), 1)
        # ARPACK's products follow the stored order: sorted, duplicate-free int32 indices
        assert tdm.matrix.has_canonical_format
        assert tdm.matrix.indices.dtype == tdm.matrix.indptr.dtype == np.int32

    @SMALL_DOCS
    def test_dense_form_is_the_sparse_matrix_bit_for_bit(self, docs):
        _, tdm = build_tfidf(docs)
        dense, sparse = tdm.dense(), tdm.matrix.toarray()
        assert dense.dtype == sparse.dtype == np.float64
        assert np.array_equal(dense.view(np.int64), sparse.view(np.int64))

    def test_dense_form_of_a_train_split(self):
        tdm = train_split_tfidf(0.4, 1000)
        assert tdm.shape == (600, 500)
        assert np.array_equal(tdm.dense().view(np.int64), tdm.matrix.toarray().view(np.int64))

    def test_uniform_term_gives_zero_idf(self):
        _, tdm = build_tfidf([["x"], ["x"]])
        assert tdm.matrix.toarray().max() == 0.0

    def test_hand_computed_two_by_two(self):
        # doc0 = [a, a], doc1 = [b]; idf = ln(2/1) for both terms
        vocab, tdm = build_tfidf([["a", "a"], ["b"]])
        A = tdm.matrix.toarray()
        ln2 = np.log(2.0)
        expected = np.array([[2.0 * ln2, 0.0], [0.0, 1.0 * ln2]])
        ja, jb = vocab["a"], vocab["b"]
        assert A[0, ja] == pytest.approx(2.0 * ln2)
        assert A[1, jb] == pytest.approx(ln2)
        assert np.allclose(np.sort(A.ravel()), np.sort(expected.ravel()))

    def test_shape_contract(self):
        docs = [["cat", "dog"], ["dog"], ["bird"], ["cat"], ["fish", "cat"]]
        vocab, tdm = build_tfidf(docs)
        assert tdm.matrix.shape == (5, 4)
        assert sorted(vocab.values()) == list(range(4))

    def test_ids_are_one_array_in_document_order(self):
        docs = [["cat", "dog", "cat"], [], ["bird"], ["fish", "cat"]]
        vocab, tdm = build_tfidf(docs)
        assert tdm.ids.dtype == np.int64
        assert tdm.ids.tolist() == [vocab[t] for d in docs for t in d]
        assert tdm.lengths.tolist() == [3, 0, 1, 2]

    def test_all_documents_empty(self):
        with pytest.raises(AllDocumentsEmpty):
            build_tfidf([[], []])

    def test_empty_row_warns_and_stays_zero(self):
        _, tdm = build_tfidf([["a"], [], ["b"]])
        assert tdm.matrix.getrow(1).nnz == 0


class TestTruncatedSvd:
    def test_identity_matrix(self):
        sem = truncated_svd(np.eye(3), 2)
        assert np.allclose(sem.singular_values, [1.0, 1.0])
        # rows of B are orthonormal up to sign
        G = sem.B @ sem.B.T
        assert np.allclose(np.abs(np.diag(G)).max(), 1.0, atol=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((50, 200))
        sem = truncated_svd(A, 10, seed=1)
        s_true = dense_svd_oracle(A, 10)
        assert np.max(np.abs(sem.singular_values - s_true) / s_true) < 1e-8

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(3)
        A = np.outer(rng.standard_normal(20), rng.standard_normal(30))
        A += np.outer(rng.standard_normal(20), rng.standard_normal(30))
        sem = truncated_svd(A, 2, seed=0)
        recon = sem.B @ sem.V.T
        assert np.linalg.norm(A - recon, "fro") <= 1e-8

    def test_k_too_large(self):
        # every form needs k < min(n, w), the rank trainer.semantics asks for
        for k in (4, 5):
            with pytest.raises(KTooLarge, match=rf"k={k} is outside 1\.\.3 .* 4x4 array"):
                truncated_svd(np.eye(4), k)

    def test_v_orthonormal_and_b_equals_av(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((30, 40))
        sem = truncated_svd(A, 6, seed=2)
        G = sem.V.T @ sem.V
        assert np.allclose(G, np.eye(6), atol=1e-8)
        assert np.allclose(sem.B, A @ sem.V, atol=1e-8)

    def test_eckart_young_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            n = int(rng.integers(10, 61))
            w = int(rng.integers(10, 61))
            k = int(rng.integers(1, min(n, w)))
            A = rng.standard_normal((n, w))
            sem = truncated_svd(A, k, seed=0)
            resid = np.linalg.norm(A - sem.B @ sem.V.T, "fro") ** 2
            s = np.linalg.svd(A, compute_uv=False)
            tail = float(np.sum(s[k:] ** 2))
            assert resid == pytest.approx(tail, rel=1e-6, abs=1e-9)

    def test_row_permutation_permutes_b(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((12, 20))
        perm = rng.permutation(12)
        sem = truncated_svd(A, 4, seed=0)
        sem_p = truncated_svd(A[perm], 4, seed=0)
        assert np.allclose(sem_p.B, sem.B[perm], atol=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((25, 30))
        a = truncated_svd(A, 5, seed=9)
        b = truncated_svd(A, 5, seed=9)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.singular_values, b.singular_values)

    @pytest.mark.parametrize("form,k", [(np.asarray, 3), (np.asarray, 19), (sp.csr_matrix, 3)],
                             ids=["loop", "lapack", "arpack"])
    def test_each_v_column_peaks_positive(self, form, k):
        # the sign rule every route shares: V's largest-magnitude entry per column is positive
        M = form(np.random.default_rng(23).standard_normal((30, 20)))
        sem = truncated_svd(M, k, seed=0)
        assert (sem.V[np.abs(sem.V).argmax(axis=0), np.arange(k)] > 0).all()
        assert np.array_equal(sem.B, M @ sem.V)

    def test_nonincreasing_singular_values(self):
        rng = np.random.default_rng(19)
        sem = truncated_svd(rng.standard_normal((20, 25)), 8, seed=0)
        assert np.all(np.diff(sem.singular_values) <= 1e-12)


class TestArpackPath:
    """Every sparse matrix goes to ARPACK's eigsh on the w x w operator M^T M,
    whatever its shape; an array never does."""

    K = 16

    @pytest.fixture(scope="class")
    def sparse(self):
        A = sp.random(1200, 1100, density=0.01, format="csr", random_state=3)
        return A, np.linalg.svd(A.toarray(), compute_uv=False)

    @pytest.fixture
    def eigsh_calls(self, monkeypatch):
        import scipy.sparse.linalg

        calls, real = [], scipy.sparse.linalg.eigsh

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        return calls

    def test_matches_dense_oracle(self, sparse, eigsh_calls):
        A, s_true = sparse
        sem = truncated_svd(A, self.K, seed=4)
        assert eigsh_calls == [(1100, 1100)]
        assert np.allclose(sem.singular_values, s_true[: self.K], rtol=1e-8, atol=0)
        assert np.array_equal(sem.B, A @ sem.V)
        assert np.allclose(sem.V.T @ sem.V, np.eye(self.K), atol=1e-10)

    def test_low_rank_residual_identity(self, sparse):
        A, s_true = sparse
        sem = truncated_svd(A, self.K, seed=4)
        dense = A.toarray()
        resid = np.linalg.norm(dense - sem.B @ sem.V.T, "fro") ** 2
        expect = np.linalg.norm(dense, "fro") ** 2 - np.sum(s_true[: self.K] ** 2)
        assert abs(resid - expect) / np.linalg.norm(dense, "fro") ** 2 <= 1e-10

    def test_same_seed_bit_identical(self, sparse):
        A, _ = sparse
        a = truncated_svd(A, self.K, seed=4)
        b = truncated_svd(A, self.K, seed=4)
        for x, y in ((a.B, b.B), (a.V, b.V), (a.singular_values, b.singular_values)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("shape,k", [((30, 20), 2), ((30, 20), 15), ((30, 20), 19),
                                         ((600, 500), 8), ((200, 500), 50)],
                             ids=["30x20-k2", "30x20-k15", "30x20-k19", "600x500-k8",
                                  "200x500-k50-wide"])
    def test_every_sparse_input_goes_to_eigsh(self, eigsh_calls, shape, k):
        # all under 1000 x 1000; k=15 on 30 x 20 would be one LAPACK SVD for an
        # array; a wide input's operator is still w x w, with w - n zero eigenvalues
        A = sp.random(*shape, density=0.2, format="csr", random_state=8)
        sem = truncated_svd(A, k, seed=0)
        assert eigsh_calls == [(shape[1], shape[1])]
        U, s, _ = np.linalg.svd(A.toarray(), full_matrices=False)
        assert np.allclose(sem.singular_values, s[:k], rtol=1e-10)
        assert np.max(np.abs(cosine_matrix(sem.B) - cosine_matrix(U[:, :k] * s[:k]))) < 1e-9

    def test_k_above_the_rank_clamps_negative_eigenvalues(self, eigsh_calls):
        # rank 5: ARPACK returns eigenvalues of M^T M a little below 0 for the rest
        rng = np.random.default_rng(0)
        A = sp.csr_matrix(rng.standard_normal((60, 5)) @ rng.standard_normal((5, 40)))
        sem = truncated_svd(A, 12, seed=0)
        assert eigsh_calls == [(40, 40)]
        s = sem.singular_values
        assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
        assert np.allclose(s[:5], dense_svd_oracle(A.toarray(), 5), rtol=1e-10)
        assert np.all(np.isfinite(sem.B))

    def test_sparse_route_makes_no_dense_svd(self, sparse, monkeypatch):
        # V is eigsh's eigenvectors: no dense SVD runs, and no svds, which ends in a
        # dense SVD of the n x k block M @ V that set the peak memory of `svd`
        import scipy.linalg
        import scipy.sparse.linalg

        calls = []
        for module, name in ((np.linalg, "svd"), (scipy.linalg, "svd"),
                             (scipy.sparse.linalg, "svds")):
            monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a))
        truncated_svd(sparse[0], self.K, seed=4)
        assert calls == []

    def test_zero_matrix_is_a_semhard_error(self):
        # ARPACK stops on a zero start vector after the first product with M^T M
        with pytest.raises(SemhardError, match=r"k=8 on a 1200x1000 matrix"):
            truncated_svd(sp.csr_matrix((1200, 1000)), 8)

    def test_sparse_input_at_full_rank_k_is_k_too_large(self, eigsh_calls):
        A = sp.csr_matrix(np.random.default_rng(8).standard_normal((30, 20)))
        with pytest.raises(KTooLarge, match=r"k=20 is outside 1\.\.19 .* 30x20 sparse matrix"):
            truncated_svd(A, 20, seed=0)
        assert eigsh_calls == []

    def test_an_array_never_reaches_eigsh(self, eigsh_calls):
        # k=8 runs the loop; k=29 is one LAPACK SVD
        A = np.random.default_rng(6).standard_normal((40, 30))
        for k in (8, 29):
            sem = truncated_svd(A, k, seed=0)
            assert np.allclose(sem.singular_values, dense_svd_oracle(A, k), rtol=1e-8)
        assert eigsh_calls == []

    def test_no_convergence_is_convergence_failure(self, sparse, monkeypatch):
        import scipy.sparse.linalg

        def stalls(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", None, None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalls)
        with pytest.raises(ConvergenceFailure, match=r"k=16 on a 1200x1100"):
            truncated_svd(sparse[0], self.K, seed=4)


class TestDenseRoutes:
    """A NumPy array goes to the subspace iteration when k <= SVD_OVERSAMPLE
    and its sketch is narrower than the array, and to one LAPACK SVD
    otherwise. Both match a dense oracle's singular values to 1e-10."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls, real = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    @staticmethod
    def cosine_error(A, sem, k):
        """Largest cosine error of B's rows against the oracle's U_k S_k,
        after checking the singular values and B = A @ V."""
        U, s, _ = np.linalg.svd(A if isinstance(A, np.ndarray) else A.toarray(),
                                full_matrices=False)
        assert np.max(np.abs(sem.singular_values - s[:k]) / s[:k]) < 1e-10
        assert np.array_equal(sem.B, A @ sem.V)
        return np.max(np.abs(cosine_matrix(sem.B) - cosine_matrix(U[:, :k] * s[:k])))

    @pytest.mark.parametrize("k", [9, 16, 64, 150, 400])
    def test_k_above_oversample_is_one_lapack_svd(self, qr_calls, k):
        # the default 800 x 500 train split; k=400 is the default svd_k
        A = train_split_tfidf(0.15, 0).dense()
        sem = truncated_svd(A, k, seed=0)
        assert qr_calls == []
        assert self.cosine_error(A, sem, k) < 1e-9

    @pytest.mark.parametrize("seed", [1000, 1003])
    def test_loop_at_the_criterion_6_shape(self, qr_calls, seed):
        # k=8 on a 600 x 500 criterion-6 train split: l = 16. The loop stops
        # when its singular values settle to SVD_TOL; their error is the
        # square of the subspace's, so B's cosines are good to about
        # sqrt(SVD_TOL) (4.6e-7 to 7.6e-7 on seeds 1000 to 1003)
        tdm = train_split_tfidf(0.4, seed)
        A = tdm.dense()
        sem = truncated_svd(A, 8, seed=seed)
        assert len(qr_calls) > 1  # the loop ran
        assert self.cosine_error(A, sem, 8) < 1e-5
        # the same split as a sparse matrix goes to ARPACK, which meets the 1e-9 gate
        assert self.cosine_error(tdm.matrix, truncated_svd(tdm.matrix, 8, seed=seed), 8) < 1e-9

    def test_loop_at_its_iteration_cap_is_convergence_failure(self, monkeypatch):
        monkeypatch.setattr(textsem, "SVD_MAX_ITERS", 1)
        A = np.random.default_rng(9).standard_normal((40, 30))
        with pytest.raises(ConvergenceFailure, match=r"k=3 on a 40x30 matrix"):
            truncated_svd(A, 3)


class TestSemanticSimilarity:
    """Similarity of two documents is the cosine of their rows of B, read
    off `cosine_matrix(B)[i, j]`."""

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        B = rng.standard_normal((6, 4))
        G = cosine_matrix(B)
        for j in [0, 1, 3, 4, 5]:
            naive = float(B[2] @ B[j]) / (np.linalg.norm(B[2]) * np.linalg.norm(B[j]))
            assert G[2, j] == pytest.approx(naive, abs=1e-12)

    def test_zero_row_scores_zero(self):
        G = cosine_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert G[0, 1] == 0.0
        assert G[1, 0] == 0.0

    def test_cosine_bounds(self):
        rng = np.random.default_rng(29)
        G = cosine_matrix(rng.standard_normal((40, 5)))
        assert np.all(G >= -1 - 1e-12)
        assert np.all(G <= 1 + 1e-12)


class TestCosineMatrix:
    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(31)
        G = cosine_matrix(rng.standard_normal((7, 3)))
        assert np.allclose(np.diag(G), 1.0)
        assert np.allclose(G, G.T)

    def test_identical_rows(self):
        G = cosine_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert G[0, 1] == pytest.approx(1.0)

    def test_antipodal_rows(self):
        G = cosine_matrix(np.array([[1.0, 2.0], [-1.0, -2.0]]))
        assert G[0, 1] == pytest.approx(-1.0)

    def test_zero_row_gives_zeros(self):
        G = cosine_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert G[0, 0] == 0.0
        assert G[0, 1] == 0.0


class TestExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((15, 20))
        sem = truncated_svd(A, 4, seed=0)
        path = tmp_path / "sem.bin"
        export_semantics(sem, path)
        B, sv = read_exported_semantics(path)
        assert np.array_equal(B, sem.B)
        assert np.array_equal(sv, sem.singular_values)

    def test_header_layout(self, tmp_path):
        sem = truncated_svd(np.eye(5), 2, seed=0)
        path = tmp_path / "sem.bin"
        export_semantics(sem, path)
        raw = path.read_bytes()
        assert raw[:4] == b"LSEH"
        assert len(raw) == 24 + (5 * 2 + 2) * 8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sem.bin"]

    def test_bytes_follow_the_format(self, tmp_path):
        sem = truncated_svd(np.random.default_rng(38).standard_normal((9, 7)), 3, seed=0)
        path = tmp_path / "sem.bin"
        export_semantics(sem, path)
        mats = [sem.B, sem.singular_values[np.newaxis, :]]
        expected = (
            b"LSEH" + struct.pack("<I", textsem.EXPORT_VERSION)
            + b"".join(struct.pack("<II", *m.shape) for m in mats)
            + b"".join(m.tobytes() for m in mats)
        )
        assert path.read_bytes() == expected

    def test_writes_b_without_a_copy(self, tmp_path):
        # the file is written from B's own buffer: a bytes copy would add B.nbytes
        B = np.random.default_rng(39).standard_normal((5000, 64))
        sem = textsem.ReducedSemantics(B=B, singular_values=np.arange(64.0, 0, -1), V=np.eye(64))
        tracemalloc.start()
        try:
            export_semantics(sem, tmp_path / "sem.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < B.nbytes / 8
        assert np.array_equal(read_exported_semantics(tmp_path / "sem.bin")[0], B)

    def test_version_1_file_names_the_path(self, tmp_path):
        # version 1 held B alone, with its singular values in a text sidecar
        path = tmp_path / "sem.bin"
        write_matrices(path, textsem.EXPORT_MAGIC, 1, [np.eye(5)[:, :2]])
        with pytest.raises(BadCheckpoint, match=re.escape(f"{path}: unsupported version 1")):
            read_exported_semantics(path)

    @pytest.mark.parametrize("k", [1, 3])
    def test_singular_values_must_be_one_row_of_k(self, tmp_path, k):
        path = tmp_path / "sem.bin"
        B = truncated_svd(np.eye(5), 2, seed=0).B
        write_matrices(path, textsem.EXPORT_MAGIC, textsem.EXPORT_VERSION, [B, np.ones((1, k))])
        with pytest.raises(BadCheckpoint, match=re.escape(f"{path}: singular values")):
            read_exported_semantics(path)

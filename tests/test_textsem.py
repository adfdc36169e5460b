import numpy as np
import pytest

from semhard.errors import AllDocumentsEmpty, KTooLarge
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
    "oscillators": "oscil",
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


class TestBuildTfidf:
    def test_uniform_term_gives_zero_idf(self):
        _, tdm = build_tfidf([["x"], ["x"]])
        assert tdm.matrix.toarray().max() == 0.0

    def test_hand_computed_two_by_two(self):
        # doc0 = [a, a], doc1 = [b]; idf = ln(2/1) for both terms
        vocab, tdm = build_tfidf([["a", "a"], ["b"]])
        A = tdm.matrix.toarray()
        ln2 = np.log(2.0)
        expected = np.array([[2.0 * ln2, 0.0], [0.0, 1.0 * ln2]])
        ja, jb = vocab.term_to_index["a"], vocab.term_to_index["b"]
        assert A[0, ja] == pytest.approx(2.0 * ln2)
        assert A[1, jb] == pytest.approx(ln2)
        assert np.allclose(np.sort(A.ravel()), np.sort(expected.ravel()))

    def test_shape_contract(self):
        docs = [["cat", "dog"], ["dog"], ["bird"], ["cat"], ["fish", "cat"]]
        vocab, tdm = build_tfidf(docs)
        assert tdm.shape == (5, 4)
        assert vocab.n_documents == 5
        assert sorted(vocab.term_to_index.values()) == list(range(4))

    def test_all_documents_empty(self):
        with pytest.raises(AllDocumentsEmpty):
            build_tfidf([[], []])

    def test_empty_row_warns_and_stays_zero(self):
        with pytest.warns(UserWarning):
            _, tdm = build_tfidf([["a"], [], ["b"]])
        assert tdm.matrix.getrow(1).nnz == 0

    def test_document_frequency_bounds(self):
        vocab, _ = build_tfidf([["a", "b"], ["b"], ["b", "c"]])
        assert np.all(vocab.document_frequency >= 1)
        assert np.all(vocab.document_frequency <= vocab.n_documents)


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
        with pytest.raises(KTooLarge):
            truncated_svd(np.eye(4), 5)

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

    def test_nonincreasing_singular_values(self):
        rng = np.random.default_rng(19)
        sem = truncated_svd(rng.standard_normal((20, 25)), 8, seed=0)
        assert np.all(np.diff(sem.singular_values) <= 1e-12)


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
        assert len(raw) == 16 + 5 * 2 * 8
        assert (tmp_path / "sem.bin.sv").exists()

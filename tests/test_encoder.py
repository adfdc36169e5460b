import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from semhard import data
from semhard import encoder as enc
from semhard.errors import SemhardError
from semhard.losses import LossConfig, SimilarityBlock, compute_loss
from semhard.textsem import export_semantics, read_exported_semantics, truncated_svd
from semhard.trainer import traps


def make_params(d_img=5, vocab=7, d_word=4, d_emb=6, seed=0):
    return enc.init_params(d_img, vocab, d_word=d_word, d_emb=d_emb, seed=seed)


def save_params(seed, path):
    """Write a seeded checkpoint; returns its first matrix."""
    params = make_params(seed=seed)
    enc.save_checkpoint(params, path)
    return params.W_img


def save_semantics(seed, path):
    """Write a seeded semantics export; returns its matrix B."""
    sem = truncated_svd(np.random.default_rng(seed).standard_normal((6, 5)), 3, seed=0)
    export_semantics(sem, path)
    return sem.B


# Both binary matrix files: a seeded writer, a reader of the first matrix,
# and the files one write leaves.
BINARY_FILES = pytest.mark.parametrize("save,load,files", [
    pytest.param(save_params, lambda p: enc.load_checkpoint(p).W_img, ["model.ckpt"],
                 id="checkpoint"),
    pytest.param(save_semantics, lambda p: read_exported_semantics(p)[0],
                 ["sem.bin"], id="export"),
])


class TestEncodeImages:
    def test_identity_projection_keeps_unit_input(self):
        params = make_params(d_img=4, d_emb=4)
        params.W_img = np.eye(4)
        x = np.array([[0.5, 0.5, 0.5, 0.5]])
        assert np.allclose(enc.encode_images(params, x), x)

    def test_scale_invariance(self):
        params = make_params()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5))
        assert np.allclose(
            enc.encode_images(params, x), enc.encode_images(params, 5.0 * x)
        )

    def test_matches_naive_oracle(self):
        params = make_params(seed=2)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 5))
        V = enc.encode_images(params, X)
        for i in range(4):
            pre = X[i] @ params.W_img
            assert np.allclose(V[i], pre / np.linalg.norm(pre), atol=1e-12)

    def test_unit_norm_rows(self):
        params = make_params(seed=3)
        rng = np.random.default_rng(3)
        V = enc.encode_images(params, rng.standard_normal((10, 5)))
        assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-10)

    def test_zero_norm_raises(self):
        # a row with no length has no direction, so it traps like NaN and inf
        params = make_params()
        with traps(), pytest.raises(FloatingPointError, match="invalid value"):
            enc.encode_images(params, np.zeros((1, 5)))

    def test_dimension_mismatch(self):
        params = make_params()
        with pytest.raises(SemhardError, match="feature dim 9 != W_img rows 5"):
            enc.encode_images(params, np.ones((2, 9)))


class TestEncodeTexts:
    def test_single_token(self):
        params = make_params(seed=4)
        U = enc.encode_texts(params, [[3]])
        pre = params.E_word[3] @ params.W_txt
        assert np.allclose(U[0], pre / np.linalg.norm(pre))

    def test_duplicate_token_mean_invariance(self):
        params = make_params(seed=5)
        assert np.allclose(
            enc.encode_texts(params, [[2, 2]]), enc.encode_texts(params, [[2]])
        )

    def test_matches_naive_oracle(self):
        params = make_params(seed=6)
        seqs = [[0, 1, 2], [3], [4, 4, 5]]
        U = enc.encode_texts(params, seqs)
        for i, seq in enumerate(seqs):
            pre = params.E_word[seq].mean(axis=0) @ params.W_txt
            assert np.allclose(U[i], pre / np.linalg.norm(pre), atol=1e-12)

    def test_empty_sequence_raises(self):
        # an empty sequence has no mean: 0 / 0 traps where it is made
        params = make_params()
        with traps(), pytest.raises(FloatingPointError, match="invalid value"):
            enc.encode_texts(params, [[1], []])


def loop_mean_embeddings(params, seqs):
    """Per-caption oracle: the mean of each sequence's embedding rows."""
    return np.array([params.E_word[np.asarray(seq)].mean(axis=0) for seq in seqs])


def loop_word_grad(params, seqs, g_means):
    """Per-caption oracle: each caption spreads g_means[i] / len over its tokens."""
    g_E = np.zeros_like(params.E_word)
    for i, seq in enumerate(seqs):
        np.add.at(g_E, np.asarray(seq), g_means[i] / len(seq))
    return g_E


def repeated_token_seqs(rng, n, vocab):
    """Lengths 1..12 over a small alphabet, so most captions repeat tokens."""
    seqs = [rng.integers(0, vocab, size=rng.integers(1, 13)).tolist() for _ in range(n)]
    return [[3, 3, 3], [0], [5, 1, 5, 1, 5]] + seqs


def lay_out(seqs):
    return enc.token_layout(*enc.id_arrays(seqs))


def layouts(rng, seqs):
    """The sequences laid out whole, and a shuffled row selection of a longer
    list laid out once, with the lists each stands for."""
    whole = lay_out(seqs)
    more = seqs + repeated_token_seqs(rng, 8, 6)
    rows = rng.permutation(len(more))[: len(seqs)]
    return [(whole, seqs), (lay_out(more)[rows], [more[r] for r in rows])]


class TestTokenLayout:
    def test_mean_embeddings_bit_identical_to_loop(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            params = make_params(vocab=6, d_word=5, seed=trial)
            seqs = repeated_token_seqs(rng, int(rng.integers(1, 40)), 6)
            for layout, lists in layouts(rng, seqs):
                means = enc._mean_embeddings(params, layout)
                assert np.array_equal(means, loop_mean_embeddings(params, lists))
                assert layout.ids.tolist() == [t for seq in lists for t in seq]
                assert layout.lengths.tolist() == [len(seq) for seq in lists]

    def test_encode_from_layout_bit_identical_to_lists(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            params = make_params(vocab=6, seed=trial)
            seqs = repeated_token_seqs(rng, int(rng.integers(1, 40)), 6)
            X = rng.standard_normal((len(seqs), 5))
            for layout, lists in layouts(rng, seqs):
                assert np.array_equal(
                    enc.encode_texts(params, layout), enc.encode_texts(params, lists)
                )
                assert np.array_equal(
                    enc.forward(params, X, layout).U, enc.forward(params, X, lists).U
                )

    @pytest.mark.parametrize("d_word", [1, 5, 64])
    @pytest.mark.parametrize("b", [2, 8, 64, 65, 100])
    def test_forward_rows_are_the_encoders_bits(self, b, d_word):
        # forward projects both towers into one array and normalizes it once;
        # every row keeps the bits the encoder of its tower gives it alone
        rng = np.random.default_rng(100 * b + d_word)
        params = make_params(vocab=30, d_word=d_word, seed=b)
        seqs = [rng.integers(0, 30, size=rng.integers(1, 13)).tolist() for _ in range(b + 20)]
        layout = lay_out(seqs)[rng.permutation(b + 20)[:b]]
        X = rng.standard_normal((b, 5))
        cache = enc.forward(params, X, layout)
        assert cache.V.tobytes() == enc.encode_images(params, X).tobytes()
        assert cache.U.tobytes() == enc.encode_texts(params, layout).tobytes()

    def test_word_grad_bit_identical_to_loop(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            params = make_params(vocab=6, seed=trial)
            seqs = repeated_token_seqs(rng, int(rng.integers(1, 20)), 6)
            X = rng.standard_normal((len(seqs), 5))
            grad_S = rng.standard_normal((len(seqs), len(seqs)))
            for layout, lists in layouts(rng, seqs):
                cache = enc.forward(params, X, layout)
                g_U = grad_S.T @ cache.V
                g_txt_pre = enc._grad_through_normalize(cache.txt_norms, cache.U, g_U)
                g_means = g_txt_pre @ params.W_txt.T
                grads = enc.backward(params, cache, grad_S)
                assert np.array_equal(grads.E_word, loop_word_grad(params, lists, g_means))
                from_lists = enc.backward(params, enc.forward(params, X, lists), grad_S)
                assert np.array_equal(grads.E_word, from_lists.E_word)

    def test_row_selection_of_a_one_wide_embedding_equals_its_lists(self):
        # one-wide rows are summed one token position at a time as well, so a
        # selection's extra padding leaves the lists' bits unchanged
        rng = np.random.default_rng(23)
        params = make_params(vocab=50, d_word=1, seed=23)
        seqs = [rng.integers(0, 50, size=rng.integers(1, 30)).tolist() for _ in range(40)]
        layout = lay_out(seqs)
        for _ in range(20):
            rows = rng.permutation(len(seqs))[:6]
            lists = lay_out([seqs[r] for r in rows])
            assert np.array_equal(
                enc._mean_embeddings(params, layout[rows]), enc._mean_embeddings(params, lists)
            )

    def test_blocks_of_a_long_layout_give_the_one_shot_bits(self):
        # three full blocks and a short one, each cut to a longest sequence of its own
        rng = np.random.default_rng(24)
        params = make_params(vocab=30, d_word=5, seed=24)
        widths = [9, 23, 4, 15]
        seqs = [rng.integers(0, 30, size=rng.integers(1, widths[i // enc._BLOCK] + 1)).tolist()
                for i in range(3 * enc._BLOCK + 17)]
        for i, width in enumerate(widths):
            seqs[i * enc._BLOCK] = [i] * width
        layout = lay_out(seqs)
        rows = params.E_word[layout.grid]
        rows[layout.pad] = 0.0
        one_shot = rows.sum(axis=1) / layout.lengths[:, np.newaxis]
        means = enc._mean_embeddings(params, layout)
        assert np.array_equal(means, one_shot)
        assert np.array_equal(means, loop_mean_embeddings(params, seqs))
        loop_U = enc._unit_rows(loop_mean_embeddings(params, seqs) @ params.W_txt)[0]
        assert np.array_equal(enc.encode_texts(params, layout), loop_U)

    def test_encoding_a_long_layout_holds_under_two_blocks_of_padded_rows(self):
        rng = np.random.default_rng(25)
        d_word = 16
        params = make_params(vocab=100, d_word=d_word, d_emb=d_word, seed=25)
        layout = lay_out(
            [rng.integers(0, 100, size=rng.integers(1, 51)).tolist() for _ in range(1000)])
        block_bytes = enc._BLOCK * layout.grid.shape[1] * d_word * 8
        assert layout.grid.nbytes * d_word > 5 * 2 * block_bytes  # all 1,000 padded rows at once
        tracemalloc.start()
        try:
            enc.encode_texts(params, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * block_bytes


def full_loss(params, X, seqs, cfg):
    cache = enc.forward(params, X, seqs)
    return compute_loss(SimilarityBlock(S=enc.similarity_matrix(cache)), cfg).value


class TestBackward:
    def test_zero_grad_s_gives_zero_param_grads(self):
        params = make_params()
        rng = np.random.default_rng(7)
        cache = enc.forward(params, rng.standard_normal((3, 5)), [[0], [1], [2]])
        grads = enc.backward(params, cache, np.zeros((3, 3)))
        assert np.all(grads.W_img == 0.0)
        assert np.all(grads.W_txt == 0.0)
        assert np.all(grads.E_word == 0.0)

    def test_untouched_word_rows_get_zero_grad(self):
        params = make_params(vocab=10)
        rng = np.random.default_rng(8)
        cache = enc.forward(params, rng.standard_normal((2, 5)), [[0, 1], [2]])
        grads = enc.backward(params, cache, rng.standard_normal((2, 2)))
        assert np.all(grads.E_word[3:] == 0.0)
        assert np.any(grads.E_word[:3] != 0.0)

    def test_grad_s_shape_checked(self):
        params = make_params()
        rng = np.random.default_rng(9)
        cache = enc.forward(params, rng.standard_normal((2, 5)), [[0], [1]])
        with pytest.raises(SemhardError, match=re.escape("grad_S must be (2, 2), got (3, 3)")):
            enc.backward(params, cache, np.zeros((3, 3)))

    @pytest.mark.parametrize("variant", ["lsh", "lmh", "lseh"])
    def test_full_pipeline_finite_differences(self, variant):
        cfg = LossConfig(alpha=0.185, lam=0.0, variant=variant)
        eps = 1e-6
        rng = np.random.default_rng(10)
        params = make_params(seed=11)
        X = rng.standard_normal((4, 5))
        seqs = [[0, 1], [2], [3, 4], [5, 6]]
        cache = enc.forward(params, X, seqs)
        out = compute_loss(SimilarityBlock(S=enc.similarity_matrix(cache)), cfg)
        grads = enc.backward(params, cache, out.grad_S)
        for mat, g in (
            (params.W_img, grads.W_img),
            (params.E_word, grads.E_word),
            (params.W_txt, grads.W_txt),
        ):
            it = np.nditer(mat, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = mat[idx]
                mat[idx] = orig + eps
                up = full_loss(params, X, seqs, cfg)
                mat[idx] = orig - eps
                down = full_loss(params, X, seqs, cfg)
                mat[idx] = orig
                fd = (up - down) / (2 * eps)
                assert abs(fd - g[idx]) / max(abs(g[idx]), 1.0) <= 1e-5


def word_grads(params, W_img, W_txt, word_ids=(), word_rows=None):
    """A gradient for `params` whose word rows are zero unless given."""
    vocab, d_word = params.E_word.shape
    word_ids = np.asarray(word_ids, dtype=np.int64)
    if word_rows is None:
        word_rows = np.zeros((len(word_ids), d_word))
    return enc.Gradients(W_img, word_ids, word_rows, W_txt, vocab)


class TestSgdStep:
    def test_zero_gradient_keeps_params(self):
        params = make_params()
        before = params.copy()
        grads = word_grads(
            params, np.zeros_like(params.W_img), np.zeros_like(params.W_txt), [0, 3, 6]
        )
        enc.sgd_step(params, grads, 0.0008)
        assert np.array_equal(params.W_img, before.W_img)
        assert np.array_equal(params.E_word, before.E_word)
        assert np.array_equal(params.W_txt, before.W_txt)

    def test_scalar_arithmetic(self):
        params = enc.ModelParams(
            W_img=np.array([[1.0]]), E_word=np.array([[1.0]]), W_txt=np.array([[1.0]])
        )
        grads = word_grads(params, np.array([[2.0]]), np.array([[0.0]]), [0], np.array([[0.0]]))
        enc.sgd_step(params, grads, 0.1)
        assert params.W_img[0, 0] == pytest.approx(0.8)

    def test_overflowing_update_raises_before_its_write(self):
        # no scan: under the training loop's traps, lr * g overflows and raises
        # before the subtraction writes the parameter
        params = make_params()
        grads = word_grads(
            params, np.full_like(params.W_img, 10.0), np.zeros_like(params.W_txt), [1, 2]
        )
        before = params.copy()
        with traps(), pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            enc.sgd_step(params, grads, 1e308)
        assert np.array_equal(params.W_img, before.W_img)

    def test_rejects_nonpositive_lr(self):
        params = make_params()
        grads = word_grads(params, np.zeros_like(params.W_img), np.zeros_like(params.W_txt))
        with pytest.raises(ValueError):
            enc.sgd_step(params, grads, 0.0)

    def test_row_sparse_step_bit_identical_to_dense(self):
        # the step on the touched rows leaves the params as p -= lr * g over the
        # whole dense gradient; rows no caption names keep their bits
        rng = np.random.default_rng(24)
        for trial in range(20):
            params = make_params(vocab=40, seed=trial)
            seqs = repeated_token_seqs(rng, int(rng.integers(1, 12)), 30)
            X = rng.standard_normal((len(seqs), 5))
            grads = enc.backward(params, enc.forward(params, X, seqs),
                                 rng.standard_normal((len(seqs), len(seqs))))
            g_dense = grads.E_word
            assert np.array_equal(grads.word_ids, np.unique([t for seq in seqs for t in seq]))
            lr = float(rng.uniform(1e-4, 1.0))
            dense = params.copy()
            for p, g in ((dense.W_img, grads.W_img), (dense.E_word, g_dense),
                         (dense.W_txt, grads.W_txt)):
                p -= lr * g
            before = params.copy()
            enc.sgd_step(params, grads, lr)
            for name in ("W_img", "E_word", "W_txt"):
                assert np.array_equal(getattr(params, name), getattr(dense, name))
            untouched = np.setdiff1d(np.arange(40), grads.word_ids)
            assert len(untouched) >= 10
            assert params.E_word[untouched].tobytes() == before.E_word[untouched].tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params(seed=12)
        path = tmp_path / "model.ckpt"
        enc.save_checkpoint(params, path)
        loaded = enc.load_checkpoint(path)
        assert np.array_equal(loaded.W_img, params.W_img)
        assert np.array_equal(loaded.E_word, params.E_word)
        assert np.array_equal(loaded.W_txt, params.W_txt)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            enc.load_checkpoint(path)

    def test_bytes_follow_the_format(self, tmp_path):
        params = make_params(seed=14)
        path = tmp_path / "model.ckpt"
        enc.save_checkpoint(params, path)
        mats = [params.W_img, params.E_word, params.W_txt]
        expected = (
            b"VSEC" + struct.pack("<I", 1)
            + b"".join(struct.pack("<II", *m.shape) for m in mats)
            + b"".join(m.astype("<f8").tobytes() for m in mats)
        )
        assert path.read_bytes() == expected

    def test_zero_row_matrix_round_trips(self, tmp_path):
        # a zero-size array has no bytes to write, and writing it must not fail
        path = tmp_path / "empty.bin"
        mats = [np.zeros((0, 3)), np.arange(6.0).reshape(2, 3), np.zeros((4, 0))]
        data.write_matrices(path, b"TEST", 1, mats)
        assert path.stat().st_size == 8 + 8 * 3 + 8 * 6
        for read, written in zip(data.read_matrices(path, b"TEST", 1, 3), mats):
            assert read.shape == written.shape and np.array_equal(read, written)

    @BINARY_FILES
    def test_no_temporary_file_left(self, tmp_path, save, load, files):
        path = tmp_path / files[0]
        save(15, path)
        written = save(16, path)
        assert sorted(os.listdir(tmp_path)) == files
        assert np.array_equal(load(path), written)

    @BINARY_FILES
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch, save, load, files):
        path = tmp_path / files[0]
        save(17, path)
        before = path.read_bytes()

        class FailingFile:
            """Writes the header, then fails like a full disk."""
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        # the writer shared by both files lives in semhard.data
        monkeypatch.setattr(data, "open", lambda p, mode: FailingFile(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="no space"):
            save(18, path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == files

    @BINARY_FILES
    def test_bad_magic_and_version_name_the_path(self, tmp_path, save, load, files):
        path = tmp_path / files[0]
        save(0, path)
        raw = path.read_bytes()
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(SemhardError, match="magic") as magic:
            load(path)
        path.write_bytes(raw[:4] + struct.pack("<I", 99) + raw[8:])
        with pytest.raises(SemhardError, match="version 99") as version:
            load(path)
        assert str(path) in str(magic.value) and str(path) in str(version.value)

    @BINARY_FILES
    @pytest.mark.parametrize("cut,message", [
        pytest.param(lambda raw: raw[:5], "bytes, shorter than the", id="5-bytes"),
        pytest.param(lambda raw: raw[:-8], "bytes, but shapes", id="short-payload"),
        pytest.param(lambda raw: raw + b"\0", "bytes, but shapes", id="trailing-byte"),
    ])
    def test_wrong_length_names_the_path(self, tmp_path, save, load, files, cut, message):
        path = tmp_path / files[0]
        save(19, path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(SemhardError, match=re.escape(f"{path}: ") + rf"\d+ {message}"):
            load(path)

    @BINARY_FILES
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_non_finite_value_names_the_path(self, tmp_path, save, load, files, value, where):
        path = tmp_path / files[0]
        first = save(20, path).astype("<f8").tobytes()
        raw = bytearray(path.read_bytes())
        off = raw.index(first) if where == "first" else len(raw) - 8
        raw[off:off + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(SemhardError, match=re.escape(f"{path}: matrix")):
            load(path)

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda p: enc.ModelParams(p.W_img, p.E_word, p.W_txt[:, :5]), id="W_txt-cols"),
        pytest.param(lambda p: enc.ModelParams(p.W_img[:, :5], p.E_word, p.W_txt), id="W_img-cols"),
        pytest.param(lambda p: enc.ModelParams(p.W_img, p.E_word[:, :3], p.W_txt), id="E_word-cols"),
    ])
    def test_matrices_that_do_not_chain_name_the_path(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        enc.save_checkpoint(cut(make_params()), path)
        with pytest.raises(SemhardError, match=re.escape(f"{path}: W_txt is")):
            enc.load_checkpoint(path)


class TestDeterminism:
    def test_same_seed_same_init(self):
        a = make_params(seed=42)
        b = make_params(seed=42)
        assert np.array_equal(a.W_img, b.W_img)
        assert np.array_equal(a.E_word, b.E_word)

    def test_similarity_in_unit_interval(self):
        params = make_params(seed=13)
        rng = np.random.default_rng(13)
        cache = enc.forward(
            params, rng.standard_normal((5, 5)), [[i] for i in range(5)]
        )
        S = enc.similarity_matrix(cache)
        assert np.all(S <= 1 + 1e-12)
        assert np.all(S >= -1 - 1e-12)

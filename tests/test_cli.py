import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semhard.cli
import semhard.trainer
from semhard import encoder as enc
from semhard.cli import main
from semhard.data import SyntheticSpec, generate_synthetic
from semhard.errors import SemhardError

TINY = [
    "--set", "gen.clusters=2",
    "--set", "gen.images_per_cluster=4",
    "--set", "gen.captions_per_image=3",
    "--set", "epochs=1",
    "--set", "batch_size=4",
    "--set", "validation_step=2",
    "--set", "svd_k=10",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_dataset_pair(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run(["gen", "--out", str(out), *TINY], capsys)
        assert code == 0
        assert (out / "captions.tsv").exists()
        assert (out / "features.txt").exists()
        assert "8 images / 24 captions" in stdout

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", "--out", str(a), "--seed", "3", *TINY], capsys)
        run(["gen", "--out", str(b), "--seed", "3", *TINY], capsys)
        for name in ("captions.tsv", "features.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrain:
    def test_smoke_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(["train", "--out", str(out), *TINY], capsys)
        assert code == 0
        assert stdout.startswith("best_m_recall=")
        curve = (out / "training_curve.csv").read_text().splitlines()
        assert curve[0].startswith("# ")
        assert "loss.variant=lseh" in curve[0]
        assert (out / "best.ckpt").exists()

    def test_config_file_and_override_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\nloss.variant = lmh\n")
        out = tmp_path / "run"
        code, _, _ = run(
            ["train", "--config", str(cfg), "--out", str(out),
             "--set", "loss.variant=lsh", "--seed", "4", *TINY],
            capsys,
        )
        assert code == 0
        header = (out / "training_curve.csv").read_text().splitlines()[0]
        assert "loss.variant=lsh" in header  # --set beats the file
        assert "seed=4" in header            # --seed beats both

    def test_stopword_file_replaces_the_vocabulary_filter(self, tmp_path, capsys):
        # the file replaces the built-in list; the synthetic captions hold none of
        # its words, so listing one caption word removes exactly that word
        word = generate_synthetic(SyntheticSpec(2, 4, 3)).captions[0].split()[0]
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text(f"{word.upper()}\n\n")
        rows = []
        for out, extra in ((tmp_path / "a", []), (tmp_path / "b", [f"data.stopwords={stopwords}"])):
            code, _, err = run(["train", "--out", str(out), *TINY,
                                *(arg for pair in extra for arg in ("--set", pair))], capsys)
            assert code == 0, err
            rows.append(enc.load_checkpoint(out / "best.ckpt").E_word.shape[0])
        assert rows[1] == rows[0] - 1


class TestEvalAndDiag:
    def test_eval_from_checkpoint(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        _, trained, _ = run(["train", "--out", str(run_dir), *TINY], capsys)
        out = tmp_path / "eval"
        code, stdout, _ = run(
            ["eval", "--checkpoint", str(run_dir / "best.ckpt"),
             "--out", str(out), *TINY],
            capsys,
        )
        assert code == 0
        # eval rebuilds the same vocabulary, so it reproduces training's best score
        best = trained.split()[0].removeprefix("best_m_recall=")
        assert stdout == f"m_recall={best}\n"
        lines = (out / "retrieval_report.csv").read_text().splitlines()
        assert lines[1] == "direction,k,recall"

    def test_diag_writes_unique_counts(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), *TINY], capsys)
        out = tmp_path / "diag"
        code, _, _ = run(
            ["diag", "--checkpoint", str(run_dir / "best.ckpt"),
             "--out", str(out), *TINY],
            capsys,
        )
        assert code == 0
        lines = (out / "hard_negative_diagnostics.csv").read_text().splitlines()
        assert lines[1] == "batch_index,unique_img,unique_desc"
        for line in lines[2:]:
            _, ui, ud = line.split(",")
            assert 1 <= int(ui) <= 4
            assert 1 <= int(ud) <= 4

    def test_diag_lmh_runs_no_svd(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), "--set", "loss.variant=lmh", *TINY], capsys)

        def no_svd(*args, **kwargs):
            raise AssertionError("diag ran the SVD for lmh")

        monkeypatch.setattr(semhard.trainer, "truncated_svd", no_svd)
        code, _, err = run(
            ["diag", "--checkpoint", str(run_dir / "best.ckpt"),
             "--out", str(tmp_path / "diag"), "--set", "loss.variant=lmh", *TINY],
            capsys,
        )
        assert code == 0, err
        assert (tmp_path / "diag" / "hard_negative_diagnostics.csv").exists()

    def test_diag_lseh_checks_the_vocabulary_before_the_svd(self, tmp_path, capsys, monkeypatch):
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), "--set", "loss.variant=lmh", *TINY], capsys)
        checkpoint = run_dir / "best.ckpt"
        trained_words = enc.load_checkpoint(checkpoint).E_word.shape[0]
        svd_calls = []
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        code, stdout, err = run(
            ["diag", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "diag"), *TINY,
             "--set", "loss.variant=lseh", "--set", "min_token_length=5"],
            capsys,
        )
        assert (code, stdout, svd_calls) == (1, "", [])
        assert err.startswith(f"error: {checkpoint}: the checkpoint embeds {trained_words} words")
        assert err.count("\n") == 1
        assert not (tmp_path / "diag").exists()

    def test_diag_lsh_fails_before_reading_the_checkpoint(self, tmp_path, capsys):
        code, _, err = run(
            ["diag", "--checkpoint", str(tmp_path / "nope.ckpt"),
             "--out", str(tmp_path / "diag"), "--set", "loss.variant=lsh", *TINY],
            capsys,
        )
        assert code == 1
        assert err == "error: diagnostics need a max-of-hinges loss variant\n"

    @pytest.mark.parametrize("command", ["eval", "diag"])
    @pytest.mark.parametrize("clusters", [1, 3], ids=["smaller-vocab", "larger-vocab"])
    def test_vocabulary_size_mismatch_names_the_checkpoint(
        self, tmp_path, capsys, command, clusters
    ):
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), *TINY], capsys)
        checkpoint = run_dir / "best.ckpt"
        trained_words = enc.load_checkpoint(checkpoint).E_word.shape[0]
        code, _, err = run(
            [command, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o"),
             *TINY, "--set", f"gen.clusters={clusters}"],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {checkpoint}: the checkpoint embeds {trained_words} words")
        assert err.rstrip().endswith("pass the training run's config and seed")

    @pytest.mark.parametrize("command", ["eval", "diag"])
    def test_feature_width_mismatch_names_the_checkpoint(self, tmp_path, capsys, command):
        # the vocabulary sizes still match, so only the width check names the checkpoint
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), *TINY], capsys)
        checkpoint = run_dir / "best.ckpt"
        code, stdout, err = run(
            [command, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o"),
             *TINY, "--set", "gen.d_img=16"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == (f"error: {checkpoint}: the checkpoint takes 32-wide image features,"
                       " but this config's are 16\n")
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_is_error_exit(self, tmp_path, capsys):
        code, _, err = run(
            ["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
             "--out", str(tmp_path / "o"), *TINY],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")

    def test_truncated_checkpoint_is_error_exit(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), *TINY], capsys)
        truncated = tmp_path / "truncated.ckpt"
        truncated.write_bytes((run_dir / "best.ckpt").read_bytes()[:20])
        code, _, err = run(
            ["eval", "--checkpoint", str(truncated), "--out", str(tmp_path / "o"), *TINY],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")
        assert str(truncated) in err

    @pytest.mark.parametrize("command", ["eval", "diag"])
    @pytest.mark.parametrize("fault", ["nan-W_img", "W_txt-5-cols"])
    def test_broken_checkpoint_names_its_path(self, tmp_path, capsys, command, fault):
        # a NaN W_img used to rank every query first (m_recall=100), and a cut
        # W_txt to fail inside matmul without naming the file
        run_dir = tmp_path / "run"
        run(["train", "--out", str(run_dir), *TINY], capsys)
        params = enc.load_checkpoint(run_dir / "best.ckpt")
        if fault == "nan-W_img":
            params.W_img[:] = np.nan
        else:
            params.W_txt = params.W_txt[:, :5]
        broken = tmp_path / "broken.ckpt"
        enc.save_checkpoint(params, broken)
        code, stdout, err = run(
            [command, "--checkpoint", str(broken), "--out", str(tmp_path / "o"), *TINY], capsys
        )
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: {broken}: ")


def write_corpus(tmp_path, captions):
    """A captions file with every caption on image 0, and its one-row features file,
    as the `--set` pairs that point the CLI at them."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "captions.tsv").write_text("".join(f"d{i}\t0\t{c}\n" for i, c in enumerate(captions)))
    (data / "features.txt").write_text("1 2\n0.5 1.0\n")
    return ["--set", f"data.captions={data / 'captions.tsv'}",
            "--set", f"data.features={data / 'features.txt'}"]


class TestSvd:
    def test_export_round_trip(self, tmp_path, capsys):
        from semhard.textsem import read_exported_semantics

        out = tmp_path / "svd"
        code, stdout, _ = run(["svd", "--out", str(out), *TINY], capsys)
        assert code == 0
        B, sv = read_exported_semantics(out / "semantics.bin")
        assert B.shape[0] == 24
        assert np.all(np.isfinite(B))
        assert sv.shape[0] == B.shape[1]
        assert "wrote" in stdout

    def test_empty_caption_fails_like_train(self, tmp_path, capsys):
        data = write_corpus(tmp_path, ["a red kite", "the of and", "two red dogs"])
        code, _, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY, *data], capsys)
        assert code == 1
        assert err == "error: train caption 1 has no in-vocabulary token after preprocessing\n"
        assert not (tmp_path / "svd").exists()

    def test_one_caption_corpus_names_the_count(self, tmp_path, capsys):
        data = write_corpus(tmp_path, ["a red kite"])
        code, stdout, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY, *data], capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: TF-IDF needs at least 2 captions, got 1\n"
        assert not (tmp_path / "svd").exists()
        assert multiprocessing.active_children() == []

    def test_files_export_matches_the_loaded_dataset(self, tmp_path, capsys):
        from semhard.data import load_dataset
        from semhard.textsem import PreprocessConfig, export_semantics

        data = tmp_path / "data"
        run(["gen", "--out", str(data), *TINY], capsys)
        files = [data / "captions.tsv", data / "features.txt"]
        code, _, err = run(["svd", "--out", str(tmp_path / "svd"), "--seed", "4", *TINY,
                            "--set", f"data.captions={files[0]}",
                            "--set", f"data.features={files[1]}"], capsys)
        assert code == 0, err
        sem, _ = semhard.trainer.corpus_semantics(
            load_dataset(*files).captions, PreprocessConfig(), 10, 4
        )
        export_semantics(sem, tmp_path / "expected.bin")
        exported = (tmp_path / "svd" / "semantics.bin").read_bytes()
        assert exported == (tmp_path / "expected.bin").read_bytes()

    @pytest.mark.parametrize("fault", ["dead-worker", "nan-row", "missing-features"])
    @pytest.mark.parametrize("captions", [
        ["a red kite", "two red dogs"], ["a red kite", "the of and", "two red dogs"],
    ], ids=["captions-ok", "an-empty-caption"])  # the check's error wins over the caption's
    def test_failed_check_writes_nothing(self, tmp_path, capsys, monkeypatch, fault, captions):
        data = write_corpus(tmp_path, captions)
        features = tmp_path / "data" / "features.txt"
        if fault == "dead-worker":
            monkeypatch.setattr(semhard.cli, "load_dataset", lambda *paths: os._exit(3))
            shown = "error: the dataset check's worker process died: "
        elif fault == "nan-row":
            features.write_text("1 2\n0.5 nan\n")
            shown = f"error: {features}:2: feature row 0 holds NaN or inf"
        else:
            features.unlink()
            shown = "error: [Errno 2] No such file or directory: "
        out = tmp_path / "svd"
        code, stdout, err = run(["svd", "--out", str(out), *TINY, *data], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith(shown)
        assert err.count("\n") == 1
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_failed_check_stops_the_command_before_the_svd(self, tmp_path, capsys, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor, wait

        futures, svd_calls = [], []
        real_submit, real_tfidf = ProcessPoolExecutor.submit, semhard.trainer.build_tfidf

        def submit(pool, *args, **kwargs):
            futures.append(real_submit(pool, *args, **kwargs))
            return futures[-1]

        def build_tfidf(docs):  # the check ends while this process reads the captions
            assert wait(futures, timeout=60).done == set(futures)
            return real_tfidf(docs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        monkeypatch.setattr(semhard.trainer, "build_tfidf", build_tfidf)
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        data = write_corpus(tmp_path, ["a red kite", "two red dogs"])
        (tmp_path / "data" / "features.txt").unlink()
        code, _, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY, *data], capsys)
        assert (code, len(futures), svd_calls) == (1, 1, [])
        assert err.startswith("error: [Errno 2] No such file or directory: ")

    def test_benchmark_tracer_hooks_still_match(self, tmp_path, capsys, monkeypatch):
        # the benchmark's tracer wraps named functions and reads their results;
        # a rename or a new return shape must fail here, not only in a traced run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            code, _, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY], capsys)
        finally:
            tracer.uninstall()
        assert code == 0, err
        assert tracer.counts["textsem.tfidf.nnz"] > 0
        assert tracer.counts["textsem.svd.k"] > 0


class TestCompare:
    def test_benchmark_tracer_hooks_on_the_training_path(self, tmp_path, capsys, monkeypatch):
        # the traced benchmark counts these calls; a call that no longer goes
        # through the module attribute the tracer wraps would read 0 there
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            code, _, err = run(["compare", "--out", str(tmp_path / "c"), *TINY], capsys)
        finally:
            tracer.uninstall()
        assert code == 0, err
        for name in ("encoder.forward", "trainer.validate", "encoder.save_checkpoint"):
            assert tracer.counts[f"{name}.calls"] > 0, name
        # lmh trains in a forked worker, out of the tracer's view; the SVD
        # call shows that the traced run is lseh
        assert tracer.counts["encoder.save_checkpoint.calls"] == 1
        assert tracer.counts["textsem.truncated_svd.calls"] == 1
        assert any(span[0] == "evaluation.retrieval_report" for span in tracer.spans)

    def test_runs_both_variants_deterministically(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(["compare", "--out", str(out), "--seed", "1", *TINY], capsys)
            assert code == 0
        assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()
        lines = (a / "comparison.csv").read_text().splitlines()
        assert lines[1].startswith("loss,best_m_recall")
        assert lines[2].startswith("lmh,")
        assert lines[3].startswith("lseh,")
        assert (a / "training_curve_lmh.csv").exists()
        assert (a / "training_curve_lseh.csv").exists()

    def test_each_run_matches_train(self, tmp_path, capsys):
        # the forked lmh run and the in-process lseh run write what `train` writes
        code, _, err = run(["compare", "--out", str(tmp_path / "c"), "--seed", "2", *TINY], capsys)
        assert code == 0, err
        for variant in ("lmh", "lseh"):
            out = tmp_path / variant
            code, _, err = run(["train", "--out", str(out), "--seed", "2", *TINY,
                                "--set", f"loss.variant={variant}"], capsys)
            assert code == 0, err
            compared = tmp_path / "c" / f"best_{variant}.ckpt"
            assert compared.read_bytes() == (out / "best.ckpt").read_bytes(), variant
            curves = [(d / name).read_text().splitlines()[1:] for d, name in (
                (tmp_path / "c", f"training_curve_{variant}.csv"), (out, "training_curve.csv"))]
            assert curves[0] == curves[1], variant

    def test_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        real_train = semhard.trainer.train

        def train(*args, tag="", **kwargs):
            if tag == "lmh":
                os._exit(3)
            return real_train(*args, tag=tag, **kwargs)

        monkeypatch.setattr(semhard.trainer, "train", train)
        code, stdout, err = run(["compare", "--out", str(tmp_path / "c"), *TINY], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: the lmh run's worker process died: ")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing, shown", [
        (("lmh", "lseh"), "lmh"), (("lmh",), "lmh"), (("lseh",), "lseh"),
    ], ids=["both", "lmh", "lseh"])
    def test_lmh_error_wins(self, tmp_path, capsys, monkeypatch, failing, shown):
        real_train = semhard.trainer.train

        def train(*args, tag="", **kwargs):
            if tag in failing:
                raise SemhardError(f"{tag} failed")
            return real_train(*args, tag=tag, **kwargs)

        monkeypatch.setattr(semhard.trainer, "train", train)
        code, stdout, err = run(["compare", "--out", str(tmp_path / "c"), *TINY], capsys)
        assert (code, stdout, err) == (1, "", f"error: {shown} failed\n")
        assert not (tmp_path / "c" / "comparison.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", [
        ["compare"], ["train", "--set", "loss.variant=lmh"], ["train", "--set", "loss.variant=lseh"],
    ], ids=["compare", "train-lmh", "train-lseh"])
    def test_run_that_never_validates_fails_before_training(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("the run prepared its text")

        monkeypatch.setattr(semhard.trainer, "prepare_text", no_training)
        out = tmp_path / "c"
        code, stdout, err = run(
            [*command, "--out", str(out), *TINY, "--set", "validation_step=100000"], capsys
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: the run would never validate: 1 epochs x ")
        assert err.endswith(" batches < validation_step=100000\n")
        assert err.count("\n") == 1
        assert not out.exists()


# each file's second line holds a Latin-1 byte that is not UTF-8
NOT_UTF8 = {
    "captions": b"d0\t0\tred cat\nd1\t1\tcaf\xe9 dog\n",
    "features": b"2 2\n0.0 1.\xe9\n1.0 2.0\n",
    "config": b"# a comment\nseed=1\xe9\n",
    "stopwords": b"the\ncaf\xe9\n",
}


class TestErrorPaths:
    def test_unknown_set_key(self, tmp_path, capsys):
        code, _, err = run(
            ["train", "--out", str(tmp_path / "o"), "--set", "bogus=1"], capsys
        )
        assert code == 1
        assert "bogus" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(
            ["train", "--config", str(tmp_path / "missing.cfg"),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:")

    def test_features_shorter_than_header(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(["gen", "--out", str(data), *TINY], capsys)
        features = data / "features.txt"
        features.write_text("\n".join(features.read_text().splitlines()[:4]) + "\n")
        code, _, err = run(
            ["train", "--out", str(tmp_path / "o"), *TINY,
             "--set", f"data.captions={data / 'captions.tsv'}",
             "--set", f"data.features={features}"],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {features}:5:")

    @pytest.mark.parametrize("command", ["svd", "train"])
    @pytest.mark.parametrize(
        "features_text, line",
        [("", 1), ("two 3\n", 1), ("2 2\n0.0 1.0\nnan 1.0\n", 3), ("2 2\n0.0 1.0\n2.0\n", 3),
         ("2 2\n0.0 1.0\n1.0 2.0\n3.0 4.0\nnot numbers at all\n", 4)],
        ids=["empty", "bad-header", "nan", "short-row", "extra-row"],
    )
    def test_bad_features_file_names_the_line(self, tmp_path, capsys, command, features_text, line):
        data = tmp_path / "data"
        data.mkdir()
        (data / "captions.tsv").write_text("d0\t0\tred cat\nd1\t1\tblue dog\n")
        features = data / "features.txt"
        features.write_text(features_text)
        code, _, err = run(
            [command, "--out", str(tmp_path / "o"), *TINY,
             "--set", f"data.captions={data / 'captions.tsv'}",
             "--set", f"data.features={features}"],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {features}:{line}:")

    def test_malformed_caption_line_names_the_line(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(["gen", "--out", str(data), *TINY], capsys)
        captions = data / "captions.tsv"
        lines = captions.read_text().splitlines()
        captions.write_text("\n".join([*lines[:2], "d99 no tabs here", *lines[2:]]) + "\n")
        code, _, err = run(
            ["train", "--out", str(tmp_path / "o"), *TINY,
             "--set", f"data.captions={captions}",
             "--set", f"data.features={data / 'features.txt'}"],
            capsys,
        )
        assert code == 1
        assert err.startswith(f"error: {captions}:3:")

    @pytest.mark.parametrize("command,pair", [
        ("train", "learning_rate=-1"), ("train", "svd_k=0"), ("train", "batch_size=1"),
        ("train", "d_emb=0"), ("train", "d_word=0"), ("svd", "svd_k=0"),
    ])
    def test_bad_training_value_names_its_key(self, tmp_path, capsys, command, pair):
        code, _, err = run([command, "--out", str(tmp_path / "o"), *TINY, "--set", pair], capsys)
        assert code == 1
        key = pair.split("=")[0]
        assert err.startswith(f"error: --set: {key}: {key} must be >= ")

    @pytest.mark.parametrize("pair,message", [
        ("gen.clusters=0", "counts must be >= 1"),
        ("gen.d_img=0", "counts must be >= 1"),
        ("gen.d_img=-1", "counts must be >= 1"),
        ("gen.overlap=2", "overlap must lie in [0, 1]"),
        ("loss.alpha=0", "alpha must be > 0"),
        ("loss.lambda=-1", "lambda must be >= 0"),
        ("min_token_length=0", "min_token_length must be >= 1"),
        ("val_fraction=0", "val_fraction must lie in (0, 1)"),
        ("val_fraction=1.5", "val_fraction must lie in (0, 1)"),
    ])
    @pytest.mark.parametrize("source", ["file", "--set"])
    def test_range_error_names_source_and_key(self, tmp_path, capsys, pair, message, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n{pair}\n")
        args = ["--config", str(cfg)] if source == "file" else ["--set", pair]
        where = f"{cfg}:2" if source == "file" else source
        code, _, err = run(["train", "--out", str(tmp_path / "o"), *TINY, *args], capsys)
        assert code == 1
        assert err == f"error: {where}: {pair.split('=')[0]}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("variant", ["lmh", "lseh"])
    def test_one_caption_train_split_has_no_batch(self, tmp_path, capsys, variant):
        data = write_corpus(tmp_path, ["a red kite", "two red dogs"])
        code, _, err = run(
            ["train", "--out", str(tmp_path / "o"), *TINY, *data,
             "--set", "val_fraction=0.5", "--set", f"loss.variant={variant}"],
            capsys,
        )
        assert code == 1
        assert err == "error: the run would never validate: 1 epochs x 0 batches < validation_step=2\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--set", "loss.variant=lmh"], ["train", "--set", "loss.variant=lseh"],
        ["compare"], ["eval", "--checkpoint", "never-read.ckpt"],
    ], ids=["train-lmh", "train-lseh", "compare", "eval"])
    def test_empty_validation_split_fails_first(self, tmp_path, capsys, monkeypatch, command):
        # every image has one caption, so the split holds none out
        data = tmp_path / "data"
        data.mkdir()
        (data / "captions.tsv").write_text("d0\t0\ta red kite\nd1\t1\ttwo red dogs\n"
                                           "d2\t2\ta dog and a kite\n")
        (data / "features.txt").write_text("3 2\n0.5 1.0\n1.0 0.0\n0.0 1.0\n")
        svd_calls = []
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        out = tmp_path / "o"
        code, stdout, err = run(
            [*command, "--out", str(out), *TINY, "--set", "batch_size=2",
             "--set", "validation_step=1", "--set", f"data.captions={data / 'captions.tsv'}",
             "--set", f"data.features={data / 'features.txt'}"],
            capsys,
        )
        assert (code, stdout, svd_calls) == (1, "", [])
        assert err == "error: the validation split holds no caption: no image has two captions\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["train", "gen", "svd"])
    @pytest.mark.parametrize("source", ["file", "--set", "--seed"])
    def test_negative_seed_names_key_and_source(self, tmp_path, capsys, command, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nseed = -1\n")
        seed_args = {"file": ["--config", str(cfg)], "--set": ["--set", "seed=-1"],
                     "--seed": ["--seed", "-1"]}[source]
        where = f"{cfg}:2" if source == "file" else source
        code, _, err = run([command, "--out", str(tmp_path / "o"), *TINY, *seed_args], capsys)
        assert code == 1
        assert err == f"error: {where}: seed: seed must be >= 0, got -1\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "svd"])
    def test_empty_captions_file_names_it(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        data.mkdir()
        (data / "captions.tsv").write_text("")
        (data / "features.txt").write_text("0 2\n")
        code, stdout, err = run(
            [command, "--out", str(tmp_path / "o"), *TINY,
             "--set", f"data.captions={data / 'captions.tsv'}",
             "--set", f"data.features={data / 'features.txt'}"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: {data / 'captions.tsv'}: holds no captions\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "svd"])
    @pytest.mark.parametrize("given, unset", [
        ("data.captions", "data.features"), ("data.features", "data.captions"),
    ])
    def test_one_data_file_without_the_other(self, tmp_path, capsys, command, given, unset):
        # the named file does not exist: the pair is checked before any file is read
        code, stdout, err = run(
            [command, "--out", str(tmp_path / "o"), *TINY,
             "--set", f"{given}={tmp_path / 'missing'}"],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: {given} is set but {unset} is not; set both or neither\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("reader", sorted(NOT_UTF8))
    def test_non_utf8_file_names_file_and_line(self, tmp_path, capsys, reader):
        paths = {"captions": tmp_path / "captions.tsv", "features": tmp_path / "features.txt"}
        paths["captions"].write_text("d0\t0\tred cat\nd1\t1\tblue dog\n")
        paths["features"].write_text("2 2\n0.0 1.0\n1.0 2.0\n")
        paths[reader] = tmp_path / reader
        paths[reader].write_bytes(NOT_UTF8[reader])
        args = ["--set", f"data.captions={paths['captions']}",
                "--set", f"data.features={paths['features']}"]
        args += {"config": ["--config", str(paths[reader])],
                 "stopwords": ["--set", f"data.stopwords={paths[reader]}"]}.get(reader, [])
        code, _, err = run(["svd", "--out", str(tmp_path / "o"), *args], capsys)
        assert code == 1
        assert err.startswith(f"error: {paths[reader]}:2: not UTF-8")
        assert err.count("\n") == 1

    def test_header_too_wide_for_memory_fails_on_the_first_row(self, tmp_path, capsys):
        # the header asks for an 800 GB matrix; the row that breaks it fails first
        data = write_corpus(tmp_path, ["red cat"])
        features = Path(data[-1].split("=", 1)[1])
        features.write_text("1 100000000000\n0.5 0.25\n")
        code, _, err = run(["svd", "--out", str(tmp_path / "o"), *data], capsys)
        assert code == 1
        assert err.startswith(f"error: {features}:2: feature row 0 has 2 values")

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        def cmd_gen(args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(semhard.cli, "cmd_gen", cmd_gen)
        code, _, err = run(["gen", "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err == "error: Unable to allocate 745. GiB for an array\n"

    def test_malformed_set_pair(self, tmp_path, capsys):
        code, _, err = run(
            ["train", "--out", str(tmp_path / "o"), "--set", "no_equals"], capsys
        )
        assert code == 1
        assert "key=value" in err


def test_import_loads_no_arpack():
    # scipy.sparse.linalg costs about 10 MB RSS and 0.13 s to import; only
    # truncated_svd's ARPACK branch may load it. scipy.linalg alone raised RSS
    # after `import semhard.cli` from 49.7 to 57.4 MB and took 0.06 s, which is
    # why small inputs use NumPy's SVD and not a LAPACK route through SciPy.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, semhard.cli;"
            " print([m in sys.modules for m in ('scipy.sparse.linalg', 'scipy.linalg')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[False, False]"


def test_import_loads_no_multiprocessing():
    # only `compare` and `svd` on files start a worker, and importing the
    # executor costs setup time
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    loaded = ("print([m in sys.modules"
              " for m in ('multiprocessing', 'concurrent.futures.process')])")
    code = f"import sys, semhard.data; {loaded}; import semhard.cli; {loaded}"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split("\n") == ["[False, False]", "[False, False]", ""]

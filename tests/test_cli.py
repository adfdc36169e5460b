import faulthandler
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import semhard.cli
import semhard.trainer
from semhard import encoder as enc
from semhard.cli import main
from semhard.data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
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


def assert_no_child_left():
    """This process has no child, running or waiting to be reaped: `waitid`, told
    neither to wait nor to reap, finds none."""
    with pytest.raises(ChildProcessError):
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


def test_no_child_left_sees_running_and_unreaped_children():
    pid = os.fork()
    if pid == 0:  # sleeps until killed
        try:
            time.sleep(60)
        finally:
            os._exit(0)
    try:
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            assert_no_child_left()
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            assert_no_child_left()
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert_no_child_left()


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

    @pytest.mark.parametrize("command", ["eval", "diag"])
    @pytest.mark.parametrize(("scaled", "scale"), [
        ("weights", 1e160), ("weights", 1e306), ("features", 1e200), ("features", 1e306),
        ("features", 1e-200),
    ])
    def test_overflowing_embeddings_fail_as_one_error(self, tmp_path, capsys, command, scaled,
                                                      scale):
        # huge finite weights or huge finite features used to warn, score every
        # embedding as the zero vector and exit 0; either input can cause it,
        # so the error names the checkpoint and the data, blaming neither. Tiny
        # features, whose squared norms underflow to 0, trap the same way
        data, run_dir = tmp_path / "data", tmp_path / "run"
        lmh = [*TINY, "--set", "loss.variant=lmh",
               "--set", f"data.captions={data / 'captions.tsv'}",
               "--set", f"data.features={data / 'features.txt'}"]
        run(["gen", "--out", str(data), *TINY], capsys)
        run(["train", "--out", str(run_dir), *lmh], capsys)
        checkpoint = run_dir / "best.ckpt"
        if scaled == "weights":
            params = enc.load_checkpoint(checkpoint)
            params.W_img *= scale
            params.W_txt *= scale
            enc.save_checkpoint(params, checkpoint)
        else:
            ds = load_dataset(data / "captions.tsv", data / "features.txt")
            ds.features *= scale
            save_dataset(ds, data / "captions.tsv", data / "features.txt")
        out = tmp_path / "o"
        code, stdout, err = run(
            [command, "--checkpoint", str(checkpoint), "--out", str(out), *lmh], capsys
        )
        assert (code, stdout) == (1, "")
        cause = "divide by zero encountered in divide" if scale < 1 else "overflow encountered in "
        assert err.startswith(f"error: {checkpoint} on this config's data:"
                              f" the embeddings are not finite ({cause}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "diag"])
    def test_checkpoint_that_projects_to_zero_is_named(self, tmp_path, capsys, command):
        # an all-zero W_img maps every image to the zero vector, which has no
        # direction; its 0 / 0 traps like an overflow, naming the checkpoint and the data
        run_dir = tmp_path / "run"
        lmh = [*TINY, "--set", "loss.variant=lmh"]
        run(["train", "--out", str(run_dir), *lmh], capsys)
        checkpoint = run_dir / "best.ckpt"
        params = enc.load_checkpoint(checkpoint)
        params.W_img[:] = 0.0
        enc.save_checkpoint(params, checkpoint)
        out = tmp_path / "o"
        code, stdout, err = run(
            [command, "--checkpoint", str(checkpoint), "--out", str(out), *lmh], capsys
        )
        assert (code, stdout) == (1, "")
        assert err == (f"error: {checkpoint} on this config's data:"
                       " the embeddings are not finite (invalid value encountered in divide)\n")
        assert not out.exists()


def write_corpus(tmp_path, captions):
    """A captions file with every caption on image 0, a None caption a blank line,
    and its one-row features file, as the `--set` pairs that point the CLI at them."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "captions.tsv").write_text("".join(
        "\n" if c is None else f"d{i}\t0\t{c}\n" for i, c in enumerate(captions)))
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
        # the 6th line holds the 5th caption, row 4 of the svd corpus and, after
        # the shuffled split, a row of seed 0's train split or of seed 1's val split
        data = write_corpus(tmp_path, [
            "a red kite", "two red dogs", None, "a blue kite", "red dogs run", "the of and",
            "blue kites fly", "a kite", "dogs run fast", "red kites", "blue dogs"])
        line = tmp_path / "data" / "captions.tsv:6"
        for command, seed, split in (("svd", 0, "train"), ("train", 0, "train"),
                                     ("train", 1, "val")):
            out = tmp_path / f"{command}{seed}"
            code, stdout, err = run(
                [command, "--out", str(out), *TINY, "--seed", str(seed), *data], capsys)
            assert (code, stdout) == (1, ""), command
            assert err == (f"error: {line}: {split} caption has no in-vocabulary token"
                           " after preprocessing\n"), (command, seed)
            assert not out.exists()

    def test_corpus_with_no_token_fails_at_its_first_caption(self, tmp_path, capsys,
                                                             monkeypatch):
        # every caption is stopwords, so the TF-IDF matrix has no column; this used to fail
        # as "every document is empty after preprocessing", naming no file or line.
        # Seed 0's split keeps line 1 in the train split
        data = write_corpus(tmp_path, ["the of and", "a an the", "and the", "of a the"])
        svd_calls = []
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        for command in ("svd", "train"):
            out = tmp_path / command
            code, stdout, err = run([command, "--out", str(out), *TINY, *data,
                                     "--set", "validation_step=1"], capsys)
            assert (code, stdout, svd_calls) == (1, "", []), command
            assert err == (f"error: {tmp_path / 'data' / 'captions.tsv'}:1: train caption"
                           " has no in-vocabulary token after preprocessing\n"), command
            assert not out.exists()
        assert_no_child_left()

    def test_one_caption_corpus_names_the_count(self, tmp_path, capsys):
        data = write_corpus(tmp_path, ["a red kite"])
        code, stdout, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY, *data], capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: TF-IDF needs at least 2 captions, got 1\n"
        assert not (tmp_path / "svd").exists()
        assert_no_child_left()

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

    @pytest.mark.parametrize("source", ["synthetic", "files"])
    def test_svd_lays_out_no_tokens(self, tmp_path, capsys, monkeypatch, source):
        # the SVD reads the train split's ids as one array; neither split is laid out
        calls, real = [], enc.token_layout

        def spy(*args):  # the last argument holds one entry per sequence
            calls.append(len(args[-1]))
            return real(*args)

        monkeypatch.setattr(enc, "token_layout", spy)
        data = tmp_path / "data"
        run(["gen", "--out", str(data), *TINY], capsys)
        files = ["--set", f"data.captions={data / 'captions.tsv'}",
                 "--set", f"data.features={data / 'features.txt'}"]
        code, _, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY,
                            *(files if source == "files" else [])], capsys)
        assert code == 0, err
        assert calls == []

    @pytest.mark.parametrize("fault", ["dead-worker", "nan-row", "missing-features"])
    @pytest.mark.parametrize("captions", [
        ["a red kite", "two red dogs"], ["a red kite", "the of and", "two red dogs"],
    ], ids=["captions-ok", "an-empty-caption"])  # the check's error wins over the caption's
    def test_failed_check_writes_nothing(self, tmp_path, capsys, monkeypatch, fault, captions):
        data = write_corpus(tmp_path, captions)
        features = tmp_path / "data" / "features.txt"
        if fault == "dead-worker":
            monkeypatch.setattr(semhard.cli, "load_dataset", lambda *paths: os._exit(3))
            shown = "error: the dataset check's worker process died: exit code 3\n"
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
        assert_no_child_left()

    def test_failed_check_stops_the_command_before_the_svd(self, tmp_path, capsys, monkeypatch):
        svd_calls, real_tfidf = [], semhard.trainer.build_tfidf

        def build_tfidf(docs):  # the check ends while this process reads the captions
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # waits for it, reaping nothing
            return real_tfidf(docs)

        monkeypatch.setattr(semhard.trainer, "build_tfidf", build_tfidf)
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        data = write_corpus(tmp_path, ["a red kite", "two red dogs"])
        (tmp_path / "data" / "features.txt").unlink()
        # a check that never ends ends the test session after 60 s instead of hanging it
        faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
        try:
            code, _, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY, *data], capsys)
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert (code, svd_calls) == (1, [])
        assert err.startswith("error: [Errno 2] No such file or directory: ")

    def test_benchmark_tracer_hooks_still_match(self, tmp_path, capsys, monkeypatch):
        # the benchmark's tracer wraps named functions and reads their results;
        # a rename or a new return shape must fail here, not only in a traced run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import spans

        checkpoint = str(tmp_path / "train" / "best.ckpt")
        code, _, err = run(["train", "--out", str(tmp_path / "train"), *TINY], capsys)
        assert code == 0, err
        tracer = spans.Tracer()
        tracer.install()
        try:
            code, _, err = run(["svd", "--out", str(tmp_path / "svd"), *TINY], capsys)
            assert code == 0, err
            code, _, err = run(["eval", "--checkpoint", checkpoint,
                                "--out", str(tmp_path / "eval"), *TINY], capsys)
        finally:
            tracer.uninstall()
        assert code == 0, err
        assert tracer.counts["textsem.tfidf.nnz"] > 0
        assert tracer.counts["textsem.svd.k"] > 0
        # eval scores the checkpoint through the traced `trainer.validate`
        assert tracer.counts["trainer.validate.calls"] == 1
        validate = next(i for i, span in enumerate(tracer.spans) if span[0] == "trainer.validate")
        assert ["evaluation.retrieval_report", validate] in [
            [span[0], span[3]] for span in tracer.spans]


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
        # every lseh step goes through each wrapped step function once, and the
        # tracer times a step from its forward to its SGD update
        steps = tracer.counts["encoder.forward.calls"]
        for name in ("encoder.backward", "encoder.sgd_step", "losses.compute_loss",
                     "losses.semantic_factor_matrix"):
            assert tracer.counts[f"{name}.calls"] == steps, name
        assert len(tracer.steps_ms) == steps
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
        assert "exit code 3" in err
        assert_no_child_left()

    @pytest.mark.parametrize("fn", [lambda: sys.exit(0), lambda: lambda: None],
                             ids=["sys-exit-0", "unpicklable-value"])
    def test_worker_that_cannot_send_dies_nonzero(self, fn):
        # an exit that `except Exception` lets through, or a value pickle cannot
        # write, ends the worker without a message, so never with exit code 0
        with pytest.raises(SemhardError, match="^the test's worker process died: exit code 1$"):
            with semhard.cli._Worker("the test's", fn):
                pass
        assert_no_child_left()

    def test_worker_killed_by_a_signal_shows_its_negated_number(self):
        with pytest.raises(SemhardError, match="^the test's worker process died: exit code -9$"):
            with semhard.cli._Worker("the test's", lambda: os.kill(os.getpid(), signal.SIGKILL)):
                pass
        assert_no_child_left()

    def test_report_larger_than_the_pipe_buffer_comes_back(self, tmp_path, capsys, monkeypatch):
        # the parent reads to EOF before it waits: a worker whose outcome
        # outgrows the pipe's buffer waits in its write until the parent reads
        big = bytes(1 << 20)
        # a deadlock ends the test session after 60 s instead of hanging it
        faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
        try:
            with semhard.cli._Worker("the test's", lambda: big) as outcome:
                pass
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert outcome.result() == big
        assert_no_child_left()

        # compare's lmh worker sends back the two numbers compare reads, not its report
        sent = []

        class Spy(semhard.cli._Worker):
            def __exit__(self, *exc_info):
                super().__exit__(*exc_info)
                sent.append(self.result())

        monkeypatch.setattr(semhard.cli, "_Worker", Spy)
        code, _, err = run(["compare", "--out", str(tmp_path / "c"), *TINY], capsys)
        assert code == 0, err
        (best, epoch), = sent
        assert type(best) is float and type(epoch) is float
        lmh_row = (tmp_path / "c" / "comparison.csv").read_text().splitlines()[2].split(",")
        assert lmh_row[:3] == ["lmh", f"{best:.6f}", f"{epoch:.6f}"]

    def test_no_input_is_pickled_for_the_worker(self, tmp_path, capsys, monkeypatch):
        # fork hands each worker its inputs; only the worker pickles, to send its outcome
        data = tmp_path / "data"
        run(["gen", "--out", str(data), *TINY], capsys)
        command_pid, dumped, real_dumps = os.getpid(), [], pickle.dumps

        def dumps(obj, *args, **kwargs):
            if os.getpid() == command_pid:
                dumped.append(type(obj))
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dumps)
        files = ["--set", f"data.captions={data / 'captions.tsv'}",
                 "--set", f"data.features={data / 'features.txt'}"]
        for command in (["compare"], ["svd", *files]):
            code, _, err = run([*command, "--out", str(tmp_path / command[0]), *TINY], capsys)
            assert code == 0, err
        assert dumped == []

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
        assert_no_child_left()

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

    @pytest.mark.parametrize("command", ["train", "compare", "eval", "diag", "svd"])
    def test_all_zero_feature_row_names_the_line(self, tmp_path, capsys, command):
        # an all-zero image embeds as the zero vector in every model; it used to
        # fail without a line in train, compare, eval and diag, and pass svd
        data, run_dir = tmp_path / "data", tmp_path / "run"
        files = [*TINY, "--set", "loss.variant=lmh",
                 "--set", f"data.captions={data / 'captions.tsv'}",
                 "--set", f"data.features={data / 'features.txt'}"]
        run(["gen", "--out", str(data), *TINY], capsys)
        run(["train", "--out", str(run_dir), *files], capsys)
        features = data / "features.txt"
        lines = features.read_text().splitlines()
        lines[3] = " ".join(["0.0"] * len(lines[3].split()))
        features.write_text("\n".join(lines) + "\n")
        needs = ["--checkpoint", str(run_dir / "best.ckpt")] if command in ("eval", "diag") else []
        out = tmp_path / "o"
        code, stdout, err = run([command, *needs, "--out", str(out), *files], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: {features}:4: feature row 2 is all zeros\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["svd", "train"])
    def test_only_line_ends_split_caption_lines(self, tmp_path, capsys, command):
        # str.splitlines would also split at U+2028, U+0085 and form feeds
        data = tmp_path / "data"
        run(["gen", "--out", str(data), *TINY], capsys)
        captions = data / "captions.tsv"
        lines = captions.read_text(encoding="utf-8").split("\n")[:-1]
        for i, separator in enumerate(["\u2028", "\x85", "\x0c"]):
            lines[i] += f"{separator}again"
        argv = [command, "--out", str(tmp_path / "o"), *TINY,
                "--set", f"data.captions={captions}",
                "--set", f"data.features={data / 'features.txt'}"]
        captions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(argv, capsys)
        assert code == 0, err
        lines.insert(4, "d99 no tabs here")
        captions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(argv, capsys)
        assert code == 1
        assert err.startswith(f"error: {captions}:5: expected description_id")

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
        assert_no_child_left()

    @pytest.mark.parametrize("command, writer", [
        (["train"], "semhard.encoder.save_checkpoint"),
        (["compare"], "semhard.encoder.save_checkpoint"),
        (["svd"], "semhard.cli.export_semantics"),
        (["gen"], "semhard.cli.save_dataset"),
        (["eval", "--checkpoint"], "semhard.cli.write_report_csv"),
        (["diag", "--checkpoint"], "semhard.cli.write_diagnostics_csv"),
    ], ids=["train", "compare", "svd", "gen", "eval", "diag"])
    def test_failure_before_the_first_write_leaves_no_out(
        self, tmp_path, capsys, monkeypatch, command, writer
    ):
        # only a write makes --out: a command that fails at its first write leaves none
        if command[-1] == "--checkpoint":
            run(["train", "--out", str(tmp_path / "run"), *TINY], capsys)
            command = [*command, str(tmp_path / "run" / "best.ckpt")]

        def full_disk(*args, **kwargs):
            raise SemhardError("the disk is full")

        monkeypatch.setattr(writer, full_disk)
        out = tmp_path / "o"
        code, stdout, err = run([*command, "--out", str(out), *TINY], capsys)
        assert (code, stdout, err) == (1, "", "error: the disk is full\n")
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command, shown", [
        (["train", *TINY, "--set", "learning_rate=1e200"],
         "batch 1, learning_rate=1e+200: overflow encountered in dot"),
        (["train", *TINY, "--set", "loss.variant=lmh", "--set", "loss.alpha=1e308"],
         "batch 0, learning_rate=0.2: overflow encountered in reduce"),
        # finite batch losses, but their mean over a validation window of two overflows
        (["train", *TINY, "--set", "loss.variant=lmh", "--set", "loss.alpha=1.5e307"],
         "batch 1, learning_rate=0.2: overflow encountered in reduce"),
        (["compare", *TINY, "--set", "learning_rate=1e200"],
         "batch 1, learning_rate=1e+200: overflow encountered in dot"),
        # the default corpus: features that pass the pre-check, but whose squared
        # norms overflow in a later batch, used to embed as the zero vector and train on
        (["train", "--set", "loss.variant=lmh", "--set", "gen.noise=1e153", "--set", "epochs=1"],
         "batch 13, learning_rate=0.2: overflow encountered in reduce"),
        (["train", "--set", "loss.variant=lseh", "--set", "gen.noise=1e153", "--set", "epochs=1"],
         "batch 13, learning_rate=0.2: overflow encountered in reduce"),
    ], ids=["train-lr", "train-lmh-alpha", "train-lmh-window-mean", "compare-lr",
            "train-lmh-noise", "train-lseh-noise"])
    def test_diverging_run_is_one_error_line(self, tmp_path, capsys, command, shown):
        # NumPy's overflow warnings used to come first, and an infinite lmh
        # loss used to train on and write `inf` rows
        out = tmp_path / "o"
        code, stdout, err = run([*command, "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: training diverged at epoch 0, {shown}\n"
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("lr", ["1e306", "1e308"])
    def test_diverging_update_fails_at_its_batch(self, tmp_path, capsys, lr):
        # one step of 32 has finite gradients but would leave NaN or inf weights, whose
        # NaN similarities used to rank every target first: recall 100 and an inf checkpoint
        out = tmp_path / "o"
        overrides = ["batch_size=32", "validation_step=1", f"learning_rate={lr}"]
        code, stdout, err = run(["train", "--out", str(out), *TINY,
                                 *(a for o in overrides for a in ("--set", o))], capsys)
        assert (code, stdout) == (1, "")
        assert err == (f"error: training diverged at epoch 0, batch 0, learning_rate={float(lr)}:"
                       " overflow encountered in multiply\n")
        assert not out.exists()

    def test_overflowing_synthetic_features_fail_gen(self, tmp_path, capsys):
        # unchecked, noise=1e308 warns, writes `inf` into features.txt and exits 0
        out = tmp_path / "o"
        code, stdout, err = run(["gen", "--out", str(out), *TINY, "--set", "gen.noise=1e308"],
                                capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: noise=1e+308 overflows the image features\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, tiny", [
        (["train"], False), (["train", "--set", "loss.variant=lmh"], False), (["compare"], False),
        (["train"], True),
    ], ids=["train-lseh", "train-lmh", "compare", "train-lseh-files-1e-200"])
    def test_features_too_large_to_embed_fail_before_the_svd(self, tmp_path, capsys,
                                                             monkeypatch, command, tiny):
        # noise=1e200 gives finite features whose squared norms overflow; unchecked,
        # every image embeds as the zero vector and `train` exits 0. Features scaled by
        # 1e-200 are finite and nonzero, but their projections' squared norms underflow
        # to 0, which used to fail as "a projection produced the zero vector"
        data, cause = ["--set", "gen.noise=1e200"], "overflow encountered in multiply"
        if tiny:
            files = tmp_path / "data" / "captions.tsv", tmp_path / "data" / "features.txt"
            run(["gen", "--out", str(tmp_path / "data"), *TINY], capsys)
            ds = load_dataset(*files)
            ds.features *= 1e-200
            save_dataset(ds, *files)
            data = ["--set", f"data.captions={files[0]}", "--set", f"data.features={files[1]}"]
            cause = "divide by zero encountered in divide"
        svd_calls = []
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        out = tmp_path / "o"
        code, stdout, err = run([command[0], "--out", str(out), *TINY, *command[1:], *data],
                                capsys)
        assert (code, stdout, svd_calls) == (1, "", [])
        assert err == f"error: the image features are too large or too small to embed ({cause})\n"
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command", [["svd"], ["train", "--set", "validation_step=1"]],
                             ids=["svd", "train-lseh"])
    def test_one_term_vocabulary_names_its_size(self, tmp_path, capsys, monkeypatch, command):
        data = write_corpus(tmp_path, ["kite", "kites", "kite", "kites"])  # all stem to `kite`
        svd_calls = []
        monkeypatch.setattr(semhard.trainer, "truncated_svd", lambda *a: svd_calls.append(a))
        out = tmp_path / "o"
        code, stdout, err = run([command[0], "--out", str(out), *TINY, *command[1:], *data],
                                capsys)
        assert (code, stdout, svd_calls) == (1, "", [])
        assert err == ("error: the train split's vocabulary holds 1 term after preprocessing;"
                       " the SVD needs at least 2\n")
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command", [["svd"], ["train", "--set", "validation_step=1"]],
                             ids=["svd", "train-lseh"])
    def test_zero_tfidf_names_its_cause(self, tmp_path, capsys, command):
        # every caption holds both terms, so every idf is 0; unchecked, `svd` wrote a
        # zero B and lseh `train` trained as lmh
        data = write_corpus(tmp_path, ["red kite", "kite red"] * 3)
        out = tmp_path / "o"
        code, stdout, err = run([command[0], "--out", str(out), *TINY, *command[1:], *data],
                                capsys)
        assert (code, stdout) == (1, "")
        assert re.fullmatch(r"error: no term is missing from any of the train split's \d+"
                            r" captions, so every idf is 0 and the TF-IDF matrix is zero\n", err)
        assert not out.exists()
        assert_no_child_left()

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

    @pytest.mark.parametrize("reader, end", [
        pytest.param(reader, end, id=reader + suffix) for reader in sorted(NOT_UTF8)
        for end, suffix in (("\n", ""), ("\r\n", "-crlf"), ("\r", "-cr"))
    ])
    def test_non_utf8_file_names_file_and_line(self, tmp_path, capsys, reader, end):
        # every file's lines end in `end`; each reader counts \n, \r\n and \r as one line end
        paths = {"captions": tmp_path / "captions.tsv", "features": tmp_path / "features.txt"}
        paths["captions"].write_bytes(f"d0\t0\tred cat{end}d1\t1\tblue dog{end}".encode())
        paths["features"].write_bytes(f"2 2{end}0.0 1.0{end}1.0 2.0{end}".encode())
        paths[reader] = tmp_path / reader
        paths[reader].write_bytes(NOT_UTF8[reader].replace(b"\n", end.encode()))
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
        def cmd_gen(args, cfg):
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
    # the SVD of a sparse matrix may load it. scipy.linalg alone raised RSS
    # after `import semhard.cli` from 49.7 to 57.4 MB and took 0.06 s, which is
    # why small inputs use NumPy's SVD and not a LAPACK route through SciPy.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, semhard.cli;"
            " print([m in sys.modules for m in ('scipy.sparse.linalg', 'scipy.linalg')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[False, False]"


def _scipy_loaded() -> str:
    """Python that prints whether any `scipy` module, and `scipy.sparse`, are loaded."""
    return ("print(any(m.partition('.')[0] == 'scipy' for m in sys.modules),"
            " 'scipy.sparse' in sys.modules)")


def test_import_loads_no_scipy():
    # `import scipy.sparse` costs about half of this import's time; only an SVD needs it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", f"import sys, semhard.cli; {_scipy_loaded()}"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "False False\n"


def _modules_after(tmp_path, commands: list[list[str]], probe: str = _scipy_loaded()) -> list[str]:
    """Run `gen` on TINY files under tmp_path, then each command in one
    interpreter; one line that `probe` prints after each command."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    commands = [["gen", "--out", str(tmp_path / "data"), *TINY], *commands]
    code = ("import contextlib, sys\nfrom semhard.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(sys.stderr):\n"
            "        assert main(argv) == 0, argv\n"
            f"    {probe}")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _tiny_files(tmp_path) -> list[str]:
    data = tmp_path / "data"
    return [*TINY, "--set", f"data.captions={data / 'captions.tsv'}",
            "--set", f"data.features={data / 'features.txt'}"]


def test_commands_without_an_svd_load_no_scipy(tmp_path):
    # an `svd` whose TF-IDF matrix holds more than DENSE_MAX_ENTRIES entries
    # (1,875 x 865 at gen.clusters=15) builds it sparse, which shows that the
    # check sees SciPy load when it does
    lmh = [*_tiny_files(tmp_path), "--set", "loss.variant=lmh"]
    checkpoint = str(tmp_path / "lmh" / "best.ckpt")
    lines = _modules_after(tmp_path, [
        ["train", "--out", str(tmp_path / "lmh"), *lmh],
        ["eval", "--checkpoint", checkpoint, "--out", str(tmp_path / "eval"), *lmh],
        ["diag", "--checkpoint", checkpoint, "--out", str(tmp_path / "diag"), *lmh],
        ["svd", "--out", str(tmp_path / "svd"), "--set", "gen.clusters=15", "--set", "svd_k=4"],
    ])
    assert lines == ["False False"] * 4 + ["True True"]


def test_desk_scale_svd_commands_load_no_scipy(tmp_path):
    # a TF-IDF matrix of at most DENSE_MAX_ENTRIES entries reaches the SVD as a NumPy array
    files = _tiny_files(tmp_path)
    checkpoint = str(tmp_path / "lseh" / "best.ckpt")
    lines = _modules_after(tmp_path, [
        ["train", "--out", str(tmp_path / "lseh"), *files],
        ["diag", "--checkpoint", checkpoint, "--out", str(tmp_path / "diag"), *files],
        ["compare", "--out", str(tmp_path / "compare"), *files],
        ["svd", "--out", str(tmp_path / "svd"), *files],
        # the default corpus at a k above the subspace loop's
        ["svd", "--out", str(tmp_path / "svd16"), "--set", "svd_k=16"],
    ])
    assert lines == ["False False"] * 6


def test_import_loads_no_multiprocessing(tmp_path):
    # only `compare` and `svd` on files start a worker, with os.fork: importing
    # multiprocessing and starting its first Process raised their peak RSS by
    # about 0.6 MB, and importing the executor costs setup time
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    loaded = ("print([m in sys.modules"
              " for m in ('multiprocessing', 'concurrent.futures.process')])")
    code = f"import sys, semhard.data; {loaded}; import semhard.cli; {loaded}"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split("\n") == ["[False, False]", "[False, False]", ""]
    files = _tiny_files(tmp_path)
    lines = _modules_after(tmp_path, [["compare", "--out", str(tmp_path / "compare"), *files],
                                      ["svd", "--out", str(tmp_path / "svd"), *files]], loaded)
    assert lines == ["[False, False]"] * 3

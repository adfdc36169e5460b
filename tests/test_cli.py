import numpy as np
import pytest

import semhard.trainer
from semhard.cli import main

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

    def test_diag_lsh_fails_before_reading_the_checkpoint(self, tmp_path, capsys):
        code, _, err = run(
            ["diag", "--checkpoint", str(tmp_path / "nope.ckpt"),
             "--out", str(tmp_path / "diag"), "--set", "loss.variant=lsh", *TINY],
            capsys,
        )
        assert code == 1
        assert err == "error: diagnostics need a max-of-hinges loss variant\n"

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


class TestCompare:
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

    def test_malformed_set_pair(self, tmp_path, capsys):
        code, _, err = run(
            ["train", "--out", str(tmp_path / "o"), "--set", "no_equals"], capsys
        )
        assert code == 1
        assert "key=value" in err

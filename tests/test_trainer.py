import re
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest

import semhard.trainer
from semhard import encoder as enc
from semhard.data import Dataset, SyntheticSpec, generate_synthetic, split_dataset
from semhard.errors import (BadConfigValue, BeforeFirstValidation, EmptyDataset, EmptySequence,
                            MalformedLine, UnknownConfigKey)
from semhard.evaluation import retrieval_report
from semhard.losses import LossConfig
from semhard.textsem import PreprocessConfig
from semhard.trainer import (
    _FIELDS,
    CONFIG_DEFAULTS,
    TrainConfig,
    apply_overrides,
    from_config,
    parse_config_file,
    prepare_text,
    train,
    train_config_from_dict,
    validate,
    with_loss_variant,
)


@pytest.fixture(scope="module")
def small_sets():
    ds = generate_synthetic(
        SyntheticSpec(n_clusters=3, items_per_cluster=5, captions_per_image=3, seed=0)
    )
    return split_dataset(ds, 0.34, seed=0)


def small_cfg(**kw):
    base = dict(
        epochs=2, batch_size=4, validation_step=3, learning_rate=0.2,
        loss=LossConfig(variant="lseh"), seed=0, svd_k=20,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_lambda_zero_equals_lmh(self, small_sets, tmp_path):
        tr, va = small_sets
        cfg0 = small_cfg(loss=LossConfig(lam=0.0, variant="lseh"))
        cfg1 = small_cfg(loss=LossConfig(variant="lmh"))
        r0 = train(tr, va, cfg0, tmp_path / "a")
        r1 = train(tr, va, cfg1, tmp_path / "b")
        assert r0.records == r1.records
        assert r0.best_m_recall == r1.best_m_recall
        assert r0.hard_neg_logs == r1.hard_neg_logs

    def test_zero_lr_keeps_untrained_baseline(self, small_sets, tmp_path):
        tr, va = small_sets
        cfg = small_cfg(epochs=1, learning_rate=0.0, validation_step=1)
        report = train(tr, va, cfg, tmp_path / "frozen")
        scores = {s for _, s, _ in report.records}
        assert len(scores) == 1  # every validation sees the same frozen model

    def test_validation_cadence_counts_cumulative_batches(self, small_sets, tmp_path):
        tr, va = small_sets
        cfg = small_cfg(validation_step=4)
        report = train(tr, va, cfg, tmp_path / "cadence")
        fractions = [f for f, _, _ in report.records]
        # consecutive validation events are equally spaced in batch count
        diffs = np.diff(fractions)
        assert np.allclose(diffs, diffs[0])
        assert all(b > a for a, b in zip(fractions, fractions[1:]))

    @pytest.mark.parametrize("batch_size", [2, 4, 9])
    def test_each_split_is_laid_out_once(self, small_sets, tmp_path, monkeypatch, batch_size):
        tr, va = small_sets
        calls, real = [], enc.token_layout

        def spy(seqs):
            calls.append(len(seqs))
            return real(seqs)

        monkeypatch.setattr(enc, "token_layout", spy)
        train(tr, va, small_cfg(batch_size=batch_size), tmp_path / "layouts")
        assert calls == [tr.n_captions, va.n_captions]

    @pytest.fixture
    def saves(self, monkeypatch):
        calls, real = [], enc.save_checkpoint

        def spy(params, path):
            calls.append(path)
            return real(params, path)

        monkeypatch.setattr(enc, "save_checkpoint", spy)
        return calls

    def test_checkpoint_tracks_best(self, small_sets, tmp_path, saves):
        tr, va = small_sets
        report = train(tr, va, small_cfg(), tmp_path / "best")
        scores = [s for _, s, _ in report.records]
        assert report.best_m_recall == max(scores)
        # the best is not the last validation, so the final weights are not the best
        assert scores.index(max(scores)) < len(scores) - 1
        assert report.checkpoint_path is not None
        assert saves == [tmp_path / "best" / "best.ckpt"]
        params = enc.load_checkpoint(report.checkpoint_path)
        text = prepare_text(tr.captions, va.captions, PreprocessConfig())
        assert validate(params, va, text.val).m_recall == report.best_m_recall

    def test_one_checkpoint_write_per_run(self, small_sets, tmp_path, saves):
        tr, va = small_sets
        for n, step in enumerate((1, 3, 5), 1):
            train(tr, va, small_cfg(validation_step=step), tmp_path / f"s{step}")
            assert len(saves) == n

    def test_no_validation_writes_no_checkpoint(self, small_sets, tmp_path, saves):
        tr, va = small_sets
        out = tmp_path / "never"
        with pytest.raises(BeforeFirstValidation, match="the run would never validate"):
            train(tr, va, small_cfg(validation_step=10_000), out)
        assert saves == []
        assert not out.exists()

    def test_deterministic_trajectory(self, small_sets, tmp_path):
        tr, va = small_sets
        a = train(tr, va, small_cfg(), tmp_path / "d1")
        b = train(tr, va, small_cfg(), tmp_path / "d2")
        assert a.records == b.records

    def test_curve_csv_written(self, small_sets, tmp_path):
        tr, va = small_sets
        out = tmp_path / "curve"
        report = train(tr, va, small_cfg(), out, csv_header="k=v")
        lines = (out / "training_curve.csv").read_text().splitlines()
        assert lines[0] == "# k=v"
        assert lines[1] == "epoch_fraction,m_recall,loss_mean"
        assert len(lines) == 2 + len(report.records)

    def test_tag_names_both_files(self, small_sets, tmp_path):
        tr, va = small_sets
        train(tr, va, small_cfg(), tmp_path / "tagged", tag="lseh")
        names = sorted(p.name for p in (tmp_path / "tagged").iterdir())
        assert names == ["best_lseh.ckpt", "training_curve_lseh.csv"]

    def test_lr_decay_changes_trajectory(self, small_sets, tmp_path):
        tr, va = small_sets
        r_decay = train(tr, va, small_cfg(lr_update_epoch=1), tmp_path / "lr1")
        r_plain = train(tr, va, small_cfg(lr_update_epoch=1000), tmp_path / "lr2")
        assert r_decay.records != r_plain.records


class TestPrepareText:
    CAPTIONS = ["a red bicycle", "two dogs running", "a red kite flying"]
    EMPTY_CAPTION_CASES = [
        (["the a of"], ["red dogs"], "train caption 3"),
        ([], ["red dogs", "an unseen zebra"], "val caption 1"),
    ]

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls, real = [], semhard.trainer.truncated_svd

        def spy(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(semhard.trainer, "truncated_svd", spy)
        return calls

    def test_ids_and_semantics(self, svd_calls):
        text = prepare_text(self.CAPTIONS, ["red dogs"], PreprocessConfig())
        assert svd_calls == []
        assert text.vocab_size == 7
        assert text.train.lengths.tolist() == [2, 3, 3]
        sem = semhard.trainer.semantics(text, 1, 0)
        assert svd_calls == [1]
        assert sem.B.shape == (3, 1)

    @pytest.mark.parametrize("k_ceiling", [2, 3, 400])
    def test_semantics_rank_stops_below_the_smaller_side(self, svd_calls, k_ceiling):
        # 3 captions over 7 terms: at most min(n, w) - 1 = 2 columns
        text = prepare_text(self.CAPTIONS, [], PreprocessConfig())
        assert semhard.trainer.semantics(text, k_ceiling, 0).B.shape == (3, 2)
        assert svd_calls == [2]

    def test_semantics_passes_an_array_up_to_the_cap(self, monkeypatch):
        # 3 x 7 = 21 entries: an array at a cap of 21, the sparse matrix over a cap of 20
        inputs, real = [], semhard.trainer.truncated_svd
        monkeypatch.setattr(semhard.trainer, "truncated_svd",
                            lambda M, *a: inputs.append(M) or real(M, *a))
        text = prepare_text(self.CAPTIONS, [], PreprocessConfig())
        for cap in (21, 20):
            monkeypatch.setattr(semhard.trainer, "DENSE_MAX_ENTRIES", cap)
            semhard.trainer.semantics(text, 2, 0)
        dense, sparse = inputs
        assert type(dense) is np.ndarray and sparse.format == "csr"
        assert np.array_equal(dense, sparse.toarray())

    def test_one_term_vocabulary_fails_before_the_svd(self, svd_calls):
        # min(n, w) - 1 would ask the SVD for rank 0
        text = prepare_text(["kite", "kites"], [], PreprocessConfig())
        assert text.vocab_size == 1
        with pytest.raises(EmptyDataset, match="vocabulary holds 1 term"):
            semhard.trainer.semantics(text, 400, 0)
        assert svd_calls == []

    @pytest.mark.parametrize("cap", [100, 0], ids=["array", "sparse"])
    def test_zero_tfidf_fails_before_the_svd(self, svd_calls, monkeypatch, cap):
        # every term in every caption: each idf is ln(n/n) = 0, so M is zero in either form
        monkeypatch.setattr(semhard.trainer, "DENSE_MAX_ENTRIES", cap)
        text = prepare_text(["red kite", "kite red", "red red kite"], [], PreprocessConfig())
        with pytest.raises(EmptyDataset, match="no term is missing from any of the train"
                                               " split's 3 captions, so every idf is 0"):
            semhard.trainer.semantics(text, 400, 0)
        assert svd_calls == []

    @pytest.mark.parametrize("train_extra,val,message", EMPTY_CAPTION_CASES)
    def test_empty_caption_fails_before_the_svd(self, svd_calls, train_extra, val, message):
        with pytest.raises(EmptySequence, match=message):
            prepare_text(self.CAPTIONS + train_extra, val, PreprocessConfig())
        assert svd_calls == []

    @pytest.mark.parametrize("train_extra,val,message", EMPTY_CAPTION_CASES)
    def test_lseh_train_fails_on_an_empty_caption_before_the_svd(
        self, svd_calls, tmp_path, train_extra, val, message
    ):
        def one_image_each(captions):
            return Dataset(np.ones((len(captions), 2)), captions, np.arange(len(captions)))

        cfg = small_cfg(epochs=1, batch_size=2, validation_step=1)
        with pytest.raises(EmptySequence, match=message):
            train(one_image_each(self.CAPTIONS + train_extra), one_image_each(val), cfg, tmp_path)
        assert svd_calls == []


class TestValidateBaseline:
    def test_random_model_recall_near_chance(self):
        # untrained unit embeddings: expected Recall@k is about 100*k/n
        rng = np.random.default_rng(0)
        n = 100
        hits10 = []
        for trial in range(25):
            sim = rng.standard_normal((n, n))
            from semhard.evaluation import RelevanceMap, recall_at_k

            rel = RelevanceMap(
                img_to_desc=[{i} for i in range(n)], desc_to_img=list(range(n))
            )
            hits10.append(recall_at_k(sim, rel, 10, "i2t"))
        assert np.mean(hits10) == pytest.approx(10.0, abs=2.0)

    def test_perfectly_separable_reaches_hundred(self):
        sim = np.eye(20) * 2.0
        from semhard.evaluation import RelevanceMap

        rel = RelevanceMap(
            img_to_desc=[{i} for i in range(20)], desc_to_img=list(range(20))
        )
        assert retrieval_report(sim, rel).m_recall == 100.0

    def test_rank_three_counts_at_5_not_1(self):
        # image 0 ranks its caption third; image 1 ranks caption 0 above all of its own
        sim = np.zeros((2, 5))
        sim[0] = [0.5, 0.9, 0.8, 0.1, 0.0]
        sim[1] = [1.0, 0.0, 0.0, 0.0, 0.0]
        from semhard.evaluation import RelevanceMap, recall_at_k

        rel = RelevanceMap(img_to_desc=[{0}, {1, 2, 3, 4}], desc_to_img=[0, 1, 1, 1, 1])
        assert recall_at_k(sim, rel, 1, "i2t") == 0.0
        assert recall_at_k(sim, rel, 5, "i2t") == 100.0


class TestConfigFiles:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = 3\nloss.variant = lmh\n# comment\n\n")
        cfg = parse_config_file(path)
        assert cfg["epochs"] == 3
        assert cfg["loss.variant"] == "lmh"
        cfg = apply_overrides(cfg, ["loss.lambda=0.0", "seed=7"])
        assert cfg["loss.lambda"] == 0.0
        assert cfg["seed"] == 7

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epcohs = 3\n")
        with pytest.raises(UnknownConfigKey):
            parse_config_file(path)
        with pytest.raises(UnknownConfigKey):
            apply_overrides(dict(CONFIG_DEFAULTS), ["nope=1"])

    def test_train_config_round_trip(self):
        cfg = train_config_from_dict(dict(CONFIG_DEFAULTS))
        assert cfg.loss.alpha == 0.185
        assert cfg.loss.lam == 0.025
        assert cfg.loss.variant == "lseh"

    def test_variant_switch_helper(self):
        cfg = train_config_from_dict(dict(CONFIG_DEFAULTS))
        lmh = with_loss_variant(cfg, "lmh")
        assert lmh.loss.variant == "lmh"
        assert lmh.seed == cfg.seed

    def test_defaults_keep_their_keys_values_and_types(self):
        expected = {
            "seed": 0, "epochs": 5, "batch_size": 32, "validation_step": 5,
            "learning_rate": 0.2, "lr_update_epoch": 1000, "d_emb": 64, "d_word": 64,
            "svd_k": 400, "min_token_length": 3, "stemming": True, "val_fraction": 0.15,
            "loss.variant": "lseh", "loss.alpha": 0.185, "loss.lambda": 0.025,
            "data.captions": "", "data.features": "", "data.stopwords": "",
            "gen.clusters": 8, "gen.images_per_cluster": 25, "gen.captions_per_image": 5,
            "gen.d_img": 32, "gen.overlap": 0.8, "gen.noise": 0.3,
        }
        assert CONFIG_DEFAULTS == expected
        assert {k: type(v) for k, v in CONFIG_DEFAULTS.items()} == {
            k: type(v) for k, v in expected.items()
        }

    # Where each table key must land, written out apart from the table itself.
    FIELD_PATHS = {
        "seed": "train.seed", "epochs": "train.epochs", "batch_size": "train.batch_size",
        "validation_step": "train.validation_step", "learning_rate": "train.learning_rate",
        "lr_update_epoch": "train.lr_update_epoch", "d_emb": "train.d_emb",
        "d_word": "train.d_word", "svd_k": "train.svd_k",
        "loss.variant": "train.loss.variant", "loss.alpha": "train.loss.alpha",
        "loss.lambda": "train.loss.lam",
        "min_token_length": "pre.min_token_length", "stemming": "pre.stemming_enabled",
        "gen.clusters": "spec.n_clusters", "gen.images_per_cluster": "spec.items_per_cluster",
        "gen.captions_per_image": "spec.captions_per_image", "gen.d_img": "spec.d_img",
        "gen.overlap": "spec.overlap", "gen.noise": "spec.noise",
    }

    @pytest.mark.parametrize("key", sorted(FIELD_PATHS))
    def test_every_table_key_reaches_its_field(self, key):
        assert set(_FIELDS) == set(self.FIELD_PATHS)
        default = CONFIG_DEFAULTS[key]
        if isinstance(default, bool):
            value = not default
        elif isinstance(default, str):
            value = "lmh"
        else:
            value = default + 1 if isinstance(default, int) else default / 2
        cfg = apply_overrides(dict(CONFIG_DEFAULTS), [f"{key}={value}"])
        built = SimpleNamespace(
            train=train_config_from_dict(cfg),
            pre=from_config(PreprocessConfig, cfg),
            spec=from_config(SyntheticSpec, cfg),
        )
        assert value != default
        assert attrgetter(self.FIELD_PATHS[key])(built) == value

    @pytest.mark.parametrize("line,error,message", [
        ("loss.alpha = wide", BadConfigValue, "loss.alpha expects a finite number, got 'wide'"),
        ("learning_rate = nan", BadConfigValue, "learning_rate expects a finite number"),
        ("epochs = 2.5", BadConfigValue, "epochs expects an integer, got '2.5'"),
        ("stemming = maybe", BadConfigValue, "stemming expects one of true/1/yes/false/0/no"),
        ("epochs 3", MalformedLine, "expected key=value, got 'epochs 3'"),
        ("epcohs = 3", UnknownConfigKey, "unknown key 'epcohs'"),
    ])
    def test_file_errors_name_path_line_and_key(self, tmp_path, line, error, message):
        path = tmp_path / "c.cfg"
        path.write_text(f"# comment\nepochs = 3\n{line}\n")
        with pytest.raises(error, match="^" + re.escape(f"{path}:3: {message}")):
            parse_config_file(path)

    def test_set_errors_name_set_and_key(self):
        with pytest.raises(BadConfigValue, match=r"^--set: epochs expects an integer, got 'abc'$"):
            apply_overrides(dict(CONFIG_DEFAULTS), ["epochs=abc"])

"""Mini-batch training loop with paired semantic rows and best-score checkpointing.

Per batch: encode both sides, build the similarity block, attach the
semantic-factor matrix for the batch's descriptions, compute the loss,
backpropagate, and apply SGD. Every `validation_step` cumulative batches
the model is validated on the held-out set and checkpointed iff the
mean-recall score strictly improves. The CLI's eval and diag share
`prepare_text` (captions to ids and semantics) and `batch_loss` with it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import encoder as enc
from .data import Dataset, minibatches
from .errors import EmptyBatch, SemanticRowMisalignment, UnknownConfigKey
from .evaluation import retrieval_report
from .losses import (
    LossConfig,
    LossOutput,
    SimilarityBlock,
    compute_loss,
    semantic_factor_matrix,
)
from .textsem import (
    PreprocessConfig,
    ReducedSemantics,
    build_tfidf,
    preprocess,
    truncated_svd,
)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    validation_step: int = 5       # cumulative mini-batches between validations
    learning_rate: float = 0.2
    lr_update_epoch: int = 1000    # 0-based epoch at which lr is divided by 10
    loss: LossConfig = LossConfig()
    seed: int = 0
    d_emb: int = 64
    d_word: int = 64
    svd_k: int = 400               # ceiling; effective k = min(svd_k, min(n,w)-1)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2 or self.validation_step < 1:
            raise ValueError("invalid training configuration")


@dataclass
class TrainingReport:
    records: list[tuple[float, float, float]]  # (epoch_fraction, m_recall, loss_mean)
    best_m_recall: float
    best_epoch: float
    checkpoint_path: str | None
    hard_neg_logs: list[tuple[list[int], list[int]]] = field(default_factory=list)


def corpus_semantics(
    captions: list[str],
    pre_cfg: PreprocessConfig,
    k_ceiling: int,
    seed: int,
) -> tuple[ReducedSemantics, list[list[str]]]:
    """Preprocess captions, build TF-IDF, and reduce with truncated SVD."""
    token_seqs = [preprocess(c, pre_cfg) for c in captions]
    _, tdm = build_tfidf(token_seqs)
    k = min(k_ceiling, min(tdm.shape) - 1)
    return truncated_svd(tdm, k, seed=seed), token_seqs


@dataclass
class PreparedText:
    """Both splits as ids over the train vocabulary, plus optional train semantics."""
    vocab_size: int
    train_ids: list[list[int]]
    val_ids: list[list[int]]
    sem: ReducedSemantics | None


def prepare_text(
    train_captions: list[str],
    val_captions: list[str],
    pre_cfg: PreprocessConfig,
    svd_k: int | None = None,
    seed: int = 0,
) -> PreparedText:
    """Preprocess each split once and map it to ids over the sorted train
    vocabulary, dropping out-of-vocabulary tokens. With `svd_k`, the train
    split also goes through TF-IDF and the truncated SVD."""
    if svd_k is None:
        sem, train_tokens = None, [preprocess(c, pre_cfg) for c in train_captions]
    else:
        sem, train_tokens = corpus_semantics(train_captions, pre_cfg, svd_k, seed)
    terms = sorted({t for seq in train_tokens for t in seq})
    vocab = {t: i for i, t in enumerate(terms)}

    def to_ids(token_seqs):
        return [[vocab[t] for t in seq if t in vocab] for seq in token_seqs]

    val_tokens = [preprocess(c, pre_cfg) for c in val_captions]
    return PreparedText(len(vocab), to_ids(train_tokens), to_ids(val_tokens), sem)


def batch_loss(
    params: enc.ModelParams,
    ds: Dataset,
    ids: list[list[int]],
    batch: np.ndarray,
    loss_cfg: LossConfig,
    sem: ReducedSemantics | None,
) -> tuple[enc.ForwardCache, LossOutput]:
    """Forward a mini-batch of caption indices with their images, then score
    the similarity block; only lseh reads the semantic factors from `sem`."""
    X = ds.features[[ds.caption_image[d] for d in batch]]
    cache = enc.forward(params, X, [ids[d] for d in batch])
    lseh = loss_cfg.variant == "lseh"
    F = semantic_factor_matrix(sem.B[batch], loss_cfg.lam) if lseh else None
    block = SimilarityBlock(S=enc.similarity_matrix(cache), F=F)
    return cache, compute_loss(block, loss_cfg)


def validate(
    params: enc.ModelParams,
    val_ds: Dataset,
    val_token_ids: list[list[int]],
) -> float:
    """Encode the full validation set and return its mean-recall score."""
    V = enc.encode_images(params, val_ds.features)
    U = enc.encode_texts(params, val_token_ids)
    return retrieval_report(V @ U.T, val_ds.relevance).m_recall


def train(
    train_ds: Dataset,
    val_ds: Dataset,
    cfg: TrainConfig,
    out_dir: str | Path,
    pre_cfg: PreprocessConfig = PreprocessConfig(),
    sem: ReducedSemantics | None = None,
    curve_name: str = "training_curve.csv",
    checkpoint_name: str = "best.ckpt",
    csv_header: str = "",
) -> TrainingReport:
    """Run the full training loop and return the validation trajectory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if sem is not None and sem.n_rows != train_ds.n_captions:
        raise SemanticRowMisalignment(
            f"{sem.n_rows} semantic rows for {train_ds.n_captions} descriptions"
        )
    svd_k = cfg.svd_k if sem is None and cfg.loss.variant == "lseh" else None
    text = prepare_text(train_ds.captions, val_ds.captions, pre_cfg, svd_k, cfg.seed)
    sem = text.sem if sem is None else sem

    params = enc.init_params(
        d_img=train_ds.features.shape[1],
        vocab_size=text.vocab_size,
        d_word=cfg.d_word,
        d_emb=cfg.d_emb,
        seed=cfg.seed,
    )

    records: list[tuple[float, float, float]] = []
    hard_neg_logs: list[tuple[list[int], list[int]]] = []
    best = -np.inf
    best_epoch = 0.0
    checkpoint_path = out_dir / checkpoint_name
    saved = False
    batches_done = 0
    loss_acc: list[float] = []

    first_epoch_batches = len(minibatches(train_ds.n_captions, cfg.batch_size, cfg.seed, 0))
    if first_epoch_batches == 0:
        raise EmptyBatch("train set yields no usable mini-batch")

    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate / (10.0 if epoch >= cfg.lr_update_epoch else 1.0)
        for batch in minibatches(train_ds.n_captions, cfg.batch_size, cfg.seed, epoch):
            cache, out = batch_loss(params, train_ds, text.train_ids, batch, cfg.loss, sem)
            loss_acc.append(out.value)
            if out.hard_neg_img is not None:
                hard_neg_logs.append(
                    (out.hard_neg_img.tolist(), out.hard_neg_desc.tolist())
                )

            if lr > 0:
                grads = enc.backward(params, cache, out.grad_S)
                enc.sgd_step(params, grads, lr)

            batches_done += 1
            if batches_done % cfg.validation_step == 0:
                score = validate(params, val_ds, text.val_ids)
                epoch_fraction = batches_done / first_epoch_batches
                loss_mean = float(np.mean(loss_acc)) if loss_acc else 0.0
                loss_acc = []
                records.append((epoch_fraction, score, loss_mean))
                if score > best:
                    best = score
                    best_epoch = epoch_fraction
                    enc.save_checkpoint(params, checkpoint_path)
                    saved = True

    _write_curve_csv(records, out_dir / curve_name, csv_header)
    return TrainingReport(
        records=records,
        best_m_recall=float(best) if records else float("nan"),
        best_epoch=best_epoch,
        checkpoint_path=str(checkpoint_path) if saved else None,
        hard_neg_logs=hard_neg_logs,
    )


def _write_curve_csv(records, path: Path, header: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        writer = csv.writer(fh)
        writer.writerow(["epoch_fraction", "m_recall", "loss_mean"])
        for frac, score, loss_mean in records:
            writer.writerow([f"{frac:.6f}", f"{score:.6f}", f"{loss_mean:.6f}"])


# --- flat key=value config files -------------------------------------------

CONFIG_DEFAULTS: dict[str, object] = {
    "seed": 0,
    "epochs": 5,
    "batch_size": 32,
    "validation_step": 5,
    "learning_rate": 0.2,
    "lr_update_epoch": 1000,
    "d_emb": 64,
    "d_word": 64,
    "svd_k": 400,
    "min_token_length": 3,
    "stemming": True,
    "val_fraction": 0.15,
    "loss.variant": "lseh",
    "loss.alpha": 0.185,
    "loss.lambda": 0.025,
    "data.captions": "",
    "data.features": "",
    "data.stopwords": "",
    "gen.clusters": 8,
    "gen.images_per_cluster": 25,
    "gen.captions_per_image": 5,
    "gen.d_img": 32,
    "gen.overlap": 0.8,
    "gen.noise": 0.3,
}


def _coerce(key: str, raw: str):
    default = CONFIG_DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean for {key}: {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat UTF-8 key=value file; unknown keys are hard errors."""
    cfg = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), 1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise UnknownConfigKey(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = _coerce(key, raw)
    return cfg


def apply_overrides(cfg: dict[str, object], pairs: list[str]) -> dict[str, object]:
    """Apply repeatable `--set key=value` overrides on top of a config."""
    cfg = dict(cfg)
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override must be key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise UnknownConfigKey(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, raw)
    return cfg


def train_config_from_dict(cfg: dict[str, object]) -> TrainConfig:
    return TrainConfig(
        epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        validation_step=int(cfg["validation_step"]),
        learning_rate=float(cfg["learning_rate"]),
        lr_update_epoch=int(cfg["lr_update_epoch"]),
        loss=LossConfig(
            alpha=float(cfg["loss.alpha"]),
            lam=float(cfg["loss.lambda"]),
            variant=str(cfg["loss.variant"]),
        ),
        seed=int(cfg["seed"]),
        d_emb=int(cfg["d_emb"]),
        d_word=int(cfg["d_word"]),
        svd_k=int(cfg["svd_k"]),
    )


def with_loss_variant(cfg: TrainConfig, variant: str, lam: float | None = None) -> TrainConfig:
    loss = replace(cfg.loss, variant=variant, **({} if lam is None else {"lam": lam}))
    return replace(cfg, loss=loss)

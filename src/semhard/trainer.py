"""Mini-batch training loop with paired semantic rows and best-score checkpointing.

Per batch: encode both sides, build the similarity block, attach the
semantic-factor matrix for the batch's descriptions, compute the loss,
backpropagate, and apply SGD. Every `validation_step` cumulative batches
the model is validated on the held-out set, and its weights are kept iff
the mean-recall score strictly improves; the best weights are written to
the checkpoint once, when training ends. The CLI's eval shares `validate`,
diag `batch_loss`, and both `prepare_text` and `no_overflow` with it.
`semantics` runs the truncated SVD for lseh `train`, lseh `diag` and `svd`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import encoder as enc
from .data import CaptionLines, Dataset, SyntheticSpec, minibatches, read_lines
from .errors import (BadConfigValue, BeforeFirstValidation, EmptyDataset, EmptySequence,
                     MalformedLine, NonFiniteGradient, SemhardError, UnknownConfigKey)
from .evaluation import RetrievalReport, retrieval_report, write_csv
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
    TermDocMatrix,
    build_tfidf,
    preprocess,
    truncated_svd,
)

# semantics hands the SVD a TF-IDF matrix of at most this many entries as an array
DENSE_MAX_ENTRIES = 1000 ** 2


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
        for name, low in (("epochs", 1), ("batch_size", 2), ("validation_step", 1),
                          ("learning_rate", 0), ("svd_k", 1), ("d_emb", 1), ("d_word", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass
class TrainingReport:
    records: list[tuple[float, float, float]]  # (epoch_fraction, m_recall, loss_mean)
    best_m_recall: float
    best_epoch: float
    checkpoint_path: str
    hard_neg_logs: list[tuple[list[int], list[int]]] = field(default_factory=list)


@dataclass
class PreparedText:
    """Both splits as ids over the train vocabulary, plus the train split's
    TF-IDF, which holds that split's ids. Each split is laid out for encoding
    (a batch is a row selection) on first read: `svd` lays out neither."""
    vocab_size: int
    tfidf: TermDocMatrix
    val_ids: tuple[np.ndarray, np.ndarray]  # the val split's ids and lengths, as enc.id_arrays

    @cached_property
    def train(self) -> enc.TokenLayout:
        return enc.token_layout(self.tfidf.ids, self.tfidf.lengths)

    @cached_property
    def val(self) -> enc.TokenLayout:
        return enc.token_layout(*self.val_ids)


def prepare_text(
    train_captions: list[str],
    val_captions: list[str],
    pre_cfg: PreprocessConfig,
    train_lines: CaptionLines | None = None,
    val_lines: CaptionLines | None = None,
) -> PreparedText:
    """Preprocess each split once and map it to ids over the sorted train
    vocabulary of the train split's TF-IDF matrix, dropping out-of-vocabulary
    tokens. Runs no SVD.

    Raises EmptySequence for a caption of either split that keeps no
    in-vocabulary token: the encoder cannot embed it. The error names the
    caption's `path:line` when the split's `CaptionLines` are given, and
    its index in the split otherwise.
    """
    index, tdm = build_tfidf([preprocess(c, pre_cfg) for c in train_captions])
    val = enc.id_arrays([[index[t] for t in preprocess(c, pre_cfg) if t in index]
                         for c in val_captions])
    for split, lengths, lines in (("train", tdm.lengths, train_lines), ("val", val[1], val_lines)):
        if not lengths.all():
            empty = int(np.argmin(lengths))  # the first empty caption
            caption = (f"{split} caption {empty}" if lines is None
                       else f"{lines.where(empty)}: {split} caption")
            raise EmptySequence(f"{caption} has no in-vocabulary token after preprocessing")
    return PreparedText(len(index), tdm, val)


def semantics(text: PreparedText, k_ceiling: int, seed: int) -> ReducedSemantics:
    """The train split's semantics: the truncated SVD of its n x w TF-IDF
    matrix at rank min(k_ceiling, min(n, w) - 1). A vocabulary of one term
    leaves no rank and fails as EmptyDataset before the SVD.

    The matrix's size picks its form, and its form picks the solver: one of
    at most DENSE_MAX_ENTRIES entries (8 MB) goes to the SVD as a NumPy
    array, which spares the `scipy.sparse` import, and a larger one as the
    sparse matrix, which ARPACK reduces. A zero matrix, where every term
    occurs in every caption, fails as EmptyDataset before the SVD too."""
    if text.vocab_size < 2:
        raise EmptyDataset(f"the train split's vocabulary holds {text.vocab_size} term after"
                           " preprocessing; the SVD needs at least 2")
    n, w = text.tfidf.shape
    M = text.tfidf.dense() if n * w <= DENSE_MAX_ENTRIES else text.tfidf.matrix
    if M.max() == 0:  # the weights are >= 0
        raise EmptyDataset(f"no term is missing from any of the train split's {n} captions,"
                           " so every idf is 0 and the TF-IDF matrix is zero")
    return truncated_svd(M, min(k_ceiling, n - 1, w - 1), seed)


def corpus_semantics(
    captions: list[str],
    pre_cfg: PreprocessConfig,
    k_ceiling: int,
    seed: int,
) -> tuple[ReducedSemantics, PreparedText]:
    """The semantics of a whole corpus and its prepared text: `prepare_text`
    with no val split, so an empty caption fails here as it does in training."""
    text = prepare_text(captions, [], pre_cfg)
    return semantics(text, k_ceiling, seed), text


def batch_loss(
    params: enc.ModelParams,
    ds: Dataset,
    tokens: enc.TokenLayout,
    batch: np.ndarray,
    loss_cfg: LossConfig,
    sem: ReducedSemantics | None,
) -> tuple[enc.ForwardCache, LossOutput]:
    """Forward a mini-batch of caption indices with their images, then score
    the similarity block; only lseh reads the semantic factors, from the
    unit rows `sem` computes once per run."""
    cache = enc.forward(params, ds.features.take(ds.caption_image.take(batch), 0), tokens[batch])
    lseh = loss_cfg.variant == "lseh"
    F = semantic_factor_matrix(sem.unit_B.take(batch, 0), loss_cfg.lam, unit=True) if lseh else None
    block = SimilarityBlock(S=enc.similarity_matrix(cache), F=F)
    return cache, compute_loss(block, loss_cfg)


@contextmanager
def no_overflow(error: type[SemhardError], what: str):
    """Fail as one `error`, `what` and the cause, when the `with` body overflows,
    which would otherwise only warn and embed every input as the zero vector."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise error(f"{what} ({exc})") from None


def validate(params: enc.ModelParams, val_ds: Dataset,
             val_tokens: enc.TokenLayout) -> RetrievalReport:
    """The full validation set's retrieval report, whose `m_recall` is the score.
    Diverged weights, whose similarities hold NaN or inf, fail as NonFiniteGradient."""
    V = enc.encode_images(params, val_ds.features)
    U = enc.encode_texts(params, val_tokens)
    sim = V @ U.T
    if not np.isfinite(sim).all():
        raise NonFiniteGradient("the validation similarities hold NaN or inf")
    return retrieval_report(sim, val_ds.relevance)


def check_val_split(val_ds: Dataset) -> None:
    """Raise BeforeFirstValidation for a validation split with no caption."""
    if val_ds.n_captions == 0:
        raise BeforeFirstValidation(
            "the validation split holds no caption: no image has two captions")


def train(
    train_ds: Dataset,
    val_ds: Dataset,
    cfg: TrainConfig,
    out_dir: str | Path,
    pre_cfg: PreprocessConfig = PreprocessConfig(),
    tag: str = "",
    csv_header: str = "",
) -> TrainingReport:
    """Run the full training loop and return the validation trajectory. It
    writes `training_curve.csv` and `best.ckpt`, named `*_<tag>` under a tag.
    A schedule that never validates, or an empty val split, fails before any work or write."""
    check_val_split(val_ds)
    first_epoch_batches = len(minibatches(train_ds.n_captions, cfg.batch_size, cfg.seed, 0))
    if cfg.epochs * first_epoch_batches < cfg.validation_step:  # every epoch has as many batches
        raise BeforeFirstValidation(
            f"the run would never validate: {cfg.epochs} epochs x {first_epoch_batches}"
            f" batches < validation_step={cfg.validation_step}")
    out_dir = Path(out_dir)

    text = prepare_text(train_ds.captions, val_ds.captions, pre_cfg, train_ds.lines, val_ds.lines)
    params = enc.init_params(
        d_img=train_ds.features.shape[1],
        vocab_size=text.vocab_size,
        d_word=cfg.d_word,
        d_emb=cfg.d_emb,
        seed=cfg.seed,
    )
    with no_overflow(SemhardError, "the image features are too large to embed"):
        enc.encode_images(params, train_ds.features)
    sem = semantics(text, cfg.svd_k, cfg.seed) if cfg.loss.variant == "lseh" else None

    records: list[tuple[float, float, float]] = []
    hard_neg_logs: list[tuple[list[int], list[int]]] = []
    best = -np.inf
    best_epoch = 0.0
    batches_done = 0
    loss_acc: list[float] = []

    # a diverging run would warn at every overflow; its first non-finite
    # loss or gradient fails instead, as one error naming where
    with np.errstate(all="ignore"):
        try:
            for epoch in range(cfg.epochs):
                lr = cfg.learning_rate / (10.0 if epoch >= cfg.lr_update_epoch else 1.0)
                for b, batch in enumerate(minibatches(train_ds.n_captions, cfg.batch_size,
                                                      cfg.seed, epoch)):
                    cache, out = batch_loss(params, train_ds, text.train, batch, cfg.loss, sem)
                    if not math.isfinite(out.value):
                        raise NonFiniteGradient(f"the loss is {out.value}")
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
                        score = validate(params, val_ds, text.val).m_recall
                        epoch_fraction = batches_done / first_epoch_batches
                        loss_mean = float(np.mean(loss_acc))
                        if not np.isfinite(loss_mean):
                            raise NonFiniteGradient("the mean loss since the last validation"
                                                    f" is {loss_mean}")
                        loss_acc = []
                        records.append((epoch_fraction, score, loss_mean))
                        if score > best:
                            best = score
                            best_epoch = epoch_fraction
                            best_params = params.copy()
        except NonFiniteGradient as exc:
            raise NonFiniteGradient(f"training diverged at epoch {epoch}, batch {b},"
                                    f" learning_rate={lr}: {exc}") from None

    suffix = f"_{tag}" if tag else ""
    checkpoint_path = out_dir / f"best{suffix}.ckpt"
    enc.save_checkpoint(best_params, checkpoint_path)
    write_csv(
        out_dir / f"training_curve{suffix}.csv", csv_header,
        ["epoch_fraction", "m_recall", "loss_mean"],
        ([f"{frac:.6f}", f"{score:.6f}", f"{loss:.6f}"] for frac, score, loss in records),
    )
    return TrainingReport(
        records=records,
        best_m_recall=float(best),
        best_epoch=best_epoch,
        checkpoint_path=str(checkpoint_path),
        hard_neg_logs=hard_neg_logs,
    )


# --- flat key=value config files -------------------------------------------

# Config key -> (config class, field). Each default lives in its dataclass;
# `from_config` reads the keys of one class back out of a resolved config.
_FIELDS: dict[str, tuple[type, str]] = {
    **{name: (TrainConfig, name) for name in (
        "seed", "epochs", "batch_size", "validation_step", "learning_rate",
        "lr_update_epoch", "d_emb", "d_word", "svd_k")},
    "loss.variant": (LossConfig, "variant"),
    "loss.alpha": (LossConfig, "alpha"),
    "loss.lambda": (LossConfig, "lam"),
    "min_token_length": (PreprocessConfig, "min_token_length"),
    "stemming": (PreprocessConfig, "stemming_enabled"),
    "gen.clusters": (SyntheticSpec, "n_clusters"),
    "gen.images_per_cluster": (SyntheticSpec, "items_per_cluster"),
    **{f"gen.{name}": (SyntheticSpec, name)
       for name in ("captions_per_image", "d_img", "overlap", "noise")},
}

# A dataclass field's default is its class attribute.
CONFIG_DEFAULTS: dict[str, object] = {
    **{key: getattr(cls, name) for key, (cls, name) in _FIELDS.items()},
    "val_fraction": 0.15,
    "data.captions": "",
    "data.features": "",
    "data.stopwords": "",
}

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_EXPECTS = {bool: "one of " + "/".join(_BOOLS), int: "an integer", float: "a finite number"}


def from_config(cls, cfg: dict[str, object], **extra):
    """Build `cls` from the config keys `_FIELDS` maps onto its fields;
    `extra` supplies the fields no key of its own sets."""
    return cls(**{name: cfg[key] for key, (owner, name) in _FIELDS.items() if owner is cls},
               **extra)


def _assign(cfg: dict[str, object], pair: str, where: str) -> None:
    """Set one `key=value` pair, typed like the key's default and in the
    range its owning class accepts. Every error names `where` (`path:line`,
    `--set` or `--seed`) and, once parsed, the key."""
    key, sep, raw = (part.strip() for part in pair.partition("="))
    if not sep:
        raise MalformedLine(f"{where}: expected key=value, got {pair!r}")
    if key not in CONFIG_DEFAULTS:
        raise UnknownConfigKey(f"{where}: unknown key {key!r}")
    kind = type(CONFIG_DEFAULTS[key])
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
        ok = kind is not float or np.isfinite(value)
    except (KeyError, ValueError):
        ok = False
    if not ok:
        raise BadConfigValue(f"{where}: {key} expects {_EXPECTS[kind]}, got {raw!r}")
    try:  # range-check the value alone, before the run starts, by its owning class if any
        if key in _FIELDS:
            owner, name = _FIELDS[key]
            owner(**{name: value})
        elif key == "val_fraction" and not 0.0 < value < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
    except ValueError as exc:
        raise BadConfigValue(f"{where}: {key}: {exc}") from None
    cfg[key] = value


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat UTF-8 key=value file over the defaults; `#` starts a comment line."""
    cfg = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            _assign(cfg, line, f"{path}:{lineno}")
    return cfg


def apply_overrides(
    cfg: dict[str, object], pairs: list[str], where: str = "--set"
) -> dict[str, object]:
    """Apply `key=value` overrides from the command-line option `where` on top of a config."""
    cfg = dict(cfg)
    for pair in pairs:
        _assign(cfg, pair, where)
    return cfg


def train_config_from_dict(cfg: dict[str, object]) -> TrainConfig:
    return from_config(TrainConfig, cfg, loss=from_config(LossConfig, cfg))


def with_loss_variant(cfg: TrainConfig, variant: str) -> TrainConfig:
    return replace(cfg, loss=replace(cfg.loss, variant=variant))

"""Command-line front door.

Subcommands: train, eval, svd, gen, compare, diag. Config precedence is
file < repeated --set overrides < --seed; unknown keys are hard errors.
Every output CSV starts with a comment line recording the resolved config.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import encoder as enc
from . import trainer
from .data import (
    Dataset,
    SyntheticSpec,
    caption_lines,
    generate_synthetic,
    load_dataset,
    minibatches,
    save_dataset,
    split_dataset,
)
from .errors import SemhardError, ShapeMismatch
from .evaluation import (
    efficiency_difference,
    epochs_to_threshold,
    hard_negative_uniques,
    retrieval_report,
    write_csv,
    write_diagnostics_csv,
    write_report_csv,
)
from .stopwords import load_stopwords
from .textsem import PreprocessConfig, export_semantics
from .trainer import (
    CONFIG_DEFAULTS,
    apply_overrides,
    from_config,
    parse_config_file,
    train_config_from_dict,
)


def _resolved_header(cfg: dict[str, object]) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def _load_config(args) -> dict[str, object]:
    cfg = parse_config_file(args.config) if args.config else dict(CONFIG_DEFAULTS)
    cfg = apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg = apply_overrides(cfg, [f"seed={args.seed}"], where="--seed")
    return cfg


def _preprocess_config(cfg: dict[str, object]) -> PreprocessConfig:
    stopwords = cfg["data.stopwords"]
    extra = {"stopword_list": load_stopwords(stopwords)} if stopwords else {}
    return from_config(PreprocessConfig, cfg, **extra)


def _data_files(cfg: dict[str, object]) -> tuple[str, str] | None:
    """The configured (captions, features) files, or None when neither is set."""
    captions, features = cfg["data.captions"], cfg["data.features"]
    if captions and features:
        return captions, features
    if captions or features:
        given, unset = ("captions", "features") if captions else ("features", "captions")
        raise SemhardError(f"data.{given} is set but data.{unset} is not; set both or neither")
    return None


def _load(cfg: dict[str, object]) -> Dataset:
    """The configured dataset files, or else, when neither is set, the
    synthetic spec's corpus."""
    files = _data_files(cfg)
    if files:
        return load_dataset(*files)
    return generate_synthetic(from_config(SyntheticSpec, cfg, seed=cfg["seed"]))


@contextmanager
def _in_worker(what: str, fn, *args):
    """Yield the future of `fn(*args)`, run in one forked worker while the
    `with` body runs here. Leaving the block waits for the worker on every
    path, and the worker's error wins over the body's; a worker that dies
    without raising fails as one SemhardError naming `what`."""
    # imported here: `import semhard.cli` would otherwise load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    # forked, not spawned, which would import NumPy and this package again;
    # the pool forks before it starts its own thread
    with ProcessPoolExecutor(1, mp_context=get_context("fork")) as pool:
        future = pool.submit(fn, *args)
        try:
            yield future
        finally:
            try:
                future.result()
            except BrokenProcessPool as exc:
                raise SemhardError(f"{what} worker process died: {exc}") from None


def _load_or_generate(cfg: dict[str, object]) -> tuple[Dataset, Dataset]:
    """Load or generate the dataset, then split it into train/val by
    caption: every image keeps at least one caption in train."""
    return split_dataset(_load(cfg), cfg["val_fraction"], cfg["seed"])


def _checkpoint_text(checkpoint, cfg, train_ds, val_captions):
    """The checkpoint's weights and the captions as ids over the vocabulary
    rebuilt from `cfg`, which must be as large as the one it was trained on."""
    params = enc.load_checkpoint(checkpoint)
    if params.W_img.shape[0] != train_ds.features.shape[1]:
        raise ShapeMismatch(f"{checkpoint}: the checkpoint takes {params.W_img.shape[0]}-wide"
                            f" image features, but this config's are {train_ds.features.shape[1]}")
    text = trainer.prepare_text(train_ds.captions, val_captions, _preprocess_config(cfg))
    if params.E_word.shape[0] != text.vocab_size:
        raise ShapeMismatch(
            f"{checkpoint}: the checkpoint embeds {params.E_word.shape[0]} words,"
            f" but this config's training split has {text.vocab_size};"
            " pass the training run's config and seed"
        )
    return params, text


def _run_one_training(cfg, out_dir, split, variant=None):
    """Train on the (train, val) `split`; a `variant` also tags the output files."""
    train_ds, val_ds = split
    tcfg = train_config_from_dict(cfg)
    if variant is not None:
        tcfg = trainer.with_loss_variant(tcfg, variant)
    return trainer.train(
        train_ds,
        val_ds,
        tcfg,
        out_dir,
        pre_cfg=_preprocess_config(cfg),
        tag=variant or "",
        csv_header=_resolved_header(cfg),
    )


def cmd_train(args) -> int:
    cfg = _load_config(args)
    report = _run_one_training(cfg, args.out, _load_or_generate(cfg))
    print(f"best_m_recall={report.best_m_recall:.4f} at_epoch={report.best_epoch:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    train_ds, val_ds = _load_or_generate(cfg)
    trainer.check_val_split(val_ds)
    params, text = _checkpoint_text(args.checkpoint, cfg, train_ds, val_ds.captions)
    V = enc.encode_images(params, val_ds.features)
    U = enc.encode_texts(params, text.val)
    report = retrieval_report(V @ U.T, val_ds.relevance)
    out = Path(args.out) / "retrieval_report.csv"
    Path(args.out).mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out, header=_resolved_header(cfg))
    print(f"m_recall={report.m_recall:.4f}")
    return 0


def _check_dataset(captions_path, features_path) -> None:
    """Every check of `load_dataset`, with nothing to send back."""
    load_dataset(captions_path, features_path)


def cmd_svd(args) -> int:
    cfg = _load_config(args)
    tcfg = train_config_from_dict(cfg)
    pre_cfg = _preprocess_config(cfg)
    files = _data_files(cfg)
    if files is None:  # the synthetic corpus has nothing to check
        sem, _ = trainer.corpus_semantics(_load(cfg).captions, pre_cfg, tcfg.svd_k, tcfg.seed)
    else:  # the SVD needs only the texts, so the dataset is checked in a worker meanwhile
        with _in_worker("the dataset check's", _check_dataset, *files) as checked:
            text = trainer.prepare_text([t for *_, t in caption_lines(files[0])], [], pre_cfg)
            if checked.done():  # a check that has already failed ends the command before the SVD
                checked.result()
            sem = trainer.semantics(text, tcfg.svd_k, tcfg.seed)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    out = Path(args.out) / "semantics.bin"
    export_semantics(sem, out)
    print(f"wrote {out} ({sem.B.shape[0]}x{sem.B.shape[1]})")
    return 0


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    ds = generate_synthetic(from_config(SyntheticSpec, cfg, seed=cfg["seed"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / "captions.tsv", out / "features.txt")
    print(f"wrote {ds.n_images} images / {ds.n_captions} captions to {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    split = _load_or_generate(cfg)
    out_dir = Path(args.out)
    # lmh trains in a worker while this process trains lseh; lmh's error
    # wins over lseh's, as when lmh ran first
    with _in_worker("the lmh run's", _run_one_training, cfg, out_dir, split, "lmh") as lmh_run:
        lseh_report = _run_one_training(cfg, out_dir, split, variant="lseh")
    lmh_report = lmh_run.result()

    threshold = lmh_report.best_m_recall
    crossing = epochs_to_threshold(
        [(f, s) for f, s, _ in lseh_report.records], threshold
    )
    if crossing is None:
        difference = ""
        crossing_str = ""
    else:
        difference = f"{efficiency_difference(crossing, lmh_report.best_epoch):.4f}"
        crossing_str = f"{crossing:.6f}"

    path = out_dir / "comparison.csv"
    columns = ["loss", "best_m_recall", "best_epoch", "epochs_to_lmh_best", "difference_pct"]
    rows = [
        ["lmh", f"{lmh_report.best_m_recall:.6f}", f"{lmh_report.best_epoch:.6f}",
         f"{lmh_report.best_epoch:.6f}", "0.0000"],
        ["lseh", f"{lseh_report.best_m_recall:.6f}", f"{lseh_report.best_epoch:.6f}",
         crossing_str, difference],
    ]
    write_csv(path, _resolved_header(cfg), columns, rows)
    print(f"wrote {path}")
    return 0


def cmd_diag(args) -> int:
    cfg = _load_config(args)
    tcfg = train_config_from_dict(cfg)
    if tcfg.loss.variant == "lsh":
        raise SemhardError("diagnostics need a max-of-hinges loss variant")
    train_ds, _ = _load_or_generate(cfg)
    params, text = _checkpoint_text(args.checkpoint, cfg, train_ds, [])
    sem = trainer.semantics(text, tcfg.svd_k, tcfg.seed) if tcfg.loss.variant == "lseh" else None
    logs = []
    for batch in minibatches(train_ds.n_captions, tcfg.batch_size, tcfg.seed, 0):
        _, out = trainer.batch_loss(params, train_ds, text.train, batch, tcfg.loss, sem)
        logs.append((out.hard_neg_img.tolist(), out.hard_neg_desc.tolist()))

    stats = hard_negative_uniques(logs)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    path = Path(args.out) / "hard_negative_diagnostics.csv"
    write_diagnostics_csv(stats, path, header=_resolved_header(cfg))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semhard",
        description="Train and evaluate a bi-encoder with semantically-"
        "enhanced hard-negative losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "svd": cmd_svd,
        "gen": cmd_gen,
        "compare": cmd_compare,
        "diag": cmd_diag,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if name in ("eval", "diag"):
            p.add_argument("--checkpoint", required=True)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (SemhardError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

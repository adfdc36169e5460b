"""Command-line front door.

Subcommands: train, eval, svd, gen, compare, diag. Config precedence is
file < repeated --set overrides < --seed; unknown keys are hard errors.
Every output CSV starts with a comment line recording the resolved config.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import encoder as enc
from . import trainer
from .data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    minibatches,
    save_dataset,
    split_dataset,
)
from .errors import BeforeFirstValidation, EmptyDataset, SemhardError
from .evaluation import (
    efficiency_difference,
    epochs_to_threshold,
    hard_negative_uniques,
    retrieval_report,
    write_diagnostics_csv,
    write_report_csv,
)
from .stopwords import load_stopwords
from .textsem import PreprocessConfig, export_semantics
from .trainer import (
    CONFIG_DEFAULTS,
    apply_overrides,
    parse_config_file,
    train_config_from_dict,
)


def _resolved_header(cfg: dict[str, object]) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def _load_config(args) -> dict[str, object]:
    cfg = parse_config_file(args.config) if args.config else dict(CONFIG_DEFAULTS)
    cfg = apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _preprocess_config(cfg: dict[str, object]) -> PreprocessConfig:
    stopwords = None
    if cfg["data.stopwords"]:
        stopwords = load_stopwords(str(cfg["data.stopwords"]))
    kwargs = {"min_token_length": int(cfg["min_token_length"]),
              "stemming_enabled": bool(cfg["stemming"])}
    if stopwords is not None:
        kwargs["stopword_list"] = stopwords
    return PreprocessConfig(**kwargs)


def _synthetic_spec(cfg: dict[str, object]) -> SyntheticSpec:
    return SyntheticSpec(
        n_clusters=int(cfg["gen.clusters"]),
        items_per_cluster=int(cfg["gen.images_per_cluster"]),
        captions_per_image=int(cfg["gen.captions_per_image"]),
        d_img=int(cfg["gen.d_img"]),
        overlap=float(cfg["gen.overlap"]),
        noise=float(cfg["gen.noise"]),
        seed=int(cfg["seed"]),
    )


def _load(cfg: dict[str, object]) -> Dataset:
    """The configured dataset files, or else the synthetic spec's corpus."""
    if cfg["data.captions"] and cfg["data.features"]:
        return load_dataset(str(cfg["data.captions"]), str(cfg["data.features"]))
    return generate_synthetic(_synthetic_spec(cfg))


def _load_or_generate(cfg: dict[str, object]) -> tuple[Dataset, Dataset]:
    """Load or generate the dataset, then split it into train/val by
    caption: every image keeps at least one caption in train."""
    ds = _load(cfg)
    if ds.n_captions == 0:
        raise EmptyDataset("dataset holds no captions")
    return split_dataset(ds, float(cfg["val_fraction"]), int(cfg["seed"]))


def _run_one_training(cfg, out_dir, variant=None, tag=""):
    train_ds, val_ds = _load_or_generate(cfg)
    tcfg = train_config_from_dict(cfg)
    if variant is not None:
        tcfg = trainer.with_loss_variant(tcfg, variant)
    suffix = f"_{tag}" if tag else ""
    return trainer.train(
        train_ds,
        val_ds,
        tcfg,
        out_dir,
        pre_cfg=_preprocess_config(cfg),
        curve_name=f"training_curve{suffix}.csv",
        checkpoint_name=f"best{suffix}.ckpt",
        csv_header=_resolved_header(cfg),
    )


def cmd_train(args) -> int:
    cfg = _load_config(args)
    report = _run_one_training(cfg, args.out)
    print(f"best_m_recall={report.best_m_recall:.4f} at_epoch={report.best_epoch:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    train_ds, val_ds = _load_or_generate(cfg)
    params = enc.load_checkpoint(args.checkpoint)
    text = trainer.prepare_text(train_ds.captions, val_ds.captions, _preprocess_config(cfg))
    V = enc.encode_images(params, val_ds.features)
    U = enc.encode_texts(params, text.val_ids)
    report = retrieval_report(V @ U.T, val_ds.relevance)
    out = Path(args.out) / "retrieval_report.csv"
    Path(args.out).mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out, header=_resolved_header(cfg))
    print(f"m_recall={report.m_recall:.4f}")
    return 0


def cmd_svd(args) -> int:
    cfg = _load_config(args)
    sem, _ = trainer.corpus_semantics(
        _load(cfg).captions, _preprocess_config(cfg), int(cfg["svd_k"]), int(cfg["seed"])
    )
    Path(args.out).mkdir(parents=True, exist_ok=True)
    out = Path(args.out) / "semantics.bin"
    export_semantics(sem, out)
    print(f"wrote {out} ({sem.B.shape[0]}x{sem.B.shape[1]})")
    return 0


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    ds = generate_synthetic(_synthetic_spec(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out / "captions.tsv", out / "features.txt")
    print(f"wrote {ds.n_images} images / {ds.n_captions} captions to {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    lmh_report = _run_one_training(cfg, out_dir, variant="lmh", tag="lmh")
    lseh_report = _run_one_training(cfg, out_dir, variant="lseh", tag="lseh")
    if not lmh_report.records:
        raise BeforeFirstValidation("the reference run never validated")

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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {_resolved_header(cfg)}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["loss", "best_m_recall", "best_epoch", "epochs_to_lmh_best", "difference_pct"]
        )
        writer.writerow(
            ["lmh", f"{lmh_report.best_m_recall:.6f}", f"{lmh_report.best_epoch:.6f}",
             f"{lmh_report.best_epoch:.6f}", "0.0000"]
        )
        writer.writerow(
            ["lseh", f"{lseh_report.best_m_recall:.6f}", f"{lseh_report.best_epoch:.6f}",
             crossing_str, difference]
        )
    print(f"wrote {path}")
    return 0


def cmd_diag(args) -> int:
    cfg = _load_config(args)
    tcfg = train_config_from_dict(cfg)
    if tcfg.loss.variant == "lsh":
        raise SemhardError("diagnostics need a max-of-hinges loss variant")
    train_ds, _ = _load_or_generate(cfg)
    params = enc.load_checkpoint(args.checkpoint)
    svd_k = tcfg.svd_k if tcfg.loss.variant == "lseh" else None
    text = trainer.prepare_text(train_ds.captions, [], _preprocess_config(cfg), svd_k, tcfg.seed)
    logs = []
    for batch in minibatches(train_ds.n_captions, tcfg.batch_size, tcfg.seed, 0):
        _, out = trainer.batch_loss(params, train_ds, text.train_ids, batch, tcfg.loss, text.sem)
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
    except (SemhardError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

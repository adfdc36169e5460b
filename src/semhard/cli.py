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

import numpy as np

from . import encoder as enc
from . import trainer
from .data import (
    CaptionLines,
    Dataset,
    SyntheticSpec,
    caption_lines,
    generate_synthetic,
    load_dataset,
    minibatches,
    save_dataset,
    split_dataset,
)
from .errors import BadCheckpoint, SemhardError, ShapeMismatch, ZeroNormEmbedding
from .evaluation import (
    efficiency_difference,
    epochs_to_threshold,
    hard_negative_uniques,
    retrieval_report,  # unused here, but bench/spans.py wraps `semhard.cli.retrieval_report`
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


class _Worker:
    """`fn()` run in one forked worker while the `with` body runs here. Fork
    hands the worker `fn` and all it closes over, so no input is pickled, and
    one message, `fn`'s value or its error, comes back over a one-way pipe.
    Leaving the block waits for the worker on every path, and the worker's
    error wins over the body's; a worker that dies without sending fails as
    one SemhardError naming `what` and its exit code."""

    def __init__(self, what: str, fn):
        self._what, self._fn = what, fn
        self._sent = None  # (returned, value or error), once received

    def __enter__(self):
        # imported here: `import semhard.cli` would otherwise load multiprocessing
        from multiprocessing import get_context

        # forked, not spawned, which would import NumPy and this package again
        ctx = get_context("fork")
        self._reader, writer = ctx.Pipe(duplex=False)

        def send_outcome():
            self._reader.close()  # so that this send fails, not blocks, if the parent dies first
            try:
                message = (True, self._fn())
            except Exception as exc:
                message = (False, exc)
            writer.send(message)

        self._process = ctx.Process(target=send_outcome)
        self._process.start()
        writer.close()  # the worker's copy is then the only one, so its death reads as EOF here
        return self

    def __exit__(self, *exc_info):
        self.result()

    def poll(self) -> bool:
        """Whether the worker has sent, or died, so that `result()` will not wait."""
        return self._reader.poll()

    def result(self):
        """Wait for the worker to end, then return `fn`'s value or raise its error."""
        if not self._reader.closed:
            try:
                self._sent = self._reader.recv()
            except EOFError:  # the worker died before it sent
                pass
            finally:
                # joined only after the receive: an outcome larger than the
                # pipe's buffer would otherwise block the worker's send forever
                self._process.join()
                self._reader.close()
        if self._sent is None:
            raise SemhardError(f"{self._what} worker process died:"
                               f" exit code {self._process.exitcode}")
        returned, value = self._sent
        if not returned:
            raise value
        return value


def _load_or_generate(cfg: dict[str, object]) -> tuple[Dataset, Dataset]:
    """Load or generate the dataset, then split it into train/val by
    caption: every image keeps at least one caption in train."""
    return split_dataset(_load(cfg), cfg["val_fraction"], cfg["seed"])


def _checkpoint_text(checkpoint, cfg, train_ds, val_ds=None):
    """The checkpoint's weights and the captions of both splits (no val split
    when `val_ds` is None) as ids over the vocabulary rebuilt from `cfg`,
    which must be as large as the one it was trained on."""
    params = enc.load_checkpoint(checkpoint)
    if params.W_img.shape[0] != train_ds.features.shape[1]:
        raise ShapeMismatch(f"{checkpoint}: the checkpoint takes {params.W_img.shape[0]}-wide"
                            f" image features, but this config's are {train_ds.features.shape[1]}")
    val_captions, val_lines = ([], None) if val_ds is None else (val_ds.captions, val_ds.lines)
    text = trainer.prepare_text(train_ds.captions, val_captions, _preprocess_config(cfg),
                                train_ds.lines, val_lines)
    if params.E_word.shape[0] != text.vocab_size:
        raise ShapeMismatch(
            f"{checkpoint}: the checkpoint embeds {params.E_word.shape[0]} words,"
            f" but this config's training split has {text.vocab_size};"
            " pass the training run's config and seed"
        )
    return params, text


@contextmanager
def _no_overflow(checkpoint):
    """`trainer.no_overflow` for a checkpoint's embeddings, also when one is the zero vector.
    Huge finite weights or huge finite features can each overflow them: it blames neither."""
    what = f"{checkpoint} on this config's data"
    try:
        with trainer.no_overflow(BadCheckpoint, f"{what}: the embeddings overflow"):
            yield
    except ZeroNormEmbedding as exc:
        raise BadCheckpoint(f"{what}: {exc}") from None


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


def cmd_train(args, cfg: dict[str, object]) -> int:
    report = _run_one_training(cfg, args.out, _load_or_generate(cfg))
    print(f"best_m_recall={report.best_m_recall:.4f} at_epoch={report.best_epoch:.4f}")
    return 0


def cmd_eval(args, cfg: dict[str, object]) -> int:
    train_ds, val_ds = _load_or_generate(cfg)
    trainer.check_val_split(val_ds)
    params, text = _checkpoint_text(args.checkpoint, cfg, train_ds, val_ds)
    with _no_overflow(args.checkpoint):
        report = trainer.validate(params, val_ds, text.val)
    write_report_csv(report, Path(args.out) / "retrieval_report.csv", header=_resolved_header(cfg))
    print(f"m_recall={report.m_recall:.4f}")
    return 0


def _file_text(path: str, pre_cfg: PreprocessConfig) -> trainer.PreparedText:
    """A captions file's texts prepared as one train split, whose errors name
    `path:line`. The caption lists are freed on return, before any SVD."""
    captions, numbers = [], []
    for lineno, *_, caption in caption_lines(path):
        captions.append(caption)
        numbers.append(lineno)
    lines = CaptionLines(path, np.array(numbers, dtype=np.int64))
    return trainer.prepare_text(captions, [], pre_cfg, lines)


def cmd_svd(args, cfg: dict[str, object]) -> int:
    tcfg = train_config_from_dict(cfg)
    pre_cfg = _preprocess_config(cfg)
    files = _data_files(cfg)
    if files is None:  # the synthetic corpus has nothing to check
        sem, _ = trainer.corpus_semantics(_load(cfg).captions, pre_cfg, tcfg.svd_k, tcfg.seed)
    else:  # the SVD needs only the texts, so the dataset is checked in a worker meanwhile
        # the check sends back only its error, not the dataset it loaded
        with _Worker("the dataset check's", lambda: load_dataset(*files) and None) as checked:
            text = _file_text(files[0], pre_cfg)
            if checked.poll():  # a check that has already failed ends the command before the SVD
                checked.result()
            sem = trainer.semantics(text, tcfg.svd_k, tcfg.seed)
    out = Path(args.out) / "semantics.bin"
    export_semantics(sem, out)
    print(f"wrote {out} ({sem.B.shape[0]}x{sem.B.shape[1]})")
    return 0


def cmd_gen(args, cfg: dict[str, object]) -> int:
    ds = generate_synthetic(from_config(SyntheticSpec, cfg, seed=cfg["seed"]))
    out = Path(args.out)
    save_dataset(ds, out / "captions.tsv", out / "features.txt")
    print(f"wrote {ds.n_images} images / {ds.n_captions} captions to {out}")
    return 0


def cmd_compare(args, cfg: dict[str, object]) -> int:
    split = _load_or_generate(cfg)
    out_dir = Path(args.out)

    def lmh_best():
        report = _run_one_training(cfg, out_dir, split, "lmh")
        return report.best_m_recall, report.best_epoch

    # lmh trains in a worker while this process trains lseh; lmh's error
    # wins over lseh's, as when lmh ran first. The worker sends back only
    # the two numbers read here, not its whole report.
    with _Worker("the lmh run's", lmh_best) as lmh_run:
        lseh_report = _run_one_training(cfg, out_dir, split, variant="lseh")
    lmh_m_recall, lmh_epoch = lmh_run.result()

    crossing = epochs_to_threshold(
        [(f, s) for f, s, _ in lseh_report.records], lmh_m_recall
    )
    if crossing is None:
        difference = ""
        crossing_str = ""
    else:
        difference = f"{efficiency_difference(crossing, lmh_epoch):.4f}"
        crossing_str = f"{crossing:.6f}"

    path = out_dir / "comparison.csv"
    columns = ["loss", "best_m_recall", "best_epoch", "epochs_to_lmh_best", "difference_pct"]
    rows = [
        ["lmh", f"{lmh_m_recall:.6f}", f"{lmh_epoch:.6f}", f"{lmh_epoch:.6f}", "0.0000"],
        ["lseh", f"{lseh_report.best_m_recall:.6f}", f"{lseh_report.best_epoch:.6f}",
         crossing_str, difference],
    ]
    write_csv(path, _resolved_header(cfg), columns, rows)
    print(f"wrote {path}")
    return 0


def cmd_diag(args, cfg: dict[str, object]) -> int:
    tcfg = train_config_from_dict(cfg)
    if tcfg.loss.variant == "lsh":
        raise SemhardError("diagnostics need a max-of-hinges loss variant")
    train_ds, _ = _load_or_generate(cfg)
    params, text = _checkpoint_text(args.checkpoint, cfg, train_ds)
    sem = trainer.semantics(text, tcfg.svd_k, tcfg.seed) if tcfg.loss.variant == "lseh" else None
    logs = []
    with _no_overflow(args.checkpoint):
        for batch in minibatches(train_ds.n_captions, tcfg.batch_size, tcfg.seed, 0):
            _, out = trainer.batch_loss(params, train_ds, text.train, batch, tcfg.loss, sem)
            logs.append((out.hard_neg_img.tolist(), out.hard_neg_desc.tolist()))

    stats = hard_negative_uniques(logs)
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
        return args.handler(args, _load_config(args))
    except (SemhardError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

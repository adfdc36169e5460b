#!/usr/bin/env python3
"""semhard benchmark: two CLI workloads run in-process through `semhard.cli.main`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Each run is one fresh interpreter. It
makes its inputs from --seed, times the workload's commands, checks their
outputs, and prints one JSON object as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
bench/README.md says why each workload and metric exists.
"""

from __future__ import annotations

import os

# One BLAS thread. On a 2-core VM shared with other tenants, the default
# two threads ran the same SVD about 35% slower and several times less
# steadily. This must be set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import ctypes
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 2       # fresh interpreters timed for setup_s at each point of a run
HELD_OUT = 999         # sub-seed index never used by a panel

# criterion-6 config of the acceptance gate: many tiny batches and validations
C6 = ("epochs=16", "batch_size=8", "validation_step=10", "svd_k=8", "val_fraction=0.4")
LARGE_GEN = ("gen.clusters=40", "gen.d_img=512")


@dataclass(frozen=True)
class Workload:
    command: str               # the CLI command timed as train_s
    settings: tuple[str, ...]  # --set overrides passed to every command
    large: bool                # reads generated files (1,000 images / 5,000 captions)
    panel: int                 # inputs per run: sub-seeds derived from --seed


WORKLOADS = {
    "compare-c6": Workload("compare", C6, False, 4),
    "svd-large": Workload("svd", ("svd_k=64",), True, 4),
}


class Tally:
    """Commands and output checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what} {detail}", file=sys.stderr)


def _set_args(settings) -> list[str]:
    return [arg for s in settings for arg in ("--set", s)]


@dataclass
class Input:
    """One generated input of a workload, in its own directory."""
    wl: Workload
    seed: int
    dir: Path

    @property
    def data(self) -> Path:
        return self.dir / "data"

    def args(self) -> list[str]:
        sets = list(self.wl.settings)
        if self.wl.large:
            sets += [f"data.captions={self.data / 'captions.tsv'}",
                     f"data.features={self.data / 'features.txt'}"]
        return ["--seed", str(self.seed), *_set_args(sets)]


def cli(argv: list[str], tally: Tally, tracer=None) -> float:
    """Run one CLI command in-process and return its wall seconds."""
    import semhard.cli

    span = tracer.begin(f"cli.{argv[0]}") if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = semhard.cli.main(argv)
    except Exception:  # a traceback is a failed command, not a failed benchmark
        traceback.print_exc()
        rc = -1
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.end(span)
    tally.check(f"`semhard {' '.join(argv)}` exits 0", rc == 0, f"(exit {rc})")
    return elapsed


def prepare(inp: Input, tally: Tally) -> None:
    """Untimed set-up: write the large corpus to files when the workload reads them."""
    inp.dir.mkdir(parents=True, exist_ok=True)
    if inp.wl.large:
        cli(["gen", "--out", str(inp.data), "--seed", str(inp.seed), *_set_args(LARGE_GEN)],
            tally)


def run_input(inp: Input, out: Path, tally: Tally, tracer=None) -> float:
    """Run the workload's command and return its seconds. After `compare`,
    the lseh model is evaluated, untimed, so its outputs can be checked."""
    wl = inp.wl
    main_s = cli([wl.command, "--out", str(out), *inp.args()], tally, tracer)
    if wl.command == "compare":
        cli(["eval", "--checkpoint", str(out / "best_lseh.ckpt"), "--out", str(out / "eval"),
             *inp.args()], tally, tracer)
    return main_s


def digest(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


# -- output checks ----------------------------------------------------------

def _rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _best(curve: list[list[str]]) -> list[str]:
    """The curve row training kept: the first one with the highest score."""
    return max(curve, key=lambda r: (float(r[1]), -float(r[0])))


def _check_report(path: Path, best: str, tally: Tally) -> None:
    rows = _rows(path)
    recalls = [float(r[2]) for r in rows if r[0] in ("i2t", "t2i")]
    tally.check("six recalls in [0, 100]", len(recalls) == 6
                and all(0.0 <= r <= 100.0 for r in recalls), recalls)
    tally.check("eval m_recall equals the curve's best", rows[-1][2] == best,
                f"{rows[-1][2]} != {best}")


def _check_compare(out: Path, tally: Tally) -> float:
    rows = {r[0]: r for r in _rows(out / "comparison.csv")}
    tally.check("comparison.csv has lmh and lseh rows", set(rows) == {"lmh", "lseh"}, set(rows))
    lmh, lseh = rows["lmh"], rows["lseh"]
    best_lmh = _best(_rows(out / "training_curve_lmh.csv"))
    lseh_curve = _rows(out / "training_curve_lseh.csv")
    best_lseh = _best(lseh_curve)
    tally.check("lmh row matches its curve",
                lmh[1:] == [best_lmh[1], best_lmh[0], best_lmh[0], "0.0000"], lmh)
    tally.check("lseh row matches its curve", lseh[1:3] == [best_lseh[1], best_lseh[0]], lseh)
    cross = next((r[0] for r in lseh_curve if float(r[1]) >= float(best_lmh[1])), "")
    tally.check("lseh epochs_to_lmh_best is the first crossing", lseh[3] == cross, (lseh, cross))
    if cross:
        diff = 100.0 * (float(cross) - float(best_lmh[0])) / float(best_lmh[0])
        tally.check("difference_pct agrees with the epochs",
                    abs(float(lseh[4]) - diff) < 1e-3, (lseh[4], diff))
    else:
        tally.check("difference_pct empty without a crossing", lseh[4] == "", lseh)
    _check_report(out / "eval" / "retrieval_report.csv", best_lseh[1], tally)
    return float(best_lseh[1])


def sibling_recall(B: np.ndarray, caption_image: np.ndarray, ks=(1, 5, 10)) -> float:
    """Mean Recall@1/5/10 (%) of caption-to-caption retrieval by cosine in
    the exported space, where a hit is another caption of the same image."""
    n = B.shape[0]
    norms = np.linalg.norm(B, axis=1)
    unit = B / np.where(norms > 0, norms, 1.0)[:, np.newaxis]
    hits = np.zeros(len(ks))
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        rows = np.arange(hi - lo)
        S = unit[lo:hi] @ unit.T
        S[rows, lo + rows] = -np.inf
        same = caption_image[lo:hi, np.newaxis] == caption_image[np.newaxis, :]
        same[rows, lo + rows] = False
        rank = (S > np.where(same, S, -np.inf).max(axis=1)[:, np.newaxis]).sum(axis=1)
        hits += [(rank < k).sum() for k in ks]
    return float(100.0 * hits.mean() / n)


def _check_svd(inp: Input, out: Path, tally: Tally) -> float:
    from semhard.textsem import read_exported_semantics

    B, sv = read_exported_semantics(out / "semantics.bin")
    tally.check("semantics.bin is 5000x64", B.shape == (5000, 64), B.shape)
    tally.check("singular values nonincreasing", len(sv) == 64 and bool(np.all(np.diff(sv) <= 0)))
    caption_image = np.array([
        int(line.split("\t")[1])
        for line in (inp.data / "captions.tsv").read_text(encoding="utf-8").splitlines()
    ])
    return sibling_recall(B, caption_image)


def check_outputs(inp: Input, out: Path, tally: Tally) -> float:
    """Check one input's outputs and return its quality score (best_m_recall)."""
    try:
        if inp.wl.command == "compare":
            return _check_compare(out, tally)
        return _check_svd(inp, out, tally)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        tally.check("outputs readable", False, repr(exc))
        return 0.0


# -- the two kinds of run ---------------------------------------------------

def sub_seed(seed: int, j: int) -> int:
    return 1000 * seed + j


def spawn_import(tally: Tally) -> float:
    """Seconds for a fresh interpreter to import semhard.cli and exit."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import semhard.cli"
    t0 = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    rc = subprocess.run([sys.executable, "-c", code]).returncode
    elapsed = time.perf_counter() - t0
    tally.check("a fresh interpreter imports semhard.cli", rc == 0, f"(exit {rc})")
    return elapsed


def measure(wl: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """End-to-end metrics: every panel input once, then more rounds while
    another input still fits in `seconds`. train_s is per input: the median
    over its repeats, then the mean over the panel. setup_s is the median of
    spawns made before and after every command, so that it samples the whole
    run rather than one moment of it."""
    spawn_import(tally)  # untimed: the first import writes the bytecode cache
    setup = [spawn_import(tally) for _ in range(SETUP_SPAWNS)]

    inputs = [Input(wl, sub_seed(seed, j), work / f"in{j}") for j in range(wl.panel)]
    main_t: list[list[float]] = [[] for _ in inputs]
    digests: list[dict | None] = [None] * len(inputs)
    start = time.perf_counter()
    last = 0.0
    for n in itertools.count():
        if n >= len(inputs) and time.perf_counter() - start + last > seconds:
            break
        j = n % len(inputs)
        t0 = time.perf_counter()
        if n < len(inputs):
            prepare(inputs[j], tally)
        main_t[j].append(run_input(inputs[j], inputs[j].dir / "out", tally))
        last = time.perf_counter() - t0
        setup += [spawn_import(tally) for _ in range(SETUP_SPAWNS)]
        if n == 0:
            # the first input alone, as one command per process would see it;
            # later inputs only add heap history
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        d = digest(inputs[j].dir / "out")
        if digests[j] is None:
            digests[j] = d
        else:
            tally.check("a rerun with the same seed writes identical bytes", d == digests[j])

    quality = [check_outputs(inp, inp.dir / "out", tally) for inp in inputs]
    return {
        "setup_s": statistics.median(setup),
        "train_s": statistics.fmean(statistics.median(t) for t in main_t),
        "peak_rss_mb": peak_mb,
        "best_m_recall": statistics.fmean(quality),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def trace(name: str, wl: Workload, seed: int, work: Path, tally: Tally) -> dict:
    """Per-layer metrics and the determinism self-check, on the first panel
    input: one untraced run and two traced runs; then a held-out seed."""
    from spans import EXACT, Tracer

    inp = Input(wl, sub_seed(seed, 0), work / "in0")
    prepare(inp, tally)
    base_s = run_input(inp, inp.dir / "plain", tally)
    reference = digest(inp.dir / "plain")

    tracers, traced_s = [], []
    for r in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced_s.append(run_input(inp, inp.dir / f"traced{r}", tally, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        tally.check("traced outputs are byte-identical to untraced",
                    digest(inp.dir / f"traced{r}") == reference)
    metrics = [t.metrics() for t in tracers]
    counts = [{k: m[k] for k in EXACT} for m in metrics]
    tally.check("two traced runs count the same work", counts[0] == counts[1], counts)
    check_outputs(inp, inp.dir / "plain", tally)

    held = Input(wl, sub_seed(seed, HELD_OUT), work / "held")
    prepare(held, tally)
    run_input(held, held.dir / "out", tally)
    check_outputs(held, held.dir / "out", tally)

    tracers[0].write(WORK / f"spans-{name}-seed{seed}.jsonl")
    print("shares " + json.dumps(tracers[0].root_shares(f"cli.{wl.command}")))
    return {**metrics[0], "trace.overhead_s": traced_s[0] - base_s}


# -- environment and entry point --------------------------------------------

def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, trace_on: bool) -> dict:
    import scipy

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "trace": trace_on,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(), "src_sha256": source.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "semhard" / "cli.py").is_file():
        print(f"error: no semhard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semhard

    if not Path(semhard.__file__).resolve().is_relative_to(SRC):
        print(f"error: semhard imported from {semhard.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            values = trace(args.workload, wl, args.seed, work, tally)
        else:
            values = measure(wl, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = {m["name"] for m in declared} ^ set(values)
    if unknown:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.workload, args.seed, bool(args.trace))))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The byte-identity gate: a fixed list of CLI runs whose output files, stdout,
stderr and exit codes must hash to what `tests/identity.sha256` records.

Each case runs its commands through `cli.main`, in order, in its own temporary
directory, with relative paths, so that a later command can read an earlier
one's outputs. All cases run in one child interpreter with one BLAS thread:
OpenBLAS fixes its thread count when it loads, and the array SVDs of `svd`
differ in their last bits between one thread and two. The manifest also
records the NumPy, SciPy and OpenBLAS versions it was written with, since
another BLAS may move those bits too.

A change that means to alter an output rewrites the manifest with

    PYTHONPATH=src python tests/test_identity.py

and names each changed line, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

from semhard.cli import main

MANIFEST = Path(__file__).with_name("identity.sha256")
PLACEHOLDER = "<tmp>"

C6 = [a for s in ("epochs=16", "batch_size=8", "validation_step=10", "svd_k=8", "val_fraction=0.4")
      for a in ("--set", s)]
TINY = [a for s in ("gen.clusters=2", "gen.images_per_cluster=4", "gen.captions_per_image=3",
                    "epochs=1", "batch_size=4", "validation_step=2", "svd_k=10")
        for a in ("--set", s)]
FILES = ["--set", "data.captions=captions.tsv", "--set", "data.features=features.txt"]
FEATURES = "3 2\n0.5 0.25\n1.0 -1.0\n-0.5 2.0\n"
CAPTIONS = "".join(f"d{i}\t{i % 3}\t{text}\n" for i, text in enumerate([
    "red kite flying high", "blue boat sailing fast", "green tree growing tall",
    "a red kite in the wind", "a blue boat on the lake", "a tall green tree"]))


def _c6(seed: int) -> tuple[dict[str, str], list[list[str]]]:
    s = ["--seed", str(seed), *C6]
    return {}, [["compare", "--out", "out", *s],
                ["eval", "--checkpoint", "out/best_lseh.ckpt", "--out", "out/eval", *s],
                ["diag", "--checkpoint", "out/best_lseh.ckpt", "--out", "out/diag", *s]]


def _fails(command: list[str], files: dict[str, str] | None = None):
    """One failing command, run on `files` (name -> text) and, where they give
    none, the three-image captions and features above."""
    return ({"captions.tsv": CAPTIONS, "features.txt": FEATURES, **(files or {})},
            [[*command, "--out", "out"]])


# case name -> (input files, commands)
CASES: dict[str, tuple[dict[str, str], list[list[str]]]] = {
    **{f"c6-{seed}": _c6(seed) for seed in range(1000, 1004)},
    "svd-large": ({}, [
        ["gen", "--seed", "1", "--set", "gen.clusters=40", "--set", "gen.d_img=512",
         "--out", "data"],
        ["svd", "--set", "svd_k=64", "--set", "data.captions=data/captions.tsv",
         "--set", "data.features=data/features.txt", "--out", "out"],
    ]),
    "svd": ({}, [["svd", "--out", "out"]]),
    "svd-k8": ({}, [["svd", "--set", "svd_k=8", "--out", "out"]]),
    "svd-k16": ({}, [["svd", "--set", "svd_k=16", "--out", "out"]]),
    "train-lseh": ({}, [["train", "--out", "out"]]),
    "train-lmh": ({}, [["train", "--set", "loss.variant=lmh", "--out", "out"]]),
    "train-d_word1": ({}, [["train", "--set", "d_word=1", "--out", "out"]]),
    # one failing command per kind of error the CLI reports, so that every message is pinned
    "fail-unknown-key": _fails(["train", "--set", "bogus=1"]),
    "fail-bad-value": _fails(["train", "--set", "epochs=0"]),
    "fail-config-line": _fails(["train", "--config", "run.cfg"], {"run.cfg": "epochs\n"}),
    "fail-never-validates": _fails(["train", *TINY, "--set", "validation_step=100000"]),
    "fail-diverged": _fails(["train", *TINY, "--set", "learning_rate=1e200"]),
    "fail-one-term": _fails(["svd", *FILES],
                            {"captions.tsv": "a\t0\tkite\nb\t1\tkites\nc\t2\tkite\n"}),
    "fail-empty-caption": _fails(
        ["svd", *FILES], {"captions.tsv": CAPTIONS.replace("blue boat sailing fast", "of")}),
    "fail-missing-image": _fails(["train", *FILES], {"captions.tsv": CAPTIONS + "d6\t7\tkite\n"}),
    "fail-uncaptioned": _fails(["train", *FILES],
                               {"features.txt": FEATURES.replace("3 2", "4 2") + "1.5 1.5\n"}),
    "fail-row-width": _fails(["train", *FILES],
                             {"features.txt": FEATURES.replace("1.0 -1.0", "1.0")}),
    "fail-empty-features": _fails(["train", *FILES], {"features.txt": ""}),
    "fail-duplicate-id": _fails(["train", *FILES], {"captions.tsv": CAPTIONS.replace("d1", "d0")}),
    "fail-checkpoint-magic": _fails(["eval", *FILES, "--checkpoint", "features.txt"]),
    "fail-checkpoint-width": ({}, [
        ["train", *TINY, "--out", "out"],
        ["eval", *TINY, "--set", "gen.d_img=16", "--checkpoint", "out/best.ckpt", "--out", "o"],
    ]),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy={np.__version__} scipy={version('scipy')} openblas={blas.get('version')}"


def run_case(name: str, directory: Path) -> dict[str, str]:
    """Run case `name` in `directory`, the current directory, and return each
    command's exit code and the hashes of its stdout and stderr, with `directory`
    replaced by a placeholder, and of each output file, keyed by `name/...`."""
    inputs, commands = CASES[name]
    for file, text in inputs.items():
        (directory / file).write_text(text, encoding="utf-8")
    found = {}
    for i, argv in enumerate(commands, 1):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            found[f"{name}/${i}.exit"] = str(main(argv))
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
            for d in sorted({str(directory.resolve()), str(directory)}, key=len, reverse=True):
                text = text.replace(d, PLACEHOLDER)
            found[f"{name}/${i}.{stream}"] = _sha256(text.encode())
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        if rel not in inputs:
            found[f"{name}/{rel}"] = _sha256(path.read_bytes())
    return found


def run_all() -> dict[str, str]:
    """Every case's `run_case` entries, run in a child interpreter with one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    child = subprocess.run([sys.executable, __file__, "--child"], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _run_cases() -> dict[str, str]:
    found = {}
    cwd = os.getcwd()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                found.update(run_case(name, Path(tmp)))
            finally:
                os.chdir(cwd)
    return found


def read_manifest() -> tuple[str, dict[str, str]]:
    """The manifest's versions line and its `key -> value` lines."""
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return header.removeprefix("# "), dict(reversed(line.split("  ", 1)) for line in lines)


@pytest.fixture(scope="module")
def found() -> dict[str, str]:
    return run_all()


def test_versions_match_the_manifest():
    recorded = read_manifest()[0]
    assert recorded == versions(), (f"{MANIFEST.name} was written with {recorded},"
                                    f" but this run has {versions()}")


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_manifest(name, found):
    expected = {k: v for k, v in read_manifest()[1].items() if k.startswith(f"{name}/")}
    got = {k: v for k, v in found.items() if k.startswith(f"{name}/")}
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, "\n".join(f"{k}: recorded {expected.get(k)}, got {got.get(k)}"
                                  for k in changed)


def test_every_case_is_in_the_manifest():
    assert {key.split("/", 1)[0] for key in read_manifest()[1]} == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(_run_cases()))
    else:
        lines = [f"# {versions()}", *(f"{v}  {k}" for k, v in run_all().items())]
        MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST} ({len(lines) - 1} entries)", file=sys.stderr)

"""Dataset ingestion and the clustered synthetic generator.

File formats:
- captions: TSV lines `description_id<TAB>image_id<TAB>caption text`, UTF-8;
- features: header line `n_img d_img`, then one whitespace-separated
  float row per image, ordered by image_id;
- binary matrices (checkpoints, semantics exports): 4-byte magic, u32
  version, u32 rows and cols per matrix, then each matrix row-major as f64 LE.

image_id is the integer row index into the feature matrix.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile
from pathlib import Path

import numpy as np

from .errors import (
    BadCheckpoint,
    BadConfigValue,
    DimensionMismatch,
    DuplicateDescriptionId,
    EmptyDataset,
    MalformedLine,
    MissingImageId,
    TruncatedFile,
    UncaptionedImage,
)


@dataclass(frozen=True)
class CaptionLines:
    """Where captions were read: the captions file and each caption's line in it."""
    path: str
    numbers: np.ndarray  # caption index -> 1-based line number, as int64

    def __getitem__(self, rows: np.ndarray) -> CaptionLines:
        return CaptionLines(self.path, self.numbers[rows])

    def where(self, caption: int) -> str:
        return f"{self.path}:{self.numbers[caption]}"


@dataclass
class Dataset:
    features: np.ndarray        # n_img x d_img
    captions: list[str]         # caption text, file order
    caption_image: np.ndarray   # caption index -> image index, as int64
    lines: CaptionLines | None = None  # None for a generated corpus

    def __post_init__(self):
        self.caption_image = np.asarray(self.caption_image, dtype=np.int64)

    @cached_property
    def relevance(self) -> RelevanceMap:
        """Image <-> caption relevance, built from `caption_image` on first use."""
        from .evaluation import RelevanceMap  # evaluation imports this module

        desc_to_img = self.caption_image.tolist()
        img_to_desc = [set() for _ in range(self.n_images)]
        for d, img in enumerate(desc_to_img):
            img_to_desc[img].add(d)
        return RelevanceMap(img_to_desc=img_to_desc, desc_to_img=desc_to_img)

    @property
    def n_images(self) -> int:
        return self.features.shape[0]

    @property
    def n_captions(self) -> int:
        return len(self.captions)


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, split at line ends alone (not at U+2028 or form feeds);
    a byte that is not UTF-8 fails as MalformedLine at `path:line`."""
    try:  # read_text turns \r\n and \r into \n
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:  # read_text decodes the whole file in one call
        read = exc.object[:exc.start]  # a line ends at \n, \r\n or \r
        line = read.count(b"\n") + read.count(b"\r") - read.count(b"\r\n") + 1
        raise MalformedLine(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    if not lines[-1]:  # a final line end starts no line, and an empty file has none
        lines.pop()
    return lines


@contextmanager
def open_whole(path: str | Path, mode: str = "w"):
    """Write `path` as a temp file beside it, made with its directory, renamed over it when the
    block ends: a file is whole or absent, and a failed write removes the directories it made.
    Text is UTF-8 with newlines as given; "wb" is bytes."""
    path = Path(path)
    made = list(takewhile(lambda d: not d.exists(), path.parents))  # deepest first
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        with suppress(OSError):  # a file another writer put there keeps its directory
            for d in made:
                d.rmdir()
        raise


def write_matrices(path: str | Path, magic: bytes, version: int, mats: list[np.ndarray]) -> None:
    """Write `mats` in the binary matrix format; a C-contiguous little-endian
    f8 matrix is written from its own buffer, with no copy."""
    shapes = [n for m in mats for n in m.shape]
    with open_whole(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<I{len(shapes)}I", version, *shapes))
        for m in mats:
            fh.write(memoryview(np.ascontiguousarray(m, dtype="<f8")))


def read_matrices(path: str | Path, magic: bytes, version: int, count: int) -> list[np.ndarray]:
    """The `count` matrices of a binary matrix file. A wrong magic or version,
    bytes past the last matrix, or a NaN or inf value fail as BadCheckpoint;
    a short file as TruncatedFile. Each error names `path`."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise BadCheckpoint(f"{path}: starts with {raw[:4]!r}, not the magic {magic!r}")
    header = 8 + 8 * count
    if len(raw) < header:
        raise TruncatedFile(f"{path}: {len(raw)} bytes, shorter than the {header}-byte header")
    found, *dims = struct.unpack_from(f"<I{2 * count}I", raw, 4)
    if found != version:
        raise BadCheckpoint(f"{path}: unsupported version {found}, expected {version}")
    shapes = list(zip(dims[::2], dims[1::2]))
    expected = header + 8 * sum(r * c for r, c in shapes)
    if len(raw) != expected:
        error = TruncatedFile if len(raw) < expected else BadCheckpoint
        raise error(f"{path}: {len(raw)} bytes, but shapes {shapes} need {expected}")
    mats, off = [], header
    for r, c in shapes:
        mats.append(np.frombuffer(raw, "<f8", r * c, off).reshape(r, c).copy())
        off += 8 * r * c
        if not np.isfinite(mats[-1]).all():
            raise BadCheckpoint(f"{path}: matrix {len(mats)} of {count} holds NaN or inf")
    return mats


def load_dataset(captions_path: str | Path, features_path: str | Path) -> Dataset:
    """Load a (captions TSV, features matrix) pair with referential checks.
    A line that breaks either format, and an image without a caption, fail
    with an error naming `path:line`."""
    features = _load_features(features_path)
    n_img = features.shape[0]
    captions: list[str] = []
    caption_image: list[int] = []
    numbers: list[int] = []
    seen_ids: set[str] = set()
    for lineno, desc_id, img, text in caption_lines(captions_path):
        if desc_id in seen_ids:
            raise DuplicateDescriptionId(
                f"{captions_path}:{lineno}: duplicate description id {desc_id!r}")
        seen_ids.add(desc_id)
        if not 0 <= img < n_img:
            raise MissingImageId(
                f"{captions_path}:{lineno}: caption {desc_id!r} references image {img}")
        captions.append(text)
        caption_image.append(img)
        numbers.append(lineno)

    uncaptioned = np.flatnonzero(np.bincount(caption_image, minlength=n_img) == 0)
    if uncaptioned.size:
        img = uncaptioned[0]
        raise UncaptionedImage(
            f"{features_path}:{img + 2}: image {img} has no caption in {captions_path}"
        )
    if not captions:
        raise EmptyDataset(f"{captions_path}: holds no captions")

    lines = CaptionLines(str(captions_path), np.array(numbers, dtype=np.int64))
    return Dataset(features, captions, caption_image, lines)


def caption_lines(path: str | Path) -> Iterator[tuple[int, str, int, str]]:
    """Each non-blank line of a captions TSV as (1-based line number, description
    id, image id, caption text); a line that breaks the format fails as
    MalformedLine at `path:line`."""
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            desc_id, image_id, text = line.split("\t", 2)
            if not image_id.isdecimal():  # digits alone, as in the features header
                raise ValueError(image_id)
            img = int(image_id)  # which fails past 4,300 digits
        except ValueError:
            raise MalformedLine(
                f"{path}:{lineno}: expected description_id<TAB>image_id<TAB>caption"
                " with a whole-number image_id"
            ) from None
        yield lineno, desc_id, img, text


def _load_features(path: str | Path) -> np.ndarray:
    """The header `n_img d_img`, then n_img rows of d_img finite floats, then
    nothing but blank lines."""
    lines = read_lines(path)
    if not lines:
        raise TruncatedFile(f"{path}:1: the file is empty; expected the header `n_img d_img`")
    header = lines[0].split()
    try:  # a field count other than 2, or a number past int()'s 4,300-digit limit
        n_img, d_img = map(int, header) if all(x.isdecimal() for x in header) else ()
    except ValueError:
        n_img = d_img = 0
    if d_img < 1:
        raise MalformedLine(f"{path}:1: the header `n_img d_img` must be whole numbers, d_img >= 1")
    if len(lines) < 1 + n_img:
        raise TruncatedFile(
            f"{path}:{len(lines) + 1}: feature row {len(lines) - 1} is missing;"
            f" the header declares {n_img} rows"
        )
    extra = next((i for i in range(1 + n_img, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise MalformedLine(
            f"{path}:{extra + 1}: a line past the last feature row; the header declares {n_img} rows"
        )
    # as wide as the first row, so a d_img that row breaks fails on it, not in the allocation
    width = len(lines[1].split()) if n_img else d_img
    features = np.zeros((n_img, width))
    for i in range(n_img):
        fields = lines[1 + i].split()
        if len(fields) != d_img:
            raise DimensionMismatch(
                f"{path}:{i + 2}: feature row {i} has {len(fields)} values, expected {d_img}"
            )
        try:
            features[i] = fields  # NumPy parses the strings as float() does
        except ValueError:
            raise MalformedLine(f"{path}:{i + 2}: feature row {i} holds a non-number") from None
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise MalformedLine(f"{path}:{bad[0] + 2}: feature row {bad[0]} holds NaN or inf")
    zero = np.flatnonzero(~features.any(axis=1))
    if zero.size:  # every projection of it is the zero vector, which has no direction
        raise MalformedLine(f"{path}:{zero[0] + 2}: feature row {zero[0]} is all zeros")
    return features


def save_dataset(ds: Dataset, captions_path: str | Path, features_path: str | Path):
    """Write a dataset back out in the two-file format."""
    n_img, d_img = ds.features.shape
    with open_whole(features_path) as fh:
        fh.write(f"{n_img} {d_img}\n")
        for row in ds.features:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    with open_whole(captions_path) as fh:
        for d, (img, text) in enumerate(zip(ds.caption_image.tolist(), ds.captions)):
            fh.write(f"d{d}\t{img}\t{text}\n")


@dataclass(frozen=True)
class SyntheticSpec:
    n_clusters: int = 8
    items_per_cluster: int = 25
    captions_per_image: int = 5
    d_img: int = 32
    overlap: float = 0.8      # fraction of caption tokens from the cluster vocabulary
    noise: float = 0.3        # image-feature noise scale around the cluster center
    seed: int = 0
    caption_length: int = 8
    item_tokens: int = 2        # leading tokens that identify the exact image
    cluster_vocab_size: int = 30
    background_vocab_size: int = 60

    def __post_init__(self):
        if min(self.n_clusters, self.items_per_cluster, self.captions_per_image, self.d_img) < 1:
            raise ValueError("counts must be >= 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")


# digit alphabet of consonants only, so no stemming rule can fire on the
# suffix and distinct ids can never collapse to the same stem
_LETTERS = "bcdfghkmnp"


def _word(prefix: str, *nums: int) -> str:
    # purely alphabetic pseudo-words so they survive preprocessing
    return prefix + "".join(_LETTERS[int(c)] for n in nums for c in str(n))


@np.errstate(over="ignore", invalid="ignore")  # a noise that overflows fails below, unwarned
def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Clustered corpus: each cluster has a Gaussian feature center and its
    own caption vocabulary (disjoint across clusters); the remaining tokens
    come from a background vocabulary shared by all clusters.

    Every caption starts with `item_tokens` copies of a word unique to its
    image, so captions of the same image are semantically closest, captions
    of the same cluster next, and cross-cluster captions unrelated. That
    grading is what makes the loss variants behave differently."""
    rng = np.random.default_rng(spec.seed)
    n_img = spec.n_clusters * spec.items_per_cluster

    centers = rng.standard_normal((spec.n_clusters, spec.d_img))
    cluster_vocabs = [
        [_word("klu", c, t) for t in range(spec.cluster_vocab_size)]
        for c in range(spec.n_clusters)
    ]
    background = [_word("zed", t) for t in range(spec.background_vocab_size)]

    features = np.zeros((n_img, spec.d_img))
    captions: list[str] = []
    caption_image: list[int] = []
    for c in range(spec.n_clusters):
        for item in range(spec.items_per_cluster):
            img = c * spec.items_per_cluster + item
            features[img] = centers[c] + spec.noise * rng.standard_normal(spec.d_img)
            for _ in range(spec.captions_per_image):
                words = [_word("itemx", img)] * min(spec.item_tokens, spec.caption_length)
                for _ in range(spec.caption_length - len(words)):
                    if rng.random() < spec.overlap:
                        words.append(cluster_vocabs[c][rng.integers(spec.cluster_vocab_size)])
                    else:
                        words.append(background[rng.integers(spec.background_vocab_size)])
                captions.append(" ".join(words))
                caption_image.append(img)

    if not np.isfinite(features).all():
        raise BadConfigValue(f"noise={spec.noise} overflows the image features")
    return Dataset(features=features, captions=captions, caption_image=caption_image)


def split_dataset(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split into disjoint train/val pair sets by holding out a fraction of
    each image's captions (images are shared), so a trained model can
    actually generalize to the validation pairs at desk scale."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    val_caps = _held_out_captions(ds, val_fraction, np.random.default_rng(seed))
    return _subset(ds, ~val_caps), _subset(ds, val_caps)


def _held_out_captions(ds: Dataset, val_fraction: float, rng) -> np.ndarray:
    """Mask of held-out captions: a fraction of each image's captions, but
    never an image's last one."""
    by_image: dict[int, list[int]] = {}
    for d, img in enumerate(ds.caption_image.tolist()):
        by_image.setdefault(img, []).append(d)
    val_caps = np.zeros(ds.n_captions, dtype=bool)
    for caps in by_image.values():
        if len(caps) < 2:
            continue  # an image's only caption stays in train
        n_val = min(len(caps) - 1, max(1, int(round(val_fraction * len(caps)))))
        chosen = rng.choice(len(caps), size=n_val, replace=False)
        val_caps[[caps[c] for c in chosen]] = True
    return val_caps


def _subset(ds: Dataset, keep: np.ndarray) -> Dataset:
    """The captions under the `keep` mask and only the images they use,
    renumbered in order: an image with no caption on this side would have
    no relevant description, which RelevanceMap rejects."""
    caps = np.flatnonzero(keep)
    used, caption_image = np.unique(ds.caption_image[caps], return_inverse=True)
    return Dataset(
        features=ds.features[used],
        captions=[ds.captions[d] for d in caps],
        caption_image=caption_image,
        lines=None if ds.lines is None else ds.lines[caps],
    )


def minibatches(n_items: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Seeded per-epoch shuffle into contiguous chunks; a final chunk
    smaller than 2 is dropped (the loss is undefined for b < 2)."""
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    rng = np.random.default_rng([seed, epoch])
    perm = rng.permutation(n_items)
    batches = [perm[i : i + batch_size] for i in range(0, n_items, batch_size)]
    if batches and len(batches[-1]) < 2:
        batches.pop()
    return batches

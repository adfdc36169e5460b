"""Dataset ingestion and the clustered synthetic generator.

File formats:
- captions: TSV lines `description_id<TAB>image_id<TAB>caption text`, UTF-8;
- features: header line `n_img d_img`, then one whitespace-separated
  float row per image, ordered by image_id.

image_id is the integer row index into the feature matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateDescriptionId,
    MissingImageId,
    TruncatedFile,
)
from .evaluation import RelevanceMap


@dataclass
class Dataset:
    features: np.ndarray        # n_img x d_img
    captions: list[str]         # caption text, file order
    caption_image: list[int]    # caption index -> image index
    relevance: RelevanceMap
    split: str = "train"

    @property
    def n_images(self) -> int:
        return self.features.shape[0]

    @property
    def n_captions(self) -> int:
        return len(self.captions)


def _build_relevance(n_images: int, caption_image: list[int]) -> RelevanceMap:
    img_to_desc = [set() for _ in range(n_images)]
    for d, img in enumerate(caption_image):
        img_to_desc[img].add(d)
    return RelevanceMap(img_to_desc=img_to_desc, desc_to_img=list(caption_image))


def load_dataset(
    captions_path: str | Path, features_path: str | Path, split: str = "train"
) -> Dataset:
    """Load a (captions TSV, features matrix) pair with referential checks."""
    lines = Path(features_path).read_text(encoding="utf-8").splitlines()
    n_img, d_img = (int(x) for x in lines[0].split())
    if len(lines) < 1 + n_img:
        raise TruncatedFile(
            f"{features_path}:{len(lines) + 1}: feature row {len(lines) - 1} is missing;"
            f" the header declares {n_img} rows"
        )
    features = np.zeros((n_img, d_img))
    for i in range(n_img):
        row = np.array([float(x) for x in lines[1 + i].split()])
        if row.shape[0] != d_img:
            raise DimensionMismatch(
                f"feature row {i} has {row.shape[0]} values, expected {d_img}"
            )
        features[i] = row

    captions: list[str] = []
    caption_image: list[int] = []
    seen_ids: set[str] = set()
    for line in Path(captions_path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        desc_id, image_id, text = line.split("\t", 2)
        if desc_id in seen_ids:
            raise DuplicateDescriptionId(f"duplicate description id {desc_id!r}")
        seen_ids.add(desc_id)
        img = int(image_id)
        if not 0 <= img < n_img:
            raise MissingImageId(f"caption {desc_id!r} references image {img}")
        captions.append(text)
        caption_image.append(img)

    return Dataset(
        features=features,
        captions=captions,
        caption_image=caption_image,
        relevance=_build_relevance(n_img, caption_image),
        split=split,
    )


def save_dataset(ds: Dataset, captions_path: str | Path, features_path: str | Path):
    """Write a dataset back out in the two-file format."""
    n_img, d_img = ds.features.shape
    with open(features_path, "w", encoding="utf-8") as fh:
        fh.write(f"{n_img} {d_img}\n")
        for row in ds.features:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    with open(captions_path, "w", encoding="utf-8") as fh:
        for d, (img, text) in enumerate(zip(ds.caption_image, ds.captions)):
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
        if min(self.n_clusters, self.items_per_cluster, self.captions_per_image) < 1:
            raise ValueError("counts must be >= 1")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")


# digit alphabet of consonants only, so no stemming rule can fire on the
# suffix and distinct ids can never collapse to the same stem
_LETTERS = "bcdfghkmnp"


def _word(prefix: str, *nums: int) -> str:
    # purely alphabetic pseudo-words so they survive preprocessing
    return prefix + "".join(_LETTERS[int(c)] for n in nums for c in str(n))


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

    return Dataset(
        features=features,
        captions=captions,
        caption_image=caption_image,
        relevance=_build_relevance(n_img, caption_image),
        split="train",
    )


def split_dataset(
    ds: Dataset, val_fraction: float, seed: int, mode: str = "caption"
) -> tuple[Dataset, Dataset]:
    """Split into disjoint train/val pair sets.

    mode="caption" holds out a fraction of each image's captions (images are
    shared), so a trained model can actually generalize to the validation
    pairs at desk scale. mode="image" holds out whole images with all their
    captions.
    """
    if mode not in ("caption", "image"):
        raise ValueError("mode must be 'caption' or 'image'")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    if mode == "image":
        n_val = max(1, int(round(val_fraction * ds.n_images)))
        held_out = np.zeros(ds.n_images, dtype=bool)
        held_out[rng.permutation(ds.n_images)[:n_val]] = True
        val_caps = held_out[np.asarray(ds.caption_image, dtype=np.int64)]
    else:
        val_caps = _held_out_captions(ds, val_fraction, rng)
    return _subset(ds, ~val_caps, "train"), _subset(ds, val_caps, "val")


def _held_out_captions(ds: Dataset, val_fraction: float, rng) -> np.ndarray:
    """Mask of held-out captions: a fraction of each image's captions, but
    never an image's last one."""
    by_image: dict[int, list[int]] = {}
    for d, img in enumerate(ds.caption_image):
        by_image.setdefault(img, []).append(d)
    val_caps = np.zeros(ds.n_captions, dtype=bool)
    for caps in by_image.values():
        if len(caps) < 2:
            continue  # an image's only caption stays in train
        n_val = min(len(caps) - 1, max(1, int(round(val_fraction * len(caps)))))
        chosen = rng.choice(len(caps), size=n_val, replace=False)
        val_caps[[caps[c] for c in chosen]] = True
    return val_caps


def _subset(ds: Dataset, keep: np.ndarray, split: str) -> Dataset:
    """The captions under the `keep` mask and only the images they use,
    renumbered in order: an image with no caption on this side would have
    no relevant description, which RelevanceMap rejects."""
    caps = np.flatnonzero(keep).tolist()
    used = sorted({ds.caption_image[d] for d in caps})
    remap = {old: new for new, old in enumerate(used)}
    caption_image = [remap[ds.caption_image[d]] for d in caps]
    return Dataset(
        features=ds.features[used],
        captions=[ds.captions[d] for d in caps],
        caption_image=caption_image,
        relevance=_build_relevance(len(used), caption_image),
        split=split,
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

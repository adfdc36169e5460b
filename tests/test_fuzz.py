"""Property tests for the readers of outside input: whatever the bytes or
values, they return a result or raise a SemhardError, never another error."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semhard import encoder as enc
from semhard.data import load_dataset
from semhard.errors import SemhardError
from semhard.textsem import EXPORT_MAGIC, read_exported_semantics
from semhard.trainer import CONFIG_DEFAULTS, apply_overrides, parse_config_file

# derandomized, so Tier-1 tests the same examples on every run and keeps no
# database of failing ones
FUZZ = settings(derandomize=True, deadline=None, max_examples=200, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # module-scoped: Hypothesis reruns the test body, not a function-scoped fixture
    return tmp_path_factory.mktemp("fuzz")


def utf8(text: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    return text.map(lambda s: s.encode("utf-8"))


# captions: arbitrary bytes, or TSV-shaped lines with arbitrary fields
caption_lines = st.lists(
    st.tuples(
        st.sampled_from(["d0", "d1", "d2"]),
        st.one_of(st.integers(-2, 4).map(str), st.text(max_size=3)),
        st.text(max_size=12),
    ).map("\t".join),
    max_size=6,
).map(lambda lines: "\n".join(lines) + "\n")
captions_bytes = st.one_of(st.binary(max_size=120), utf8(caption_lines))

# features: arbitrary bytes, or a header over short rows of numbers and
# non-numbers. The header's 10**11 columns cannot be allocated: only a row
# check before the allocation turns it into an error. The widths are sampled,
# not drawn from a range, so shrinking never tries a size the system would
# grant lazily.
feature_rows = st.lists(
    st.lists(st.sampled_from(["0.5", "1", "-2e3", "nan", "inf", "x", "1e999"]), max_size=4)
    .map(" ".join),
    max_size=5,
)
features_text = st.builds(
    lambda n, d, rows: f"{n} {d}\n" + "\n".join(rows) + "\n",
    st.integers(0, 4),
    # the last width has more digits than int() converts
    st.sampled_from(["0", "1", "2", "3", str(10**11), "9" * 5000]),
    feature_rows,
)
features_bytes = st.one_of(st.binary(max_size=120), utf8(features_text))


@FUZZ
@given(captions=captions_bytes, features=features_bytes)
def test_load_dataset_returns_or_raises_semhard_error(workdir, captions, features):
    cap, feat = workdir / "captions.tsv", workdir / "features.txt"
    cap.write_bytes(captions)
    feat.write_bytes(features)
    try:
        ds = load_dataset(cap, feat)
    except SemhardError:
        return
    assert ds.relevance.desc_to_img == ds.caption_image.tolist()


def matrix_file_bytes(magic: bytes, count: int) -> st.SearchStrategy[bytes]:
    """Arbitrary bytes, or `magic` and a header of any version and `count`
    shapes followed by arbitrary bytes: a checkpoint or a semantics export."""
    return st.one_of(
        st.binary(max_size=200),
        st.builds(
            lambda version, shapes, body: magic
            + struct.pack(f"<I{2 * count}I", version, *shapes) + body,
            st.integers(0, 2),
            st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
                     min_size=2 * count, max_size=2 * count),
            st.binary(max_size=200),
        ),
    )


@FUZZ
@given(raw=matrix_file_bytes(enc.CHECKPOINT_MAGIC, 3))
def test_load_checkpoint_returns_or_raises_semhard_error(workdir, raw):
    path = workdir / "best.ckpt"
    path.write_bytes(raw)
    try:
        params = enc.load_checkpoint(path)
    except SemhardError:
        return
    assert isinstance(params, enc.ModelParams)


@FUZZ
@given(raw=matrix_file_bytes(EXPORT_MAGIC, 2))
def test_read_exported_semantics_returns_or_raises_semhard_error(workdir, raw):
    path = workdir / "semantics.bin"
    path.write_bytes(raw)
    try:
        B, sv = read_exported_semantics(path)
    except SemhardError:
        return
    assert sv.shape == (B.shape[1],)


keys = st.sampled_from(sorted(CONFIG_DEFAULTS))


@FUZZ
@given(lines=st.lists(st.tuples(keys, st.binary(max_size=20)), max_size=5))
def test_parse_config_file_returns_or_raises_semhard_error(workdir, lines):
    path = workdir / "run.cfg"
    path.write_bytes(b"".join(key.encode() + b"=" + value + b"\n" for key, value in lines))
    try:
        cfg = parse_config_file(path)
    except SemhardError:
        return
    assert cfg.keys() == CONFIG_DEFAULTS.keys()


@FUZZ
@given(pairs=st.lists(st.tuples(keys, st.text(max_size=20)), max_size=5))
def test_apply_overrides_returns_or_raises_semhard_error(pairs):
    try:
        cfg = apply_overrides(CONFIG_DEFAULTS, [f"{key}={value}" for key, value in pairs])
    except SemhardError:
        return
    assert cfg.keys() == CONFIG_DEFAULTS.keys()

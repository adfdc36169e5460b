import ast
import builtins
import os
import re
from pathlib import Path

import numpy as np
import pytest

import semhard.data
from semhard.data import (
    Dataset,
    SyntheticSpec,
    caption_lines,
    generate_synthetic,
    load_dataset,
    minibatches,
    read_lines,
    save_dataset,
    split_dataset,
)
from semhard.errors import SemhardError
from semhard.evaluation import write_csv
from semhard.losses import semantic_factor_matrix
from semhard.stopwords import load_stopwords
from semhard.textsem import PreprocessConfig, build_tfidf, preprocess, truncated_svd
from semhard.trainer import parse_config_file


def write_pair(tmp_path, caption_lines, feature_lines):
    cap = tmp_path / "captions.tsv"
    feat = tmp_path / "features.txt"
    cap.write_text("\n".join(caption_lines) + "\n", encoding="utf-8")
    feat.write_text("\n".join(feature_lines) + "\n", encoding="utf-8")
    return cap, feat


class TestLoadDataset:
    def test_two_images_five_captions_each(self, tmp_path):
        captions = [
            f"d{i}\t{img}\tcaption number {i}"
            for img in (0, 1)
            for i in range(img * 5, img * 5 + 5)
        ]
        cap, feat = write_pair(
            tmp_path, captions, ["2 3", "1.0 2.0 3.0", "4.0 5.0 6.0"]
        )
        ds = load_dataset(cap, feat)
        assert ds.n_captions == 10
        assert ds.n_images == 2
        assert all(len(s) == 5 for s in ds.relevance.img_to_desc)

    def test_missing_image_id(self, tmp_path):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tok", "d1\t7\tbad"], ["1 2", "0.0 1.0"]
        )
        with pytest.raises(SemhardError, match="caption 'd1' references image 7"):
            load_dataset(cap, feat)

    def test_duplicate_description_id(self, tmp_path):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tfirst", "d0\t0\tsecond"], ["1 2", "0.0 1.0"]
        )
        with pytest.raises(SemhardError, match="duplicate description id 'd0'"):
            load_dataset(cap, feat)

    def test_dimension_mismatch(self, tmp_path):
        cap, feat = write_pair(tmp_path, ["d0\t0\tok"], ["1 3", "0.0 1.0"])
        with pytest.raises(SemhardError, match="feature row 0 has 2 values, expected 3"):
            load_dataset(cap, feat)

    def test_dimension_mismatch_names_file_and_line(self, tmp_path):
        cap, feat = write_pair(tmp_path, ["d0\t0\tok"], ["2 2", "0.0 1.0", "2.0"])
        with pytest.raises(SemhardError, match=re.escape(f"{feat}:3: feature row 1 has 1 values")):
            load_dataset(cap, feat)

    def test_empty_features_file(self, tmp_path):
        cap, feat = write_pair(tmp_path, ["d0\t0\tok"], [])
        feat.write_text("")
        with pytest.raises(SemhardError, match=re.escape(f"{feat}:1: the file is empty")):
            load_dataset(cap, feat)

    @pytest.mark.parametrize("header", [
        "two 3", "3", "1 2 3", "-1 2", "1.5 2", "1\u00b2 2", "", "1 0",
        pytest.param("1 " + "9" * 5000, id="1 9x5000"),  # past int()'s digit limit
    ])
    def test_malformed_header(self, tmp_path, header):
        cap, feat = write_pair(tmp_path, ["d0\t0\tok"], [header, "0.0 1.0"])
        with pytest.raises(SemhardError, match=re.escape(f"{feat}:1: the header `n_img d_img`")):
            load_dataset(cap, feat)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity", "x1"])
    def test_bad_feature_value_names_its_line(self, tmp_path, bad):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tok"], ["3 2", "0.0 1.0", "1.0 2.0", f"{bad} 1.0"]
        )
        with pytest.raises(SemhardError, match=re.escape(f"{feat}:4: feature row 2 holds ")):
            load_dataset(cap, feat)

    @pytest.mark.parametrize("tail, line", [
        (["3.0 4.0", "not numbers at all"], 4), (["", "not numbers at all", ""], 5),
    ], ids=["extra-row", "after-a-blank"])
    def test_line_past_the_declared_rows_names_it(self, tmp_path, tail, line):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tred cat", "d1\t1\tblue dog"], ["2 2", "0.0 1.0", "1.0 2.0", *tail]
        )
        message = f"{feat}:{line}: a line past the last feature row; the header declares 2 rows"
        with pytest.raises(SemhardError, match=re.escape(message)):
            load_dataset(cap, feat)

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tred cat", "d1\t1\tblue dog"], ["2 2", "0.0 1.0", "1.0 2.0", "", " \t"]
        )
        assert load_dataset(cap, feat).features.tolist() == [[0.0, 1.0], [1.0, 2.0]]

    @pytest.mark.parametrize("value", ["1_000", "+.5", "5.", "-0", "1E3", "1e-400", "\u0661\u0662"])
    def test_feature_values_parse_like_float(self, tmp_path, value):
        cap, feat = write_pair(tmp_path, ["d0\t0\tok"], ["1 2", f"{value} 1.0"])
        features = load_dataset(cap, feat).features
        assert repr(features[0, 0]) == repr(np.float64(float(value)))

    @pytest.mark.parametrize("line", [
        "d1 1 no tabs", "d1\t1", "d1\tone\ttext", "d1\t1.0\ttext", "d1\t\ttext",
        # int() reads each of these ids as an image in range; the features header takes none
        "d1\t0_1\tblue dog", "d1\t+0\ttext", "d1\t 1 \ttext", "d1\t-0\ttext",
    ])
    def test_malformed_caption_line_names_its_line(self, tmp_path, line):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tok", "", line], ["2 2", "0.0 1.0", "1.0 2.0"]
        )
        with pytest.raises(SemhardError, match=re.escape(f"{cap}:3: expected description_id")):
            load_dataset(cap, feat)

    def test_reference_errors_name_file_and_line(self, tmp_path):
        cap, feat = write_pair(tmp_path, ["d0\t0\tok", "d1\t7\tbad"], ["1 2", "0.0 1.0"])
        with pytest.raises(SemhardError, match=re.escape(f"{cap}:2: caption 'd1' references")):
            load_dataset(cap, feat)
        cap, feat = write_pair(tmp_path, ["d0\t0\ta", "d0\t0\tb"], ["1 2", "0.0 1.0"])
        with pytest.raises(SemhardError, match=re.escape(f"{cap}:2: duplicate description id")):
            load_dataset(cap, feat)

    def test_uncaptioned_image_names_its_feature_line(self, tmp_path):
        cap, feat = write_pair(
            tmp_path, ["d0\t0\tred cat", "d1\t1\tblue dog"],
            ["3 2", "0.0 1.0", "1.0 2.0", "2.0 3.0"],
        )
        message = f"{feat}:4: image 2 has no caption in {cap}"
        with pytest.raises(SemhardError, match=re.escape(message)):
            load_dataset(cap, feat)

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_clusters=2, items_per_cluster=3, seed=1))
        cap, feat = tmp_path / "c.tsv", tmp_path / "f.txt"
        save_dataset(ds, cap, feat)
        loaded = load_dataset(cap, feat)
        assert loaded.captions == ds.captions
        assert np.array_equal(loaded.caption_image, ds.caption_image)
        assert np.allclose(loaded.features, ds.features)
        assert loaded.relevance.img_to_desc == ds.relevance.img_to_desc

    def test_description_order_is_file_order(self, tmp_path):
        cap, feat = write_pair(
            tmp_path,
            ["dz\t1\tlast alphabetically first in file", "da\t0\tsecond line"],
            ["2 1", "0.5", "0.7"],
        )
        ds = load_dataset(cap, feat)
        assert ds.captions[0].startswith("last")


class TestGenerateSynthetic:
    def test_full_overlap_zero_noise_separation(self):
        spec = SyntheticSpec(
            n_clusters=3, items_per_cluster=2, captions_per_image=2,
            overlap=1.0, noise=0.0, seed=0, item_tokens=0,
            cluster_vocab_size=6,
        )
        ds = generate_synthetic(spec)
        pre = PreprocessConfig(stopword_list=frozenset(), stemming_enabled=False)
        docs = [preprocess(c, pre) for c in ds.captions]
        _, tdm = build_tfidf(docs)
        # one singular direction per cluster: within-cluster rows collapse
        # onto the same axis while disjoint vocabularies stay orthogonal
        sem = truncated_svd(tdm.matrix, 3, seed=0)
        F = semantic_factor_matrix(sem.B, 1.0)
        cluster_of = [ds.caption_image[d] // 2 for d in range(ds.n_captions)]
        within, cross = [], []
        for i in range(ds.n_captions):
            for j in range(i + 1, ds.n_captions):
                (within if cluster_of[i] == cluster_of[j] else cross).append(F[i, j])
        assert np.mean(within) > 0.95
        assert abs(np.mean(cross)) < 0.05

    def test_fixed_seed_reproducible(self):
        a = generate_synthetic(SyntheticSpec(seed=5, n_clusters=2, items_per_cluster=3))
        b = generate_synthetic(SyntheticSpec(seed=5, n_clusters=2, items_per_cluster=3))
        assert a.captions == b.captions
        assert np.array_equal(a.features, b.features)

    def test_semantic_factor_gap(self):
        # overlap >= 0.8 with disjoint cluster vocabularies: within-cluster
        # mean factor beats cross-cluster mean by at least lambda/2
        lam = 0.025
        spec = SyntheticSpec(
            n_clusters=4, items_per_cluster=4, captions_per_image=2,
            overlap=0.8, seed=2,
        )
        ds = generate_synthetic(spec)
        docs = [preprocess(c) for c in ds.captions]
        _, tdm = build_tfidf(docs)
        # rank = number of clusters keeps the factors on cluster structure
        sem = truncated_svd(tdm.matrix, spec.n_clusters, seed=0)
        F = semantic_factor_matrix(sem.B, lam)
        cluster_of = [ds.caption_image[d] // 4 for d in range(ds.n_captions)]
        within, cross = [], []
        for i in range(ds.n_captions):
            for j in range(i + 1, ds.n_captions):
                (within if cluster_of[i] == cluster_of[j] else cross).append(F[i, j])
        assert np.mean(within) - np.mean(cross) >= lam / 2

    def test_relevance_integrity(self):
        ds = generate_synthetic(SyntheticSpec(seed=3, n_clusters=2, items_per_cluster=4))
        for d, img in enumerate(ds.caption_image):
            assert d in ds.relevance.img_to_desc[img]
            assert ds.relevance.desc_to_img[d] == img

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_clusters=0)
        with pytest.raises(ValueError):
            SyntheticSpec(overlap=1.5)


class TestSplitDataset:
    def test_caption_mode_shares_images(self):
        ds = generate_synthetic(SyntheticSpec(seed=4))
        tr, va = split_dataset(ds, 0.2, seed=7)
        assert tr.n_captions + va.n_captions == ds.n_captions
        # every image keeps at least one training caption
        assert tr.n_images == ds.n_images
        caps = sorted(tr.captions + va.captions)
        assert caps == sorted(ds.captions)
        for sub in (tr, va):
            for d, img in enumerate(sub.caption_image):
                assert 0 <= img < sub.n_images
                assert d in sub.relevance.img_to_desc[img]

    def test_caption_mode_holdout_size(self):
        ds = generate_synthetic(SyntheticSpec(seed=1, captions_per_image=5))
        tr, va = split_dataset(ds, 0.2, seed=0)
        # 5 captions per image at 20% -> exactly one held out per image
        assert va.n_captions == ds.n_images
        assert all(len(s) == 4 for s in tr.relevance.img_to_desc)

    def test_relevance_is_built_on_first_use(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_clusters=2, items_per_cluster=3, seed=1))
        cap, feat = tmp_path / "c.tsv", tmp_path / "f.txt"
        save_dataset(ds, cap, feat)
        loaded = load_dataset(cap, feat)
        tr, va = split_dataset(loaded, 0.3, seed=0)
        for sub in (ds, loaded, tr, va):
            assert "relevance" not in sub.__dict__
        assert va.relevance is va.relevance
        assert va.relevance.desc_to_img == va.caption_image.tolist()

    def test_bad_mode_and_fraction(self):
        ds = generate_synthetic(SyntheticSpec(seed=4, n_clusters=2, items_per_cluster=4))
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError):
                split_dataset(ds, fraction, seed=0)


class TestMinibatches:
    def test_shapes_with_remainder(self):
        batches = minibatches(10, 4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_drop_rule(self):
        batches = minibatches(9, 4, seed=0, epoch=0)
        assert [len(b) for b in batches] == [4, 4]

    def test_each_item_once(self):
        batches = minibatches(20, 6, seed=1, epoch=3)
        items = np.concatenate(batches)
        dropped = 20 - len(items)
        assert dropped in (0, 1)
        assert len(set(items.tolist())) == len(items)

    def test_epochs_differ_but_reproducible(self):
        a0 = minibatches(30, 8, seed=2, epoch=0)
        a1 = minibatches(30, 8, seed=2, epoch=1)
        b0 = minibatches(30, 8, seed=2, epoch=0)
        assert not all(np.array_equal(x, y) for x, y in zip(a0, a1))
        assert all(np.array_equal(x, y) for x, y in zip(a0, b0))

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            minibatches(10, 1, seed=0, epoch=0)


def write_table(out):
    write_csv(out / "table.csv", "cfg", ["i", "square"], ([i, i * i] for i in range(20)))


def write_corpus(out):
    save_dataset(generate_synthetic(SyntheticSpec(2, 2, 2)), out / "captions.tsv",
                 out / "features.txt")


# a text writer of each kind and the files it writes into its directory
TEXT_OUTPUTS = pytest.mark.parametrize("write,files", [
    (write_table, ["table.csv"]), (write_corpus, ["captions.tsv", "features.txt"]),
], ids=["csv", "dataset"])


class TestOpenWhole:
    @TEXT_OUTPUTS
    def test_writes_whole_files_and_their_directory(self, tmp_path, write, files):
        out = tmp_path / "a" / "b"
        write(out)
        assert sorted(os.listdir(out)) == sorted(files)

    @TEXT_OUTPUTS
    @pytest.mark.parametrize("before", [None, "an earlier run's file\n"], ids=["new", "existing"])
    def test_failed_write_leaves_the_old_file_or_none(
        self, tmp_path, monkeypatch, write, files, before
    ):
        out = tmp_path / "a" / "out"
        if before:
            out.mkdir(parents=True)
            for name in files:
                (out / name).write_text(before)

        class FailingFile:
            """Writes the first chunk, then fails like a full disk."""
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.fh.write(text)

        monkeypatch.setattr(semhard.data, "open",
                            lambda p, mode, **text: FailingFile(open(p, mode, **text)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            write(out)
        if not before:  # nor the directories the failed write made, and only those
            assert os.listdir(tmp_path) == []
            return
        assert sorted(os.listdir(out)) == sorted(files)  # no temporary file either
        assert all((out / name).read_text() == before for name in files)


# calls that create a directory or write a file, by name
WRITES = {"mkdir", "makedirs", "write_text", "write_bytes", "touch"}


def writes(call: ast.Call) -> bool:
    """Whether `call` creates a directory or may open a file for writing: an
    `open` whose mode is anything but a read-only string literal."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name != "open":
        return name in WRITES
    # the mode follows the path of open(), and comes first in Path.open()
    modes = [*call.args[isinstance(call.func, ast.Name):],
             *(k.value for k in call.keywords if k.arg == "mode")]
    return not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and set(m.value).isdisjoint("wax+") for m in modes)


@pytest.mark.parametrize("source,expected", [
    ('open(p, "w")', True), ('open(p, mode="ab")', True), ("open(p, mode)", True),
    ('open(p, "r+")', True), ('Path(p).open("w")', True), ("Path(p).mkdir()", True),
    ("os.makedirs(p)", True), ("p.write_bytes(b)", True), ("open(p)", False),
    ('open(p, "r", encoding=e)', False), ('p.open("r")', False), ("p.read_text()", False),
])
def test_write_detector(source, expected):
    assert writes(ast.parse(source).body[0].value) is expected


def test_only_open_whole_writes():
    # every output goes through one writer, so the whole-file policy cannot drift
    sites = {
        (path.name, getattr(top, "name", None))
        for path in Path(semhard.data.__file__).parent.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top) if isinstance(node, ast.Call) and writes(node)
    }
    assert sites == {("data.py", "open_whole")}


def test_non_finite_rule_stays_in_one_place():
    # numbers from outside are checked where they enter, and everything computed from
    # them traps under `trainer.traps()`: no scan, error state or catch drifts elsewhere
    def uses(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return f"{node.value.id}.{node.attr}"
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name):
            return f"except {node.type.id}"
        return None

    sites = {}
    for path in Path(semhard.data.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                sites.setdefault(uses(node), set()).add((path.stem, getattr(top, "name", None)))
    assert sites["np.isfinite"] == {("data", "Dataset"), ("data", "read_matrices"),
                                    ("data", "_load_features"), ("data", "generate_synthetic"),
                                    ("trainer", "_assign")}
    assert sites["np.errstate"] == {("trainer", "traps"), ("data", "generate_synthetic")}
    assert sites["except FloatingPointError"] == {("trainer", "no_overflow"), ("trainer", "train")}


def test_one_error_type():
    # every failure is a SemhardError told apart by its message, so no other exception class
    # may return: a class whose base is an exception, or derives from one, is one itself
    bases = {}
    for path in Path(semhard.data.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[f"{path.stem}.{node.name}"] = {ast.unparse(b).split(".")[-1]
                                                     for b in node.bases}
    names = {name for name, v in vars(builtins).items()
             if isinstance(v, type) and issubclass(v, BaseException)}
    for _ in bases:  # enough rounds for the longest chain of subclasses
        found = {c for c, b in bases.items()
                 if b & names or any(n.endswith(("Error", "Exception")) for n in b)}
        names |= {c.split(".")[1] for c in found}
    assert found == {"errors.SemhardError"}
    assert issubclass(SemhardError, ValueError)


@pytest.mark.parametrize("name, text", [
    ("run.cfg", "epochs=1\n"), ("captions.tsv", "d0\t0\tred cat\n"),
    ("features.txt", "1 2\n0.5 0.25\n"), ("stopwords.txt", "the\ncat\n"),
])
def test_byte_order_mark_is_not_part_of_line_1(tmp_path, name, text):
    # an editor may start a UTF-8 file with U+FEFF, which used to become part of the first
    # config key, description id, features header or stopword
    read = {"run.cfg": parse_config_file,
            "captions.tsv": lambda path: list(caption_lines(path)),
            "features.txt": lambda path: load_dataset(path.with_name("captions.tsv"),
                                                      path).features.tolist(),
            "stopwords.txt": load_stopwords}[name]
    results = []
    for bom in ("", "\ufeff"):
        directory = tmp_path / f"bom{len(bom)}"
        directory.mkdir()
        (directory / "captions.tsv").write_text("d0\t0\tred cat\n", encoding="utf-8")
        (directory / name).write_text(bom + text, encoding="utf-8")
        results.append(read(directory / name))
    assert results[0] == results[1]


@pytest.mark.parametrize("raw, line", [(b"caf\xe9\n", 1), (b"the\ncaf\xe9\n", 2),
                                       (b"the\r\nred\rcaf\xe9\n", 3)])
def test_bad_byte_after_a_byte_order_mark_names_its_line(tmp_path, raw, line):
    path = tmp_path / "stopwords.txt"
    path.write_bytes(b"\xef\xbb\xbf" + raw)
    with pytest.raises(SemhardError, match=re.escape(f"{path}:{line}: not UTF-8")):
        read_lines(path)

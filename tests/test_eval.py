import numpy as np
import pytest

from semhard.errors import ShapeMismatch
from semhard.evaluation import (
    HardNegStats,
    RelevanceMap,
    RetrievalReport,
    _ranks,
    efficiency_difference,
    epochs_to_threshold,
    hard_negative_uniques,
    m_recall,
    recall_at_k,
    retrieval_report,
    write_diagnostics_csv,
    write_report_csv,
)


def brute_force_recall(sim, relevance, k, direction):
    """Full-sort oracle with the same tie rule (lower index first)."""
    sim = np.asarray(sim)
    hits, total = 0, 0
    if direction == "i2t":
        for i in range(sim.shape[0]):
            ranked = sorted(range(sim.shape[1]), key=lambda j: (-sim[i, j], j))
            hits += bool(set(ranked[:k]) & relevance.img_to_desc[i])
            total += 1
    else:
        for d in range(sim.shape[1]):
            ranked = sorted(range(sim.shape[0]), key=lambda i: (-sim[i, d], i))
            hits += relevance.desc_to_img[d] in ranked[:k]
            total += 1
    return 100.0 * hits / total


def one_to_one_relevance(n):
    return RelevanceMap(
        img_to_desc=[{i} for i in range(n)], desc_to_img=list(range(n))
    )


def captions_per_image_relevance(n_img, cpi):
    desc_to_img = [i for i in range(n_img) for _ in range(cpi)]
    img_to_desc = [set(range(i * cpi, (i + 1) * cpi)) for i in range(n_img)]
    return RelevanceMap(img_to_desc=img_to_desc, desc_to_img=desc_to_img)


def shuffled_uneven_relevance(rng, n_img, max_per_image=4):
    """1..max_per_image captions per image, in a shuffled caption order."""
    counts = rng.integers(1, max_per_image + 1, size=n_img)
    desc_to_img = rng.permutation(np.repeat(np.arange(n_img), counts)).tolist()
    img_to_desc = [set() for _ in range(n_img)]
    for d, img in enumerate(desc_to_img):
        img_to_desc[img].add(d)
    return RelevanceMap(img_to_desc=img_to_desc, desc_to_img=desc_to_img)


class TestRecallAtK:
    def test_perfect_ranking(self):
        sim = np.eye(6) + 0.01
        rel = one_to_one_relevance(6)
        assert recall_at_k(sim, rel, 1, "i2t") == 100.0
        assert recall_at_k(sim, rel, 1, "t2i") == 100.0

    def test_boundary_rank(self):
        # the sole match of query 0 ranks exactly 4th (k=3 misses, k=4 hits)
        sim = np.zeros((4, 4))
        sim[0] = [0.1, 0.9, 0.8, 0.7]
        rel = one_to_one_relevance(4)
        row_hits_k3 = brute_force_recall(sim, rel, 3, "i2t")
        assert recall_at_k(sim, rel, 3, "i2t") == row_hits_k3
        assert recall_at_k(sim, rel, 4, "i2t") == 100.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sim = rng.standard_normal((20, 100))
            rel = captions_per_image_relevance(20, 5)
            for k in (1, 5, 10):
                for direction in ("i2t", "t2i"):
                    assert recall_at_k(sim, rel, k, direction) == brute_force_recall(
                        sim, rel, k, direction
                    )

    def test_tie_breaks_to_lower_index(self):
        sim = np.array([[0.5, 0.5], [0.4, 0.5]])
        rel = one_to_one_relevance(2)
        # query image 0: candidates 0 and 1 tie; lower index wins
        assert recall_at_k(sim, rel, 1, "i2t") == pytest.approx(100.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        sim = rng.standard_normal((10, 50))
        rel = captions_per_image_relevance(10, 5)
        vals = [recall_at_k(sim, rel, k, "i2t") for k in range(1, 51)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 100.0

    def test_direction_symmetry_on_symmetric_similarity(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((12, 12))
        sim = (M + M.T) / 2
        rel = one_to_one_relevance(12)
        for k in (1, 5, 10):
            assert recall_at_k(sim, rel, k, "i2t") == recall_at_k(sim, rel, k, "t2i")

    def test_tie_heavy_oracle(self):
        # three score levels: most candidates tie with the target
        rng = np.random.default_rng(3)
        for _ in range(40):
            n_img = int(rng.integers(1, 16))
            rel = shuffled_uneven_relevance(rng, n_img)
            sim = rng.integers(0, 3, size=(n_img, len(rel.desc_to_img))).astype(float)
            for k in (1, 2, 5, 10):
                for direction in ("i2t", "t2i"):
                    assert recall_at_k(sim, rel, k, direction) == brute_force_recall(
                        sim, rel, k, direction
                    )

    def test_all_tied_ranks_by_index(self):
        # every score equal: an image hits iff one of its captions has index < k,
        # a caption hits iff its image has index < k
        rel = RelevanceMap(
            img_to_desc=[{4, 5}, {0}, {1, 3}, {2}], desc_to_img=[1, 2, 3, 2, 0, 0]
        )
        sim = np.zeros((4, 6))
        assert recall_at_k(sim, rel, 1, "i2t") == 25.0   # image 1 via caption 0
        assert recall_at_k(sim, rel, 2, "i2t") == 50.0   # + image 2 via caption 1
        assert recall_at_k(sim, rel, 1, "t2i") == 100.0 * 2 / 6
        assert recall_at_k(sim, rel, 3, "t2i") == 100.0 * 5 / 6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            recall_at_k(np.zeros((3, 3)), one_to_one_relevance(4), 1, "i2t")


def with_some_tied_rows(rng, scores, target):
    """`scores` with the target's score copied into other columns, before and
    after it, of about a third of the rows; the other rows hold no tie."""
    scores = scores.copy()
    for q in np.flatnonzero(rng.random(len(target)) < 0.35):
        n_c = scores.shape[1]
        cols = rng.choice(n_c, size=int(rng.integers(1, n_c + 1)), replace=False)
        scores[q, cols] = scores[q, target[q]]
    return scores


class TestRanks:
    def test_some_tied_rows_equal_the_sort_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n_q, n_c = int(rng.integers(1, 20)), int(rng.integers(2, 20))
            target = rng.integers(0, n_c, size=n_q)
            scores = with_some_tied_rows(rng, rng.standard_normal((n_q, n_c)), target)
            oracle = [sorted(range(n_c), key=lambda j: (-row[j], j)).index(t)
                      for row, t in zip(scores, target)]
            assert _ranks(scores, target).tolist() == oracle

    def test_a_nan_target_hides_no_other_rows_tie(self):
        # row 0's NaN target equals nothing, so it must not offset row 1's extra equal score
        scores = np.array([[0.5, np.nan, 0.1], [0.3, 0.2, 0.3]])
        assert _ranks(scores, np.array([1, 2])).tolist() == [0, 1]

    def test_columns_rank_as_the_rows_of_the_transpose(self):
        # t2i ranks count along axis 0 of the similarities, with the same tie and NaN rules
        rng = np.random.default_rng(8)
        for _ in range(60):
            n_q, n_c = int(rng.integers(1, 20)), int(rng.integers(2, 20))
            target = rng.integers(0, n_c, size=n_q)
            scores = with_some_tied_rows(rng, rng.standard_normal((n_q, n_c)), target)
            scores[rng.random(scores.shape) < 0.05] = np.nan
            assert _ranks(scores.T, target, axis=0).tolist() == _ranks(scores, target).tolist()
        scores = np.array([[0.5, np.nan, 0.1], [0.3, 0.2, 0.3]])
        assert _ranks(scores.T.copy(), np.array([1, 2]), axis=0).tolist() == [0, 1]

    def test_recall_with_some_tied_rows_equals_the_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n_img = int(rng.integers(1, 16))
            rel = shuffled_uneven_relevance(rng, n_img)
            n_desc = len(rel.desc_to_img)
            sim = rng.standard_normal((n_img, n_desc))
            first = np.array([min(r) for r in rel.img_to_desc])
            sim = with_some_tied_rows(rng, sim, first)  # ties on a relevant caption's score
            sim = with_some_tied_rows(rng, sim.T, rel.desc_img).T  # and on a caption's image
            for k in (1, 2, 5, 10):
                for direction in ("i2t", "t2i"):
                    assert recall_at_k(sim, rel, k, direction) == brute_force_recall(
                        sim, rel, k, direction
                    )


class TestRetrievalReport:
    def test_equals_the_six_recalls_on_tie_heavy_inputs(self):
        # each direction is ranked once and thresholded at 1, 5 and 10
        rng = np.random.default_rng(4)
        for _ in range(40):
            n_img = int(rng.integers(1, 16))
            rel = shuffled_uneven_relevance(rng, n_img)
            sim = rng.integers(0, 3, size=(n_img, len(rel.desc_to_img))).astype(float)
            report = retrieval_report(sim, rel)
            i2t = [recall_at_k(sim, rel, k, "i2t") for k in (1, 5, 10)]
            t2i = [recall_at_k(sim, rel, k, "t2i") for k in (1, 5, 10)]
            assert list(report.i2t) == list(report.t2i) == [1, 5, 10]
            assert list(report.i2t.values()) == i2t
            assert list(report.t2i.values()) == t2i
            assert report.m_recall == m_recall(i2t + t2i)


class TestMRecall:
    def test_all_hundred(self):
        assert m_recall([100.0] * 6) == 100.0

    def test_six_value_reference_mean(self):
        values = (45.9, 74.0, 82.7, 33.2, 62.2, 73.3)
        assert m_recall(values) == pytest.approx(61.88, abs=0.05)

    def test_all_zero(self):
        assert m_recall([0.0] * 6) == 0.0

    def test_permutation_invariant(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        assert m_recall(values) == m_recall(values[::-1])

    def test_report_consistency(self):
        rng = np.random.default_rng(3)
        sim = rng.standard_normal((8, 8))
        rel = one_to_one_relevance(8)
        report = retrieval_report(sim, rel)
        assert report.m_recall == pytest.approx(
            np.mean([*report.i2t.values(), *report.t2i.values()])
        )
        for d in (report.i2t, report.t2i):
            assert d[1] <= d[5] <= d[10]


class TestEfficiencyDifference:
    def test_seventy_percent_speedup(self):
        assert efficiency_difference(1.8, 6.0) == pytest.approx(-70.0)

    def test_fractional_epoch_speedup(self):
        assert efficiency_difference(13.9, 29.0) == pytest.approx(-52.1, abs=0.05)

    def test_equal_epochs(self):
        assert efficiency_difference(5.0, 5.0) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroDivisionError):
            efficiency_difference(1.0, 0.0)


class TestEpochsToThreshold:
    def test_above_best_gives_none(self):
        assert epochs_to_threshold([(0.5, 40.0), (1.0, 60.0)], 70.0) is None

    def test_first_crossing(self):
        assert epochs_to_threshold([(0.5, 40.0), (1.0, 60.0)], 55.0) == 1.0

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(4)
        records = [(0.1 * (i + 1), float(rng.uniform(0, 100))) for i in range(50)]
        threshold = 60.0
        oracle = next((f for f, s in records if s >= threshold), None)
        assert epochs_to_threshold(records, threshold) == oracle

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            epochs_to_threshold([], 0.0)


class TestHardNegativeUniques:
    def test_all_same_negative(self):
        stats = hard_negative_uniques([([3, 3, 3, 3], [2, 2, 2, 2])])
        assert stats.unique_img == [1]
        assert stats.unique_desc == [1]

    def test_all_distinct(self):
        idx = list(range(8))
        stats = hard_negative_uniques([(idx, idx)])
        assert stats.unique_img == [8]
        assert stats.unique_desc == [8]

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(5)
        logs = []
        for _ in range(30):
            b = int(rng.integers(2, 16))
            logs.append(
                (rng.integers(b, size=b).tolist(), rng.integers(b, size=b).tolist())
            )
        stats = hard_negative_uniques(logs)
        for (img, desc), ui, ud in zip(logs, stats.unique_img, stats.unique_desc):
            assert ui == len(set(img))
            assert ud == len(set(desc))
            assert ui <= len(img)
            assert ud <= len(desc)


class TestCsvOutputs:
    def test_report_csv(self, tmp_path):
        report = RetrievalReport(
            i2t={1: 10.0, 5: 20.0, 10: 30.0},
            t2i={1: 15.0, 5: 25.0, 10: 35.0},
            m_recall=22.5,
        )
        path = tmp_path / "report.csv"
        write_report_csv(report, path, header="cfg")
        lines = path.read_text().splitlines()
        assert lines[0] == "# cfg"
        assert lines[1] == "direction,k,recall"
        assert lines[-1].startswith("m_recall")

    def test_diagnostics_csv(self, tmp_path):
        stats = HardNegStats(unique_img=[3, 4], unique_desc=[2, 5])
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(stats, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "batch_index,unique_img,unique_desc"
        assert lines[1] == "0,3,2"
        assert lines[2] == "1,4,5"


class TestRelevanceMap:
    def test_rejects_empty_relevant_set(self):
        with pytest.raises(ValueError):
            RelevanceMap(img_to_desc=[set()], desc_to_img=[])

    def test_rejects_out_of_range_image(self):
        with pytest.raises(ValueError):
            RelevanceMap(img_to_desc=[{0}], desc_to_img=[3])

    @pytest.mark.parametrize("img_to_desc,desc_to_img,message", [
        ([{0, 2}], [0, 0], "lists description 2 of 2"),
        ([{0, 1}, {1}], [0, 1], "lists description 1, which references image 1"),
        ([{0}], [0] * 3, "description 1 is listed under no image"),
    ])
    def test_rejects_maps_that_disagree(self, img_to_desc, desc_to_img, message):
        with pytest.raises(ValueError, match=message):
            RelevanceMap(img_to_desc=img_to_desc, desc_to_img=desc_to_img)

import re

import numpy as np
import pytest

from semhard.errors import SemhardError
from semhard.losses import (
    LossConfig,
    SimilarityBlock,
    compute_loss,
    lmh,
    lseh,
    lsh,
    semantic_factor_matrix,
)
from semhard.textsem import ReducedSemantics


def loss_gradient_check(
    block: SimilarityBlock, cfg: LossConfig, epsilon: float = 1e-6
) -> float:
    """Central-difference check of grad_S.

    Returns the max relative error over entries with nonzero analytic
    gradient, skipping entries within 10*epsilon of a hinge kink or an
    argmax tie (where the subgradient is genuinely discontinuous).
    """
    if not 1e-7 <= epsilon <= 1e-4:
        raise ValueError("epsilon must lie in [1e-7, 1e-4]")
    out = compute_loss(block, cfg)
    guard = 10.0 * epsilon
    if not _far_from_kinks(block, cfg, guard):
        return 0.0

    max_err = 0.0
    S = block.S
    idx = np.argwhere(out.grad_S != 0)
    for i, j in idx:
        orig = S[i, j]
        S[i, j] = orig + epsilon
        up = compute_loss(block, cfg).value
        S[i, j] = orig - epsilon
        down = compute_loss(block, cfg).value
        S[i, j] = orig
        fd = (up - down) / (2.0 * epsilon)
        g = out.grad_S[i, j]
        max_err = max(max_err, abs(fd - g) / max(abs(g), 1.0))
    return max_err


def _far_from_kinks(block: SimilarityBlock, cfg: LossConfig, guard: float) -> bool:
    """True when every hinge and argmax decision clears the guard band."""
    S = block.S
    b = S.shape[0]
    diag = np.diag(S)
    if cfg.variant == "lsh":
        h = cfg.alpha + S - diag[:, np.newaxis]
        g = cfg.alpha + S - diag[np.newaxis, :]
        off = ~np.eye(b, dtype=bool)
        return bool(np.all(np.abs(h[off]) > guard) and np.all(np.abs(g[off]) > guard))

    aug = S if cfg.variant == "lmh" or block.F is None else S + block.F
    masked = aug.copy()
    np.fill_diagonal(masked, -np.inf)
    for axis in (0, 1):
        top2 = np.sort(masked, axis=axis)
        hi = np.take(top2, -1, axis=axis)
        lo = np.take(top2, -2, axis=axis)
        if np.any(hi - lo < guard):
            return False
    rows = np.arange(b)
    h_row = cfg.alpha + masked[rows, np.argmax(masked, axis=1)] - diag
    h_col = cfg.alpha + masked[np.argmax(masked, axis=0), rows] - diag
    return bool(np.all(np.abs(h_row) > guard) and np.all(np.abs(h_col) > guard))


def lsh_oracle(S, alpha):
    b = S.shape[0]
    total = 0.0
    for i in range(b):
        for j in range(b):
            if j == i:
                continue
            total += max(alpha + S[i, j] - S[i, i], 0.0)
            total += max(alpha + S[j, i] - S[i, i], 0.0)
    return total


def max_hinge_oracle(S, F, alpha):
    """Loop oracle for the max-of-hinges family; F=None means plain lmh."""
    b = S.shape[0]
    if F is None:
        F = np.zeros_like(S)
    total = 0.0
    hard_desc, hard_img = [], []
    for i in range(b):
        best_j, best_aug = None, -np.inf
        for j in range(b):
            if j != i and S[i, j] + F[i, j] > best_aug:
                best_j, best_aug = j, S[i, j] + F[i, j]
        hard_desc.append(best_j)
        total += max(alpha + best_aug - S[i, i], 0.0)
        best_j, best_aug = None, -np.inf
        for j in range(b):
            if j != i and S[j, i] + F[j, i] > best_aug:
                best_j, best_aug = j, S[j, i] + F[j, i]
        hard_img.append(best_j)
        total += max(alpha + best_aug - S[i, i], 0.0)
    return total, hard_desc, hard_img


def max_hinge_grad_oracle(S, F, alpha):
    """Loop oracle for the max-of-hinges grad_S: +1 at each active hardest
    negative, and -(row active + column active) on the diagonal."""
    b = S.shape[0]
    aug = S if F is None else S + F
    _, hard_desc, hard_img = max_hinge_oracle(S, F, alpha)
    grad = np.zeros((b, b))
    for i in range(b):
        row_active = alpha + aug[i, hard_desc[i]] - S[i, i] > 0
        col_active = alpha + aug[hard_img[i], i] - S[i, i] > 0
        grad[i, hard_desc[i]] += row_active
        grad[hard_img[i], i] += col_active
        grad[i, i] -= float(row_active) + float(col_active)
    return grad


def random_block(rng, b, with_f=True, lam=0.025):
    S = rng.uniform(-1, 1, size=(b, b))
    F = None
    if with_f:
        F = semantic_factor_matrix(rng.standard_normal((b, 6)), lam)
    return SimilarityBlock(S=S, F=F)


class TestSemanticFactorMatrix:
    def test_identical_rows_hit_lambda(self):
        rows = np.tile(np.array([1.0, 2.0, 3.0]), (3, 1))
        F = semantic_factor_matrix(rows, 0.025)
        assert F[0, 1] == pytest.approx(0.025)
        assert np.all(np.diag(F) == 0.0)

    def test_zero_temperature(self):
        rng = np.random.default_rng(0)
        F = semantic_factor_matrix(rng.standard_normal((4, 3)), 0.0)
        assert np.all(F == 0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((4, 5))
        F = semantic_factor_matrix(rows, 0.025)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                naive = 0.025 * float(rows[i] @ rows[j]) / (
                    np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
                )
                assert F[i, j] == pytest.approx(naive, abs=1e-12)

    def test_unit_rows_gathered_from_all_of_b_give_the_same_bits(self):
        # training scales B's rows once per run and gathers each batch from them
        rng = np.random.default_rng(3)
        B = rng.standard_normal((50, 8))
        B[7] = 0.0
        unit = ReducedSemantics(B, np.ones(8), np.eye(8)).unit_B
        for batch in (rng.permutation(50)[:8], np.array([7, 3, 9, 1])):
            assert np.array_equal(semantic_factor_matrix(unit[batch], 0.025, unit=True),
                                  semantic_factor_matrix(B[batch], 0.025))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        F = semantic_factor_matrix(rng.standard_normal((8, 4)), 0.025)
        assert np.allclose(F, F.T)
        assert np.max(np.abs(F)) <= 0.025 + 1e-12


class TestLsh:
    def test_no_violation_gives_zero(self):
        block = SimilarityBlock(S=np.array([[0.9, 0.1], [0.1, 0.9]]))
        out = lsh(block, LossConfig(alpha=0.185, variant="lsh"))
        assert out.value == 0.0
        assert np.all(out.grad_S == 0.0)

    def test_hand_sum(self):
        block = SimilarityBlock(S=np.full((2, 2), 0.5))
        out = lsh(block, LossConfig(alpha=0.2, variant="lsh"))
        assert out.value == pytest.approx(0.8)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            block = random_block(rng, 8, with_f=False)
            out = lsh(block, LossConfig(alpha=0.185, variant="lsh"))
            assert out.value == pytest.approx(
                lsh_oracle(block.S, 0.185), abs=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(SemhardError, match=re.escape("S must be square, got (2, 3)")):
            SimilarityBlock(S=np.zeros((2, 3)))


class TestLmh:
    def test_b2_equals_lsh(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            block = random_block(rng, 2, with_f=False)
            cfg = LossConfig(alpha=0.185, variant="lmh")
            assert lmh(block, cfg).value == pytest.approx(
                lsh(block, LossConfig(alpha=0.185, variant="lsh")).value, abs=1e-12
            )

    def test_hand_computation(self):
        block = SimilarityBlock(S=np.array([[0.9, 0.3], [0.8, 0.9]]))
        out = lmh(block, LossConfig(alpha=0.185, variant="lmh"))
        # the only violation is S[1, 0] = 0.8; its hinge
        # 0.185 + 0.8 - 0.9 = 0.085 is counted once per direction
        assert out.value == pytest.approx(0.17)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            block = random_block(rng, 16, with_f=False)
            out = lmh(block, LossConfig(alpha=0.185, variant="lmh"))
            val, hd, hi = max_hinge_oracle(block.S, None, 0.185)
            assert out.value == pytest.approx(val, abs=1e-12)
            assert out.hard_neg_desc.tolist() == hd
            assert out.hard_neg_img.tolist() == hi

    def test_bounded_by_lsh(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            block = random_block(rng, 12, with_f=False)
            assert (
                lmh(block, LossConfig(alpha=0.185, variant="lmh")).value
                <= lsh(block, LossConfig(alpha=0.185, variant="lsh")).value + 1e-12
            )

    def test_gradient_sparsity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            b = 10
            block = random_block(rng, b, with_f=False)
            grad = lmh(block, LossConfig(alpha=0.185, variant="lmh")).grad_S
            off = grad.copy()
            np.fill_diagonal(off, 0.0)
            assert np.count_nonzero(off) <= 2 * (b - 1)

    def test_hard_negatives_never_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            block = random_block(rng, 6, with_f=False)
            out = lmh(block, LossConfig(alpha=0.185, variant="lmh"))
            assert np.all(out.hard_neg_desc != np.arange(6))
            assert np.all(out.hard_neg_img != np.arange(6))


class TestLseh:
    def test_zero_f_reduces_to_lmh(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            S = rng.uniform(-1, 1, size=(8, 8))
            cfg_lmh = LossConfig(alpha=0.185, variant="lmh")
            cfg_lseh = LossConfig(alpha=0.185, lam=0.0, variant="lseh")
            F = semantic_factor_matrix(rng.standard_normal((8, 4)), 0.0)
            a = lmh(SimilarityBlock(S=S.copy()), cfg_lmh)
            b = lseh(SimilarityBlock(S=S.copy(), F=F), cfg_lseh)
            assert a.value == b.value
            assert np.array_equal(a.grad_S, b.grad_S)
            assert np.array_equal(a.hard_neg_desc, b.hard_neg_desc)
            assert np.array_equal(a.hard_neg_img, b.hard_neg_img)

    def test_effective_margin_range_matches_defaults(self):
        # factor at cosine +-1 shifts the 0.185 margin to [0.16, 0.21]
        cfg = LossConfig(alpha=0.185, lam=0.025, variant="lseh")
        assert cfg.alpha + cfg.lam == pytest.approx(0.21)
        assert cfg.alpha - cfg.lam == pytest.approx(0.16)
        rows = np.vstack([np.ones(3), np.ones(3)])
        F = semantic_factor_matrix(rows, 0.025)
        assert cfg.alpha + F[0, 1] == pytest.approx(0.21)
        F = semantic_factor_matrix(np.vstack([np.ones(3), -np.ones(3)]), 0.025)
        assert cfg.alpha + F[0, 1] == pytest.approx(0.16)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            block = random_block(rng, 16, with_f=True)
            out = lseh(block, LossConfig(alpha=0.185, lam=0.025, variant="lseh"))
            val, hd, hi = max_hinge_oracle(block.S, block.F, 0.185)
            assert out.value == pytest.approx(val, abs=1e-12)
            assert out.hard_neg_desc.tolist() == hd
            assert out.hard_neg_img.tolist() == hi

    def test_argmax_over_augmented_scores(self):
        # constructed so the S-argmax and (S+F)-argmax differ
        S = np.array(
            [[0.9, 0.50, 0.49], [0.1, 0.9, 0.1], [0.1, 0.1, 0.9]]
        )
        F = np.zeros((3, 3))
        F[0, 2] = F[2, 0] = 0.025
        out = lseh(SimilarityBlock(S=S, F=F), LossConfig(variant="lseh"))
        out_plain = lmh(SimilarityBlock(S=S), LossConfig(variant="lmh"))
        assert out_plain.hard_neg_desc[0] == 1
        assert out.hard_neg_desc[0] == 2

    def test_monotone_in_f(self):
        rng = np.random.default_rng(11)
        cfg = LossConfig(alpha=0.185, lam=0.025, variant="lseh")
        for _ in range(50):
            block = random_block(rng, 6, with_f=True)
            base = lseh(block, cfg).value
            i, j = rng.integers(6, size=2)
            while i == j:
                i, j = rng.integers(6, size=2)
            F2 = block.F.copy()
            bump = rng.uniform(0, 0.02)
            F2[i, j] += bump
            F2[j, i] += bump
            bumped = lseh(SimilarityBlock(S=block.S.copy(), F=F2), cfg).value
            assert bumped >= base - 1e-12

    def test_zero_case_all_variants(self):
        S = np.full((4, 4), -0.5)
        np.fill_diagonal(S, 0.9)
        F = semantic_factor_matrix(np.random.default_rng(0).standard_normal((4, 3)), 0.025)
        for cfg in (
            LossConfig(variant="lsh"),
            LossConfig(variant="lmh"),
            LossConfig(variant="lseh"),
        ):
            out = compute_loss(SimilarityBlock(S=S.copy(), F=F), cfg)
            assert out.value == 0.0
            assert np.all(out.grad_S == 0.0)


class TestMaxOfHingesGradient:
    @pytest.mark.parametrize("variant", ["lmh", "lseh"])
    def test_grad_equals_the_loop_oracle(self, variant):
        rng = np.random.default_rng(16)
        lseh_ = variant == "lseh"
        blocks = [random_block(rng, b, with_f=lseh_) for b in (2, 3, 8, 8, 16, 33)]
        # no active hinge: every positive clears its negatives by more than alpha
        quiet = np.full((8, 8), -0.5)
        np.fill_diagonal(quiet, 0.9)
        blocks.append(SimilarityBlock(S=quiet, F=random_block(rng, 8, lseh_).F))
        # argmax ties: scores and factors from a few values repeat along rows and columns
        tied = rng.choice([-0.2, 0.1, 0.3], size=(8, 8))
        topics = np.eye(3)[rng.integers(0, 3, 8)]
        blocks.append(SimilarityBlock(S=tied, F=semantic_factor_matrix(topics, 0.1)
                                      if lseh_ else None))
        cfg = LossConfig(alpha=0.185, variant=variant)
        for block in blocks:
            grad = compute_loss(block, cfg).grad_S
            assert np.array_equal(grad, max_hinge_grad_oracle(block.S, block.F, 0.185))
        assert not compute_loss(blocks[-2], cfg).grad_S.any()
        aug = blocks[-1].S if blocks[-1].F is None else blocks[-1].S + blocks[-1].F
        masked = aug + np.diag(np.full(8, -np.inf))
        assert any(np.count_nonzero(row == row.max()) > 1 for row in masked)


class TestGradientCheck:
    @pytest.mark.parametrize("variant", ["lsh", "lmh", "lseh"])
    def test_random_blocks(self, variant):
        rng = np.random.default_rng(12)
        cfg = LossConfig(alpha=0.185, lam=0.025, variant=variant)
        checked = 0
        for _ in range(20):
            block = random_block(rng, 6, with_f=(variant == "lseh"))
            err = loss_gradient_check(block, cfg, epsilon=1e-6)
            assert err <= 1e-6
            checked += 1
        assert checked == 20

    def test_zero_grad_block(self):
        S = np.full((3, 3), -0.5)
        np.fill_diagonal(S, 0.9)
        err = loss_gradient_check(
            SimilarityBlock(S=S), LossConfig(variant="lmh"), epsilon=1e-6
        )
        assert err == 0.0

    def test_epsilon_validated(self):
        block = SimilarityBlock(S=np.eye(2))
        with pytest.raises(ValueError):
            loss_gradient_check(block, LossConfig(variant="lmh"), epsilon=1e-2)


class TestLossConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LossConfig(lam=-0.1)
        with pytest.raises(ValueError):
            LossConfig(variant="other")

import math
from itertools import combinations

import numpy as np
import pytest

from demixcs import (
    ArgumentError,
    BudgetError,
    build_cs_ofdm,
    build_family,
    custom_model,
    rip,
)
from demixcs.linop import materialize
from demixcs.rip import (
    RipReport,
    certify_uniqueness,
    exact_rip,
    exact_skrip,
    recovery_threshold,
    rip_split,
    sample_bound_modulated_frame,
    sample_bound_subsampled,
    skrip_support_extremes,
)

from conftest import random_complex, random_unitary


HADAMARD2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
FIVE_FAMILIES = ("modulated-hadamard", "subsampled-hadamard",
                 "partial-circulant", "cs-ofdm", "drpe")


def exhaustive_report(a, h, s, k):
    """The joint constant as full enumeration gives it, from every pair's extremes."""
    rows = list(skrip_support_extremes(a, h, s, k))
    devs = [max(emax - 1.0, 1.0 - emin) for _, _, emin, emax in rows]
    delta = max(devs)
    first = next(t for t, dev in enumerate(devs) if dev >= delta - 1e-14)
    sig, cor, emin, emax = rows[first]
    return RipReport(delta, sig, cor, emin, emax, len(rows)), devs


def dense_model(family, n, m, seed=1):
    model = build_family(family, n, m, seed=seed)
    return materialize(model.A), materialize(model.H)


class TestExactRip:
    def test_orthonormal_columns_have_zero_constant(self, rng):
        q = random_unitary(rng, 6)[:, :4]
        for s in (1, 2, 3, 4):
            assert exact_rip(q, s).delta <= 1e-12

    def test_diagonal_witness(self):
        rep = exact_rip(np.diag([np.sqrt(2.0), 1.0]), 1)
        assert rep.delta == pytest.approx(1.0, abs=1e-12)
        assert rep.witness_signal_support == (0,)
        assert rep.eig_max == pytest.approx(2.0, abs=1e-12)

    def test_random_search_lower_bound_coincides(self, rng):
        # the eigenvalue enumeration is exact from above; a dense random
        # search over unit 2-sparse vectors approaches it from below
        a = rng.standard_normal((3, 4))
        rep = exact_rip(a, 2)
        best = 0.0
        for _ in range(10 ** 5):
            support = rng.choice(4, size=2, replace=False)
            x = np.zeros(4)
            x[support] = rng.standard_normal(2)
            x /= np.linalg.norm(x)
            best = max(best, abs(np.linalg.norm(a @ x) ** 2 - 1.0))
        assert best <= rep.delta + 1e-12
        assert rep.delta - best <= 1e-3

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            exact_rip(np.ones((4, 40)), 10)

    def test_scale_law_from_isometry(self, rng):
        q = random_unitary(rng, 5)[:, :3]
        for c in (0.5, 2.0):
            assert exact_rip(c * q, 2).delta == pytest.approx(abs(c ** 2 - 1), abs=1e-12)


class TestExactSkrip:
    def test_hadamard_closed_form(self):
        rep = exact_skrip(HADAMARD2, np.eye(2), 1, 1)
        assert rep.delta == pytest.approx(1 / np.sqrt(2.0), abs=1e-9)
        assert rep.eig_max == pytest.approx(1 + 1 / np.sqrt(2.0), abs=1e-9)
        assert rep.eig_min == pytest.approx(1 - 1 / np.sqrt(2.0), abs=1e-9)
        assert rep.supports_enumerated == 4

    def test_hadamard_brute_force_over_pairs(self):
        # all 4 support pairs by hand: Gram [[1, c],[c, 1]] has eigs 1 +- |c|
        worst = 0.0
        for j in range(2):
            for i in range(2):
                c = abs(HADAMARD2[i, j])
                worst = max(worst, c)
        assert exact_skrip(HADAMARD2, np.eye(2), 1, 1).delta == pytest.approx(worst)

    def test_zero_signal_sparsity_with_unitary_h(self, rng):
        a = random_complex(rng, 4, 6)
        h = random_unitary(rng, 4)
        for k in (1, 2, 3):
            assert exact_skrip(a, h, 0, k).delta <= 1e-12

    def test_monotonicity_grid(self, rng):
        a = rng.standard_normal((4, 6))
        h = np.eye(4)
        d = {(s, k): exact_skrip(a, h, s, k).delta
             for s in (1, 2) for k in (1, 2)}
        assert d[(1, 1)] <= d[(2, 1)] + 1e-12
        assert d[(2, 1)] <= d[(2, 2)] + 1e-12
        assert d[(1, 1)] <= d[(1, 2)] + 1e-12

    def test_reduces_to_exact_rip_at_k_zero(self, rng):
        for trial in range(20):
            a = rng.standard_normal((4, 6))
            s = 1 + trial % 2
            r_pair = exact_skrip(a, np.eye(4), s, 0)
            r_std = exact_rip(a, s)
            assert abs(r_pair.delta - r_std.delta) <= 1e-12
            assert r_pair.witness_signal_support == r_std.witness_signal_support

    def test_support_extremes_match_report(self, rng):
        a = rng.standard_normal((3, 4))
        h = np.eye(3)
        rep = exact_skrip(a, h, 1, 1)
        rows = list(skrip_support_extremes(a, h, 1, 1))
        assert len(rows) == rep.supports_enumerated
        worst = max(max(emax - 1, 1 - emin) for _, _, emin, emax in rows)
        assert worst == pytest.approx(rep.delta, abs=1e-12)


class TestPrunedSearch:
    """exact_skrip solves only pairs whose bound can reach the maximum.

    Its report must equal full enumeration bit for bit: float fields
    compare with ==, and supports_enumerated counts every pair.
    """

    @pytest.mark.parametrize("family, n, m, s, k", [
        *((family, 16, 8, 2, 2) for family in FIVE_FAMILIES),
        ("modulated-hadamard", 16, 8, 0, 2),
        ("modulated-hadamard", 16, 8, 2, 0),
        ("partial-circulant", 16, 8, 3, 3),   # Frobenius bound on the cross block
        ("drpe", 16, 8, 2, 3),                # closed form on the signal side
    ])
    def test_matches_full_enumeration(self, family, n, m, s, k):
        a, h = dense_model(family, n, m)
        expected, _ = exhaustive_report(a, h, s, k)
        assert exact_skrip(a, h, s, k) == expected

    def test_tie_heavy_ofdm_solves_only_the_ties(self, monkeypatch):
        a, h = dense_model("cs-ofdm", 16, 16)
        expected, devs = exhaustive_report(a, h, 2, 2)
        ties = sum(dev >= expected.delta - 1e-14 for dev in devs)
        assert (ties, len(devs)) == (1088, 14400)

        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda stack: solved.append(len(stack)) or eigvalsh(stack))
        assert exact_skrip(a, h, 2, 2) == expected
        # 120 signal and 120 corruption supports, the floor pair, the ties
        assert sum(solved) == 2 * 120 + 1 + ties

    def test_bound_without_cross_term_loses_the_witness(self, monkeypatch):
        # A lives on rows 2..5, so K = (0, 1) meets no cross block and the
        # pair with the largest cross-free bound is solved exactly
        gen = np.random.default_rng(0)
        a = np.zeros((6, 9))
        a[2:] = gen.standard_normal((4, 9))
        a /= np.linalg.norm(a, axis=0)
        h = np.eye(6)
        expected, _ = exhaustive_report(a, h, 2, 2)
        assert exact_skrip(a, h, 2, 2) == expected

        bounds = rip._pair_bounds

        def without_cross(gram, sig, cor, n, e, d):
            gram = gram.copy()
            gram[:n, n:] = 0.0
            return bounds(gram, sig, cor, n, e, d)

        monkeypatch.setattr(rip, "_pair_bounds", without_cross)
        pruned = exact_skrip(a, h, 2, 2)
        assert pruned.delta < expected.delta
        assert pruned.witness_signal_support != expected.witness_signal_support


class TestRipInputs:
    def test_negative_sparsity(self):
        for s, k in ((-1, 1), (1, -1)):
            with pytest.raises(ArgumentError):
                exact_skrip(HADAMARD2, np.eye(2), s, k)
        with pytest.raises(ArgumentError):
            exact_rip(HADAMARD2, -1)
        with pytest.raises(ArgumentError):
            rip_split(HADAMARD2, np.eye(2), -1, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix(self, bad):
        a = HADAMARD2.copy()
        a[0, 1] = bad
        with pytest.raises(ArgumentError, match="matrix entries must be finite"):
            exact_skrip(a, np.eye(2), 1, 1)
        with pytest.raises(ArgumentError, match="matrix entries must be finite"):
            custom_model(a, np.eye(2))

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda(self, lam):
        with pytest.raises(ArgumentError):
            recovery_threshold(1, 1, lam)
        with pytest.raises(ArgumentError):
            certify_uniqueness(custom_model(HADAMARD2, np.eye(2)), 1, 1, lam)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan, math.inf])
    def test_bounds_reject_bad_delta(self, delta):
        with pytest.raises(ArgumentError):
            sample_bound_modulated_frame(1, 1, 8, 0.5, delta)
        with pytest.raises(ArgumentError):
            sample_bound_subsampled(1, 1, 8, 0.5, delta)

    @pytest.mark.parametrize("s, k, size", [(0, 1, 8), (1, 0, 8), (1, 1, 0)])
    def test_bounds_reject_counts_below_one(self, s, k, size):
        with pytest.raises(ArgumentError):
            sample_bound_modulated_frame(s, k, size, 0.5, 0.5)
        with pytest.raises(ArgumentError):
            sample_bound_subsampled(s, k, size, 0.5, 0.5)


def split_cross_reference(a, h, s, k):
    """delta2 by an SVD of every cross block H_K* A_S."""
    cross = h.conj().T @ a
    return max((np.linalg.svd(cross[np.ix_(cor, sig)], compute_uv=False)[0]
                for sig in combinations(range(a.shape[1]), s)
                for cor in combinations(range(h.shape[1]), k)
                if s and k), default=0.0)


class TestRipSplit:
    @pytest.mark.parametrize("s, k", [(1, 1), (2, 2), (2, 3), (0, 2)])
    @pytest.mark.parametrize("family", FIVE_FAMILIES)
    def test_matches_svd_of_every_cross_block(self, family, s, k):
        a, h = dense_model(family, 16, 8)
        d1, d2 = rip_split(a, h, s, k)
        assert d1 == exact_rip(a, s).delta
        assert d2 == pytest.approx(split_cross_reference(a, h, s, k), rel=1e-12, abs=1e-12)

    def test_matches_svd_on_random_complex_matrices(self, rng):
        for _ in range(5):
            a = random_complex(rng, 6, 8)
            h = random_complex(rng, 6, 6)
            for s, k in ((1, 2), (2, 2), (3, 1)):
                _, d2 = rip_split(a, h, s, k)
                assert d2 == pytest.approx(split_cross_reference(a, h, s, k), rel=1e-12)

    def test_non_square_corruption_basis_rejected(self):
        with pytest.raises(ArgumentError):
            rip_split(HADAMARD2, np.ones((2, 3)), 1, 1)

    def test_disjoint_rows_give_zero_cross_term(self):
        # A supported on rows {2, 3} while corruption supports live anywhere:
        # blocks H_K* A_S vanish only for K inside {0, 1}; restrict H there
        a = np.zeros((4, 3))
        a[2:, :] = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 3)).T)[0].T[:2]
        h = np.zeros((4, 4))
        h[0, 0] = h[1, 1] = 1.0  # selector of the complementary rows
        _, d2 = rip_split(a, h, 1, 1)
        assert d2 <= 1e-12

    def test_hadamard_equality_case(self):
        d1, d2 = rip_split(HADAMARD2, np.eye(2), 1, 1)
        delta = exact_skrip(HADAMARD2, np.eye(2), 1, 1).delta
        assert d1 <= 1e-12
        assert d2 == pytest.approx(1 / np.sqrt(2.0), abs=1e-12)
        assert abs(d1 + d2 - delta) <= 1e-9

    def test_upper_bound_holds_on_random_instances(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 6))
            h = np.eye(4)
            for s in (1, 2):
                for k in (1, 2):
                    d1, d2 = rip_split(a, h, s, k)
                    delta = exact_skrip(a, h, s, k).delta
                    assert delta <= d1 + d2 + 1e-12


class TestRecoveryThreshold:
    def test_balanced_case_value(self):
        rep = recovery_threshold(3, 3, 1.0)
        assert rep.eta == pytest.approx(2.0)
        assert rep.threshold == pytest.approx(0.49237, abs=1e-5)

    def test_balancing_weight_gives_eta_two(self):
        for s, k in ((4, 9), (25, 4), (7, 7)):
            rep = recovery_threshold(s, k, math.sqrt(s / k))
            assert rep.eta == pytest.approx(2.0, abs=1e-12)

    def test_threshold_decreases_with_imbalance(self):
        t_bal = recovery_threshold(1, 1, 1.0).threshold
        t_skew = recovery_threshold(1, 100, 1.0).threshold
        assert t_skew < t_bal

    def test_eta_at_least_two(self, rng):
        for _ in range(50):
            s = int(rng.integers(1, 30))
            k = int(rng.integers(1, 30))
            lam = float(rng.uniform(0.1, 10))
            assert recovery_threshold(s, k, lam).eta >= 2.0 - 1e-12


class TestCertifyUniqueness:
    def test_square_unitary_with_identity_corruption_fails(self):
        model = custom_model(HADAMARD2, np.eye(2))
        rep = certify_uniqueness(model, 1, 1, 1.0)
        # the four stacked columns span only a rank-2 space: lowest
        # eigenvalue 0 forces the constant to 1
        assert rep.delta_2s2k == pytest.approx(1.0, abs=1e-12)
        assert rep.satisfied is False

    def test_oversampled_orthonormal_columns(self, rng):
        q = random_unitary(rng, 8)[:, :2]
        model = custom_model(q, np.eye(8))
        rep = certify_uniqueness(model, 1, 1, 1.0)
        direct = exact_skrip(q, np.eye(8), 2, 2)
        assert rep.delta_2s2k == pytest.approx(direct.delta, abs=1e-12)
        assert rep.skrip == direct

    def test_threshold_field_matches_formula(self):
        model = custom_model(HADAMARD2, np.eye(2))
        rep = certify_uniqueness(model, 1, 1, 1.0)
        base = recovery_threshold(1, 1, 1.0)
        assert rep.threshold == base.threshold and rep.eta == base.eta

    def test_golay_modulated_square_model_certifies(self):
        model = build_cs_ofdm(32, 32, seed=11)
        rep = certify_uniqueness(model, 1, 1, 1.0)
        assert rep.satisfied is True
        assert rep.delta_2s2k == pytest.approx(1 / np.sqrt(8.0), abs=1e-9)


class TestSampleBounds:
    def test_modulated_frame_example(self):
        m_sig, _ = sample_bound_modulated_frame(1, 1, 512, 1 / np.sqrt(512), 0.5)
        assert m_sig == pytest.approx(4 * math.log(512) ** 2, rel=1e-12)
        assert m_sig == pytest.approx(155.7, abs=0.1)

    def test_bounded_basis_drops_dimension_factor(self):
        n = 512
        m_flat, _ = sample_bound_modulated_frame(4, 1, n, 1 / np.sqrt(n), 0.5)
        expected = 1.0 * 0.5 ** -2 * 4 * math.log(4) ** 2 * math.log(n) ** 2
        assert m_flat == pytest.approx(expected, rel=1e-12)

    def test_doubling_sparsity_roughly_doubles(self):
        lo, _ = sample_bound_modulated_frame(8, 1, 512, 0.1, 0.5)
        hi, _ = sample_bound_modulated_frame(16, 1, 512, 0.1, 0.5)
        ratio = hi / lo
        assert 2.0 < ratio < 2.0 * (math.log(16) / math.log(8)) ** 2 + 1e-12

    def test_subsampled_upper_bound_binds_at_small_delta(self):
        rec = sample_bound_subsampled(1, 1, 512, 1 / np.sqrt(512), 0.1)
        assert rec.m_upper == pytest.approx(5.12)
        assert rec.m_upper < rec.m_signal

    def test_subsampled_record_fields(self):
        rec = sample_bound_subsampled(2, 2, 512, 1 / np.sqrt(512), 0.5)
        assert rec.m_signal == pytest.approx(max(rec.m_signal_terms))
        assert len(rec.m_signal_terms) == 3
        assert rec.m_corruption > 0 and rec.m_upper == pytest.approx(0.25 * 512)

    def test_subsampled_bounded_basis_drops_dimension_factor(self):
        n = 256
        rec = sample_bound_subsampled(4, 2, n, 1 / np.sqrt(n), 0.5)
        expected = 0.5 ** -2 * 4 * math.log(4) ** 2 * math.log(n) ** 2
        assert rec.m_signal_terms[0] == pytest.approx(expected, rel=1e-12)

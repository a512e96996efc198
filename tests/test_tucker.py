import math

import numpy as np
import pytest

import lrtensor as lt
from lrtensor.svd import factorize, truncated_svd
import lrtensor.tucker as tucker
from oracles import classical_hosvd, gram_spectrum, sequential_matrix, tail_energy


def random_tensor(rng, extents, weighted=False):
    values = rng.standard_normal(extents)
    weights = None
    if weighted:
        weights = [rng.random(n) + 0.1 for n in extents]
    return lt.DenseTensor(values, mode_weights=weights)


class TestFullRank:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_full_rank_reconstruction(self, weighted):
        rng = np.random.default_rng(7)
        t = random_tensor(rng, (4, 5, 3), weighted=weighted)
        d = lt.hosvd(t, t.shape)
        assert lt.tucker_error(t, d) <= 1e-12 * lt.frobenius_norm(t)

    def test_rank_one_tensor_needs_rank_one(self):
        rng = np.random.default_rng(1)
        vecs = [rng.standard_normal(n) for n in (6, 5, 4)]
        values = np.einsum("i,j,k->ijk", *vecs)
        t = lt.DenseTensor(values)
        d = lt.hosvd(t, (1, 1, 1))
        assert lt.tucker_error(t, d) <= 1e-12 * lt.frobenius_norm(t)
        assert d.ranks == (1, 1, 1)


class TestErrorBound:
    def test_error_within_root_sum_of_tails(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            t = random_tensor(rng, (5, 5, 5), weighted=trial % 2 == 1)
            ranks = tuple(rng.integers(1, 6, size=3))
            d = lt.hosvd(t, ranks)
            err = lt.tucker_error(t, d)
            assert err <= d.tail_bound() + 1e-12

    def test_bound_matches_dense_svd_tails(self):
        # independent oracle: recompute each step's tail from a direct numpy SVD of
        # its matrix, the weighted unfolding projected onto the factors kept before it
        rng = np.random.default_rng(3)
        t = random_tensor(rng, (6, 4, 5), weighted=True)
        ranks = (3, 2, 4)
        d = lt.hosvd(t, ranks)
        total = 0.0
        for mode, r in enumerate(ranks):
            s = np.linalg.svd(sequential_matrix(t.weighted_values(), d.factors, mode), compute_uv=False)
            total += float(np.sum(s[r:] ** 2))
        assert d.tail_bound() == pytest.approx(math.sqrt(total), rel=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_error_equals_the_bound_and_tails_never_exceed_classical_ones(self, weighted):
        # Sequential truncation: the error is the root sum of the steps' squared tails,
        # and each step's tail is at most that of classical HOSVD's mode at the same rank.
        rng = np.random.default_rng(29)
        t = random_tensor(rng, (6, 5, 4), weighted=weighted)
        norm = lt.frobenius_norm(t)
        ranks = (3, 3, 2)
        d = lt.hosvd(t, ranks)
        err, bound = lt.tucker_error(t, d), d.tail_bound()
        assert bound > 1e-8 * norm
        assert (1 - 1e-8) * bound <= err <= bound + 1e-10 * norm
        _, _, classical = classical_hosvd(t.weighted_values(), ranks)
        for spectrum, s, r in zip(d.mode_spectra, classical, ranks):
            assert spectrum.tails[r] <= tail_energy(lt.SingularSpectrum(s), r) * (1 + 1e-12)

    def test_error_monotone_in_ranks(self):
        rng = np.random.default_rng(5)
        t = random_tensor(rng, (6, 6, 6))
        errors = [
            lt.tucker_error(t, lt.hosvd(t, (r, r, r))) for r in range(1, 7)
        ]
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12

    def test_sampled_functions_obey_bound(self):
        for fn_id, kwargs in (
            ("gauss_kernel", dict(n=1, c=3.0)),
            ("weighted_product", dict(m=3, gamma=(1.0, 0.5, 0.25))),
        ):
            fn = lt.make_function(fn_id, **kwargs)
            m = len(fn.dims)
            sf = lt.sample(fn, lt.GridSpec(9))
            for ranks in [(1,) * m, (2,) * m]:
                d = lt.hosvd(sf, ranks)
                assert lt.tucker_error(sf, d) <= d.tail_bound() + 1e-12


class TestSpectra:
    def test_mode_spectra_match_gram_oracle(self):
        rng = np.random.default_rng(9)
        t = random_tensor(rng, (5, 6, 4), weighted=True)
        d = lt.hosvd(t, (2, 2, 2))
        for mode in range(3):
            gram = gram_spectrum(sequential_matrix(t.weighted_values(), d.factors, mode))
            sigma_sq = d.mode_spectra[mode].values ** 2
            np.testing.assert_allclose(
                sigma_sq, gram.values[: len(sigma_sq)], atol=1e-10
            )

    def test_factors_orthonormal(self):
        rng = np.random.default_rng(13)
        t = random_tensor(rng, (5, 5, 5), weighted=True)
        d = lt.hosvd(t, (3, 4, 2))
        for f in d.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-12)

    def test_core_norm_preserved_at_full_rank(self):
        rng = np.random.default_rng(17)
        t = random_tensor(rng, (4, 4, 4))
        d = lt.hosvd(t, (4, 4, 4))
        assert np.linalg.norm(d.core) == pytest.approx(
            lt.frobenius_norm(t), rel=1e-12
        )

    def test_core_is_a_read_only_array(self):
        d = lt.hosvd(random_tensor(np.random.default_rng(19), (4, 5, 3), weighted=True), (2, 3, 2))
        assert type(d.core) is np.ndarray and d.core.shape == (2, 3, 2)
        assert not d.core.flags.writeable

    def test_non_finite_core_is_rejected(self, monkeypatch):
        sweep = tucker._sweep

        def nan_core(*args):
            factors, spectra, core = sweep(*args)
            return factors, spectra, core * np.nan

        monkeypatch.setattr(tucker, "_sweep", nan_core)
        with pytest.raises(ValueError, match="finite"):
            lt.hosvd(random_tensor(np.random.default_rng(19), (4, 5, 3)), (2, 3, 2))


@pytest.mark.parametrize("decompose", [lt.hosvd, lt.tt_svd])
def test_a_tolerance_decomposition_holds_no_tensor_sized_array(peak_bytes, decompose):
    # each step's matrix is a view of the projected tensor, no mode is moved to the front by a copy,
    # and the QR of the wide mode-0 unfolding copies one group of blocks of rows at a time
    fn = lt.make_function("weighted_exp", m=6)

    def rule(t):
        return lt.TruncationRule.tail_energy(1e-6 * lt.frobenius_norm(t) / math.sqrt(t.ndim))

    small = lt.sample(fn, lt.GridSpec(3))
    decompose(small, rule(small))  # the first calls' one-off allocations
    t = lt.sample(fn, lt.GridSpec(11))
    tol = rule(t)
    d, peak, _ = peak_bytes(lambda: decompose(t, tol))
    error = lt.tucker_error if decompose is lt.hosvd else lt.tt_error
    assert error(t, d) <= d.tail_bound() + 1e-10 * lt.frobenius_norm(t)
    assert peak <= 0.25 * t.weighted_values().nbytes


def _two_mode_tensor(extents, weighted, rank):
    """A random two-mode tensor, of full rank or of the given rank."""
    rng = np.random.default_rng(sum(extents) + 10 * weighted + (rank or 0))
    n0, n1 = extents
    k = min(extents) if rank is None else rank
    values = rng.standard_normal((n0, k)) @ rng.standard_normal((k, n1))
    weights = [rng.random(n) + 0.1 for n in extents] if weighted else None
    return lt.DenseTensor(values, mode_weights=weights)


def _per_mode(t, rules):
    """The per-mode path: each mode's sequential matrix formed by einsum and factorized on its own."""
    steps = []
    for j, rule in enumerate(rules):
        mat = sequential_matrix(t.weighted_values(), [step.U for step in steps], j)
        steps.append(truncated_svd(factorize(mat), rule))
    return steps


def _clear_gaps(s):
    """Ranks r whose cut s[r-1] > s[r] (s[k] = 0) is clear of rounding."""
    padded = np.append(s, 0.0)
    return [r for r in range(1, len(s) + 1) if padded[r - 1] - padded[r] >= 1e-3 * s[0]]


@pytest.mark.parametrize("rank", [None, 3], ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("extents", [(12, 12), (6, 15), (15, 6)], ids=["square", "wide", "tall"])
class TestTwoModeOneSVD:
    """hosvd's sweep over a two-mode tensor agrees with factorizing each step's matrix on its own.

    Step 1's matrix is A^T U_r, whose spectrum is mode 0's cut to r: mode 1 keeps at most r_0.
    """

    def test_fixed_ranks_match_the_per_mode_path(self, extents, weighted, rank):
        t = _two_mode_tensor(extents, weighted, rank)
        norm = lt.frobenius_norm(t)
        k = min(extents)
        for r0 in range(1, k + 2):
            ranks = (r0, k + 2 - r0)
            d = lt.hosvd(lt.DenseTensor(t.values, t.mode_weights), ranks)
            old = _per_mode(t, [lt.TruncationRule.fixed_rank(r) for r in ranks])
            assert d.ranks == tuple(step.rank for step in old)
            assert lt.tucker_error(t, d) <= d.tail_bound() + 1e-10 * norm

    def test_tolerance_ranks_match_the_per_mode_path(self, extents, weighted, rank):
        t = _two_mode_tensor(extents, weighted, rank)
        norm = lt.frobenius_norm(t)
        s = np.linalg.svd(lt.mode_unfolding(t, 0), compute_uv=False)
        tails = [float(np.sqrt(np.sum(s[r:] ** 2))) for r in range(len(s) + 1)]
        # midway between consecutive tails, and below the noise floor
        kept = len(s) if rank is None else rank
        targets = [0.5 * (tails[r] + tails[r + 1]) for r in range(kept)] + [1e-14 * norm]
        for target in targets:
            rule = lt.TruncationRule.tail_energy(target)
            d = lt.hosvd(lt.DenseTensor(t.values, t.mode_weights), rule)
            assert d.ranks == tuple(step.rank for step in _per_mode(t, [rule, rule]))
            assert lt.tucker_error(t, d) <= d.tail_bound() + 1e-10 * norm

    def test_spectra_and_projectors_match_the_per_mode_path(self, extents, weighted, rank):
        t = _two_mode_tensor(extents, weighted, rank)
        k = min(extents)
        d = lt.hosvd(t, (k, k))
        old = _per_mode(t, [lt.TruncationRule.fixed_rank(k)] * 2)
        for j, step in enumerate(old):
            s = step.full_spectrum.values
            assert np.max(np.abs(d.mode_spectra[j].values - s)) <= 1e-13 * s[0]
            new_u, old_u = d.factors[j], step.U
            for r in _clear_gaps(s):
                projector = new_u[:, :r] @ new_u[:, :r].T
                assert np.max(np.abs(projector - old_u[:, :r] @ old_u[:, :r].T)) <= 1e-10
            # an isolated singular value's vector agrees column by column: one sign convention
            cuts = set(_clear_gaps(s))
            for c in range(k):
                if c + 1 in cuts and (c == 0 or c in cuts):
                    assert np.max(np.abs(new_u[:, c] - old_u[:, c])) <= 1e-10


class TestCost:
    def test_core_cost_is_rank_product(self):
        assert lt.tucker_cost((10, 10, 10)) == 1000
        assert lt.tucker_cost((2, 3, 4, 5)) == 120
        assert lt.tucker_cost(()) == 1

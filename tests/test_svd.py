import math

import numpy as np
import pytest

import lrtensor as lt
import lrtensor.svd as svd
import lrtensor.train as train
import lrtensor.tucker as tucker
from lrtensor.svd import SIGN_PIVOT_TOL, InsufficientSpectrumError, _mode_factorization, _tails, full_svd
from oracles import gram_spectrum, projection_trace_check


def trapezoid(n):
    w = np.full(n, 1.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.linspace(0.0, 1.0, n), w


def brownian_bridge_matrix(n):
    x, w = trapezoid(n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = np.minimum(X, Y) - X * Y
    return np.sqrt(w)[:, None] * f * np.sqrt(w)[None, :]


class TestTruncatedSVD:
    def test_fixed_rank_diag(self):
        res = lt.truncated_svd(np.diag([3.0, 2.0, 1.0]), lt.TruncationRule.fixed_rank(2))
        assert np.allclose(res.spectrum.values, [3.0, 2.0])
        assert res.tail == pytest.approx(1.0)

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        res = lt.truncated_svd(
            np.outer(u, v), lt.TruncationRule.tail_energy(1e-12 * np.linalg.norm(np.outer(u, v)))
        )
        assert res.rank == 1
        assert res.spectrum.values[0] == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v)
        )
        assert res.tail <= 1e-12 * res.spectrum.values[0]

    def test_tail_equals_reconstruction_error_at_every_rank(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6))
        # independent dense-SVD oracle for the reconstruction error
        u_o, s_o, vt_o = np.linalg.svd(m)
        for r in range(7):
            res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(r))
            err = np.linalg.norm(m - res.U @ (res.U.T @ m))
            oracle = np.sqrt(np.sum(s_o[r:] ** 2))
            assert err == pytest.approx(res.tail, rel=1e-12, abs=1e-12)
            assert err == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((8, 5))
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(4))
        assert np.max(np.abs(res.U.T @ res.U - np.eye(4))) <= 1e-12
        # the rows of U_r^T m (= s_r V_r^T) are orthogonal with norms s_r
        head = res.U.T @ m
        gram = head @ head.T
        assert np.max(np.abs(gram - np.diag(res.spectrum.values ** 2))) <= 1e-12 * gram[0, 0]

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 6))
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(6))
        for c in range(res.U.shape[1]):
            lead = res.U[np.abs(res.U[:, c]) > 1e-12, c][0]
            assert lead > 0

    def test_sign_convention_matches_column_loop(self):
        rng = np.random.default_rng(17)
        zero_led = rng.standard_normal((7, 4))
        zero_led[:3] = 0.0
        cases = [rng.standard_normal((6, 9)), rng.standard_normal((9, 6)),
                 zero_led, np.zeros((5, 3)), np.ones((1, 4))]
        for m in cases:
            U, s, Vt = np.linalg.svd(m, full_matrices=False)
            for c in range(U.shape[1]):
                nz = np.flatnonzero(np.abs(U[:, c]) > SIGN_PIVOT_TOL)
                if nz.size and U[nz[0], c] < 0:
                    U[:, c] = -U[:, c]
                    Vt[c, :] = -Vt[c, :]
            for expected, got in zip((U, s, Vt), full_svd(m)):
                assert np.array_equal(expected, got)
                assert np.array_equal(np.signbit(expected), np.signbit(got))
            # a two-mode tensor's mode-1 factor is V under the same rule
            V = Vt.T.copy()
            for c in range(V.shape[1]):
                nz = np.flatnonzero(np.abs(V[:, c]) > SIGN_PIVOT_TOL)
                if nz.size and V[nz[0], c] < 0:
                    V[:, c] = -V[:, c]
            got = _mode_factorization(lt.DenseTensor.from_array(m), 1)
            assert np.array_equal(V, got.U)
            assert np.array_equal(np.signbit(V), np.signbit(got.U))
            assert np.array_equal(s, got.s)

    @pytest.mark.parametrize("rows, cols", [(5, 40), (11, 1331), (4, 8)])
    def test_wide_matrix_matches_dense_svd(self, rows, cols):
        rng = np.random.default_rng(rows)
        left = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        right = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
        s = np.linspace(3.0, 0.5, rows)  # well separated, so U is unique up to sign
        m = left @ np.diag(s) @ right.T
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(rows))
        sigma = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(res.full_spectrum.values - sigma)) <= 1e-14 * sigma[0]
        assert np.max(np.abs(res.U - full_svd(m)[0])) <= 1e-10
        for c in range(rows):
            assert res.U[np.abs(res.U[:, c]) > SIGN_PIVOT_TOL, c][0] > 0

    @pytest.mark.parametrize("shape", [(3, 10), (5, 5), (10, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, shape, bad):
        m = np.ones(shape)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            lt.truncated_svd(m, lt.TruncationRule.fixed_rank(1))

    def test_tail_energy_rule_minimal_rank(self):
        m = np.diag([3.0, 2.0, 1.0])
        res = lt.truncated_svd(m, lt.TruncationRule.tail_energy(2.3))
        # tail at rank 1 = sqrt(5) ~ 2.236 <= 2.3
        assert res.rank == 1
        assert res.tail == pytest.approx(np.sqrt(5.0))

    def test_floor_limited_reports_achievable(self):
        m = np.diag([1.0, 1e-16])
        res = lt.truncated_svd(m, lt.TruncationRule.tail_energy(1e-18))
        assert res.floor_limited
        assert res.rank == 1
        assert res.tail == pytest.approx(1e-16)


class TestGramSpectrum:
    def test_identity(self):
        assert np.allclose(gram_spectrum(np.eye(3)).values, [1.0, 1.0, 1.0])

    def test_diag_squares(self):
        assert np.allclose(
            gram_spectrum(np.diag([3.0, 2.0, 1.0])).values, [9.0, 4.0, 1.0]
        )

    def test_matches_singular_values(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((8, 5))
        eig = gram_spectrum(m).values
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(5))
        sig = res.spectrum.values
        keep = sig > res.full_spectrum.noise_floor
        assert np.max(np.abs(np.sqrt(eig[keep]) - sig[keep]) / sig[keep]) <= 1e-10


class TestTailEnergy:
    def test_beyond_length(self):
        tails = _tails(np.array([3.0, 2.0]))
        assert len(tails) == 3 and tails[-1] == 0.0

    def test_simple(self):
        assert _tails(np.array([3.0, 2.0, 1.0]))[1] == pytest.approx(np.sqrt(5.0))

    def test_brownian_bridge_tracks_analytic_tail(self):
        m = brownian_bridge_matrix(512)
        tails = _tails(np.linalg.svd(m, compute_uv=False))
        alphas = np.arange(1, 200001)
        lam = (np.pi * alphas) ** -4.0
        for r in range(1, 9):
            analytic = np.sqrt(np.sum(lam[r:]))
            assert tails[r] == pytest.approx(analytic, rel=0.03)


@pytest.mark.parametrize("decompose", [lt.hosvd, lt.tt_svd, lt.tt_svd_bidirectional])
def test_tail_bound_is_the_root_sum_of_the_step_tails(monkeypatch, decompose):
    """A decomposition's bound is sqrt(sum of tail^2) over the tails its truncated_svd steps reported."""
    steps = []

    def recording(m, rule):
        steps.append(svd.truncated_svd(m, rule))
        return steps[-1]

    monkeypatch.setattr(tucker, "truncated_svd", recording)
    monkeypatch.setattr(train, "truncated_svd", recording)
    rng = np.random.default_rng(8)
    extents = (5, 4, 6, 3, 4)
    values = sum(0.4 ** k * np.einsum("i,j,k,l,m->ijklm", *(rng.standard_normal(n) for n in extents))
                 for k in range(6))
    t = lt.DenseTensor.from_array(values, mode_weights=[rng.random(n) + 0.1 for n in extents])
    step_count = t.ndim if decompose is lt.hosvd else t.ndim - 1
    for ranks in [lt.TruncationRule.tail_energy(0.05 * lt.frobenius_norm(t)), (1, 2, 3, 4, 2)[:step_count]]:
        steps.clear()
        d = decompose(t, ranks)
        by_spectrum = {id(step.full_spectrum): step for step in steps}
        ordered = [by_spectrum[id(sp)] for sp in getattr(d, "mode_spectra", None) or d.spectra]
        assert len(ordered) == len(steps) == len(d.ranks)
        assert [step.rank for step in ordered] == list(d.ranks)
        assert 0.0 < d.tail_bound() == math.sqrt(sum(step.tail ** 2 for step in ordered))


class TestDecayFit:
    def test_exact_power_law(self):
        alphas = np.arange(1, 61)
        sp = lt.SingularSpectrum(np.sqrt(alphas**-3.0))
        fit = lt.fit_decay_exponent(sp)
        assert fit.exponent == pytest.approx(-3.0, abs=1e-6)
        assert fit.window[0] == 2

    def test_rank_one_is_degenerate(self):
        with pytest.raises(InsufficientSpectrumError):
            lt.fit_decay_exponent(lt.SingularSpectrum(np.array([1.0])))

    def test_brownian_bridge_exponent(self):
        m = brownian_bridge_matrix(512)
        sp = lt.SingularSpectrum(np.linalg.svd(m, compute_uv=False))
        fit = lt.fit_decay_exponent(sp)
        assert fit.exponent == pytest.approx(-4.0, abs=0.3)

    def test_window_excludes_noise_floor(self):
        vals = np.concatenate([np.sqrt(np.arange(1.0, 40.0) ** -3), np.full(10, 1e-17)])
        fit = lt.fit_decay_exponent(lt.SingularSpectrum(vals), window=(2, 80))
        assert fit.window[1] <= 39


class TestProjectionTrace:
    def test_full_rank(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((5, 5))
        lhs, rhs = projection_trace_check(m, 5)
        assert lhs == pytest.approx(0.0, abs=1e-20)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_diag(self):
        lhs, rhs = projection_trace_check(np.diag([3.0, 2.0, 1.0]), 2)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_random_agreement(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((10, 7))
        lhs, rhs = projection_trace_check(m, 3)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(m) ** 2


class TestSpectrumInvariants:
    def test_transpose_has_same_spectrum(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((9, 6))
        s1 = np.linalg.svd(m, compute_uv=False)
        s2 = np.linalg.svd(m.T, compute_uv=False)
        assert np.max(np.abs(s1 - s2) / s1) <= 1e-10

    def test_eigenvalue_monotonicity_under_projection(self):
        rng = np.random.default_rng(18)
        m = rng.standard_normal((8, 8))
        lam = gram_spectrum(m.T).values  # eigenvalues of K = m m^T here
        U, _, _ = full_svd(m)
        for r in range(1, 9):
            # project the row space: K_r = P_r K P_r with P_r from an
            # arbitrary orthonormal basis, not necessarily singular vectors
            q, _ = np.linalg.qr(rng.standard_normal((8, r)))
            mr = q @ (q.T @ m)
            lam_r = gram_spectrum(mr.T).values
            assert np.all(lam_r <= lam[: len(lam_r)] + 1e-10 * lam[0])

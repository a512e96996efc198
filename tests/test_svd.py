import numpy as np
import pytest

import lrtensor as lt
from lrtensor.svd import SIGN_PIVOT_TOL, InsufficientSpectrumError, full_svd


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
            recon = res.U @ np.diag(res.spectrum.values) @ res.V.T
            err = np.linalg.norm(m - recon)
            oracle = np.sqrt(np.sum(s_o[r:] ** 2))
            assert err == pytest.approx(res.tail, rel=1e-12, abs=1e-12)
            assert err == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        res = lt.truncated_svd(
            rng.standard_normal((8, 5)), lt.TruncationRule.fixed_rank(4)
        )
        assert np.max(np.abs(res.U.T @ res.U - np.eye(4))) <= 1e-12
        assert np.max(np.abs(res.V.T @ res.V - np.eye(4))) <= 1e-12

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
        assert np.allclose(lt.gram_spectrum(np.eye(3)).values, [1.0, 1.0, 1.0])

    def test_diag_squares(self):
        assert np.allclose(
            lt.gram_spectrum(np.diag([3.0, 2.0, 1.0])).values, [9.0, 4.0, 1.0]
        )

    def test_matches_singular_values(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((8, 5))
        eig = lt.gram_spectrum(m).values
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(5))
        sig = res.spectrum.values
        keep = sig > res.full_spectrum.noise_floor
        assert np.max(np.abs(np.sqrt(eig[keep]) - sig[keep]) / sig[keep]) <= 1e-10


class TestTailEnergy:
    def test_beyond_length(self):
        assert lt.tail_energy(lt.SingularSpectrum(np.array([3.0, 2.0])), 5) == 0.0

    def test_simple(self):
        sp = lt.SingularSpectrum(np.array([3.0, 2.0, 1.0]))
        assert lt.tail_energy(sp, 1) == pytest.approx(np.sqrt(5.0))

    def test_brownian_bridge_tracks_analytic_tail(self):
        m = brownian_bridge_matrix(512)
        s = np.linalg.svd(m, compute_uv=False)
        sp = lt.SingularSpectrum(s)
        alphas = np.arange(1, 200001)
        lam = (np.pi * alphas) ** -4.0
        for r in range(1, 9):
            analytic = np.sqrt(np.sum(lam[r:]))
            assert lt.tail_energy(sp, r) == pytest.approx(analytic, rel=0.03)


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
        lhs, rhs = lt.projection_trace_check(m, 5)
        assert lhs == pytest.approx(0.0, abs=1e-20)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_diag(self):
        lhs, rhs = lt.projection_trace_check(np.diag([3.0, 2.0, 1.0]), 2)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_random_agreement(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((10, 7))
        lhs, rhs = lt.projection_trace_check(m, 3)
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
        lam = lt.gram_spectrum(m.T).values  # eigenvalues of K = m m^T here
        U, _, _ = full_svd(m)
        for r in range(1, 9):
            # project the row space: K_r = P_r K P_r with P_r from an
            # arbitrary orthonormal basis, not necessarily singular vectors
            q, _ = np.linalg.qr(rng.standard_normal((8, r)))
            mr = q @ (q.T @ m)
            lam_r = lt.gram_spectrum(mr.T).values
            assert np.all(lam_r <= lam[: len(lam_r)] + 1e-10 * lam[0])

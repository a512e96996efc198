import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lrtensor as lt
import lrtensor.svd as svd
import lrtensor.train as train
from lrtensor.svd import SIGN_PIVOT_TOL, InsufficientSpectrumError, _tails, factorize
from oracles import full_svd, gram_spectrum, projection_trace_check


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
        assert np.allclose(res.full_spectrum.values[: res.rank], [3.0, 2.0])
        assert res.tail == pytest.approx(1.0)

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        res = lt.truncated_svd(
            np.outer(u, v), lt.TruncationRule.tail_energy(1e-12 * np.linalg.norm(np.outer(u, v)))
        )
        assert res.rank == 1
        kept = res.full_spectrum.values[: res.rank]
        assert kept[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        assert res.tail <= 1e-12 * kept[0]

    def test_tail_equals_reconstruction_error_at_every_rank(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6))
        # independent dense-SVD oracle for the reconstruction error
        u_o, s_o, vt_o = np.linalg.svd(m)
        for r in range(1, 7):
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
        assert np.max(np.abs(gram - np.diag(res.full_spectrum.values[: res.rank] ** 2))) <= 1e-12 * gram[0, 0]

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
            for a in (m, m.T):
                # the mode-0 entry a build leaves in a tensor's memo is factorize() of its unfolding
                t = lt.DenseTensor(a)
                lt.tt_svd(t, [1])
                key, got = t._factorizations[("mode", 0)]
                assert key == ()
                expected = factorize(a)
                for e, value in ((expected.U, got.U), (expected.full_spectrum.values, got.full_spectrum.values)):
                    assert np.array_equal(e, value)
                    assert np.array_equal(np.signbit(e), np.signbit(value))
                U, s, _ = full_svd(a)  # the column loop on one dense SVD of a
                got_s = got.full_spectrum.values
                if a.shape[1] >= svd.WIDE_RATIO * a.shape[0]:  # reduced by a QR first: equal up to rounding
                    assert np.abs(U - got.U).max() <= 1e-12 and np.abs(s - got_s).max() <= 1e-12 * s[0]
                    continue
                assert np.array_equal(U, got.U)
                assert np.array_equal(np.signbit(U), np.signbit(got.U))
                assert np.array_equal(s, got_s)

    @pytest.mark.parametrize("rows, cols, rank, zero_rows", [
        pytest.param(5, 40, 5, 0, id="5-40"),
        pytest.param(11, 1331, 11, 0, id="11-1331"),
        pytest.param(4, 8, 4, 0, id="4-8"),
        # from here on m^T has two blocks of rows or more: a leftover of 7 rows, the mode unfolding
        # of an 11^5 grid, blocks of 4 * rows > QR_BLOCK_ROWS, a product u v^T, and rows of zeros
        pytest.param(5, 2 * svd.QR_BLOCK_ROWS + 7, 5, 0, id="5-2B+7"),
        pytest.param(11, 14641, 11, 0, id="11-14641"),
        pytest.param(300, 3000, 300, 0, id="300-3000"),
        pytest.param(7, 3 * svd.QR_BLOCK_ROWS, 1, 0, id="7-3B-rank-1"),
        pytest.param(9, 2500, 6, 3, id="9-2500-zero-rows"),
    ])
    def test_wide_matrix_matches_dense_svd(self, rows, cols, rank, zero_rows):
        rng = np.random.default_rng(rows)
        left = np.zeros((rows, rank))
        live = np.sort(rng.permutation(rows)[zero_rows:])
        left[live] = np.linalg.qr(rng.standard_normal((rows - zero_rows, rank)))[0]
        right = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
        s = np.linspace(3.0, 0.5, rank)  # well separated, so U's first `rank` columns are unique up to sign
        m = left @ np.diag(s) @ right.T
        f = factorize(m)
        res = lt.truncated_svd(f, lt.TruncationRule.fixed_rank(rows))
        assert res.rank == rank  # min(rows asked, rows values, `rank` above the noise floor)
        sigma = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(f.full_spectrum.values - sigma)) <= 1e-14 * sigma[0]
        assert np.max(np.abs(res.U - full_svd(m)[0][:, :rank])) <= 1e-10
        assert np.max(np.abs(f.U.T @ f.U - np.eye(rows))) <= 1e-12  # all of U, floor columns too
        for c in range(rows):
            assert f.U[np.abs(f.U[:, c]) > SIGN_PIVOT_TOL, c][0] > 0

    # the last shape puts the entry in m^T's leftover rows, past every whole block of the blockwise QR
    @pytest.mark.parametrize("shape", [(3, 10), (5, 5), (10, 3), (5, 2 * svd.QR_BLOCK_ROWS + 7)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, shape, bad):
        m = np.ones(shape)
        m[1, -2] = bad
        with pytest.raises(ValueError, match="finite"):
            lt.truncated_svd(m, lt.TruncationRule.fixed_rank(1))

    @pytest.mark.parametrize("use", [
        lt.hosvd, lt.tt_svd,
        lambda t, rule: lt.truncated_svd(lt.mode_unfolding(t, 0), rule),
    ])
    def test_fixed_rank_zero_is_rejected_where_it_is_made(self, use):
        t = lt.DenseTensor(np.random.default_rng(5).standard_normal((5, 4, 3)))
        with pytest.raises(ValueError, match="fixed-rank rule value must be >= 1, got 0"):
            use(t, lt.TruncationRule.fixed_rank(0))
        assert use(t, lt.TruncationRule.tail_energy(0.0)) is not None  # a zero tail stays a valid target

    @pytest.mark.parametrize("build, ranks", [(lt.hosvd, [2, 0, 1]), (lt.tt_svd, [0, 2]), (lt.tt_svd, [2, -1])])
    def test_a_rank_below_one_in_a_list_is_rejected(self, build, ranks):
        t = lt.DenseTensor(np.random.default_rng(5).standard_normal((5, 4, 3)))
        with pytest.raises(ValueError, match=r"fixed-rank rule value must be >= 1, got -?\d"):
            build(t, ranks)

    def test_tail_energy_rule_minimal_rank(self):
        m = np.diag([3.0, 2.0, 1.0])
        res = lt.truncated_svd(m, lt.TruncationRule.tail_energy(2.3))
        # tail at rank 1 = sqrt(5) ~ 2.236 <= 2.3
        assert res.rank == 1
        assert res.tail == pytest.approx(np.sqrt(5.0))

    def test_floor_limited_reports_achievable(self):
        m = np.diag([1.0, 1e-16])
        res = lt.truncated_svd(m, lt.TruncationRule.tail_energy(1e-18))
        assert res.rank == 1
        assert res.tail == pytest.approx(1e-16)


@st.composite
def _fixed_rank_cases(draw):
    """A matrix of at most 12 x 30 (wide ones reach the QR reduction), a fixed rank to keep, and an rng."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    return rows, cols, draw(st.integers(1, 40)), np.random.default_rng(draw(st.integers(0, 2 ** 16)))


class TestUsableRankCap:
    """A fixed rank r keeps min(r, usable rank): the values above 1e-13 * s_1, at least 1."""

    @settings(max_examples=60, deadline=None)
    @given(_fixed_rank_cases())
    def test_no_value_at_the_floor_keeps_min_of_rank_and_length(self, case):
        rows, cols, r, rng = case
        k = min(rows, cols)
        left = np.linalg.qr(rng.standard_normal((rows, k)))[0]
        right = np.linalg.qr(rng.standard_normal((cols, k)))[0]
        m = left @ np.diag(rng.uniform(0.5, 3.0, size=k)) @ right.T
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(r))
        assert res.full_spectrum.usable_rank() == len(res.full_spectrum) == k
        assert res.rank == min(r, k)

    @settings(max_examples=60, deadline=None)
    @given(_fixed_rank_cases(), st.data())
    def test_a_product_of_rank_q_factors_keeps_min_of_rank_and_q(self, case, data):
        rows, cols, r, rng = case
        k = min(rows, cols)
        assume(k >= 2)  # a rank below the full one
        q = data.draw(st.integers(1, k - 1))
        symmetric = data.draw(st.booleans())  # B B^T is factorized by eigh
        left = rng.standard_normal((rows, q))
        m = left @ (left.T if symmetric else rng.standard_normal((q, cols)))
        res = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(r))
        full = res.full_spectrum
        assert res.rank == min(r, q)
        if r >= q:  # only values at the floor are dropped
            assert res.tail <= math.sqrt(len(full) - q) * full.noise_floor
        assert np.linalg.norm(m - res.U @ (res.U.T @ m)) <= res.tail + 1e-12 * full.values[0]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 4), (6, 2), (3, 20)])
    @pytest.mark.parametrize("rule", [lt.TruncationRule.fixed_rank(1), lt.TruncationRule.fixed_rank(50),
                                      lt.TruncationRule.tail_energy(0.0)], ids=["r1", "r50", "tail0"])
    def test_a_zero_matrix_keeps_rank_one(self, shape, rule):
        res = lt.truncated_svd(np.zeros(shape), rule)
        assert res.full_spectrum.usable_rank() == res.rank == 1
        assert res.tail == 0.0


SPECTRA = ("separated", "graded", "clustered", "rank-deficient")


@st.composite
def tall_matrices(draw):
    """A K x n matrix of a spectrum in SPECTRA, with two or more blocks of `_r_factor`'s rows and a leftover."""
    n = draw(st.integers(1, 16))
    rows = max(svd.QR_BLOCK_ROWS, 4 * n)
    k = draw(st.integers(2, 3)) * rows + draw(st.integers(0, rows - 1))
    kind = draw(st.sampled_from(SPECTRA))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "separated":
        s = np.linspace(1.0, 0.1, n)
    elif kind == "graded":
        s = np.logspace(0, -14, n)
    elif kind == "clustered":
        s = rng.choice([1.0, 1.0 - 1e-9, 0.5], n)
    else:
        s = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.5)
    left = np.linalg.qr(rng.standard_normal((k, n)))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (left * s) @ right.T


def test_blocked_r_factor_copies_one_group_of_blocks_at_a_time(peak_bytes):
    # the transpose of the mode-0 unfolding of an 11^6 grid: 157 blocks of 1024 rows, a view of m
    m = np.random.default_rng(11).standard_normal((11, 11 ** 5))
    svd._r_factor(m[:, : 8 * svd.QR_BLOCK_ROWS].T)  # the first call's one-off allocations
    r, peak, _ = peak_bytes(lambda: svd._r_factor(m.T))
    assert r.shape == (11, 11)
    assert peak <= 0.1 * m.nbytes


@pytest.mark.parametrize("n, b", [(1, 70), (5, 30), (11, 157), (16, 9), (40, 3), (300, 2)])
def test_grouped_r_factor_equals_one_stacked_qr(n, b):
    # the R of each block of rows is computed as by one stacked QR over all blocks: R is bitwise the same
    rows = max(svd.QR_BLOCK_ROWS, 4 * n)
    mt = np.random.default_rng(n).standard_normal((n, b * rows + 3)).T
    r = np.linalg.qr(mt[: b * rows].reshape(b, rows, n), mode="r").reshape(b * n, n)
    assert np.array_equal(svd._r_factor(mt), np.linalg.qr(np.concatenate([r, mt[b * rows :]]), mode="r"))


@settings(max_examples=60, deadline=None)
@given(tall_matrices())
def test_blocked_r_factor_matches_one_qr(a):
    """The blockwise R and the R of one QR have equal singular values and right vectors at clear gaps."""
    blocked, whole = svd._r_factor(a), np.linalg.qr(a, mode="r")
    assert blocked.shape == whole.shape
    assert np.array_equal(blocked, np.triu(blocked))
    _, s, vt = np.linalg.svd(blocked)
    _, s_whole, vt_whole = np.linalg.svd(whole)
    assert np.abs(s - s_whole).max() <= 1e-13 * s_whole[0]
    for r in range(1, len(s) + 1):
        if r == len(s) or s_whole[r - 1] - s_whole[r] > 0.05 * s_whole[0]:  # a clear gap: one projector
            P, P_whole = vt[:r].T @ vt[:r], vt_whole[:r].T @ vt_whole[:r]
            assert np.abs(P - P_whole).max() <= 1e-10


@pytest.fixture
def solver_calls(monkeypatch):
    """(name, matrix) of each np.linalg svd, eigh, eigvalsh and qr call; a values-only SVD is named "svd values"."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append(("svd values" if kwargs.get("compute_uv") is False else _name, a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def test_spectrum_solves_the_matrix_factorize_solves(solver_calls):
    rng = np.random.default_rng(8)
    square = rng.standard_normal((9, 9))
    cases = {"wide": rng.standard_normal((6, 40)), "tall": rng.standard_normal((40, 6)),
             "square": square, "symmetric": square + square.T}
    values_only = {"svd": "svd values", "eigh": "eigvalsh"}
    for case, m in cases.items():
        solver_calls.clear()
        factorized = factorize(m).full_spectrum.values
        *reduced, (name, solved) = solver_calls
        solver_calls.clear()
        values = svd.spectrum(m).values
        *spectrum_reduced, (spectrum_name, spectrum_solved) = solver_calls
        # one dispatch: the same QR reduction, then the values-only twin of the same solver on a bitwise equal matrix
        assert [n for n, _ in reduced] == [n for n, _ in spectrum_reduced] == (["qr"] if case == "wide" else []), case
        assert spectrum_name == values_only[name], case
        assert np.array_equal(spectrum_solved, solved), case
        # the values-only LAPACK routines round differently from those that also compute vectors
        assert np.abs(values - factorized).max() <= 1e-14 * factorized[0], case


def test_a_wide_spectrum_takes_the_blockwise_qr_reduction(solver_calls):
    # the mode-0 unfolding of an 8^6 grid: 32 blocks of 1024 rows of its transpose, no SVD of all 32768 columns
    m = np.random.default_rng(9).standard_normal((8, 8 ** 5))
    svd.spectrum(m)
    shapes = [(name, np.shape(a)) for name, a in solver_calls]
    assert shapes[-1] == ("svd values", (8, 8))
    assert {name for name, _ in shapes[:-1]} == {"qr"}
    assert all(shape[-2] < 8 ** 5 for _, shape in shapes), shapes


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
        sig = res.full_spectrum.values[: res.rank]
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


@pytest.mark.parametrize("decompose", [lt.hosvd, lt.tt_svd])
def test_tail_bound_is_the_root_sum_of_the_step_tails(monkeypatch, decompose):
    """A decomposition's bound is sqrt(sum of tail^2) over the tails its truncated_svd steps reported."""
    steps = []

    def recording(m, rule):
        steps.append(svd.truncated_svd(m, rule))
        return steps[-1]

    monkeypatch.setattr(train, "truncated_svd", recording)  # the one step loop, Tucker's too
    rng = np.random.default_rng(8)
    extents = (5, 4, 6, 3, 4)
    values = sum(0.4 ** k * np.einsum("i,j,k,l,m->ijklm", *(rng.standard_normal(n) for n in extents))
                 for k in range(6))
    t = lt.DenseTensor(values, mode_weights=[rng.random(n) + 0.1 for n in extents])
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

"""A two-mode tensor whose weighted matrix equals its transpose is factorized by `eigh`.

For a symmetric A = QΛQ^T the singular values are |λ|, U is Q ordered by
descending |λ|, and V = U sign(Λ). So the matrix of Tucker's second step,
A^T U_r = U_r Λ_r, needs no solver: its Factorization is mode 0's cut to
r. These tests hold `svd.factorize`'s `eigh` path and that cut to dense
SVDs of the same matrices (the `full_svd` oracle), and check that
weighting keeps every registered kernel's sample bitwise symmetric.
The projections are read off the signed eigenvalues too: Tucker's core is
diag(λ) cut to (r0, r1) and a two-mode TT's last core is Λ_r U_r^T. These
are held to a reference that multiplies U_0^T A U_1 out.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
from lrtensor import svd
from lrtensor.core import _scale_by_weights
from lrtensor.grids import RULE_GAUSS, RULE_TRAPEZOID
from lrtensor.svd import SIGN_PIVOT_TOL, _tails, factorize, spectrum
from oracles import full_svd, mode_unfolding

KINDS = ("spd", "indefinite", "rank-deficient", "plus-minus-pairs", "repeated")


@st.composite
def symmetric_matrices(draw):
    """A bitwise-symmetric Q diag(λ) Q^T of one of KINDS, |λ| in [0.1, 1] or 0."""
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    mags = rng.uniform(0.1, 1.0, n)
    signs = rng.choice([-1.0, 1.0], n)
    if kind == "spd":
        lam = mags
    elif kind == "indefinite":
        lam = signs * mags
    elif kind == "rank-deficient":
        lam = signs * mags
        lam[rng.permutation(n)[: n // 2]] = 0.0
    elif kind == "plus-minus-pairs":
        half = mags[: (n + 1) // 2]
        lam = np.concatenate([half, -half])[:n]
    else:
        lam = signs * rng.choice(mags[:2], n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * lam) @ Q.T
    return (A + A.T) / 2


def _sign_loop(U):
    """The column loop of the sign convention: each column's first entry above the pivot tolerance is positive."""
    U = U.copy()
    for c in range(U.shape[1]):
        nz = np.flatnonzero(np.abs(U[:, c]) > SIGN_PIVOT_TOL)
        if nz.size and U[nz[0], c] < 0:
            U[:, c] = -U[:, c]
    return U


def _check_against_full_svd(A):
    assert np.array_equal(A, A.T)
    t = lt.DenseTensor(A)
    lt.tt_svd(t, [1])
    key, f = t._factorizations[("mode", 0)]  # the entry a build leaves: factorize() of the mode-0 unfolding
    assert key == ()
    U_svd, s, _ = full_svd(A)
    s1 = s[0]
    assert np.abs(f.full_spectrum.values - s).max() <= 1e-13 * s1
    assert np.abs(spectrum(A).values - s).max() <= 1e-13 * s1

    lam, Q = np.linalg.eigh(A)
    order = np.argsort(-np.abs(lam), kind="stable")
    expected = _sign_loop(Q[:, order])
    for got in (f, factorize(A)):  # the memo's entry and the one factorization routine
        assert np.array_equal(got.U, expected)
        assert np.array_equal(np.signbit(got.U), np.signbit(expected))
        assert np.array_equal(got.full_spectrum.values, np.abs(lam[order]))
    assert np.allclose(f.U.T @ f.U, np.eye(len(s)), atol=1e-12)

    s_f = f.full_spectrum.values
    tails = _tails(s)
    tolerances = [0.0, 2.0 * tails[0]] + [
        (tails[r] + tails[r + 1]) / 2 for r in range(len(s)) if tails[r] - tails[r + 1] > 1e-6 * s1
    ]
    rules = [lt.TruncationRule.tail_energy(tol) for tol in tolerances]
    rules += [lt.TruncationRule.fixed_rank(r) for r in range(1, len(s) + 2)]
    norm = np.linalg.norm(A)
    for rule in rules:
        by_eigh, by_svd = lt.truncated_svd(f, rule), lt.truncated_svd(A, rule)
        assert by_eigh.rank == by_svd.rank
        r = by_eigh.rank
        if r == len(s) or s[r - 1] - s[r] > 0.05 * s1:  # a clear gap: one projector
            P_eigh, P_svd = by_eigh.U @ by_eigh.U.T, U_svd[:, :r] @ U_svd[:, :r].T
            assert np.abs(P_eigh - P_svd).max() <= 1e-10
        d = lt.hosvd(t, rule)
        assert lt.tucker_error(t, d) <= d.tail_bound() + 1e-10 * norm
        # mode 1 is mode 0 cut to the rank kept: the spectrum and left vectors of A^T U_r, to rounding
        r0, r1 = d.ranks
        assert np.array_equal(d.factors[0], f.U[:, :r0]) and np.array_equal(d.mode_spectra[0].values, s_f)
        assert np.array_equal(d.factors[1], d.factors[0][:, :r1])
        assert np.array_equal(d.mode_spectra[1].values, d.mode_spectra[0].values[:r0])
        U_r, s_r, _ = full_svd(A.T @ f.U[:, :r0])
        assert np.abs(s_r - s_f[:r0]).max() <= 1e-13 * s1
        cut = np.append(s_f[:r0], 0.0)
        if cut[r1 - 1] - cut[r1] > 0.05 * s1:  # a clear gap: one projector
            assert np.abs(U_r[:, :r1] @ U_r[:, :r1].T - d.factors[1] @ d.factors[1].T).max() <= 1e-10
        d = lt.tt_svd(t, rule)
        assert lt.tt_error(t, d) <= d.tail_bound() + 1e-10 * norm
        assert set(t._factorizations) == {("mode", 0)}  # the cut takes no entry


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices())
def test_symmetric_path_matches_full_svd(A):
    _check_against_full_svd(A)


def _abs_diff(n):
    x = np.linspace(0.0, 1.0, n)
    return np.abs(x[:, None] - x[None, :])


FIXED = {
    "identity": np.eye(5),
    "zeros": np.zeros((4, 4)),
    "ones": np.ones((3, 3)),
    "plus-minus-diagonal": np.diag([-2.0, 2.0, 1.0, -1.0, 0.0]),
    "abs-diff": _abs_diff(17),
    "hilbert": 1.0 / (np.arange(1, 9)[:, None] + np.arange(8)[None, :]),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_symmetric_matrices_match_full_svd(name):
    _check_against_full_svd(FIXED[name])


def test_ties_keep_eigh_order():
    t = lt.DenseTensor(np.diag([-2.0, 2.0, 1.0]))
    f = factorize(mode_unfolding(t, 0))
    assert np.array_equal(f.full_spectrum.values, [2.0, 2.0, 1.0])
    assert np.array_equal(f.U, np.eye(3))


KERNELS = {
    "brownian_bridge": (lt.make_function("brownian_bridge"), (1, 1), 17),
    "abs_diff": (lt.make_function("abs_diff"), (1, 1), 17),
    "gauss_kernel-n1": (lt.make_function("gauss_kernel", n=1, c=2.0), (1, 1), 17),
    "gauss_kernel-n2": (lt.make_function("gauss_kernel", n=2, c=2.0), (2, 2), 5),
    # grids sampled in several runs of the first axis, the last one partial (see `grids.sample`)
    "brownian_bridge-runs": (lt.make_function("brownian_bridge"), (1, 1), 700),
    "abs_diff-runs": (lt.make_function("abs_diff"), (1, 1), 1000),
    "gauss_kernel-n1-runs": (lt.make_function("gauss_kernel", n=1, c=2.0), (1, 1), 600),
    "gauss_kernel-n2-runs": (lt.make_function("gauss_kernel", n=2, c=2.0), (2, 2), 29),
}


@pytest.mark.parametrize("rule", [RULE_TRAPEZOID, RULE_GAUSS])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_samples_stay_bitwise_symmetric(kernel, rule):
    fn, dims, n = KERNELS[kernel]
    t = lt.sample(fn, lt.GridSpec(n, rule))
    A = t.weighted_values()
    assert np.array_equal(t.values, t.values.T)
    assert np.array_equal(A, A.T)
    # the one outer product moves each entry by a few ulp from scaling one mode after the other
    s0, s1 = (np.sqrt(w) for w in t.mode_weights)
    per_mode = t.values * s0[:, None] * s1[None, :]
    assert np.all(np.abs(A - per_mode) <= 4 * np.finfo(float).eps * np.abs(per_mode))
    assert np.array_equal(_scale_by_weights(A, t.mode_weights, -0.5), A / np.multiply.outer(s0, s1))


def test_brownian_bridge_spectrum_tracks_its_eigenvalues():
    """The Brownian bridge covariance has eigenvalues (πα)^-2: the symmetric path resolves the first 20 and their decay."""
    t = lt.sample(lt.make_function("brownian_bridge"), lt.GridSpec(512))
    A = mode_unfolding(t, 0)
    assert np.array_equal(A, A.T)
    alpha = np.arange(1, 21)
    spec = spectrum(A)
    assert np.abs(spec.values[:20] / (np.pi * alpha) ** -2.0 - 1.0).max() <= 0.02
    assert lt.fit_decay_exponent(spec).exponent == pytest.approx(-4.0, abs=0.3)


def _eigen(A):
    """The signed eigenvalues and eigenvectors of a symmetric A from one `eigh`, ordered and signed as `factorize`'s."""
    lam, Q = np.linalg.eigh(A)
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], _sign_loop(Q[:, order])


def _reference(A, lam, U, ranks):
    """Test-side sequentially truncated HOSVD of a symmetric A = U diag(lam) U^T: factors and spectra read
    off `_eigen`, the core multiplied out as U_0^T A U_1."""
    rules = [ranks] * 2 if isinstance(ranks, lt.TruncationRule) else [lt.TruncationRule.fixed_rank(r) for r in ranks]
    spectra = [lt.SingularSpectrum(np.abs(lam))]
    r0 = lt.truncated_svd(lt.Factorization(U, spectra[0]), rules[0]).rank
    spectra.append(lt.SingularSpectrum(np.abs(lam[:r0])))  # of A^T U_r0 = U_r0 Λ_r0
    r1 = lt.truncated_svd(lt.Factorization(U[:, :r0], spectra[1]), rules[1]).rank
    core = U[:, :r0].T @ A @ U[:, :r1]
    return lt.TuckerDecomposition(core, (U[:, :r0], U[:, :r1]), tuple(spectra))


def _check_projections_read_off_eigh(t):
    """hosvd's core is exactly diag(λ) cut to (r0, r1), and a two-mode TT's last core exactly Λ_r U_r^T;
    ranks, spectra and bounds equal the reference's, and each error is within 1e-13 ||A|| of its product form."""
    A = t.weighted_values()
    norm = np.linalg.norm(A)
    lam, U = _eigen(A)
    rules = [lt.TruncationRule.tail_energy(1e-3 * norm), lt.TruncationRule.tail_energy(0.0)]
    for ranks in [A.shape, (3, 2), (2, 5)] + rules:  # full, r1 < r0, r1 capped at r0, and two tolerances
        ref = _reference(A, lam, U, ranks)
        d = lt.hosvd(t, ranks)
        r0, r1 = d.ranks
        assert d.ranks == ref.ranks
        for got, want in zip(d.mode_spectra, ref.mode_spectra, strict=True):
            assert np.array_equal(got.values, want.values)
        assert d.tail_bound() == ref.tail_bound()
        for got, want in zip(d.factors, ref.factors, strict=True):
            assert np.array_equal(got, want)
        diagonal = np.zeros((r0, r1))
        diagonal[np.arange(r1), np.arange(r1)] = lam[:r1]
        assert np.array_equal(d.core, diagonal)
        error = lt.tucker_error(t, d)
        assert error <= d.tail_bound() + 1e-10 * norm
        assert abs(error - lt.tucker_error(t, ref)) <= 1e-13 * norm

        tt = lt.tt_svd(t, ranks if isinstance(ranks, lt.TruncationRule) else ranks[:1])
        (r,) = tt.ranks
        assert r == r0 and np.array_equal(tt.cores[0][0], U[:, :r])
        assert np.array_equal(tt.cores[1][:, :, 0], lam[:r, None] * U[:, :r].T)
        product = lt.TTDecomposition((tt.cores[0], (U[:, :r].T @ A)[:, :, None]), tt.spectra)
        error = lt.tt_error(t, tt)
        assert error <= tt.tail_bound() + 1e-10 * norm
        assert abs(error - lt.tt_error(t, product)) <= 1e-13 * norm


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices())
def test_projections_of_symmetric_matrices_are_read_off_eigh(A):
    _check_projections_read_off_eigh(lt.DenseTensor(A))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_projections_of_kernel_samples_are_read_off_eigh(kernel):
    fn, dims, n = KERNELS[kernel]
    _check_projections_read_off_eigh(lt.sample(fn, lt.GridSpec(n)))


@pytest.fixture
def symmetry_decisions(monkeypatch):
    """The shapes `svd._symmetric` is asked about, in order, through any module of the package that holds it."""
    asked, original = [], svd._symmetric
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lrtensor" and getattr(module, "_symmetric", None) is original:
            monkeypatch.setattr(module, "_symmetric", lambda m: asked.append(m.shape) or original(m))
    return asked


@pytest.mark.parametrize("kernel", sorted(k for k in KERNELS if not k.endswith("-runs")))
def test_two_mode_symmetric_hosvd_decides_symmetry_once(kernel, symmetry_decisions):
    fn, dims, n = KERNELS[kernel]
    t = lt.sample(fn, lt.GridSpec(n))
    symmetry_decisions.clear()
    lt.hosvd(t, lt.TruncationRule.tail_energy(1e-6 * lt.frobenius_norm(t)))
    assert symmetry_decisions == [t.shape]  # mode 0's, in `factorize`; mode 1 is its cut
    lt.tt_svd(t, [3])
    assert symmetry_decisions == [t.shape]  # TT's one step is mode 0's memo entry


def test_two_mode_hosvd_decides_symmetry_once_per_factorized_step(symmetry_decisions):
    t = lt.DenseTensor(np.random.default_rng(6).standard_normal((6, 6)))
    lt.hosvd(t, [3, 2])
    assert symmetry_decisions == [(6, 6), (6, 3)]  # not symmetric: mode 1's A^T U_r is factorized too


B = svd.SYMMETRY_BLOCK
SIDES = [1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 37]  # below the block, equal to it, and multiples or not of it


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(SIDES), seed=st.integers(0, 2 ** 16), data=st.data())
def test_blockwise_symmetry_test_agrees_with_array_equal(n, seed, data):
    a = np.random.default_rng(seed).standard_normal((n, n))
    a += a.T
    assert svd._symmetric(a) is np.array_equal(a, a.T) is True
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    a[i, j] += 1.0
    assert svd._symmetric(a) is np.array_equal(a, a.T) is (i == j)


# where: the entry of an n x n matrix that is perturbed, from its last index
PERTURBED = {
    "top-right": lambda last: (0, last),
    "bottom-left": lambda last: (last, 0),
    "diagonal": lambda last: (last, last),
    "last-block": lambda last: (last // B * B, last),
}


@pytest.mark.parametrize("n", SIDES)
@pytest.mark.parametrize("where", sorted(PERTURBED))
def test_blockwise_symmetry_test_sees_one_perturbed_entry(n, where):
    a = np.add.outer(np.arange(n), np.arange(n)).astype(float)
    i, j = PERTURBED[where](n - 1)
    a[i, j] = -1.0
    assert svd._symmetric(a) is np.array_equal(a, a.T) is (i == j)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 2), (B, B + 1), (2 * B + 37, B)])
def test_blockwise_symmetry_test_of_a_non_square_or_empty_matrix(shape):
    a = np.zeros(shape)
    assert svd._symmetric(a) is np.array_equal(a, a.T)

"""A two-mode tensor whose weighted matrix equals its transpose is factorized by `eigh`.

For a symmetric A = QΛQ^T the singular values are |λ|, U is Q ordered by
descending |λ|, and V = U sign(Λ), so after the sign convention both
Tucker factors are one Factorization. These tests hold that path to
`full_svd` on the same matrix, and check that weighting keeps every
registered kernel's sample bitwise symmetric.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
from lrtensor.core import _scale_by_weights
from lrtensor.grids import RULE_GAUSS, RULE_TRAPEZOID
from lrtensor.svd import SIGN_PIVOT_TOL, _mode_factorization, _tails, full_svd, spectrum

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
    t = lt.DenseTensor.from_array(A)
    f = _mode_factorization(t, 0)
    assert _mode_factorization(t, 1) is f
    U_svd, s, _ = full_svd(A)
    s1 = s[0]
    assert np.abs(f.s - s).max() <= 1e-13 * s1
    assert np.abs(spectrum(A).values - s).max() <= 1e-13 * s1

    lam, Q = np.linalg.eigh(A)
    expected = _sign_loop(Q[:, np.argsort(-np.abs(lam), kind="stable")])
    assert np.array_equal(f.U, expected)
    assert np.array_equal(np.signbit(f.U), np.signbit(expected))
    assert np.allclose(f.U.T @ f.U, np.eye(len(s)), atol=1e-12)

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
        d = lt.tt_svd(t, rule)
        assert lt.tt_error(t, d) <= d.tail_bound() + 1e-10 * norm


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
    f = _mode_factorization(lt.DenseTensor.from_array(np.diag([-2.0, 2.0, 1.0])), 0)
    assert np.array_equal(f.s, [2.0, 2.0, 1.0])
    assert np.array_equal(f.U, np.eye(3))


KERNELS = {
    "brownian_bridge": (lt.make_function("brownian_bridge"), (1, 1), 17),
    "abs_diff": (lt.make_function("abs_diff"), (1, 1), 17),
    "gauss_kernel-n1": (lt.make_function("gauss_kernel", n=1, c=2.0), (1, 1), 17),
    "gauss_kernel-n2": (lt.make_function("gauss_kernel", n=2, c=2.0), (2, 2), 5),
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
    A = lt.mode_unfolding(t, 0)
    assert np.array_equal(A, A.T)
    alpha = np.arange(1, 21)
    spec = spectrum(A)
    assert np.abs(spec.values[:20] / (np.pi * alpha) ** -2.0 - 1.0).max() <= 0.02
    assert lt.fit_decay_exponent(spec).exponent == pytest.approx(-4.0, abs=0.3)

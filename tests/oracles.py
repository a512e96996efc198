"""Independent test oracles: for the SVD layer, a sign-fixed dense SVD, the Gram spectrum, a direct
tail sum and the projection trace identity; for Tucker, classical HOSVD and the matrices of the
sequentially truncated one, by einsum and dense SVDs; for the errors, Tucker and TT
reconstructions each by one einsum."""

from string import ascii_lowercase, ascii_uppercase
from typing import Tuple

import numpy as np

from lrtensor.core import ShapeMismatchError
from lrtensor.svd import SIGN_PIVOT_TOL, SingularSpectrum


def full_svd(m: np.ndarray):
    """U, s, V^T of one dense SVD of m, in the sign convention of every factor, by a column loop.

    Each column of U whose first entry above SIGN_PIVOT_TOL is negative is
    negated, and so is the matching row of V^T.
    """
    U, s, Vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
    for c in range(U.shape[1]):
        nz = np.flatnonzero(np.abs(U[:, c]) > SIGN_PIVOT_TOL)
        if nz.size and U[nz[0], c] < 0:
            U[:, c] = -U[:, c]
            Vt[c, :] = -Vt[c, :]
    return U, s, Vt


def gram_spectrum(m: np.ndarray) -> SingularSpectrum:
    """Eigenvalues of m^T m, descending and clipped at zero.

    Independent oracle for the squared singular values: sqrt of these
    must match the singular values of `m` on the non-noise range.
    """
    m = np.asarray(m, dtype=float)
    eig = np.linalg.eigvalsh(m.T @ m)[::-1]
    return SingularSpectrum(np.maximum(eig, 0.0))


def tail_energy(spectrum: SingularSpectrum, r: int) -> float:
    """sqrt(sum of squared singular values beyond rank r), summed directly."""
    return float(np.sqrt(np.sum(spectrum.values[r:] ** 2)))


def projection_trace_check(m: np.ndarray, r: int) -> Tuple[float, float]:
    """Both sides of the projection trace identity.

    lhs: squared Frobenius error of projecting onto the top-r left
    singular vectors. rhs: trace of the Gram matrix minus trace of the
    projected Gram matrix. The two agree to rounding.
    """
    m = np.asarray(m, dtype=float)
    if not 1 <= r <= m.shape[0]:
        raise ValueError(f"rank {r} out of range for {m.shape[0]} rows")
    U, _, _ = full_svd(m)
    Ur = U[:, :r]
    pm = Ur @ (Ur.T @ m)
    lhs = float(np.linalg.norm(m - pm) ** 2)
    rhs = float(np.trace(m.T @ m) - np.trace(pm.T @ pm))
    return lhs, rhs


def tucker_reconstruction(core: np.ndarray, factors) -> np.ndarray:
    """The core with factor j applied to its mode j, for every j, in weighted coordinates.

    One einsum: core index a_j and factor j's (n_j, a_j) give output index n_j.
    """
    ranks, extents = ascii_lowercase[: len(factors)], ascii_uppercase[: len(factors)]
    spec = ",".join([ranks, *(n + a for n, a in zip(extents, ranks))]) + "->" + extents
    return np.einsum(spec, core, *factors)


def tt_reconstruction(cores) -> np.ndarray:
    """The chain of order-3 TT cores summed over every bond, in weighted coordinates.

    One einsum: core j is (b_j, n_j, b_{j+1}); the boundary bonds have extent 1, so
    summing them out only drops them.
    """
    bonds, extents = ascii_lowercase[: len(cores) + 1], ascii_uppercase[: len(cores)]
    spec = ",".join(bonds[j] + extents[j] + bonds[j + 1] for j in range(len(cores))) + "->" + extents
    return np.einsum(spec, *cores)


def project(a: np.ndarray, factors) -> np.ndarray:
    """`a` with each mode i < len(factors) multiplied by factors[i]^T, by one einsum.

    Factor i is (n_i, r_i), so mode i of the result has extent r_i; the other modes are kept.
    """
    m, k = a.ndim, len(factors)
    extents, ranks = ascii_uppercase[:m], ascii_lowercase[:k]
    spec = ",".join([extents, *(n + r for n, r in zip(extents, ranks))]) + "->" + ranks + extents[k:]
    return np.einsum(spec, a, *factors)


def unfolding(a: np.ndarray, j: int) -> np.ndarray:
    """The mode-j unfolding of `a`: mode j against all the others, in their order."""
    return np.moveaxis(a, j, 0).reshape(a.shape[j], -1)


def mode_unfolding(t, mode: int) -> np.ndarray:
    """The mode-`mode` unfolding of a DenseTensor `t`, weights absorbed; another mode raises ShapeMismatchError."""
    if not 0 <= mode < t.ndim:
        raise ShapeMismatchError(f"mode {mode} out of range 0..{t.ndim - 1}")
    return unfolding(t.weighted_values(), mode)


def classical_hosvd(a: np.ndarray, ranks):
    """Classical truncated HOSVD of the (weighted) array `a`, as (core, factors, spectra).

    Factor j holds the leading left singular vectors of the full mode-j
    unfolding of `a`, at most r_j of them, from one dense SVD each; spectrum j
    is all of that unfolding's singular values. The core is `a` projected onto
    every factor.
    """
    factors, spectra = [], []
    for j, r in enumerate(ranks):
        U, s, _ = full_svd(unfolding(a, j))
        factors.append(U[:, :r])
        spectra.append(s)
    return project(a, factors), factors, spectra


def sequential_matrix(a: np.ndarray, factors, j: int) -> np.ndarray:
    """The matrix that sequentially truncated HOSVD factorizes at mode j, given its factors of modes 0..j-1.

    It is the mode-j unfolding of `a` projected onto those factors; its
    columns are in another order than the program's, which leaves its left
    singular vectors and values unchanged.
    """
    return unfolding(project(a, factors[:j]), j)

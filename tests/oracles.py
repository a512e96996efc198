"""Independent test oracles for the SVD layer: the Gram spectrum, a direct tail sum and the projection trace identity."""

from typing import Tuple

import numpy as np

from lrtensor.svd import SingularSpectrum, full_svd


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

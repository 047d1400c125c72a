"""Dense complex Hermitian kernel: eigendecomposition, spectral functions, isometry completion.

Everything downstream (states, channels, measures, dilations) is built on the
four operations here.  Their thresholds come from :mod:`qfilter.tolerances`.
The Hermitian functions take one matrix or a stack of shape (..., n, n);
every check then runs across the whole stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tolerances import EIGENVALUE_CLAMP, HERMITICITY_TOL, ISOMETRY_TOL, ZERO_EIGENVALUE_TRIM


class Spectrum(NamedTuple):
    """Eigendecomposition A = U diag(w) U† with w real ascending and U unitary."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _any(mask) -> bool:
    """mask.any(), skipping the reduction (about 1 us) when mask holds a single value."""
    return bool(mask if mask.size == 1 else mask.any())


def asymmetry(A: np.ndarray) -> float:
    """Max elementwise deviation from Hermiticity, max|A - A†|, over the whole stack."""
    A = np.asarray(A)
    return float(np.abs(A - A.conj().swapaxes(-1, -2)).max())


def require_hermitian(A) -> np.ndarray:
    """Return A as a complex array, raising if it is not a (stack of) square Hermitian matrices.

    Hermitian means max|A - A†| <= HERMITICITY_TOL.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    dev = asymmetry(A)
    if not dev <= HERMITICITY_TOL:  # a non-finite entry makes dev inf or NaN
        if not np.isfinite(A).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError(
            f"matrix is not Hermitian: max|A - A†| = {dev:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return A


def hermitian_eig(H) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (or stack), eigenvalues ascending."""
    H = require_hermitian(H)
    w, U = np.linalg.eigh(H)
    return Spectrum(w, U)


def psd_sqrt(A) -> np.ndarray:
    """Square root U sqrt(L) U† of a Hermitian PSD matrix (or stack) A = U L U†.

    Eigenvalues in [-EIGENVALUE_CLAMP, 0) are treated as round-off and
    clamped to zero; anything more negative, in any matrix of a stack,
    raises.  Eigenvalues at or below ZERO_EIGENVALUE_TRIM are zeroed as well.
    """
    w, U = hermitian_eig(A)
    if w.size and _any(w[..., 0] < -EIGENVALUE_CLAMP):
        raise ValueError(
            "matrix is not positive semidefinite: "
            f"eigenvalue {w[..., 0].min():.3e} < -{EIGENVALUE_CLAMP:.1e}"
        )
    w = np.where(w <= ZERO_EIGENVALUE_TRIM, 0.0, w)
    s = np.sqrt(w)
    return (U * s[..., None, :]) @ U.conj().swapaxes(-1, -2)


def trace_abs(A) -> float | np.ndarray:
    """Trace norm tr|A| of a Hermitian matrix (or stack): sum of absolute eigenvalues."""
    A = require_hermitian(A)
    d = np.abs(np.linalg.eigvalsh(A)).sum(axis=-1)
    return d if d.ndim else d.item()


def complete_isometry(V) -> np.ndarray:
    """Extend an isometry V (shape (d*n, n), max|V†V - I| <= ISOMETRY_TOL) to a full unitary.

    The first n columns of the result are V exactly as given; the remaining
    columns are an orthonormal basis of the orthogonal complement of col(V),
    obtained from a complete QR factorization (deterministic).
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[0] < V.shape[1]:
        raise ValueError(f"expected a tall matrix, got shape {V.shape}")
    rows, n = V.shape
    dev = float(np.abs(V.conj().T @ V - np.eye(n)).max())
    if dev > ISOMETRY_TOL:
        raise ValueError(f"not an isometry: max|V†V - I| = {dev:.3e} exceeds {ISOMETRY_TOL:.1e}")
    if rows == n:
        return V.copy()
    Q = np.linalg.qr(V, mode="complete")[0]
    return np.hstack([V, Q[:, n:]])

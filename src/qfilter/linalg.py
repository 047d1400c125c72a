"""Dense complex Hermitian kernel: eigendecomposition and spectral functions.

Everything downstream (states, channels, measures, the proof replay) is built
on the three operations here.  Their thresholds come from :mod:`qfilter.tolerances`.
The Hermitian functions take one matrix or a stack of shape (..., n, n);
every check then runs across the whole stack.
"""

from __future__ import annotations

import numpy as np

from .tolerances import EIGENVALUE_CLAMP, HERMITICITY_TOL, ZERO_EIGENVALUE_TRIM


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


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """(w, U) with H = U diag(w) U† for a Hermitian matrix (or stack), w real ascending, U unitary."""
    H = require_hermitian(H)
    return np.linalg.eigh(H)


def psd_sqrt(A) -> np.ndarray:
    """Square root U sqrt(L) U† of a Hermitian PSD matrix (or stack) A = U L U†.

    Eigenvalues in [-EIGENVALUE_CLAMP, 0) are treated as round-off and
    clamped to zero; anything more negative, in any matrix of a stack,
    raises.  Eigenvalues at or below ZERO_EIGENVALUE_TRIM are zeroed as well.
    """
    factor, U = _psd_factor(A)
    return factor @ U.conj().swapaxes(-1, -2)


def _psd_factor(A, name=None) -> tuple[np.ndarray, np.ndarray]:
    """(U sqrt(L), U) for A = U L U†: a square factor F with F F† = A, and its basis.

    The eigendecomposition, PSD check and trim of :func:`psd_sqrt`, which
    is this factor times U†.  Eigenvalues trimmed to zero leave zero columns.
    The PSD error gives the lowest eigenvalue of the stack and, when `name`
    is given, name(index) of the matrix that has it.
    """
    w, U = hermitian_eig(A)
    if w.size and _any(w[..., 0] < -EIGENVALUE_CLAMP):
        low = w[..., 0]
        i = np.unravel_index(low.argmin(), low.shape)
        message = f"matrix is not positive semidefinite: eigenvalue {low[i]:.3e} < -{EIGENVALUE_CLAMP:.1e}"
        raise ValueError(message if name is None else f"{message} ({name(i)})")
    w = np.where(w <= ZERO_EIGENVALUE_TRIM, 0.0, w)
    s = np.sqrt(w)
    return U * s[..., None, :], U


def trace_abs(A) -> float | np.ndarray:
    """Trace norm tr|A| of a Hermitian matrix (or stack): sum of absolute eigenvalues."""
    A = require_hermitian(A)
    d = np.abs(np.linalg.eigvalsh(A)).sum(axis=-1)
    return d if d.ndim else d.item()


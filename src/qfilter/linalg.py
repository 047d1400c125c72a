"""Dense complex Hermitian kernel: eigendecomposition and spectral functions.

Everything downstream (states, channels, measures, the proof replay) is built
on the operations here.  Their thresholds come from :mod:`qfilter.tolerances`.
The Hermitian functions take one matrix or a stack of shape (..., n, n);
every check then runs across the whole stack, and an error names the
failing matrix (``sigma``, ``rho of instance 3``, else "matrix").  The
public functions test their input; :func:`_psd_factor` trusts it.
"""

from __future__ import annotations

import numpy as np

from .tolerances import EIGENVALUE_CLAMP, HERMITICITY_TOL, ZERO_EIGENVALUE_TRIM


def _any(mask) -> bool:
    """mask.any(), skipping the reduction (about 1 us) when mask holds a single value."""
    return bool(mask if mask.size == 1 else mask.any())


def _label(name, index) -> str:
    """What an error calls the matrix at `index` of a stack: "matrix", the string `name`, name[index[0]] or name(index)."""
    if name is None or isinstance(name, str):
        return name or "matrix"
    return name[index[0]] if isinstance(name, tuple) else name(index)


def asymmetry(A: np.ndarray) -> float:
    """Max elementwise deviation from Hermiticity, max|A - A†|, over the whole stack."""
    A = np.asarray(A)
    return float(np.abs(A - A.conj().swapaxes(-1, -2)).max())


def require_hermitian(A, name=None) -> np.ndarray:
    """Return A as a complex array, raising if it is not a (stack of) square, finite, Hermitian matrices.

    Hermitian means max|A - A†| <= HERMITICITY_TOL.  An error names the
    failing matrix by :func:`_label`.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    dev = asymmetry(A)
    if not dev <= HERMITICITY_TOL:  # a non-finite entry makes dev inf or NaN; find the matrix only now
        finite = np.isfinite(A).all(axis=(-2, -1))
        dev = np.where(finite, np.abs(A - A.conj().swapaxes(-1, -2)).max(axis=(-2, -1)), np.inf)
        i = np.unravel_index(dev.argmax(), dev.shape)
        fault = f"is not Hermitian: max|A - A†| = {dev[i]:.3e} exceeds {HERMITICITY_TOL:.1e}"
        raise ValueError(f"{_label(name, i)} {fault if finite[i] else 'has non-finite entries'}")
    return A


def _require_psd(w: np.ndarray, name=None) -> None:
    """The PSD test on ascending eigenvalues w (..., n): the lowest of the stack below -EIGENVALUE_CLAMP
    raises, naming its matrix by :func:`_label`."""
    if w.size and _any(w[..., 0] < -EIGENVALUE_CLAMP):
        low = w[..., 0]
        i = np.unravel_index(low.argmin(), low.shape)
        raise ValueError(
            f"{_label(name, i)} is not positive semidefinite: eigenvalue {low[i]:.3e} < -{EIGENVALUE_CLAMP:.1e}"
        )


def hermitian_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """(w, U) with H = U diag(w) U† for a Hermitian matrix (or stack), w real ascending, U unitary."""
    return np.linalg.eigh(require_hermitian(H))


def psd_sqrt(A) -> np.ndarray:
    """Square root U sqrt(L) U† of a Hermitian PSD matrix (or stack) A = U L U†.

    Eigenvalues in [-EIGENVALUE_CLAMP, 0) are treated as round-off and
    clamped to zero; anything more negative, in any matrix of a stack,
    raises.  Eigenvalues at or below ZERO_EIGENVALUE_TRIM are zeroed as well.
    """
    factor, U = _psd_factor(require_hermitian(A))
    return factor @ U.conj().swapaxes(-1, -2)


def _psd_factor(A: np.ndarray, name=None) -> tuple[np.ndarray, np.ndarray]:
    """(U sqrt(L), U) for A = U L U†: a square factor F with F F† = A, and its basis.

    The eigendecomposition, PSD test (:func:`_require_psd`) and trim of
    :func:`psd_sqrt`, which is this factor times U†, on a complex Hermitian
    A its caller has tested.  Eigenvalues trimmed to zero leave zero columns.
    """
    w, U = np.linalg.eigh(A)
    _require_psd(w, name)
    w = np.where(w <= ZERO_EIGENVALUE_TRIM, 0.0, w)
    s = np.sqrt(w)
    return U * s[..., None, :], U


def trace_abs(A) -> float | np.ndarray:
    """Trace norm tr|A| of a Hermitian matrix (or stack): sum of absolute eigenvalues."""
    d = np.abs(np.linalg.eigvalsh(require_hermitian(A))).sum(axis=-1)
    return d if d.ndim else d.item()

"""Density matrices: validation, standard and random states, JSON encoding.

States are plain numpy arrays: a density matrix is a Hermitian PSD complex
array with unit trace.  :func:`make_density` is the validating constructor.

Tensor convention, used consistently across the package: in a composite
A (x) B the FIRST factor's index varies fastest, i.e. the basis vector
|a, b> sits at flat index ``a + dim_a * b`` (``np.kron(b, a)``).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .tolerances import EIGENVALUE_CLAMP, HERMITICITY_TOL, TRACE_TOL


def make_density(M) -> np.ndarray:
    """Validate M as a density matrix and return it as a complex array.

    Raises ValueError with a distinct message for each failure mode:
    non-square/non-finite input, non-Hermitian (HERMITICITY_TOL), trace away
    from one (TRACE_TOL), or an eigenvalue below -EIGENVALUE_CLAMP.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("density matrix has non-finite entries")
    dev = linalg.asymmetry(M)
    if dev > HERMITICITY_TOL:
        raise ValueError(
            f"density matrix is not Hermitian: max|M - M†| = {dev:.3e}"
        )
    tr = complex(np.trace(M))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr:.12g}")
    w = np.linalg.eigvalsh(M)
    if w[0] < -EIGENVALUE_CLAMP:
        raise ValueError(
            f"density matrix is not positive semidefinite: eigenvalue {w[0]:.3e}"
        )
    return M


def maximally_mixed(n: int) -> np.ndarray:
    """The maximally mixed state I/n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return np.eye(n, dtype=complex) / n


def random_density(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-`rank` density matrix, G G† / tr(G G†) with G complex Ginibre n x rank."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    G = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def matrix_to_dict(M) -> dict:
    """JSON-compatible encoding {"dim": n, "re": [[...]], "im": [[...]]}, row-major."""
    M = np.asarray(M, dtype=complex)
    return {"dim": M.shape[0], "re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_dict(d: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_dict`."""
    M = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    n = int(d["dim"])
    if M.shape != (n, n):
        raise ValueError(f"matrix dict declares dim {n} but entries have shape {M.shape}")
    return M

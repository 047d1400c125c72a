"""Comparison functionals between density matrices.

Fidelity uses the "physical" (squared) convention
F(sigma, rho) = (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, so F = tr(rho sigma)
whenever one argument is pure.  The trace distance is the un-normalized
tr|sigma - rho| by default; pass normalized=True for the 1/2-weighted
convention (under which D = sqrt(1 - F) for pure states).

Fidelity, trace distance and the Frobenius inner product also take two
equal-shape stacks (..., n, n) and return one value per pair; a single pair
of matrices returns a float.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .tolerances import FIDELITY_OVERSHOOT, SUPPORT_TOL


def fidelity(sigma, rho) -> float | np.ndarray:
    """F(sigma, rho) = (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, in [0, 1].

    Evaluated through the equivalent trace norm (sum of singular values)
    of sqrt(sigma) sqrt(rho): round-off enters the singular values linearly,
    where an eigenvalue route would amplify it under the final square root.
    Symmetric in its arguments; overshoot beyond the bounds is clamped (at
    most FIDELITY_OVERSHOOT is tolerated, in every pair of a stack).
    """
    sigma, rho = _check_pair(sigma, rho)
    cross = linalg.psd_sqrt(sigma) @ linalg.psd_sqrt(rho)
    val = np.linalg.svd(cross, compute_uv=False).sum(axis=-1) ** 2
    out_of_range = (val > 1.0 + FIDELITY_OVERSHOOT) | (val < -FIDELITY_OVERSHOOT)
    if linalg._any(out_of_range):
        bad = float(np.extract(out_of_range, val)[0])
        raise ValueError(f"fidelity {bad!r} out of [0, 1] beyond round-off; invalid inputs?")
    return val.clip(0.0, 1.0) if val.ndim else min(max(val.item(), 0.0), 1.0)


def trace_distance(sigma, rho, normalized: bool = False) -> float | np.ndarray:
    """tr|sigma - rho|, or half of it with normalized=True."""
    sigma, rho = _check_pair(sigma, rho)
    d = linalg.trace_abs(sigma - rho)
    return d / 2 if normalized else d


def frobenius_inner(sigma, rho) -> float | np.ndarray:
    """Frobenius inner product tr(rho sigma), real for Hermitian arguments."""
    sigma, rho = _check_pair(sigma, rho)
    f = (rho @ sigma).trace(0, -2, -1).real
    return f if f.ndim else f.item()


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma), natural log.

    Returns math.inf when rho has support outside the support of sigma
    (eigenvalues of sigma at or below SUPPORT_TOL count as kernel).
    """
    rho, sigma = _check_pair(rho, sigma)
    if rho.ndim != 2:
        raise ValueError(f"relative entropy takes two matrices, not stacks of shape {rho.shape}")
    wr = np.linalg.eigvalsh(linalg.require_hermitian(rho))
    wr = np.clip(wr, 0.0, None)
    entropy = float(np.sum(wr[wr > 0.0] * np.log(wr[wr > 0.0])))

    ws, Us = linalg.hermitian_eig(sigma)
    # weight of rho along each eigenvector of sigma
    r = np.einsum("ij,jk,ki->i", Us.conj().T, rho, Us).real
    r = np.clip(r, 0.0, None)
    kernel = ws <= SUPPORT_TOL
    if float(r[kernel].sum()) > SUPPORT_TOL:
        return math.inf
    cross = float(np.sum(r[~kernel] * np.log(ws[~kernel])))
    return entropy - cross


def purity(rho) -> float:
    """tr(rho^2); 1 for pure states, 1/n for the maximally mixed state."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected two square matrices of equal shape, got {a.shape} and {b.shape}")
    return a, b

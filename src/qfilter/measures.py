"""Comparison functionals between density matrices.

Fidelity uses the "physical" (squared) convention
F(sigma, rho) = (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, so F = tr(rho sigma)
whenever one argument is pure.  The trace distance is the un-normalized
tr|sigma - rho| by default; pass normalized=True for the 1/2-weighted
convention (under which D = sqrt(1 - F) for pure states).

Fidelity, trace distance, the Frobenius inner product and the relative
entropy also take two equal-shape stacks (..., n, n) and return one value
per pair (purity one value per state); a single pair of matrices returns a
float.

The measures are matrix functionals: they check their arguments' shapes,
and the eigendecomposition routes that the matrices are finite and
Hermitian, not their trace or PSD; an error names the argument.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .states import _shaped
from .tolerances import FIDELITY_OVERSHOOT, SUPPORT_TOL


def fidelity(sigma, rho) -> float | np.ndarray:
    """F(sigma, rho) = (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2, in [0, 1].

    Evaluated through the equivalent trace norm (sum of singular values)
    of sqrt(sigma) sqrt(rho): round-off enters the singular values linearly,
    where an eigenvalue route would amplify it under the final square root.
    Symmetric in its arguments; overshoot beyond the bounds is clamped (at
    most FIDELITY_OVERSHOOT is tolerated, in every pair of a stack).
    """
    sigma, rho = _shaped({"sigma": sigma, "rho": rho}, stack=True)
    return _fidelity_of_cross(_naming(lambda: linalg.psd_sqrt(sigma) @ linalg.psd_sqrt(rho), sigma=sigma, rho=rho))


def _fidelity_of_cross(cross: np.ndarray) -> float | np.ndarray:
    """F = (tr|cross|)^2 for cross = A† B, where A A† = sigma and B B† = rho.

    Any factors give the same trace norm: psd_sqrt(sigma) @ psd_sqrt(rho) in
    :func:`fidelity`, and L_sigma† L_rho for the simulation engine's and the
    proof replay's factors.
    The overshoot check and the clamp are those of :func:`fidelity`.
    """
    val = np.linalg.svd(cross, compute_uv=False).sum(axis=-1) ** 2
    out_of_range = (val > 1.0 + FIDELITY_OVERSHOOT) | (val < -FIDELITY_OVERSHOOT)
    if linalg._any(out_of_range):
        bad = float(np.extract(out_of_range, val)[0])
        raise ValueError(f"fidelity {bad!r} out of [0, 1] beyond round-off; invalid inputs?")
    return val.clip(0.0, 1.0) if val.ndim else min(max(val.item(), 0.0), 1.0)


def trace_distance(sigma, rho, normalized: bool = False) -> float | np.ndarray:
    """tr|sigma - rho|, or half of it with normalized=True."""
    sigma, rho = _shaped({"sigma": sigma, "rho": rho}, stack=True)
    d = _naming(lambda: linalg.trace_abs(sigma - rho), sigma=sigma, rho=rho)
    return d / 2 if normalized else d


def frobenius_inner(sigma, rho) -> float | np.ndarray:
    """Frobenius inner product tr(rho sigma), real for Hermitian arguments."""
    sigma, rho = _shaped({"sigma": sigma, "rho": rho}, stack=True)
    f = (rho @ sigma).trace(0, -2, -1).real
    return f if f.ndim else f.item()


def relative_entropy(rho, sigma) -> float | np.ndarray:
    """S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma), natural log.

    Gives math.inf when rho has support outside the support of sigma
    (eigenvalues of sigma at or below SUPPORT_TOL count as kernel); in a
    stack the rule applies per pair, so only such pairs read inf.
    """
    rho, sigma = _shaped({"rho": rho, "sigma": sigma}, stack=True)
    wr = np.clip(np.linalg.eigvalsh(linalg.require_hermitian(rho, "rho")), 0.0, None)
    positive = wr > 0.0
    entropy = np.where(positive, wr * np.log(np.where(positive, wr, 1.0)), 0.0).sum(axis=-1)

    ws, Us = np.linalg.eigh(linalg.require_hermitian(sigma, "sigma"))
    # weight of rho along each eigenvector of sigma
    r = np.einsum("...ji,...jk,...ki->...i", Us.conj(), rho, Us).real
    r = np.clip(r, 0.0, None)
    kernel = ws <= SUPPORT_TOL
    outside = np.where(kernel, r, 0.0).sum(axis=-1) > SUPPORT_TOL
    cross = np.where(kernel, 0.0, r * np.log(np.where(kernel, 1.0, ws))).sum(axis=-1)
    val = np.where(outside, math.inf, entropy - cross)
    return val if val.ndim else val.item()


def purity(rho) -> float | np.ndarray:
    """tr(rho^2); 1 for pure states, 1/n for the maximally mixed state.

    A stack (..., n, n) gives one value per state.
    """
    (rho,) = _shaped({"rho": rho}, stack=True)
    p = (rho @ rho).trace(0, -2, -1).real
    return p if p.ndim else p.item()


def _naming(route, **states):
    """route(), whose ValueError becomes the first named state's own when it is not finite and Hermitian: found
    on the failure path only, as the route tests what it is handed (two square roots, one difference)."""
    try:
        return route()
    except ValueError:
        for name, state in states.items():
            linalg.require_hermitian(state, name)
        raise

"""Density matrices: validation, standard and random states, JSON encoding.

States are plain numpy arrays: a density matrix is a Hermitian PSD complex
array with unit trace.  :func:`make_density` is the validating constructor,
and :func:`_density` the package's one full check of named states: the
shape (:func:`_shaped`, the one shape check), finite and Hermitian
(``linalg.require_hermitian``), unit trace (:func:`_require_unit_trace`), and
PSD (``linalg._require_psd``).
Random states come from one stacked product (:func:`_ginibre_densities`),
which builds a single one alike.

Tensor convention, used consistently across the package: in a composite
A (x) B the FIRST factor's index varies fastest, i.e. the basis vector
|a, b> sits at flat index ``a + dim_a * b`` (``np.kron(b, a)``).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .tolerances import TRACE_TOL


def make_density(M) -> np.ndarray:
    """Validate M as a density matrix and return it as a complex array.

    Raises ValueError with a distinct message for each failure mode:
    non-square/non-finite input, non-Hermitian (HERMITICITY_TOL), trace away
    from one (TRACE_TOL), or an eigenvalue below -EIGENVALUE_CLAMP.
    """
    return _density({"density matrix": M})[0]


def _shaped(states: dict, n: int | None = None, stack: bool = False) -> list:
    """The named states as complex arrays, each (n, n), or (..., n, n) with `stack`; with n None the first
    must be square and the others of its shape.  A ValueError names the first that does not fit."""
    out = [np.asarray(state, dtype=complex) for state in states.values()]
    first = out[0].shape
    k = n if n is not None else first[-1] if first else -1
    want = (first[:-2] if stack else ()) + (k, k)  # the first state's leading axes, for a stack
    for name, state in zip(states, out):
        if state.shape != want:
            if n is not None:
                expected = f"({'..., ' * stack}{n}, {n}) for the channel"
            else:  # the first state must be square (or a stack of them), the others of its shape
                expected = f"the shape of {next(iter(states))}, {first}" if state is not out[0] else "a square matrix" + " or a stack" * stack
            raise ValueError(f"{name} has shape {state.shape}, expected {expected}")
    return out


def _density(states: dict, n: int | None = None, stack: bool = False, psd: bool = True) -> list:
    """:func:`_shaped`, then the states, stacked, finite and Hermitian, of trace one within TRACE_TOL and, with `psd`,
    PSD by one eigvalsh; a caller that factors the states passes psd=False and tests the factor.  Errors name the state."""
    out = _shaped(states, n, stack)
    M, name = (out[0], next(iter(states))) if len(out) == 1 else (np.array(out), tuple(states))
    linalg.require_hermitian(M, name)
    _require_unit_trace(M, name)
    if psd:
        linalg._require_psd(np.linalg.eigvalsh(M), name)
    return out


def _require_unit_trace(M: np.ndarray, name=None) -> None:
    """The trace test of :func:`_density` on a stack M: a trace off one by more than TRACE_TOL raises,
    naming the first such matrix by ``linalg._label``."""
    tr = M.trace(0, -2, -1).real
    off = abs(tr - 1.0) > TRACE_TOL
    if linalg._any(off):
        i = np.unravel_index(off.argmax(), off.shape)
        raise ValueError(f"{linalg._label(name, i)} has trace {tr[i]:.12g}, not 1")


def maximally_mixed(n: int) -> np.ndarray:
    """The maximally mixed state I/n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return np.eye(n, dtype=complex) / n


def random_density(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-`rank` density matrix, G G† / tr(G G†) with G complex Ginibre n x rank.

    The real parts of G are drawn first, then the imaginary parts, and the state is
    :func:`_ginibre_densities` on the one matrix.  ``verify.random_instances`` builds
    its states after all its draws, one product per rank (a sweep once per (n, m)),
    and each state gets the bits this function gives on its generator.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    return _ginibre_densities(rng.standard_normal((2, n, rank)))


def _ginibre_densities(X: np.ndarray) -> np.ndarray:
    """The states G G† / tr of draws X (..., 2, n, rank), G = X[..., 0, :, :] + i X[..., 1, :, :]: one product
    for a stack, each slice its own, so a state gets the same bits in any stack and alone."""
    G = X[..., 0, :, :] + 1j * X[..., 1, :, :]
    rho = G @ G.conj().swapaxes(-1, -2)
    return rho / rho.trace(0, -2, -1).real[..., None, None]


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

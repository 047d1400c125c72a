"""Density matrices: validation, standard and random states, JSON encoding.

States are plain numpy arrays: a density matrix is a Hermitian PSD complex
array with unit trace.  :func:`make_density` is the validating constructor,
and :func:`_density` the package's one full check of named states: the
shape (:func:`_shaped`, the one shape check), finite and Hermitian
(``linalg.require_hermitian``), unit trace, and PSD (``linalg._require_psd``).

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
    tr = M.trace(0, -2, -1).real
    off = abs(tr - 1.0) > TRACE_TOL
    if linalg._any(off):
        i = np.unravel_index(off.argmax(), off.shape)
        raise ValueError(f"{linalg._label(name, i)} has trace {tr[i]:.12g}, not 1")
    if psd:
        linalg._require_psd(np.linalg.eigvalsh(M), name)
    return out


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

"""Environment model, Uhlmann-aligned purifications, and the proof replay.

A channel with m Kraus operators on C^n dilates to a unitary U on the
composite S (x) E (E = C^m) with U(|phi> (x) |e0>) = sum_mu (M_mu|phi>) (x) |mu>.
Everything here uses the package tensor layout: S index fastest, then Q
(the purification copy of S), then E, so a composite operator is
np.kron(op_E, np.kron(op_Q, op_S)) and the stacked Kraus isometry occupies
the first n columns of U verbatim.  A vector on S (x) Q (x) E is therefore
an (m, n, n) array indexed [E, Q, S].

Only the first n columns of U act on |e0>, so lifting a purification psi
with amplitude matrix A[s, q] through U (x) I_Q gives, per outcome mu, just
M_mu A: :meth:`Dilation.lift` computes these m blocks from the Kraus stack
recovered from U, and the dense U (x) I_Q of side n^2 m is never built.

:func:`replay_proof` reruns, numerically, the inequality chain that makes
the one-step fidelity gain nonnegative:

  (a) block norms of the lifted state reproduce the jump probabilities,
  (b) normalized block projections purify the conditional updates,
  (c) per-block fidelity dominates the per-block purification overlap,
  (d) the probability-weighted overlap sum dominates the total overlap
      (Cauchy-Schwarz),
  (e) the total overlap equals the fidelity of the input pair (Uhlmann).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, measures
from .channels import (
    KrausChannel,
    OutcomePartition,
    conditional_update,
    outcome_probs,
    singleton_partition,
)
from .states import make_density
from .tolerances import GAP_TOL, OVERLAP_TOL, UNITARY_TOL, ZERO_PROB_TOL


@dataclass(frozen=True)
class Dilation:
    """Unitary environment model of a channel on S (x) E, S index fastest."""

    dim: int  # n
    env_dim: int  # m
    unitary: np.ndarray  # (n m, n m)
    reference: np.ndarray  # |e0> in E

    def projector(self, mu: int) -> np.ndarray:
        """Orthogonal projector onto S (x) span|mu>."""
        if not 0 <= mu < self.env_dim:
            raise ValueError(f"outcome {mu} out of range for env_dim {self.env_dim}")
        e = np.zeros((self.env_dim, self.env_dim))
        e[mu, mu] = 1.0
        return np.kron(e, np.eye(self.dim)).astype(complex)

    def recovered_operators(self) -> np.ndarray:
        """The Kraus stack (I (x) <mu|) U (I (x) |e0>), shape (m, n, n)."""
        n = self.dim
        return self.unitary[:, :n].reshape(self.env_dim, n, n)

    def lift(self, psi: np.ndarray) -> np.ndarray:
        """(U (x) I_Q)(|e0> (x) psi) for psi on S (x) Q, as amplitudes [E, Q, S].

        With A[s, q] the amplitude matrix of psi, the outcome-mu slice is
        (M_mu A)^T, so the lift costs O(m n^3) time and O(m n^2) memory.
        """
        n = self.dim
        amp = np.asarray(psi).reshape(n, n).T
        return (self.recovered_operators() @ amp).swapaxes(1, 2)


def stinespring(ch: KrausChannel) -> Dilation:
    """Dilation of a channel: stack the Kraus operators into an isometry and
    complete it to a unitary (checked to UNITARY_TOL); |e0> is the first
    basis vector of E."""
    n, m = ch.dim, ch.num_outcomes
    V = np.ascontiguousarray(ch.operators).reshape(m * n, n)
    U = linalg.complete_isometry(V)
    dev = float(np.abs(U.conj().T @ U - np.eye(m * n)).max())
    if dev > UNITARY_TOL:
        raise RuntimeError(f"isometry completion lost unitarity: {dev:.3e}")
    e0 = np.zeros(m, dtype=complex)
    e0[0] = 1.0
    return Dilation(n, m, U, e0)


def uhlmann_pair(sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """Purifications (psi_sigma, psi_rho) on S (x) Q with maximal overlap.

    Aligned through the singular decomposition of sqrt(sigma) sqrt(rho), so
    |<psi_sigma|psi_rho>|^2 equals the fidelity of the pair.
    """
    sigma = make_density(sigma)
    rho = make_density(rho)
    if sigma.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {sigma.shape} vs {rho.shape}")
    sqrt_sigma = linalg.psd_sqrt(sigma)
    sqrt_rho = linalg.psd_sqrt(rho)
    P, _, Qh = np.linalg.svd(sqrt_sigma @ sqrt_rho)
    amp_sigma = sqrt_sigma @ P  # amp[s, q]: amplitudes on S (x) Q
    amp_rho = sqrt_rho @ Qh.conj().T
    return amp_sigma.ravel(order="F"), amp_rho.ravel(order="F")


@dataclass(frozen=True)
class BlockReplay:
    """Per-block numbers of the proof chain.

    overlap is |<chi_hat_nu|chi_nu>|^2, defined only when both states give
    the block positive probability; fidelity compares the conditional
    updates, with the xi substitution (flagged) when sigma's side vanishes.
    """

    block: int
    probability: float  # p_nu(rho)
    probability_estimate: float  # p_nu(sigma)
    overlap: float | None
    fidelity: float | None
    used_fallback: bool


@dataclass
class ProofReplayReport:
    overlap_initial: float
    blocks: list[BlockReplay]
    cauchy_schwarz_lhs: float
    cauchy_schwarz_rhs: float
    fidelity_current: float
    expected_next_fidelity: float
    link_residuals: dict[str, float]
    links_hold: dict[str, bool]
    all_links_hold: bool
    fallback_blocks: tuple[int, ...]
    # the checked dilation the replay lifted through; not written by to_dict
    dilation: Dilation = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "overlap_initial": self.overlap_initial,
            "fidelity_current": self.fidelity_current,
            "expected_next_fidelity": self.expected_next_fidelity,
            "cauchy_schwarz": {
                "lhs": self.cauchy_schwarz_lhs,
                "rhs": self.cauchy_schwarz_rhs,
            },
            "blocks": [
                {
                    "block": b.block,
                    "probability": b.probability,
                    "probability_estimate": b.probability_estimate,
                    "overlap": b.overlap,
                    "fidelity": b.fidelity,
                    "used_fallback": b.used_fallback,
                }
                for b in self.blocks
            ],
            # a vacuous residual (inf: no block entered link (c)) has no JSON number
            "link_residuals": {
                k: v if math.isfinite(v) else None for k, v in self.link_residuals.items()
            },
            "links_hold": dict(self.links_hold),
            "all_links_hold": self.all_links_hold,
            "fallback_blocks": list(self.fallback_blocks),
        }


def replay_proof(
    ch: KrausChannel,
    sigma,
    rho,
    partition: OutcomePartition | None = None,
    link_tol: float = GAP_TOL,
) -> ProofReplayReport:
    """Numerically replay the lifted one-step argument for one instance.

    Builds the Uhlmann pair, lifts each purification with
    :meth:`Dilation.lift` (the (m, n, n) stack M_mu A; no operator on
    S (x) Q (x) E is formed), takes each outcome block as a slice of it, and
    checks links (a)-(e); see the module docstring.  Links (a)-(d) hold
    within `link_tol`, the identity (e) within OVERLAP_TOL.  Blocks where
    sigma's probability vanishes take the xi route and are flagged rather
    than entering the per-block overlap checks.  The report keeps the
    dilation it built.
    """
    sigma = make_density(sigma)
    rho = make_density(rho)
    n, m = ch.dim, ch.num_outcomes
    if sigma.shape != (n, n):
        raise ValueError(f"state dim {sigma.shape} does not match channel dim {n}")
    if partition is None:
        partition = singleton_partition(m)

    dil = stinespring(ch)
    psi_sigma, psi_rho = uhlmann_pair(sigma, rho)
    overlap_initial = float(abs(np.vdot(psi_sigma, psi_rho)) ** 2)

    chi = dil.lift(psi_rho)
    chi_hat = dil.lift(psi_sigma)
    overlap_lifted = float(abs(np.vdot(chi_hat, chi)) ** 2)

    probs_rho = outcome_probs(ch, rho, partition)
    probs_sigma = outcome_probs(ch, sigma, partition)
    fidelity_current = measures.fidelity(sigma, rho)

    res_a = 0.0
    res_b = 0.0
    margin_c = math.inf
    cs_lhs = 0.0
    expected_next = 0.0
    blocks: list[BlockReplay] = []
    fallback_blocks: list[int] = []

    for nu, block in enumerate(partition.blocks):
        proj_chi = chi[list(block)]
        proj_chi_hat = chi_hat[list(block)]
        norm2 = float(np.vdot(proj_chi, proj_chi).real)
        res_a = max(res_a, abs(norm2 - probs_rho[nu]))

        p_rho = float(probs_rho[nu])
        p_sigma = float(probs_sigma[nu])
        overlap_nu: float | None = None
        fidelity_nu: float | None = None
        used_fb = False
        if p_rho > ZERO_PROB_TOL:
            chi_nu = proj_chi / math.sqrt(norm2)
            update_rho, _ = conditional_update(ch, nu, rho, partition)
            res_b = max(res_b, float(np.abs(_reduce_to_s(chi_nu) - update_rho).max()))
            update_sigma, used_fb = conditional_update(ch, nu, sigma, partition)
            if used_fb:
                fallback_blocks.append(nu)
            fidelity_nu = measures.fidelity(update_sigma, update_rho)
            expected_next += p_rho * fidelity_nu
            if p_sigma > ZERO_PROB_TOL:
                norm2_hat = float(np.vdot(proj_chi_hat, proj_chi_hat).real)
                chi_hat_nu = proj_chi_hat / math.sqrt(norm2_hat)
                res_b = max(
                    res_b,
                    float(np.abs(_reduce_to_s(chi_hat_nu) - update_sigma).max()),
                )
                overlap_nu = float(abs(np.vdot(chi_hat_nu, chi_nu)) ** 2)
                margin_c = min(margin_c, fidelity_nu - overlap_nu)
                cs_lhs += p_rho * overlap_nu
        blocks.append(BlockReplay(nu, p_rho, p_sigma, overlap_nu, fidelity_nu, used_fb))

    residuals = {
        "a_block_norms": float(res_a),
        "b_purifications": float(res_b),
        "c_uhlmann_margin": float(margin_c),
        "d_cauchy_schwarz": float(cs_lhs - overlap_lifted),
        "e_overlap_vs_fidelity": float(abs(overlap_lifted - fidelity_current)),
    }
    holds = {
        "a_block_norms": bool(res_a <= link_tol),
        "b_purifications": bool(res_b <= link_tol),
        "c_uhlmann_margin": bool(margin_c >= -link_tol),
        "d_cauchy_schwarz": bool(cs_lhs - overlap_lifted >= -link_tol),
        "e_overlap_vs_fidelity": bool(abs(overlap_lifted - fidelity_current) <= OVERLAP_TOL),
    }
    return ProofReplayReport(
        overlap_initial=overlap_initial,
        blocks=blocks,
        cauchy_schwarz_lhs=cs_lhs,
        cauchy_schwarz_rhs=overlap_lifted,
        fidelity_current=fidelity_current,
        expected_next_fidelity=expected_next,
        link_residuals=residuals,
        links_hold=holds,
        all_links_hold=all(holds.values()),
        fallback_blocks=tuple(fallback_blocks),
        dilation=dil,
    )


def _reduce_to_s(chi: np.ndarray) -> np.ndarray:
    """Partial trace over Q (x) E of the state with amplitudes chi[e, q, s]."""
    return np.einsum("eqs,eqt->st", chi, chi.conj())

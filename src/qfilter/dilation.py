"""Environment model, Uhlmann-aligned purifications, and the proof replay.

A channel with m Kraus operators on C^n has the Stinespring isometry
V|phi> = sum_mu (M_mu|phi>) (x) |mu> from S into S (x) E (E = C^m): the
Kraus stack itself, an (m n, n) matrix with V†V = I.  Everything here uses
the package tensor layout: S index fastest, then Q (the purification copy
of S), then E, so a vector on S (x) Q (x) E is an (m, n, n) array indexed
[E, Q, S].

Lifting a purification psi with amplitude matrix A[s, q] through V (x) I_Q
gives, per outcome mu, just M_mu A.  The replay computes these m blocks
from the channel's Kraus stack; the dense V (x) I_Q of side n^2 m is never
built.  ``qfilter dilate --output`` records V as the channel's Kraus stack.

:func:`replay_proof` reruns, numerically, the inequality chain that makes
the one-step fidelity gain nonnegative:

  (a) block norms of the lifted state reproduce the jump probabilities,
  (b) normalized block projections purify the conditional updates,
  (c) per-block fidelity dominates the per-block purification overlap,
  (d) the probability-weighted overlap sum dominates the total overlap
      (Cauchy-Schwarz),
  (e) the total overlap equals the fidelity of the input pair (Uhlmann).

The jump probabilities p_nu(rho), the conditional updates, their
fidelities, the current fidelity and the expected next fidelity are read
from the exact one-step pass of :mod:`qfilter.verify`, the one the fidelity
gap report reads, so the replayed chain sums the very numbers the checked
gap sums.  The pass also gives p_nu(sigma), checked as p_nu(rho) is.  The
links read per-outcome quantities of the two (m, n, n) lifts: their
reductions to S (whose traces are the squared norms), one batched matrix
product, and their inner products, one einsum, summed into blocks with the
package's one block sum, ``channels._block_sums``; no loop runs over the
blocks.  Both purifications come from one stacked square root, so a replay
makes three stacked eigendecomposition calls: this one and the fidelity's
two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import KrausChannel, OutcomePartition, _block_sums
from .states import make_density
from .tolerances import GAP_TOL, OVERLAP_TOL, ZERO_PROB_TOL
from .verify import _one_step


def uhlmann_pair(sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """Purifications (psi_sigma, psi_rho) on S (x) Q with maximal overlap.

    Aligned through the singular decomposition of sqrt(sigma) sqrt(rho), so
    |<psi_sigma|psi_rho>|^2 equals the fidelity of the pair.
    """
    sigma = make_density(sigma)
    rho = make_density(rho)
    if sigma.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {sigma.shape} vs {rho.shape}")
    sqrt_sigma, sqrt_rho = linalg.psd_sqrt(np.stack([sigma, rho]))
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

    Builds the Uhlmann pair, lifts each purification straight from the
    Kraus stack as M_mu A (:func:`_lift`; no operator on S (x) Q (x) E is
    built), runs the one-step pass for the
    fidelity with no fallback, and checks links (a)-(e); see the module
    docstring.  Links (a)-(d) hold within `link_tol`, the identity (e)
    within OVERLAP_TOL.  Blocks where sigma's probability vanishes take the
    xi route and are flagged rather than entering the per-block overlap
    checks.
    """
    psi_sigma, psi_rho = uhlmann_pair(sigma, rho)  # validates both states
    overlap_initial = float(abs(np.vdot(psi_sigma, psi_rho)) ** 2)

    [step], _ = _one_step(ch.operators[None], [sigma], [rho], "fidelity", [partition])
    probs_rho, probs_sigma, kept = step.probs, step.probs_sigma, step.kept

    # per outcome mu: the lifts' reductions to S and the inner products <chi_hat_mu|chi_mu>
    lifts = np.stack([_lift(ch.operators, psi_sigma), _lift(ch.operators, psi_rho)])
    reduced = _reduce(lifts)
    inner = np.einsum("eqs,eqs->e", lifts[0].conj(), lifts[1])
    overlap_lifted = float(abs(inner.sum()) ** 2)
    norms = _block_sums(np.trace(reduced, axis1=-2, axis2=-1).real, partition)  # (2, blocks): sigma's, rho's
    block_reduced = _block_sums(reduced, partition, axis=-3)[:, kept]

    # (b) for rho on every kept block; (c), (d) and sigma's (b) where sigma's block is live too
    live = probs_sigma[kept] > ZERO_PROB_TOL
    both = kept[live]
    res_a = float(np.abs(norms[1] - probs_rho).max())
    res_b = float(np.abs(block_reduced[1] / norms[1, kept, None, None] - step.rho_next).max())
    if both.size:
        sigma_red = block_reduced[0, live] / norms[0, both, None, None]
        res_b = max(res_b, float(np.abs(sigma_red - step.sigma_next[live]).max()))
    overlaps = np.abs(_block_sums(inner, partition)[both]) ** 2 / (norms[0, both] * norms[1, both])
    margin_c = float((step.values[live] - overlaps).min()) if both.size else math.inf
    cs_lhs = float(sum(probs_rho[both] * overlaps))
    res_d = cs_lhs - overlap_lifted
    res_e = abs(overlap_lifted - step.rhs)

    fidelity_of = dict(zip(kept.tolist(), step.values.tolist()))
    overlap_of = dict(zip(both.tolist(), overlaps.tolist()))
    fallback_blocks = step.fallback_blocks
    blocks = [
        BlockReplay(nu, p, q, overlap_of.get(nu), fidelity_of.get(nu), nu in fallback_blocks)
        for nu, (p, q) in enumerate(zip(probs_rho.tolist(), probs_sigma.tolist()))
    ]
    residuals = {
        "a_block_norms": res_a,
        "b_purifications": res_b,
        "c_uhlmann_margin": margin_c,
        "d_cauchy_schwarz": res_d,
        "e_overlap_vs_fidelity": res_e,
    }
    holds = {
        "a_block_norms": res_a <= link_tol,
        "b_purifications": res_b <= link_tol,
        "c_uhlmann_margin": margin_c >= -link_tol,
        "d_cauchy_schwarz": res_d >= -link_tol,
        "e_overlap_vs_fidelity": res_e <= OVERLAP_TOL,
    }
    return ProofReplayReport(
        overlap_initial=overlap_initial,
        blocks=blocks,
        cauchy_schwarz_lhs=cs_lhs,
        cauchy_schwarz_rhs=overlap_lifted,
        fidelity_current=step.rhs,
        expected_next_fidelity=step.lhs,
        link_residuals=residuals,
        links_hold=holds,
        all_links_hold=all(holds.values()),
        fallback_blocks=fallback_blocks,
    )


def _lift(operators: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(V (x) I_Q) psi for psi on S (x) Q, as amplitudes [E, Q, S].

    `operators` is the (m, n, n) Kraus stack, the isometry V.
    With A[s, q] the amplitude matrix of psi, the outcome-mu slice is
    (M_mu A)^T, so the lift costs O(m n^3) time and O(m n^2) memory.
    """
    n = operators.shape[1]
    amp = np.asarray(psi).reshape(n, n).T
    return (operators @ amp).swapaxes(1, 2)


def _reduce(lifts: np.ndarray) -> np.ndarray:
    """The reductions to S, tr_Q |chi_mu><chi_mu|, of each outcome slice of [..., E, Q, S] lifts.

    One batched product per slice, A^T conj(A) for the (Q, S) amplitudes A:
    O(m n^3) per lift, shape (..., m, n, n).
    """
    return lifts.swapaxes(-1, -2) @ lifts.conj()

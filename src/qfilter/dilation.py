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

The jump probabilities p_nu(rho) and p_nu(sigma), the dense conditional
updates (read by link (b) only) and the fallback flags come from the exact
one-step pass the fidelity gap report reads (``channels._kept_blocks``).
The fidelities come from factors: one eigendecomposition of [sigma, rho]
gives PSD-checked factors L, L L† = state (``linalg._psd_factor``), the SVD
of L_sigma† L_rho aligns the Uhlmann pair, whose amplitude matrices A are
factors too, and a kept block's fidelity is (tr|G_s† G_r|)^2 for the
normalised block factors G of the lifts M_mu A (:func:`_fidelities`).  No
update is square-rooted, so a near-null block, whose dense update is not
PSD in floating point, still gives a report, and the replayed expectation
agrees with the checked gap within round-off.  The links read per-outcome
quantities of the two (m, n, n) lifts: their reductions to S (whose traces
are the squared norms), one batched matrix product, and their inner
products, one einsum, summed into blocks with the package's one block sum,
``channels._block_sums``; no loop runs over the blocks.  A replay makes one
eigendecomposition call; it checks each state's shape and trace itself, the
factor checks finite, Hermitian and PSD, and a formed pass the block
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from .channels import KrausChannel, OutcomePartition, _block_factors, _block_sums, _kept_blocks, singleton_partition
from .states import _check_unit_trace, make_density
from .tolerances import GAP_TOL, OVERLAP_TOL
from .verify import _instance_state


def uhlmann_pair(sigma, rho) -> tuple[np.ndarray, np.ndarray]:
    """Purifications (psi_sigma, psi_rho) on S (x) Q with maximal overlap.

    Aligned through the singular decomposition of sqrt(sigma) sqrt(rho), so
    |<psi_sigma|psi_rho>|^2 equals the fidelity of the pair.
    """
    sigma = make_density(sigma)
    rho = make_density(rho)
    if sigma.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {sigma.shape} vs {rho.shape}")
    return tuple(amp.ravel(order="F") for amp in _aligned_pair(*linalg.psd_sqrt(np.stack([sigma, rho]))))


def _aligned_pair(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The amplitude matrices amp[s, q] of :func:`uhlmann_pair`'s purifications from any square
    factors A A† = sigma and B B† = rho, aligned by one SVD A† B = P S Q†: A P and B Q."""
    P, _, Qh = np.linalg.svd(A.conj().T @ B)
    return A @ P, B @ Qh.conj().T


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

    Factors the pair [sigma, rho] with one eigendecomposition, aligns the
    Uhlmann pair by the SVD of L_sigma† L_rho, reads the exact one-step pass
    for the probabilities, the dense updates and the fallback flags, lifts each
    purification straight from the Kraus stack as M_mu A (:func:`_lift`; no
    operator on S (x) Q (x) E is built), takes every fidelity from the lifts'
    block factors, and checks links (a)-(e); see the module docstring.  Links
    (a)-(d) hold within `link_tol`, the identity (e) within OVERLAP_TOL.
    Blocks where sigma's probability vanishes take the xi route and are
    flagged rather than entering the per-block overlap checks.  sigma and rho
    must be (n, n) for the channel's n and density matrices, or a ValueError
    says which test failed; a PSD error names the state and gives its lowest
    eigenvalue.
    """
    sigma, rho = _instance_state(ch, sigma, "sigma"), _instance_state(ch, rho, "rho")
    _check_unit_trace(sigma)
    _check_unit_trace(rho)
    states = np.array([sigma, rho])
    L_sigma, L_rho = linalg._psd_factor(states, lambda i: ("sigma", "rho")[i[0]])[0]
    step = _kept_blocks(ch.operators[None], states[:, None], [partition])
    [((probs_sigma, probs_rho), kept, rows)] = step.instances
    (sigma_next, rho_next), used = step.updates[:, rows], step.used[0, rows]
    amps = np.array(_aligned_pair(L_sigma, L_rho))
    overlap_initial = float(abs(np.vdot(amps[0], amps[1])) ** 2)
    values, fidelity_current = _fidelities(ch, partition, kept, used, amps, L_sigma.conj().T @ L_rho)
    # added left to right in block order, as the one-step pass adds them
    expected_next = float(sum(probs_rho[kept] * values))

    # per outcome mu: the lifts' reductions to S and the inner products <chi_hat_mu|chi_mu>
    lifts = _lift(ch.operators, amps)
    reduced = _reduce(lifts)
    inner = np.einsum("eqs,eqs->e", lifts[0].conj(), lifts[1])
    overlap_lifted = float(abs(inner.sum()) ** 2)
    norms = _block_sums(np.trace(reduced, axis1=-2, axis2=-1).real, partition)  # (2, blocks): sigma's, rho's
    block_reduced = _block_sums(reduced, partition, axis=-3)[:, kept]

    # (b) for rho on every kept block; (c), (d) and sigma's (b) where sigma's block is live too
    live = ~used
    both = kept[live]
    res_a = float(np.abs(norms[1] - probs_rho).max())
    res_b = float(np.abs(block_reduced[1] / norms[1, kept, None, None] - rho_next).max())
    if both.size:
        sigma_red = block_reduced[0, live] / norms[0, both, None, None]
        res_b = max(res_b, float(np.abs(sigma_red - sigma_next[live]).max()))
    overlaps = np.abs(_block_sums(inner, partition)[both]) ** 2 / (norms[0, both] * norms[1, both])
    margin_c = float((values[live] - overlaps).min()) if both.size else math.inf
    cs_lhs = float(sum(probs_rho[both] * overlaps))
    res_d = cs_lhs - overlap_lifted
    res_e = abs(overlap_lifted - fidelity_current)

    fidelity_of = dict(zip(kept.tolist(), values.tolist()))
    overlap_of = dict(zip(both.tolist(), overlaps.tolist()))
    fallback_blocks = tuple(kept[used].tolist())
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
        fidelity_current=fidelity_current,
        expected_next_fidelity=expected_next,
        link_residuals=residuals,
        links_hold=holds,
        all_links_hold=all(holds.values()),
        fallback_blocks=fallback_blocks,
    )


def _fidelities(
    ch: KrausChannel, partition: OutcomePartition | None, kept: np.ndarray, used: np.ndarray, amps: np.ndarray, cross: np.ndarray
) -> tuple[np.ndarray, float]:
    """(F of each kept block's updates, F(sigma, rho)) in factor form, from one batched SVD.

    A block's factors are the stacks [M_mu A]_{mu in block} of the aligned
    amplitudes `amps` (2, n, n), a coarse block's compressed to n columns by a
    thin QR (``channels._block_factors``), each normalised by its own
    Frobenius norm, and sigma's are xi = I/n's where its block vanished
    (`used`); `cross` is L_sigma† L_rho.  Its temporaries are freed on
    return, before the links form theirs.
    """
    n, k = ch.dim, len(kept)
    xi_factor = np.eye(n) / math.sqrt(n)  # a factor of the fallback xi = I/n
    factors = np.concatenate([np.where(used[:, None, None], xi_factor, amps[0]), np.broadcast_to(amps[1], (k, n, n))])
    G, p = _block_factors(
        ch, np.concatenate([kept, kept]), factors,
        singleton_partition(ch.num_outcomes) if partition is None else partition,
    )
    G /= np.sqrt(p)[:, None, None]
    fidelities = measures._fidelity_of_cross(np.concatenate([G[:k].conj().swapaxes(-1, -2) @ G[k:], cross[None]]))
    return fidelities[:k], float(fidelities[k])


def _lift(operators: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """(V (x) I_Q) psi for purifications psi with amplitude matrices amp[..., s, q], as amplitudes [..., E, Q, S].

    `operators` is the (m, n, n) Kraus stack, the isometry V.  The outcome-mu
    slice of a purification with amplitude matrix A is (M_mu A)^T, so a lift
    costs O(m n^3) time and O(m n^2) memory.
    """
    return (operators @ amp[..., None, :, :]).swapaxes(-1, -2)


def _reduce(lifts: np.ndarray) -> np.ndarray:
    """The reductions to S, tr_Q |chi_mu><chi_mu|, of each outcome slice of [..., E, Q, S] lifts.

    One batched product per slice, A^T conj(A) for the (Q, S) amplitudes A:
    O(m n^3) per lift, shape (..., m, n, n).
    """
    return lifts.swapaxes(-1, -2) @ lifts.conj()

"""Kraus channels, outcome statistics, conditional state updates, coarse-graining.

A channel is an immutable stack of Kraus operators M_mu with
sum_mu M_mu† M_mu = I.  It induces

* the deterministic map  K(rho) = sum_mu M_mu rho M_mu†,
* jump probabilities     p_mu(rho) = tr(M_mu rho M_mu†),
* conditional updates    rho -> M_mu rho M_mu† / p_mu(rho).

Outcome indices may be aggregated into partition blocks ("partial Kraus
maps"); all three notions then apply blockwise with M_mu sums inside each
block.  When a block has vanishing probability for the state being updated,
the update is applied to a fallback state xi instead (I/n by default).

The state functions take one density matrix or a stack of shape (..., n, n);
every check runs across the whole stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _any
from .states import maximally_mixed
from .tolerances import COMPLETENESS_TOL, TRACE_TOL, ZERO_OPERATOR_TOL, ZERO_PROB_TOL


@dataclass(frozen=True)
class KrausChannel:
    """Validated Kraus channel; construct via :func:`validate_channel`."""

    operators: np.ndarray  # stacked (m, n, n), read-only

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def num_outcomes(self) -> int:
        return self.operators.shape[0]

    def to_dict(self) -> dict:
        from .states import matrix_to_dict

        return {
            "dim": self.dim,
            "operators": [matrix_to_dict(M) for M in self.operators],
        }


@dataclass(frozen=True)
class OutcomePartition:
    """Partition of the outcome indices {0..m-1} into disjoint nonempty blocks.

    Indices are 0-based in memory; the JSON encoding uses 1-based indices.
    """

    m: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def to_dict(self) -> dict:
        return {"m": self.m, "blocks": [[i + 1 for i in b] for b in self.blocks]}


def make_partition(m: int, blocks) -> OutcomePartition:
    """Validate 0-based blocks as a partition of {0..m-1}."""
    blocks = tuple(tuple(int(i) for i in b) for b in blocks)
    if not blocks or any(len(b) == 0 for b in blocks):
        raise ValueError("partition needs at least one block and no empty blocks")
    seen: list[int] = []
    for b in blocks:
        seen.extend(b)
    if sorted(seen) != list(range(m)):
        raise ValueError(
            f"blocks must partition 0..{m - 1}, got indices {sorted(seen)}"
        )
    return OutcomePartition(m, blocks)


@functools.lru_cache
def singleton_partition(m: int) -> OutcomePartition:
    """One block per outcome: the fine-grained Markov chain.

    Cached: the partition is immutable, so every caller shares one instance.
    """
    return OutcomePartition(int(m), tuple((i,) for i in range(m)))


def trivial_partition(m: int) -> OutcomePartition:
    """A single block {0..m-1}: no information, the update is the full Kraus map."""
    return OutcomePartition(m, (tuple(range(m)),))


def random_partition(m: int, rng: np.random.Generator, num_blocks: int | None = None) -> OutcomePartition:
    """Uniform random surjective assignment of m outcomes onto num_blocks blocks."""
    if num_blocks is None:
        num_blocks = int(rng.integers(1, m + 1))
    if not 1 <= num_blocks <= m:
        raise ValueError(f"num_blocks must be in [1, {m}], got {num_blocks}")
    # Seed every block with one outcome so the assignment is surjective.
    perm = rng.permutation(m)
    labels = np.empty(m, dtype=int)
    labels[perm[:num_blocks]] = np.arange(num_blocks)
    if m > num_blocks:
        labels[perm[num_blocks:]] = rng.integers(0, num_blocks, size=m - num_blocks)
    blocks = tuple(
        tuple(int(i) for i in np.flatnonzero(labels == v)) for v in range(num_blocks)
    )
    return OutcomePartition(m, blocks)


def partition_from_dict(d: dict) -> OutcomePartition:
    """Decode the 1-based JSON encoding {"m": m, "blocks": [[...], ...]}."""
    blocks = [[int(i) - 1 for i in b] for b in d["blocks"]]
    return make_partition(int(d["m"]), blocks)


def validate_channel(ops) -> KrausChannel:
    """Validate a list of Kraus operators and freeze them into a channel.

    Checks equal square dimensions, no identically-zero operator
    (ZERO_OPERATOR_TOL), and the completeness condition sum M†M = I within
    COMPLETENESS_TOL (Frobenius).
    """
    ops = [np.asarray(M, dtype=complex) for M in ops]
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    n = ops[0].shape[0]
    for k, M in enumerate(ops):
        if M.ndim != 2 or M.shape != (n, n):
            raise ValueError(
                f"operator {k} has shape {M.shape}, expected ({n}, {n})"
            )
        if not np.isfinite(M).all():
            raise ValueError(f"operator {k} has non-finite entries")
        if np.linalg.norm(M) <= ZERO_OPERATOR_TOL:
            raise ValueError(f"operator {k} is identically zero")
    gram = sum(M.conj().T @ M for M in ops)
    residual = float(np.linalg.norm(gram - np.eye(n)))
    if residual > COMPLETENESS_TOL:
        raise ValueError(
            f"completeness violated: ||sum M†M - I||_F = {residual:.3e} "
            f"exceeds {COMPLETENESS_TOL:.1e}"
        )
    stacked = np.stack(ops)
    stacked.setflags(write=False)
    return KrausChannel(stacked)


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """The Kraus map K(rho) = sum_mu M_mu rho M_mu†."""
    rho = _check_dims(ch, rho)
    out = np.einsum("mij,...jk,mlk->...il", ch.operators, rho, ch.operators.conj())
    return (out + out.conj().swapaxes(-1, -2)) / 2


def outcome_probs(ch: KrausChannel, rho, partition: OutcomePartition | None = None) -> np.ndarray:
    """Outcome distribution p_mu(rho) = tr(M_mu rho M_mu†), or its block sums.

    Entries are clamped at zero (round-off down to -ZERO_PROB_TOL is
    tolerated) and must sum to one within TRACE_TOL.  A stack of states gives
    shape (..., blocks).
    """
    rho = _check_dims(ch, rho)
    per = np.einsum("mij,...jk,mik->...m", ch.operators, rho, ch.operators.conj()).real
    if partition is not None:
        _check_partition(ch, partition)
        # outcomes first (.T), so each block sums over axis 0 whatever the stack shape
        per = np.array([per.T[list(b)].sum(axis=0) for b in partition.blocks]).T
    if per.min() < -ZERO_PROB_TOL:
        raise ValueError(f"negative outcome probability {per.min():.3e}; invalid state?")
    per = np.maximum(per, 0.0)
    total = per.sum(axis=-1)
    off = abs(total - 1.0) > TRACE_TOL
    if _any(off):
        raise ValueError(f"outcome probabilities sum to {np.extract(off, total)[0]:.12g}, not 1")
    return per


def conditional_update(
    ch: KrausChannel,
    index: int,
    rho,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, bool | np.ndarray]:
    """Normalized post-jump state for outcome block `index`, with fallback.

    Returns (state, used_fallback).  If the block probability of rho is
    <= ZERO_PROB_TOL the update is applied to the fallback state xi instead
    (I/n when not given) and the flag is set; if even xi has vanishing
    block probability, raises.  For a stack of states the same block is
    applied to each, and used_fallback is a boolean array over the stack.
    """
    rho = _check_dims(ch, rho)
    if partition is None:
        partition = singleton_partition(ch.num_outcomes)
    else:
        _check_partition(ch, partition)
    if not 0 <= index < partition.num_blocks:
        raise ValueError(
            f"block index {index} out of range for {partition.num_blocks} blocks"
        )
    block = partition.blocks[index]
    out = _block_map(ch, block, rho)
    p = out.trace(0, -2, -1).real
    used_fallback = p <= ZERO_PROB_TOL
    if _any(used_fallback):
        xi = maximally_mixed(ch.dim) if fallback is None else np.asarray(fallback, dtype=complex)
        out_xi = _block_map(ch, block, xi)
        p_xi = out_xi.trace().real
        if p_xi <= ZERO_PROB_TOL:
            raise ValueError(
                f"block {index} has zero probability for the state and for the fallback"
            )
        out = np.where(used_fallback[..., None, None], out_xi, out)
        p = np.where(used_fallback, p_xi, p)
    out = out + np.conj(out.swapaxes(-1, -2))
    out /= (2 * p)[..., None, None]
    return out, (used_fallback if used_fallback.ndim else used_fallback.item())


def random_channel(n: int, m: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel: Kraus operators sliced from a Haar unitary on C^(n m).

    M_mu is the (mu, 0) block of the dilation unitary, i.e. rows mu*n..(mu+1)*n
    of its first n columns.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    U = haar_unitary(n * m, rng)
    return validate_channel([U[mu * n : (mu + 1) * n, :n] for mu in range(m)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed."""
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def channel_from_dict(d: dict) -> KrausChannel:
    """Decode {"dim": n, "operators": [matrix dict, ...]}."""
    from .states import matrix_from_dict

    return validate_channel([matrix_from_dict(m) for m in d["operators"]])


def _block_map(ch: KrausChannel, block: tuple[int, ...], rho: np.ndarray) -> np.ndarray:
    ops = ch.operators[list(block)]
    return np.einsum("mij,...jk,mlk->...il", ops, rho, ops.conj())


def _check_dims(ch: KrausChannel, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    n = ch.dim
    if rho.shape[-2:] != (n, n):
        raise ValueError(f"state has shape {rho.shape}, channel dimension is {n}")
    return rho


def _check_partition(ch: KrausChannel, partition: OutcomePartition) -> None:
    if partition.m != ch.num_outcomes:
        raise ValueError(
            f"partition is over {partition.m} outcomes, channel has {ch.num_outcomes}"
        )

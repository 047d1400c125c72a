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
every check runs across the whole stack.  The simulation engine's private
block update (:func:`_factor_probs`, :func:`_factor_update`) works on square
factors L of the states rho = L L† instead, with the same probability check,
fallback rule and error messages.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import _any, _psd_factor
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
        per = per @ _block_indicator(partition)
    if per.min() < -ZERO_PROB_TOL:
        raise ValueError(f"negative outcome probability {per.min():.3e}; invalid state?")
    per = np.maximum(per, 0.0)
    _check_total(per)
    return per


def conditional_update(
    ch: KrausChannel,
    index: int | Sequence[int],
    rho,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, bool | np.ndarray]:
    """Normalized post-jump states for outcome block `index`, with fallback.

    Returns (state, used_fallback).  `index` is one block index, or a 1-D
    sequence of k block indices; a sequence gives the results a leading
    block axis: states (k, ..., n, n) and flags (k, ...).  rho is one
    density matrix or a stack (..., n, n), and every requested block is
    applied to every state.  Where the block probability of a state is
    <= ZERO_PROB_TOL the update of that block is applied to the fallback
    state xi instead (I/n when not given) and that state's flag for that
    block is set; if even xi has vanishing probability for such a block,
    raises.  A single index on a single matrix gives a bool flag.
    """
    rho = _check_dims(ch, rho)
    if partition is None:
        partition = singleton_partition(ch.num_outcomes)
    else:
        _check_partition(ch, partition)
    single = np.ndim(index) == 0
    blocks = (operator.index(index),) if single else tuple(operator.index(i) for i in index)
    outcomes, E = _block_selection(partition, blocks)
    out = _blocks_map(ch, outcomes, E, rho)
    p = out.trace(0, -2, -1).real
    used_fallback = p <= ZERO_PROB_TOL
    if _any(used_fallback):
        xi = maximally_mixed(ch.dim) if fallback is None else np.asarray(fallback, dtype=complex)
        out_xi = _blocks_map(ch, outcomes, E, xi)
        p_xi = out_xi.trace(0, -2, -1).real
        # a block fails when some state needs its fallback and xi has none either
        dead = (p_xi <= ZERO_PROB_TOL) & used_fallback.reshape(len(blocks), -1).any(axis=1)
        if dead.any():
            raise ValueError(
                f"block {blocks[int(np.argmax(dead))]} has zero probability for the state and for the fallback"
            )
        lead = (len(blocks),) + (1,) * (rho.ndim - 2)  # broadcast xi's results over the stack
        out = np.where(used_fallback[..., None, None], out_xi.reshape(lead + out_xi.shape[-2:]), out)
        p = np.where(used_fallback, p_xi.reshape(lead), p)
    out = out + np.conj(out.swapaxes(-1, -2))
    out /= (2 * p)[..., None, None]
    if single:
        out, used_fallback = out[0], used_fallback[0]
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


def _kraus_products(ch: KrausChannel, L: np.ndarray) -> np.ndarray:
    """The products M_mu L_b of a (B, n, r) factor stack, transposed: T[b, s, mu] = (M_mu L_b)^T[s].

    One product L_b^T O^T per factor, O the (m n, n) stack of the
    operators, so every factor takes the same arithmetic wherever it sits
    in the stack (equal factors stay equal).  Shape (B, r, m, n).
    """
    m, n, _ = ch.operators.shape
    return (L.swapaxes(-1, -2) @ ch.operators.reshape(m * n, n).T).reshape(len(L), -1, m, n)


def _factor_probs(
    ch: KrausChannel, L: np.ndarray, partition: OutcomePartition | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(the products of :func:`_kraus_products`, block probabilities) of the states L L†.

    p_mu = ||M_mu L||_F^2 = tr(M_mu L L† M_mu†): a sum of squares, never
    negative, summed over each block and checked to sum to one within
    TRACE_TOL as in :func:`outcome_probs`.  The products are returned for
    :func:`_factor_update` to reuse.
    """
    T = _kraus_products(ch, L)
    per = _sq_norms(T)
    if partition is not None:
        _check_partition(ch, partition)
        per = _block_sums(per, partition)
    _check_total(per)
    return T, per


def _factor_update(
    ch: KrausChannel,
    idx: np.ndarray,
    T: np.ndarray,
    probs: np.ndarray,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the post-jump states: row b takes block idx[b] of its products T[b].

    T and probs are what :func:`_factor_probs` returned for the same
    partition.  Row b becomes F / ||F||_F with F = [M_mu L_b]_{mu in block},
    a factor of conditional_update(ch, idx[b], L_b L_b†, partition,
    fallback).  The factors are square: a block of k > 1 operators gives F
    k n columns, and a QR of its transpose, F^T = Q R, compresses them back
    to n, since F F† = R^T (R^T)† (the order of the rows of F^T does not
    matter).  Where the block probability is <= ZERO_PROB_TOL the products
    of the fallback xi's factor (xi = I/n when not given) take the row's
    place and its flag is set; if xi's block probability vanishes too,
    raises.  Returns ((B, n, n) factors, (B,) fallback flags).
    """
    if partition is None:
        partition = singleton_partition(ch.num_outcomes)
    B, n = len(idx), ch.dim
    p = probs[np.arange(B), idx]
    used = p <= ZERO_PROB_TOL
    if _any(used):
        xi = maximally_mixed(n) if fallback is None else np.asarray(fallback, dtype=complex)
        X = _kraus_products(ch, _psd_factor(xi)[0][None])
        p_xi = _block_sums(_sq_norms(X), partition)[0, idx[used]]
        if _any(p_xi <= ZERO_PROB_TOL):
            bad = int(idx[used][p_xi <= ZERO_PROB_TOL][0])
            raise ValueError(f"block {bad} has zero probability for the state and for the fallback")
        T = np.where(used[:, None, None, None], X, T)
        p[used] = p_xi
    taken = set(idx.tolist())
    out = np.empty((B, n, n), dtype=complex)
    for v in taken:
        rows = np.flatnonzero(idx == v) if len(taken) > 1 else np.arange(B)
        block = partition.blocks[v]
        if len(block) == 1:
            out[rows] = T[rows, :, block[0]].swapaxes(-1, -2)
        else:
            F_T = T[rows[:, None], :, list(block)]  # (b, k, r, n): the rows of each (M_mu L)^T
            # raw mode returns LAPACK's result transposed: R^T in the lower triangle of its first n columns
            R_T = np.linalg.qr(F_T.reshape(len(rows), -1, n), mode="raw")[0][..., :n]
            R_T *= _lower_triangle(n)
            out[rows] = R_T
    out /= np.sqrt(p)[:, None, None]
    return out, used


def _sq_norms(T: np.ndarray) -> np.ndarray:
    """||M_mu L_b||_F^2 for each (b, mu) of the products T of :func:`_kraus_products`."""
    v = T.view(np.float64)  # real and imaginary parts side by side
    return np.einsum("bsmi,bsmi->bm", v, v)


@functools.lru_cache
def _lower_triangle(n: int) -> np.ndarray:
    """The (n, n) 0/1 mask of the lower triangle, diagonal included."""
    mask = np.tri(n)
    mask.setflags(write=False)
    return mask


def _block_sums(per: np.ndarray, partition: OutcomePartition) -> np.ndarray:
    """per[..., mu] summed over each block, in the order the block lists its outcomes.

    Every row takes the same additions wherever it sits in a stack, which
    the simulation engine relies on to give equal factors equal results.  A
    product with :func:`_block_indicator` does not: BLAS may sum the last rows
    of a stack in another order, so a block of three or more outcomes can
    differ in the last bit from one row to the next.
    """
    order = [mu for block in partition.blocks for mu in block]
    starts = np.cumsum([0] + [len(block) for block in partition.blocks[:-1]])
    return np.add.reduceat(per[..., order], starts, axis=-1)


@functools.lru_cache
def _block_indicator(partition: OutcomePartition) -> np.ndarray:
    """The (m, blocks) 0/1 matrix E with E[mu, j] = 1 when mu is in block j: p_blocks = p E."""
    E = np.zeros((partition.m, partition.num_blocks))
    for j, block in enumerate(partition.blocks):
        E[list(block), j] = 1.0
    E.setflags(write=False)
    return E


@functools.lru_cache
def _block_selection(partition: OutcomePartition, blocks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, E) for the requested block indices, in their order.

    outcomes are the sorted outcome indices the blocks hold, and E is the
    (outcomes, blocks) 0/1 matrix that sums per-outcome terms into the
    blocks.  Raises on an index outside the partition.
    """
    for b in blocks:
        if not 0 <= b < partition.num_blocks:
            raise ValueError(f"block index {b} out of range for {partition.num_blocks} blocks")
    E = _block_indicator(partition)[:, list(blocks)]
    outcomes = np.flatnonzero(E.any(axis=1))
    E = E[outcomes]
    for a in (outcomes, E):
        a.setflags(write=False)
    return outcomes, E


def _check_total(per: np.ndarray) -> None:
    total = per.sum(axis=-1)
    off = abs(total - 1.0) > TRACE_TOL
    if _any(off):
        raise ValueError(f"outcome probabilities sum to {np.extract(off, total)[0]:.12g}, not 1")


def _blocks_map(ch: KrausChannel, outcomes: np.ndarray, E: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The unnormalized block maps sum_{mu in block j} M_mu rho M_mu†, shape (k, ..., n, n).

    One einsum gives M_mu rho M_mu† for each of the `outcomes`; the (outcomes, k)
    0/1 matrix E sums them into the k blocks.
    """
    ops = ch.operators[outcomes]
    per = np.einsum("mij,...jk,mlk->m...il", ops, rho, ops.conj())
    rest = per.shape[1:]
    return (E.T @ per.reshape(len(outcomes), math.prod(rest))).reshape(E.shape[1:] + rest)


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

"""Kraus channels, outcome statistics, conditional state updates, coarse-graining.

A channel is an immutable stack of Kraus operators M_mu with
sum_mu M_mu† M_mu = I.  It induces

* the deterministic map  K(rho) = sum_mu M_mu rho M_mu†,
* jump probabilities     p_mu(rho) = tr(M_mu rho M_mu†),
* conditional updates    rho -> M_mu rho M_mu† / p_mu(rho).

Outcome indices may be aggregated into partition blocks ("partial Kraus
maps"); all three notions then apply blockwise with M_mu sums inside each
block.  When a block has vanishing probability for the state being updated,
the update is applied to a fallback state xi instead (I/n by default); a
caller's xi is checked in full, by name, whether or not a block needs it.

The state functions take one density matrix or a stack of shape (..., n, n),
checked in full and named ``rho``, each test across the whole stack; below
the entries the kernels trust their inputs.  They read one dense kernel,
:func:`_dense_blocks`, whose block maps are the updates and whose block
probabilities are their traces, checked where they are formed
(:func:`_block_maps`): non-negative beyond round-off and summing to one
within TRACE_TOL.  It builds the per-outcome maps M_mu rho M_mu† from two
matrix products, O(m n^3) per state (:func:`_per_outcome`), and takes an
operator stack: one channel's (m, n, n), or one Kraus stack per instance
(..., m, n, n), each with the bits it gets alone.  The exact checks of
:mod:`qfilter.verify` read its pass over many instances,
:func:`_kept_blocks`: the states checked finite and Hermitian, one product
for the whole stack, one block sum per distinct partition, and the updates
of the kept blocks only.  The last few passes of one instance are kept,
read-only, so the checks of one instance form its pass once, and its
passes under other partitions share the first one's checked product.
Random channels come from one stacked thin QR and one stacked check
(:func:`_haar_channels`, :func:`_freeze`); a single channel is a stack of
one.  The simulation engine works on square factors L of rho = L L†
instead, with the same block sum, checks and fallback rule, in two passes:
the block probabilities from the products with all m operators
(:func:`_factor_probs`), and the update of each factor from its chosen
block's products alone (:func:`_factor_update`).
"""

from __future__ import annotations

import functools
import hashlib
import operator
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _any, _label, _psd_factor, require_hermitian
from .states import _density, maximally_mixed
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
    """Uniform random surjective assignment of m outcomes onto num_blocks blocks.

    The draws are a permutation of the outcomes, whose first num_blocks seed one
    block each so the assignment is surjective, then a block for each of the rest;
    the blocks are read off the draws in plain Python, in one pass over the outcomes.
    ``verify.random_instances`` makes its partitions so, among its draws.
    """
    if num_blocks is None:
        num_blocks = int(rng.integers(1, m + 1))
    if not 1 <= num_blocks <= m:
        raise ValueError(f"num_blocks must be in [1, {m}], got {num_blocks}")
    perm = rng.permutation(m).tolist()
    rest = rng.integers(0, num_blocks, size=m - num_blocks).tolist() if m > num_blocks else []
    block_of = dict(zip(perm, [*range(num_blocks), *rest]))
    blocks: list[list[int]] = [[] for _ in range(num_blocks)]
    for mu in range(m):
        blocks[block_of[mu]].append(mu)
    return OutcomePartition(m, tuple(map(tuple, blocks)))


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
    return _freeze(np.stack(ops)[None])[0]


def _freeze(ops: np.ndarray) -> list[KrausChannel]:
    """The channels of a stack of Kraus stacks (B, m, n, n), checked and made read-only.

    Each channel takes the checks of :func:`validate_channel` after its
    shapes, in its order: per operator, finite entries and then a nonzero
    norm; then completeness.  The first channel that fails raises.
    """
    nonfinite = ~np.isfinite(ops).all(axis=(-2, -1))
    # a non-finite operator fails its own check first; zeroed, it keeps the sums below finite
    finite = np.where(nonfinite[..., None, None], 0.0, ops) if _any(nonfinite) else ops
    zero = np.linalg.norm(finite, axis=(-2, -1)) <= ZERO_OPERATOR_TOL
    gram = (finite.conj().swapaxes(-1, -2) @ finite).sum(axis=-3)
    residual = np.linalg.norm(gram - np.eye(ops.shape[-1]), axis=(-2, -1))
    bad = (nonfinite | zero).any(axis=-1) | (residual > COMPLETENESS_TOL)
    if _any(bad):
        b = np.flatnonzero(bad)[0]
        for k in range(ops.shape[1]):
            if nonfinite[b, k]:
                raise ValueError(f"operator {k} has non-finite entries")
            if zero[b, k]:
                raise ValueError(f"operator {k} is identically zero")
        raise ValueError(
            f"completeness violated: ||sum M†M - I||_F = {residual[b]:.3e} "
            f"exceeds {COMPLETENESS_TOL:.1e}"
        )
    # each channel owns a copy: the exact checks measured about 3% faster on those than on views of the stack
    channels = [KrausChannel(o.copy()) for o in ops]
    for ch in channels:
        ch.operators.setflags(write=False)
    return channels


def apply_channel(ch: KrausChannel, rho) -> np.ndarray:
    """The Kraus map K(rho) = sum_mu M_mu rho M_mu†: the Hermitian part of the per-outcome maps' sum."""
    return _kraus_sum(_dense_blocks(ch.operators, rho)[0])


def _kraus_sum(per: np.ndarray) -> np.ndarray:
    """K(rho) from rho's per-outcome maps (..., m, n, n), unchecked: the Hermitian part of their sum."""
    out = per.sum(axis=-3)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def outcome_probs(ch: KrausChannel, rho, partition: OutcomePartition | None = None) -> np.ndarray:
    """Outcome distribution p_mu(rho) = tr(M_mu rho M_mu†), or its block sums.

    Entries are clamped at zero (round-off down to -ZERO_PROB_TOL is
    tolerated) and must sum to one within TRACE_TOL.  A stack of states gives
    shape (..., blocks).
    """
    return _dense_blocks(ch.operators, rho, partition)[1]


def conditional_update(
    ch: KrausChannel,
    index: int,
    rho,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, bool | np.ndarray]:
    """Normalized post-jump states for outcome block `index`, with fallback.

    Returns (state, used_fallback).  rho is one density matrix or a stack
    (..., n, n).  Where the block probability of a state is <=
    ZERO_PROB_TOL the update is applied to the fallback state xi instead
    (I/n when not given) and that state's flag is set; if even xi has
    vanishing probability for the block, raises.  A caller's xi is checked
    whether or not it is used.  A single matrix gives a bool flag.
    """
    if partition is None:
        partition = singleton_partition(ch.num_outcomes)
    maps, p = _dense_blocks(ch.operators, rho, partition)
    index = operator.index(index)
    if not 0 <= index < partition.num_blocks:
        raise ValueError(f"block index {index} out of range for {partition.num_blocks} blocks")
    out, used = _dense_updates(ch.operators[None], maps[..., index, :, :], p[..., index], index, 0, partition, fallback)
    return out, (used if used.ndim else used.item())


def random_channel(n: int, m: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel: Kraus operators sliced from a Haar unitary on C^(n m).

    M_mu is the (mu, 0) block of the dilation unitary, i.e. rows mu*n..(mu+1)*n
    of its first n columns.
    """
    return _haar_channels(_channel_ginibre(n, m, rng)[None], n)[0]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed."""
    return _haar_unitaries(_ginibre(dim, rng))


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A complex Ginibre (dim, dim) matrix: the real parts drawn first, then the imaginary parts."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _channel_ginibre(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The draws of :func:`random_channel`: the Ginibre matrix its Haar unitary comes from."""
    if n < 1 or m < 1:
        raise ValueError(f"need n, m >= 1, got n={n}, m={m}")
    return _ginibre(n * m, rng)


def _haar_unitaries(Z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a Ginibre matrix or stack (..., dim, dim): one QR, phases fixed.

    Given its first k columns (..., dim, k), the thin QR gives the unitaries' first k columns.
    The QR runs per matrix, so a matrix gets the same bits alone and in a stack.
    """
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def _haar_channels(Z: np.ndarray, n: int) -> list[KrausChannel]:
    """The random channels of a stack of :func:`_channel_ginibre` draws (B, n m, n m): a thin QR, one check for all."""
    return _freeze(_haar_unitaries(Z[..., :n]).reshape(len(Z), -1, n, n))


def channel_from_dict(d: dict) -> KrausChannel:
    """Decode {"dim": n, "operators": [matrix dict, ...]}; the operators must be n x n."""
    from .states import matrix_from_dict

    ops, n = [matrix_from_dict(m) for m in d["operators"]], int(d["dim"])
    if ops and ops[0].shape != (n, n):
        raise ValueError(f"channel dict declares dim {n} but operator 0 has shape {ops[0].shape}")
    return validate_channel(ops)


def _dense_blocks(operators: np.ndarray, rho, partition: OutcomePartition | None = None):
    """(block maps sum_{mu in block} M_mu rho M_mu†, block probabilities) of a state or stack.

    `operators` is one channel's Kraus stack (m, n, n) or a stack of them
    (..., m, n, n), paired with the states as :func:`_per_outcome` pairs
    them.  Shapes (..., blocks, n, n) and (..., blocks), one block per
    outcome when partition is None.  The probabilities are the maps' traces,
    checked by :func:`_probabilities`, and the normalisers of the updates.
    A state gets the same bits alone and in any row of a stack; rho is checked in full.
    """
    [rho] = _density({"rho": rho}, operators.shape[-1], stack=True)
    return _block_maps(operators, _per_outcome(operators, rho), partition)


def _block_maps(operators: np.ndarray, per: np.ndarray, partition: OutcomePartition | None, name=None):
    """The (block maps, probabilities) of :func:`_dense_blocks` from the per-outcome maps `per` (..., m, n, n).

    `per` comes from :func:`_per_outcome` under `operators`, or is rows of
    such a stack: the products do not depend on the partition, so
    instances of several partitions share one product.  The one place the
    dense kernel checks probabilities: every state's, whatever reads them
    (`name` as :func:`_probabilities` takes it).
    """
    _check_partition(operators, partition)
    maps = _block_sums(per, partition, axis=-3)
    return maps, _probabilities(maps.trace(0, -2, -1).real, name)


def _per_outcome(operators: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The per-outcome maps M_mu rho M_mu† of a state or stack, shape (..., m, n, n).

    `operators` is one channel's (m, n, n), which every state takes, or a
    stack (..., m, n, n) whose leading axes broadcast against rho's.  Two
    matrix products: each (m n, n) operator stack times its rho, then each
    M_mu†, O(m n^3) per state.  Both run as one BLAS product per 2-D slice,
    so a state gets the same bits alone and in any row of a stack, with its
    channel alone or in a stack of channels.
    """
    m, n = operators.shape[-3:-1]
    left = operators.reshape(operators.shape[:-3] + (m * n, n)) @ rho
    return left.reshape(left.shape[:-2] + (m, n, n)) @ operators.conj().swapaxes(-1, -2)


def _probabilities(per: np.ndarray, name=None) -> np.ndarray:
    """Checked block probabilities: round-off down to -ZERO_PROB_TOL is clamped to zero, and each
    row must sum to one within TRACE_TOL; an error names a failing row by name(its index), when given.
    A NaN anywhere makes the minimum NaN, which fails the first test, so NaN probabilities raise."""
    low = np.minimum.reduce(per, None)  # the ufunc reductions skip the ndarray methods' Python layer
    if not low >= -ZERO_PROB_TOL:
        # argmin finds the first NaN as it finds the minimum
        row = np.unravel_index(per.argmin(), per.shape)[:-1]
        message = f"negative outcome probability {low:.3e}; invalid state?" if low < 0 else "outcome probabilities are not finite"
    else:
        per = np.maximum(per, 0.0)
        total = np.add.reduce(per, -1)
        off = abs(total - 1.0) > TRACE_TOL
        if not _any(off):
            return per
        row, message = np.argwhere(off)[0], f"outcome probabilities sum to {np.extract(off, total)[0]:.12g}, not 1"
    raise ValueError(message if name is None else f"{message} ({_label(name, tuple(row))})")


def _dense_updates(
    operators: np.ndarray,
    maps: np.ndarray,
    p: np.ndarray,
    blocks: np.ndarray,
    channels: np.ndarray,
    partition=None,
    fallback=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Updates (A + A†) / 2p (..., n, n) and fallback flags (...) of block maps A (..., n, n) with traces p (...).

    Each map is the block `blocks` of :func:`_dense_blocks` under
    operators[channels] of a stack (B, m, n, n), `blocks` and `channels`
    broadcast against p.  Where p <= ZERO_PROB_TOL the map takes the
    fallback's map and probability for its channel and block
    (:func:`_fallback`).  A caller's xi is checked whether or not a block
    needs it, so no result depends on which blocks vanished.
    """
    if fallback is not None:
        _density({"fallback": fallback}, operators.shape[-1])
    used = p <= ZERO_PROB_TOL
    if _any(used):
        needed = np.broadcast_to(blocks, used.shape)[used]
        ops = operators[np.broadcast_to(channels, used.shape)[used]]

        def kernel(xi):
            maps_xi, p_xi = _block_maps(ops, _per_outcome(ops, xi), partition)
            rows = np.arange(len(needed))
            return maps_xi[rows, needed], p_xi[rows, needed]

        maps_xi, p_xi = _fallback(operators.shape[-1], fallback, needed, kernel)
        maps, p = maps.copy(), p.copy()
        maps[used], p[used] = maps_xi, p_xi
    out = maps + np.conj(maps.swapaxes(-1, -2))
    out /= (2 * p)[..., None, None]
    return out, used


def _fallback(n: int, fallback, needed: np.ndarray, kernel):
    """kernel(xi) -> (results, xi's probabilities of the `needed` blocks) for the fallback xi, I/n when not given.

    The one fallback rule: it raises when xi, checked by the caller, has zero
    probability for one of the `needed` blocks, those where a state's own
    probability vanished.
    """
    xi = maximally_mixed(n) if fallback is None else np.asarray(fallback, dtype=complex)
    out, p_xi = kernel(xi)
    dead = p_xi <= ZERO_PROB_TOL
    if _any(dead):
        raise ValueError(f"block {needed[dead][0]} has zero probability for the state and for the fallback")
    return out, p_xi


class _Digest:
    """The SHA-256 state of a batch-of-one (channel, sigma, rho) after the Kraus stack's, sigma's and
    rho's bytes, hashed when first asked (two threads asking at once both hash, and store equal
    states); the kept passes of the instance share it."""

    def __init__(self, *parts: bytes):
        self._parts, self._sha = parts, None

    def sha256(self):
        """A copy of the state, to which a caller adds its own bytes."""
        if self._sha is None:
            self._sha = hashlib.sha256(b"".join(self._parts))
        return self._sha.copy()


class _Kept(NamedTuple):
    """A stacked pass's kept blocks: each instance's blocks where p_nu(rho) > ZERO_PROB_TOL.

    The K rows are (instance, kept block) pairs, grouped by partition; each
    instance's rows are one contiguous run, in block order.
    """

    instances: tuple  # per instance: every state's block probabilities (s, blocks), its kept blocks (k,), its rows
    weights: np.ndarray  # (K,) p_nu(rho) of each row
    updates: np.ndarray  # (s, K, n, n) every state's update on each row, xi's where its block vanishes
    used: np.ndarray  # (s, K) the updates that took the fallback
    maps: np.ndarray  # (s, B, m, n, n) every state's per-outcome maps M_mu rho M_mu†: the pass's checked product
    digest: _Digest | None = None  # a batch-of-one pass with sigma: its instance's, shared with the instance's passes

    def kraus_map(self) -> np.ndarray:
        """K(rho) of each instance (B, n, n), when asked: rho's per-outcome maps summed as apply_channel sums them."""
        return _kraus_sum(self.maps[-1])


#: the most batch-of-one passes :func:`_kept_blocks` keeps
_PASS_MEMO_SIZE = 4
# (key, sigma's bytes or None for a rho-only pass, the pass), least recently used first, the key
# (instance key, (partition, xi's key)); a scan of so few entries compares bytes, where a dict
# would hash them: 16 us a lookup at (n, m) = (16, 8)
_pass_memo: list = []
_pass_memo_lock = threading.Lock()


def _instance_key(operators: np.ndarray, states: np.ndarray) -> tuple:
    """The memo's key of a batch-of-one instance, operators (1, m, n, n) and states (s, 1, n, n): the
    shapes, rho's bytes and the Kraus stack's."""
    return states.shape[1:], states[-1].tobytes(), operators.shape, operators.tobytes()


def _kept_blocks(operators: np.ndarray, states, partitions, fallback=None) -> _Kept:
    """The dense block kernel over B instances (B, m, n, n) with s states each (s, B, n, n), the last rho.

    A batch of one reads the last _PASS_MEMO_SIZE passes, kept read-only and keyed on the bytes of
    rho, the Kraus stack, the partition and a caller's xi: a pass with sigma takes a kept one only
    when sigma's bytes match too, a rho-only pass any, since rho's rows do not depend on sigma (the
    products run per 2-D slice, the updates per element).  A miss of a kept instance under another
    partition or xi reads that pass's checked product, which depends on neither, and forms only the
    block sums and updates; a pass with sigma shares its :class:`_Digest` too.  An error is never
    kept, and a stacked pass (B > 1) is always formed.
    """
    if len(partitions) != 1:
        return _kept_pass(operators, states, partitions, fallback)
    xi = None if fallback is None else np.asarray(fallback, dtype=complex)
    instance = _instance_key(operators, states)
    key = instance, (partitions[0], None if xi is None else (xi.shape, xi.tobytes()))
    sigma = states[:-1].tobytes() if len(states) > 1 else None
    held = None
    with _pass_memo_lock:
        for i, (k, s, kept) in enumerate(_pass_memo):
            if sigma in (None, s) and k[0] == instance:
                if k[1] == key[1]:
                    _pass_memo.append(_pass_memo.pop(i))
                    return kept
                held = kept
    if held is not None:
        kept = _kept_pass(operators, states, partitions, fallback, held.maps[-len(states) :], held.digest if sigma else None)
    else:
        _, rho, _, ops = instance
        kept = _kept_pass(operators, states, partitions, fallback, None, _Digest(ops, sigma, rho) if sigma else None)
    [(probs, blocks, _)] = kept.instances
    for a in (kept.weights, kept.updates, kept.used, kept.maps, probs, blocks):
        a.setflags(write=False)
    with _pass_memo_lock:
        _pass_memo[:] = [entry for entry in _pass_memo if entry[0] != key] + [(key, sigma, kept)]
        del _pass_memo[:-_PASS_MEMO_SIZE]
    return kept


def _held_pass(operators: np.ndarray, states: np.ndarray) -> _Kept | None:
    """A kept pass of the batch-of-one instance operators (1, m, n, n), states [sigma, rho] (2, 1, n, n),
    under any partition and xi, or None: its product holds both states' per-outcome maps, checked."""
    instance, sigma = _instance_key(operators, states), states[0].tobytes()
    with _pass_memo_lock:
        for k, s, kept in _pass_memo:
            if s == sigma and k[0] == instance:
                return kept
    return None


def _kept_pass(operators: np.ndarray, states: np.ndarray, partitions, fallback=None, product=None, digest=None) -> _Kept:
    """The pass of :func:`_kept_blocks`, formed: the states checked finite and Hermitian (an error names the
    state, in a batch "sigma of instance 3"), one per-outcome product for the whole stack, then one block
    sum per distinct partition, in its block order, on its instances' rows gives every state's block maps
    and probabilities; only the kept rows are gathered and updated, the one fallback rule applied to them.
    `product` is a kept pass's checked product of these states, read in place of the check and the product.
    """
    by_partition: dict = {}
    for i, partition in enumerate(partitions):
        by_partition.setdefault(partition, []).append(i)
    names = ("sigma", "rho")[-len(states) :]
    label = names if len(partitions) == 1 else lambda i: f"{names[i[0]]} of instance {i[1]}"
    per = _per_outcome(operators, require_hermitian(states, label)) if product is None else product
    instances: list = [None] * len(partitions)
    weights, updates, used = [], [], []
    start = 0
    for partition, idx in by_partition.items():
        whole = len(by_partition) == 1
        ops = operators if whole else operators[idx]
        maps, p = _block_maps(ops, per if whole else per[:, idx], partition, lambda r, idx=idx: _label(label, (r[0], idx[r[1]])))
        keep = p[-1] > ZERO_PROB_TOL
        inst, blk = keep.nonzero()
        if len(blk) == keep.size:  # every block kept: the rows are the arrays whole, no gather
            rows, traces = maps.reshape((len(per), -1) + maps.shape[-2:]), p.reshape(len(per), -1)
        else:
            rows, traces = maps[:, inst, blk], p[:, inst, blk]
        out, flags = _dense_updates(ops, rows, traces, blk, inst, partition, fallback)
        lo = 0
        for j, (i, row) in enumerate(zip(idx, keep.tolist())):
            hi = lo + sum(row)
            instances[i] = (p[:, j], blk[lo:hi], slice(start + lo, start + hi))
            lo = hi
        start += lo
        weights.append(traces[-1])
        updates.append(out)
        used.append(flags)
    if len(by_partition) == 1:
        return _Kept(tuple(instances), weights[0], updates[0], used[0], per, digest)
    return _Kept(tuple(instances), np.concatenate(weights), np.concatenate(updates, axis=1), np.concatenate(used, axis=1), per, digest)


def _factor_probs(ch: KrausChannel, L: np.ndarray, partition: OutcomePartition | None = None) -> np.ndarray:
    """Block probabilities of the states L L† of a (B, n, r) factor stack.

    p_mu = ||M_mu L||_F^2 = tr(M_mu L L† M_mu†): a sum of squares, never
    negative, summed over each block and checked by :func:`_probabilities`
    as in :func:`outcome_probs`.  Each factor takes one product L^T O^T, O
    the (m n, n) stack of the operators, so it gets the same bits wherever
    it sits in the stack (equal factors stay equal).
    """
    m, n, _ = ch.operators.shape
    T = (L.swapaxes(-1, -2) @ ch.operators.reshape(m * n, n).T).reshape(len(L), -1, m, n)
    v = T.view(np.float64)  # real and imaginary parts side by side
    per = np.einsum("bsmi,bsmi->bm", v, v)
    return _probabilities(_block_sums(per, partition))


def _factor_update(
    ch: KrausChannel,
    idx: np.ndarray,
    L: np.ndarray,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the post-jump states of a (B, n, n) factor stack: row b takes block idx[b].

    Row b becomes F / ||F||_F with F = [M_mu L_b]_{mu in block}, a factor of
    conditional_update(ch, idx[b], L_b L_b†, partition, fallback), and
    ||F||_F^2 is its block probability (:func:`_block_factors`).  Where that
    is <= ZERO_PROB_TOL, xi's factor (xi = I/n when not given) takes the
    row's place and its flag is set; if xi's block probability vanishes too,
    raises.  Returns ((B, n, n) factors, (B,) fallback flags).
    """
    if partition is None:
        partition = singleton_partition(ch.num_outcomes)
    out, p = _block_factors(ch, idx, L, partition)
    used = p <= ZERO_PROB_TOL
    if _any(used):
        out[used], p[used] = _fallback(
            ch.dim, fallback, idx[used],
            lambda xi: _block_factors(ch, idx[used], np.broadcast_to(_psd_factor(xi)[0], L[used].shape), partition),
        )
    out /= np.sqrt(p)[:, None, None]
    return out, used


def _block_factors(ch: KrausChannel, idx: np.ndarray, L: np.ndarray, partition: OutcomePartition):
    """(G_b, ||F_b||_F^2) for F_b = [M_mu L_b]_{mu in block idx[b]} of a (B, n, n) stack, G_b G_b† = F_b F_b†.

    Each row forms only its block's products M_mu L_b, every operand a
    C-ordered matrix, so it gets the same bits wherever it sits.  The
    singleton rows take one gathered product, and their G is F.  Each
    coarse block takes one product with its (k n, n) operator stack, and a
    QR of F^T = Q R compresses the k n columns of F back to n:
    F F† = R^T (R^T)†, whatever the order of the rows of F^T.
    """
    n, mu = ch.dim, _singleton_outcomes(partition)[idx]
    group = np.where(mu >= 0, -1, idx)  # the singleton rows, then each coarse block
    taken = set(group.tolist())
    out, p = np.empty(L.shape, dtype=complex), np.empty(len(idx))
    for key in taken:
        rows = slice(None) if len(taken) == 1 else np.flatnonzero(group == key)
        O = ch.operators[mu[rows]] if key < 0 else ch.operators[list(partition.blocks[key])].reshape(-1, n)
        F = O @ L[rows]  # the products M_mu L_b, one above the other
        v = F.view(np.float64)  # real and imaginary parts side by side
        p[rows] = np.einsum("bsi,bsi->b", v, v)
        if F.shape[1] == n:
            out[rows] = F
        else:
            F_T = F.reshape(len(F), -1, n, n).swapaxes(-1, -2).reshape(len(F), -1, n)
            # raw mode returns LAPACK's result transposed: R^T in the lower triangle of its first n columns
            out[rows] = np.linalg.qr(F_T, mode="raw")[0][..., :n] * _lower_triangle(n)
    return out, p


@functools.lru_cache
def _singleton_outcomes(partition: OutcomePartition) -> np.ndarray:
    """Each block's one outcome, or -1 for a block of several."""
    mu = np.array([block[0] if len(block) == 1 else -1 for block in partition.blocks])
    mu.setflags(write=False)  # cached: every caller shares it
    return mu


@functools.lru_cache
def _lower_triangle(n: int) -> np.ndarray:
    """The (n, n) 0/1 mask of the lower triangle, diagonal included."""
    mask = np.tri(n)
    mask.setflags(write=False)
    return mask


def _block_sums(per: np.ndarray, partition: OutcomePartition | None, axis: int = -1) -> np.ndarray:
    """per summed over each block along the outcome `axis`, in the order the block lists its outcomes.

    The package's one block sum; partition None leaves per as it is.  Every
    row of a stack takes the same additions wherever it sits, so equal
    states get equal results; a BLAS product with a 0/1 block matrix may
    sum the last rows of a stack in another order.
    """
    layout = _block_layout(partition)
    if layout is None:
        return per
    order, starts = layout
    return np.add.reduceat(per.take(order, axis), starts, axis)


@functools.lru_cache
def _block_layout(partition: OutcomePartition | None) -> tuple[np.ndarray, np.ndarray] | None:
    """(outcome order, block starts) for :func:`_block_sums`; None when there is nothing to sum."""
    if partition is None or all(block == (mu,) for mu, block in enumerate(partition.blocks)):
        return None
    order = np.array([mu for block in partition.blocks for mu in block])
    starts = np.cumsum([0] + [len(block) for block in partition.blocks[:-1]])
    order.flags.writeable = starts.flags.writeable = False  # cached: every caller shares them
    return order, starts


def _check_partition(operators: np.ndarray, partition: OutcomePartition | None) -> None:
    """The one partition check: a partition (None is the singleton one) must be over the channel's m outcomes."""
    if partition is not None and partition.m != operators.shape[-3]:
        raise ValueError(f"partition is over {partition.m} outcomes, channel has {operators.shape[-3]}")

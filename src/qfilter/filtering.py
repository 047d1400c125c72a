"""The coupled Markov chain: true state + filter estimate driven by shared jumps.

Each step samples a jump index from the TRUE state's outcome distribution and
applies the same conditional update to both the true state rho_k and the
estimate rho_hat_k; the estimate falls back to xi when its own block
probability vanishes.  Channels may be fixed, per-step, or chosen by a
feedback rule that sees only (k, rho_hat_k).

Randomness: one uniform per step, inverse-CDF over the exact outcome
probabilities (residual mass goes to the last block).  A run reads one
PCG64 stream, numpy's default_rng(seed): step k of trajectory i takes its
draw (k J + i) mod 2^128, J = _STEP_STRIDE, for trajectory indices below
2^64.  So batches are reproducible and order-independent, simulate(cfg, i)
is row i of any batch that holds trajectory i, and a longer horizon extends
a shorter one.

One engine runs the chain: a step function on stacks of pairs of states,
each state carried as a square factor L with rho = L L†.  The factors of
rho0 and rho_hat0 come from one eigendecomposition with the PSD check of
:func:`qfilter.linalg.psd_sqrt`; only xi is decomposed again, validated on
every step whose estimate falls back to it.  A step samples its jumps from
the true factors' products with all m operators, then maps L to
[M_mu L]_{mu in b} / ||.||_F for the sampled block b alone, a coarse
block's k n columns compressed back to n by a QR, so the engine cannot
produce a state that is not positive semidefinite.  The fidelity of a
pair is (sum of singular values of L_hat† L)^2, one SVD.  The states after
k steps depend only on the outcome history, and every kernel does the
same arithmetic on a row wherever it sits in a stack, so trajectories with
equal histories carry bit-equal factors: the engine keeps one pair per
distinct history, plus the map from trajectories to histories, and
advances each history once.

One driver, :func:`_lockstep`, advances any set of trajectories of a config
together, one step call per step for all of them, and every run reads it.
Dense states appear only where the API hands them out: JointStep.true_state
and JointStep.estimate (L L†, made Hermitian), the estimate shown to a
feedback selector, the records of the CSV writer and
BatchStatistics.mean_true_state.  :func:`simulate` runs the driver with one
trajectory and keeps every state; :func:`batch_statistics` runs all
trajectories and keeps fidelity curves plus the batch-mean true state; the
command line's trajectory CSVs (:func:`_write_trajectory_csvs`) run a group
of trajectories at a time and take each measure column in one call over
the group's records.  simulate(cfg, i) is row i of batch_statistics(cfg,
n_traj): the same jumps, and fidelities that agree to round-off
(measures.fidelity on the trajectory's dense states, as
:func:`write_trajectory_csv` evaluates them).  Every CSV the group writer
writes is, byte for byte, the one write_trajectory_csv(simulate(cfg, i))
writes.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import measures
from .channels import KrausChannel, OutcomePartition, _factor_probs, _factor_update
from .linalg import _any, _psd_factor
from .states import make_density
from .tolerances import ZERO_PROB_TOL

# Distinct histories per kernel call inside _step.  A step's temporaries (the true
# factors' m Kraus products in the probability pass, each new pair's block products
# and their QR in the update pass) then stay near 200 kB at n = m = 3 however many
# histories a batch carries.  Chosen by peak RSS: in five 4 s lockstep benchmark
# runs each, chunks of 256 peaked where chunks of 64 did (42.6 MB), and chunks of
# 512 and 1024 peaked 0.6 and 1.0 MB higher, for no more throughput.
_LOCKSTEP_CHUNK = 256
# Matrix entries of trajectory records that the CSV writer holds at once, unless one
# trajectory has more.  The measure calls' temporaries take several times the records'
# memory: in groups of 64 trajectories of 101 records at n = 3, a 1000-trajectory
# `qfilter simulate` peaked 8 MB higher in RSS than one trajectory at a time, and at
# this budget (9 trajectories a group) no higher.
_GROUP_ENTRIES = 2**13

# Draws from one step of a trajectory to its next: numpy's PCG64.jumped step, (phi - 1) 2^128.
# Not 2^64: an LCG modulo 2^128 repeats its low 64 state bits with period 2^64, and steps 0 and 1
# of 2^20 trajectories, 2^64 draws apart, read a mean XOR popcount of 31.96 of 64 bits, z = -10
# against Binomial(64, 1/2), at seeds 1 and 987654321.  At this stride |z| <= 1.85 over 2^20
# pairs (k, k + 1) from 2^20, 2^15, 1024 or 256 trajectories, at seeds 0, 1, 5, 7 and 987654321.
_STEP_STRIDE = 210306068529402873165736369884012333109

ChannelSource = Union[KrausChannel, Sequence[KrausChannel], Callable[[int, np.ndarray], KrausChannel]]

TRAJECTORY_COLUMNS = (
    "k",
    "outcome",
    "fidelity",
    "trace_distance",
    "frobenius",
    "purity_true",
    "purity_estimate",
    "fallback_used",
)


class SimulationError(RuntimeError):
    """A step failed; the partial trajectory is attached as .trajectory."""

    def __init__(self, message: str, trajectory: "JointTrajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class JointStep:
    """One record of the coupled chain.

    `outcome` is the jump index that produced this pair of states (None for
    the initial record); `fallback_used` marks an estimate update that had to
    fall back to xi.  The states are dense: the validated inputs at k = 0,
    then the engine's L L†, made Hermitian.
    """

    k: int
    outcome: int | None
    true_state: np.ndarray
    estimate: np.ndarray
    fallback_used: bool = False


@dataclass
class JointTrajectory:
    steps: list[JointStep]

    @property
    def outcomes(self) -> list[int]:
        return [s.outcome for s in self.steps if s.outcome is not None]


@dataclass
class SimulationConfig:
    """Inputs of a trajectory run; `channel` is fixed, per-step, or feedback.

    A feedback selector is a callable (k, rho_hat_k) -> KrausChannel; it is
    never shown the true state.
    """

    channel: ChannelSource
    rho0: np.ndarray
    rho_hat0: np.ndarray
    steps: int
    partition: OutcomePartition | None = None
    fallback: np.ndarray | None = None
    seed: int | None = None

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Check every input; returns rho0 and rho_hat0 as validated density matrices."""
        rho0 = make_density(self.rho0)
        rho_hat0 = make_density(self.rho_hat0)
        if rho0.shape != rho_hat0.shape:
            raise ValueError(
                f"rho0 and rho_hat0 dims differ: {rho0.shape} vs {rho_hat0.shape}"
            )
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.seed is None:
            raise ValueError("a seed is required for reproducible simulation")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.fallback is not None and make_density(self.fallback).shape != rho0.shape:
            raise ValueError(f"fallback has shape {np.shape(self.fallback)}, rho0 has dimension {len(rho0)}")
        if isinstance(self.channel, KrausChannel):
            fixed = {"channel": self.channel}
        elif callable(self.channel):  # a feedback selector picks its channels during the run
            fixed = {}
        elif len(self.channel) < self.steps:
            raise ValueError(f"per-step channel list has {len(self.channel)} entries for {self.steps} steps")
        else:
            fixed = {f"channel[{k}]": ch for k, ch in enumerate(self.channel)}
        for name, ch in fixed.items():
            if ch.dim != len(rho0):
                raise ValueError(f"{name} has dimension {ch.dim}, rho0 has dimension {len(rho0)}")
        return rho0, rho_hat0

    def channel_at(self, k: int, rho_hat: np.ndarray) -> KrausChannel:
        if isinstance(self.channel, KrausChannel):
            return self.channel
        if callable(self.channel):
            return self.channel(k, rho_hat)
        return self.channel[k]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for part in self._fingerprint_parts():
            h.update(part)
        return h.hexdigest()[:16]

    def _fingerprint_parts(self):
        if isinstance(self.channel, KrausChannel):
            yield np.ascontiguousarray(self.channel.operators).tobytes()
        elif callable(self.channel):
            yield getattr(self.channel, "__qualname__", repr(self.channel)).encode()
        else:
            for ch in self.channel:
                yield np.ascontiguousarray(ch.operators).tobytes()
        yield np.ascontiguousarray(np.asarray(self.rho0, dtype=complex)).tobytes()
        yield np.ascontiguousarray(np.asarray(self.rho_hat0, dtype=complex)).tobytes()
        yield str(self.steps).encode()
        if self.partition is not None:
            yield repr(self.partition.blocks).encode()
        if self.fallback is not None:
            yield np.ascontiguousarray(np.asarray(self.fallback, dtype=complex)).tobytes()
        yield str(self.seed).encode()


def simulate(cfg: SimulationConfig, traj_index: int = 0) -> JointTrajectory:
    """Run one trajectory of cfg.steps transitions, deterministic given the seed.

    Step k draws (k J + traj_index) mod 2^128 of default_rng(cfg.seed)'s
    stream (J = _STEP_STRIDE, traj_index below 2^64), so simulate(cfg, i) is
    exactly trajectory i of a batch.  The engine is :func:`_lockstep` on a
    batch of one (one trajectory, one history); each record holds the dense
    states L L†, and a feedback selector is shown the record's estimate.
    """
    rho0, hat0 = cfg.validate()
    if not isinstance(traj_index, (int, np.integer)) or not 0 <= int(traj_index) < 2**64:
        raise ValueError(f"traj_index must be a non-negative integer below 2^64, got {traj_index!r}")
    run = _lockstep(cfg, rho0, hat0, range(traj_index, traj_index + 1), dense=True)
    next(run)  # the inputs, kept as given
    records = [JointStep(0, None, rho0, hat0, False)]
    try:
        for idx, _, used, pairs in run:
            records.append(JointStep(len(records), int(idx[0]), pairs[0, 0], pairs[1, 0], bool(used[0])))
    except ValueError as exc:
        raise SimulationError(f"step {len(records) - 1} failed: {exc}", JointTrajectory(records)) from exc
    return JointTrajectory(records)


@dataclass
class BatchStatistics:
    """Per-step summaries of a lockstep batch run."""

    fidelity: np.ndarray  # (n_traj, steps + 1)
    outcomes: np.ndarray  # (n_traj, steps)
    mean_true_state: np.ndarray  # (steps + 1, n, n)
    fallback_counts: np.ndarray  # (steps,)

    @property
    def mean_fidelity(self) -> np.ndarray:
        return self.fidelity.mean(axis=0)

    def step_gain_z_scores(self) -> np.ndarray:
        """z-score of each per-step mean fidelity gain against its paired stderr.

        Entry k scores mean(F_{k+1} - F_k); positive means the batch mean
        increased.  Steps whose gain is identically zero across the batch
        score +inf (an exact martingale step never counts as a decrease).
        Needs at least two trajectories, since one has no standard error.
        """
        if self.fidelity.shape[0] < 2:
            raise ValueError(
                f"step-gain z-scores need at least 2 trajectories, got {self.fidelity.shape[0]}"
            )
        diff = np.diff(self.fidelity, axis=1)
        mean = diff.mean(axis=0)
        stderr = diff.std(axis=0, ddof=1) / np.sqrt(diff.shape[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderr > 0, mean / stderr, np.where(mean >= 0, np.inf, -np.inf))
        return z


def batch_statistics(cfg: SimulationConfig, n_traj: int) -> BatchStatistics:
    """Advance n_traj trajectories in lockstep on stacked factors.

    Row i is simulate(cfg, i): the same draws of one stream, stepped by
    :func:`_lockstep` alike.  The engine carries one pair of (n, n)
    factors per distinct outcome history, not per trajectory (a coarse
    block's columns compressed back to n by a QR, see :func:`_step`), so
    each history's probabilities, update and fidelity (one batched SVD of
    the products L_hat† L_rho per step) are computed once and gathered to
    its trajectories.  The batch-mean true state is the only state built
    dense, from every trajectory's factor in trajectory order.  Feedback
    channel selectors are not supported here, since each trajectory would
    need its own channel; run simulate(cfg, i) for i in range(n_traj) for
    those.
    """
    rho0, hat0 = cfg.validate()
    if _feedback(cfg):
        raise ValueError("feedback channel selectors are not supported by batch_statistics")
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    steps, n = cfg.steps, len(rho0)
    fid = np.empty((n_traj, steps + 1))
    outcomes = np.empty((n_traj, steps), dtype=np.int64)
    mean_true = np.empty((steps + 1, n, n), dtype=complex)
    mean_true[0] = rho0
    fallback_counts = np.zeros(steps, dtype=np.int64)
    for k, (idx, inv, used, live) in enumerate(_lockstep(cfg, rho0, hat0, range(n_traj))):
        fid[:, k] = _fidelity(live[1], live[0])[inv]
        if k:
            outcomes[:, k - 1] = idx
            fallback_counts[k - 1] = used.sum()
            # sum_b L_b L_b† as one product of the trajectories' factors side by side
            side = live[0].transpose(1, 0, 2)[:, inv].reshape(n, -1)
            mean_true[k] = _hermitian(side @ side.conj().T) / n_traj

    return BatchStatistics(fid, outcomes, mean_true, fallback_counts)


def _lockstep(cfg: SimulationConfig, rho0: np.ndarray, hat0: np.ndarray, keys: range, dense: bool = False):
    """Run trajectories `keys` of cfg, validated as rho0 and hat0, in lockstep: one :func:`_step` per step for all.

    Yields one (indices, inv, fallback flags, pairs) per record k = 0 ..
    cfg.steps: indices and flags (one per trajectory) are None at k = 0,
    and inv maps each trajectory to its history.  pairs is a (2, H, n, n)
    stack over the H live histories, the true states' first: their factors,
    a view that the next step overwrites, or with `dense` the states
    themselves (the inputs at k = 0, then the engine's L L†, made
    Hermitian).  At step k trajectory keys[j] takes draw (k J + keys[j]) mod
    2^128 of default_rng(cfg.seed), J = _STEP_STRIDE, so it gets the jumps
    and bits it gets alone.  The contiguous keys make a step's draws
    consecutive: one generator per run draws them and then skips the other
    trajectories' draws to the next step.  A feedback selector is shown
    history 0's dense estimate, so it runs with `dense` and one trajectory.
    """
    rng = np.random.default_rng(cfg.seed)
    rng.bit_generator.advance(keys.start)
    factors = np.empty((2, len(keys)) + rho0.shape, dtype=complex)
    factors[:, 0] = _psd_factor(np.stack([rho0, hat0]))[0]
    inv = np.zeros(len(keys), dtype=np.intp)
    pairs = np.stack([rho0, hat0])[:, None] if dense else factors[:, :1]
    yield None, inv, None, pairs
    for k in range(cfg.steps):
        ch = cfg.channel_at(k, pairs[1, 0])
        if ch.dim != len(rho0):  # a feedback selector's pick, unseen by validate
            raise ValueError(f"channel at step {k} has dimension {ch.dim}, rho0 has dimension {len(rho0)}")
        u = rng.random(len(keys))
        rng.bit_generator.advance(_STEP_STRIDE - len(keys))
        idx, inv, used = _step(ch, cfg.partition, factors, inv, u, cfg.fallback)
        pairs = factors[:, : int(inv.max()) + 1]
        if dense:
            pairs = _hermitian(pairs @ pairs.conj().swapaxes(-1, -2))
        yield idx, inv, used, pairs


def _feedback(cfg: SimulationConfig) -> bool:
    """Whether cfg's channel is a feedback selector."""
    return not isinstance(cfg.channel, KrausChannel) and callable(cfg.channel)


def write_trajectory_csv(traj: JointTrajectory, file) -> None:
    """One CSV row per step: the columns in TRAJECTORY_COLUMNS.

    The initial record is written with outcome -1.  Each measure column is
    one call on the stacked states of the trajectory.  Floats carry 17
    significant digits so round-trips are lossless.
    """
    values = _measure_columns(
        np.stack([s.estimate for s in traj.steps]), np.stack([s.true_state for s in traj.steps])
    )
    records = ((s.k, -1 if s.outcome is None else s.outcome, s.fallback_used) for s in traj.steps)
    _write_csv(file, records, values.tolist())


def _write_trajectory_csvs(cfg: SimulationConfig, n_traj: int, path: Callable[[int], object]) -> np.ndarray:
    """write_trajectory_csv(simulate(cfg, i), path(i)) for i in range(n_traj), byte for byte; returns the final fidelities.

    The trajectories run in :func:`_lockstep` a group at a time: at most
    _LOCKSTEP_CHUNK of them, fewer where their records would pass
    _GROUP_ENTRIES matrix entries (never fewer than one), and a feedback
    selector's one at a time.  Each group's measure columns come from one
    call per measure over all its records; each record gets the bits it
    gets in its own trajectory's stack.
    """
    rho0, hat0 = cfg.validate()
    fit = _GROUP_ENTRIES // ((cfg.steps + 1) * rho0.size)
    width = 1 if _feedback(cfg) else max(1, min(_LOCKSTEP_CHUNK, fit))
    final = np.empty(n_traj)
    for start in range(0, n_traj, width):
        keys = range(start, min(start + width, n_traj))
        # (true states and estimates, trajectory, record, n, n), trajectory-major as each CSV reads them
        states = np.empty((2, len(keys), cfg.steps + 1) + rho0.shape, dtype=complex)
        outcomes = np.full((len(keys), cfg.steps + 1), -1, dtype=np.int64)
        used = np.zeros((len(keys), cfg.steps + 1), dtype=bool)
        for k, (idx, inv, flags, pairs) in enumerate(_lockstep(cfg, rho0, hat0, keys, dense=True)):
            states[:, :, k] = pairs[:, inv]
            if k:
                outcomes[:, k], used[:, k] = idx, flags
        values = _measure_columns(states[1], states[0])
        for key, outcome, flag, rows in zip(keys, outcomes.tolist(), used.tolist(), values.tolist()):
            _write_csv(path(key), zip(range(cfg.steps + 1), outcome, flag), rows)
        final[keys] = values[:, -1, 0]
    return final


def _measure_columns(estimates: np.ndarray, true_states: np.ndarray) -> np.ndarray:
    """The five measure columns of TRAJECTORY_COLUMNS for stacks of records (..., n, n), one call per measure."""
    columns = (
        measures.fidelity(estimates, true_states),
        measures.trace_distance(estimates, true_states),
        measures.frobenius_inner(estimates, true_states),
        measures.purity(true_states),
        measures.purity(estimates),
    )
    return np.stack(columns, axis=-1)


def _write_csv(file, records, values) -> None:
    """A trajectory CSV: one row per (k, outcome, fallback flag) record with its row of five measure values."""
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", newline="") if own else file
    try:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for (k, outcome, used), row in zip(records, values):
            fh.write("{},{},{},{},{},{},{},{}\n".format(k, outcome, *map(_fmt, row), int(used)))
    finally:
        if own:
            fh.close()


def trajectory_to_csv_string(traj: JointTrajectory) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _step(
    ch: KrausChannel,
    partition: OutcomePartition | None,
    factors: np.ndarray,
    inv: np.ndarray,
    u: np.ndarray,
    fallback: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One transition, in place, of B coupled chains that share H distinct outcome histories.

    factors is a (2, B, n, n) stack whose first H rows hold the histories:
    factors[0, h] = L_h and factors[1, h] = H_h, so the true state is
    L_h L_h† and the estimate H_h H_h†.  Trajectory b has history inv[b]
    (inv takes every value in range(H)) and uniform u[b].  Each jump index is
    the inverse CDF of u[b] over its history's exact block probabilities
    ||[M_mu L]_block||_F^2, residual mass going to the last block; a block of
    probability <= ZERO_PROB_TOL is never chosen (the most probable one is).
    Only the true factors take all m products, and only for these
    probabilities.  Each new history (parent, block) is then updated once:
    both factors form only their block's products [M_mu L]_block, each over
    its own Frobenius norm, a coarse block compressed back to n columns by
    QR.  The estimate's block probability is its squared norm, and the
    estimate falls back to xi's factor where that vanishes.

    The kernels run on at most _LOCKSTEP_CHUNK histories at a time, and no
    product outlives its chunk.  The new histories, in increasing (parent,
    block) order, overwrite the first H' rows: every parent has a child, so
    new history j has a parent h <= j, and writing the chunks from the last
    one down never overwrites a parent still to be read.  Where each
    history has one trajectory (always in simulate's batch of one), each
    child keeps its parent's row.  Returns (indices, the new inv, the
    estimates' fallback flags), each of length B.
    """
    n, H = factors.shape[-1], int(inv.max()) + 1
    nb = ch.num_outcomes if partition is None else partition.num_blocks
    true_probs = np.concatenate([_factor_probs(ch, factors[0, s], partition) for s in _chunks(H)])
    # u past every cut but the last lands in the last block, residual mass included
    idx = (u[:, None] >= true_probs.cumsum(axis=-1)[inv, :-1]).sum(axis=-1)
    degenerate = true_probs[inv, idx] <= ZERO_PROB_TOL
    if _any(degenerate):
        idx[degenerate] = true_probs[inv[degenerate]].argmax(axis=-1)
    if H == len(inv):
        # one trajectory per history, so one child each, which keeps its parent's row
        parent, block = None, np.empty_like(idx)
        block[inv] = idx
    else:
        # the new histories: the distinct keys parent * nb + block, in increasing order
        keys = inv * nb + idx
        taken = np.zeros(H * nb, dtype=bool)
        taken[keys] = True
        parent, block = np.divmod(np.flatnonzero(taken), nb)
        inv = (np.cumsum(taken) - 1)[keys]
    used = np.empty(len(block), dtype=bool)
    for s in reversed(_chunks(len(block))):
        rows = s if parent is None else parent[s]
        b = np.concatenate([block[s], block[s]])
        pair, flags = _factor_update(ch, b, factors[:, rows].reshape(-1, n, n), partition, fallback)
        factors[:, s] = pair.reshape(2, -1, n, n)
        used[s] = flags[len(b) // 2 :]
    return idx, inv, used[inv]


def _chunks(count: int) -> list[slice]:
    """Slices of at most _LOCKSTEP_CHUNK rows covering range(count)."""
    return [slice(start, min(start + _LOCKSTEP_CHUNK, count)) for start in range(0, count, _LOCKSTEP_CHUNK)]


def _fidelity(hat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """F(H H†, L L†) of each pair of a factor stack: one batched SVD of H† L."""
    return measures._fidelity_of_cross(hat.conj().swapaxes(-1, -2) @ rho)


def _hermitian(A: np.ndarray) -> np.ndarray:
    """(A + A†) / 2: exactly Hermitian, where a product L L† is so only up to round-off."""
    return (A + A.conj().swapaxes(-1, -2)) / 2

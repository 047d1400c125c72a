"""The coupled Markov chain: true state + filter estimate driven by shared jumps.

Each step samples a jump index from the TRUE state's outcome distribution and
applies the same conditional update to both the true state rho_k and the
estimate rho_hat_k; the estimate falls back to xi when its own block
probability vanishes.  Channels may be fixed, per-step, or chosen by a
feedback rule that sees only (k, rho_hat_k).

Randomness: one uniform per step, inverse-CDF over the exact outcome
probabilities (residual mass goes to the last block).  Trajectory i of a
batch uses the child generator SeedSequence(seed, spawn_key=(i,)) and draws
its `steps` uniforms in one call (the same values as one draw per step), so
batches are reproducible and order-independent.

One engine runs the chain: a step function on stacks of B pairs of states,
each state carried as a square factor L with rho = L L†.  The factors of
rho0, rho_hat0 (and of the fallback, when it is used) come from one
eigendecomposition with the PSD check of :func:`qfilter.linalg.psd_sqrt`;
after that no state is decomposed again.  A jump of block b maps L to
[M_mu L]_{mu in b} / ||.||_F, a coarse block's k n columns compressed back
to n by a QR, so the engine cannot produce a state that is not positive
semidefinite.  The fidelity of a pair is (sum of singular values of
L_hat† L)^2, one SVD.

Dense states appear only where the API hands them out: JointStep.true_state
and JointStep.estimate (L L†, made Hermitian), the estimate shown to a
feedback selector, and BatchStatistics.mean_true_state.
:func:`simulate` runs the engine with B = 1 and keeps every state;
:func:`batch_statistics` runs all trajectories in lockstep and keeps fidelity
curves plus the batch-mean true state.  simulate(cfg, i) is row i of
batch_statistics(cfg, n_traj): the same jumps, and fidelities that agree to
round-off (measures.fidelity on the trajectory's dense states, as
:func:`write_trajectory_csv` evaluates them).
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

# Trajectories per _step call in batch_statistics: a step's temporaries (the
# m Kraus products of each factor, the gathered blocks and their QR) then stay
# near a megabyte however large the batch, at no measurable cost in speed.
_LOCKSTEP_CHUNK = 256

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
        if self.fallback is not None:
            make_density(self.fallback)
        if not isinstance(self.channel, KrausChannel) and not callable(self.channel):
            if len(self.channel) < self.steps:
                raise ValueError(
                    f"per-step channel list has {len(self.channel)} entries for {self.steps} steps"
                )
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

    The generator is the child SeedSequence(cfg.seed, spawn_key=(traj_index,)),
    so simulate(cfg, i) is exactly trajectory i of a batch.  The engine is
    :func:`_step` on a batch of one; each record holds the dense states L L†,
    and a feedback selector is shown the record's estimate.
    """
    rho0, hat0 = cfg.validate()
    u = _uniforms(cfg, traj_index)
    pair = _psd_factor(np.stack([rho0, hat0]))[0]
    records = [JointStep(0, None, rho0, hat0, False)]
    for k in range(cfg.steps):
        try:
            ch = cfg.channel_at(k, records[-1].estimate)
            idx, pair, used = _step(ch, cfg.partition, pair, u[k : k + 1], cfg.fallback)
        except ValueError as exc:
            raise SimulationError(f"step {k} failed: {exc}", JointTrajectory(records)) from exc
        rho, hat = _hermitian(pair @ pair.conj().swapaxes(-1, -2))  # the dense L L† and H H†
        records.append(JointStep(k + 1, int(idx[0]), rho, hat, bool(used[0])))
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

    Row i is simulate(cfg, i): the same child generator, one uniform per
    step, the same step function, run on chunks of _LOCKSTEP_CHUNK
    trajectories.  The states stay (n_traj, n, n) factors throughout (a
    coarse block's columns compressed back to n by a QR, see :func:`_step`):
    each fidelity is one batched SVD of the products L_hat† L_rho, and the
    batch-mean true state is the only state built dense.  Feedback channel
    selectors are not supported here, since each trajectory would need its
    own channel; run simulate(cfg, i) for i in range(n_traj) for those.
    """
    rho0, hat0 = cfg.validate()
    if not isinstance(cfg.channel, KrausChannel) and callable(cfg.channel):
        raise ValueError("feedback channel selectors are not supported by batch_statistics")
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")

    steps = cfg.steps
    u = np.stack([_uniforms(cfg, i) for i in range(n_traj)], axis=1)  # (steps, n_traj)

    n = len(rho0)
    factors = _psd_factor(np.stack([rho0, hat0]))[0]
    fid = np.empty((n_traj, steps + 1))
    fid[:, 0] = _fidelity(factors[1:], factors[:1])
    factors = np.repeat(factors[:, None], n_traj, axis=1)  # (2, n_traj, n, n): true states, estimates
    outcomes = np.empty((n_traj, steps), dtype=np.int64)
    mean_true = np.empty((steps + 1, n, n), dtype=complex)
    mean_true[0] = rho0
    fallback_counts = np.zeros(steps, dtype=np.int64)

    for k in range(steps):
        ch = cfg.channel_at(k, hat0)
        for start in range(0, n_traj, _LOCKSTEP_CHUNK):
            s = slice(start, start + _LOCKSTEP_CHUNK)
            idx, pair, used = _step(ch, cfg.partition, factors[:, s].reshape(-1, n, n), u[k, s], cfg.fallback)
            factors[:, s] = pair.reshape(2, -1, n, n)
            outcomes[s, k] = idx
            fallback_counts[k] += used.sum()
        rho = factors[0]
        fid[:, k + 1] = _fidelity(factors[1], rho)
        # sum_b L_b L_b† as one product of the factors' columns side by side
        side = rho.transpose(1, 0, 2).reshape(n, -1)
        mean_true[k + 1] = _hermitian(side @ side.conj().T) / n_traj

    return BatchStatistics(fid, outcomes, mean_true, fallback_counts)


def write_trajectory_csv(traj: JointTrajectory, file) -> None:
    """One CSV row per step: the columns in TRAJECTORY_COLUMNS.

    The initial record is written with outcome -1.  Each measure column is
    one call on the stacked states of the trajectory.  Floats carry 17
    significant digits so round-trips are lossless.
    """
    estimates = np.stack([s.estimate for s in traj.steps])
    true_states = np.stack([s.true_state for s in traj.steps])
    columns = zip(
        measures.fidelity(estimates, true_states).tolist(),
        measures.trace_distance(estimates, true_states).tolist(),
        measures.frobenius_inner(estimates, true_states).tolist(),
        measures.purity(true_states).tolist(),
        measures.purity(estimates).tolist(),
    )
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", newline="") if own else file
    try:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for s, values in zip(traj.steps, columns):
            fh.write(
                "{},{},{},{},{},{},{},{}\n".format(
                    s.k,
                    -1 if s.outcome is None else s.outcome,
                    *(_fmt(v) for v in values),
                    int(s.fallback_used),
                )
            )
    finally:
        if own:
            fh.close()


def trajectory_to_csv_string(traj: JointTrajectory) -> str:
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _uniforms(cfg: SimulationConfig, traj_index: int) -> np.ndarray:
    """The cfg.steps uniforms of trajectory traj_index, from its child generator."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(traj_index,))).random(cfg.steps)


def _step(
    ch: KrausChannel,
    partition: OutcomePartition | None,
    pair: np.ndarray,
    u: np.ndarray,
    fallback: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One transition of B coupled chains, given B uniforms and a (2B, n, n) factor stack.

    Rows :B of `pair` are the true states' factors L_b, rows B: the
    estimates' H_b, so rho_b = L_b L_b† and rho_hat_b = H_b H_b†.  Each jump
    index is the inverse CDF of u over rho's exact block probabilities
    ||[M_mu L]_block||_F^2, residual mass going to the last block; a block
    of probability <= ZERO_PROB_TOL is never chosen (the most probable one
    is).  Both factors then take the same block update, [M_mu L]_block over
    its Frobenius norm, a coarse block compressed back to n columns by QR;
    the estimate falls back to xi's factor where its own block probability
    vanishes.  Returns (indices, the new pair stack, the estimates' fallback
    flags), indices and flags of length B.
    """
    B = len(u)
    T, probs = _factor_probs(ch, pair, partition)
    true_probs = probs[:B]
    # u past every cut but the last lands in the last block, residual mass included
    idx = (u[:, None] >= true_probs.cumsum(axis=-1)[:, :-1]).sum(axis=-1)
    degenerate = true_probs[np.arange(B), idx] <= ZERO_PROB_TOL
    if _any(degenerate):
        idx[degenerate] = true_probs[degenerate].argmax(axis=-1)
    pair, used = _factor_update(ch, np.concatenate([idx, idx]), T, probs, partition, fallback)
    return idx, pair, used[B:]


def _fidelity(hat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """F(H H†, L L†) of each pair of a factor stack: one batched SVD of H† L."""
    return measures._fidelity_of_cross(hat.conj().swapaxes(-1, -2) @ rho)


def _hermitian(A: np.ndarray) -> np.ndarray:
    """(A + A†) / 2: exactly Hermitian, where a product L L† is so only up to round-off."""
    return (A + A.conj().swapaxes(-1, -2)) / 2

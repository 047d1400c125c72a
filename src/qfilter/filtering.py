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

One engine runs the chain: a step function on stacks of B states.
:func:`simulate` runs it with B = 1 and keeps every state;
:func:`batch_statistics` runs all trajectories in lockstep and keeps fidelity
curves plus the batch-mean true state.  simulate(cfg, i) is row i of
batch_statistics(cfg, n_traj): the same jumps, and the same fidelities up to
the last-bit differences between batched and single LAPACK calls.  Both
follow one fidelity policy: an eigenvalue below -EIGENVALUE_CLAMP raises "not
positive semidefinite" (see :func:`qfilter.linalg.psd_sqrt`), in a trajectory's
fidelities() as in a batch.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from . import measures
from .channels import KrausChannel, OutcomePartition, conditional_update, outcome_probs
from .linalg import _any
from .states import make_density
from .tolerances import ZERO_PROB_TOL

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
    fall back to xi.
    """

    k: int
    outcome: int | None
    true_state: np.ndarray
    estimate: np.ndarray
    fallback_used: bool = False


@dataclass
class JointTrajectory:
    steps: list[JointStep]
    config_fingerprint: str
    seed: int | None
    traj_index: int = 0

    @property
    def outcomes(self) -> list[int]:
        return [s.outcome for s in self.steps if s.outcome is not None]

    def fidelities(self) -> np.ndarray:
        return measures.fidelity(
            np.stack([s.estimate for s in self.steps]), np.stack([s.true_state for s in self.steps])
        )


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

    def validate(self) -> None:
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
    so simulate(cfg, i) is exactly trajectory i of a batch.
    """
    cfg.validate()
    u = _uniforms(cfg, traj_index)
    rho = make_density(cfg.rho0)[None]
    rho_hat = make_density(cfg.rho_hat0)[None]
    records = [JointStep(0, None, rho[0], rho_hat[0], False)]
    for k in range(cfg.steps):
        try:
            ch = cfg.channel_at(k, rho_hat[0])
            idx, rho, rho_hat, used = _step(ch, cfg.partition, rho, rho_hat, u[k : k + 1], cfg.fallback)
        except ValueError as exc:
            partial = JointTrajectory(records, cfg.fingerprint(), cfg.seed, traj_index)
            raise SimulationError(f"step {k} failed: {exc}", partial) from exc
        records.append(JointStep(k + 1, int(idx[0]), rho[0], rho_hat[0], bool(used[0])))
    return JointTrajectory(records, cfg.fingerprint(), cfg.seed, traj_index)


def simulate_batch(cfg: SimulationConfig, n_traj: int) -> list[JointTrajectory]:
    """n_traj independent trajectories; trajectory i uses child seed i.

    Results do not depend on execution order, so this is trivially
    parallelizable; trajectories are produced sequentially here.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    return [simulate(cfg, traj_index=i) for i in range(n_traj)]


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
    """Advance n_traj trajectories in lockstep on stacked arrays.

    Row i is simulate(cfg, i): the same child generator, one uniform per
    step, the same step function.  Feedback channel selectors are not
    supported here, since each trajectory would need its own channel; use
    simulate_batch for those.
    """
    cfg.validate()
    if not isinstance(cfg.channel, KrausChannel) and callable(cfg.channel):
        raise ValueError("feedback channel selectors are not supported by batch_statistics")
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")

    rho0 = make_density(cfg.rho0)
    hat0 = make_density(cfg.rho_hat0)
    steps = cfg.steps
    u = np.stack([_uniforms(cfg, i) for i in range(n_traj)], axis=1)  # (steps, n_traj)

    rho = np.repeat(rho0[None, ...], n_traj, axis=0)
    hat = np.repeat(hat0[None, ...], n_traj, axis=0)
    fid = np.empty((n_traj, steps + 1))
    fid[:, 0] = measures.fidelity(hat, rho)
    outcomes = np.empty((n_traj, steps), dtype=np.int64)
    mean_true = np.empty((steps + 1, *rho0.shape), dtype=complex)
    mean_true[0] = rho0
    fallback_counts = np.zeros(steps, dtype=np.int64)

    for k in range(steps):
        idx, rho, hat, used = _step(cfg.channel_at(k, hat0), cfg.partition, rho, hat, u[k], cfg.fallback)
        outcomes[:, k] = idx
        fallback_counts[k] = used.sum()
        fid[:, k + 1] = measures.fidelity(hat, rho)
        mean_true[k + 1] = rho.mean(axis=0)

    return BatchStatistics(fid, outcomes, mean_true, fallback_counts)


def write_trajectory_csv(traj: JointTrajectory, file) -> None:
    """One CSV row per step: the columns in TRAJECTORY_COLUMNS.

    The initial record is written with outcome -1.  Floats carry 17
    significant digits so round-trips are lossless.
    """
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", newline="") if own else file
    try:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\n")
        for s in traj.steps:
            fh.write(
                "{},{},{},{},{},{},{},{}\n".format(
                    s.k,
                    -1 if s.outcome is None else s.outcome,
                    _fmt(measures.fidelity(s.estimate, s.true_state)),
                    _fmt(measures.trace_distance(s.estimate, s.true_state)),
                    _fmt(measures.frobenius_inner(s.estimate, s.true_state)),
                    _fmt(measures.purity(s.true_state)),
                    _fmt(measures.purity(s.estimate)),
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


def trajectory_to_dict(traj: JointTrajectory, include_states: bool = False) -> dict:
    """JSON-compatible dump; include_states adds full matrix encodings."""
    from .states import matrix_to_dict

    steps = []
    for s in traj.steps:
        rec = {
            "k": s.k,
            "outcome": -1 if s.outcome is None else s.outcome,
            "fallback_used": bool(s.fallback_used),
            "fidelity": measures.fidelity(s.estimate, s.true_state),
        }
        if include_states:
            rec["true_state"] = matrix_to_dict(s.true_state)
            rec["estimate"] = matrix_to_dict(s.estimate)
        steps.append(rec)
    return {
        "config_fingerprint": traj.config_fingerprint,
        "seed": traj.seed,
        "traj_index": traj.traj_index,
        "steps": steps,
    }


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _uniforms(cfg: SimulationConfig, traj_index: int) -> np.ndarray:
    """The cfg.steps uniforms of trajectory traj_index, from its child generator."""
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(traj_index,))).random(cfg.steps)


def _step(
    ch: KrausChannel,
    partition: OutcomePartition | None,
    rho: np.ndarray,
    hat: np.ndarray,
    u: np.ndarray,
    fallback: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One transition of B coupled chains: (B, n, n) states, B uniforms.

    Each jump index is the inverse CDF of u over rho's exact block
    probabilities, residual mass going to the last block; a block of
    probability <= ZERO_PROB_TOL is never chosen (the most probable one is).
    Both states then take the same conditional update, the estimate falling
    back to xi where its own block probability vanishes.  Returns
    (indices, new rho, new estimate, fallback flags), each of length B.
    """
    probs = outcome_probs(ch, rho, partition)
    # u past every cut but the last lands in the last block, residual mass included
    idx = (u[:, None] >= probs.cumsum(axis=-1)[:, :-1]).sum(axis=-1)
    degenerate = probs[np.arange(len(idx)), idx] <= ZERO_PROB_TOL
    if _any(degenerate):
        idx[degenerate] = probs[degenerate].argmax(axis=-1)
    taken = set(idx.tolist())
    new_rho, new_hat = np.empty_like(rho), np.empty_like(hat)
    used = np.empty(len(idx), dtype=bool)
    for v in taken:
        sel = idx == v if len(taken) > 1 else slice(None)  # one jump for all: no gather
        new_rho[sel] = conditional_update(ch, v, rho[sel], partition, fallback)[0]
        new_hat[sel], used[sel] = conditional_update(ch, v, hat[sel], partition, fallback)
    return idx, new_rho, new_hat, used

"""The four benchmark workloads: seeded inputs, one item at a time, gates and digests.

Each workload builds its inputs from the benchmark seed in its constructor
(that is the set-up the benchmark times) and then runs numbered items.  Item
i always does the same work for the same seed, so a failed item is rebuilt
and replayed from (workload, seed, i) alone.  The program only ever sees the
generated inputs, through the public ``qfilter`` modules.

Why these workloads:

* ``lockstep_batch`` keeps the batched kernels busy (``eigh``/``svd``/
  ``einsum`` on (B, 3, 3) stacks, per-trajectory generators);
* ``exact_suite`` runs many small scalar kernels per instance, so per-item
  latency matters, and carries a near-null slice that exposes the known
  "not positive semidefinite" crash of the exact checks;
* ``proof_replay`` is the only workload that builds the dense dilation lift,
  whose size grows as (n^2 m)^2;
* ``cli_session`` runs the same kernels one matrix at a time beside file
  writes, so a change that helps the lockstep path but slows the scalar
  ``simulate``/``step_joint`` path shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qfilter import channels, cli, dilation, filtering, states, verify

# Gate thresholds are the benchmark's own copies, so a change to the library's
# tolerances cannot loosen the gates.
GAP_TOL = 1e-9
MEAN_EVOLUTION_TOL = 1e-12
COUNTEREXAMPLE_TOL = 1e-12
OVERLAP_TOL = 1e-10
Z_SCORE_FLOOR = -3.0


@dataclass
class ItemResult:
    digest: bytes  # result bytes folded into the workload digest
    violation: str | None = None  # the first correctness gate the item broke
    counts: dict[str, int] = field(default_factory=dict)  # counts read from public results


def child_rng(seed: int, i: int) -> np.random.Generator:
    """Generator of item i: every item is rebuilt from (seed, i) alone."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def item_seed(seed: int, i: int) -> int:
    """Integer seed handed to the program for item i."""
    return int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])


class Workload:
    """Base: a seeded item stream.  Subclasses set the class attributes below."""

    name = ""
    units_per_item = 1  # throughput units one item completes
    window = 1  # items per throughput window: one full cycle of the input mix
    digest_items = 1  # every run completes and digests at least this prefix

    def __init__(self, seed: int):
        self.seed = seed

    def run_item(self, i: int) -> ItemResult:
        raise NotImplementedError

    def tolerated(self, i: int) -> bool:
        """True when a failure of item i is the known defect this workload exposes."""
        return False

    def once(self) -> ItemResult | None:
        """A check run once per run, outside the timed items."""
        return None

    def close(self) -> None:
        pass


class LockstepBatch(Workload):
    """batch_statistics on the criterion-9 configuration, fine and 2-block calls alternating."""

    name = "lockstep_batch"
    batch = 1000
    steps = 10
    units_per_item = batch * steps  # trajectory-steps
    window = 2
    digest_items = 2

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.channel = channels.random_channel(3, 3, rng)
        self.rho0 = states.random_density(3, 3, rng)
        self.coarse = channels.random_partition(3, rng, 2)

    def run_item(self, i):
        cfg = filtering.SimulationConfig(
            channel=self.channel,
            rho0=self.rho0,
            rho_hat0=states.maximally_mixed(3),
            steps=self.steps,
            partition=None if i % 2 == 0 else self.coarse,
            seed=item_seed(self.seed, i),
        )
        stats = filtering.batch_statistics(cfg, self.batch)
        fid = stats.fidelity
        z = stats.step_gain_z_scores()
        violation = None
        if not (np.isfinite(fid).all() and fid.min() >= 0.0 and fid.max() <= 1.0):
            violation = f"fidelity outside [0, 1]: [{fid.min()!r}, {fid.max()!r}]"
        elif not (z > Z_SCORE_FLOOR).all():
            violation = f"step-gain z-score {z.min():.3f} <= {Z_SCORE_FLOOR}"
        return ItemResult(
            fid.tobytes() + stats.outcomes.tobytes(),
            violation,
            {"filtering.fallbacks": int(stats.fallback_counts.sum())},
        )


class ExactSuite(Workload):
    """The exact one-step battery on an acceptance-like stream with a near-null slice.

    Item i has n = 2 + i % 3 and m = 2 + (i // 3) % 3.  Items with i % 10 == 0
    use the singleton partition, i % 10 == 5 the trivial one, and i % 10 == 9
    are near-null projective instances (estimate block probability in
    [1e-12, 1e-8]); the rest use a random partition.  The stream repeats with
    period 90, so one window holds every (n, m, kind) combination once.
    """

    name = "exact_suite"
    pool_size = 900  # a multiple of the window
    window = 90
    digest_items = 90

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = [self.instance(i) for i in range(self.pool_size)]

    def instance(self, i):
        rng = child_rng(self.seed, i)
        n, m = 2 + i % 3, 2 + (i // 3) % 3
        if self.tolerated(i):
            return near_null_instance(n, min(m, n), rng)
        ch = channels.random_channel(n, m, rng)
        sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        if i % 10 == 0:
            part = channels.singleton_partition(m)
        elif i % 10 == 5:
            part = channels.trivial_partition(m)
        else:
            part = channels.random_partition(m, rng, int(rng.integers(2, m + 1)))
        return ch, sigma, rho, part

    def tolerated(self, i):
        return i % 10 == 9

    def run_item(self, i):
        ch, sigma, rho, part = self.pool[i % self.pool_size]
        fidelity_reports = [
            verify.check_fidelity_submartingale(ch, sigma, rho),
            verify.check_fidelity_submartingale(ch, sigma, rho, part),
            verify.check_kraus_monotonicity(ch, sigma, rho),
        ]
        deviations = [verify.check_mean_evolution(ch, rho), verify.check_mean_evolution(ch, rho, part)]
        reports = fidelity_reports + [
            verify.measure_gap_report(ch, sigma, rho, "trace_distance"),
            verify.measure_gap_report(ch, sigma, rho, "frobenius"),
        ]
        worst_gap = min(r.gap for r in fidelity_reports)
        violation = None
        if not worst_gap >= -GAP_TOL:
            violation = f"fidelity gap {worst_gap:.3e} < -{GAP_TOL:.0e}"
        elif not max(deviations) <= MEAN_EVOLUTION_TOL:
            violation = f"mean-evolution deviation {max(deviations):.3e} > {MEAN_EVOLUTION_TOL:.0e}"
        rows = [r.csv_row() for r in reports] + [repr(d) for d in deviations]
        return ItemResult(
            "\n".join(rows).encode(),
            violation,
            {"verify.fallback_blocks": sum(len(r.fallback_blocks) for r in reports)},
        )

    def once(self):
        rep = verify.counterexample_report()
        got = (rep.d_lhs, rep.d_rhs, rep.f_lhs, rep.f_rhs)
        want = (4.0 / 3.0, 1.0, 1.0 / 3.0, 0.25)
        violation = None
        if not all(abs(g - w) <= COUNTEREXAMPLE_TOL for g, w in zip(got, want)):
            violation = f"counter-example values {got} differ from 4/3, 1, 1/3, 1/4"
        return ItemResult(repr(got).encode(), violation)


def near_null_instance(n: int, m: int, rng: np.random.Generator):
    """Projective channel plus an estimate whose outcome-0 probability is in [1e-12, 1e-8].

    The channel's Kraus operators are orthogonal projectors onto groups of a
    Haar basis; the estimate mixes a state inside the outcome-0 subspace,
    with weight eps, into a state supported on the other outcomes.
    """
    basis = channels.haar_unitary(n, rng)
    labels = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    rng.shuffle(labels)
    ch = channels.validate_channel(
        [basis[:, labels == k] @ basis[:, labels == k].conj().T for k in range(m)]
    )
    inside, outside = basis[:, labels == 0], basis[:, labels != 0]
    eps = 10.0 ** rng.uniform(-12.0, -8.0)
    a = inside @ states.random_density(inside.shape[1], 1, rng) @ inside.conj().T
    k = outside.shape[1]
    b = outside @ states.random_density(k, int(rng.integers(1, k + 1)), rng) @ outside.conj().T
    sigma = (1.0 - eps) * b + eps * a
    rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    return ch, sigma, rho, channels.random_partition(m, rng)


class ProofReplay(Workload):
    """replay_proof with n in [2, 16] and m in [2, 8], odd items with random partitions.

    Sizes follow a log-uniform schedule that is the same in every window of
    25 items, so most replays are small and every seed runs the same mix of
    sizes; the first item of each window is the largest case (n = 16, m = 8),
    which builds a 2048 x 2048 complex lift.  The matrices and partitions are
    drawn from the seed.
    """

    name = "proof_replay"
    pool_size = 500  # a multiple of the window
    window = 25
    digest_items = 25

    def __init__(self, seed):
        super().__init__(seed)
        self.pool = [self.instance(i) for i in range(self.pool_size)]

    def instance(self, i):
        rng = child_rng(self.seed, i)
        j = i % self.window
        if j == 0:
            n, m = 16, 8
        else:  # stratified quantiles; 7 is prime to 24, so m's quantiles are a permutation of n's
            u, v = (j - 0.5) / 24, ((7 * j) % 24 + 0.5) / 24
            n, m = int(round(2 * 8**u)), int(round(2 * 4**v))
        ch = channels.random_channel(n, m, rng)
        sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        part = channels.random_partition(m, rng) if i % 2 else None
        return ch, sigma, rho, part

    def run_item(self, i):
        ch, sigma, rho, part = self.pool[i % self.pool_size]
        rep = dilation.replay_proof(ch, sigma, rho, part)
        e = rep.link_residuals["e_overlap_vs_fidelity"]
        violation = None
        if not rep.all_links_hold:
            broken = sorted(k for k, ok in rep.links_hold.items() if not ok)
            violation = f"links {broken} do not hold"
        elif not e <= OVERLAP_TOL:
            violation = f"link (e) residual {e:.3e} > {OVERLAP_TOL:.0e}"
        n, m = ch.dim, ch.num_outcomes
        payload = json.dumps([rep.link_residuals, rep.expected_next_fidelity], sort_keys=True)
        # computed, not measured: bytes of one dense (n^2 m)^2 complex lift
        return ItemResult(payload.encode(), violation, {"dilation.lift_bytes": 16 * (n * n * m) ** 2})


class CliSession(Workload):
    """A fixed cycle of in-process ``qfilter.cli.run`` commands writing report files."""

    name = "cli_session"
    commands = (
        ["simulate", "--random-channel", "3,2", "--random-state", "3", "--steps", "10", "--trajectories", "4"],
        ["verify", "--measure", "fidelity", "--trials", "20", "--partition-mode", "random"],
        ["sweep", "--n-values", "2,3", "--m-values", "2,3", "--partition-sizes", "1,2", "--trials", "5"],
        ["dilate", "--random-channel", "3,3", "--random-state", "3,2"],
        ["counterexample"],
    )
    window = len(commands)
    digest_items = 2 * len(commands)
    # relative to the checkout root, so the echoed config (and the digest) is the same in every checkout
    out_dir = Path(".perfbench_work") / "cli"

    def __init__(self, seed):
        super().__init__(seed)
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_item(self, i):
        argv = list(self.commands[i % self.window])
        argv += ["--seed", str(item_seed(self.seed, i)), "--output", str(self.out_dir)]
        console = io.StringIO()
        try:
            with contextlib.redirect_stdout(console):
                code = cli.run(argv)
            files = sorted(p for p in self.out_dir.iterdir() if p.is_file())
            contents = [(p.name, p.read_bytes()) for p in files]
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        violation = None
        if code != 0:
            violation = f"{argv[0]} exited with code {code}"
        else:
            for name, data in contents:
                if name == "report.json" and json.loads(data).get("passed", True) is not True:
                    violation = f"{argv[0]} report.json has passed = false"
        payload = console.getvalue().encode() + b"".join(n.encode() + d for n, d in contents)
        return ItemResult(payload, violation, {"cli.bytes_written": sum(len(d) for _, d in contents)})

    def close(self):
        shutil.rmtree(self.out_dir.parent, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LockstepBatch, ExactSuite, ProofReplay, CliSession)}

"""Exact one-step conditional expectations and the (in)equality battery.

Every expectation here is a finite sum over outcome blocks, so checks are
exact up to round-off; no Monte-Carlo tolerance is involved.  The battery:

* fidelity one-step gain (sub-martingale, any partition),
* fidelity monotonicity under the full Kraus map,
* the mean-evolution identity sum_nu p_nu M_nu(rho) = K(rho),
* the embedded 3-level, 2-outcome counter-example showing the trace
  distance is NOT a super-martingale (4/3 > 1) while the fidelity gain is
  1/3 - 1/4 = 1/12 > 0,
* randomized violation search per measure.

Blocks where the estimate has zero probability enter the sums through the
xi substitution and are recorded in the report, never silently skipped.
Infinite relative-entropy terms with positive weight make the whole
expectation infinite; an infinite expectation against a finite current
value is treated as vacuously non-violating by the search.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import measures
from .channels import (
    KrausChannel,
    OutcomePartition,
    apply_channel,
    conditional_update,
    outcome_probs,
    random_channel,
    random_partition,
    trivial_partition,
    validate_channel,
)
from .states import random_density
from .tolerances import COUNTEREXAMPLE_TOL, GAP_TOL, ZERO_PROB_TOL

#: measure name -> callable(sigma, rho); sigma is the estimate side.
MEASURES = {
    "fidelity": measures.fidelity,
    "trace_distance": measures.trace_distance,
    "frobenius": measures.frobenius_inner,
    # oriented as entropy of the true state relative to the estimate
    "relative_entropy": lambda sigma, rho: measures.relative_entropy(rho, sigma),
}

#: measures expected to not decrease in mean (sub-martingales); the others
#: are conjectured super-martingales whose violations the search hunts for.
SUBMARTINGALE_MEASURES = ("fidelity", "frobenius")

GAP_REPORT_COLUMNS = (
    "measure",
    "lhs",
    "rhs",
    "gap",
    "num_blocks",
    "fallback_blocks",
    "fingerprint",
)


@dataclass(frozen=True)
class GapReport:
    """LHS/RHS of a one-step expectation check; gap = lhs - rhs as computed.

    tol is the slack the verdict :attr:`passed` allows the gap.
    """

    measure: str
    lhs: float
    rhs: float
    gap: float
    partition: OutcomePartition | None
    fallback_blocks: tuple[int, ...]
    fingerprint: str
    tol: float

    @property
    def passed(self) -> bool:
        """The wrong-sign verdict, judged against the measure's expected direction.

        Sub-martingale measures pass when gap >= -tol, the conjectured
        super-martingales when gap <= tol; an infinite side passes vacuously.
        """
        if math.isinf(self.lhs) or math.isinf(self.rhs):
            return True
        if self.measure in SUBMARTINGALE_MEASURES:
            return self.gap >= -self.tol
        return self.gap <= self.tol

    def csv_row(self) -> str:
        num_blocks = self.partition.num_blocks if self.partition is not None else -1
        fb = ";".join(str(i) for i in self.fallback_blocks)
        return "{},{},{},{},{},{},{}".format(
            self.measure,
            format(self.lhs, ".17g"),
            format(self.rhs, ".17g"),
            format(self.gap, ".17g"),
            num_blocks,
            fb,
            self.fingerprint,
        )

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "blocks": None if self.partition is None else [list(b) for b in self.partition.blocks],
            "fallback_blocks": list(self.fallback_blocks),
            "fingerprint": self.fingerprint,
            "passed": self.passed,
        }


def expected_next_measure(
    ch: KrausChannel,
    sigma,
    rho,
    measure: str,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> float:
    """E[ measure(sigma_{k+1}, rho_{k+1}) | sigma, rho ] as an exact finite sum.

    Sums p_nu(rho) * measure(update(sigma), update(rho)) over all blocks with
    p_nu(rho) > ZERO_PROB_TOL; blocks where sigma's probability vanishes use
    the xi substitution.  Infinite terms with positive weight give an
    infinite sum.
    """
    value, _ = _expected_next_detail(ch, sigma, rho, measure, partition, fallback)
    return value


def measure_gap_report(
    ch: KrausChannel,
    sigma,
    rho,
    measure: str,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
    tol: float = GAP_TOL,
) -> GapReport:
    """One-step expectation report for any registered measure.

    The report's `passed` judges the gap against the measure's expected
    direction with slack `tol` (see :attr:`GapReport.passed`).
    """
    lhs, fb = _expected_next_detail(ch, sigma, rho, measure, partition, fallback)
    rhs = MEASURES[measure](sigma, rho)
    return GapReport(
        measure, lhs, rhs, lhs - rhs, partition, fb,
        _fingerprint(ch, sigma, rho, partition), tol,
    )


def check_fidelity_submartingale(
    ch: KrausChannel,
    sigma,
    rho,
    partition: OutcomePartition | None = None,
    fallback: np.ndarray | None = None,
) -> GapReport:
    """One-step fidelity gain report; passes when gap >= -GAP_TOL."""
    return measure_gap_report(ch, sigma, rho, "fidelity", partition, fallback)


def check_kraus_monotonicity(ch: KrausChannel, sigma, rho) -> GapReport:
    """F(K(sigma), K(rho)) - F(sigma, rho); passes when the gap is >= -GAP_TOL."""
    lhs = measures.fidelity(apply_channel(ch, sigma), apply_channel(ch, rho))
    rhs = measures.fidelity(sigma, rho)
    return GapReport(
        "fidelity", lhs, rhs, lhs - rhs, None, (),
        _fingerprint(ch, sigma, rho, None), GAP_TOL,
    )


def check_mean_evolution(
    ch: KrausChannel, rho, partition: OutcomePartition | None = None
) -> float:
    """Max elementwise deviation of sum_nu p_nu(rho) M_nu(rho) from K(rho).

    An algebraic identity: the deviation must stay within MEAN_EVOLUTION_TOL.
    """
    probs = outcome_probs(ch, rho, partition)
    n = ch.dim
    acc = np.zeros((n, n), dtype=complex)
    for nu, p in enumerate(probs):
        if p <= ZERO_PROB_TOL:
            continue
        update, _ = conditional_update(ch, nu, rho, partition)
        acc += p * update
    return float(np.abs(acc - apply_channel(ch, rho)).max())


def counterexample_instance() -> tuple[KrausChannel, np.ndarray, np.ndarray]:
    """The embedded 3-level instance: (channel, sigma, rho).

    rho = diag(1/2, 1/2, 0), sigma = diag(0, 1/2, 1/2), and two diagonal
    Kraus operators diag(1, 1/sqrt2, 0), diag(0, 1/sqrt2, 1).
    """
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    sigma = np.diag([0.0, 0.5, 0.5]).astype(complex)
    r = 1 / math.sqrt(2)
    m1 = np.diag([1.0, r, 0.0]).astype(complex)
    m2 = np.diag([0.0, r, 1.0]).astype(complex)
    return validate_channel([m1, m2]), sigma, rho


@dataclass(frozen=True)
class CounterexampleReport:
    """Computed values of the embedded counter-example, all exact sums."""

    d_lhs: float  # expected next trace distance = 4/3
    d_rhs: float  # current trace distance = 1
    f_lhs: float  # expected next fidelity = 1/3
    f_rhs: float  # current fidelity = 1/4
    s_lhs: float  # expected next relative entropy (infinite)
    s_rhs: float  # current relative entropy (infinite)
    rel_entropy_note: str

    @property
    def fidelity_gap(self) -> float:
        return self.f_lhs - self.f_rhs

    @property
    def trace_distance_excess(self) -> float:
        return self.d_lhs - self.d_rhs

    def to_dict(self) -> dict:
        return {
            "trace_distance": {"lhs": self.d_lhs, "rhs": self.d_rhs},
            "fidelity": {"lhs": self.f_lhs, "rhs": self.f_rhs},
            "relative_entropy": {
                "lhs": self.s_lhs,
                "rhs": self.s_rhs,
                "note": self.rel_entropy_note,
            },
        }


def counterexample_report() -> CounterexampleReport:
    """Evaluate the embedded instance and assert the known exact values.

    Trace distance jumps from 1 to an expected 4/3 (so it is not a
    super-martingale) while fidelity gains 1/3 - 1/4.  All four numbers are
    recomputed here and must match the exact constants within
    COUNTEREXAMPLE_TOL.
    """
    ch, sigma, rho = counterexample_instance()
    d_lhs = expected_next_measure(ch, sigma, rho, "trace_distance")
    d_rhs = measures.trace_distance(sigma, rho)
    f_lhs = expected_next_measure(ch, sigma, rho, "fidelity")
    f_rhs = measures.fidelity(sigma, rho)
    s_lhs = expected_next_measure(ch, sigma, rho, "relative_entropy")
    s_rhs = measures.relative_entropy(rho, sigma)
    expected = {
        "d_lhs": (d_lhs, 4.0 / 3.0),
        "d_rhs": (d_rhs, 1.0),
        "f_lhs": (f_lhs, 1.0 / 3.0),
        "f_rhs": (f_rhs, 0.25),
    }
    for name, (got, want) in expected.items():
        if abs(got - want) > COUNTEREXAMPLE_TOL:
            raise RuntimeError(
                f"counter-example drifted: {name} = {got!r}, expected {want!r}"
            )
    if not (math.isinf(s_lhs) and math.isinf(s_rhs)):
        raise RuntimeError(
            f"counter-example drifted: relative entropies ({s_lhs}, {s_rhs}) should be infinite"
        )
    note = (
        "supports of the two states are not nested, so the relative entropy "
        "is infinite both before and after the jump; finite-valued behaviour "
        "must be probed with full-support instances (see random_search_violation)"
    )
    return CounterexampleReport(d_lhs, d_rhs, f_lhs, f_rhs, s_lhs, s_rhs, note)


def random_instances(
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    partition_mode: str = "singleton",
    full_rank: bool = False,
) -> Iterator[tuple[KrausChannel, np.ndarray, np.ndarray, OutcomePartition | None]]:
    """Yield `trials` random (channel, sigma, rho, partition) instances.

    Each instance draws from its own child of `rng`, in this order: the
    channel, the ranks of sigma and rho (both n when full_rank), sigma, rho,
    and for partition_mode "random" a random partition.  "singleton" yields
    partition None, "trivial" the one-block partition.
    """
    for child in rng.spawn(trials):
        ch = random_channel(n, m, child)
        rank_s = n if full_rank else int(child.integers(1, n + 1))
        rank_r = n if full_rank else int(child.integers(1, n + 1))
        sigma = random_density(n, rank_s, child)
        rho = random_density(n, rank_r, child)
        if partition_mode == "singleton":
            partition = None
        elif partition_mode == "trivial":
            partition = trivial_partition(m)
        else:
            partition = random_partition(m, child)
        yield ch, sigma, rho, partition


def random_search_violation(
    measure: str,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    include_counterexample: bool = False,
) -> list[GapReport]:
    """Search random (channel, sigma, rho) instances for wrong-sign gaps.

    Returns the reports that fail :attr:`GapReport.passed` at GAP_TOL.  For
    the sub-martingale measures (fidelity, frobenius) the list is expected
    to be empty; for trace_distance and relative_entropy it lists the
    super-martingale failures.  Relative-entropy instances are sampled with
    full rank, and instances with an infinite side never count.
    include_counterexample prepends the embedded 3-level instance.

    Instances come from :func:`random_instances`, one child generator per
    trial, so the search is reproducible and parallelizes by trial index.
    """
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    instances = [counterexample_instance()] if include_counterexample else []
    full_rank = measure == "relative_entropy"
    instances += [inst[:3] for inst in random_instances(n, m, trials, rng, full_rank=full_rank)]
    reports = (measure_gap_report(ch, sigma, rho, measure) for ch, sigma, rho in instances)
    return [r for r in reports if not r.passed]


def write_gap_reports_csv(reports, file) -> None:
    """CSV with the GAP_REPORT_COLUMNS header, one row per report."""
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    fh = open(file, "w", newline="") if own else file
    try:
        fh.write(",".join(GAP_REPORT_COLUMNS) + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")
    finally:
        if own:
            fh.close()


def _expected_next_detail(
    ch: KrausChannel,
    sigma,
    rho,
    measure: str,
    partition: OutcomePartition | None,
    fallback: np.ndarray | None,
) -> tuple[float, tuple[int, ...]]:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; choose from {sorted(MEASURES)}")
    fn = MEASURES[measure]
    probs = outcome_probs(ch, rho, partition)
    total = 0.0
    fallback_blocks = []
    for nu, p in enumerate(probs):
        if p <= ZERO_PROB_TOL:
            continue
        rho_next, _ = conditional_update(ch, nu, rho, partition)
        sigma_next, used_fb = conditional_update(ch, nu, sigma, partition, fallback)
        if used_fb:
            fallback_blocks.append(nu)
        term = fn(sigma_next, rho_next)
        if math.isinf(term):
            return math.inf, tuple(fallback_blocks)
        total += float(p) * term
    return total, tuple(fallback_blocks)


def _fingerprint(ch: KrausChannel, sigma, rho, partition: OutcomePartition | None) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ch.operators).tobytes())
    h.update(np.ascontiguousarray(np.asarray(sigma, dtype=complex)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(rho, dtype=complex)).tobytes())
    if partition is not None:
        h.update(repr(partition.blocks).encode())
    return h.hexdigest()[:16]

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

Every exact one-step number reads one pass over B instances of one
(n, m): Kraus stacks (B, m, n, n), states and one partition each.  The
dense block kernel of :mod:`qfilter.channels`, ``_kept_blocks``, forms the
per-outcome maps in one product for the whole stack and one block sum per
distinct partition, and updates only the kept rows, the (instance, block)
pairs where p_nu(rho) > ZERO_PROB_TOL.  :func:`_one_step` reads them with one
measure call, the B current pairs appended, and adds each instance's
p * value terms in block order, so an instance gets the same bits in a
batch as alone.  The mean evolution reads the same rows against K(rho),
summed from rho's per-outcome maps when asked.  A single instance is a
batch of one: the gap reports, the mean evolution, the counter-example and
:func:`qfilter.dilation.replay_proof` (for its probabilities, updates and
fallback flags) read it so.  The kernel keeps the last few batch-of-one
passes, so a battery of checks on one (channel, sigma, rho, partition)
forms its pass once and reads the bits a fresh pass gives; the mean
evolution, which needs rho alone, reads a kept pass of any sigma.
``qfilter verify`` and :func:`random_search_violation` make one stacked
pass (:func:`_search`), ``qfilter sweep`` one per (n, m); a pass of several
instances is never kept.  Monotonicity does not read the pass: it takes
the square roots of [sigma, rho] and [K(sigma), K(rho)] from two factors
and one SVD for both pairs, the bits of ``measures.fidelity`` on
[K(sigma), sigma] and [K(rho), rho].

Each entry checks each state once, and an error names it (``sigma``,
``rho``, ``fallback``, ``partition``; ``sigma of instance 3`` in a batch).
An entry checks the shapes; a formed pass tests finite, Hermitian, the
partition and the block probabilities, which cover the trace; monotonicity
tests the first three itself and PSD by the factor of [sigma, rho].  The
other checks test no PSD, which costs one eigendecomposition per pass until
the checks read factors of the states: the fidelity rejects a non-PSD state
by an update's eigenvalue, the other measures accept it.

The fallback rule applies per block: a block where the estimate has zero
probability takes the xi substitution, enters the sum, and is recorded in
the report, never silently skipped; rho's kept blocks have positive
probability, so rho never takes the caller's fallback.  Infinite
relative-entropy terms with positive weight make the whole expectation
infinite; an infinite expectation against a finite current value is
treated as vacuously non-violating by the search.

A wrong-sign gap fails a run (``qfilter verify``, ``qfilter sweep``) only
for the fidelity, whose one-step gain is the paper's theorem; for the
other measures it is reported, never failed.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures
from .channels import (
    KrausChannel,
    OutcomePartition,
    _channel_ginibre,
    _haar_channels,
    _Kept,
    _kept_blocks,
    _kraus_sum,
    _per_outcome,
    random_partition,
    singleton_partition,
    trivial_partition,
    validate_channel,
)
from .linalg import _any, _psd_factor
from .states import _density, _ginibre_densities, _shaped
from .tolerances import COUNTEREXAMPLE_TOL, GAP_TOL

#: measure name -> callable(sigma, rho); sigma is the estimate side.
MEASURES = {
    "fidelity": measures.fidelity,
    "trace_distance": measures.trace_distance,
    "frobenius": measures.frobenius_inner,
    # oriented as entropy of the true state relative to the estimate
    "relative_entropy": lambda sigma, rho: measures.relative_entropy(rho, sigma),
}

#: measures oriented as sub-martingales (not decreasing in mean); the others
#: are oriented as super-martingales.  Only the fidelity's direction is a
#: theorem (see :func:`_fails_run`); the search hunts the others' violations.
SUBMARTINGALE_MEASURES = ("fidelity", "frobenius")

#: measures whose random instances draw full-rank states: the relative entropy is infinite
#: unless sigma's support holds rho's
_FULL_RANK_MEASURES = ("relative_entropy",)

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


def _fails_run(report: GapReport) -> bool:
    """Whether a report fails a ``verify`` or ``sweep`` run.

    Only a wrong-sign fidelity gap does: the fidelity's one-step gain is the
    paper's theorem.  Frobenius is refuted under coarse partitions, the
    trace distance by the embedded 4/3 instance, and the relative entropy
    is open, so their wrong-sign gaps are reported, not failed.
    """
    return report.measure == "fidelity" and not report.passed


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

    lhs is E[ measure(sigma_{k+1}, rho_{k+1}) | sigma, rho ], the exact sum
    of p_nu(rho) * measure(update(sigma), update(rho)) over the blocks with
    p_nu(rho) > ZERO_PROB_TOL (sigma's vanishing blocks use the xi
    substitution, infinite terms with positive weight give an infinite
    sum), and rhs is measure(sigma, rho).  The report's `passed` judges the
    gap against the measure's expected direction with slack `tol` (see
    :attr:`GapReport.passed`).  sigma and rho must be (n, n) for the
    channel's n, and an unknown measure raises ValueError; the pass checks
    the rest (see the module docstring).
    """
    sigma, rho = _shaped({"sigma": sigma, "rho": rho}, ch.dim)
    [step], _ = _one_step(ch.operators[None], sigma[None], rho[None], _measure(measure), [partition], fallback)
    return _gap_report(step, measure, ch, sigma, rho, partition, tol, fallback)


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
    """F(K(sigma), K(rho)) - F(sigma, rho); passes when the gap is >= -GAP_TOL.

    Both states must be density matrices of the channel's n; the factor of
    [sigma, rho] that gives their square roots tests PSD.
    """
    pair = np.array(_density({"sigma": sigma, "rho": rho}, ch.dim, psd=False))
    factors = _psd_factor(pair, ("sigma", "rho")), _psd_factor(_kraus_sum(_per_outcome(ch.operators, pair)))
    roots = [F @ U.conj().swapaxes(-1, -2) for F, U in factors]  # psd_sqrt of [sigma, rho] and of [K(sigma), K(rho)]
    # the cross that measures.fidelity forms on the stacks [K(sigma), sigma] and [K(rho), rho]
    sigmas, rhos = (np.array([roots[1][i], roots[0][i]]) for i in (0, 1))
    lhs, rhs = measures._fidelity_of_cross(sigmas @ rhos).tolist()
    return GapReport(
        "fidelity", lhs, rhs, lhs - rhs, None, (),
        _fingerprint(ch, sigma, rho, None), GAP_TOL,
    )


def check_mean_evolution(
    ch: KrausChannel, rho, partition: OutcomePartition | None = None
) -> float:
    """Max elementwise deviation of sum_nu p_nu(rho) M_nu(rho) from K(rho).

    An algebraic identity: the deviation must stay within MEAN_EVOLUTION_TOL.
    rho must be (n, n) for the channel's n; the pass checks the rest.
    """
    [rho] = _shaped({"rho": rho}, ch.dim)
    return _mean_evolution_deviations(_kept_blocks(ch.operators[None], rho[None, None], [partition]))[0]


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
    recomputed here, the three measures read from one pass of the instance,
    and must match the exact constants within COUNTEREXAMPLE_TOL.
    """
    ch, sigma, rho = counterexample_instance()
    [d], [f], [s] = (
        _one_step(ch.operators[None], sigma[None], rho[None], MEASURES[measure], [None])[0]
        for measure in ("trace_distance", "fidelity", "relative_entropy")
    )
    expected = {
        "d_lhs": (d.lhs, 4.0 / 3.0),
        "d_rhs": (d.rhs, 1.0),
        "f_lhs": (f.lhs, 1.0 / 3.0),
        "f_rhs": (f.rhs, 0.25),
    }
    for name, (got, want) in expected.items():
        if abs(got - want) > COUNTEREXAMPLE_TOL:
            raise RuntimeError(
                f"counter-example drifted: {name} = {got!r}, expected {want!r}"
            )
    if not (math.isinf(s.lhs) and math.isinf(s.rhs)):
        raise RuntimeError(
            f"counter-example drifted: relative entropies ({s.lhs}, {s.rhs}) should be infinite"
        )
    note = (
        "supports of the two states are not nested, so the relative entropy "
        "is infinite both before and after the jump; finite-valued behaviour "
        "must be probed with full-support instances (see random_search_violation)"
    )
    return CounterexampleReport(d.lhs, d.rhs, f.lhs, f.rhs, s.lhs, s.rhs, note)


def random_instances(
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    partition_mode: str | int = "singleton",
    full_rank: bool = False,
) -> Iterator[tuple[KrausChannel, np.ndarray, np.ndarray, OutcomePartition | None]]:
    """Yield `trials` random (channel, sigma, rho, partition) instances.

    Each instance draws from its own child of `rng`, in this order: the
    channel, the ranks of sigma and rho (both n when full_rank), sigma, rho,
    and then any random partition.  partition_mode "singleton" yields
    partition None, "trivial" the one-block partition and "random" a random
    partition with a random block count.  A block count p gives the trivial
    partition for p = 1, the singleton partition for p = m, and otherwise a
    random partition into p blocks; any other mode raises ValueError.
    Everything is built after the draws: the channels with one stacked QR
    and one stacked check, the states with one stacked product per rank, so
    each instance is the channel ``random_channel`` and the states
    ``random_density`` draw from its child alone, bit for bit.  ``qfilter
    sweep`` draws every cell first and builds each (n, m) once
    (:func:`_draw_instances`, :func:`_build_instances`).
    """
    yield from _build_instances(n, _draw_instances(n, m, trials, rng, partition_mode, full_rank))


def _draw_instances(n: int, m: int, trials: int, rng: np.random.Generator, partition_mode="singleton", full_rank=False) -> list:
    """The draws of :func:`random_instances`, one (channel draw, (sigma's, rho's Ginibre draws), partition)
    per child.  The Ginibre draws (2, n, rank), real parts then imaginary parts, come from one
    ``standard_normal`` call, sigma's first."""
    if partition_mode not in ("singleton", "trivial", "random") and not isinstance(partition_mode, (int, np.integer)):
        raise ValueError(f"unknown partition mode {partition_mode!r}")
    draws = []
    for child in rng.spawn(trials):
        kraus = _channel_ginibre(n, m, child)
        rank_s, rank_r = (n, n) if full_rank else (int(child.integers(1, n + 1)), int(child.integers(1, n + 1)))
        x = child.standard_normal(2 * n * (rank_s + rank_r))
        factors = (x[: 2 * n * rank_s].reshape(2, n, rank_s), x[2 * n * rank_s :].reshape(2, n, rank_r))
        if partition_mode == "singleton":
            partition = None
        elif partition_mode in ("trivial", 1):
            partition = trivial_partition(m)
        elif partition_mode == m:
            partition = singleton_partition(m)
        else:
            partition = random_partition(m, child, None if partition_mode == "random" else partition_mode)
        draws.append((kraus, factors, partition))
    return draws


def _build_instances(n: int, draws: list) -> list:
    """The instances of the :func:`_draw_instances` draws of one (n, m), in order: one stacked QR and check
    for the channels, one :func:`qfilter.states._ginibre_densities` product per rank for the states."""
    if not draws:
        return []
    kraus, pairs, partitions = zip(*draws)
    factors = [x for pair in pairs for x in pair]  # sigma's, then rho's, of each instance
    slots_of_shape: dict = {}
    for i, x in enumerate(factors):
        slots_of_shape.setdefault(x.shape, []).append(i)
    states = [None] * len(factors)
    for slots in slots_of_shape.values():
        for i, state in zip(slots, _ginibre_densities(np.stack([factors[i] for i in slots]))):
            states[i] = state
    return list(zip(_haar_channels(np.stack(kraus), n), states[::2], states[1::2], partitions))


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
    The search is the run ``qfilter verify`` makes (:func:`_search`).
    """
    reports, _ = _search(measure, n, m, trials, rng, include_counterexample=include_counterexample)
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


def _search(measure: str, n: int, m: int, trials: int, rng, mode="singleton", include_counterexample=False, tol=GAP_TOL):
    """The run of :func:`random_search_violation` and ``qfilter verify``: (reports, deviations).

    The counter-example's report comes first when asked (its batch-of-one pass, kept for any
    other check of that instance), then one :func:`_gap_reports` pass over `trials` instances
    of :func:`random_instances`; deviations() reads their mean-evolution deviations from that
    pass when called.
    """
    _measure(measure)
    reports = [measure_gap_report(*counterexample_instance(), measure, tol=tol)] if include_counterexample else []
    instances = list(random_instances(n, m, trials, rng, mode, measure in _FULL_RANK_MEASURES))
    random_reports, _, kept = _gap_reports(instances, measure, tol)
    return reports + random_reports, lambda: _mean_evolution_deviations(kept)


def _gap_reports(instances, measure: str, tol: float = GAP_TOL) -> tuple[list[GapReport], list[_OneStep], _Kept | None]:
    """The gap reports of (channel, sigma, rho, partition) instances of one (n, m), from one
    stacked :func:`_one_step`, with its per-instance steps and kept rows; an empty list of
    instances gives none."""
    if not instances:
        return [], [], None
    chs, sigmas, rhos, partitions = zip(*instances)
    steps, kept = _one_step(np.array([ch.operators for ch in chs]), sigmas, rhos, _measure(measure), partitions)
    reports = [_gap_report(step, measure, *inst, tol) for step, inst in zip(steps, instances)]
    return reports, steps, kept


def _measure(name: str):
    """The measure function MEASURES[name], looked up when called; an unknown name raises ValueError."""
    if name not in MEASURES:
        raise ValueError(f"unknown measure {name!r}; choose from {sorted(MEASURES)}")
    return MEASURES[name]


def _gap_report(step: _OneStep, measure, ch, sigma, rho, partition, tol, fallback=None) -> GapReport:
    return GapReport(
        measure, step.lhs, step.rhs, step.lhs - step.rhs, partition, step.fallback_blocks,
        _fingerprint(ch, sigma, rho, partition, fallback), tol,
    )


def _mean_evolution_deviations(kept: _Kept) -> list[float]:
    """:func:`check_mean_evolution` of each instance of a pass: its kept rows summed in block order, against K(rho)."""
    terms = kept.weights[:, None, None] * kept.updates[-1]
    acc = [terms[rows].sum(axis=0) for *_, rows in kept.instances]
    return np.abs(acc - kept.kraus_map()).max(axis=(-2, -1)).tolist()


class _OneStep(NamedTuple):
    """The exact one-step pass from (sigma, rho), which every exact one-step result reads.

    The k kept blocks, where p_nu(rho) > ZERO_PROB_TOL, index the updates and values.
    """

    probs: np.ndarray  # p_nu(rho) for every block
    probs_sigma: np.ndarray  # p_nu(sigma) for every block
    kept: np.ndarray  # (k,) the kept blocks
    sigma_next: np.ndarray  # (k, n, n) sigma's updates, xi's where sigma's block vanishes
    rho_next: np.ndarray  # (k, n, n) rho's updates
    values: np.ndarray  # (k,) the measure on the kept block pairs
    lhs: float  # the expected next value, sum_nu p_nu(rho) * values[nu]
    rhs: float  # the current value, measure(sigma, rho)
    fallback_blocks: tuple[int, ...]  # the kept blocks whose sigma update took the fallback


def _one_step(
    operators: np.ndarray,
    sigma,
    rho,
    measure,
    partitions,
    fallback: np.ndarray | None = None,
) -> tuple[list[_OneStep], _Kept]:
    """The one-step pass of the module docstring for B instances, and its kept rows; `fallback` is sigma's xi.

    `operators` (B, m, n, n) holds each instance's Kraus stack, sigma and rho
    (B, n, n) its states, and `partitions` its partition, shapes checked by
    the caller.  `measure` is called once on the two stacks, updates then
    states: callers resolve a name through MEASURES.
    """
    states = np.array([sigma, rho], dtype=complex)
    kept = _kept_blocks(operators, states, partitions, fallback)
    values = measure(*np.concatenate([kept.updates, states], axis=1))
    K = len(kept.weights)
    # added left to right in block order, as a loop over the blocks adds them;
    # a positive weight times an infinite term makes the sum infinite
    terms = kept.weights * values[:K]
    (sigma_next, rho_next), used = kept.updates, kept.used[0]
    fell_back = _any(used)
    steps = [
        _OneStep(
            probs[-1], probs[0], own, sigma_next[rows], rho_next[rows], values[rows], float(sum(terms[rows])),
            float(values[K + i]), tuple(own[used[rows]].tolist()) if fell_back else (),
        )
        for i, (probs, own, rows) in enumerate(kept.instances)
    ]
    return steps, kept


def _fingerprint(ch: KrausChannel, sigma, rho, partition: OutcomePartition | None, fallback=None) -> str:
    """The first 16 hex digits of a SHA-256 of the instance: the Kraus stack, the states, the
    partition's blocks when given, and a caller's fallback xi when given."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ch.operators).tobytes())
    h.update(np.ascontiguousarray(np.asarray(sigma, dtype=complex)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(rho, dtype=complex)).tobytes())
    if partition is not None:
        h.update(repr(partition.blocks).encode())
    if fallback is not None:
        h.update(np.ascontiguousarray(np.asarray(fallback, dtype=complex)).tobytes())
    return h.hexdigest()[:16]

import io
import math
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qfilter import channels, cli, dilation, filtering, measures, states, verify
from qfilter.tolerances import ZERO_PROB_TOL


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 5))
    m = m or int(rng.integers(2, 5))
    ch = channels.random_channel(n, m, rng)
    sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    return ch, sigma, rho


class TestExpectedNextMeasure:
    """The expected next value is the gap report's lhs."""

    def test_counterexample_trace_distance(self):
        ch, sigma, rho = verify.counterexample_instance()
        got = verify.measure_gap_report(ch, sigma, rho, "trace_distance").lhs
        assert abs(got - 4.0 / 3.0) < 1e-14

    def test_counterexample_fidelity(self):
        ch, sigma, rho = verify.counterexample_instance()
        got = verify.measure_gap_report(ch, sigma, rho, "fidelity").lhs
        assert abs(got - 1.0 / 3.0) < 1e-14

    def test_unitary_channel_is_invariant(self):
        rng = np.random.default_rng(0)
        U = channels.haar_unitary(3, rng)
        ch = channels.validate_channel([U])
        sigma = states.random_density(3, 2, rng)
        rho = states.random_density(3, 3, rng)
        for name, fn in verify.MEASURES.items():
            got = verify.measure_gap_report(ch, sigma, rho, name).lhs
            want = fn(sigma, rho)
            if math.isinf(want):
                assert math.isinf(got), name
            else:
                assert abs(got - want) < 1e-10, name

    def test_unknown_measure(self):
        ch, sigma, rho = verify.counterexample_instance()
        with pytest.raises(ValueError, match="unknown measure"):
            verify.measure_gap_report(ch, sigma, rho, "bures")

    def test_infinite_terms_propagate(self):
        ch, sigma, rho = verify.counterexample_instance()
        assert math.isinf(verify.measure_gap_report(ch, sigma, rho, "relative_entropy").lhs)


class TestFidelitySubmartingale:
    def test_counterexample_gap(self):
        ch, sigma, rho = verify.counterexample_instance()
        rep = verify.check_fidelity_submartingale(ch, sigma, rho)
        assert abs(rep.gap - 1.0 / 12.0) < 1e-14
        assert rep.passed

    def test_equal_states(self):
        rng = np.random.default_rng(1)
        ch, _, rho = random_instance(rng)
        rep = verify.check_fidelity_submartingale(ch, rho, rho)
        assert abs(rep.lhs - 1.0) < 1e-12
        assert abs(rep.gap) < 1e-12

    def test_random_instances_with_partitions(self):
        rng = np.random.default_rng(2)
        for i in range(300):
            ch, sigma, rho = random_instance(rng)
            part = channels.random_partition(ch.num_outcomes, rng) if i % 2 else None
            rep = verify.check_fidelity_submartingale(ch, sigma, rho, part)
            assert rep.gap >= -1e-9, (i, rep.gap)

    def test_report_fields(self):
        ch, sigma, rho = verify.counterexample_instance()
        rep = verify.check_fidelity_submartingale(ch, sigma, rho)
        assert rep.gap == rep.lhs - rep.rhs
        assert rep.measure == "fidelity"
        assert len(rep.fingerprint) == 16


class TestKrausMonotonicity:
    def test_counterexample_channel_fixes_both_states(self):
        ch, sigma, rho = verify.counterexample_instance()
        rep = verify.check_kraus_monotonicity(ch, sigma, rho)
        assert abs(rep.gap) < 1e-13
        assert rep.passed

    def test_equal_states(self):
        rng = np.random.default_rng(3)
        ch, _, rho = random_instance(rng)
        rep = verify.check_kraus_monotonicity(ch, rho, rho)
        assert abs(rep.gap) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            ch, sigma, rho = random_instance(rng)
            assert verify.check_kraus_monotonicity(ch, sigma, rho).gap >= -1e-9

    @pytest.mark.parametrize("scale", [1.2, 0.5])
    def test_unnormalised_states_are_rejected(self, scale):
        # the fidelity's Hermitian and PSD checks pass a scaled pure state; the trace check does not
        rng = np.random.default_rng(8)
        ch, sigma, rho = channels.random_channel(3, 3, rng), states.random_density(3, 1, rng), states.random_density(3, 1, rng)
        with pytest.raises(ValueError, match=f"^sigma has trace {scale:.12g}, not 1$"):
            verify.check_kraus_monotonicity(ch, scale * sigma, rho)
        with pytest.raises(ValueError, match=f"^rho has trace {scale:.12g}, not 1$"):
            verify.check_kraus_monotonicity(ch, sigma, scale * rho)
        with pytest.raises(ValueError, match="outcome probabilities sum to"):
            verify.check_fidelity_submartingale(ch, scale * sigma, rho)
        assert verify.check_kraus_monotonicity(ch, sigma, rho).passed


    def test_monotonicity_bits_match_the_dense_fidelity(self):
        # the report's square roots come from the factors of [sigma, rho] and [K(sigma), K(rho)];
        # its lhs and rhs keep the bits of measures.fidelity on [K(sigma), sigma] and [K(rho), rho]
        rng = np.random.default_rng(7)
        count = 0
        for n in range(1, 6):
            for m in range(1, 6):
                for ch, sigma, rho, _ in verify.random_instances(n, m, 80, rng):
                    rep = verify.check_kraus_monotonicity(ch, sigma, rho)
                    K = channels.apply_channel(ch, np.stack([sigma, rho]))
                    lhs, rhs = measures.fidelity(np.stack([K[0], sigma]), np.stack([K[1], rho]))
                    assert (rep.lhs, rep.rhs) == (lhs, rhs) and rep.gap == lhs - rhs
                    count += 1
        assert count == 2000

    def test_monotonicity_names_a_non_psd_state(self):
        ch, sigma, rho = random_instance(np.random.default_rng(9), n=3, m=2)
        bad = np.diag([0.5 + 1e-6, 0.5, -1e-6])
        for name, pair in (("sigma", (bad, rho)), ("rho", (sigma, bad))):
            with pytest.raises(ValueError, match=rf"^{name} is not positive semidefinite: eigenvalue -1\.000e-06 < -1\.0e-10$"):
                verify.check_kraus_monotonicity(ch, *pair)


class TestMeanEvolution:
    def test_unitary_channel_exact(self):
        rng = np.random.default_rng(5)
        U = channels.haar_unitary(3, rng)
        ch = channels.validate_channel([U])
        rho = states.random_density(3, 3, rng)
        # normalize-then-reweight costs one ulp per entry, nothing more
        assert verify.check_mean_evolution(ch, rho) <= 1e-15

    def test_random_singleton(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ch, _, rho = random_instance(rng)
            assert verify.check_mean_evolution(ch, rho) <= 1e-12

    def test_random_partitions(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ch, _, rho = random_instance(rng)
            part = channels.random_partition(ch.num_outcomes, rng)
            assert verify.check_mean_evolution(ch, rho, part) <= 1e-12


class TestCounterexampleReport:
    def test_values(self):
        rep = verify.counterexample_report()
        assert abs(rep.d_lhs - 4.0 / 3.0) < 1e-12
        assert abs(rep.d_rhs - 1.0) < 1e-12
        assert abs(rep.f_lhs - 1.0 / 3.0) < 1e-12
        assert abs(rep.f_rhs - 0.25) < 1e-12
        assert math.isinf(rep.s_lhs) and math.isinf(rep.s_rhs)
        assert "full-support" in rep.rel_entropy_note

    def test_embedded_channel_completeness(self):
        ch, _, _ = verify.counterexample_instance()
        gram = sum(M.conj().T @ M for M in ch.operators)
        assert np.abs(gram - np.eye(3)).max() < 1e-15

    def test_to_dict(self):
        d = verify.counterexample_report().to_dict()
        assert d["trace_distance"]["lhs"] == pytest.approx(4 / 3, abs=1e-12)
        assert d["fidelity"]["rhs"] == pytest.approx(1 / 4, abs=1e-12)


class TestRandomSearchViolation:
    def test_fidelity_search_empty(self):
        rng = np.random.default_rng(8)
        found = verify.random_search_violation("fidelity", 3, 3, 300, rng)
        assert found == []

    def test_frobenius_search_empty(self):
        rng = np.random.default_rng(9)
        found = verify.random_search_violation("frobenius", 3, 3, 300, rng)
        assert found == []

    def test_trace_distance_with_counterexample(self):
        rng = np.random.default_rng(10)
        found = verify.random_search_violation(
            "trace_distance", 3, 2, 50, rng, include_counterexample=True
        )
        assert found
        assert max(r.gap for r in found) > 1e-3

    def test_relative_entropy_filtered_to_finite(self):
        rng = np.random.default_rng(11)
        found = verify.random_search_violation("relative_entropy", 3, 3, 200, rng)
        for rep in found:
            assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
            assert rep.gap > 1e-9

    def test_deterministic(self):
        a = verify.random_search_violation("trace_distance", 3, 2, 100, np.random.default_rng(12))
        b = verify.random_search_violation("trace_distance", 3, 2, 100, np.random.default_rng(12))
        assert [r.fingerprint for r in a] == [r.fingerprint for r in b]

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            verify.random_search_violation("purity", 2, 2, 1, np.random.default_rng(0))


class TestGapReportCsv:
    def test_header_and_rows(self):
        ch, sigma, rho = verify.counterexample_instance()
        reports = [
            verify.check_fidelity_submartingale(ch, sigma, rho),
            verify.measure_gap_report(ch, sigma, rho, "trace_distance"),
        ]
        buf = io.StringIO()
        verify.write_gap_reports_csv(reports, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(verify.GAP_REPORT_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith("fidelity,")


class TestMeasureGapReport:
    def test_supermartingale_direction(self):
        ch, sigma, rho = verify.counterexample_instance()
        rep = verify.measure_gap_report(ch, sigma, rho, "trace_distance")
        assert not rep.passed  # 4/3 > 1 violates the conjectured direction

    def test_fallback_blocks_recorded(self):
        # sigma has no weight on the block the projective channel labels 0
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        sigma = np.diag([0.0, 1.0])
        rho = np.diag([0.5, 0.5])
        rep = verify.measure_gap_report(ch, sigma, rho, "fidelity")
        assert rep.fallback_blocks == (0,)

    @pytest.mark.parametrize(
        "xi",
        [[[0.5, 0.9], [0.9, 0.5]], [[0.5, 0.5], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]]],
        ids=["not_psd", "not_hermitian", "trace_two"],
    )
    def test_invalid_fallback_raises_the_engines_error(self, xi):
        # sigma's block 0 vanishes, so its update takes xi: the dense path and the factor
        # engine's entry, SimulationConfig.validate, check xi in full and raise the same error
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        sigma, rho = np.diag([0.0, 1.0]), np.diag([0.5, 0.5])
        with pytest.raises(ValueError) as engine:
            filtering.simulate(filtering.SimulationConfig(ch, rho, sigma, 1, fallback=np.array(xi), seed=0))
        with pytest.raises(ValueError) as config:
            filtering.SimulationConfig(ch, rho, sigma, 1, fallback=np.array(xi), seed=0).validate()
        assert str(config.value) == str(engine.value)
        assert str(engine.value).startswith("fallback ")
        dense = [
            lambda: verify.measure_gap_report(ch, sigma, rho, "fidelity", fallback=xi),
            lambda: verify.check_fidelity_submartingale(ch, sigma, rho, fallback=xi),
            lambda: channels.conditional_update(ch, 0, sigma, fallback=xi),
        ]
        for call in dense:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == str(engine.value)

    @pytest.mark.parametrize(
        "xi, message",
        [
            ([[0.5, 0.9], [0.9, 0.5]], "fallback is not positive semidefinite: eigenvalue -4.000e-01 < -1.0e-10"),
            (np.eye(3) / 3, "fallback has shape (3, 3), expected (2, 2) for the channel"),
        ],
        ids=["not_psd", "wrong_dimension"],
    )
    def test_unused_fallback_is_checked_up_front(self, xi, message):
        # no block vanishes for I/2, so xi is never used; it is rejected all the same
        ch = channels.random_channel(2, 2, np.random.default_rng(3))
        mixed = np.eye(2) / 2
        calls = [
            lambda: verify.check_fidelity_submartingale(ch, mixed, mixed, fallback=xi),
            lambda: verify.measure_gap_report(ch, mixed, mixed, "trace_distance", fallback=xi),
            lambda: channels.conditional_update(ch, 0, mixed, fallback=xi),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_fingerprint_hashes_a_given_fallback(self):
        # on the 4/3 channel sigma's first block vanishes, so xi sets the expectation
        ch, _, _ = verify.counterexample_instance()
        sigma, rho = np.diag([0.0, 0.0, 1.0]), np.eye(3) / 3
        default = verify.check_fidelity_submartingale(ch, sigma, rho)
        other = verify.check_fidelity_submartingale(ch, sigma, rho, fallback=np.diag([1.0, 0.0, 0.0]))
        assert default.fallback_blocks == other.fallback_blocks == (0,)
        assert round(default.lhs, 4) == 0.8333 and round(other.lhs, 4) == 0.6667
        assert default.fingerprint != other.fingerprint
        # no xi given: the fingerprint of the instance alone, as the CLI reports it
        assert default.fingerprint == verify._fingerprint(ch, sigma, rho, None)
        again = verify.measure_gap_report(ch, sigma, rho, "trace_distance", fallback=np.diag([1.0, 0.0, 0.0]))
        assert again.fingerprint == other.fingerprint

    @staticmethod
    def invalid_instance(kind):
        """(channel, sigma, rho, message): sigma fails the block-probability check rho takes."""
        if kind == "scaled":
            rng = np.random.default_rng(8)
            ch, sigma = channels.random_channel(2, 2, rng), 1.2 * states.random_density(2, 2, rng)
            return ch, sigma, np.eye(2) / 2, "outcome probabilities sum to 1.2, not 1"
        # trace one and Hermitian, with probability -0.05 for the projective channel's block 1
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        return ch, np.diag([1.05, -0.05]), np.eye(2) / 2, "negative outcome probability -5.000e-02; invalid state?"

    @pytest.mark.parametrize("measure", sorted(verify.MEASURES))
    @pytest.mark.parametrize("kind", ["scaled", "negative"])
    def test_invalid_sigma_is_rejected(self, kind, measure):
        ch, sigma, rho, message = self.invalid_instance(kind)
        with pytest.raises(ValueError, match=f"^{re.escape(message)} \\(sigma\\)$"):
            verify.measure_gap_report(ch, sigma, rho, measure)

    @pytest.mark.parametrize("kind", ["scaled", "negative"])
    def test_invalid_sigma_fails_its_batch(self, kind):
        ch, sigma, rho, message = self.invalid_instance(kind)
        instances = list(verify.random_instances(2, 2, 5, np.random.default_rng(10)))
        verify._gap_reports(instances, "fidelity")  # the valid batch passes
        instances[3] = (ch, sigma, rho, None)
        with pytest.raises(ValueError, match=f"^{re.escape(message)} \\(sigma of instance 3\\)$"):
            verify._gap_reports(instances, "fidelity")

    @pytest.mark.parametrize("state", ["sigma", "rho"])
    @pytest.mark.parametrize("kind", ["scaled", "negative"])
    def test_batch_errors_name_the_state_and_instance(self, kind, state):
        # two partitions split the pass into two block sums; the message counts instances across both
        ch, sigma, rho, message = self.invalid_instance(kind)
        bad = (ch, sigma, rho) if state == "sigma" else (ch, rho, sigma)
        instances = [
            (*inst[:3], None if i % 2 else channels.trivial_partition(2))
            for i, inst in enumerate(verify.random_instances(2, 2, 6, np.random.default_rng(10)))
        ]
        for i in (1, 3, 5):  # the second block sum's instances
            batch = list(instances)
            batch[i] = (*bad, instances[i][3])
            with pytest.raises(ValueError, match=f"^{re.escape(message)} \\({state} of instance {i}\\)$"):
                verify._gap_reports(batch, "fidelity")
        with pytest.raises(ValueError, match=f"^{re.escape(message)} \\({state}\\)$"):
            verify._gap_reports([(*bad, None)], "fidelity")  # a batch of one names the state alone

    @pytest.mark.parametrize("state", ["sigma", "rho"])
    @pytest.mark.parametrize("measure", sorted(verify.MEASURES))
    def test_non_hermitian_states_are_rejected(self, measure, state):
        # the frobenius and trace-distance reads never check Hermiticity themselves: the pass does
        ch, sigma, rho = random_instance(np.random.default_rng(1), n=3, m=3)
        skew = 0.1j * np.triu(np.ones((3, 3)), 1)
        pair = {"sigma": (sigma + skew, rho), "rho": (sigma, rho + skew)}[state]
        message = "is not Hermitian: max\\|A - A†\\| = 1.000e-01 exceeds 1.0e-10$"
        with pytest.raises(ValueError, match=f"^{state} {message}"):
            verify.measure_gap_report(ch, *pair, measure)
        instances = list(verify.random_instances(3, 3, 4, np.random.default_rng(2)))
        instances[2] = (ch, *pair, None)
        with pytest.raises(ValueError, match=f"^{state} of instance 2 {message}"):
            verify._gap_reports(instances, measure)
        if state == "rho":
            with pytest.raises(ValueError, match=f"^rho {message}"):
                verify.check_mean_evolution(ch, rho + skew)

    @pytest.mark.parametrize("state", ["sigma", "rho"])
    def test_non_finite_states_are_rejected(self, state):
        ch, sigma, rho = random_instance(np.random.default_rng(1), n=3, m=3)
        nan = np.full((3, 3), np.nan, dtype=complex)
        pair = {"sigma": (nan, rho), "rho": (sigma, nan)}[state]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for measure in sorted(verify.MEASURES):
                with pytest.raises(ValueError, match="non-finite"):
                    verify.measure_gap_report(ch, *pair, measure)
            if state == "rho":
                with pytest.raises(ValueError, match="non-finite"):
                    verify.check_mean_evolution(ch, nan)

    def test_verdict_honours_tol_and_infinite_sides(self):
        ch, sigma, rho = verify.counterexample_instance()
        # the trace-distance gap is 1/3
        assert verify.measure_gap_report(ch, sigma, rho, "trace_distance", tol=0.5).passed
        rep = verify.measure_gap_report(ch, sigma, rho, "relative_entropy")
        assert math.isinf(rep.lhs) and rep.passed  # vacuous


class TestOneInstanceShapes:
    """Every one-instance check names the state whose shape does not fit the channel (n = 3 here)."""

    CHECKS = {
        "measure_gap_report": lambda ch, sigma, rho: verify.measure_gap_report(ch, sigma, rho, "frobenius"),
        "check_fidelity_submartingale": verify.check_fidelity_submartingale,
        "check_kraus_monotonicity": verify.check_kraus_monotonicity,
        "check_mean_evolution": lambda ch, sigma, rho: verify.check_mean_evolution(ch, rho),
        "replay_proof": dilation.replay_proof,
    }

    @pytest.mark.parametrize(
        "check, state", [(c, s) for c in sorted(CHECKS) for s in ("sigma", "rho") if (c, s) != ("check_mean_evolution", "sigma")]
    )
    @pytest.mark.parametrize("kind", ["stacked", "smaller", "flat"])
    def test_wrong_shape_names_the_argument(self, check, state, kind):
        ch, sigma, rho = random_instance(np.random.default_rng(3), n=3, m=2)
        pair = {"sigma": sigma, "rho": rho}
        bad = {"stacked": np.stack([pair[state]] * 2), "smaller": np.eye(2) / 2, "flat": np.full(3, 1 / 3)}[kind]
        pair[state] = bad
        message = f"^{state} has shape {re.escape(str(bad.shape))}, expected \\(3, 3\\) for the channel$"
        with pytest.raises(ValueError, match=message):
            self.CHECKS[check](ch, pair["sigma"], pair["rho"])

    @pytest.mark.parametrize("check", sorted(set(CHECKS) - {"check_mean_evolution"}))
    def test_both_states_stacked_name_sigma(self, check):
        # both states (2, 3, 3): the shape check runs before any arithmetic on them
        ch, sigma, rho = random_instance(np.random.default_rng(3), n=3, m=2)
        with pytest.raises(ValueError, match=r"^sigma has shape \(2, 3, 3\), expected \(3, 3\) for the channel$"):
            self.CHECKS[check](ch, np.stack([sigma, sigma]), np.stack([rho, rho]))


def reference_random_density(n, rank, rng):
    """The reference state draw, one state at a time: two (n, rank) draws, one product, one trace."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    G = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def reference_random_partition(m, rng, num_blocks=None):
    """The reference partition draw: the labels as an array, then one flatnonzero scan per block."""
    if num_blocks is None:
        num_blocks = int(rng.integers(1, m + 1))
    if not 1 <= num_blocks <= m:
        raise ValueError(f"num_blocks must be in [1, {m}], got {num_blocks}")
    perm = rng.permutation(m)
    labels = np.empty(m, dtype=int)
    labels[perm[:num_blocks]] = np.arange(num_blocks)
    if m > num_blocks:
        labels[perm[num_blocks:]] = rng.integers(0, num_blocks, size=m - num_blocks)
    blocks = tuple(tuple(int(i) for i in np.flatnonzero(labels == v)) for v in range(num_blocks))
    return channels.OutcomePartition(m, blocks)


def reference_instances(n, m, trials, rng, mode="singleton", full_rank=False):
    """random_instances from the reference draws, one child at a time, each channel from its own Haar unitary."""
    out = []
    for child in rng.spawn(trials):
        U = channels.haar_unitary(n * m, child)
        rank_s = n if full_rank else int(child.integers(1, n + 1))
        rank_r = n if full_rank else int(child.integers(1, n + 1))
        sigma, rho = reference_random_density(n, rank_s, child), reference_random_density(n, rank_r, child)
        if mode == "singleton":
            part = None
        elif mode in ("trivial", 1):
            part = channels.trivial_partition(m)
        elif mode == m:
            part = channels.singleton_partition(m)
        else:
            part = reference_random_partition(m, child, None if mode == "random" else mode)
        out.append((np.stack([U[mu * n : (mu + 1) * n, :n] for mu in range(m)]), sigma, rho, part))
    return out


def assert_same_instances(got, want):
    assert len(got) == len(want)
    for (ch, sigma, rho, part), (ops, want_sigma, want_rho, want_part) in zip(got, want):
        assert ch.operators.tobytes() == ops.tobytes()
        assert sigma.shape == want_sigma.shape and sigma.tobytes() == want_sigma.tobytes()
        assert rho.shape == want_rho.shape and rho.tobytes() == want_rho.tobytes()
        assert part == want_part
        assert repr(None if part is None else part.blocks) == repr(None if want_part is None else want_part.blocks)


class TestRandomInstances:
    @pytest.mark.parametrize("mode", ["singleton", "trivial", "random"])
    def test_draw_order(self, mode):
        # the documented per-child order: channel, both ranks, sigma, rho, then the partition
        got = list(verify.random_instances(3, 4, 3, np.random.default_rng(5), mode))
        for child, (ch, sigma, rho, part) in zip(np.random.default_rng(5).spawn(3), got):
            want_ch = channels.random_channel(3, 4, child)
            rank_s, rank_r = int(child.integers(1, 4)), int(child.integers(1, 4))
            assert np.array_equal(ch.operators, want_ch.operators)
            assert np.array_equal(sigma, states.random_density(3, rank_s, child))
            assert np.array_equal(rho, states.random_density(3, rank_r, child))
            if mode == "singleton":
                assert part is None
            elif mode == "trivial":
                assert part == channels.trivial_partition(4)
            else:
                assert part == channels.random_partition(4, child)

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_block_count(self, blocks):
        # p = 1 is the trivial partition, p = m the singleton one; both draw nothing after rho
        got = list(verify.random_instances(3, 4, 3, np.random.default_rng(5), blocks))
        for child, (ch, sigma, rho, part) in zip(np.random.default_rng(5).spawn(3), got):
            want_ch = channels.random_channel(3, 4, child)
            rank_s, rank_r = int(child.integers(1, 4)), int(child.integers(1, 4))
            assert np.array_equal(ch.operators, want_ch.operators)
            assert np.array_equal(sigma, states.random_density(3, rank_s, child))
            assert np.array_equal(rho, states.random_density(3, rank_r, child))
            if blocks == 1:
                assert part == channels.trivial_partition(4)
            elif blocks == 4:
                assert part == channels.singleton_partition(4)
            else:
                assert part == channels.random_partition(4, child, 2)
                assert part.num_blocks == 2

    @pytest.mark.parametrize("mode", ["bogus", "Random", 2.0, None])
    def test_unknown_mode_is_a_value_error(self, mode):
        with pytest.raises(ValueError, match=re.escape(f"unknown partition mode {mode!r}")):
            list(verify.random_instances(3, 3, 1, np.random.default_rng(0), mode))

    def test_full_rank(self):
        instances = verify.random_instances(3, 2, 5, np.random.default_rng(6), full_rank=True)
        for _, sigma, rho, _ in instances:
            assert np.linalg.matrix_rank(sigma) == np.linalg.matrix_rank(rho) == 3

    def test_random_density_build_bits_match_the_reference(self):
        # every rank of n = 1..5 over 1,200 seeds: the same bytes, and the same draws taken from the stream
        for seed in range(1200):
            n = 1 + seed % 5
            for rank in range(1, n + 1):
                rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got, want = states.random_density(n, rank, rng), reference_random_density(n, rank, reference_rng)
                assert got.shape == want.shape == (n, n) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_random_partition_matches_the_reference(self):
        # every block count of m = 1..5, None included, over 1,200 seeds: equal partitions, equal reprs
        # (the fingerprint hashes the blocks' repr), and the same draws taken from the stream
        for seed in range(1200):
            m = 1 + seed % 5
            for num_blocks in [None, *range(1, m + 1)]:
                rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = channels.random_partition(m, rng, num_blocks)
                want = reference_random_partition(m, reference_rng, num_blocks)
                assert got == want
                assert repr(got.blocks) == repr(want.blocks)
                assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("n, bad", [(3, 0), (3, 4), (1, 2)])
    def test_rank_out_of_range_keeps_its_message(self, n, bad):
        with pytest.raises(ValueError) as want:
            reference_random_density(n, bad, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            states.random_density(n, bad, np.random.default_rng(0))

    @pytest.mark.parametrize("m, bad", [(3, 0), (3, 4), (1, 2)])
    def test_block_count_out_of_range_keeps_its_message(self, m, bad):
        with pytest.raises(ValueError) as want:
            reference_random_partition(m, np.random.default_rng(0), bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            channels.random_partition(m, np.random.default_rng(0), bad)

    @pytest.mark.parametrize("full_rank", [False, True])
    @pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
    def test_stacked_build_bits_match_the_reference(self, n, m, full_rank):
        # no instance, one, and many, where every rank shares its one product with others
        for trials in (0, 1, 40):
            for mode in ("singleton", "trivial", "random", min(2, m), m):
                seed = 100 * n + 10 * m + trials
                got = list(verify.random_instances(n, m, trials, np.random.default_rng(seed), mode, full_rank))
                assert_same_instances(got, reference_instances(n, m, trials, np.random.default_rng(seed), mode, full_rank))

    def test_shape_build_bits_match_each_cells_stream(self):
        # a sweep draws every cell of one (n, m) first and builds them together: each cell's instances
        # are the ones its own stream gives alone, and the ones the reference draws give
        n, m, trials, modes = 3, 4, 7, (1, 2, 3, 4, "random")

        def cell_rng(cell):  # a fresh generator per use: spawning advances a SeedSequence
            return np.random.default_rng(np.random.SeedSequence(9, spawn_key=(cell,)))

        draws = []
        for cell, p in enumerate(modes):
            draws += verify._draw_instances(n, m, trials, cell_rng(cell), p)
        built = verify._build_instances(n, draws)
        assert len(built) == len(modes) * trials
        for cell, p in enumerate(modes):
            own = built[cell * trials : (cell + 1) * trials]
            assert_same_instances(own, reference_instances(n, m, trials, cell_rng(cell), p))
            alone = [(ch.operators, sigma, rho, part)
                     for ch, sigma, rho, part in verify.random_instances(n, m, trials, cell_rng(cell), p)]
            assert_same_instances(own, alone)

    @pytest.mark.parametrize(
        "n, m, trials, mode, full_rank",
        [(3, 4, 200, "random", False), (1, 3, 5, "random", False), (3, 1, 5, "singleton", False),
         (3, 2, 5, "random", True), (3, 4, 5, 4, False)],
    )
    def test_stacked_draws_match_the_per_child_draws(self, n, m, trials, mode, full_rank):
        # the channels come from one stacked QR; each must be the channel its child draws alone,
        # sliced from a Haar unitary of its own
        got = list(verify.random_instances(n, m, trials, np.random.default_rng(7), mode, full_rank))
        assert len(got) == trials
        for child, (ch, sigma, rho, part) in zip(np.random.default_rng(7).spawn(trials), got):
            U = channels.haar_unitary(n * m, child)
            rank_s = n if full_rank else int(child.integers(1, n + 1))
            rank_r = n if full_rank else int(child.integers(1, n + 1))
            assert np.array_equal(ch.operators, np.stack([U[mu * n : (mu + 1) * n, :n] for mu in range(m)]))
            assert not ch.operators.flags.writeable
            assert np.array_equal(sigma, states.random_density(n, rank_s, child))
            assert np.array_equal(rho, states.random_density(n, rank_r, child))
            if mode == "random":
                assert part == channels.random_partition(m, child)
            else:
                assert part == (None if mode == "singleton" else channels.singleton_partition(m))


def dense_update(ch, block, state, fallback):
    """M_block(state) = sum_{mu in block} M_mu state M_mu† / p, with the xi substitution; (update, used)."""
    def block_map(x):
        return sum(ch.operators[mu] @ x @ ch.operators[mu].conj().T for mu in block)

    out = block_map(state)
    used = out.trace().real <= ZERO_PROB_TOL
    if used:
        out = block_map(states.maximally_mixed(ch.dim) if fallback is None else fallback)
    out = (out + out.conj().T) / 2
    return out / out.trace().real, bool(used)


def per_block_expected_next(ch, sigma, rho, measure, partition=None, fallback=None):
    """The per-block loop the stacked checks replaced: (lhs, rhs, fallback blocks), one block at a time.

    Unlike the old loop it records the fallback blocks after an infinite
    term too, as the report lists every block that used the fallback.
    """
    fn = verify.MEASURES[measure]
    blocks = channels.singleton_partition(ch.num_outcomes).blocks if partition is None else partition.blocks
    probs = [float(np.einsum("mij,jk,mik->", ch.operators[list(b)], rho, ch.operators[list(b)].conj()).real)
             for b in blocks]
    total, infinite, fallback_blocks = 0.0, False, []
    for nu, (block, p) in enumerate(zip(blocks, probs)):
        if p <= ZERO_PROB_TOL:
            continue
        rho_next, _ = dense_update(ch, block, rho, None)
        sigma_next, used_fb = dense_update(ch, block, sigma, fallback)
        if used_fb:
            fallback_blocks.append(nu)
        term = fn(sigma_next, rho_next)
        infinite = infinite or math.isinf(term)
        total += p * term
    return (math.inf if infinite else total), fn(sigma, rho), tuple(fallback_blocks)


def oracle_instances():
    """60 random instances (n in [1, 5], m in [1, 4], rank-deficient states; singleton,
    trivial and random partitions), zero-probability blocks with and without a given
    fallback, and the counter-example, whose relative-entropy terms are infinite."""
    rng = np.random.default_rng(40)
    out = []
    for i in range(60):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        ch = channels.random_channel(n, m, rng)
        sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        part = (None, channels.trivial_partition(m), channels.random_partition(m, rng))[i % 3]
        out.append((ch, sigma, rho, part, None))
    proj = channels.validate_channel([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
    sigma = np.diag([0.0, 0.3, 0.7]).astype(complex)
    rho = states.random_density(3, 3, rng)
    out.append((proj, sigma, rho, None, states.random_density(3, 2, rng)))
    sigma = np.diag([0.0, 0.0, 1.0]).astype(complex)
    out.append((proj, sigma, rho, channels.make_partition(3, [[2], [0], [1]]), None))
    out.append(verify.counterexample_instance() + (None, None))
    return out


class TestStackedChecksAgainstDenseOracle:
    @pytest.mark.parametrize("measure", sorted(verify.MEASURES))
    def test_gap_reports_match_the_per_block_loop(self, measure):
        for ch, sigma, rho, part, xi in oracle_instances():
            rep = verify.measure_gap_report(ch, sigma, rho, measure, part, xi)
            lhs, rhs, fb = per_block_expected_next(ch, sigma, rho, measure, part, xi)
            for got, want in ((rep.lhs, lhs), (rep.rhs, rhs)):
                if math.isinf(want):
                    assert math.isinf(got)
                else:
                    assert abs(got - want) <= 1e-12
            assert rep.fallback_blocks == fb
            assert isinstance(rep.lhs, float) and isinstance(rep.rhs, float)

    def test_instances_cover_fallback_and_infinite_terms(self):
        insts = oracle_instances()
        fb = [per_block_expected_next(*inst[:3], "fidelity", *inst[3:])[2] for inst in insts]
        assert fb[-3] == (0,) and fb[-2] == (1, 2)
        ch, sigma, rho, _, _ = insts[-1]
        assert math.isinf(verify.measure_gap_report(ch, sigma, rho, "relative_entropy").lhs)

    def test_mean_evolution_and_monotonicity_match_the_dense_sums(self):
        for ch, sigma, rho, part, _ in oracle_instances():
            blocks = channels.singleton_partition(ch.num_outcomes).blocks if part is None else part.blocks
            kraus = sum(M @ rho @ M.conj().T for M in ch.operators)
            acc = np.zeros_like(kraus)
            for block in blocks:
                p = sum(float(np.trace(ch.operators[mu] @ rho @ ch.operators[mu].conj().T).real) for mu in block)
                if p > ZERO_PROB_TOL:
                    acc += p * dense_update(ch, block, rho, None)[0]
            dev = verify.check_mean_evolution(ch, rho, part)
            assert dev <= 1e-12
            assert abs(dev - float(np.abs(acc - kraus).max())) <= 1e-12
            rep = verify.check_kraus_monotonicity(ch, sigma, rho)
            image = [sum(M @ x @ M.conj().T for M in ch.operators) for x in (sigma, rho)]
            assert abs(rep.lhs - measures.fidelity(*image)) <= 1e-12
            assert abs(rep.rhs - measures.fidelity(sigma, rho)) <= 1e-12


class TestCallCounts:
    """The exact checks stay one stacked call per instance, however many blocks.

    Each exact check and each replay makes one pass: one per-outcome
    product and one dense block kernel per distinct partition, which give
    the probabilities and the updates together, and calls neither public
    wrapper around them.
    """

    @pytest.fixture
    def counts(self, monkeypatch):
        channels._pass_memo.clear()  # no count depends on the passes earlier tests left
        counts = {"fidelity": 0, "products": 0, "kernel": 0, "conditional_update": 0, "outcome_probs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        fid = counted("fidelity", measures.fidelity)
        monkeypatch.setattr(measures, "fidelity", fid)
        monkeypatch.setitem(verify.MEASURES, "fidelity", fid)
        # every module that could call them by name, whether it imports them or not
        for name, key in (
            ("_per_outcome", "products"), ("_block_maps", "kernel"),
            ("conditional_update",) * 2, ("outcome_probs",) * 2,
        ):
            fn = counted(key, getattr(channels, name))
            for module in (channels, verify, dilation):
                monkeypatch.setattr(module, name, fn, raising=False)
        return counts

    @pytest.mark.parametrize("m", [2, 6])
    def test_submartingale_check(self, counts, m):
        ch, sigma, rho = random_instance(np.random.default_rng(m), n=3, m=m)
        verify.check_fidelity_submartingale(ch, sigma, rho)
        assert counts == {"fidelity": 1, "products": 1, "kernel": 1, "conditional_update": 0, "outcome_probs": 0}

    def test_mean_evolution(self, counts):
        rng = np.random.default_rng(5)
        ch, _, rho = random_instance(rng, n=3, m=5)
        verify.check_mean_evolution(ch, rho, channels.random_partition(5, rng))
        # K(rho) is summed from the pass's per-outcome maps, not from a second product
        assert counts == {"fidelity": 0, "products": 1, "kernel": 1, "conditional_update": 0, "outcome_probs": 0}

    @pytest.mark.parametrize("m", [2, 6])
    def test_proof_replay(self, counts, m):
        # sigma's block probabilities come from the one-step pass too; the fidelities come from
        # factors, so no dense fidelity runs
        rng = np.random.default_rng(m)
        ch, sigma, rho = random_instance(rng, n=3, m=m)
        dilation.replay_proof(ch, sigma, rho, channels.random_partition(m, rng))
        assert counts == {"fidelity": 0, "products": 1, "kernel": 1, "conditional_update": 0, "outcome_probs": 0}

    def test_proof_replay_eigendecompositions(self, monkeypatch):
        # one eigendecomposition of the stack [sigma, rho] gives the factors every fidelity and
        # the Uhlmann pair come from; no update is decomposed and no eigenvalue-only PSD test runs
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(("eigh", np.shape(a))) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(("eigvalsh", np.shape(a))) or eigvalsh(a))
        rng = np.random.default_rng(8)
        ch, sigma, rho = random_instance(rng, n=3, m=4)
        dilation.replay_proof(ch, sigma, rho)
        assert calls == [("eigh", (2, 3, 3))]

    def test_verify_run(self, counts, tmp_path):
        # one stacked pass for the run: one per-outcome product, one kernel call per distinct
        # partition, its mean evolution and K(rho) read from that pass, and one fidelity call
        # for every instance
        argv = ["verify", "--partition-mode", "random", "--trials", "12", "--seed", "3", "--output", str(tmp_path)]
        assert cli.run(argv) == 0
        parts = {part for *_, part in verify.random_instances(3, 3, 12, np.random.default_rng(3), "random")}
        assert 1 < len(parts) < 12
        assert counts == {
            "fidelity": 1, "products": 1, "kernel": len(parts), "conditional_update": 0, "outcome_probs": 0,
        }

    def test_counterexample_report(self, counts):
        # the three measures read one pass of the one instance
        verify.counterexample_report()
        assert counts == {"fidelity": 1, "products": 1, "kernel": 1, "conditional_update": 0, "outcome_probs": 0}

    @pytest.mark.parametrize("kind", ["random", "trivial", "singleton", "none"])
    def test_battery_on_one_instance(self, counts, kind):
        # demo 03's checks and the trace-distance and Frobenius reports form one pass per
        # distinct partition, all on one product: the second partition's pass and monotonicity
        # read the first pass's checked per-outcome maps of [sigma, rho]
        rng = np.random.default_rng(11)
        ch, sigma, rho = random_instance(rng, n=3, m=4)
        part = {"random": channels.random_partition(4, rng, 2), "trivial": channels.trivial_partition(4),
                "singleton": channels.singleton_partition(4), "none": None}[kind]
        verify.check_fidelity_submartingale(ch, sigma, rho)
        verify.check_fidelity_submartingale(ch, sigma, rho, part)
        verify.check_kraus_monotonicity(ch, sigma, rho)
        verify.check_mean_evolution(ch, rho, part)
        verify.measure_gap_report(ch, sigma, rho, "trace_distance")
        verify.measure_gap_report(ch, sigma, rho, "frobenius")
        passes = len({None, part})
        assert counts == {
            "fidelity": 2, "products": 1, "kernel": passes, "conditional_update": 0, "outcome_probs": 0,
        }

    def test_kraus_monotonicity_after_a_pass(self, counts, monkeypatch):
        # monotonicity reads the kept pass's product of [sigma, rho] and factors [sigma, rho,
        # K(sigma), K(rho)] with one eigendecomposition
        ch, sigma, rho = random_instance(np.random.default_rng(7), n=3, m=6)
        verify.check_fidelity_submartingale(ch, sigma, rho)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or eigh(a))
        verify.check_kraus_monotonicity(ch, sigma, rho)
        assert calls == [(4, 3, 3)]
        assert counts == {"fidelity": 1, "products": 1, "kernel": 1, "conditional_update": 0, "outcome_probs": 0}

    def test_kraus_monotonicity(self, counts):
        # one product of the stack [sigma, rho]; the fidelities come from its own square roots
        ch, sigma, rho = random_instance(np.random.default_rng(7), n=3, m=6)
        verify.check_kraus_monotonicity(ch, sigma, rho)
        assert counts == {"fidelity": 0, "products": 1, "kernel": 0, "conditional_update": 0, "outcome_probs": 0}


def near_null_instance(rng):
    """(channel, sigma, rho): a projective channel and an estimate whose outcome-0 probability is
    in [1e-12, 1e-8], whose update of that block is not positive semidefinite."""
    basis = channels.haar_unitary(3, rng)
    labels = np.concatenate([np.arange(2), rng.integers(0, 2, 1)])
    rng.shuffle(labels)
    proj = channels.validate_channel([basis[:, labels == k] @ basis[:, labels == k].conj().T for k in (0, 1)])
    inside, outside = basis[:, labels == 0], basis[:, labels != 0]
    eps = 10.0 ** rng.uniform(-12.0, -8.0)
    a = inside @ states.random_density(inside.shape[1], 1, rng) @ inside.conj().T
    k = outside.shape[1]
    b = outside @ states.random_density(k, int(rng.integers(1, k + 1)), rng) @ outside.conj().T
    return proj, (1.0 - eps) * b + eps * a, states.random_density(3, int(rng.integers(1, 4)), rng)


def memo_instances():
    """(channel, sigma, rho, partition, xi): rank-deficient states under partitions None, singleton,
    trivial and random, a caller's xi that a vanishing sigma block takes, n = 1, m = 1, and the
    counter-example."""
    rng = np.random.default_rng(60)
    out = []
    for part in (None, channels.singleton_partition(3), channels.trivial_partition(3), channels.random_partition(3, rng, 2)):
        ch, sigma, rho = random_instance(rng, n=3, m=3)
        out.append((ch, sigma, rho, part, None))
    proj = channels.validate_channel([np.diag(np.eye(3)[k]) for k in range(3)])
    out.append((proj, np.diag([0.0, 0.3, 0.7]).astype(complex), states.random_density(3, 2, rng), None, states.random_density(3, 2, rng)))
    for n, m in ((1, 3), (3, 1)):
        ch, sigma, rho = random_instance(rng, n=n, m=m)
        out.append((ch, sigma, rho, channels.random_partition(m, rng), None))
    out.append(verify.counterexample_instance() + (channels.trivial_partition(2), None))
    return out


def battery(ch, sigma, rho, part, xi, fresh):
    """Every exact result of one instance as text: each measure's gap report under None and part,
    monotonicity, both mean-evolution deviations and the proof replay; with fresh, every call forms
    its pass."""
    calls = [
        lambda measure=measure, p=p: verify.measure_gap_report(ch, sigma, rho, measure, p, xi).csv_row()
        for p in (None, part) for measure in sorted(verify.MEASURES)
    ]
    calls.append(lambda: verify.check_kraus_monotonicity(ch, sigma, rho).csv_row())
    calls += [lambda p=p: repr(verify.check_mean_evolution(ch, rho, p)) for p in (None, part)]
    calls.append(lambda: repr(dilation.replay_proof(ch, sigma, rho, part).to_dict()))
    out = []
    for call in calls:
        if fresh:
            channels._pass_memo.clear()
        out.append(call())
    return out


class TestPassMemo:
    """A battery of checks on one instance forms its batch-of-one pass once, with the results of
    fresh passes bit for bit."""

    @pytest.fixture
    def formed(self, monkeypatch):
        channels._pass_memo.clear()
        formed = []
        kept_pass = channels._kept_pass
        monkeypatch.setattr(channels, "_kept_pass", lambda *args: formed.append(1) or kept_pass(*args))
        return formed

    @pytest.mark.parametrize("i", range(len(memo_instances())))
    def test_memo_hits_give_the_results_of_fresh_passes(self, formed, i):
        inst = memo_instances()[i]
        fresh = battery(*inst, fresh=True)
        calls = len(formed)
        del formed[:]
        channels._pass_memo.clear()
        assert battery(*inst, fresh=False) == fresh
        assert 0 < len(formed) < calls  # the battery read kept passes

    def test_memo_counterexample_report(self, formed):
        got = verify.counterexample_report().to_dict()
        assert len(formed) == 1
        assert repr(verify.counterexample_report().to_dict()) == repr(got)
        channels._pass_memo.clear()
        assert repr(verify.counterexample_report().to_dict()) == repr(got)
        assert len(formed) == 2

    def test_memo_hit_rules(self, formed):
        rng = np.random.default_rng(20)
        ch, sigma, rho = random_instance(rng, n=3, m=3)
        other, xi, part = states.random_density(3, 2, rng), states.random_density(3, 3, rng), channels.trivial_partition(3)
        calls = [
            (lambda: verify.measure_gap_report(ch, sigma, rho, "fidelity"), 1),
            (lambda: verify.measure_gap_report(ch, sigma, rho, "frobenius"), 1),  # sigma's bytes are equal
            (lambda: verify.check_mean_evolution(ch, rho), 1),  # rho alone reads sigma's pass
            (lambda: verify.measure_gap_report(ch, other, rho, "fidelity"), 2),  # sigma differs
            (lambda: verify.measure_gap_report(ch, other, rho, "fidelity", part), 3),
            (lambda: verify.measure_gap_report(ch, other, rho, "fidelity", fallback=xi), 4),
            (lambda: verify.measure_gap_report(ch, other, rho, "fidelity", fallback=xi.copy()), 4),  # equal bytes
            (lambda: verify.check_mean_evolution(ch, other), 5),
            (lambda: verify.measure_gap_report(ch, sigma, other, "fidelity"), 6),  # sigma's pass is not rho-only's
        ]
        for call, count in calls:
            call()
            assert len(formed) == count

    def test_memo_sees_states_overwritten_in_place(self, formed):
        rng = np.random.default_rng(21)
        ch, sigma, rho = random_instance(rng, n=3, m=4)
        new_sigma, new_rho = states.random_density(3, 3, rng), states.random_density(3, 2, rng)

        def results(s, r):
            return [verify.measure_gap_report(ch, s, r, "fidelity").csv_row(), verify.check_mean_evolution(ch, r)]

        want = []
        for s, r in ((sigma, rho), (new_sigma, rho), (new_sigma, new_rho)):
            channels._pass_memo.clear()
            want.append(results(s.copy(), r.copy()))
        assert want[0][0] != want[1][0] and want[1] != want[2]
        channels._pass_memo.clear()
        got = [results(sigma, rho)]
        sigma[...] = new_sigma
        got.append(results(sigma, rho))
        rho[...] = new_rho
        got.append(results(sigma, rho))
        assert got == want

    def test_memo_arrays_are_read_only(self, formed):
        rng = np.random.default_rng(22)
        ch, sigma, rho = random_instance(rng, n=3, m=4)
        verify.measure_gap_report(ch, sigma, rho, "fidelity", channels.random_partition(4, rng, 2))
        verify.check_mean_evolution(ch, rho)
        assert len(channels._pass_memo) == 2
        for *_, kept in channels._pass_memo:
            arrays = [kept.weights, kept.updates, kept.used, kept.maps]
            arrays += [a for probs, blocks, _ in kept.instances for a in (probs, blocks)]
            for a in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
            assert isinstance(kept.instances, tuple)

    def test_memo_skips_stacked_passes_and_stays_bounded(self, formed):
        rng = np.random.default_rng(23)
        batch = batch_of(3, 3, rng, 8)
        _, _, kept = verify._gap_reports(batch, "fidelity")
        verify._mean_evolution_deviations(kept)
        verify.random_search_violation("trace_distance", 3, 3, 10, rng)
        assert not channels._pass_memo
        for k, (ch, sigma, rho, part) in enumerate(batch):
            verify.measure_gap_report(ch, sigma, rho, "fidelity", part)
            assert len(channels._pass_memo) == min(k + 1, channels._PASS_MEMO_SIZE)
        assert 1 <= channels._PASS_MEMO_SIZE <= 4
        # the least recently used pass goes first: touching the oldest kept instance keeps it
        oldest = batch[len(batch) - channels._PASS_MEMO_SIZE]
        verify.check_mean_evolution(oldest[0], oldest[2], oldest[3])
        ch, sigma, rho = random_instance(rng, n=3, m=3)
        verify.measure_gap_report(ch, sigma, rho, "fidelity")
        count = len(formed)
        verify.check_mean_evolution(oldest[0], oldest[2], oldest[3])
        assert len(formed) == count

    def test_memo_keeps_no_error(self, formed):
        ch, sigma, rho, message = TestMeasureGapReport.invalid_instance("scaled")
        message = f"^{re.escape(message)} \\(sigma\\)$"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                verify.measure_gap_report(ch, sigma, rho, "fidelity")
        assert not channels._pass_memo
        # rho's pass alone is valid and kept; sigma's check still runs on the next call
        verify.check_mean_evolution(ch, rho)
        assert len(channels._pass_memo) == 1
        with pytest.raises(ValueError, match=message):
            verify.measure_gap_report(ch, sigma, rho, "fidelity")

    @pytest.mark.parametrize("i", range(len(memo_instances())))
    def test_memo_shares_one_product_across_partitions_and_monotonicity(self, formed, monkeypatch, i):
        # a second partition's pass, monotonicity after a pass and the mean evolution after both
        # read the first pass's product, with the bits of calls on a cleared memo
        ch, sigma, rho, part, xi = memo_instances()[i]
        second = channels.trivial_partition(ch.num_outcomes) if part is None else part
        calls = [lambda: verify.measure_gap_report(ch, sigma, rho, "fidelity", None, xi).csv_row()]
        calls += [
            lambda measure=measure: verify.measure_gap_report(ch, sigma, rho, measure, second, xi).csv_row()
            for measure in sorted(verify.MEASURES)
        ]
        calls.append(lambda: (lambda r: (r.csv_row(), bits([r.lhs, r.rhs, r.gap])))(verify.check_kraus_monotonicity(ch, sigma, rho)))
        calls += [lambda p=p: bits(verify.check_mean_evolution(ch, rho, p)) for p in (None, second)]
        fresh = []
        for call in calls:
            channels._pass_memo.clear()
            fresh.append(call())
        products = []
        per_outcome = channels._per_outcome
        counted = lambda ops, states: products.append(states.shape) or per_outcome(ops, states)
        for module in (channels, verify):
            monkeypatch.setattr(module, "_per_outcome", counted)
        channels._pass_memo.clear()
        assert [call() for call in calls] == fresh
        n = ch.dim
        assert [shape for shape in products if shape != (n, n)] == [(2, 1, n, n)]  # besides a fallback xi's

    def test_memo_held_maps_are_read_only_and_shared(self, formed):
        rng = np.random.default_rng(24)
        ch, sigma, rho = random_instance(rng, n=3, m=4)
        verify.measure_gap_report(ch, sigma, rho, "fidelity")
        verify.measure_gap_report(ch, sigma, rho, "fidelity", channels.random_partition(4, rng, 2))
        verify.check_mean_evolution(ch, rho, channels.trivial_partition(4))
        verify.check_kraus_monotonicity(ch, sigma, rho)
        kept = [kept for *_, kept in channels._pass_memo]
        assert len(kept) == len(formed) == 3
        pair = np.array([sigma, rho])[:, None]
        assert kept[0].maps.tobytes() == channels._per_outcome(ch.operators[None], pair).tobytes()
        for k in kept:
            assert np.shares_memory(k.maps, kept[0].maps)  # one product, the rho-only pass reading rho's row
            with pytest.raises(ValueError, match="read-only"):
                k.maps[...] = 0
        # one hash of the instance for every report; a rho-only pass has none
        assert kept[0].digest is kept[1].digest is not None and kept[2].digest is None

    @pytest.mark.parametrize("fault", ["trace_above", "trace_below", "nan", "non_hermitian"])
    @pytest.mark.parametrize("name", ["sigma", "rho"])
    def test_memo_shares_nothing_from_a_pass_that_raised(self, formed, name, fault):
        ch, sigma, rho = random_instance(np.random.default_rng(25), n=3, m=2)
        bad = {
            "trace_above": lambda s: s * (1 + 1e-8),
            "trace_below": lambda s: s * (1 - 1e-8),
            "nan": lambda s: np.where(np.eye(3, k=1) + np.eye(3, k=-1) > 0, np.nan, s),
            "non_hermitian": lambda s: s + 0.1j * np.triu(np.ones((3, 3)), 1),
        }[fault]
        pair = {"sigma": sigma, "rho": rho}
        pair[name] = bad(pair[name])
        with pytest.raises(ValueError) as alone:
            verify.check_kraus_monotonicity(ch, **pair)
        assert str(alone.value).startswith(f"{name} ")
        for part in (None, channels.trivial_partition(2)):
            with pytest.raises(ValueError):
                verify.check_fidelity_submartingale(ch, pair["sigma"], pair["rho"], part)
        if name == "sigma":
            verify.check_mean_evolution(ch, rho)  # rho's pass is valid and kept; it holds no sigma
        assert len(channels._pass_memo) == (name == "sigma")
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            verify.check_kraus_monotonicity(ch, **pair)

    def test_memo_near_null_instance_raises_on_every_call(self, formed):
        ch, sigma, rho = near_null_instance(np.random.default_rng(0))
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError, match="not positive semidefinite") as err:
                verify.check_fidelity_submartingale(ch, sigma, rho)
            messages.add(str(err.value))
        assert len(messages) == 1 and len(formed) == 1  # the pass is valid and kept; the fidelity raises

    def test_memo_across_threads(self, formed):
        # more threads than cores, switching often: each battery still reads its own instance's
        # passes, and the memo stays within its bound
        instances = memo_instances()
        want = [battery(*inst, fresh=True) for inst in instances]
        channels._pass_memo.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2 * (os.cpu_count() or 1)) as pool:
                got = list(pool.map(lambda inst: battery(*inst, fresh=False), instances * 3, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 3
        assert len(channels._pass_memo) <= channels._PASS_MEMO_SIZE


def batch_of(n, m, rng, count=8):
    """`count` random instances of one (n, m), rank-deficient states, partitions None, trivial,
    singleton and random (with random block counts) in turn."""
    out = []
    for i in range(count):
        ch = channels.random_channel(n, m, rng)
        sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
        part = (None, channels.trivial_partition(m), channels.singleton_partition(m), channels.random_partition(m, rng))[i % 4]
        out.append((ch, sigma, rho, part))
    return out


def mixed_batch():
    """(3, 3) instances with two mid-batch: a projective one whose sigma takes the fallback on
    block 0, and a diagonal one with an infinite relative-entropy term beside a finite one."""
    rng = np.random.default_rng(50)
    batch = batch_of(3, 3, rng, 10)
    proj = channels.validate_channel([np.diag(np.eye(3)[k]) for k in range(3)])
    batch.insert(3, (proj, np.diag([0.0, 0.3, 0.7]).astype(complex), states.random_density(3, 3, rng), None))
    r = 1 / np.sqrt(2)
    diag = channels.validate_channel([np.diag([1.0, r, 0.0]), np.diag([0.0, r, r]), np.diag([0.0, 0.0, r])])
    batch.insert(6, (diag, np.diag([0.0, 0.5, 0.5]).astype(complex), np.diag([0.5, 0.5, 0.0]).astype(complex), None))
    return batch


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestAcrossInstances:
    """A stacked pass over B instances gives each instance the bits of its batch of one."""

    @pytest.mark.parametrize("measure", sorted(verify.MEASURES))
    @pytest.mark.parametrize("n, m", [(3, 3), (1, 3), (3, 1), (2, 4)])
    def test_batch_equals_batches_of_one_across_instances(self, measure, n, m):
        batch = mixed_batch() if (n, m) == (3, 3) else batch_of(n, m, np.random.default_rng(10 * n + m))
        reports, steps, _ = verify._gap_reports(batch, measure)
        assert len({part for *_, part in batch}) > 1
        for inst, rep, step in zip(batch, reports, steps):
            [alone], [alone_step], _ = verify._gap_reports([inst], measure)
            single = verify.measure_gap_report(*inst[:3], measure, inst[3])
            assert rep.csv_row() == alone.csv_row() == single.csv_row()
            assert bits([rep.lhs, rep.rhs, rep.gap]) == bits([alone.lhs, alone.rhs, alone.gap])
            assert rep.fallback_blocks == alone.fallback_blocks
            for got, want in zip(step, alone_step):  # every field of the pass, bit for bit
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_batch_covers_fallback_and_infinite_terms_across_instances(self):
        reports, steps, _ = verify._gap_reports(mixed_batch(), "relative_entropy")
        assert reports[3].fallback_blocks == (0,)
        assert [r.fallback_blocks for i, r in enumerate(reports) if i != 3] == [()] * 11
        values = steps[6].values
        assert math.isinf(values[0]) and math.isfinite(values[1]) and math.isinf(reports[6].lhs)
        assert any(math.isfinite(r.lhs) for r in reports)

    def test_mean_evolution_deviations_across_instances(self):
        batch = mixed_batch()
        _, _, kept = verify._gap_reports(batch, "fidelity")
        got = verify._mean_evolution_deviations(kept)
        want = [verify.check_mean_evolution(ch, rho, part) for ch, _, rho, part in batch]
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("n, m", [(3, 3), (1, 3), (3, 1), (2, 4)])
    def test_kraus_map_and_deviations_across_instances(self, n, m):
        # K(rho), summed from the pass's per-outcome maps, and the deviations read against it give
        # each instance the bits of its batch of one and of apply_channel alone
        batch = mixed_batch() if (n, m) == (3, 3) else batch_of(n, m, np.random.default_rng(10 * n + m))
        _, _, kept = verify._gap_reports(batch, "fidelity")
        kraus, deviations = kept.kraus_map(), verify._mean_evolution_deviations(kept)
        assert kraus.shape == (len(batch), n, n) and len(deviations) == len(batch)
        for inst, K, dev in zip(batch, kraus, deviations):
            ch, _, rho, part = inst
            _, _, alone = verify._gap_reports([inst], "fidelity")
            assert K.tobytes() == alone.kraus_map()[0].tobytes() == channels.apply_channel(ch, rho).tobytes()
            assert bits(dev) == bits(verify._mean_evolution_deviations(alone)) == bits(verify.check_mean_evolution(ch, rho, part))

    def test_near_null_instance_raises_alone_and_across_instances(self):
        # the benchmark's near-null instance: a projective channel and an estimate whose outcome-0
        # probability is in [1e-12, 1e-8], whose update of that block is not positive semidefinite
        rng = np.random.default_rng(0)
        basis = channels.haar_unitary(3, rng)
        labels = np.concatenate([np.arange(2), rng.integers(0, 2, 1)])
        rng.shuffle(labels)
        proj = channels.validate_channel([basis[:, labels == k] @ basis[:, labels == k].conj().T for k in (0, 1)])
        inside, outside = basis[:, labels == 0], basis[:, labels != 0]
        eps = 10.0 ** rng.uniform(-12.0, -8.0)
        a = inside @ states.random_density(inside.shape[1], 1, rng) @ inside.conj().T
        k = outside.shape[1]
        b = outside @ states.random_density(k, int(rng.integers(1, k + 1)), rng) @ outside.conj().T
        near_null = (proj, (1.0 - eps) * b + eps * a, states.random_density(3, int(rng.integers(1, 4)), rng), None)
        with pytest.raises(ValueError, match="not positive semidefinite") as alone:
            verify.measure_gap_report(*near_null[:3], "fidelity")
        batch = batch_of(3, 2, rng)
        batch.insert(5, near_null)
        with pytest.raises(ValueError) as together:
            verify._gap_reports(batch, "fidelity")
        assert str(together.value) == str(alone.value)

    def test_search_reads_one_pass_across_instances(self):
        # the search's reports are the batch-of-one reports of the same instances
        found = verify.random_search_violation("trace_distance", 3, 2, 40, np.random.default_rng(12), True)
        instances = [verify.counterexample_instance()]
        instances += [inst[:3] for inst in verify.random_instances(3, 2, 40, np.random.default_rng(12))]
        reports = [verify.measure_gap_report(*inst, "trace_distance") for inst in instances]
        assert found == [r for r in reports if not r.passed] and found
        assert verify.random_search_violation("fidelity", 3, 2, 0, np.random.default_rng(0)) == []

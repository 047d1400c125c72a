import io
import math

import numpy as np
import pytest

from qfilter import channels, measures, states, verify


def random_instance(rng, n=None, m=None):
    n = n or int(rng.integers(2, 5))
    m = m or int(rng.integers(2, 5))
    ch = channels.random_channel(n, m, rng)
    sigma = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
    return ch, sigma, rho


class TestExpectedNextMeasure:
    def test_counterexample_trace_distance(self):
        ch, sigma, rho = verify.counterexample_instance()
        got = verify.expected_next_measure(ch, sigma, rho, "trace_distance")
        assert abs(got - 4.0 / 3.0) < 1e-14

    def test_counterexample_fidelity(self):
        ch, sigma, rho = verify.counterexample_instance()
        got = verify.expected_next_measure(ch, sigma, rho, "fidelity")
        assert abs(got - 1.0 / 3.0) < 1e-14

    def test_unitary_channel_is_invariant(self):
        rng = np.random.default_rng(0)
        U = channels.haar_unitary(3, rng)
        ch = channels.validate_channel([U])
        sigma = states.random_density(3, 2, rng)
        rho = states.random_density(3, 3, rng)
        for name, fn in verify.MEASURES.items():
            got = verify.expected_next_measure(ch, sigma, rho, name)
            want = fn(sigma, rho)
            if math.isinf(want):
                assert math.isinf(got), name
            else:
                assert abs(got - want) < 1e-10, name

    def test_unknown_measure(self):
        ch, sigma, rho = verify.counterexample_instance()
        with pytest.raises(ValueError, match="unknown measure"):
            verify.expected_next_measure(ch, sigma, rho, "bures")

    def test_infinite_terms_propagate(self):
        ch, sigma, rho = verify.counterexample_instance()
        assert math.isinf(verify.expected_next_measure(ch, sigma, rho, "relative_entropy"))


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

    def test_verdict_honours_tol_and_infinite_sides(self):
        ch, sigma, rho = verify.counterexample_instance()
        # the trace-distance gap is 1/3
        assert verify.measure_gap_report(ch, sigma, rho, "trace_distance", tol=0.5).passed
        rep = verify.measure_gap_report(ch, sigma, rho, "relative_entropy")
        assert math.isinf(rep.lhs) and rep.passed  # vacuous


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

    def test_full_rank(self):
        instances = verify.random_instances(3, 2, 5, np.random.default_rng(6), full_rank=True)
        for _, sigma, rho, _ in instances:
            assert np.linalg.matrix_rank(sigma) == np.linalg.matrix_rank(rho) == 3

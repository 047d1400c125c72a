import math

import numpy as np
import pytest

from qfilter import measures, states

RHO = np.diag([0.5, 0.5, 0.0]).astype(complex)
SIGMA = np.diag([0.0, 0.5, 0.5]).astype(complex)


def random_pure(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestFidelity:
    def test_counterexample_value(self):
        assert abs(measures.fidelity(SIGMA, RHO) - 0.25) < 1e-14

    def test_self_fidelity(self):
        rng = np.random.default_rng(0)
        rho = states.random_density(4, 3, rng)
        assert abs(measures.fidelity(rho, rho) - 1.0) < 1e-12

    def test_pure_argument_reduces_to_frobenius(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sig = random_pure(3, rng)
            rho = states.random_density(3, int(rng.integers(1, 4)), rng)
            assert abs(measures.fidelity(sig, rho) - np.trace(rho @ sig).real) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = states.random_density(3, int(rng.integers(1, 4)), rng)
            b = states.random_density(3, int(rng.integers(1, 4)), rng)
            assert abs(measures.fidelity(a, b) - measures.fidelity(b, a)) < 1e-10

    def test_one_iff_equal(self):
        rng = np.random.default_rng(3)
        a = states.random_density(3, 2, rng)
        b = states.random_density(3, 2, rng)
        assert measures.fidelity(a, b) < 1.0 - 1e-6
        assert abs(measures.fidelity(a, a) - 1.0) < 1e-12

    def test_defining_formula_cross_check(self):
        # oracle: (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2 via eigenvalues,
        # with exact-zero round-off (~1e-16) trimmed before the square root
        from qfilter import linalg

        def defining_formula(sigma, rho):
            s = linalg.psd_sqrt(sigma)
            inner = s @ rho @ s
            w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
            w = np.where(w < 1e-13, 0.0, w)
            return float(np.sqrt(w).sum() ** 2)

        rng = np.random.default_rng(4)
        for _ in range(100):
            a = states.random_density(4, int(rng.integers(1, 5)), rng)
            b = states.random_density(4, int(rng.integers(1, 5)), rng)
            assert abs(measures.fidelity(a, b) - defining_formula(a, b)) < 1e-10

    def test_stack_matches_each_pair(self):
        # batched LAPACK calls may differ from single ones in the last bit
        rng = np.random.default_rng(5)
        a = np.stack([states.random_density(3, r, rng) for r in (1, 2, 3)])
        b = np.stack([states.random_density(3, r, rng) for r in (3, 2, 1)])
        for fn in (measures.fidelity, measures.trace_distance, measures.frobenius_inner):
            got = fn(a, b)
            assert got.shape == (3,)
            assert np.abs(got - [fn(x, y) for x, y in zip(a, b)]).max() < 1e-14

    def test_stack_raises_if_any_pair_is_invalid(self):
        bad = np.diag([1.0 + 1e-6, -1e-6, 0.0])
        with pytest.raises(ValueError, match="not positive semidefinite"):
            measures.fidelity(np.stack([RHO, bad]), np.stack([SIGMA, SIGMA]))
        with pytest.raises(ValueError, match="out of"):
            measures.fidelity(np.stack([RHO, 2 * RHO]), np.stack([RHO, RHO]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^rho has shape \(3, 3\), expected the shape of sigma, \(2, 2\)$"):
            measures.fidelity(np.eye(2) / 2, np.eye(3) / 3)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = states.random_density(2, int(rng.integers(1, 3)), rng)
            b = states.random_density(2, int(rng.integers(1, 3)), rng)
            assert 0.0 <= measures.fidelity(a, b) <= 1.0


class TestTraceDistance:
    def test_counterexample_value(self):
        assert abs(measures.trace_distance(SIGMA, RHO) - 1.0) < 1e-14

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        rho = states.random_density(3, 3, rng)
        assert measures.trace_distance(rho, rho) < 1e-13

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert abs(measures.trace_distance(a, b) - 2.0) < 1e-14
        assert abs(measures.trace_distance(a, b, normalized=True) - 1.0) < 1e-14

    def test_pure_state_identity_with_fidelity(self):
        # for pure states, (1/2) tr|sigma - rho| = sqrt(1 - F)
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_pure(3, rng)
            b = random_pure(3, rng)
            d = measures.trace_distance(a, b, normalized=True)
            f = measures.fidelity(a, b)
            assert abs(d - math.sqrt(max(1.0 - f, 0.0))) < 1e-10


class TestFrobeniusInner:
    def test_counterexample_value(self):
        # 1/2*0 + 1/2*1/2 + 0*1/2 = 1/4
        assert abs(measures.frobenius_inner(SIGMA, RHO) - 0.25) < 1e-14

    def test_maximally_mixed(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            rho = states.random_density(n, n, rng)
            assert abs(measures.frobenius_inner(rho, np.eye(n) / n) - 1 / n) < 1e-12

    def test_matches_fidelity_for_pure_argument(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sig = random_pure(4, rng)
            rho = states.random_density(4, 2, rng)
            assert abs(measures.frobenius_inner(sig, rho) - measures.fidelity(sig, rho)) < 1e-10


class TestRelativeEntropy:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(10)
        rho = states.random_density(3, 3, rng)
        assert abs(measures.relative_entropy(rho, rho)) < 1e-10

    def test_disjoint_supports_infinite(self):
        assert math.isinf(measures.relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

    def test_counterexample_supports_not_nested(self):
        assert math.isinf(measures.relative_entropy(RHO, SIGMA))

    def test_diagonal_value(self):
        # S = (1/2) ln 2 + (1/2) ln(2/3), computed independently
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = measures.relative_entropy(np.diag([0.5, 0.5]), np.diag([0.25, 0.75]))
        assert abs(got - want) < 1e-14

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = states.random_density(3, 3, rng)
            sig = states.random_density(3, 3, rng)
            assert measures.relative_entropy(rho, sig) >= -1e-12

    def test_stack_agrees_per_pair_and_marks_inf_per_pair(self):
        rng = np.random.default_rng(13)
        rhos = [states.random_density(3, r, rng) for r in (1, 2, 3, 3)] + [RHO, SIGMA]
        sigmas = [states.random_density(3, 3, rng) for _ in range(3)]
        sigmas += [states.random_density(3, 2, rng), SIGMA, RHO]
        got = measures.relative_entropy(np.stack(rhos), np.stack(sigmas))
        assert got.shape == (6,)
        # full-rank rho against a rank-2 sigma, and the counter-example pair both ways
        assert np.isinf(got).tolist() == [False, False, False, True, True, True]
        for value, rho, sig in zip(got, rhos, sigmas):
            want = measures.relative_entropy(rho, sig)
            if math.isinf(want):
                assert math.isinf(value)
            else:
                assert abs(value - want) <= 1e-14


class TestPurity:
    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            p = measures.purity(rho)
            assert 1 / n - 1e-12 <= p <= 1.0 + 1e-12

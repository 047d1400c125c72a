import numpy as np
import pytest

from qfilter import states

import oracles


def brute_force_partial_trace(M, dim_a, dim_b, keep):
    """Independent index-sum oracle for the first-factor-fastest layout."""
    if keep == "a":
        out = np.zeros((dim_a, dim_a), dtype=complex)
        for a in range(dim_a):
            for a2 in range(dim_a):
                for b in range(dim_b):
                    out[a, a2] += M[a + dim_a * b, a2 + dim_a * b]
    else:
        out = np.zeros((dim_b, dim_b), dtype=complex)
        for b in range(dim_b):
            for b2 in range(dim_b):
                for a in range(dim_a):
                    out[b, b2] += M[a + dim_a * b, a + dim_a * b2]
    return out


class TestMakeDensity:
    def test_accepts_counterexample_state(self):
        rho = states.make_density(np.diag([0.5, 0.5, 0.0]))
        assert rho.shape == (3, 3)

    def test_trace_error(self):
        with pytest.raises(ValueError, match="unit trace"):
            states.make_density(np.diag([1.0, 1.0]))

    def test_positivity_error(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            states.make_density(np.diag([1.01, -0.01]))

    def test_hermiticity_error(self):
        M = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            states.make_density(M)

    def test_shape_error(self):
        with pytest.raises(ValueError, match="square"):
            states.make_density(np.zeros((2, 3)))


class TestMaximallyMixed:
    def test_qubit(self):
        assert np.array_equal(states.maximally_mixed(2), np.eye(2) / 2)

    def test_qutrit(self):
        assert np.array_equal(states.maximally_mixed(3), np.eye(3) / 3)

    def test_purity(self):
        for n in (2, 3, 5):
            rho = states.maximally_mixed(n)
            assert abs(np.trace(rho @ rho).real - 1 / n) < 1e-14

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            states.maximally_mixed(0)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rng = np.random.default_rng(0)
        rho = states.random_density(4, 1, rng)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_full_rank_spectrum(self):
        rng = np.random.default_rng(1)
        rho = states.random_density(3, 3, rng)
        w = np.linalg.eigvalsh(rho)
        assert (w > 1e-9).all()
        assert abs(w.sum() - 1.0) < 1e-12

    def test_requested_rank(self):
        rng = np.random.default_rng(2)
        rho = states.random_density(5, 2, rng)
        w = np.linalg.eigvalsh(rho)
        assert (w[-2:] > 1e-9).all()
        assert np.abs(w[:-2]).max() < 1e-12

    def test_seed_determinism(self):
        a = states.random_density(3, 2, np.random.default_rng(7))
        b = states.random_density(3, 2, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rank_out_of_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="rank"):
            states.random_density(3, 4, rng)
        with pytest.raises(ValueError, match="rank"):
            states.random_density(3, 0, rng)

    def test_always_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            rank = int(rng.integers(1, n + 1))
            states.make_density(states.random_density(n, rank, rng))


class TestPartialTrace:
    """The dense partial-trace oracle of the dilation tests, against an index sum."""

    def test_product_of_basis_states(self):
        v00 = oracles.tensor(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        proj = oracles.pure_projector(v00)
        out = oracles.partial_trace(proj, 2, 2, keep="a")
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-14

    def test_bell_projector(self):
        bell = np.zeros(4)
        bell[[0, 3]] = 1 / np.sqrt(2)
        out = oracles.partial_trace(oracles.pure_projector(bell), 2, 2, keep="b")
        assert np.abs(out - np.eye(2) / 2).max() < 1e-14

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(6)
        rho = states.random_density(3, 2, rng)
        sig = states.random_density(2, 2, rng)
        M = oracles.tensor(rho, sig)
        assert np.abs(oracles.partial_trace(M, 3, 2, "a") - rho).max() < 1e-13
        assert np.abs(oracles.partial_trace(M, 3, 2, "b") - sig).max() < 1e-13

    def test_against_brute_force(self):
        rng = np.random.default_rng(7)
        for dim_a, dim_b in [(2, 2), (2, 3), (3, 2), (4, 3)]:
            M = rng.standard_normal((dim_a * dim_b,) * 2) + 1j * rng.standard_normal((dim_a * dim_b,) * 2)
            for keep in ("a", "b"):
                got = oracles.partial_trace(M, dim_a, dim_b, keep)
                want = brute_force_partial_trace(M, dim_a, dim_b, keep)
                assert np.abs(got - want).max() < 1e-13

    def test_trace_preserving(self):
        rng = np.random.default_rng(8)
        M = states.random_density(6, 4, rng)
        for keep in ("a", "b"):
            out = oracles.partial_trace(M, 2, 3, keep)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected shape"):
            oracles.partial_trace(np.eye(5), 2, 2)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        rho = states.random_density(3, 3, rng)
        again = states.matrix_from_dict(states.matrix_to_dict(rho))
        assert np.array_equal(rho, again)

    def test_dim_mismatch_rejected(self):
        d = states.matrix_to_dict(np.eye(2))
        d["dim"] = 3
        with pytest.raises(ValueError, match="dim"):
            states.matrix_from_dict(d)

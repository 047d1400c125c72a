import numpy as np
import pytest

from qfilter import channels, states, tolerances


def counterexample_ops():
    r = 1 / np.sqrt(2)
    return [np.diag([1.0, r, 0.0]), np.diag([0.0, r, 1.0])]


RHO = np.diag([0.5, 0.5, 0.0]).astype(complex)
SIGMA = np.diag([0.0, 0.5, 0.5]).astype(complex)


class TestValidateChannel:
    def test_accepts_counterexample_pair(self):
        ch = channels.validate_channel(counterexample_ops())
        assert ch.dim == 3 and ch.num_outcomes == 2

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="completeness"):
            channels.validate_channel([np.eye(2) / 2])

    def test_accepts_single_unitary(self):
        U = np.array([[0.0, 1.0], [1.0, 0.0]])
        ch = channels.validate_channel([U])
        assert ch.num_outcomes == 1

    def test_rejects_zero_operator(self):
        with pytest.raises(ValueError, match="zero"):
            channels.validate_channel([np.eye(2), np.zeros((2, 2))])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            channels.validate_channel([np.eye(2), np.eye(3)])

    def test_operators_frozen(self):
        ch = channels.validate_channel(counterexample_ops())
        with pytest.raises(ValueError):
            ch.operators[0, 0, 0] = 5.0


class TestApplyChannel:
    def test_unitary_conjugation(self):
        rng = np.random.default_rng(0)
        U = channels.haar_unitary(3, rng)
        ch = channels.validate_channel([U])
        rho = states.random_density(3, 2, rng)
        assert np.abs(channels.apply_channel(ch, rho) - U @ rho @ U.conj().T).max() < 1e-12

    def test_counterexample_channel_fixes_rho(self):
        # M1 rho M1† + M2 rho M2† = diag(1/2, 1/4, 0) + diag(0, 1/4, 0) = rho
        ch = channels.validate_channel(counterexample_ops())
        assert np.abs(channels.apply_channel(ch, RHO) - RHO).max() < 1e-15
        assert np.abs(channels.apply_channel(ch, SIGMA) - SIGMA).max() < 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ch = channels.random_channel(3, 4, rng)
            rho = states.random_density(3, 3, rng)
            out = channels.apply_channel(ch, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            states.make_density(out)

    def test_dimension_mismatch(self):
        ch = channels.validate_channel(counterexample_ops())
        with pytest.raises(ValueError, match="dimension"):
            channels.apply_channel(ch, np.eye(2) / 2)


class TestOutcomeProbs:
    def test_counterexample_values(self):
        ch = channels.validate_channel(counterexample_ops())
        p = channels.outcome_probs(ch, RHO)
        assert np.abs(p - [0.75, 0.25]).max() < 1e-14

    def test_unitary_gives_one(self):
        ch = channels.validate_channel([np.eye(2)])
        assert np.array_equal(channels.outcome_probs(ch, np.eye(2) / 2), [1.0])

    def test_trivial_partition_gives_one(self):
        ch = channels.validate_channel(counterexample_ops())
        p = channels.outcome_probs(ch, RHO, channels.trivial_partition(2))
        assert p.shape == (1,)
        assert abs(p[0] - 1.0) < 1e-12

    def test_block_sums_match_fine_probs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            ch = channels.random_channel(3, m, rng)
            rho = states.random_density(3, 2, rng)
            part = channels.random_partition(m, rng)
            fine = channels.outcome_probs(ch, rho)
            coarse = channels.outcome_probs(ch, rho, part)
            for nu, block in enumerate(part.blocks):
                assert abs(coarse[nu] - fine[list(block)].sum()) < 1e-12


class TestConditionalUpdate:
    def test_counterexample_first_jump(self):
        ch = channels.validate_channel(counterexample_ops())
        out, used = channels.conditional_update(ch, 0, RHO)
        assert not used
        assert np.abs(out - np.diag([2 / 3, 1 / 3, 0.0])).max() < 1e-14

    def test_unitary_update(self):
        rng = np.random.default_rng(3)
        U = channels.haar_unitary(2, rng)
        ch = channels.validate_channel([U])
        rho = states.random_density(2, 2, rng)
        out, used = channels.conditional_update(ch, 0, rho)
        assert not used
        assert np.abs(out - U @ rho @ U.conj().T).max() < 1e-12

    def test_fallback_rule(self):
        # projective channel; the state has no weight on outcome 1
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        rho = np.diag([1.0, 0.0])
        out, used = channels.conditional_update(ch, 1, rho)
        assert used
        assert np.abs(out - np.diag([0.0, 1.0])).max() < 1e-14

    def test_fallback_exhausted(self):
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        rho = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="zero probability"):
            channels.conditional_update(ch, 1, rho, fallback=np.diag([1.0, 0.0]))

    def test_output_always_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            ch = channels.random_channel(3, m, rng)
            rho = states.random_density(3, int(rng.integers(1, 4)), rng)
            part = channels.random_partition(m, rng)
            for nu in range(part.num_blocks):
                out, _ = channels.conditional_update(ch, nu, rho, part)
                states.make_density(out)

    def test_stack_matches_each_state_and_flags_fallback_per_state(self):
        rng = np.random.default_rng(5)
        ch = channels.random_channel(3, 3, rng)
        part = channels.random_partition(3, rng, 2)
        stack = np.stack([states.random_density(3, r, rng) for r in (1, 2, 3)])
        probs = channels.outcome_probs(ch, stack, part)
        out, used = channels.conditional_update(ch, 0, stack, part)
        for i, rho in enumerate(stack):
            assert np.abs(probs[i] - channels.outcome_probs(ch, rho, part)).max() < 1e-15
            assert np.abs(out[i] - channels.conditional_update(ch, 0, rho, part)[0]).max() < 1e-14
        assert used.shape == (3,) and not used.any()
        proj = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        out, used = channels.conditional_update(proj, 1, np.stack([np.diag([1.0, 0.0]), np.eye(2) / 2]))
        assert used.tolist() == [True, False]
        assert np.abs(out - np.diag([0.0, 1.0])).max() < 1e-14

    def test_stack_check_fails_on_any_state(self):
        ch = channels.validate_channel(counterexample_ops())
        with pytest.raises(ValueError, match="sum to 1.5"):
            channels.outcome_probs(ch, np.stack([RHO, 1.5 * RHO]))

    def test_index_out_of_range(self):
        ch = channels.validate_channel(counterexample_ops())
        with pytest.raises(ValueError, match="out of range"):
            channels.conditional_update(ch, 2, RHO)


class TestRandomChannel:
    def test_single_operator_is_unitary(self):
        rng = np.random.default_rng(5)
        ch = channels.random_channel(3, 1, rng)
        M = ch.operators[0]
        assert np.abs(M.conj().T @ M - np.eye(3)).max() < 1e-12

    def test_completeness_residual(self):
        rng = np.random.default_rng(6)
        for n, m in [(2, 2), (3, 4), (4, 3), (5, 5)]:
            ch = channels.random_channel(n, m, rng)
            gram = sum(M.conj().T @ M for M in ch.operators)
            assert np.linalg.norm(gram - np.eye(n)) < 1e-10

    def test_seed_determinism(self):
        a = channels.random_channel(3, 2, np.random.default_rng(9))
        b = channels.random_channel(3, 2, np.random.default_rng(9))
        assert np.array_equal(a.operators, b.operators)


class TestMixtureIdentity:
    def test_weighted_updates_reproduce_kraus_map(self):
        # sum_nu p_nu(rho) M_nu(rho) = K(rho), fine and coarse
        rng = np.random.default_rng(7)
        for i in range(1000):
            n = 2 + i % 3
            m = int(rng.integers(1, 5))
            ch = channels.random_channel(n, m, rng)
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            part = channels.random_partition(m, rng) if i % 2 else None
            probs = channels.outcome_probs(ch, rho, part)
            acc = np.zeros((n, n), dtype=complex)
            for nu, p in enumerate(probs):
                if p <= tolerances.ZERO_PROB_TOL:
                    continue
                upd, _ = channels.conditional_update(ch, nu, rho, part)
                acc += p * upd
            assert np.abs(acc - channels.apply_channel(ch, rho)).max() < 1e-12


class TestPartitions:
    def test_singletons(self):
        part = channels.singleton_partition(3)
        assert part.blocks == ((0,), (1,), (2,))

    def test_singletons_are_shared(self):
        part = channels.singleton_partition(4)
        assert channels.singleton_partition(4) is part
        from_numpy = channels.singleton_partition(np.int64(4))
        assert from_numpy == part and type(from_numpy.m) is int

    def test_default_partition_updates_unchanged(self):
        # partition=None takes the shared singleton partition; a freshly
        # built one must give bit-identical updates and flags
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            ch = channels.random_channel(n, m, rng)
            fresh = channels.make_partition(m, [[i] for i in range(m)])
            rho = states.random_density(n, int(rng.integers(1, n + 1)), rng)
            for mu in range(m):
                got, got_fb = channels.conditional_update(ch, mu, rho)
                want, want_fb = channels.conditional_update(ch, mu, rho, fresh)
                assert np.array_equal(got, want) and got_fb == want_fb

    def test_trivial(self):
        assert channels.trivial_partition(3).blocks == ((0, 1, 2),)

    def test_make_partition_rejects_overlap(self):
        with pytest.raises(ValueError, match="partition"):
            channels.make_partition(3, [[0, 1], [1, 2]])

    def test_make_partition_rejects_missing(self):
        with pytest.raises(ValueError, match="partition"):
            channels.make_partition(3, [[0, 1]])

    def test_make_partition_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty"):
            channels.make_partition(2, [[0, 1], []])

    def test_random_partition_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = int(rng.integers(1, 8))
            part = channels.random_partition(m, rng)
            assert sorted(i for b in part.blocks for i in b) == list(range(m))
            assert all(b for b in part.blocks)

    def test_json_round_trip_one_based(self):
        part = channels.make_partition(4, [[0, 2], [1], [3]])
        d = part.to_dict()
        assert d == {"m": 4, "blocks": [[1, 3], [2], [4]]}
        assert channels.partition_from_dict(d) == part


class TestChannelSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        ch = channels.random_channel(3, 2, rng)
        again = channels.channel_from_dict(ch.to_dict())
        assert np.array_equal(ch.operators, again.operators)
